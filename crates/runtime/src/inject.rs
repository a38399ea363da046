//! Sharded external-injection lanes.
//!
//! External threads hand jobs to the pool through [`InjectLanes`]: a bank
//! of per-lane locked MPSC segments (one lane per worker) instead of the
//! single global `Mutex<VecDeque>` the pool used to have. Submitter
//! threads are spread across lanes round-robin via a process-wide
//! thread-local token, so concurrent injectors contend on *different*
//! locks; workers drain their own lane first and then sweep
//! the others like steal victims, so no lane can be starved.
//!
//! # Counter-publication invariant
//!
//! Each lane carries an atomic length that readers consult before touching
//! the lock. The length is published **while the queue lock is still
//! held**: any thread that observes `len > 0` and then acquires the lock
//! is guaranteed to find a job, and — the direction that matters for the
//! sleep protocol — once a push's lock is released, the job and its length
//! increment are visible *together*. The old code incremented the counter
//! after unlocking, opening a window where an idle worker's final
//! has-work check saw `len == 0` for an already-queued job and went to
//! sleep on it; only the timeout backstop recovered.
//!
//! # Memory-ordering audit
//!
//! None of the lane counter's accesses need `SeqCst`; the jobs themselves
//! travel under the queue mutex, and the *cross-thread* guarantee the
//! sleep protocol needs comes from the event counter, not from the lane
//! length:
//!
//! * **push** (`fetch_add`, `Release`): runs under the queue lock, and in
//!   the submitter's program order it precedes the `SeqCst`
//!   `events.fetch_add` inside the post-push `notify_one`. A sleeper whose
//!   under-lock re-check observes the epoch advance has an acquire edge to
//!   that RMW and therefore sees the length increment too; a sleeper that
//!   misses the epoch is handled by the Dekker argument in
//!   [`sleep`](crate::sleep) (the waker sees its announcement and
//!   notifies). The `Release` half additionally pairs with the `Acquire`
//!   fast-path load below so any observer of `len > 0` also sees the
//!   pushed job once it takes the lock (which it must anyway).
//! * **pop fast path** (`load`, `Acquire`): a stale `0` skips the lane —
//!   benign for sweeps, and for the idle worker's final has-work probe the
//!   wake protocol (not this load) is what prevents a lost sleep, exactly
//!   as above. A stale non-zero just takes the lock and finds nothing.
//! * **pop decrement** (`fetch_sub`, `Relaxed`): under the queue lock; the
//!   lock's release ordering publishes it to the next lock holder, and
//!   non-holders only ever act on the conservative direction.
//! * **len()** (`Acquire`): pairs with push's `Release` for the
//!   `len > 0 ⇒ job visible under lock` invariant; used by sweeps and the
//!   has-work probe, both covered above.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::job::JobRef;
use crate::util::CachePadded;

/// One locked MPSC segment with an atomic length published under the lock.
///
/// Also used for the per-worker mailboxes, which had the same
/// publish-after-unlock counter bug. A lane pops in arrival order.
pub(crate) struct Lane {
    queue: Mutex<VecDeque<JobRef>>,
    len: AtomicUsize,
}

impl Lane {
    pub(crate) fn new() -> Self {
        Lane { queue: Mutex::new(VecDeque::new()), len: AtomicUsize::new(0) }
    }

    /// Enqueue `job`, publishing the new length before the lock releases
    /// (see the module docs for why the ordering matters).
    pub(crate) fn push(&self, job: JobRef) {
        let mut q = self.queue.lock().unwrap();
        q.push_back(job);
        self.len.fetch_add(1, Ordering::Release);
    }

    /// Dequeue the oldest job. The length check lets idle sweeps skip
    /// empty lanes without touching their locks.
    pub(crate) fn pop(&self) -> Option<JobRef> {
        if self.len.load(Ordering::Acquire) == 0 {
            return None;
        }
        let mut q = self.queue.lock().unwrap();
        let popped = q.pop_front();
        if popped.is_some() {
            self.len.fetch_sub(1, Ordering::Relaxed);
        }
        popped
    }

    /// Published queue length.
    pub(crate) fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }
}

/// Round-robin submitter tokens: each thread that ever injects gets the
/// next token on first use, fixing its home lane for the process lifetime.
static NEXT_SUBMITTER_TOKEN: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static SUBMITTER_TOKEN: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// This thread's submitter token (assigned round-robin on first use).
fn submitter_token() -> usize {
    SUBMITTER_TOKEN.with(|t| {
        let mut tok = t.get();
        if tok == usize::MAX {
            tok = NEXT_SUBMITTER_TOKEN.fetch_add(1, Ordering::Relaxed);
            t.set(tok);
        }
        tok
    })
}

/// The pool's bank of injection lanes, each padded to its own cache line
/// so submitters on different lanes never false-share.
pub(crate) struct InjectLanes {
    lanes: Box<[CachePadded<Lane>]>,
}

impl InjectLanes {
    /// A bank of `lanes` lanes.
    pub(crate) fn new(lanes: usize) -> Self {
        assert!(lanes > 0, "a pool needs at least one injection lane");
        InjectLanes { lanes: (0..lanes).map(|_| CachePadded::new(Lane::new())).collect() }
    }

    pub(crate) fn num_lanes(&self) -> usize {
        self.lanes.len()
    }

    /// The lane this submitter thread posts to.
    pub(crate) fn home_lane(&self) -> usize {
        submitter_token() % self.lanes.len()
    }

    /// Enqueue `job` on `lane`.
    pub(crate) fn push(&self, lane: usize, job: JobRef) {
        self.lanes[lane].push(job);
    }

    /// Dequeue one job: the caller's `own` lane first, then a sweep over
    /// the remaining lanes starting at `sweep_start` (workers randomize it
    /// like a steal sweep). Returns the job and the lane it came from.
    pub(crate) fn take(&self, own: usize, sweep_start: usize) -> Option<(JobRef, usize)> {
        let n = self.lanes.len();
        let own = own % n;
        if let Some(job) = self.lanes[own].pop() {
            return Some((job, own));
        }
        for k in 0..n {
            let lane = (sweep_start + k) % n;
            if lane == own {
                continue;
            }
            if let Some(job) = self.lanes[lane].pop() {
                return Some((job, lane));
            }
        }
        None
    }

    /// Dequeue one job from any lane (shutdown drain on external threads).
    pub(crate) fn take_any(&self) -> Option<JobRef> {
        self.lanes.iter().find_map(|l| l.pop())
    }

    /// Whether every lane is empty (the idle workers' has-work probe).
    pub(crate) fn is_empty(&self) -> bool {
        self.lanes.iter().all(|l| l.len() == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::HeapJob;
    use std::sync::Arc;

    /// A JobRef that records `id` into `log` when executed.
    fn tagged(log: &Arc<Mutex<Vec<u32>>>, id: u32) -> JobRef {
        let log = Arc::clone(log);
        HeapJob::new(move || log.lock().unwrap().push(id)).into_job_ref()
    }

    #[test]
    fn lane_pops_in_arrival_order() {
        // The mailboxes rely on it: a worker's team bodies run in the
        // order they were posted.
        let lane = Lane::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        for id in 0..30 {
            lane.push(tagged(&log, id));
        }
        assert_eq!(lane.len(), 30);
        while let Some(job) = lane.pop() {
            unsafe { job.execute() };
        }
        assert_eq!(lane.len(), 0);
        assert_eq!(log.lock().unwrap().as_slice(), (0..30).collect::<Vec<_>>().as_slice());
    }

    #[test]
    fn take_reports_the_serving_lane() {
        let lanes = InjectLanes::new(3);
        let log = Arc::new(Mutex::new(Vec::new()));
        lanes.push(2, tagged(&log, 2));
        lanes.push(0, tagged(&log, 0));
        // The own lane first, then the sweep from `sweep_start`.
        for expected in [0, 2] {
            let (job, lane) = lanes.take(0, 1).unwrap();
            assert_eq!(lane, expected);
            unsafe { job.execute() };
        }
        assert!(lanes.take(0, 1).is_none());
        assert!(lanes.is_empty());
        assert_eq!(*log.lock().unwrap(), [0, 2]);
    }
}
