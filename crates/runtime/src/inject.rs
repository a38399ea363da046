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
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::job::JobRef;
use crate::util::CachePadded;

/// Quality-of-service class carried by externally-injected work.
///
/// The class selects which priority sub-lane of an injection lane a job
/// lands in. Workers drain sub-lanes with weighted deficit-round-robin at
/// [`DRR_WEIGHTS`] — latency jobs go first but batch work is never
/// starved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QosClass {
    /// Interactive work: drained with weight 8 per DRR round.
    Latency,
    /// Throughput work: drained with weight 1 per DRR round.
    Batch,
}

impl QosClass {
    /// Sub-lane index (`Latency` = 0, `Batch` = 1).
    #[inline]
    pub fn index(self) -> usize {
        match self {
            QosClass::Latency => 0,
            QosClass::Batch => 1,
        }
    }
}

/// Per-round DRR credits for the two sub-lanes, indexed by
/// [`QosClass::index`]: 8 latency jobs for every batch job when both
/// classes are backlogged.
pub const DRR_WEIGHTS: [u32; 2] = [8, 1];

/// The two priority sub-queues and their deficit counters, all guarded by
/// one mutex so the publish-under-lock invariant is unchanged from the
/// single-queue lane.
struct LaneInner {
    sub: [VecDeque<JobRef>; 2],
    deficit: [u32; 2],
}

/// One locked MPSC segment with an atomic length published under the lock.
///
/// Also used for the per-worker mailboxes, which had the same
/// publish-after-unlock counter bug. Mailbox jobs all go through the
/// class-blind [`push`](Self::push), so they share the latency sub-queue
/// and pop in arrival order.
pub(crate) struct Lane {
    queue: Mutex<LaneInner>,
    len: AtomicUsize,
}

impl Lane {
    pub(crate) fn new() -> Self {
        Lane {
            queue: Mutex::new(LaneInner {
                sub: [VecDeque::new(), VecDeque::new()],
                deficit: DRR_WEIGHTS,
            }),
            len: AtomicUsize::new(0),
        }
    }

    /// Enqueue `job` class-blind (mailbox path): it lands in the latency
    /// sub-queue.
    pub(crate) fn push(&self, job: JobRef) {
        self.push_class(job, QosClass::Latency);
    }

    /// Enqueue `job` in the sub-lane for `class`, publishing the new length
    /// before the lock releases (see the module docs for why the ordering
    /// matters).
    pub(crate) fn push_class(&self, job: JobRef, class: QosClass) {
        let mut q = self.queue.lock().unwrap();
        q.sub[class.index()].push_back(job);
        self.len.fetch_add(1, Ordering::Release);
    }

    /// Dequeue one job, reporting which class's sub-lane served it. The
    /// length check lets idle sweeps skip empty lanes without touching
    /// their locks.
    pub(crate) fn pop_class(&self) -> Option<(JobRef, QosClass)> {
        if self.len.load(Ordering::Acquire) == 0 {
            return None;
        }
        let mut q = self.queue.lock().unwrap();
        let popped = Self::drr_pop(&mut q);
        if popped.is_some() {
            self.len.fetch_sub(1, Ordering::Relaxed);
        }
        popped
    }

    /// Dequeue one job, discarding the class (mailbox and shutdown paths).
    pub(crate) fn pop(&self) -> Option<JobRef> {
        self.pop_class().map(|(job, _)| job)
    }

    /// Weighted deficit-round-robin over the sub-lanes: serve a backlogged
    /// class while it has credit, refresh credits from [`DRR_WEIGHTS`] when
    /// no backlogged class does. Work-conserving — an empty class never
    /// blocks the other, so a lone backlogged class drains at full speed.
    fn drr_pop(inner: &mut LaneInner) -> Option<(JobRef, QosClass)> {
        const CLASSES: [QosClass; 2] = [QosClass::Latency, QosClass::Batch];
        for round in 0..2 {
            for class in CLASSES {
                let c = class.index();
                if inner.deficit[c] > 0 && !inner.sub[c].is_empty() {
                    inner.deficit[c] -= 1;
                    let job = inner.sub[c].pop_front().expect("checked non-empty under lock");
                    return Some((job, class));
                }
            }
            if round == 0 {
                inner.deficit = DRR_WEIGHTS;
            }
        }
        None
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
    /// Quarantine fences, one per lane. A fenced lane stops being chosen
    /// as a submitter's home lane; its existing contents are drained by
    /// the recovery sweep (and, as a backstop, by ordinary worker sweeps,
    /// which deliberately ignore the fence — so a submitter that raced the
    /// fence and posted anyway never strands a job).
    fenced: Box<[AtomicBool]>,
}

impl InjectLanes {
    /// A bank of `lanes` lanes, each with QoS priority sub-lanes.
    pub(crate) fn new(lanes: usize) -> Self {
        assert!(lanes > 0, "a pool needs at least one injection lane");
        InjectLanes {
            lanes: (0..lanes).map(|_| CachePadded::new(Lane::new())).collect(),
            fenced: (0..lanes).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    pub(crate) fn num_lanes(&self) -> usize {
        self.lanes.len()
    }

    /// The lane this submitter thread posts to. Fenced lanes are skipped
    /// by probing forward; if every lane is fenced (never true for a live
    /// pool — quarantine is per-worker) the unmodified home lane is used.
    pub(crate) fn home_lane(&self) -> usize {
        let n = self.lanes.len();
        let base = submitter_token() % n;
        for k in 0..n {
            let lane = (base + k) % n;
            if !self.fenced[lane].load(Ordering::Relaxed) {
                return lane;
            }
        }
        base
    }

    /// Fence `lane` off from new home-lane routing (quarantine entry).
    pub(crate) fn fence_lane(&self, lane: usize) {
        self.fenced[lane].store(true, Ordering::Release);
    }

    /// Reopen `lane` to home-lane routing (respawn / recovery).
    pub(crate) fn unfence_lane(&self, lane: usize) {
        self.fenced[lane].store(false, Ordering::Release);
    }

    /// Whether `lane` is currently fenced.
    #[cfg(test)]
    pub(crate) fn is_fenced(&self, lane: usize) -> bool {
        self.fenced[lane].load(Ordering::Acquire)
    }

    /// Drain every job out of `lane`, preserving each job's QoS class so
    /// the recovery sweep can re-inject it into a live lane at the same
    /// priority. Used after [`fence_lane`](Self::fence_lane); safe to race
    /// with worker sweeps (both pop under the lane lock).
    pub(crate) fn drain_lane(&self, lane: usize) -> Vec<(JobRef, QosClass)> {
        let mut drained = Vec::new();
        while let Some(entry) = self.lanes[lane].pop_class() {
            drained.push(entry);
        }
        drained
    }

    /// Enqueue `job` on `lane` in the sub-lane for `class`.
    pub(crate) fn push(&self, lane: usize, job: JobRef, class: QosClass) {
        self.lanes[lane].push_class(job, class);
    }

    /// Dequeue one job: the caller's `own` lane first, then a sweep over
    /// the remaining lanes starting at `sweep_start` (workers randomize it
    /// like a steal sweep). Returns the job, the lane it came from, and
    /// the QoS class that served it.
    pub(crate) fn take(&self, own: usize, sweep_start: usize) -> Option<(JobRef, usize, QosClass)> {
        let n = self.lanes.len();
        let own = own % n;
        if let Some((job, class)) = self.lanes[own].pop_class() {
            return Some((job, own, class));
        }
        for k in 0..n {
            let lane = (sweep_start + k) % n;
            if lane == own {
                continue;
            }
            if let Some((job, class)) = self.lanes[lane].pop_class() {
                return Some((job, lane, class));
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

    fn drain_order(lane: &Lane, log: &Arc<Mutex<Vec<u32>>>) -> Vec<u32> {
        while let Some(job) = lane.pop() {
            unsafe { job.execute() };
        }
        log.lock().unwrap().clone()
    }

    #[test]
    fn qos_lane_serves_latency_first_without_starving_batch() {
        let lane = Lane::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        // 20 latency jobs (ids 0..20) and 4 batch jobs (ids 100..104),
        // batch pushed first so plain FIFO would drain it first.
        for id in 100..104 {
            lane.push_class(tagged(&log, id), QosClass::Batch);
        }
        for id in 0..20 {
            lane.push_class(tagged(&log, id), QosClass::Latency);
        }
        let order = drain_order(&lane, &log);
        // Single-threaded DRR is deterministic: 8 latency, 1 batch per
        // round while both are backlogged, then the survivor at full
        // speed. Batch is served every 9th pop — prioritized but never
        // starved — despite arriving first.
        let mut expected: Vec<u32> = Vec::new();
        expected.extend(0..8);
        expected.push(100);
        expected.extend(8..16);
        expected.push(101);
        expected.extend(16..20);
        expected.extend([102, 103]);
        assert_eq!(order, expected);
    }

    #[test]
    fn qos_lane_is_work_conserving_when_one_class_is_empty() {
        // Two inputs with one class each: only batch work (it must drain
        // at full speed even though the latency sub-lane holds all the
        // initial DRR credit), and the class-blind mailbox push, which
        // lands in the latency sub-lane and must keep arrival order
        // across the deficit refill every 8 pops.
        type Push = fn(&Lane, JobRef);
        let inputs: [(Push, QosClass); 2] = [
            (|lane, job| lane.push_class(job, QosClass::Batch), QosClass::Batch),
            (|lane, job| lane.push(job), QosClass::Latency),
        ];
        for (push, served_by) in inputs {
            let lane = Lane::new();
            let log = Arc::new(Mutex::new(Vec::new()));
            for id in 0..30 {
                push(&lane, tagged(&log, id));
            }
            let mut classes = Vec::new();
            while let Some((job, class)) = lane.pop_class() {
                unsafe { job.execute() };
                classes.push(class);
            }
            assert_eq!(log.lock().unwrap().len(), 30);
            assert!(classes.iter().all(|c| *c == served_by));
            assert_eq!(log.lock().unwrap().as_slice(), (0..30).collect::<Vec<_>>().as_slice());
        }
    }

    #[test]
    fn fenced_lane_is_skipped_by_home_routing_and_drains_with_class() {
        let lanes = InjectLanes::new(2);
        let log = Arc::new(Mutex::new(Vec::new()));
        lanes.push(0, tagged(&log, 7), QosClass::Latency);
        lanes.fence_lane(0);
        assert!(lanes.is_fenced(0));
        // Whatever this thread's submitter token maps to, the fenced lane
        // is never chosen while an unfenced one exists.
        assert_eq!(lanes.home_lane(), 1);
        let drained = lanes.drain_lane(0);
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].1, QosClass::Latency);
        for (job, class) in drained {
            lanes.push(1, job, class);
        }
        lanes.unfence_lane(0);
        assert!(!lanes.is_fenced(0));
        let (job, lane, class) = lanes.take(1, 0).unwrap();
        assert_eq!(lane, 1);
        assert_eq!(class, QosClass::Latency);
        unsafe { job.execute() };
        assert_eq!(log.lock().unwrap().as_slice(), &[7]);
    }

    #[test]
    fn take_reports_the_serving_class() {
        let lanes = InjectLanes::new(2);
        let log = Arc::new(Mutex::new(Vec::new()));
        lanes.push(0, tagged(&log, 1), QosClass::Batch);
        let (job, lane, class) = lanes.take(0, 1).unwrap();
        assert_eq!(lane, 0);
        assert_eq!(class, QosClass::Batch);
        unsafe { job.execute() };
        assert!(lanes.is_empty());
    }
}
