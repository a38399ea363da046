//! The cheap, always-on layer under `PoolStats`: per-worker cache-padded
//! monotonic counters.
//!
//! Unlike the event rings these are never off — they replace the old
//! global `Relaxed` counters the runtime kept, and are *cheaper* than
//! those: each worker increments its own cache line instead of contending
//! on a shared one. Totals are sums over workers (racy snapshots, like
//! before); per-worker breakdowns come for free.

use std::sync::atomic::{AtomicU64, Ordering};

/// One worker's counters, padded to a cache line so neighbouring workers'
/// increments never false-share.
#[repr(align(128))]
#[derive(Debug, Default)]
struct PaddedCounters {
    jobs_executed: AtomicU64,
    jobs_pushed: AtomicU64,
    assist_joins: AtomicU64,
    steals: AtomicU64,
    failed_steal_sweeps: AtomicU64,
    lane_jobs: AtomicU64,
    notified_wakes: AtomicU64,
    backstop_wakes: AtomicU64,
}

/// A point-in-time copy of one worker's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Jobs this worker acquired and executed.
    pub jobs_executed: u64,
    /// Jobs this worker pushed onto its own deque (splits, adopter frames,
    /// lazy-loop assist handles). The quantity the lazy splitter bounds by
    /// `O(steals + 1)` per loop where eager splitting pays `O(n/grain)`.
    pub jobs_pushed: u64,
    /// Lazy-loop assist handles this worker adopted (it registered as an
    /// assistant on another participant's shared cursor).
    pub assist_joins: u64,
    /// Successful steals by this worker.
    pub steals: u64,
    /// Steal sweeps by this worker that found nothing.
    pub failed_steal_sweeps: u64,
    /// Externally-injected jobs this worker drained from the sharded
    /// injection lanes (its own lane or another's during a sweep).
    pub lane_jobs: u64,
    /// Parks that ended in a targeted notification (a real wake).
    pub notified_wakes: u64,
    /// Parks that ended in the timeout backstop firing (a poll, not a
    /// productive wake; these back off exponentially while fruitless).
    pub backstop_wakes: u64,
}

/// Per-worker scheduler counters plus the pool-global injection count.
#[derive(Debug, Default)]
pub struct CounterBank {
    workers: Box<[PaddedCounters]>,
    injected: AtomicU64,
    grain_adjustments: AtomicU64,
}

impl CounterBank {
    /// A bank for `num_workers` workers, all counters zero.
    pub fn new(num_workers: usize) -> Self {
        CounterBank {
            workers: (0..num_workers).map(|_| PaddedCounters::default()).collect(),
            injected: AtomicU64::new(0),
            grain_adjustments: AtomicU64::new(0),
        }
    }

    /// Count one job executed by `worker`.
    #[inline]
    pub fn note_job_executed(&self, worker: usize) {
        self.workers[worker].jobs_executed.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one job pushed by `worker` onto its own deque.
    #[inline]
    pub fn note_job_pushed(&self, worker: usize) {
        self.workers[worker].jobs_pushed.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one lazy-loop assist handle adopted by `worker`.
    #[inline]
    pub fn note_assist_join(&self, worker: usize) {
        self.workers[worker].assist_joins.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one successful steal by `worker`.
    #[inline]
    pub fn note_steal(&self, worker: usize) {
        self.workers[worker].steals.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one empty steal sweep by `worker`.
    #[inline]
    pub fn note_failed_sweep(&self, worker: usize) {
        self.workers[worker].failed_steal_sweeps.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one injected job drained from a lane by `worker`.
    #[inline]
    pub fn note_lane_job(&self, worker: usize) {
        self.workers[worker].lane_jobs.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one park of `worker` ended by a targeted notification.
    #[inline]
    pub fn note_notified_wake(&self, worker: usize) {
        self.workers[worker].notified_wakes.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one park of `worker` ended by the timeout backstop.
    #[inline]
    pub fn note_backstop_wake(&self, worker: usize) {
        self.workers[worker].backstop_wakes.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one job injected from an external thread.
    #[inline]
    pub fn note_injected(&self) {
        self.injected.fetch_add(1, Ordering::Relaxed);
    }

    /// Jobs injected from external threads (pool-global).
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Count one accepted adaptive grain adjustment. Pool-global like
    /// [`note_injected`](Self::note_injected): the recording thread may
    /// be an external submitter, so there is no worker slot to charge.
    #[inline]
    pub fn note_grain_adjustment(&self) {
        self.grain_adjustments.fetch_add(1, Ordering::Relaxed);
    }

    /// Accepted adaptive grain adjustments (pool-global).
    pub fn grain_adjustments(&self) -> u64 {
        self.grain_adjustments.load(Ordering::Relaxed)
    }

    /// Snapshot of one worker's counters.
    pub fn worker(&self, worker: usize) -> WorkerStats {
        let c = &self.workers[worker];
        WorkerStats {
            jobs_executed: c.jobs_executed.load(Ordering::Relaxed),
            jobs_pushed: c.jobs_pushed.load(Ordering::Relaxed),
            assist_joins: c.assist_joins.load(Ordering::Relaxed),
            steals: c.steals.load(Ordering::Relaxed),
            failed_steal_sweeps: c.failed_steal_sweeps.load(Ordering::Relaxed),
            lane_jobs: c.lane_jobs.load(Ordering::Relaxed),
            notified_wakes: c.notified_wakes.load(Ordering::Relaxed),
            backstop_wakes: c.backstop_wakes.load(Ordering::Relaxed),
        }
    }

    /// Snapshot of every worker's counters, indexed by worker id.
    pub fn all_workers(&self) -> Vec<WorkerStats> {
        (0..self.workers.len()).map(|w| self.worker(w)).collect()
    }

    /// Sum of all workers' counters (the legacy `PoolStats` totals).
    pub fn totals(&self) -> WorkerStats {
        let mut t = WorkerStats::default();
        for w in 0..self.workers.len() {
            let s = self.worker(w);
            t.jobs_executed += s.jobs_executed;
            t.jobs_pushed += s.jobs_pushed;
            t.assist_joins += s.assist_joins;
            t.steals += s.steals;
            t.failed_steal_sweeps += s.failed_steal_sweeps;
            t.lane_jobs += s.lane_jobs;
            t.notified_wakes += s.notified_wakes;
            t.backstop_wakes += s.backstop_wakes;
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_per_worker_counts() {
        let bank = CounterBank::new(3);
        bank.note_job_executed(0);
        bank.note_job_executed(0);
        bank.note_job_executed(2);
        bank.note_job_pushed(1);
        bank.note_job_pushed(1);
        bank.note_job_pushed(2);
        bank.note_assist_join(0);
        bank.note_steal(1);
        bank.note_failed_sweep(2);
        bank.note_injected();
        bank.note_lane_job(1);
        bank.note_notified_wake(0);
        bank.note_backstop_wake(2);
        bank.note_backstop_wake(2);
        assert_eq!(bank.worker(0).jobs_executed, 2);
        assert_eq!(bank.worker(1).jobs_pushed, 2);
        assert_eq!(bank.worker(0).assist_joins, 1);
        assert_eq!(bank.worker(1).steals, 1);
        assert_eq!(bank.worker(2).failed_steal_sweeps, 1);
        assert_eq!(bank.worker(1).lane_jobs, 1);
        assert_eq!(bank.worker(0).notified_wakes, 1);
        assert_eq!(bank.worker(2).backstop_wakes, 2);
        let t = bank.totals();
        assert_eq!(t.jobs_executed, 3);
        assert_eq!(t.jobs_pushed, 3);
        assert_eq!(t.assist_joins, 1);
        assert_eq!(t.steals, 1);
        assert_eq!(t.failed_steal_sweeps, 1);
        assert_eq!(t.lane_jobs, 1);
        assert_eq!(t.notified_wakes, 1);
        assert_eq!(t.backstop_wakes, 2);
        assert_eq!(bank.injected(), 1);
        bank.note_grain_adjustment();
        bank.note_grain_adjustment();
        assert_eq!(bank.grain_adjustments(), 2);
        assert_eq!(bank.all_workers().len(), 3);
    }

    #[test]
    fn padded_counters_do_not_share_lines() {
        assert!(std::mem::size_of::<PaddedCounters>() >= 128);
        assert_eq!(std::mem::align_of::<PaddedCounters>(), 128);
    }
}
