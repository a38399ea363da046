//! Pool health: the sticky degraded flags, the heartbeats, and the stall
//! watchdog's diagnostic report.

use std::time::Duration;

use parloop_trace::WorkerStats;

/// A snapshot of the pool's health, from
/// [`ThreadPool::health`](crate::ThreadPool::health).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PoolHealth {
    /// Workers whose main loop caught a panic that escaped every job
    /// boundary. A degraded worker has re-entered service, but the escape
    /// indicates a broken invariant (or an injected chaos panic), so the
    /// pool advertises it here instead of aborting the process.
    pub degraded_workers: Vec<usize>,
    /// How many times the `wait_until` watchdog reported a stalled pool.
    pub watchdog_trips: u64,
    /// Per-worker liveness counters: bumped every main-loop and
    /// `wait_until` iteration. A heartbeat that stops advancing while the
    /// pool has unresolved latches identifies the wedged worker.
    pub heartbeats: Vec<u64>,
}

impl PoolHealth {
    /// Whether any worker has been marked degraded.
    pub fn is_degraded(&self) -> bool {
        !self.degraded_workers.is_empty()
    }
}

/// The watchdog's diagnostic dump: everything a stalled `wait_until` can
/// say about why no progress is happening, handed to the stall handler
/// (default: logged to stderr) instead of hanging silently.
#[derive(Debug, Clone)]
pub struct StallReport {
    /// Worker id that detected the stall (the one waiting on the latch).
    pub reporter: usize,
    /// How long the pool went without executing a single job while the
    /// reporter's latch stayed unresolved.
    pub stalled_for: Duration,
    /// Pool-wide jobs executed at the moment of the report.
    pub jobs_executed: u64,
    /// Workers blocked on the sleep condvar right now.
    pub sleepers: usize,
    /// Per-worker liveness heartbeats (a flat heartbeat = a wedged worker;
    /// advancing heartbeats with no jobs = livelock or a lost wakeup).
    pub heartbeats: Vec<u64>,
    /// How long each worker's heartbeat has been at its current value, as
    /// observed by the watchdog's beat tracker (zero for workers whose
    /// beat advanced since the last watchdog trip).
    pub heartbeat_ages: Vec<Duration>,
    /// Workers already marked degraded.
    pub degraded_workers: Vec<usize>,
    /// Per-worker scheduler counters (jobs, steals, failed sweeps) backing
    /// the diagnosis.
    pub worker_stats: Vec<WorkerStats>,
}

impl std::fmt::Display for StallReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "pool stall: no jobs executed for {:?} while worker {} waits on a latch \
             (pool total {} jobs, {} sleepers)",
            self.stalled_for, self.reporter, self.jobs_executed, self.sleepers
        )?;
        if !self.degraded_workers.is_empty() {
            writeln!(f, "  degraded workers: {:?}", self.degraded_workers)?;
        }
        for (w, ws) in self.worker_stats.iter().enumerate() {
            write!(f, "  worker {w}: heartbeat {}", self.heartbeats.get(w).copied().unwrap_or(0),)?;
            match self.heartbeat_ages.get(w) {
                Some(age) if !age.is_zero() => write!(f, " (flat for {age:?})")?,
                _ => {}
            }
            if self.degraded_workers.contains(&w) {
                write!(f, " [degraded]")?;
            }
            writeln!(
                f,
                ", {} jobs, {} steals, {} failed sweeps",
                ws.jobs_executed, ws.steals, ws.failed_steal_sweeps,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn health_degraded_flag() {
        let mut h = PoolHealth::default();
        assert!(!h.is_degraded());
        h.degraded_workers.push(2);
        assert!(h.is_degraded());
    }

    #[test]
    fn stall_report_renders_per_worker_lines() {
        let r = StallReport {
            reporter: 1,
            stalled_for: Duration::from_millis(250),
            jobs_executed: 17,
            sleepers: 3,
            heartbeats: vec![5, 9],
            heartbeat_ages: vec![Duration::from_millis(400), Duration::ZERO],
            degraded_workers: vec![0],
            worker_stats: vec![WorkerStats::default(), WorkerStats::default()],
        };
        let s = r.to_string();
        assert!(s.contains("worker 1 waits"), "{s}");
        assert!(s.contains("degraded workers: [0]"), "{s}");
        assert!(s.contains("worker 0: heartbeat 5 (flat for 400ms) [degraded]"), "{s}");
        assert!(s.contains("worker 1: heartbeat 9,"), "{s}");
    }
}
