//! Pool health: the worker lifecycle state machine, degraded/quarantined
//! tracking, and the stall watchdog's diagnostic report.

use std::time::Duration;

use parloop_trace::WorkerStats;

/// Lifecycle state of one worker slot.
///
/// The self-healing state machine moves a slot through
/// `Healthy → Degraded → Quarantined → Respawning → Healthy`:
///
/// * **Degraded**: a panic escaped every job boundary but the thread
///   survived and re-entered service — suspicious, still scheduling.
/// * **Quarantined**: the watchdog saw the slot's heartbeat stay flat
///   (while not parked) across consecutive trips, or the thread died.
///   Its deque and injection lane are fenced off and their contents
///   rescued into live workers.
/// * **Respawning**: a replacement thread (or the revived original, if it
///   was merely wedged) is being brought up on the slot.
///
/// States are stored as `u8` in the slot's atomic; the encodings below
/// are stable wire values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkerState {
    /// Normal service.
    Healthy,
    /// An escaped panic was caught; the worker re-entered service.
    Degraded,
    /// Fenced off: flat heartbeat or thread death; work rescued.
    Quarantined,
    /// A replacement (or revived) thread is coming up on the slot.
    Respawning,
}

impl WorkerState {
    /// Stable atomic encoding.
    #[inline]
    pub fn as_u8(self) -> u8 {
        match self {
            WorkerState::Healthy => 0,
            WorkerState::Degraded => 1,
            WorkerState::Quarantined => 2,
            WorkerState::Respawning => 3,
        }
    }

    /// Decode [`as_u8`](Self::as_u8); unknown values map to `Healthy`
    /// (the conservative direction: never fence a slot by accident).
    #[inline]
    pub fn from_u8(v: u8) -> Self {
        match v {
            1 => WorkerState::Degraded,
            2 => WorkerState::Quarantined,
            3 => WorkerState::Respawning,
            _ => WorkerState::Healthy,
        }
    }

    /// Human-readable name (`"healthy"`, `"degraded"`, …).
    pub fn name(self) -> &'static str {
        match self {
            WorkerState::Healthy => "healthy",
            WorkerState::Degraded => "degraded",
            WorkerState::Quarantined => "quarantined",
            WorkerState::Respawning => "respawning",
        }
    }
}

/// A snapshot of the pool's health, from
/// [`ThreadPool::health`](crate::ThreadPool::health).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PoolHealth {
    /// Workers whose main loop caught a panic that escaped every job
    /// boundary. A degraded worker has re-entered service, but the escape
    /// indicates a broken invariant (or an injected chaos panic), so the
    /// pool advertises it here instead of aborting the process.
    pub degraded_workers: Vec<usize>,
    /// Workers currently fenced off by the watchdog (flat heartbeat) or
    /// by thread death, pending respawn. Empty on a recovered pool.
    pub quarantined_workers: Vec<usize>,
    /// How many times the `wait_until` watchdog reported a stalled pool.
    pub watchdog_trips: u64,
    /// Per-worker liveness counters: bumped every main-loop and
    /// `wait_until` iteration. A heartbeat that stops advancing while the
    /// pool has unresolved latches identifies the wedged worker.
    pub heartbeats: Vec<u64>,
    /// Per-worker respawn epoch: `0` for the original thread, bumped once
    /// per respawn of the slot. A nonzero epoch is the record that the
    /// self-healing path ran.
    pub respawn_epochs: Vec<u64>,
}

impl PoolHealth {
    /// Whether any worker has been marked degraded.
    pub fn is_degraded(&self) -> bool {
        !self.degraded_workers.is_empty()
    }

    /// Whether any worker is currently quarantined (fenced off).
    pub fn is_quarantined(&self) -> bool {
        !self.quarantined_workers.is_empty()
    }

    /// Total respawns across all slots since the pool was built.
    pub fn total_respawns(&self) -> u64 {
        self.respawn_epochs.iter().sum()
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
    /// Each worker's lifecycle state at the moment of the report.
    pub worker_states: Vec<WorkerState>,
    /// Workers already marked degraded.
    pub degraded_workers: Vec<usize>,
    /// Workers currently quarantined.
    pub quarantined_workers: Vec<usize>,
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
        if !self.quarantined_workers.is_empty() {
            writeln!(f, "  quarantined workers: {:?}", self.quarantined_workers)?;
        }
        for (w, ws) in self.worker_stats.iter().enumerate() {
            let state = self.worker_states.get(w).copied().unwrap_or(WorkerState::Healthy);
            write!(f, "  worker {w}: heartbeat {}", self.heartbeats.get(w).copied().unwrap_or(0),)?;
            match self.heartbeat_ages.get(w) {
                Some(age) if !age.is_zero() => write!(f, " (flat for {age:?})")?,
                _ => {}
            }
            if state != WorkerState::Healthy {
                write!(f, " [{}]", state.name())?;
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
        assert!(!h.is_quarantined());
        h.quarantined_workers.push(0);
        assert!(h.is_quarantined());
        h.respawn_epochs = vec![0, 2, 1];
        assert_eq!(h.total_respawns(), 3);
    }

    #[test]
    fn worker_state_round_trips_and_defaults_healthy() {
        for s in [
            WorkerState::Healthy,
            WorkerState::Degraded,
            WorkerState::Quarantined,
            WorkerState::Respawning,
        ] {
            assert_eq!(WorkerState::from_u8(s.as_u8()), s);
        }
        assert_eq!(WorkerState::from_u8(200), WorkerState::Healthy);
        assert_eq!(WorkerState::Quarantined.name(), "quarantined");
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
            worker_states: vec![WorkerState::Degraded, WorkerState::Healthy],
            degraded_workers: vec![0],
            quarantined_workers: vec![],
            worker_stats: vec![WorkerStats::default(), WorkerStats::default()],
        };
        let s = r.to_string();
        assert!(s.contains("worker 1 waits"), "{s}");
        assert!(s.contains("degraded workers: [0]"), "{s}");
        assert!(!s.contains("quarantined workers"), "{s}");
        assert!(s.contains("worker 0: heartbeat 5 (flat for 400ms) [degraded]"), "{s}");
        assert!(s.contains("worker 1: heartbeat 9,"), "{s}");
    }

    #[test]
    fn stall_report_renders_quarantine_state() {
        let r = StallReport {
            reporter: 0,
            stalled_for: Duration::from_secs(1),
            jobs_executed: 0,
            sleepers: 1,
            heartbeats: vec![3, 3],
            heartbeat_ages: vec![Duration::ZERO, Duration::from_secs(2)],
            worker_states: vec![WorkerState::Healthy, WorkerState::Quarantined],
            degraded_workers: vec![],
            quarantined_workers: vec![1],
            worker_stats: vec![WorkerStats::default(), WorkerStats::default()],
        };
        let s = r.to_string();
        assert!(s.contains("quarantined workers: [1]"), "{s}");
        assert!(s.contains("worker 1: heartbeat 3 (flat for 2s) [quarantined]"), "{s}");
        assert!(!s.contains("degraded workers"), "{s}");
    }
}
