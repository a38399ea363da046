//! Aggregate metrics derived from a [`TraceSnapshot`]: the trace-layer
//! analogues of the paper's measurements.
//!
//! * [`event_counts`] — per-kind totals (steal rate, parks, claims);
//! * [`claim_failure_runs`] / [`claim_failure_histogram`] — lengths of
//!   consecutive failed claim attempts per walk, the quantity Lemma 4
//!   bounds by `lg R`;
//! * [`iteration_owners`] / [`affinity_retention`] — which worker executed
//!   each iteration, and the fraction retained across two consecutive
//!   loops (the threaded analogue of Fig. 2).

use std::collections::BTreeMap;

use crate::{TraceEvent, TraceSnapshot};

/// Totals of every event kind in a snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventCounts {
    /// `JobPushed` events.
    pub jobs_pushed: u64,
    /// `JobPopped` events.
    pub jobs_popped: u64,
    /// Successful steals from a same-socket victim (or under a uniform
    /// policy, where every steal reports as local).
    pub steals: u64,
    /// Successful steals from a remote-socket victim (`StolenRemote` is
    /// emitted *instead of* `Stolen`, so local + remote = total steals).
    pub remote_steals: u64,
    /// Empty steal sweeps.
    pub failed_steal_sweeps: u64,
    /// Park/unpark pairs are counted by their `Parked` half.
    pub parks: u64,
    /// Claim attempts (successful + failed).
    pub claim_attempts: u64,
    /// Failed claim attempts.
    pub failed_claims: u64,
    /// Adopter frames stolen and adopted.
    pub frames_stolen: u64,
    /// Adopter frames re-published by adopters.
    pub frames_reinstantiated: u64,
    /// Completed leaf chunks (`ChunkEnd` events).
    pub chunks: u64,
    /// Iterations covered by completed leaf chunks.
    pub chunk_iterations: u64,
    /// Faults injected by `parloop-chaos`.
    pub faults_injected: u64,
    /// Workers whose main loop caught an escaped panic.
    pub workers_degraded: u64,
    /// Watchdog stall reports emitted from `wait_until`.
    pub watchdog_stalls: u64,
    /// Externally-injected jobs drained from the sharded injection lanes.
    pub inject_lane_jobs: u64,
    /// Parks ended by a targeted notification.
    pub targeted_wakes: u64,
    /// Parks ended by the timeout backstop (fruitless polls back off).
    pub backstop_wakes: u64,
    /// Assist handles adopted by thieves joining a lazy loop.
    pub assist_joins: u64,
    /// Chunks claimed off a lazy loop's shared cursor by assistants.
    pub assist_chunks: u64,
    /// Iterations covered by assistant-claimed chunks.
    pub assist_iterations: u64,
    /// Adaptive grain adjustments accepted by site controllers.
    pub grain_adjustments: u64,
}

impl EventCounts {
    /// All successful steals, local and remote.
    pub fn total_steals(&self) -> u64 {
        self.steals + self.remote_steals
    }

    /// Fraction of steal sweeps that succeeded, if any happened.
    pub fn steal_success_rate(&self) -> Option<f64> {
        let hits = self.total_steals();
        let total = hits + self.failed_steal_sweeps;
        (total > 0).then(|| hits as f64 / total as f64)
    }

    /// Fraction of successful steals whose victim shared the thief's
    /// socket; `None` if there were no steals at all.
    pub fn local_steal_fraction(&self) -> Option<f64> {
        let total = self.total_steals();
        (total > 0).then(|| self.steals as f64 / total as f64)
    }
}

/// Tally every event kind in `snap`.
pub fn event_counts(snap: &TraceSnapshot) -> EventCounts {
    let mut c = EventCounts::default();
    for e in &snap.events {
        match e.event {
            TraceEvent::JobPushed => c.jobs_pushed += 1,
            TraceEvent::JobPopped => c.jobs_popped += 1,
            TraceEvent::Stolen { .. } => c.steals += 1,
            TraceEvent::StolenRemote { .. } => c.remote_steals += 1,
            TraceEvent::StealFailed => c.failed_steal_sweeps += 1,
            TraceEvent::Parked => c.parks += 1,
            TraceEvent::Unparked => {}
            TraceEvent::ClaimAttempt { success, .. } => {
                c.claim_attempts += 1;
                if !success {
                    c.failed_claims += 1;
                }
            }
            TraceEvent::HybridFrameStolen => c.frames_stolen += 1,
            TraceEvent::FrameReinstantiated => c.frames_reinstantiated += 1,
            TraceEvent::ChunkStart { .. } => {}
            TraceEvent::ChunkEnd { len, .. } => {
                c.chunks += 1;
                c.chunk_iterations += len as u64;
            }
            TraceEvent::FaultInjected { .. } => c.faults_injected += 1,
            TraceEvent::WorkerDegraded => c.workers_degraded += 1,
            TraceEvent::WatchdogStall => c.watchdog_stalls += 1,
            TraceEvent::InjectLane { .. } => c.inject_lane_jobs += 1,
            TraceEvent::WakeTargeted => c.targeted_wakes += 1,
            TraceEvent::BackstopWake => c.backstop_wakes += 1,
            TraceEvent::AssistJoin => c.assist_joins += 1,
            TraceEvent::AssistChunk { len, .. } => {
                c.assist_chunks += 1;
                c.assist_iterations += len as u64;
            }
            TraceEvent::GrainAdjusted { .. } => c.grain_adjustments += 1,
        }
    }
    c
}

/// Group a snapshot's events by worker, preserving each worker's order.
fn per_worker(snap: &TraceSnapshot) -> BTreeMap<u32, Vec<&TraceEvent>> {
    let mut map: BTreeMap<u32, Vec<&TraceEvent>> = BTreeMap::new();
    for e in &snap.events {
        map.entry(e.worker).or_default().push(&e.event);
    }
    map
}

/// Every maximal run of consecutive *failed* claim attempts, per worker.
///
/// A run ends at a successful claim or at the start of a new walk (claim
/// index `0` — each `ClaimWalker` begins there, so runs never leak across
/// loop executions or adoptions). Lemma 4 bounds each run by
/// `max(lg R, 1)`.
pub fn claim_failure_runs(snap: &TraceSnapshot) -> Vec<u32> {
    let mut runs = Vec::new();
    for events in per_worker(snap).values() {
        let mut run = 0u32;
        for ev in events {
            if let TraceEvent::ClaimAttempt { success, index, .. } = **ev {
                if index == 0 && run > 0 {
                    runs.push(run);
                    run = 0;
                }
                if success {
                    if run > 0 {
                        runs.push(run);
                    }
                    run = 0;
                } else {
                    run += 1;
                }
            }
        }
        if run > 0 {
            runs.push(run);
        }
    }
    runs
}

/// Histogram of failed-claim run lengths: `hist[len]` counts runs of
/// exactly `len` consecutive failures (index 0 is unused).
pub fn claim_failure_histogram(snap: &TraceSnapshot) -> Vec<u64> {
    let runs = claim_failure_runs(snap);
    let max = runs.iter().copied().max().unwrap_or(0) as usize;
    let mut hist = vec![0u64; max + 1];
    for r in runs {
        hist[r as usize] += 1;
    }
    hist
}

/// The longest run of consecutive failed claims anywhere in the snapshot.
pub fn max_claim_failure_run(snap: &TraceSnapshot) -> u32 {
    claim_failure_runs(snap).into_iter().max().unwrap_or(0)
}

/// Marker for iterations with no completed chunk in the snapshot.
pub const UNOWNED: u32 = u32::MAX;

/// Which worker executed each iteration, from `ChunkEnd` events. The
/// vector spans `0..max(start + len)`; gaps (iterations whose chunk events
/// were dropped, or outside the loop) hold [`UNOWNED`].
pub fn iteration_owners(snap: &TraceSnapshot) -> Vec<u32> {
    let mut end = 0u64;
    for e in &snap.events {
        if let TraceEvent::ChunkEnd { start, len } = e.event {
            end = end.max(start + len as u64);
        }
    }
    let mut owners = vec![UNOWNED; end as usize];
    for e in &snap.events {
        if let TraceEvent::ChunkEnd { start, len } = e.event {
            for slot in &mut owners[start as usize..(start + len as u64) as usize] {
                *slot = e.worker;
            }
        }
    }
    owners
}

/// Fraction of iterations executed by the *same* worker in two consecutive
/// loops (the paper's Fig. 2 metric, measured on real threads). Only
/// iterations with a recorded owner in both snapshots count; `None` if
/// there are no such iterations.
pub fn affinity_retention(prev: &TraceSnapshot, cur: &TraceSnapshot) -> Option<f64> {
    let a = iteration_owners(prev);
    let b = iteration_owners(cur);
    let mut both = 0u64;
    let mut same = 0u64;
    for (x, y) in a.iter().zip(&b) {
        if *x != UNOWNED && *y != UNOWNED {
            both += 1;
            if x == y {
                same += 1;
            }
        }
    }
    (both > 0).then(|| same as f64 / both as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TaggedEvent;

    fn snap(events: Vec<(u64, u32, TraceEvent)>) -> TraceSnapshot {
        TraceSnapshot {
            events: events
                .into_iter()
                .map(|(ts_nanos, worker, event)| TaggedEvent { ts_nanos, worker, event })
                .collect(),
            recorded: vec![],
            dropped: vec![],
        }
    }

    fn claim(success: bool, index: u32) -> TraceEvent {
        TraceEvent::ClaimAttempt { success, index, partition: index }
    }

    #[test]
    fn counts_tally_kinds() {
        let s = snap(vec![
            (0, 0, TraceEvent::JobPushed),
            (1, 0, TraceEvent::Stolen { victim: 1 }),
            (2, 1, TraceEvent::StealFailed),
            (3, 1, TraceEvent::ChunkEnd { start: 0, len: 32 }),
            (4, 0, claim(false, 1)),
        ]);
        let c = event_counts(&s);
        assert_eq!(c.steals, 1);
        assert_eq!(c.remote_steals, 0);
        assert_eq!(c.failed_steal_sweeps, 1);
        assert_eq!(c.chunk_iterations, 32);
        assert_eq!(c.failed_claims, 1);
        assert_eq!(c.steal_success_rate(), Some(0.5));
        assert_eq!(event_counts(&snap(vec![])).steal_success_rate(), None);
    }

    #[test]
    fn remote_steals_count_toward_success_not_locality() {
        let s = snap(vec![
            (0, 0, TraceEvent::Stolen { victim: 1 }),
            (1, 0, TraceEvent::StolenRemote { victim: 2 }),
            (2, 0, TraceEvent::StolenRemote { victim: 3 }),
            (3, 1, TraceEvent::StealFailed),
        ]);
        let c = event_counts(&s);
        assert_eq!(c.steals, 1);
        assert_eq!(c.remote_steals, 2);
        assert_eq!(c.total_steals(), 3);
        assert_eq!(c.steal_success_rate(), Some(0.75));
        assert_eq!(c.local_steal_fraction(), Some(1.0 / 3.0));
        assert_eq!(event_counts(&snap(vec![])).local_steal_fraction(), None);
    }

    #[test]
    fn failure_runs_split_on_success_and_walk_start() {
        // Worker 0: fail, fail, success, fail | new walk: fail.
        let s = snap(vec![
            (0, 0, claim(false, 0)),
            (1, 0, claim(false, 1)),
            (2, 0, claim(true, 2)),
            (3, 0, claim(false, 3)),
            (4, 0, claim(false, 0)), // index 0 => new walk boundary
        ]);
        let mut runs = claim_failure_runs(&s);
        runs.sort_unstable();
        assert_eq!(runs, vec![1, 1, 2]);
        assert_eq!(max_claim_failure_run(&s), 2);
        let hist = claim_failure_histogram(&s);
        assert_eq!(hist, vec![0, 2, 1]);
    }

    #[test]
    fn runs_do_not_mix_workers() {
        let s = snap(vec![
            (0, 0, claim(false, 1)),
            (1, 1, claim(false, 1)),
            (2, 0, claim(false, 2)),
            (3, 1, claim(true, 2)),
        ]);
        let mut runs = claim_failure_runs(&s);
        runs.sort_unstable();
        assert_eq!(runs, vec![1, 2]);
    }

    #[test]
    fn owners_and_retention() {
        let a = snap(vec![
            (0, 0, TraceEvent::ChunkEnd { start: 0, len: 4 }),
            (1, 1, TraceEvent::ChunkEnd { start: 4, len: 4 }),
        ]);
        let owners = iteration_owners(&a);
        assert_eq!(owners, vec![0, 0, 0, 0, 1, 1, 1, 1]);

        // Second loop: worker 0 keeps its half, worker 0 also takes 2 of
        // worker 1's iterations.
        let b = snap(vec![
            (0, 0, TraceEvent::ChunkEnd { start: 0, len: 4 }),
            (1, 0, TraceEvent::ChunkEnd { start: 4, len: 2 }),
            (2, 1, TraceEvent::ChunkEnd { start: 6, len: 2 }),
        ]);
        let r = affinity_retention(&a, &b).unwrap();
        assert!((r - 6.0 / 8.0).abs() < 1e-12);
        assert_eq!(affinity_retention(&snap(vec![]), &b), None);
    }

    #[test]
    fn retention_ignores_unowned_gaps() {
        let a = snap(vec![(0, 0, TraceEvent::ChunkEnd { start: 0, len: 2 })]);
        let b = snap(vec![
            (0, 0, TraceEvent::ChunkEnd { start: 0, len: 2 }),
            (1, 1, TraceEvent::ChunkEnd { start: 2, len: 2 }),
        ]);
        assert_eq!(affinity_retention(&a, &b), Some(1.0));
    }
}
