//! `parloop-trace` — the unified observability layer of the workspace.
//!
//! The paper's central claims (the Lemma 4 claim bound, Fig. 2 affinity
//! retention, Fig. 4 locality counters) are statements about *per-worker
//! event sequences*. This crate makes those sequences first-class for the
//! threaded runtime, mirroring what `parloop-sim` already records in
//! virtual time:
//!
//! * [`TraceEvent`] — the scheduler event taxonomy, spanning the runtime
//!   layer (push/pop/steal/park) and the hybrid-loop layer
//!   (claim attempts, adopter-frame protocol, chunk execution);
//! * [`TraceSink`] — where events go. The default [`NoopSink`] reports
//!   itself disabled, so an instrumented hot path costs exactly one branch
//!   on a cached `bool` when tracing is off (no allocation, no atomics,
//!   no clock read);
//! * [`RingTraceSink`] — per-worker, cache-padded, fixed-capacity event
//!   rings. Each worker writes only its own ring (no cross-worker
//!   synchronization on the write path); overflowing rings overwrite the
//!   oldest events; readers snapshot concurrently via a per-slot seqlock,
//!   so a torn slot is skipped, never misread;
//! * [`CounterBank`] — the cheap always-on layer: per-worker cache-padded
//!   monotonic counters that `ThreadPool::stats()` sums into the existing
//!   `PoolStats` totals and exposes per worker via `worker_stats()`;
//! * [`metrics`] — aggregates derived from a snapshot: steal rates, the
//!   failed-claim-run histogram checked against the paper's `lg R` bound,
//!   and cross-loop affinity retention (the threaded analogue of Fig. 2);
//! * [`export`] — `chrome://tracing` JSON and CSV serialization.
//!
//! The crate is a dependency leaf (std only): `parloop-runtime` and, via
//! its re-exports, `parloop-core` emit events into it.

mod counters;
pub mod export;
pub mod metrics;
mod ring;

use std::sync::OnceLock;
use std::time::Instant;

pub use counters::{CounterBank, WorkerStats};
pub use ring::{RingTraceSink, TaggedEvent, TraceSnapshot, DEFAULT_RING_CAPACITY};

/// One scheduler event, recorded from the worker that performed it.
///
/// The runtime layer emits `JobPushed`/`JobPopped`/`Stolen`/`StealFailed`/
/// `Parked`/`Unparked`; the hybrid-loop layer emits `ClaimAttempt`/
/// `HybridFrameStolen`/`FrameReinstantiated`/`ChunkStart`/`ChunkEnd`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A job was pushed onto this worker's own deque.
    JobPushed,
    /// A job was popped back off this worker's own deque.
    JobPopped,
    /// A successful steal from `victim`'s deque.
    Stolen {
        /// The worker the job was taken from.
        victim: u32,
    },
    /// A full randomized sweep over all other deques found nothing.
    StealFailed,
    /// The worker is about to block on the sleep condvar.
    Parked,
    /// The worker returned from the sleep condvar.
    Unparked,
    /// One `fetch_or` claim attempt of the hybrid heuristic
    /// (Algorithm 2/3): claim index `i`, partition `r = i XOR w`.
    ClaimAttempt {
        /// Whether this worker won the claim.
        success: bool,
        /// The walker's claim index `i` at the attempt (`0` marks the
        /// start of a fresh walk — metrics use it as a run boundary).
        index: u32,
        /// The partition `r` that was attempted.
        partition: u32,
    },
    /// A `DoHybridLoop` adopter frame was stolen and adopted (the thief's
    /// earmarked partition was still free, so it joined the loop).
    HybridFrameStolen,
    /// An adopted frame re-published one more adopter frame so later
    /// thieves can also join (bounded by `P` per loop).
    FrameReinstantiated,
    /// A leaf chunk `[start, start + len)` began executing.
    ChunkStart {
        /// First iteration index of the chunk.
        start: u64,
        /// Number of iterations in the chunk.
        len: u32,
    },
    /// The leaf chunk `[start, start + len)` finished executing.
    ChunkEnd {
        /// First iteration index of the chunk.
        start: u64,
        /// Number of iterations in the chunk.
        len: u32,
    },
    /// `parloop-chaos` injected a fault at an instrumented site. Codes are
    /// the chaos crate's stable `Site::code()` / `FaultAction::code()`
    /// values (kept as raw bytes so this crate stays a dependency leaf).
    FaultInjected {
        /// `Site::code()` of the injection point.
        site: u8,
        /// `FaultAction::code()` of the injected action.
        action: u8,
    },
    /// A worker's main loop caught a panic that unwound past every job
    /// boundary; the worker re-entered service and the pool is marked
    /// degraded.
    WorkerDegraded,
    /// The `wait_until` watchdog saw no pool-wide job progress while a
    /// latch stayed unresolved past the stall threshold.
    WatchdogStall,
    /// This worker drained an externally-injected job from injection
    /// lane `lane` (its own lane, or another worker's during a sweep).
    InjectLane {
        /// Index of the lane the job came from.
        lane: u32,
    },
    /// A parked worker was woken by a targeted notification (a real
    /// `notify_one`/`notify_all`, not the timeout backstop).
    WakeTargeted,
    /// A parked worker's sleep timed out: a backstop poll, not a
    /// productive wake. Consecutive fruitless backstop wakes back off
    /// exponentially.
    BackstopWake,
    /// A thief adopted a lazy loop's assist handle and registered as an
    /// assistant on the loop's shared cursor.
    AssistJoin,
    /// An assistant claimed the chunk `[start, start + len)` off a lazy
    /// loop's shared cursor (owner-claimed chunks emit only the usual
    /// `ChunkStart`/`ChunkEnd` pair).
    AssistChunk {
        /// First iteration index of the claimed chunk.
        start: u64,
        /// Number of iterations in the claimed chunk.
        len: u32,
    },
    /// The adaptive controller changed a loop site's grain after
    /// ingesting that loop's wall time. One event per *accepted*
    /// adjustment (unchanged settings are not re-announced).
    GrainAdjusted {
        /// The adaptive site's registration id (`AdaptiveSite::id`).
        site: u32,
        /// The new grain (iterations per chunk) the site will use next.
        grain: u32,
    },
}

impl TraceEvent {
    /// Short stable name (CSV column, Chrome-trace event name).
    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::JobPushed => "job_pushed",
            TraceEvent::JobPopped => "job_popped",
            TraceEvent::Stolen { .. } => "stolen",
            TraceEvent::StealFailed => "steal_failed",
            TraceEvent::Parked => "parked",
            TraceEvent::Unparked => "unparked",
            TraceEvent::ClaimAttempt { .. } => "claim_attempt",
            TraceEvent::HybridFrameStolen => "frame_stolen",
            TraceEvent::FrameReinstantiated => "frame_reinstantiated",
            TraceEvent::ChunkStart { .. } => "chunk_start",
            TraceEvent::ChunkEnd { .. } => "chunk_end",
            TraceEvent::FaultInjected { .. } => "fault_injected",
            TraceEvent::WorkerDegraded => "worker_degraded",
            TraceEvent::WatchdogStall => "watchdog_stall",
            TraceEvent::InjectLane { .. } => "inject_lane",
            TraceEvent::WakeTargeted => "wake_targeted",
            TraceEvent::BackstopWake => "backstop_wake",
            TraceEvent::AssistJoin => "assist_join",
            TraceEvent::AssistChunk { .. } => "assist_chunk",
            TraceEvent::GrainAdjusted { .. } => "grain_adjusted",
        }
    }

    /// Pack into two words for the fixed-size ring slot. Tags 20–27
    /// belonged to deleted events and stay unused.
    pub(crate) fn pack(&self) -> (u64, u64) {
        match *self {
            TraceEvent::JobPushed => (1, 0),
            TraceEvent::JobPopped => (2, 0),
            TraceEvent::Stolen { victim } => (3, victim as u64),
            TraceEvent::StealFailed => (4, 0),
            TraceEvent::Parked => (5, 0),
            TraceEvent::Unparked => (6, 0),
            TraceEvent::ClaimAttempt { success, index, partition } => {
                (7 | (success as u64) << 8 | (index as u64) << 32, partition as u64)
            }
            TraceEvent::HybridFrameStolen => (8, 0),
            TraceEvent::FrameReinstantiated => (9, 0),
            TraceEvent::ChunkStart { start, len } => (10 | (len as u64) << 32, start),
            TraceEvent::ChunkEnd { start, len } => (11 | (len as u64) << 32, start),
            TraceEvent::FaultInjected { site, action } => {
                (12 | (site as u64) << 8 | (action as u64) << 16, 0)
            }
            TraceEvent::WorkerDegraded => (13, 0),
            TraceEvent::WatchdogStall => (14, 0),
            TraceEvent::InjectLane { lane } => (15, lane as u64),
            TraceEvent::WakeTargeted => (16, 0),
            TraceEvent::BackstopWake => (17, 0),
            TraceEvent::AssistJoin => (18, 0),
            TraceEvent::AssistChunk { start, len } => (19 | (len as u64) << 32, start),
            TraceEvent::GrainAdjusted { site, grain } => (28 | (grain as u64) << 32, site as u64),
        }
    }

    /// Inverse of [`pack`](Self::pack); `None` on an unknown tag (cannot
    /// happen for slots validated by the ring's seqlock).
    pub(crate) fn unpack(a: u64, b: u64) -> Option<TraceEvent> {
        Some(match a & 0xFF {
            1 => TraceEvent::JobPushed,
            2 => TraceEvent::JobPopped,
            3 => TraceEvent::Stolen { victim: b as u32 },
            4 => TraceEvent::StealFailed,
            5 => TraceEvent::Parked,
            6 => TraceEvent::Unparked,
            7 => TraceEvent::ClaimAttempt {
                success: a >> 8 & 1 == 1,
                index: (a >> 32) as u32,
                partition: b as u32,
            },
            8 => TraceEvent::HybridFrameStolen,
            9 => TraceEvent::FrameReinstantiated,
            10 => TraceEvent::ChunkStart { start: b, len: (a >> 32) as u32 },
            11 => TraceEvent::ChunkEnd { start: b, len: (a >> 32) as u32 },
            12 => TraceEvent::FaultInjected { site: (a >> 8) as u8, action: (a >> 16) as u8 },
            13 => TraceEvent::WorkerDegraded,
            14 => TraceEvent::WatchdogStall,
            15 => TraceEvent::InjectLane { lane: b as u32 },
            16 => TraceEvent::WakeTargeted,
            17 => TraceEvent::BackstopWake,
            18 => TraceEvent::AssistJoin,
            19 => TraceEvent::AssistChunk { start: b, len: (a >> 32) as u32 },
            28 => TraceEvent::GrainAdjusted { site: b as u32, grain: (a >> 32) as u32 },
            _ => return None,
        })
    }
}

/// Where instrumented code sends its events.
///
/// Hot paths are expected to cache [`enabled`](TraceSink::enabled) (it is
/// constant for a sink's lifetime) and branch on it before building an
/// event or calling [`record`](TraceSink::record) — with the default
/// [`NoopSink`] that branch is the *entire* cost of the instrumentation.
pub trait TraceSink: Send + Sync {
    /// Whether this sink records anything. Must be constant per sink.
    fn enabled(&self) -> bool;

    /// Record `event` on behalf of worker `worker`. For ring sinks the
    /// caller must uphold the single-writer discipline: at most one thread
    /// records for a given `worker` id at a time.
    fn record(&self, worker: usize, event: TraceEvent);

    /// Record an event from *outside* the per-worker single-writer
    /// discipline: watchdog reporters and submitter threads. May be called
    /// from any thread concurrently; sinks that cannot accept that
    /// serialize or drop internally. Default: drop.
    fn record_external(&self, _event: TraceEvent) {}
}

/// The default sink: discards everything and reports itself disabled.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopSink;

impl TraceSink for NoopSink {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&self, _worker: usize, _event: TraceEvent) {}
}

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process-wide trace epoch (anchored on first use,
/// or explicitly via [`init_clock`]). Monotonic within a thread.
pub fn now_nanos() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Anchor the trace epoch now (so timestamps start near zero for runs that
/// build their sink just before the traced region).
pub fn init_clock() {
    let _ = EPOCH.get_or_init(Instant::now);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_round_trips_every_variant() {
        let events = [
            TraceEvent::JobPushed,
            TraceEvent::JobPopped,
            TraceEvent::Stolen { victim: 31 },
            TraceEvent::StealFailed,
            TraceEvent::Parked,
            TraceEvent::Unparked,
            TraceEvent::ClaimAttempt { success: true, index: 0, partition: 5 },
            TraceEvent::ClaimAttempt { success: false, index: u32::MAX, partition: u32::MAX },
            TraceEvent::HybridFrameStolen,
            TraceEvent::FrameReinstantiated,
            TraceEvent::ChunkStart { start: u64::MAX >> 1, len: 4096 },
            TraceEvent::ChunkEnd { start: 0, len: u32::MAX },
            TraceEvent::FaultInjected { site: 6, action: 3 },
            TraceEvent::FaultInjected { site: u8::MAX, action: u8::MAX },
            TraceEvent::WorkerDegraded,
            TraceEvent::WatchdogStall,
            TraceEvent::InjectLane { lane: 0 },
            TraceEvent::InjectLane { lane: u32::MAX },
            TraceEvent::WakeTargeted,
            TraceEvent::BackstopWake,
            TraceEvent::AssistJoin,
            TraceEvent::AssistChunk { start: 0, len: 1 },
            TraceEvent::AssistChunk { start: u64::MAX >> 1, len: u32::MAX },
            TraceEvent::GrainAdjusted { site: 3, grain: 256 },
            TraceEvent::GrainAdjusted { site: u32::MAX, grain: u32::MAX },
        ];
        for ev in events {
            let (a, b) = ev.pack();
            assert_eq!(TraceEvent::unpack(a, b), Some(ev), "{ev:?}");
        }
    }

    #[test]
    fn unknown_tag_rejected() {
        assert_eq!(TraceEvent::unpack(0, 0), None);
        assert_eq!(TraceEvent::unpack(0xFF, 7), None);
        for retired in 20..=27 {
            assert_eq!(TraceEvent::unpack(retired, 7), None, "tag {retired}");
        }
    }

    #[test]
    fn noop_sink_is_disabled_and_inert() {
        let s = NoopSink;
        assert!(!s.enabled());
        s.record(0, TraceEvent::JobPushed); // must be a no-op, not a panic
    }

    #[test]
    fn clock_is_monotonic() {
        init_clock();
        let a = now_nanos();
        let b = now_nanos();
        assert!(b >= a);
    }

    #[test]
    fn event_stays_register_sized() {
        // The hot path constructs events unconditionally before the
        // sink-enabled branch; keep them trivially cheap.
        assert!(std::mem::size_of::<TraceEvent>() <= 24);
    }
}
