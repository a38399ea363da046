//! Integration tests for the adaptive grain controller
//! (`parloop_core::adapt` + `GrainPolicy::Adaptive`):
//!
//! * **Determinism** — the controller is a pure function of its signal
//!   stream: identical streams produce identical adjustment sequences
//!   and final operating points.
//! * **Chaos** — a 32-seed sweep injecting faults at `Site::GrainAdjust`
//!   (dropped samples, stalled recorders) must leave Theorem 3 intact —
//!   every iteration of every loop runs exactly once — and the site must
//!   still converge to `Settled` (eventually; dropped samples only slow
//!   the climb).
//! * **Static equivalence** — `GrainPolicy::Static` through `Loop::run`
//!   is indistinguishable from plain `par_for_chunks`.
//! * **End-to-end plumbing** — accepted adjustments show up in
//!   `PoolStats::grain_adjustments` and as `TraceEvent::GrainAdjusted`
//!   records carrying the site's id.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parloop::chaos::{PlannedInjector, Site, RATE_DENOM};
use parloop::core::{AdaptiveSite, GrainPolicy};
use parloop::trace::init_clock;
use parloop::{
    par_for_chunks, Loop, RingTraceSink, Schedule, ThreadPool, ThreadPoolBuilder, TraceEvent,
};

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Run `body` over `0..n` and assert every index executed exactly once.
fn assert_exactly_once(n: usize, run: impl FnOnce(&(dyn Fn(std::ops::Range<usize>) + Sync))) {
    let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    run(&|chunk: std::ops::Range<usize>| {
        for i in chunk {
            hits[i].fetch_add(1, Ordering::Relaxed);
            std::hint::black_box(splitmix64(i as u64));
        }
    });
    for (i, h) in hits.iter().enumerate() {
        assert_eq!(h.load(Ordering::Relaxed), 1, "iteration {i} ran a wrong number of times");
    }
}

/// The controller is deterministic in its inputs: feeding the same
/// seeded signal stream to two fresh sites yields the same adjustment
/// trail, final grain, and adjustment count. (End-to-end wall clocks are
/// not reproducible; the determinism contract lives at the signal
/// boundary, which this drives through the public begin/record API.)
#[test]
fn same_signal_stream_yields_identical_adjustment_sequence() {
    let drive = |seed: u64| {
        let site = AdaptiveSite::new("det-layer");
        let mut trail = Vec::new();
        for k in 0..96u64 {
            let n = 1usize << (10 + (k % 3) as usize);
            let start = site.begin(n, 4);
            if !start.measure {
                continue;
            }
            let h = splitmix64(seed ^ k);
            // Per-chunk overhead plus bounded lumpy noise.
            let chunks = (n / start.grain.max(1)) as u64;
            if let Some(grain) = site.record(&start, 40 * n as u64 + 2_000 * chunks + h % 512) {
                trail.push(grain);
            }
        }
        (trail, site.snapshot().grain, site.adjustments())
    };
    let a = drive(42);
    assert_eq!(a, drive(42), "identical streams must replay identically");
    assert!(!a.0.is_empty(), "the stream must exercise at least one adjustment");
}

/// 32-seed chaos sweep at `Site::GrainAdjust`: injected `Fail`s drop
/// controller samples and `Delay`s stall the recording thread, but user
/// iterations are never at risk (exactly-once holds every loop) and the
/// site still reaches `Settled` — missing observations postpone, never
/// prevent, convergence.
#[test]
fn grain_adjust_chaos_sweep_preserves_exactly_once_and_converges() {
    let n = 1024;
    for seed in 0..32u64 {
        let inj = Arc::new(
            PlannedInjector::quiet(seed)
                .with_rate(Site::GrainAdjust, RATE_DENOM / 2)
                .with_delay_spins(50),
        );
        let pool = ThreadPoolBuilder::new()
            .num_workers(2)
            .fault_injector(Arc::<PlannedInjector>::clone(&inj))
            .build();
        let site = AdaptiveSite::new("chaos-layer");
        let mut settled = false;
        for _ in 0..160 {
            assert_exactly_once(n, |body| {
                Loop { grain: GrainPolicy::Adaptive(&site), ..Loop::new(Schedule::vanilla()) }
                    .run(&pool, 0..n, body)
                    .unwrap();
            });
            if site.settled() {
                settled = true;
                break;
            }
        }
        assert!(settled, "seed {seed}: site never converged under chaos");
        assert!(site.adjustments() > 0, "seed {seed}: convergence implies accepted adjustments");
        assert!(
            inj.queries_at(Site::GrainAdjust) > 0,
            "seed {seed}: the GrainAdjust site was never consulted"
        );
    }
}

/// `GrainPolicy::Static` through `Loop::run` must be plain
/// `par_for_chunks`: same coverage, exactly once, for both engine
/// schedules — and it is the `Default` policy.
#[test]
fn grain_policy_static_matches_plain_policy_path() {
    assert!(matches!(GrainPolicy::default(), GrainPolicy::Static));
    let pool = ThreadPool::new(2);
    for sched in [Schedule::hybrid(), Schedule::vanilla()] {
        assert_exactly_once(2048, |body| {
            Loop { grain: GrainPolicy::Static, ..Loop::new(sched) }
                .run(&pool, 0..2048, body)
                .unwrap();
        });
        assert_exactly_once(2048, |body| {
            par_for_chunks(&pool, 0..2048, sched, body);
        });
    }
}

/// End-to-end observability: accepted adjustments are counted in
/// `PoolStats::grain_adjustments` and emitted as `GrainAdjusted` trace
/// events tagged with the site's id and its new grain.
#[test]
fn adaptive_adjustments_reach_pool_stats_and_trace() {
    init_clock();
    let sink = Arc::new(RingTraceSink::with_capacity(2, 1 << 12));
    let pool = ThreadPoolBuilder::new()
        .num_workers(2)
        .trace_sink(Arc::<RingTraceSink>::clone(&sink))
        .build();
    let site = AdaptiveSite::new("e2e-layer");
    for _ in 0..48 {
        assert_exactly_once(2048, |body| {
            Loop { grain: GrainPolicy::Adaptive(&site), ..Loop::new(Schedule::hybrid()) }
                .run(&pool, 0..2048, body)
                .unwrap();
        });
    }
    assert!(site.adjustments() > 0, "48 warmup loops must adjust at least once");
    assert_eq!(pool.stats().grain_adjustments, site.adjustments());
    let snap = sink.drain();
    let adjusted: Vec<(u32, u32)> = snap
        .events
        .iter()
        .filter_map(|e| match e.event {
            TraceEvent::GrainAdjusted { site, grain } => Some((site, grain)),
            _ => None,
        })
        .collect();
    assert_eq!(adjusted.len() as u64, site.adjustments());
    for (s, grain) in adjusted {
        assert_eq!(s, site.id());
        assert!(grain.is_power_of_two(), "grain {grain} must be a power of two");
    }
}
