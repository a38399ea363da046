//! Integration tests for the observability layer: per-worker event rings
//! under real pools and adversarial interleavings, the Lemma 4 bound on
//! failed-claim runs as seen by the tracer, the tracing-off hot-path
//! guarantee, and well-formedness of the exporters.

mod common;

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use common::wait_for_idle_peer;
use parloop::trace::metrics::{claim_failure_histogram, event_counts, max_claim_failure_run};
use parloop::trace::{export, init_clock};
use parloop::{
    par_for, RingTraceSink, Schedule, ThreadPool, ThreadPoolBuilder, TraceEvent, TraceSink,
};

fn traced_pool(p: usize, capacity: usize) -> (ThreadPool, Arc<RingTraceSink>) {
    init_clock();
    let sink = Arc::new(RingTraceSink::with_capacity(p, capacity));
    let pool = ThreadPoolBuilder::new()
        .num_workers(p)
        .trace_sink(Arc::<RingTraceSink>::clone(&sink))
        .build();
    (pool, sink)
}

#[test]
fn real_run_records_full_chunk_coverage() {
    let (pool, sink) = traced_pool(4, 1 << 14);
    let n = 1 << 12;
    // A loop that never sees an idle peer runs uncontended and claims
    // nothing, so issue it from a worker once a peer is idle.
    pool.install(|| {
        wait_for_idle_peer(Instant::now() + Duration::from_secs(10));
        par_for(&pool, 0..n, Schedule::hybrid().with_grain(32), |i| {
            std::hint::black_box(i);
        });
    });
    let snap = sink.drain();
    assert!(snap.dropped.iter().all(|&d| d == 0), "capacity was sized to lose nothing");
    let counts = event_counts(&snap);
    // Every iteration appears in exactly one completed leaf chunk.
    assert_eq!(counts.chunk_iterations as usize, n);
    let owners = parloop::trace::metrics::iteration_owners(&snap);
    assert_eq!(owners.len(), n);
    assert!(owners.iter().all(|&w| w != parloop::trace::metrics::UNOWNED));
    // The initiating walk alone already attempts R claims.
    assert!(counts.claim_attempts >= 4);
}

#[test]
fn ring_overflow_keeps_newest_events_per_worker() {
    // Capacity far below the event volume: the ring must overwrite oldest,
    // report the loss, and keep per-worker timestamps monotone.
    let (pool, sink) = traced_pool(2, 64);
    par_for(&pool, 0..(1 << 13), Schedule::hybrid().with_grain(8), |i| {
        std::hint::black_box(i);
    });
    let snap = sink.drain();
    assert!(snap.dropped.iter().sum::<u64>() > 0, "tiny rings must have overflowed");
    for w in 0..2u32 {
        let ts: Vec<u64> =
            snap.events.iter().filter(|e| e.worker == w).map(|e| e.ts_nanos).collect();
        assert!(ts.windows(2).all(|p| p[0] <= p[1]), "worker {w} timestamps out of order");
        assert!(ts.len() as u64 <= 64, "worker {w} kept {} events from a 64-slot ring", ts.len());
    }
    // Conservation: recorded = surviving + dropped, per worker.
    for w in 0..2usize {
        let kept = snap.events.iter().filter(|e| e.worker == w as u32).count() as u64;
        assert_eq!(snap.recorded[w], kept + snap.dropped[w]);
    }
}

#[test]
fn concurrent_snapshots_never_observe_torn_events() {
    // One writer hammers its ring while this thread snapshots; payload
    // words carry a correlated pattern (index == partition, success =
    // parity) that any cross-event mix of words would break.
    let sink = Arc::new(RingTraceSink::with_capacity(1, 32));
    let stop = Arc::new(AtomicUsize::new(0));
    let writer = {
        let sink = Arc::clone(&sink);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut v: u32 = 0;
            while stop.load(Ordering::Acquire) == 0 {
                sink.record(
                    0,
                    TraceEvent::ClaimAttempt {
                        success: v.is_multiple_of(2),
                        index: v,
                        partition: v,
                    },
                );
                v = v.wrapping_add(1);
            }
        })
    };
    // On a single-CPU host the writer thread may not get scheduled while
    // this thread spins through its snapshots; wait until it has recorded
    // something so every run actually exercises the reader/writer overlap.
    while sink.snapshot().events.is_empty() {
        std::thread::yield_now();
    }
    let mut seen = 0usize;
    for _ in 0..2000 {
        let snap = sink.snapshot();
        let mut last_index: Option<u32> = None;
        for e in &snap.events {
            match e.event {
                TraceEvent::ClaimAttempt { success, index, partition } => {
                    assert_eq!(index, partition, "torn read mixed two events' words");
                    assert_eq!(success, index.is_multiple_of(2), "torn read mixed success bit");
                    if let Some(prev) = last_index {
                        assert!(index > prev, "ring order violated: {index} after {prev}");
                    }
                    last_index = Some(index);
                    seen += 1;
                }
                other => panic!("unexpected event {other:?}"),
            }
        }
    }
    stop.store(1, Ordering::Release);
    writer.join().unwrap();
    assert!(seen > 0, "snapshots never overlapped the writer");
}

#[test]
fn claim_failure_runs_respect_lemma4_bound_under_stress() {
    // Many real hybrid loops across worker counts and oversubscription
    // factors; the tracer's failed-claim-run histogram must never exceed
    // max(lg R, 1), the Lemma 4 bound.
    for p in [2usize, 3, 4] {
        for oversub in [1usize, 4] {
            let (pool, sink) = traced_pool(p, 1 << 13);
            let r_parts = (p * oversub).next_power_of_two();
            let bound = r_parts.trailing_zeros().max(1);
            for _ in 0..25 {
                par_for(&pool, 0..2048, Schedule::hybrid_oversub(oversub), |i| {
                    std::hint::black_box(i);
                });
            }
            let snap = sink.drain();
            let max_run = max_claim_failure_run(&snap);
            assert!(
                max_run <= bound,
                "P={p} oversub={oversub} (R={r_parts}): run {max_run} > bound {bound}"
            );
            let hist = claim_failure_histogram(&snap);
            assert!(hist.len() as u32 <= bound + 1, "histogram has a bucket past the bound");
        }
    }
}

/// A sink that reports itself disabled and panics if the runtime ever
/// calls through anyway — installing it proves the tracing-off hot path is
/// exactly one untaken branch (the sink is never reached, so no clock
/// reads, no packing, no ring stores happen).
struct PanicSink;

impl TraceSink for PanicSink {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&self, worker: usize, event: TraceEvent) {
        panic!("disabled sink reached from worker {worker} with {event:?}");
    }
}

#[test]
fn disabled_sink_is_never_called_on_any_path() {
    let pool = ThreadPoolBuilder::new().num_workers(4).trace_sink(Arc::new(PanicSink)).build();
    assert!(!pool.tracing_enabled());
    // Exercise every instrumented path: push/pop/steal/park via a job
    // detached from a worker onto its own deque, claims/chunks/frames via
    // hybrid loops.
    let count = AtomicUsize::new(0);
    par_for(&pool, 0..4096, Schedule::hybrid().with_grain(16), |_| {
        count.fetch_add(1, Ordering::Relaxed);
    });
    let detached_ran = Arc::new(AtomicBool::new(false));
    pool.install(|| {
        let ran = Arc::clone(&detached_ran);
        pool.spawn_detached(move || ran.store(true, Ordering::Release));
    });
    let deadline = Instant::now() + Duration::from_secs(10);
    while !detached_ran.load(Ordering::Acquire) && Instant::now() < deadline {
        std::thread::yield_now();
    }
    assert!(detached_ran.load(Ordering::Acquire), "the detached job never ran");
    // A sink call on a worker's own find-work path would have panicked
    // into its main loop and marked it degraded.
    assert!(!pool.is_degraded(), "the disabled sink was reached");
    assert_eq!(count.load(Ordering::Relaxed), 4096);
}

#[test]
fn default_pool_has_tracing_off() {
    let pool = ThreadPool::new(2);
    assert!(!pool.tracing_enabled());
    par_for(&pool, 0..256, Schedule::hybrid().with_grain(16), |i| {
        std::hint::black_box(i);
    });
}

#[test]
fn per_worker_stats_sum_to_pool_stats() {
    let pool = ThreadPool::new(3);
    par_for(&pool, 0..8192, Schedule::hybrid().with_grain(32), |i| {
        std::hint::black_box(i);
    });
    // Idle workers keep counting steal sweeps until they park, so both
    // sums must come from one quiescent moment: retry until no worker
    // counter moved across the `stats()` read. Counters are monotone, so
    // an unchanged bracket pins every total read inside it.
    let deadline = Instant::now() + Duration::from_secs(10);
    let (per, totals) = loop {
        let before = pool.worker_stats();
        let totals = pool.stats();
        let per = pool.worker_stats();
        if per == before || Instant::now() >= deadline {
            break (per, totals);
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    assert_eq!(per.len(), 3);
    assert_eq!(per.iter().map(|w| w.jobs_executed).sum::<u64>(), totals.jobs_executed);
    assert_eq!(per.iter().map(|w| w.steals).sum::<u64>(), totals.steals);
    assert_eq!(per.iter().map(|w| w.failed_steal_sweeps).sum::<u64>(), totals.failed_steal_sweeps);
    assert!(totals.jobs_executed > 0);
}

/// Minimal JSON well-formedness checker (objects, arrays, strings,
/// numbers, literals) — enough to prove the exporter emits parseable
/// output without pulling in a JSON dependency.
fn check_json(s: &str) -> Result<(), String> {
    let b = s.as_bytes();
    let mut i = 0usize;
    fn skip_ws(b: &[u8], i: &mut usize) {
        while *i < b.len() && (b[*i] as char).is_ascii_whitespace() {
            *i += 1;
        }
    }
    fn value(b: &[u8], i: &mut usize) -> Result<(), String> {
        skip_ws(b, i);
        match b.get(*i) {
            Some(b'{') => {
                *i += 1;
                skip_ws(b, i);
                if b.get(*i) == Some(&b'}') {
                    *i += 1;
                    return Ok(());
                }
                loop {
                    skip_ws(b, i);
                    string(b, i)?;
                    skip_ws(b, i);
                    if b.get(*i) != Some(&b':') {
                        return Err(format!("expected ':' at {i}"));
                    }
                    *i += 1;
                    value(b, i)?;
                    skip_ws(b, i);
                    match b.get(*i) {
                        Some(b',') => *i += 1,
                        Some(b'}') => {
                            *i += 1;
                            return Ok(());
                        }
                        _ => return Err(format!("expected ',' or '}}' at {i}")),
                    }
                }
            }
            Some(b'[') => {
                *i += 1;
                skip_ws(b, i);
                if b.get(*i) == Some(&b']') {
                    *i += 1;
                    return Ok(());
                }
                loop {
                    value(b, i)?;
                    skip_ws(b, i);
                    match b.get(*i) {
                        Some(b',') => *i += 1,
                        Some(b']') => {
                            *i += 1;
                            return Ok(());
                        }
                        _ => return Err(format!("expected ',' or ']' at {i}")),
                    }
                }
            }
            Some(b'"') => string(b, i),
            Some(c) if c.is_ascii_digit() || *c == b'-' => {
                while *i < b.len()
                    && (b[*i].is_ascii_digit() || matches!(b[*i], b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    *i += 1;
                }
                Ok(())
            }
            _ => {
                for lit in ["true", "false", "null"] {
                    if s_starts(b, *i, lit) {
                        *i += lit.len();
                        return Ok(());
                    }
                }
                Err(format!("unexpected byte at {i}"))
            }
        }
    }
    fn s_starts(b: &[u8], i: usize, lit: &str) -> bool {
        b.len() >= i + lit.len() && &b[i..i + lit.len()] == lit.as_bytes()
    }
    fn string(b: &[u8], i: &mut usize) -> Result<(), String> {
        if b.get(*i) != Some(&b'"') {
            return Err(format!("expected '\"' at {i}"));
        }
        *i += 1;
        while let Some(&c) = b.get(*i) {
            match c {
                b'\\' => *i += 2,
                b'"' => {
                    *i += 1;
                    return Ok(());
                }
                _ => *i += 1,
            }
        }
        Err("unterminated string".into())
    }
    value(b, &mut i)?;
    skip_ws(b, &mut i);
    if i != b.len() {
        return Err(format!("trailing bytes at {i}"));
    }
    Ok(())
}

#[test]
fn exporters_emit_well_formed_output_from_a_real_run() {
    let (pool, sink) = traced_pool(4, 1 << 13);
    par_for(&pool, 0..2048, Schedule::hybrid().with_grain(32), |i| {
        std::hint::black_box(i);
    });
    let snap = sink.drain();
    assert!(!snap.is_empty());

    let json = export::chrome_trace_json(&snap);
    check_json(&json).unwrap_or_else(|e| panic!("invalid chrome trace JSON: {e}"));
    assert!(json.contains(r#""ph":"X""#), "expected complete (chunk) events");

    let csv = export::csv(&snap);
    let lines: Vec<&str> = csv.lines().collect();
    assert_eq!(lines.len(), snap.len() + 1, "one CSV row per event plus header");
    let cols = lines[0].matches(',').count();
    assert!(lines.iter().all(|l| l.matches(',').count() == cols), "ragged CSV row");
}

#[test]
fn json_checker_rejects_garbage() {
    assert!(check_json("{\"a\":1}").is_ok());
    assert!(check_json("[1,2,{\"b\":[true,null]}]").is_ok());
    assert!(check_json("{\"a\":}").is_err());
    assert!(check_json("{\"a\":1").is_err());
    assert!(check_json("[1,]").is_err());
    assert!(check_json("{} extra").is_err());
}
