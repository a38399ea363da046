//! Observability report for the threaded hybrid scheduler.
//!
//! Runs repeated real hybrid loops on a pool with a
//! [`RingTraceSink`] installed, then reports what the trace layer saw:
//! per-worker counters, steal rate, the failed-claim-run histogram checked
//! against Lemma 4's `max(lg R, 1)` bound, and affinity retention between
//! the last two consecutive loops (the threaded analogue of Fig. 2).
//! Exports the merged event log as Chrome trace JSON
//! (`results/trace_report.trace.json`, loadable in `chrome://tracing` or
//! Perfetto) and CSV (`results/trace_report.csv`).
//!
//! `--quick` shrinks the rep count for smoke runs.

use std::sync::Arc;

use parloop_bench::{quick_flag, Table};
use parloop_core::{Loop, Schedule};
use parloop_runtime::ThreadPoolBuilder;
use parloop_trace::metrics::{
    affinity_retention, claim_failure_histogram, event_counts, max_claim_failure_run,
};
use parloop_trace::{export, RingTraceSink, TraceSnapshot};

/// Merge drained snapshots into one event log (events are already
/// timestamp-sorted within each snapshot, and snapshots are drained in
/// order, so concatenation stays sorted).
fn merge(snaps: &[TraceSnapshot]) -> TraceSnapshot {
    let workers = snaps.iter().map(|s| s.recorded.len()).max().unwrap_or(0);
    let mut all =
        TraceSnapshot { events: Vec::new(), recorded: vec![0; workers], dropped: vec![0; workers] };
    for s in snaps {
        all.events.extend(s.events.iter().cloned());
        for (w, n) in s.recorded.iter().enumerate() {
            all.recorded[w] += n;
        }
        for (w, n) in s.dropped.iter().enumerate() {
            all.dropped[w] += n;
        }
    }
    all
}

fn main() {
    let p = 4usize;
    let n = 1usize << 14;
    let reps = if quick_flag() { 20 } else { 200 };

    parloop_trace::init_clock();
    let sink = Arc::new(RingTraceSink::with_capacity(p, 1 << 14));
    let pool = ThreadPoolBuilder::new()
        .num_workers(p)
        .trace_sink(Arc::<RingTraceSink>::clone(&sink))
        .build();

    println!("trace_report: P={p}, n={n}, {reps} hybrid loops\n");

    // One drained snapshot per loop, so claim walks and chunk ownership
    // can be attributed to individual loop executions.
    let mut snaps = Vec::with_capacity(reps);
    let mut partitions = 0usize;
    for _ in 0..reps {
        let sched = Schedule::hybrid().with_grain(64);
        let stats = Loop::new(sched)
            .run(&pool, 0..n, |chunk| {
                for i in chunk {
                    std::hint::black_box(i.wrapping_mul(0x9e37_79b9));
                }
            })
            .expect("hybrid loop body panicked");
        partitions = stats.partitions;
        snaps.push(sink.drain());
    }

    let all = merge(&snaps);
    let counts = event_counts(&all);

    let mut t = Table::new(vec![
        "worker",
        "jobs",
        "pushed",
        "steals",
        "assists",
        "failed sweeps",
        "lane jobs",
        "notified",
        "backstop",
        "recorded",
        "dropped",
    ]);
    for (w, ws) in pool.worker_stats().iter().enumerate() {
        t.row(vec![
            w.to_string(),
            ws.jobs_executed.to_string(),
            ws.jobs_pushed.to_string(),
            ws.steals.to_string(),
            ws.assist_joins.to_string(),
            ws.failed_steal_sweeps.to_string(),
            ws.lane_jobs.to_string(),
            ws.notified_wakes.to_string(),
            ws.backstop_wakes.to_string(),
            all.recorded[w].to_string(),
            all.dropped[w].to_string(),
        ]);
    }
    t.print();

    println!("\nevents collected      {}", all.len());
    println!("chunks completed      {} ({} iterations)", counts.chunks, counts.chunk_iterations);
    println!(
        "steal sweeps          {} ok / {} empty (success rate {})",
        counts.steals,
        counts.failed_steal_sweeps,
        counts
            .steal_success_rate()
            .map(|r| format!("{:.1}%", 100.0 * r))
            .unwrap_or_else(|| "n/a".into()),
    );
    println!(
        "hybrid frames         {} stolen, {} re-published",
        counts.frames_stolen, counts.frames_reinstantiated
    );
    println!(
        "claim attempts        {} total, {} failed",
        counts.claim_attempts, counts.failed_claims
    );
    println!(
        "parks                 {} ({} targeted wakes, {} backstop wakes)",
        counts.parks, counts.targeted_wakes, counts.backstop_wakes
    );
    println!(
        "lazy assists          {} joins, {} chunks ({} iterations)",
        counts.assist_joins, counts.assist_chunks, counts.assist_iterations
    );

    // Lemma 4: no worker ever fails more than max(lg R, 1) claims in a row.
    let bound = partitions.trailing_zeros().max(1);
    let max_run = max_claim_failure_run(&all);
    let hist = claim_failure_histogram(&all);
    println!("\nfailed-claim-run histogram (R = {partitions}, Lemma 4 bound = {bound}):");
    if hist.len() <= 1 {
        println!("  (no failed claims recorded)");
    }
    for (len, count) in hist.iter().enumerate().skip(1) {
        println!("  run length {len:>2}: {count}");
    }
    println!(
        "max failed-claim run  {max_run} <= {bound}  [{}]",
        if max_run <= bound { "OK" } else { "VIOLATION" }
    );
    assert!(max_run <= bound, "Lemma 4 bound violated: run {max_run} > {bound}");

    // Fig. 2 analogue: same-worker iteration ownership across the last two
    // consecutive loops.
    if let [.., prev, cur] = snaps.as_slice() {
        match affinity_retention(prev, cur) {
            Some(r) => println!("affinity retention    {:.1}% (last two loops)", 100.0 * r),
            None => println!("affinity retention    n/a (chunk events dropped)"),
        }
    }

    std::fs::create_dir_all("results").expect("create results/");
    let json = export::chrome_trace_json(&all);
    std::fs::write("results/trace_report.trace.json", &json).expect("write trace JSON");
    let csv = export::csv(&all);
    std::fs::write("results/trace_report.csv", &csv).expect("write trace CSV");
    println!("\nwrote results/trace_report.trace.json ({} bytes)", json.len());
    println!("wrote results/trace_report.csv ({} bytes)", csv.len());
}
