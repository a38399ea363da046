//! Lazy-splitter benchmark: what the steal-driven lazy engine costs the
//! work-stealing inner loop.
//!
//! Three measurements, written to `results/lazy_split.json`:
//!
//! * **deque pushes per loop** — the structural quantity the lazy splitter
//!   exists to bound. It publishes exactly one assist handle plus one
//!   re-publish per adoption, so its per-loop pushes are bounded by
//!   `steals + 1`. The bound is a counting identity over `PoolStats`
//!   deltas (`jobs_pushed`, `steals`, `assist_joins`), not a wall-clock
//!   ratio, so it holds on any host — including a 1-CPU CI box — and is
//!   enforced in both modes. Measured on a 1-worker pool (steals
//!   impossible: the loop must push *nothing*) and a 4-worker pool
//!   (pushes ≤ steals + loops).
//! * **ns/iter** at the grains 64 / 512 / 2048 on a 1-worker pool, where
//!   the time is pure splitting overhead (best-of-reps; multi-worker
//!   timing on a time-shared host measures the OS scheduler, not the
//!   splitter). `--smoke` shrinks `n`.
//! * **per-loop floors (`floor/lazy/*`, `floor/hybrid/*`)** — ns per
//!   near-empty loop (64 iterations, grain 16: the body is negligible, so
//!   the timing *is* the per-loop fixed cost) at P = 1/2/4, for
//!   `lazy_for_chunks` and for `par_for_chunks` under `Schedule::hybrid()`.
//!   Timed *inside* one `install`, so the injection round-trip is excluded
//!   and only the loop machinery is measured. Each floor also reports its
//!   deque pushes per loop: a loop publishes only when a peer is idle at
//!   one of its chunk boundaries, so pushes per loop tell how often the
//!   floor paid for a publish. Report-only: on an oversubscribed host the
//!   P > 1 floors time the OS scheduler.
//!
//! Usage: `cargo run --release -p parloop-bench --bin split_bench
//! [--smoke] [--bench-json PATH]`
//!
//! `--bench-json PATH` additionally writes a flat, stable
//! `{"benchmark": ..., "results": [{"name", "value", "unit"}]}` file
//! (`scripts/bench.sh` points it at the repo-top `BENCH_parloop.json`)
//! so the perf trajectory can be compared across commits.

use std::ops::Range;

use parloop_bench::{bench_json_arg, merge_bench_json, time_best_ns, Table};
use parloop_core::{lazy_for_chunks, par_for_chunks, Schedule};
use parloop_runtime::ThreadPool;

/// `PoolStats` deltas from running `loops` identical lazy loops.
struct PushSample {
    workers: usize,
    loops: u64,
    pushes: u64,
    steals: u64,
    assists: u64,
}

fn measure_pushes(workers: usize, loops: u64, n: usize, grain: usize) -> PushSample {
    let pool = ThreadPool::new(workers);
    let body = |chunk: Range<usize>| {
        std::hint::black_box(chunk.len());
    };
    let before = pool.stats();
    for _ in 0..loops {
        pool.install(|| lazy_for_chunks(0..n, grain, &body));
    }
    let after = pool.stats();
    PushSample {
        workers,
        loops,
        pushes: after.jobs_pushed - before.jobs_pushed,
        steals: after.steals - before.steals,
        assists: after.assist_joins - before.assist_joins,
    }
}

struct TimeRow {
    grain: usize,
    ns_per_iter: f64,
}

fn measure_time(pool: &ThreadPool, n: usize, grain: usize, reps: usize) -> TimeRow {
    let body = |chunk: Range<usize>| {
        let mut acc = 0u64;
        for i in chunk {
            acc = acc.wrapping_add((i as u64).wrapping_mul(0x9e37_79b9));
        }
        std::hint::black_box(acc);
    };
    let ns = time_best_ns(reps, || {
        pool.install(|| lazy_for_chunks(0..n, grain, &body));
    });
    TimeRow { grain, ns_per_iter: ns / n as f64 }
}

/// Per-loop fixed cost of one engine at one worker count: ns per
/// near-empty loop, and the deque pushes per loop behind it.
struct FloorRow {
    engine: &'static str,
    workers: usize,
    ns: f64,
    pushes_per_loop: f64,
}

fn measure_floor(engine: &'static str, workers: usize, reps: usize) -> FloorRow {
    // 64 iterations at grain 16: four chunks of trivial work, so the
    // timing is dominated by the per-loop machinery, not the body.
    let n = 64usize;
    let grain = 16usize;
    // Batch loops inside each timed rep so the clock quantum cannot
    // swallow a single ~100ns loop.
    const LOOPS: usize = 256;
    let pool = ThreadPool::new(workers);
    let body = |chunk: Range<usize>| {
        std::hint::black_box(chunk.len());
    };
    let one_loop = || match engine {
        "lazy" => lazy_for_chunks(0..n, grain, &body),
        _ => par_for_chunks(&pool, 0..n, Schedule::hybrid().with_grain(grain), body),
    };
    let before = pool.stats().jobs_pushed;
    let ns = pool.install(|| {
        time_best_ns(reps, || {
            for _ in 0..LOOPS {
                one_loop();
            }
        })
    });
    // `time_best_ns` runs one warmup rep before the `reps` timed ones.
    let loops = ((reps.max(1) + 1) * LOOPS) as f64;
    let pushes_per_loop = (pool.stats().jobs_pushed - before) as f64 / loops;
    FloorRow { engine, workers, ns: ns / LOOPS as f64, pushes_per_loop }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let bench_json = bench_json_arg();
    let n = if smoke { 1 << 16 } else { 1 << 20 };
    let reps = if smoke { 5 } else { 20 };
    let push_loops = if smoke { 10u64 } else { 50 };
    let push_grain = 64usize;
    let grains = [64usize, 512, 2048];

    println!(
        "split bench: n={n}, grains {grains:?}, best of {reps}{}",
        if smoke { " (smoke)" } else { "" }
    );

    // Deque pushes per loop: steals impossible (P=1), then steals possible.
    let samples = [
        measure_pushes(1, push_loops, n, push_grain),
        measure_pushes(4, push_loops, n, push_grain),
    ];

    let mut t =
        Table::new(vec!["workers", "loops", "pushes", "steals", "assists", "bound (steals+loops)"]);
    for s in &samples {
        t.row(vec![
            s.workers.to_string(),
            s.loops.to_string(),
            s.pushes.to_string(),
            s.steals.to_string(),
            s.assists.to_string(),
            (s.steals + s.loops).to_string(),
        ]);
    }
    t.print();

    // ns/iter on a 1-worker pool: the splitting overhead alone.
    let timing_pool = ThreadPool::new(1);
    let rows: Vec<TimeRow> =
        grains.iter().map(|&g| measure_time(&timing_pool, n, g, reps)).collect();

    let mut t = Table::new(vec!["grain", "ns/iter"]);
    for r in &rows {
        t.row(vec![r.grain.to_string(), format!("{:.3}", r.ns_per_iter)]);
    }
    println!();
    t.print();

    // Per-loop fixed cost at P = 1/2/4 (the paper's Fig. 1 latency-floor
    // measurement, which `split/lazy/*` ns/iter amortizes away).
    let floors: Vec<FloorRow> = ["lazy", "hybrid"]
        .iter()
        .flat_map(|&engine| [1usize, 2, 4].map(|p| measure_floor(engine, p, reps)))
        .collect();
    let mut t = Table::new(vec!["engine", "workers", "ns/loop", "pushes/loop"]);
    for f in &floors {
        t.row(vec![
            f.engine.to_string(),
            f.workers.to_string(),
            format!("{:.1}", f.ns),
            format!("{:.3}", f.pushes_per_loop),
        ]);
    }
    println!();
    t.print();

    let cpus = std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1);
    let json = render_json(cpus, n, push_grain, &samples, &rows, &floors);
    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write("results/lazy_split.json", &json).expect("write results JSON");
    println!("\nwrote results/lazy_split.json");

    if let Some(path) = &bench_json {
        merge_bench_json(path, &bench_entries(&samples, &rows, &floors));
        println!("merged split/lazy/*, floor/lazy/* and floor/hybrid/* series into {path}");
    }

    // Acceptance bars: the push bounds are counting identities —
    // host-core-count independent, enforced in both modes.
    let mut failed = false;
    let one = &samples[0];
    println!("\ncheck P=1 pushes: {} (need 0: no thieves, no handle published)", one.pushes);
    if one.pushes != 0 {
        failed = true;
    }
    let four = &samples[1];
    let bound = four.steals + four.loops;
    println!(
        "check P=4 pushes: {} <= steals + loops = {bound} (pushes per loop <= steals + 1)",
        four.pushes
    );
    if four.pushes > bound {
        failed = true;
    }
    if failed {
        eprintln!("FAILED: split acceptance bars not met");
        std::process::exit(1);
    }
    println!("ok: lazy splitting bounds pushes by steals+1 per loop");
}

/// The `split/lazy/*`, `floor/lazy/*` and `floor/hybrid/*` series for the
/// flat cross-commit file: one `{name, value, unit}` entry per measured
/// quantity, names stable across commits.
fn bench_entries(
    samples: &[PushSample],
    rows: &[TimeRow],
    floors: &[FloorRow],
) -> Vec<(String, String, &'static str)> {
    let mut entries = Vec::new();
    for r in rows {
        entries.push((
            format!("split/lazy/grain{}", r.grain),
            format!("{:.4}", r.ns_per_iter),
            "ns_per_iter",
        ));
    }
    for ps in samples {
        entries.push((
            format!("split/lazy/pushes_p{}", ps.workers),
            format!("{:.2}", ps.pushes as f64 / ps.loops as f64),
            "pushes_per_loop",
        ));
    }
    for f in floors {
        entries.push((
            format!("floor/{}/p{}", f.engine, f.workers),
            format!("{:.1}", f.ns),
            "ns_per_loop",
        ));
    }
    entries
}

fn render_json(
    cpus: usize,
    n: usize,
    push_grain: usize,
    samples: &[PushSample],
    rows: &[TimeRow],
    floors: &[FloorRow],
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"host_cpus\": {cpus},\n  \"n\": {n},\n"));
    s.push_str(&format!("  \"push_grain\": {push_grain},\n"));
    s.push_str("  \"pushes\": [\n");
    for (k, ps) in samples.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"workers\": {}, \"loops\": {}, \"lazy_jobs_pushed\": {}, \"steals\": {}, \
             \"assist_joins\": {}, \"bound_steals_plus_loops\": {}}}{}\n",
            ps.workers,
            ps.loops,
            ps.pushes,
            ps.steals,
            ps.assists,
            ps.steals + ps.loops,
            if k + 1 < samples.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"ns_per_iter\": [\n");
    for (k, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"grain\": {}, \"lazy\": {:.4}}}{}\n",
            r.grain,
            r.ns_per_iter,
            if k + 1 < rows.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"floor_ns_per_loop\": [\n");
    for (k, f) in floors.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"engine\": \"{}\", \"workers\": {}, \"ns\": {:.1}, \"pushes_per_loop\": {:.3}}}{}\n",
            f.engine,
            f.workers,
            f.ns,
            f.pushes_per_loop,
            if k + 1 < floors.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}
