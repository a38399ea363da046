//! Injection-path benchmark: the sharded lanes (one per worker) and the
//! event-counter sleep protocol of a default pool.
//!
//! Three measurements, written to `results/inject_latency.json`:
//!
//! * **throughput** — S submitter threads each post N detached jobs; wall
//!   time covers submission through execution of the last job. Each row
//!   gives the median and quartiles of jobs/s over the reps (reported,
//!   not enforced; the host CPU count is recorded in the JSON so readers
//!   can judge the numbers).
//! * **install latency** — round-trip time of `install` on a pool given a
//!   moment to park: the targeted-wake path end to end (p50/p99).
//! * **idle wake rate** — backstop wakes of a fully idle pool over a
//!   window, against the `window / base × P` rate the old fixed-interval
//!   poll paid forever. The sleep protocol's exponential backoff must cut
//!   it by at least 10x.
//!
//! Acceptance (process exits 1 otherwise): idle wake rate reduced ≥ 10x.
//! `--smoke` shrinks sizes for CI and relaxes the bar to 5x.
//!
//! Usage: `cargo run --release -p parloop-bench --bin inject_bench
//! [--smoke]`

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parloop_bench::Table;
use parloop_runtime::{ThreadPool, DEFAULT_BACKSTOP_INTERVAL};

/// Jobs/second for `submitters` threads each posting `jobs` near-empty
/// detached jobs, measured submission-to-last-execution: one value per
/// rep, sorted ascending.
fn throughput(pool: &ThreadPool, submitters: usize, jobs: usize, reps: usize) -> Vec<f64> {
    let total = submitters * jobs;
    let mut rates = Vec::with_capacity(reps);
    for _ in 0..reps {
        let done = Arc::new(AtomicUsize::new(0));
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..submitters {
                let done = &done;
                s.spawn(move || {
                    for _ in 0..jobs {
                        let done = Arc::clone(done);
                        pool.spawn_detached(move || {
                            done.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            }
        });
        while done.load(Ordering::Acquire) < total {
            std::hint::spin_loop();
        }
        rates.push(total as f64 / t0.elapsed().as_secs_f64());
    }
    rates.sort_by(|a, b| a.total_cmp(b));
    rates
}

/// Round-trip `install` latencies (µs) on a pool given a moment to park
/// before each sample.
fn install_latency_us(pool: &ThreadPool, samples: usize) -> Vec<f64> {
    let mut lat = Vec::with_capacity(samples);
    for _ in 0..samples {
        std::thread::sleep(Duration::from_micros(200));
        let t0 = Instant::now();
        pool.install(|| {});
        lat.push(t0.elapsed().as_nanos() as f64 / 1000.0);
    }
    lat.sort_by(|a, b| a.total_cmp(b));
    lat
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let p = 4usize;
    let jobs = if smoke { 2_000 } else { 20_000 };
    let reps = if smoke { 3 } else { 5 };
    let samples = if smoke { 50 } else { 200 };
    let window = if smoke { Duration::from_millis(250) } else { Duration::from_millis(500) };

    println!(
        "injection bench: P={p} workers, {jobs} jobs/submitter, {reps} reps{}",
        if smoke { " (smoke)" } else { "" }
    );

    // Per submitter count: jobs/s quartiles `[p25, p50, p75]` over the reps.
    let pool = ThreadPool::new(p);
    let rows: Vec<(usize, [f64; 3])> = [1usize, 2, 4, 8]
        .into_iter()
        .map(|s| {
            let rates = throughput(&pool, s, jobs, reps);
            (s, [0.25, 0.50, 0.75].map(|q| percentile(&rates, q)))
        })
        .collect();

    let mut t = Table::new(vec!["submitters", "jobs/s p50", "p25", "p75"]);
    for (submitters, [q1, median, q3]) in &rows {
        t.row(vec![
            submitters.to_string(),
            format!("{median:.3e}"),
            format!("{q1:.3e}"),
            format!("{q3:.3e}"),
        ]);
    }
    t.print();

    let lat = install_latency_us(&pool, samples);
    let (p50, p99) = (percentile(&lat, 0.50), percentile(&lat, 0.99));
    println!("\ninstall round-trip latency  p50 {p50:.1}µs  p99 {p99:.1}µs");

    // Idle wake rate: leave the pool alone and count backstop wakes,
    // against the old protocol's fixed poll every base interval.
    pool.install(|| {});
    std::thread::sleep(Duration::from_millis(50));
    let before: u64 = pool.worker_stats().iter().map(|w| w.backstop_wakes).sum();
    std::thread::sleep(window);
    let after: u64 = pool.worker_stats().iter().map(|w| w.backstop_wakes).sum();
    let observed = after - before;
    let unthrottled =
        (window.as_micros() / DEFAULT_BACKSTOP_INTERVAL.as_micros()) as u64 * p as u64;
    let reduction =
        if observed == 0 { unthrottled as f64 } else { unthrottled as f64 / observed as f64 };
    println!(
        "idle wakes over {:?}        {observed} observed vs {unthrottled} unthrottled ({reduction:.0}x fewer)",
        window
    );

    let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let json =
        render_json(p, cpus, jobs, reps, &rows, p50, p99, window, observed, unthrottled, reduction);
    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write("results/inject_latency.json", &json).expect("write results JSON");
    println!("\nwrote results/inject_latency.json");

    // Acceptance bar.
    let need_reduction = if smoke { 5.0 } else { 10.0 };
    println!("check idle wake reduction: {reduction:.0}x (need >= {need_reduction:.0}x)");
    if reduction < need_reduction {
        eprintln!("FAILED: injection acceptance bars not met");
        std::process::exit(1);
    }
    println!("ok: idle wakes backed off");
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    p: usize,
    cpus: usize,
    jobs: usize,
    reps: usize,
    rows: &[(usize, [f64; 3])],
    p50: f64,
    p99: f64,
    window: Duration,
    observed: u64,
    unthrottled: u64,
    reduction: f64,
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!(
        "  \"workers\": {p},\n  \"host_cpus\": {cpus},\n  \"jobs_per_submitter\": {jobs},\n  \"reps\": {reps},\n"
    ));
    s.push_str("  \"throughput_jobs_per_s\": [\n");
    for (k, (submitters, [q1, median, q3])) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"submitters\": {submitters}, \"p25\": {q1:.1}, \"p50\": {median:.1}, \"p75\": {q3:.1}}}{}\n",
            if k + 1 < rows.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    s.push_str(&format!("  \"install_latency_us\": {{\"p50\": {p50:.2}, \"p99\": {p99:.2}}},\n"));
    s.push_str(&format!(
        "  \"idle_wake\": {{\"window_ms\": {}, \"observed\": {observed}, \"unthrottled\": {unthrottled}, \"reduction\": {reduction:.1}}}\n",
        window.as_millis()
    ));
    s.push_str("}\n");
    s
}
