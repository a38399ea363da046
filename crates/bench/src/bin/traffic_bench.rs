//! QoS traffic benchmark: the pool's Latency/Batch injection lanes under
//! a batch overload, driven through `ThreadPool::install_class`.
//!
//! Scenario: a fleet of batch submitter threads keeps the pool saturated
//! with batch-class loops (several queued behind the running ones at all
//! times; each submitter blocks on its own loop, so it has one in flight)
//! while one interactive sampler periodically installs a tiny op and
//! measures the round trip — the queueing delay the QoS sub-lanes are
//! supposed to bound. Two runs drive the same traffic, each through a
//! fresh default pool:
//!
//! * **class_blind** — the sampler's installs are tagged `Batch`, so they
//!   queue in the flood's sub-lane and wait behind the whole batch
//!   backlog (the no-QoS baseline);
//! * **qos** — the sampler's installs are tagged `Latency`:
//!   deficit-round-robin drains them first, so an install waits only for
//!   a worker to finish its current job.
//!
//! A separate fairness phase floods two equal groups of batch submitters
//! through the QoS pool and compares their completed loops.
//!
//! Measurements land in `results/traffic.json`; with `--bench-json PATH`
//! the `qos/*` series is merged into the flat cross-commit tracking file.
//!
//! Acceptance (process exits 1 otherwise):
//! * zero lost iterations — every completed loop ran each iteration
//!   exactly once, in both phases (enforced in smoke and full modes);
//! * fairness ratio between the equal submitter groups in [0.5, 2.0]
//!   (enforced in both modes);
//! * latency-class p99 install latency under overload ≥ 5x lower than
//!   the class-blind baseline's (full mode only; `--smoke`
//!   reports the ratio without enforcing it — the smoke backlog is too
//!   shallow for a stable ratio on shared CI boxes). The ratio is
//!   queueing-structural, not parallelism, so the full-mode bar holds
//!   even on 1-cpu hosts.
//!
//! Usage: `cargo run --release -p parloop-bench --bin traffic_bench
//! [--smoke] [--bench-json PATH]`

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use parloop_bench::{bench_json_arg, merge_bench_json, Table};
use parloop_core::{par_for, Schedule};
use parloop_runtime::{QosClass, ThreadPool};

/// ~100ns of register-only spin per iteration, so batch loops cost real
/// wall time without touching memory.
#[inline]
fn spin_iter() {
    for k in 0..32u64 {
        std::hint::black_box(k.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    }
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

struct OverloadResult {
    p50_us: f64,
    p99_us: f64,
    batch_completed: u64,
    lost_iterations: i64,
}

/// One batch submitter: install batch-class loops of `n` spin iterations
/// on `pool` until `stop` is raised, counting each completed loop in
/// `completed` and each executed iteration in `executed`.
fn submit_batch_loops(
    pool: &ThreadPool,
    n: usize,
    stop: &AtomicBool,
    completed: &AtomicU64,
    executed: &AtomicU64,
) {
    while !stop.load(Ordering::Relaxed) {
        pool.install_class(QosClass::Batch, || {
            par_for(pool, 0..n, Schedule::hybrid(), |_i| {
                spin_iter();
                executed.fetch_add(1, Ordering::Relaxed);
            })
        });
        completed.fetch_add(1, Ordering::Relaxed);
    }
}

/// Drive `batch_submitters` threads of batch loops through `pool` while an
/// interactive sampler of class `interactive` times install round trips.
/// Returns the latency percentiles and the exactly-once balance of the
/// batch traffic.
fn overload(
    pool: &ThreadPool,
    interactive: QosClass,
    batch_submitters: usize,
    batch_n: usize,
    samples: usize,
) -> OverloadResult {
    let stop = AtomicBool::new(false);
    let completed = AtomicU64::new(0);
    let executed = AtomicU64::new(0);
    let mut lats_us = Vec::with_capacity(samples);
    std::thread::scope(|s| {
        for _ in 0..batch_submitters {
            s.spawn(|| submit_batch_loops(pool, batch_n, &stop, &completed, &executed));
        }
        // Let the backlog build before sampling.
        std::thread::sleep(Duration::from_millis(50));
        for _ in 0..samples {
            std::thread::sleep(Duration::from_millis(2));
            let t0 = Instant::now();
            pool.install_class(interactive, || {});
            lats_us.push(t0.elapsed().as_nanos() as f64 / 1000.0);
        }
        stop.store(true, Ordering::Relaxed);
    });

    // Exactly-once balance: every iteration of every completed loop ran,
    // and nothing ran twice. Once the scope joins no loop is in flight.
    let completed = completed.load(Ordering::Relaxed);
    let expected = completed as i64 * batch_n as i64;
    lats_us.sort_by(|a, b| a.total_cmp(b));
    OverloadResult {
        p50_us: percentile(&lats_us, 0.50),
        p99_us: percentile(&lats_us, 0.99),
        batch_completed: completed,
        lost_iterations: expected - executed.load(Ordering::Relaxed) as i64,
    }
}

struct FairnessResult {
    completed_a: u64,
    completed_b: u64,
    ratio: f64,
    lost_iterations: i64,
}

/// Flood two equal groups of batch submitters through `pool` for
/// `window` and compare completed loops: nothing tells the groups apart,
/// so they must get comparable shares.
fn fairness(
    pool: &ThreadPool,
    per_group_submitters: usize,
    n: usize,
    window: Duration,
) -> FairnessResult {
    let stop = AtomicBool::new(false);
    let completed = [AtomicU64::new(0), AtomicU64::new(0)];
    let executed = AtomicU64::new(0);
    std::thread::scope(|s| {
        for group in &completed {
            for _ in 0..per_group_submitters {
                s.spawn(|| submit_batch_loops(pool, n, &stop, group, &executed));
            }
        }
        std::thread::sleep(window);
        stop.store(true, Ordering::Relaxed);
    });
    let [a, b] = completed.map(AtomicU64::into_inner);
    let expected = (a + b) as i64 * n as i64;
    FairnessResult {
        completed_a: a,
        completed_b: b,
        ratio: a as f64 / b.max(1) as f64,
        lost_iterations: expected - executed.load(Ordering::Relaxed) as i64,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let bench_json = bench_json_arg();

    let p = 4usize;
    let batch_submitters = if smoke { 12 } else { 64 };
    let batch_n = if smoke { 2_000 } else { 8_000 };
    let samples = if smoke { 40 } else { 120 };
    let fair_submitters = if smoke { 3 } else { 4 };
    let fair_n = if smoke { 1_000 } else { 4_000 };
    let fair_window = if smoke { Duration::from_millis(400) } else { Duration::from_millis(1500) };

    println!(
        "traffic bench: P={p} workers, {batch_submitters} batch submitters x {batch_n} iters, \
         {samples} latency samples{}",
        if smoke { " (smoke)" } else { "" }
    );

    // The no-QoS baseline: interactive installs tagged `Batch` share the
    // flood's sub-lane, on a pool of their own.
    let blind_res =
        overload(&ThreadPool::new(p), QosClass::Batch, batch_submitters, batch_n, samples);
    let qos = ThreadPool::new(p);
    let qos_res = overload(&qos, QosClass::Latency, batch_submitters, batch_n, samples);
    let speedup = blind_res.p99_us / qos_res.p99_us;

    let mut t = Table::new(vec![
        "pool",
        "latency p50 (us)",
        "latency p99 (us)",
        "batch loops",
        "lost iters",
    ]);
    for (name, r) in [("class_blind", &blind_res), ("qos", &qos_res)] {
        t.row(vec![
            name.into(),
            format!("{:.1}", r.p50_us),
            format!("{:.1}", r.p99_us),
            r.batch_completed.to_string(),
            r.lost_iterations.to_string(),
        ]);
    }
    t.print();
    println!("\nlatency-class p99 under batch overload: qos {speedup:.2}x lower than class-blind");

    let fair = fairness(&qos, fair_submitters, fair_n, fair_window);
    println!(
        "fairness: equal submitter groups completed {} vs {} loops (ratio {:.2}, lost {})",
        fair.completed_a, fair.completed_b, fair.ratio, fair.lost_iterations
    );

    let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let json =
        render_json(p, cpus, batch_submitters, batch_n, &blind_res, &qos_res, speedup, &fair);
    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write("results/traffic.json", &json).expect("write results JSON");
    println!("\nwrote results/traffic.json");

    let lost = blind_res.lost_iterations + qos_res.lost_iterations + fair.lost_iterations;
    if let Some(path) = &bench_json {
        merge_bench_json(
            path,
            &[
                ("qos/latency_p99_us/class_blind".into(), format!("{:.2}", blind_res.p99_us), "us"),
                ("qos/latency_p99_us/qos".into(), format!("{:.2}", qos_res.p99_us), "us"),
                ("qos/qos_p99_speedup".into(), format!("{speedup:.3}"), "ratio"),
                ("qos/fairness_ratio".into(), format!("{:.3}", fair.ratio), "ratio"),
                ("qos/lost_iterations".into(), lost.to_string(), "iterations"),
            ],
        );
        println!("merged qos/* series into {path}");
    }

    // Acceptance bars.
    let mut failed = false;
    println!("\ncheck lost iterations: {lost} (need 0: exactly-once per completed loop)");
    if lost != 0 {
        failed = true;
    }
    println!("check fairness ratio: {:.2} (need within [0.5, 2.0] for equal groups)", fair.ratio);
    if !(0.5..=2.0).contains(&fair.ratio) {
        failed = true;
    }
    if smoke {
        // Smoke sizes keep the batch backlog too shallow for a stable
        // ratio (the gate is fairness + exactly-once); the full run
        // enforces the structural bar.
        println!("check qos p99 speedup: {speedup:.2}x (not enforced in smoke mode)");
    } else {
        println!("check qos p99 speedup: {speedup:.2}x (need >= 5.0x)");
        if speedup < 5.0 {
            failed = true;
        }
    }
    if failed {
        eprintln!("FAILED: traffic acceptance bars not met");
        std::process::exit(1);
    }
    println!("ok: QoS bounds latency-class queueing; equal groups share fairly; no lost jobs");
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    p: usize,
    cpus: usize,
    batch_submitters: usize,
    batch_n: usize,
    class_blind: &OverloadResult,
    qos: &OverloadResult,
    speedup: f64,
    fair: &FairnessResult,
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!(
        "  \"workers\": {p},\n  \"host_cpus\": {cpus},\n  \"batch_submitters\": {batch_submitters},\n  \"batch_loop_iters\": {batch_n},\n"
    ));
    for (name, r) in [("class_blind", class_blind), ("qos", qos)] {
        s.push_str(&format!(
            "  \"{name}\": {{\"latency_p50_us\": {:.2}, \"latency_p99_us\": {:.2}, \"batch_loops\": {}, \"lost_iterations\": {}}},\n",
            r.p50_us, r.p99_us, r.batch_completed, r.lost_iterations
        ));
    }
    s.push_str(&format!("  \"qos_p99_speedup\": {speedup:.3},\n"));
    s.push_str(&format!(
        "  \"fairness\": {{\"completed_a\": {}, \"completed_b\": {}, \"ratio\": {:.3}, \"lost_iterations\": {}}}\n",
        fair.completed_a, fair.completed_b, fair.ratio, fair.lost_iterations
    ));
    s.push_str("}\n");
    s
}
