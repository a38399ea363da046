//! Multi-tenant traffic benchmark: QoS lanes + admission under a batch
//! overload, exercised through `parloop-tenant` handles.
//!
//! Scenario: a fleet of batch submitter threads keeps the pool saturated
//! with batch-class loops (several queued behind the running ones at all
//! times) while one interactive tenant periodically installs a tiny op
//! and measures the round trip — the queueing delay the QoS sub-lanes are
//! supposed to bound. Two runs drive the same traffic, each through a
//! fresh default pool:
//!
//! * **class_blind** — the interactive tenant is tagged `Batch`, so its
//!   installs queue in the flood's sub-lane and wait behind the whole
//!   batch backlog (the no-QoS baseline);
//! * **qos** — the interactive tenant is tagged `Latency`:
//!   deficit-round-robin drains its work first, so an install waits only
//!   for a worker to finish its current job.
//!
//! A separate fairness phase floods two *equal-weight* batch tenants
//! through the QoS pool and compares completed loops.
//!
//! Measurements land in `results/traffic.json`; with `--bench-json PATH`
//! the `tenant/*` series is merged into the flat cross-commit tracking
//! file.
//!
//! Acceptance (process exits 1 otherwise):
//! * zero lost iterations — every admitted loop ran exactly once, in
//!   both phases (enforced in smoke and full modes);
//! * fairness ratio between the equal-weight tenants in [0.5, 2.0]
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
use std::sync::Arc;
use std::time::{Duration, Instant};

use parloop_bench::{bench_json_arg, merge_bench_json, Table};
use parloop_core::Schedule;
use parloop_runtime::{QosClass, ThreadPool};
use parloop_tenant::Tenant;

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
    batch_rejected: u64,
    lost_iterations: i64,
}

/// Drive `batch_submitters` threads of batch loops through `pool` while an
/// interactive tenant of class `interactive` samples install round trips.
/// Returns the latency percentiles and the exactly-once balance of the
/// batch traffic.
fn overload(
    pool: &Arc<ThreadPool>,
    label: &str,
    interactive: QosClass,
    batch_submitters: usize,
    batch_n: usize,
    samples: usize,
) -> OverloadResult {
    let latency = Tenant::builder(format!("interactive-{label}"))
        .class(interactive)
        .weight(4)
        .build_on(Arc::clone(pool));
    // One slot per submitter: the flood keeps the pool saturated but is
    // never rejected in steady state, so the backlog depth is stable.
    let batch = Tenant::builder(format!("bulk-{label}"))
        .class(QosClass::Batch)
        .max_in_flight(batch_submitters)
        .build_on(Arc::clone(pool));

    let stop = AtomicBool::new(false);
    let executed = AtomicU64::new(0);
    let mut lats_us = Vec::with_capacity(samples);
    std::thread::scope(|s| {
        for _ in 0..batch_submitters {
            s.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    let r = batch.par_for(0..batch_n, Schedule::hybrid(), |_i| {
                        spin_iter();
                        executed.fetch_add(1, Ordering::Relaxed);
                    });
                    if r.is_err() {
                        std::thread::yield_now();
                    }
                }
            });
        }
        // Let the backlog build before sampling.
        std::thread::sleep(Duration::from_millis(50));
        for _ in 0..samples {
            std::thread::sleep(Duration::from_millis(2));
            let t0 = Instant::now();
            latency.install(|| {}).expect("interactive tenant never exceeds its window");
            lats_us.push(t0.elapsed().as_nanos() as f64 / 1000.0);
        }
        stop.store(true, Ordering::Relaxed);
    });

    let stats = batch.stats();
    // Exactly-once balance: every iteration of every completed loop ran,
    // and nothing ran twice. In-flight is zero once the scope joins, so
    // installed loops are completed loops.
    let expected = stats.installed as i64 * batch_n as i64;
    lats_us.sort_by(|a, b| a.total_cmp(b));
    OverloadResult {
        p50_us: percentile(&lats_us, 0.50),
        p99_us: percentile(&lats_us, 0.99),
        batch_completed: stats.installed,
        batch_rejected: stats.rejected,
        lost_iterations: expected - executed.load(Ordering::Relaxed) as i64,
    }
}

struct FairnessResult {
    completed_a: u64,
    completed_b: u64,
    ratio: f64,
    lost_iterations: i64,
}

/// Flood two equal-weight batch tenants through `pool` for `window` and
/// compare completed loops: the admission window is the only throttle, so
/// equal weights must yield comparable shares.
fn fairness(
    pool: &Arc<ThreadPool>,
    per_tenant_submitters: usize,
    n: usize,
    window: Duration,
) -> FairnessResult {
    let mk = |name: &str| {
        Tenant::builder(name).class(QosClass::Batch).weight(1).build_on(Arc::clone(pool))
    };
    let tenants = [mk("fair-a"), mk("fair-b")];
    let stop = AtomicBool::new(false);
    let executed = AtomicU64::new(0);
    std::thread::scope(|s| {
        for tenant in &tenants {
            for _ in 0..per_tenant_submitters {
                s.spawn(|| {
                    while !stop.load(Ordering::Relaxed) {
                        let r = tenant.par_for(0..n, Schedule::hybrid(), |_i| {
                            spin_iter();
                            executed.fetch_add(1, Ordering::Relaxed);
                        });
                        if r.is_err() {
                            std::thread::yield_now();
                        }
                    }
                });
            }
        }
        std::thread::sleep(window);
        stop.store(true, Ordering::Relaxed);
    });
    let (a, b) = (tenants[0].stats(), tenants[1].stats());
    let expected = (a.installed + b.installed) as i64 * n as i64;
    FairnessResult {
        completed_a: a.installed,
        completed_b: b.installed,
        ratio: a.installed as f64 / b.installed.max(1) as f64,
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
    let blind_res = overload(
        &Arc::new(ThreadPool::new(p)),
        "class-blind",
        QosClass::Batch,
        batch_submitters,
        batch_n,
        samples,
    );
    let qos = Arc::new(ThreadPool::new(p));
    let qos_res = overload(&qos, "qos", QosClass::Latency, batch_submitters, batch_n, samples);
    let speedup = blind_res.p99_us / qos_res.p99_us;

    let mut t = Table::new(vec![
        "pool",
        "latency p50 (us)",
        "latency p99 (us)",
        "batch loops",
        "batch rejected",
        "lost iters",
    ]);
    for (name, r) in [("class_blind", &blind_res), ("qos", &qos_res)] {
        t.row(vec![
            name.into(),
            format!("{:.1}", r.p50_us),
            format!("{:.1}", r.p99_us),
            r.batch_completed.to_string(),
            r.batch_rejected.to_string(),
            r.lost_iterations.to_string(),
        ]);
    }
    t.print();
    println!("\nlatency-class p99 under batch overload: qos {speedup:.2}x lower than class-blind");

    let fair = fairness(&qos, fair_submitters, fair_n, fair_window);
    println!(
        "fairness: equal-weight tenants completed {} vs {} loops (ratio {:.2}, lost {})",
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
                (
                    "tenant/latency_p99_us/class_blind".into(),
                    format!("{:.2}", blind_res.p99_us),
                    "us",
                ),
                ("tenant/latency_p99_us/qos".into(), format!("{:.2}", qos_res.p99_us), "us"),
                ("tenant/qos_p99_speedup".into(), format!("{speedup:.3}"), "ratio"),
                ("tenant/fairness_ratio".into(), format!("{:.3}", fair.ratio), "ratio"),
                ("tenant/lost_iterations".into(), lost.to_string(), "iterations"),
            ],
        );
        println!("merged tenant/* series into {path}");
    }

    // Acceptance bars.
    let mut failed = false;
    println!("\ncheck lost iterations: {lost} (need 0: exactly-once per admitted loop)");
    if lost != 0 {
        failed = true;
    }
    println!("check fairness ratio: {:.2} (need within [0.5, 2.0] for equal weights)", fair.ratio);
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
    println!("ok: QoS bounds latency-class queueing; equal weights share fairly; no lost jobs");
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
            "  \"{name}\": {{\"latency_p50_us\": {:.2}, \"latency_p99_us\": {:.2}, \"batch_loops\": {}, \"batch_rejected\": {}, \"lost_iterations\": {}}},\n",
            r.p50_us, r.p99_us, r.batch_completed, r.batch_rejected, r.lost_iterations
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
