//! Self-healing resilience benchmark: throughput dip-and-recovery under
//! seeded worker kills, plus a deterministic kill sweep.
//!
//! Two phases:
//!
//! * **Kill sweep** — for each seed (`CHAOS_SEEDS`, default 64) a pool
//!   runs loops under a one-shot `Kill` at the `WorkerExit` site. Every
//!   loop must stay exactly-once, the dead slot must respawn (epoch
//!   recorded in `PoolHealth`), the pool must end with zero degraded or
//!   quarantined workers, and the OS thread census (`/proc/self/task`)
//!   must settle back to exactly `P` workers.
//! * **Dip and recovery** — one pool runs a fixed loop workload through
//!   three equal windows: a clean baseline, a kill storm (`2P` worker
//!   kills spread across the window), and a post-recovery window after
//!   the pool reports healed. Throughput is iterations per second per
//!   window.
//!
//! Measurements land in `results/resilience.json`; with `--bench-json
//! PATH` the `resilience/*` series is merged into the flat cross-commit
//! tracking file.
//!
//! Acceptance (process exits 1 otherwise):
//! * the kill sweep holds exactly-once, full recovery, and the thread
//!   census, for every seed (enforced in smoke and full modes);
//! * zero lost iterations in the throughput phase (both modes);
//! * post-kill throughput ≥ 80% of the pre-kill baseline (full mode
//!   only; `--smoke` reports the ratio without enforcing it — smoke
//!   windows are too short for stable throughput on shared CI boxes).
//!
//! Usage: `cargo run --release -p parloop-bench --bin resilience_bench
//! [--smoke] [--bench-json PATH]`

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parloop_bench::{bench_json_arg, merge_bench_json, Table};
use parloop_chaos::{FaultAction, FaultInjector, PlannedInjector, Site};
use parloop_core::{par_for, Schedule};
use parloop_runtime::{ThreadPool, ThreadPoolBuilder};

fn seed_count() -> u64 {
    std::env::var("CHAOS_SEEDS").ok().and_then(|s| s.parse().ok()).unwrap_or(64)
}

/// ~100ns of register-only spin per iteration.
#[inline]
fn spin_iter() {
    for k in 0..32u64 {
        std::hint::black_box(k.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    }
}

/// Live threads of this process named with `prefix` (`/proc/self/task`).
fn threads_named(prefix: &str) -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("linux procfs")
        .filter(|entry| {
            let comm = entry.as_ref().unwrap().path().join("comm");
            std::fs::read_to_string(comm).is_ok_and(|name| name.starts_with(prefix))
        })
        .count()
}

struct SweepResult {
    seeds: u64,
    respawns: u64,
    orphans_rescued: u64,
    failures: u64,
}

/// Deterministic kill sweep: one-shot worker death per seed, full
/// recovery demanded every time.
fn kill_sweep(p: usize, n: usize, rounds: usize) -> SweepResult {
    let seeds = seed_count();
    let mut respawns = 0u64;
    let mut orphans = 0u64;
    let mut failures = 0u64;
    for seed in 0..seeds {
        let injector = Arc::new(PlannedInjector::quiet(seed).with_kill_at(seed % 8));
        let prefix = format!("rsb{seed}");
        let pool = ThreadPoolBuilder::new()
            .num_workers(p)
            .thread_name_prefix(&prefix)
            .fault_injector(Arc::clone(&injector) as _)
            .build();
        let mut lost = false;
        for _ in 0..rounds {
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            par_for(&pool, 0..n, Schedule::hybrid(), |i| {
                spin_iter();
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            lost |= hits.iter().any(|h| h.load(Ordering::Relaxed) != 1);
        }
        // Recovery: the one-shot kill fires between jobs; idle run-loop
        // passes keep visiting the site, so this converges promptly.
        let deadline = Instant::now() + Duration::from_secs(10);
        let recovered = loop {
            let h = pool.health();
            if h.total_respawns() >= 1 && !h.is_quarantined() {
                break true;
            }
            if Instant::now() >= deadline {
                break false;
            }
            std::thread::yield_now();
        };
        let health = pool.health();
        let census_ok = threads_named(&prefix) == p;
        if lost || !recovered || health.is_degraded() || !census_ok {
            eprintln!(
                "seed {seed}: lost={lost} recovered={recovered} degraded={} census_ok={census_ok}",
                health.is_degraded()
            );
            failures += 1;
        }
        respawns += health.total_respawns();
        orphans += pool.worker_stats().iter().map(|w| w.orphans_rescued).sum::<u64>();
        drop(pool);
    }
    SweepResult { seeds, respawns, orphans_rescued: orphans, failures }
}

/// Kills the worker visiting `WorkerExit` while armed, up to the budget.
/// Arming is the bench's clock: the kill storm is confined to window B.
struct KillSwitch {
    kills_left: AtomicU64,
}

impl FaultInjector for KillSwitch {
    fn enabled(&self) -> bool {
        true
    }
    fn decide(&self, _worker: usize, site: Site) -> FaultAction {
        if site == Site::WorkerExit
            && self
                .kills_left
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |k| k.checked_sub(1))
                .is_ok()
        {
            return FaultAction::Kill;
        }
        FaultAction::None
    }
}

struct ThroughputResult {
    baseline_ips: f64,
    dip_ips: f64,
    recovered_ips: f64,
    recovery_ratio: f64,
    storm_respawns: u64,
    lost_iterations: i64,
}

/// Run `window`-long measurement windows of fixed loops on `pool`,
/// returning iterations/second.
fn measure_window(
    pool: &Arc<ThreadPool>,
    n: usize,
    window: Duration,
    executed: &AtomicU64,
    expected: &AtomicU64,
) -> f64 {
    let t0 = Instant::now();
    let mut iters = 0u64;
    while t0.elapsed() < window {
        par_for(pool, 0..n, Schedule::hybrid(), |_| {
            spin_iter();
            executed.fetch_add(1, Ordering::Relaxed);
        });
        expected.fetch_add(n as u64, Ordering::Relaxed);
        iters += n as u64;
    }
    iters as f64 / t0.elapsed().as_secs_f64()
}

/// Dip-and-recovery: baseline window, kill-storm window, healed window.
fn dip_and_recovery(p: usize, n: usize, window: Duration) -> ThroughputResult {
    let killer = Arc::new(KillSwitch { kills_left: AtomicU64::new(0) });
    let pool = Arc::new(
        ThreadPoolBuilder::new()
            .num_workers(p)
            .thread_name_prefix("rsb-storm")
            .fault_injector(Arc::clone(&killer) as _)
            .build(),
    );
    let executed = AtomicU64::new(0);
    let expected = AtomicU64::new(0);

    // Window A: clean baseline (killer disarmed).
    let baseline_ips = measure_window(&pool, n, window, &executed, &expected);
    let respawns_before = pool.health().total_respawns();

    // Window B: arm 2P kills — every slot dies (statistically) twice.
    killer.kills_left.store(2 * p as u64, Ordering::Relaxed);
    let dip_ips = measure_window(&pool, n, window, &executed, &expected);
    killer.kills_left.store(0, Ordering::Relaxed);

    // Quiesce: all respawns landed, nobody quarantined or degraded.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let h = pool.health();
        if !h.is_quarantined() && !h.is_degraded() {
            break;
        }
        assert!(Instant::now() < deadline, "pool never healed after kill storm: {h:?}");
        std::thread::yield_now();
    }
    let storm_respawns = pool.health().total_respawns() - respawns_before;

    // Window C: post-recovery throughput.
    let recovered_ips = measure_window(&pool, n, window, &executed, &expected);

    let lost = expected.load(Ordering::Relaxed) as i64 - executed.load(Ordering::Relaxed) as i64;
    ThroughputResult {
        baseline_ips,
        dip_ips,
        recovered_ips,
        recovery_ratio: recovered_ips / baseline_ips,
        storm_respawns,
        lost_iterations: lost,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let bench_json = bench_json_arg();

    let p = 4usize;
    let sweep_n = if smoke { 2_000 } else { 8_000 };
    let sweep_rounds = if smoke { 2 } else { 4 };
    let tp_n = if smoke { 4_000 } else { 16_000 };
    let window = if smoke { Duration::from_millis(250) } else { Duration::from_millis(1500) };

    println!(
        "resilience bench: P={p} workers, {} kill-sweep seeds, {:?} throughput windows{}",
        seed_count(),
        window,
        if smoke { " (smoke)" } else { "" }
    );

    let sweep = kill_sweep(p, sweep_n, sweep_rounds);
    println!(
        "kill sweep: {} seeds, {} respawns, {} orphans rescued, {} failures",
        sweep.seeds, sweep.respawns, sweep.orphans_rescued, sweep.failures
    );

    let tp = dip_and_recovery(p, tp_n, window);
    let mut t = Table::new(vec!["window", "throughput (Miters/s)"]);
    for (name, ips) in
        [("baseline", tp.baseline_ips), ("kill storm", tp.dip_ips), ("recovered", tp.recovered_ips)]
    {
        t.row(vec![name.into(), format!("{:.2}", ips / 1e6)]);
    }
    t.print();
    println!(
        "recovery ratio: {:.3} ({} respawns during the storm, {} lost iterations)",
        tp.recovery_ratio, tp.storm_respawns, tp.lost_iterations
    );

    let cpus = std::thread::available_parallelism().map(|v| v.get()).unwrap_or(1);
    let json = render_json(p, cpus, &sweep, &tp);
    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write("results/resilience.json", &json).expect("write results JSON");
    println!("\nwrote results/resilience.json");

    if let Some(path) = &bench_json {
        merge_bench_json(path, &bench_entries(&sweep, &tp));
        println!("merged resilience/* series into {path}");
    }

    // Acceptance bars.
    let mut failed = false;
    println!("\ncheck kill-sweep failures: {} (need 0)", sweep.failures);
    if sweep.failures != 0 {
        failed = true;
    }
    println!("check lost iterations: {} (need 0: exactly-once under kills)", tp.lost_iterations);
    if tp.lost_iterations != 0 {
        failed = true;
    }
    if smoke {
        println!("check recovery ratio: {:.3} (not enforced in smoke mode)", tp.recovery_ratio);
    } else {
        println!("check recovery ratio: {:.3} (need >= 0.80)", tp.recovery_ratio);
        if tp.recovery_ratio < 0.80 {
            failed = true;
        }
    }
    if failed {
        eprintln!("FAILED: resilience acceptance bars not met");
        std::process::exit(1);
    }
    println!("ok: exactly-once under worker death; pool heals; throughput recovers");
}

fn render_json(p: usize, cpus: usize, sweep: &SweepResult, tp: &ThroughputResult) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"workers\": {p},\n  \"host_cpus\": {cpus},\n"));
    s.push_str(&format!(
        "  \"kill_sweep\": {{\"seeds\": {}, \"respawns\": {}, \"orphans_rescued\": {}, \"failures\": {}}},\n",
        sweep.seeds, sweep.respawns, sweep.orphans_rescued, sweep.failures
    ));
    s.push_str(&format!(
        "  \"throughput\": {{\"baseline_ips\": {:.0}, \"dip_ips\": {:.0}, \"recovered_ips\": {:.0}, \"recovery_ratio\": {:.4}, \"storm_respawns\": {}, \"lost_iterations\": {}}}\n",
        tp.baseline_ips, tp.dip_ips, tp.recovered_ips, tp.recovery_ratio, tp.storm_respawns,
        tp.lost_iterations
    ));
    s.push_str("}\n");
    s
}

/// The `resilience/*` series for the flat cross-commit file.
fn bench_entries(
    sweep: &SweepResult,
    tp: &ThroughputResult,
) -> Vec<(String, String, &'static str)> {
    vec![
        (
            "resilience/baseline_throughput_mips".to_string(),
            format!("{:.3}", tp.baseline_ips / 1e6),
            "Miters/s",
        ),
        (
            "resilience/recovered_throughput_mips".to_string(),
            format!("{:.3}", tp.recovered_ips / 1e6),
            "Miters/s",
        ),
        ("resilience/recovery_ratio".to_string(), format!("{:.4}", tp.recovery_ratio), "ratio"),
        ("resilience/sweep_respawns".to_string(), sweep.respawns.to_string(), "respawns"),
        ("resilience/orphans_rescued".to_string(), sweep.orphans_rescued.to_string(), "jobs"),
        ("resilience/lost_iterations".to_string(), tp.lost_iterations.to_string(), "iterations"),
    ]
}
