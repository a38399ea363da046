//! `loopbench`: the repository's benchmark of the hybrid loop scheduler
//! on real threads.
//!
//! ```text
//! cargo run --release --offline --manifest-path loopbench/Cargo.toml -- \
//!     --workload <nas|micro_unbalanced|tiny_loops|nested> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One closed-loop client, the main thread, issues one op at a time to a
//! pool of `nproc` workers and blocks on it before issuing the next. Set-up
//! (pool build, input generation, warm-up) runs several times; the last
//! one is kept. Then ops run for `--seconds`, and each op's output is
//! checked against its reference.
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` prints the
//! per-layer metrics: it times the runtime's public primitives in
//! isolation, then runs ops in alternating blocks with and without the
//! benchmark's own chunk hooks, and reads the pool's public counters.
//! Comment lines start with `#`; the last line is one JSON object.

mod primitives;
mod report;
mod tap;
mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use parloop_core::same_worker_fraction;
use parloop_runtime::{PoolStats, ThreadPool};

use report::{
    mean, median, percentile, ratio, result_line, us, Metrics, Reservoir, END_TO_END, PER_LAYER,
};
use tap::{Off, Tap, Timeline};
use workloads::{MicroUnbalanced, Nas, Nested, TinyLoops, Workload};

const USAGE: &str = "usage: loopbench --workload <nas|micro_unbalanced|tiny_loops|nested> \
                     --seed <n> --seconds <s> --trace <0|1> [--perturb-reference]";

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Traced runs switch between hooked and plain ops this often.
const TRACE_BLOCK: Duration = Duration::from_millis(100);
/// Latency samples kept per run: a uniform sample when ops outnumber it,
/// so that the benchmark's own memory does not grow with the op rate.
const LATENCY_SAMPLES: usize = 1 << 16;
/// Ops per window: `ops_per_s` and `op_us_p99` are medians over windows,
/// so that a burst of host noise in one window does not set the run's
/// figure. Each window's p99 has 20 samples beyond it.
const WINDOW: usize = 2000;
/// An op making no progress this long ends the run with an error.
const HANG_LIMIT: Duration = Duration::from_secs(60);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Shift every reference, so that every op fails verification.
    perturb: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: 0, seconds: 0.0, trace: false, perturb: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--perturb-reference" {
            args.perturb = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value for --trace: {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("loopbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let line = match args.workload.as_str() {
        "nas" => run::<Nas>(&args),
        "micro_unbalanced" => run::<MicroUnbalanced>(&args),
        "tiny_loops" => run::<TinyLoops>(&args),
        "nested" => run::<Nested>(&args),
        other => {
            eprintln!("loopbench: unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("{line}");
    ExitCode::SUCCESS
}

fn run<W: Workload>(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (pool, mut w, setup_s) = set_up::<W>(nproc, args);
    println!(
        "# loopbench workload={} mode={} seed={} seconds={} nproc={nproc} pool={} rev={}",
        args.workload,
        if args.trace { "traced" } else { "untraced" },
        args.seed,
        args.seconds,
        pool.num_workers(),
        report::git_revision(),
    );
    let budget = Duration::from_secs_f64(args.seconds);
    let progress = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| watchdog(&progress, &done));
        let line = if args.trace {
            traced(&pool, &mut w, budget, &progress)
        } else {
            untraced(&pool, &mut w, budget, &progress, &setup_s)
        };
        done.store(true, Ordering::Relaxed);
        line
    })
}

/// Build the pool and the inputs and warm up, `SETUP_REPS` times; keep
/// the last. Returns each set-up's seconds.
fn set_up<W: Workload>(workers: usize, args: &Args) -> (ThreadPool, W, Vec<f64>) {
    let mut seconds = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for _ in 0..SETUP_REPS {
        drop(built.take());
        let t0 = Instant::now();
        let pool = ThreadPool::new(workers);
        let mut w = W::new(args.seed, args.perturb);
        for k in 0..W::WARMUP_OPS {
            let out = w.op(&pool, k, &Off);
            w.verify(k, out);
        }
        seconds.push(t0.elapsed().as_secs_f64());
        built = Some((pool, w));
    }
    let (pool, w) = built.expect("SETUP_REPS > 0");
    (pool, w, seconds)
}

/// Exit with an error if no op completes for `HANG_LIMIT`.
fn watchdog(progress: &AtomicU64, done: &AtomicBool) {
    let (mut seen, mut since) = (progress.load(Ordering::Relaxed), Instant::now());
    while !done.load(Ordering::Relaxed) {
        std::thread::sleep(Duration::from_millis(50));
        let now = progress.load(Ordering::Relaxed);
        if now != seen {
            (seen, since) = (now, Instant::now());
        } else if since.elapsed() > HANG_LIMIT {
            eprintln!("loopbench: no op completed for {HANG_LIMIT:?} after op {seen}; giving up");
            std::process::exit(3);
        }
    }
}

/// One op's outcome.
struct Attempt {
    start: Instant,
    took: Duration,
    /// Verified, without panic, within the workload's timeout.
    ok: bool,
}

fn attempt<W: Workload, T: Tap>(pool: &ThreadPool, w: &mut W, k: usize, tap: &T) -> Attempt {
    let start = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(|| w.op(pool, k, tap)));
    let took = start.elapsed();
    let verified = out.is_ok_and(|out| w.verify(k, out));
    Attempt { start, took, ok: verified && took <= W::TIMEOUT }
}

/// Ops attempted and failed, and time spent inside ops.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    busy: Duration,
}

impl Tally {
    fn add(&mut self, a: &Attempt) {
        self.attempted += 1;
        self.failed += u64::from(!a.ok);
        self.busy += a.took;
    }

    /// Verified ops per second spent inside ops.
    fn ops_per_s(&self) -> f64 {
        ratio((self.attempted - self.failed) as f64, self.busy.as_secs_f64())
    }
}

/// Rate and tail of consecutive windows of `WINDOW` attempted ops.
#[derive(Default)]
struct Windows {
    current: Tally,
    lat_us: Vec<f64>,
    rate: Vec<f64>,
    p99: Vec<f64>,
}

impl Windows {
    fn add(&mut self, a: &Attempt) {
        self.current.add(a);
        if a.ok {
            self.lat_us.push(us(a.took));
        }
        if self.current.attempted == WINDOW as u64 {
            self.lat_us.sort_by(f64::total_cmp);
            self.rate.push(self.current.ops_per_s());
            self.p99.push(percentile(&self.lat_us, 0.99));
            self.current = Tally::default();
            self.lat_us.clear();
        }
    }
}

fn untraced<W: Workload>(
    pool: &ThreadPool,
    w: &mut W,
    budget: Duration,
    progress: &AtomicU64,
    setup_s: &[f64],
) -> String {
    let mut tally = Tally::default();
    let mut lat_us = Reservoir::new(LATENCY_SAMPLES);
    let mut windows = Windows::default();
    let end = Instant::now() + budget;
    let mut k = W::WARMUP_OPS;
    while Instant::now() < end {
        let a = attempt(pool, w, k, &Off);
        tally.add(&a);
        windows.add(&a);
        if a.ok {
            lat_us.push(us(a.took));
        }
        k += 1;
        progress.fetch_add(1, Ordering::Relaxed);
    }
    let lat_us = lat_us.into_sorted();
    let mut m = Metrics::new(END_TO_END);
    m.set("setup_s", median(setup_s));
    // A run too short for one full window (nas) takes both over all its ops.
    let full = !windows.p99.is_empty();
    m.set("ops_per_s", if full { median(&windows.rate) } else { tally.ops_per_s() });
    m.set("op_us_p50", percentile(&lat_us, 0.5));
    m.set("op_us_p99", if full { median(&windows.p99) } else { percentile(&lat_us, 0.99) });
    m.set("rss_mb", report::peak_rss_mb());
    let n = lat_us.len();
    let windowed = match windows.p99.len() {
        0 => "are taken over all ops (fewer than one window)".to_string(),
        w => format!("are medians over {w} windows of {WINDOW} ops"),
    };
    println!(
        "# samples: setup_s over {} set-ups; op_us_p50 over {n} of {} verified ops ({} beyond \
         it); ops_per_s and op_us_p99 {windowed}",
        setup_s.len(),
        tally.attempted - tally.failed,
        n - n.div_ceil(2),
    );
    println!(
        "# failed_frac={} ({} of {} ops failed verification, panicked or timed out)",
        ratio(tally.failed as f64, tally.attempted as f64),
        tally.failed,
        tally.attempted
    );
    w.report(None);
    finish(tally, &m)
}

/// A snapshot of the pool's public counters.
struct Counters {
    stats: PoolStats,
    notified_wakes: u64,
    backstop_wakes: u64,
}

impl Counters {
    fn read(pool: &ThreadPool) -> Self {
        let workers = pool.worker_stats();
        Counters {
            stats: pool.stats(),
            notified_wakes: workers.iter().map(|s| s.notified_wakes).sum(),
            backstop_wakes: workers.iter().map(|s| s.backstop_wakes).sum(),
        }
    }
}

fn traced<W: Workload>(
    pool: &ThreadPool,
    w: &mut W,
    budget: Duration,
    progress: &AtomicU64,
) -> String {
    let mut m = Metrics::new(PER_LAYER);
    primitives::measure(&mut m);

    let tl = Timeline::new(pool.num_workers(), w.owner_space());
    let (mut plain, mut hooked) = (Tally::default(), Tally::default());
    let mut lat_us = Reservoir::new(LATENCY_SAMPLES);
    let mut first_us = Reservoir::new(LATENCY_SAMPLES);
    let mut return_us = Reservoir::new(LATENCY_SAMPLES);
    let mut join_us = Reservoir::new(LATENCY_SAMPLES);
    // Sums over verified hooked ops.
    let (mut timed_ops, mut joins, mut wall_ns) = (0u64, 0u64, 0u64);
    let (mut workers, mut chunks, mut leaf_ns) = (0, 0, 0);
    let (mut affinity, mut prev_owners) = (Vec::new(), None::<Vec<u32>>);

    let before = Counters::read(pool);
    let start = Instant::now();
    let mut k = W::WARMUP_OPS;
    while start.elapsed() < budget {
        let hook = (start.elapsed().as_nanos() / TRACE_BLOCK.as_nanos()) % 2 == 1;
        let a = if hook {
            tl.reset();
            attempt(pool, w, k, &tl)
        } else {
            attempt(pool, w, k, &Off)
        };
        if a.ok {
            lat_us.push(us(a.took));
        }
        if hook {
            hooked.add(&a);
        } else {
            plain.add(&a);
        }
        if hook && a.ok {
            let call = a.start.saturating_duration_since(tl.base()).as_nanos() as u64;
            let took = a.took.as_nanos() as u64;
            let op = tl.summary(call, call + took);
            for (sample, into) in [
                (op.first_chunk_ns, &mut first_us),
                (op.return_ns, &mut return_us),
                (op.join_ns, &mut join_us),
            ] {
                if let Some(ns) = sample {
                    into.push(ns as f64 / 1e3);
                }
            }
            timed_ops += 1;
            joins += u64::from(op.join_ns.is_some());
            wall_ns += took;
            workers += op.workers;
            chunks += op.chunks;
            leaf_ns += op.leaf_ns;
            if let Some(owners) = tl.owners() {
                if let Some(prev) = &prev_owners {
                    affinity.push(same_worker_fraction(prev, &owners));
                }
                prev_owners = Some(owners);
            }
        } else {
            prev_owners = None;
        }
        k += 1;
        progress.fetch_add(1, Ordering::Relaxed);
    }
    let after = Counters::read(pool);

    let ops = (plain.attempted + hooked.attempted) as f64;
    let per_op = |a: u64, b: u64| ratio(a.saturating_sub(b) as f64, ops);
    let (s0, s1) = (&before.stats, &after.stats);
    m.set("inject.jobs_per_op", per_op(s1.injected, s0.injected));
    m.set("sleep.notified_wakes_per_op", per_op(after.notified_wakes, before.notified_wakes));
    m.set("sleep.backstop_wakes_per_op", per_op(after.backstop_wakes, before.backstop_wakes));
    m.set("deque.pushes_per_op", per_op(s1.jobs_pushed, s0.jobs_pushed));
    m.set("deque.steals_per_op", per_op(s1.steals, s0.steals));
    m.set("registry.failed_sweeps_per_op", per_op(s1.failed_steal_sweeps, s0.failed_steal_sweeps));
    let steals = (s1.steals - s0.steals) as f64;
    let failed_sweeps = (s1.failed_steal_sweeps - s0.failed_steal_sweeps) as f64;
    m.set("registry.steal_yield", ratio(steals, steals + failed_sweeps));
    m.set("lazy.assists_per_op", per_op(s1.assist_joins, s0.assist_joins));
    m.set("trace.overhead_frac", 1.0 - ratio(hooked.ops_per_s(), plain.ops_per_s()));

    // The chunk timeline exists only where the benchmark owns the loop
    // bodies; NAS kernels run theirs inside the library.
    if chunks > 0 {
        let (ops, p) = (timed_ops as f64, pool.num_workers() as f64);
        m.set("inject.first_chunk_us", first_us.median());
        m.set("latch.return_us", return_us.median());
        if joins > 0 {
            m.set("sleep.join_us", join_us.median());
        }
        m.set("hybrid.workers_per_loop", workers as f64 / ops);
        m.set("schedule.chunks_per_op", chunks as f64 / ops);
        m.set("leaf.busy_frac", leaf_ns as f64 / (wall_ns as f64 * p));
        m.set("overhead.us_per_op", (wall_ns as f64 - leaf_ns as f64 / p) / ops / 1e3);
    }
    if !affinity.is_empty() {
        m.set("hybrid.affinity", mean(&affinity));
    }
    if let Some(bytes) = w.bytes_per_op() {
        m.set("micro.gbps_computed", ratio(bytes, lat_us.median() * 1e3));
    }
    w.report(Some(&mut m));

    println!(
        "# samples: counters over {ops} ops; chunk timeline over {timed_ops} hooked ops; \
         sleep.join_us over the {joins} of them a second worker joined; hybrid.affinity over {} \
         consecutive pairs",
        affinity.len()
    );
    println!(
        "# latch.return_us={:.3} beside the OS wake floor latch.lock_wake_us={:.3}",
        m.get("latch.return_us").unwrap_or(0.0),
        m.get("latch.lock_wake_us").unwrap_or(0.0)
    );
    println!(
        "# trace.overhead_frac: {:.1} hooked vs {:.1} plain verified ops/s",
        hooked.ops_per_s(),
        plain.ops_per_s()
    );
    let mut tally = plain;
    tally.attempted += hooked.attempted;
    tally.failed += hooked.failed;
    finish(tally, &m)
}

/// Name what this workload could not measure, and build the result line.
fn finish(tally: Tally, m: &Metrics) -> String {
    let unmeasured = m.unmeasured();
    if !unmeasured.is_empty() {
        println!("# not measured on this workload, reported as 0: {}", unmeasured.join(" "));
    }
    result_line(tally.attempted, tally.failed, m)
}
