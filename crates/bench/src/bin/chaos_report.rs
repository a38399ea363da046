//! Robustness report for the hybrid scheduler under deterministic fault
//! injection.
//!
//! Sweeps seeded [`PlannedInjector`] plans over real hybrid loops and
//! verifies, per seed, the properties the chaos layer exists to
//! protect:
//!
//! * **Theorem 3** — every iteration executes exactly once despite forced
//!   steal failures, claim losses and delays;
//! * **Lemma 4** — traced failed-claim runs (injected losses included)
//!   never exceed `max(lg R, 1)`;
//! * **liveness** — every faulted loop terminates (the rescue sweep
//!   restores coverage the injector destroyed).
//!
//! Prints per-site injection totals and writes a machine-readable summary
//! to `results/chaos_report.json`. `--quick` shrinks the seed sweep.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parloop_bench::{quick_flag, Table};
use parloop_chaos::{PlannedInjector, Site};
use parloop_core::{Loop, Schedule};
use parloop_runtime::ThreadPoolBuilder;
use parloop_trace::metrics::max_claim_failure_run;
use parloop_trace::RingTraceSink;

fn main() {
    let p = 4usize;
    let n = 1usize << 10;
    let seeds: u64 = if quick_flag() { 8 } else { 32 };

    parloop_trace::init_clock();
    println!("chaos_report: P={p}, n={n}, {seeds} seeded fault plans\n");

    let mut site_totals = vec![0u64; Site::ALL.len()];
    let mut queries_total = 0u64;
    let mut worst_run = 0u32;
    let mut bound = 1u32;
    let mut partitions = 0usize;

    for seed in 0..seeds {
        let injector = Arc::new(PlannedInjector::from_seed(seed));
        let sink = Arc::new(RingTraceSink::with_capacity(p, 1 << 14));
        let pool = ThreadPoolBuilder::new()
            .num_workers(p)
            .trace_sink(Arc::<RingTraceSink>::clone(&sink))
            .fault_injector(Arc::<PlannedInjector>::clone(&injector))
            .build();

        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let stats = Loop::new(Schedule::hybrid().with_grain(16))
            .run(&pool, 0..n, |chunk| {
                for i in chunk {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }
            })
            .unwrap_or_else(|e| panic!("seed {seed}: faulted loop failed: {e:?}"));

        let once = hits.iter().all(|h| h.load(Ordering::Relaxed) == 1);
        assert!(once, "seed {seed}: exactly-once violated under injection");
        assert_eq!(stats.skipped_partitions, 0, "seed {seed}: healthy run skipped partitions");

        partitions = stats.partitions;
        bound = (stats.partitions.trailing_zeros()).max(1);
        let run = max_claim_failure_run(&sink.drain());
        assert!(run <= bound, "seed {seed}: Lemma 4 violated ({run} > {bound})");
        worst_run = worst_run.max(run);

        for (site, count) in injector.injection_counts() {
            site_totals[site.index()] += count;
        }
        queries_total += injector.queries_total();
    }

    let mut t = Table::new(vec!["site", "faults injected"]);
    for site in Site::ALL {
        t.row(vec![site.name().to_string(), site_totals[site.index()].to_string()]);
    }
    t.print();

    let injected_total: u64 = site_totals.iter().sum();
    println!("\ninjector queries      {queries_total}");
    println!("faults injected       {injected_total}");
    println!("exactly-once          OK across {seeds} seeds (n={n} each)");
    println!(
        "max failed-claim run  {worst_run} <= {bound} (R = {partitions})  [{}]",
        if worst_run <= bound { "OK" } else { "VIOLATION" }
    );

    std::fs::create_dir_all("results").expect("create results/");
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"seeds\": {seeds},\n"));
    json.push_str(&format!("  \"workers\": {p},\n"));
    json.push_str(&format!("  \"iterations_per_loop\": {n},\n"));
    json.push_str(&format!("  \"partitions\": {partitions},\n"));
    json.push_str(&format!("  \"injector_queries\": {queries_total},\n"));
    json.push_str(&format!("  \"faults_injected\": {injected_total},\n"));
    json.push_str(&format!("  \"max_failed_claim_run\": {worst_run},\n"));
    json.push_str(&format!("  \"lemma4_bound\": {bound},\n"));
    json.push_str("  \"per_site\": {\n");
    for (i, site) in Site::ALL.iter().enumerate() {
        let comma = if i + 1 < Site::ALL.len() { "," } else { "" };
        json.push_str(&format!("    \"{}\": {}{comma}\n", site.name(), site_totals[site.index()]));
    }
    json.push_str("  }\n}\n");
    std::fs::write("results/chaos_report.json", &json).expect("write chaos JSON");
    println!("\nwrote results/chaos_report.json ({} bytes)", json.len());
}
