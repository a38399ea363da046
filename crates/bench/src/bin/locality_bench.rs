//! Locality benchmark: topology-aware hybrid scheduling at scale, in the
//! simulator.
//!
//! The skewed (unbalanced) microbenchmark runs on a scaled multi-socket
//! machine (128 virtual cores over 16 sockets; full mode adds 512 cores
//! over 32). `hybrid` (uniform victim selection, identity claim anchors)
//! runs against `hybrid_sf` (socket-first stealing + NUMA-earmarked
//! anchors); compared on the consecutive-loop same-socket fraction, the
//! local-steal fraction and the simulated L3 hit rate — the scaled-up
//! Figure 4 comparison.
//!
//! Measurements land in `results/locality.json`; with `--bench-json PATH`
//! the `locality/*` series is merged into the flat cross-commit file.
//!
//! Acceptance (process exits 1 otherwise): `hybrid_sf` same-socket
//! fraction >= `hybrid`'s at every simulated scale, and its L3 hit rate is
//! no worse.
//!
//! Usage: `cargo run --release -p parloop-bench --bin locality_bench
//! [--smoke] [--bench-json PATH]`

use parloop_bench::{bench_json_arg, merge_bench_json, Table};
use parloop_sim::{micro_app, simulate, CostModel, MicroParams, PolicyKind, SimConfig};
use parloop_topo::{AccessLevel, LatencyTable, MachineSpec, PinningPolicy};

/// One scheme's numbers at one simulated scale.
struct SimRow {
    cores: usize,
    kind: PolicyKind,
    socket_affinity: f64,
    local_steal_fraction: f64,
    l3_hit_rate: f64,
    remote_steals: u64,
    cycles: f64,
}

fn sim_scale(sockets: usize, cores_per_socket: usize, iterations: usize) -> Vec<SimRow> {
    let p = sockets * cores_per_socket;
    // The skewed workload: an exponential 64x block-size ramp, so both the
    // data and the work are concentrated — the shape that forces stealing
    // and thereby separates victim-selection policies.
    let app = micro_app(MicroParams {
        working_set: 4 << 20,
        iterations,
        passes: 1,
        outer: 4,
        balanced: false,
    });
    let cfg = SimConfig {
        machine: MachineSpec::scaled(sockets, cores_per_socket),
        latency: LatencyTable::xeon_e5_4620(),
        cost: CostModel::xeon(),
        pinning: PinningPolicy::Compact,
    };
    [PolicyKind::Hybrid, PolicyKind::HybridSocketFirst]
        .into_iter()
        .map(|kind| {
            let r = simulate(&app, kind, p, &cfg);
            SimRow {
                cores: p,
                kind,
                socket_affinity: r.mean_socket_affinity(&app),
                local_steal_fraction: r.local_steal_fraction().unwrap_or(1.0),
                l3_hit_rate: r.counts.get(AccessLevel::LocalL3) as f64 / r.counts.total() as f64,
                remote_steals: r.remote_steals,
                cycles: r.total_cycles,
            }
        })
        .collect()
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let bench_json = bench_json_arg();

    println!(
        "locality bench: scaled socket-first sim sweep{}",
        if smoke { " (smoke)" } else { "" }
    );

    // 128 virtual cores always; 512 only in full mode (it is the long pole).
    let mut rows = sim_scale(16, 8, 512);
    if !smoke {
        rows.extend(sim_scale(32, 16, 2048));
    }

    let mut t = Table::new(vec![
        "cores",
        "scheme",
        "socket affinity",
        "local-steal frac",
        "L3 hit rate",
        "remote steals",
        "cycles",
    ]);
    for r in &rows {
        t.row(vec![
            r.cores.to_string(),
            r.kind.name().to_string(),
            format!("{:.4}", r.socket_affinity),
            format!("{:.4}", r.local_steal_fraction),
            format!("{:.4}", r.l3_hit_rate),
            r.remote_steals.to_string(),
            format!("{:.0}", r.cycles),
        ]);
    }
    t.print();

    let cpus = std::thread::available_parallelism().map(|v| v.get()).unwrap_or(1);
    let json = render_json(cpus, &rows);
    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write("results/locality.json", &json).expect("write results JSON");
    println!("wrote results/locality.json");

    if let Some(path) = &bench_json {
        let mut entries: Vec<(String, String, &str)> = Vec::new();
        for r in &rows {
            let scheme =
                if r.kind == PolicyKind::HybridSocketFirst { "socket_first" } else { "uniform" };
            let series = format!("locality/{}c", r.cores);
            entries.extend([
                (
                    format!("{series}/socket_affinity_{scheme}"),
                    format!("{:.6}", r.socket_affinity),
                    "ratio",
                ),
                (
                    format!("{series}/l3_hit_rate_{scheme}"),
                    format!("{:.6}", r.l3_hit_rate),
                    "ratio",
                ),
                (format!("{series}/remote_steals_{scheme}"), r.remote_steals.to_string(), "steals"),
            ]);
        }
        merge_bench_json(path, &entries);
        println!("merged locality/* series into {path}");
    }

    // Acceptance bars.
    let mut failed = false;
    for pair in rows.chunks(2) {
        let (uni, sf) = (&pair[0], &pair[1]);
        println!(
            "\ncheck socket affinity at {} cores: {:.4} (socket-first) vs {:.4} (uniform), need >=",
            sf.cores, sf.socket_affinity, uni.socket_affinity
        );
        if sf.socket_affinity < uni.socket_affinity {
            failed = true;
        }
        println!(
            "check L3 hit rate at {} cores: {:.4} (socket-first) vs {:.4} (uniform), need >=",
            sf.cores, sf.l3_hit_rate, uni.l3_hit_rate
        );
        if sf.l3_hit_rate < uni.l3_hit_rate {
            failed = true;
        }
    }
    if failed {
        eprintln!("FAILED: locality acceptance bars not met");
        std::process::exit(1);
    }
    println!("ok: socket-first hybrid keeps work on-socket at scale");
}

fn render_json(cpus: usize, rows: &[SimRow]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"host_cpus\": {cpus},\n  \"sim\": [\n"));
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"cores\": {}, \"scheme\": \"{}\", \"socket_affinity\": {:.6}, \
             \"local_steal_fraction\": {:.6}, \"l3_hit_rate\": {:.6}, \"remote_steals\": {}, \
             \"cycles\": {:.1}}}{}\n",
            r.cores,
            r.kind.name(),
            r.socket_affinity,
            r.local_steal_fraction,
            r.l3_hit_rate,
            r.remote_steals,
            r.cycles,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}
