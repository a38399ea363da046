//! Edge cases and API-surface checks across the workspace: things a
//! downstream user will hit on day one (empty loops, single workers, odd
//! sizes, string parsing, facade re-exports).

use parloop::core::{
    block_bounds, default_grain, par_for, par_for_chunks, partitions_oversubscribed, Schedule,
};
use parloop::runtime::ThreadPool;
use parloop::sim::{simulate, CostModel, MicroParams, PolicyKind, SimConfig};
use parloop::topo::{pin_order, MachineSpec, PinningPolicy};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

#[test]
fn facade_reexports_are_usable() {
    // The one-stop `parloop::{...}` imports from the README.
    let pool = parloop::ThreadPool::new(2);
    let hits = AtomicUsize::new(0);
    parloop::par_for(&pool, 0..10, parloop::Schedule::hybrid(), |_| {
        hits.fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(hits.load(Ordering::Relaxed), 10);
    let built = parloop::ThreadPoolBuilder::new().num_workers(2).build();
    let (a, b) = built.install(|| (1, 2));
    assert_eq!(a + b, 3);
}

#[test]
fn single_iteration_loops() {
    let pool = ThreadPool::new(4);
    for sched in Schedule::roster(1, 4) {
        let hits = AtomicUsize::new(0);
        par_for(&pool, 0..1, sched, |i| {
            assert_eq!(i, 0);
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 1, "{}", sched.name());
    }
}

#[test]
fn offset_ranges_across_all_schedules() {
    let pool = ThreadPool::new(3);
    let lo = 1_000_000;
    let hi = lo + 777;
    for sched in Schedule::roster(777, 3) {
        let sum = AtomicU64::new(0);
        par_for_chunks(&pool, lo..hi, sched, |chunk| {
            sum.fetch_add(chunk.map(|i| i as u64).sum::<u64>(), Ordering::Relaxed);
        });
        assert_eq!(sum.into_inner(), (lo as u64..hi as u64).sum::<u64>(), "{}", sched.name());
    }
}

#[test]
fn schedule_parsing_is_case_sensitive_and_total() {
    assert!("hybrid".parse::<Schedule>().is_ok());
    assert!("HYBRID".parse::<Schedule>().is_err());
    assert!("".parse::<Schedule>().is_err());
    let err = "bogus".parse::<Schedule>().unwrap_err();
    assert!(err.contains("bogus"));
}

#[test]
fn grain_and_partition_helpers_edge_cases() {
    assert_eq!(default_grain(0, 1), 1);
    assert_eq!(default_grain(usize::MAX / 16, 1), 2048);
    assert_eq!(partitions_oversubscribed(1, 0), 1); // oversub 0 clamps to 1
    assert_eq!(partitions_oversubscribed(5, 3), 16);
    assert!(block_bounds(0, 4, 3).is_empty());
}

#[test]
fn sim_one_iteration_loop_every_policy() {
    let app = parloop::sim::AppModel {
        name: "one".into(),
        loops: vec![parloop::sim::LoopModel {
            name: "one",
            n: 1,
            cpu: parloop::sim::CostProfile::Uniform(100.0),
            patterns: vec![],
        }],
        outer: 2,
        seq_between: 0.0,
    };
    let cfg = SimConfig::xeon();
    for kind in PolicyKind::roster() {
        let r = simulate(&app, kind, 32, &cfg);
        assert!(r.total_cycles > 0.0, "{}", kind.name());
    }
}

#[test]
fn sim_free_cost_model_static_is_ideal() {
    // With zero overheads and no memory, static on a balanced loop is a
    // perfect P-way split (modulo the block remainder).
    let app = parloop::sim::AppModel {
        name: "ideal".into(),
        loops: vec![parloop::sim::LoopModel {
            name: "ideal",
            n: 320,
            cpu: parloop::sim::CostProfile::Uniform(1000.0),
            patterns: vec![],
        }],
        outer: 1,
        seq_between: 0.0,
    };
    let cfg = SimConfig { cost: CostModel::free(), ..SimConfig::xeon() };
    let t1 = simulate(&app, PolicyKind::Static, 1, &cfg).total_cycles;
    let t32 = simulate(&app, PolicyKind::Static, 32, &cfg).total_cycles;
    let speedup = t1 / t32;
    assert!((speedup - 32.0).abs() < 0.1, "ideal static speedup {speedup}");
}

#[test]
fn pinning_valid_for_odd_machines() {
    for (sockets, cps) in [(1usize, 1usize), (1, 7), (3, 5), (4, 8)] {
        let m = MachineSpec { sockets, cores_per_socket: cps, ..MachineSpec::xeon_e5_4620() };
        for policy in [PinningPolicy::Compact, PinningPolicy::Scatter] {
            let mut seen = vec![false; m.cores()];
            for w in 0..m.cores() {
                let c = pin_order(&m, policy, w);
                assert!(c < m.cores());
                assert!(!seen[c], "{policy:?} on {sockets}x{cps}: duplicate core {c}");
                seen[c] = true;
            }
        }
    }
}

#[test]
fn error_types_implement_error_and_display() {
    use parloop::LoopError;

    // `dyn Error` coercion is the whole point: downstream `?`-chains and
    // anyhow-style boxing must accept the loop error type.
    fn takes_error(e: &dyn std::error::Error) -> String {
        e.to_string()
    }

    let panicked = LoopError::Panicked { report: Default::default(), payload: Box::new("boom") };
    assert_eq!(takes_error(&panicked), "loop body panicked");
    // The counters stay reachable through the typed error.
    assert_eq!(panicked.report().partitions, 0);
}

#[test]
fn micro_params_weights_match_iterations() {
    for balanced in [true, false] {
        let p = MicroParams::new(4 << 20, balanced);
        assert_eq!(p.weights().len(), p.iterations);
        assert!(p.weights().iter().all(|&w| w >= 1.0));
    }
}
