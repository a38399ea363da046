//! Property tests for the virtual-time engine: coverage, conservation,
//! and sanity invariants that must hold for arbitrary workload shapes.

mod common;

use common::run_cases;
use parloop::sim::{
    blocked_offsets, simulate, AccessPattern, AddressSpace, AppModel, CostProfile, LoopModel,
    PolicyKind, SimConfig,
};

/// Build a small arbitrary app model from a handful of parameters.
fn build_app(n: usize, outer: usize, ws_kb: usize, ramp: f64, passes: u32) -> AppModel {
    let mut sp = AddressSpace::new();
    let bytes = ws_kb * 1024;
    let arr = sp.alloc(bytes);
    AppModel {
        name: "prop".into(),
        loops: vec![LoopModel {
            name: "prop-loop",
            n,
            cpu: CostProfile::LinearRamp { min: 50.0, max: 50.0 * ramp },
            patterns: vec![AccessPattern::Block {
                array: arr,
                offsets: blocked_offsets(bytes, n, ramp.max(1.0)),
                passes,
                write: true,
            }],
        }],
        outer,
        seq_between: 100.0,
    }
}

/// Every access the workload issues is counted exactly once,
/// regardless of scheme and worker count.
#[test]
fn access_conservation() {
    run_cases(0x51A0, 24, |rng| {
        let n = rng.usize_in(4, 64);
        let outer = rng.usize_in(1, 4);
        let ws_kb = rng.usize_in(8, 128);
        let p = rng.usize_in(1, 9);
        let kind = PolicyKind::roster()[rng.usize_in(0, 6)];
        let app = build_app(n, outer, ws_kb, 1.0, 1);
        let cfg = SimConfig::xeon();
        let r = simulate(&app, kind, p, &cfg);
        let expect = app.loops[0].total_accesses() * outer as u64;
        assert_eq!(r.counts.total(), expect, "{} P={}", kind.name(), p);
    });
}

/// Total virtual time is positive, finite, and at least the critical
/// path of a single iteration.
#[test]
fn time_is_sane() {
    run_cases(0x51A1, 24, |rng| {
        let n = rng.usize_in(4, 48);
        let ws_kb = rng.usize_in(8, 64);
        let ramp = rng.f64_in(1.0, 8.0);
        let p = rng.usize_in(1, 9);
        let kind = PolicyKind::roster()[rng.usize_in(0, 6)];
        let app = build_app(n, 2, ws_kb, ramp, 1);
        let r = simulate(&app, kind, p, &SimConfig::xeon());
        assert!(r.total_cycles.is_finite() && r.total_cycles > 0.0);
        // No scheme can beat the per-iteration CPU floor.
        let floor = app.loops[0].cpu_total() / p as f64;
        assert!(r.total_cycles >= floor, "{}: {} < floor {}", kind.name(), r.total_cycles, floor);
    });
}

/// Affinity values are valid probabilities, and static is always 1.
#[test]
fn affinity_in_unit_interval() {
    run_cases(0x51A2, 24, |rng| {
        let n = rng.usize_in(4, 48);
        let outer = rng.usize_in(2, 5);
        let p = rng.usize_in(2, 9);
        let kind = PolicyKind::roster()[rng.usize_in(0, 6)];
        let app = build_app(n, outer, 32, 2.0, 1);
        let r = simulate(&app, kind, p, &SimConfig::xeon());
        let a = r.mean_affinity(&app);
        assert!((0.0..=1.0).contains(&a), "{}: affinity {a}", kind.name());
        if kind == PolicyKind::Static {
            assert!((a - 1.0).abs() < 1e-12);
        }
    });
}

/// The hybrid-oversubscription variants stay correct for any factor.
#[test]
fn oversub_conserves_accesses() {
    run_cases(0x51A3, 24, |rng| {
        let factor = rng.usize_in(1, 9) as u8;
        let p = rng.usize_in(1, 9);
        let app = build_app(32, 2, 64, 1.0, 1);
        let r = simulate(&app, PolicyKind::HybridOversub(factor), p, &SimConfig::xeon());
        assert_eq!(r.counts.total(), app.loops[0].total_accesses() * 2);
    });
}
