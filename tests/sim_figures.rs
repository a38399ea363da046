//! End-to-end assertions on the *shapes* the paper's figures report,
//! evaluated on reduced-size simulator runs (the full-size tables are
//! produced by the `fig*` harness binaries and recorded in
//! EXPERIMENTS.md).

use parloop::sim::{
    micro_app, nas_app_scaled, sequential_time, simulate, MicroParams, NasKernel, PolicyKind,
    SimConfig,
};

fn quick_micro(balanced: bool) -> parloop::sim::AppModel {
    let mut p = MicroParams::new(MicroParams::WORKING_SETS[0].1, balanced);
    p.outer = 4;
    p.iterations = 256;
    micro_app(p)
}

#[test]
fn fig1_balanced_static_and_hybrid_lead_cross_socket() {
    let cfg = SimConfig::xeon();
    let app = quick_micro(true);
    let t32 = |kind| simulate(&app, kind, 32, &cfg).total_cycles;
    let hybrid = t32(PolicyKind::Hybrid);
    let statics = t32(PolicyKind::Static);
    for lagger in [PolicyKind::WorkSharing, PolicyKind::Guided, PolicyKind::Stealing] {
        let t = t32(lagger);
        assert!(hybrid < t, "{}: hybrid {hybrid:.0} !< {t:.0}", lagger.name());
        assert!(statics < t, "{}: static {statics:.0} !< {t:.0}", lagger.name());
    }
    // Hybrid follows static closely (within 15%).
    assert!(hybrid < statics * 1.15, "hybrid {hybrid:.0} vs static {statics:.0}");
}

#[test]
fn fig1_unbalanced_non_static_schemes_win() {
    let cfg = SimConfig::xeon();
    let app = quick_micro(false);
    let t32 = |kind| simulate(&app, kind, 32, &cfg).total_cycles;
    let statics = t32(PolicyKind::Static);
    for dynamic in
        [PolicyKind::Hybrid, PolicyKind::WorkSharing, PolicyKind::Guided, PolicyKind::Stealing]
    {
        let t = t32(dynamic);
        assert!(t < statics, "{} {t:.0} should beat omp_static {statics:.0}", dynamic.name());
    }
    // And the hybrid is the best of them.
    let hybrid = t32(PolicyKind::Hybrid);
    for other in [PolicyKind::WorkSharing, PolicyKind::Guided, PolicyKind::Stealing] {
        assert!(hybrid <= t32(other) * 1.02, "hybrid not competitive with {}", other.name());
    }
}

#[test]
fn fig2_affinity_ordering() {
    let cfg = SimConfig::xeon();
    for balanced in [true, false] {
        let app = quick_micro(balanced);
        let aff = |kind| simulate(&app, kind, 32, &cfg).mean_affinity(&app);
        let hybrid = aff(PolicyKind::Hybrid);
        let statics = aff(PolicyKind::Static);
        let vanilla = aff(PolicyKind::Stealing);
        let dynamic = aff(PolicyKind::WorkSharing);
        assert!((statics - 1.0).abs() < 1e-12, "static affinity must be 100%");
        if balanced {
            assert!(hybrid > 0.95, "balanced hybrid affinity {hybrid}");
        } else {
            assert!(hybrid > 0.5, "unbalanced hybrid affinity {hybrid}");
        }
        assert!(vanilla < 0.3, "vanilla affinity {vanilla}");
        assert!(dynamic < 0.3, "omp_dynamic affinity {dynamic}");
        assert!(hybrid > vanilla + 0.3);
    }
}

#[test]
fn fig4_vanilla_pays_more_remote_traffic() {
    use parloop::topo::AccessLevel;
    let cfg = SimConfig::xeon();
    let app = quick_micro(true);
    let hybrid = simulate(&app, PolicyKind::Hybrid, 32, &cfg);
    let vanilla = simulate(&app, PolicyKind::Stealing, 32, &cfg);
    let remote = |r: &parloop::sim::SimResult| {
        r.counts.get(AccessLevel::RemoteL3) + r.counts.get(AccessLevel::RemoteDram)
    };
    assert!(
        remote(&vanilla) > remote(&hybrid),
        "vanilla remote {} must exceed hybrid {}",
        remote(&vanilla),
        remote(&hybrid)
    );
    let lat = |r: &parloop::sim::SimResult| r.counts.inferred_latency_without_l1(&cfg.latency);
    assert!(lat(&vanilla) > lat(&hybrid), "vanilla inferred latency must be highest");
}

#[test]
fn fig3_hybrid_competitive_on_all_kernels() {
    let cfg = SimConfig::xeon();
    for kernel in NasKernel::ALL {
        let app = nas_app_scaled(kernel, 8);
        let ts = sequential_time(&app, &cfg);
        let speedups: Vec<(PolicyKind, f64)> = PolicyKind::roster()
            .into_iter()
            .map(|kind| (kind, ts / simulate(&app, kind, 16, &cfg).total_cycles))
            .collect();
        let best = speedups.iter().map(|&(_, s)| s).fold(0.0, f64::max);
        let hybrid =
            speedups.iter().find(|(k, _)| *k == PolicyKind::Hybrid).map(|&(_, s)| s).unwrap();
        let rank = speedups.iter().filter(|&&(_, s)| s > hybrid).count();
        // The paper's Figure 3 result: hybrid wins ft/is/ep, and is
        // *second best* on mg and cg where OpenMP leads. So accept either
        // second-or-better rank, or within 15% of the best (the schemes
        // bunch together at this reduced test scale; full-scale tables
        // live in EXPERIMENTS.md).
        assert!(
            rank <= 1 || hybrid >= 0.85 * best,
            "{}: hybrid {hybrid:.2} not within 15% of best {best:.2}: {:?}",
            kernel.name(),
            speedups.iter().map(|(k, s)| format!("{}={s:.2}", k.name())).collect::<Vec<_>>()
        );
    }
}

#[test]
fn simulation_deterministic_across_runs() {
    let cfg = SimConfig::xeon();
    let app = quick_micro(false);
    for kind in PolicyKind::roster() {
        let a = simulate(&app, kind, 8, &cfg);
        let b = simulate(&app, kind, 8, &cfg);
        assert_eq!(a.total_cycles, b.total_cycles, "{}", kind.name());
        assert_eq!(a.counts, b.counts, "{}", kind.name());
    }
}

/// Pins the paper schemes' simulated output on the unbalanced quick
/// micro at P = 32: end-to-end cycles (exact bits), per-level access
/// counts and mean affinity. Any change to a policy's random draws,
/// claims or charged cycles, or to the cache model, moves these values.
#[test]
fn paper_schemes_output_is_pinned_at_p32() {
    let cfg = SimConfig::xeon();
    let app = quick_micro(false);
    // (scheme, total_cycles bits, counts in AccessLevel::ALL order, mean affinity bits)
    let pins: [(PolicyKind, u64, [u64; 6], u64); 7] = [
        (
            PolicyKind::Hybrid,
            0x4167_17e9_f1ec_cb56,
            [120936, 686318, 293300, 57520, 264236, 137450],
            0x3fe4_1555_5555_5555,
        ),
        (
            PolicyKind::Static,
            0x416f_e7a4_5a20_0008,
            [124284, 746094, 494412, 54344, 0, 140626],
            0x3ff0_0000_0000_0000,
        ),
        (
            PolicyKind::WorkSharing,
            0x416e_11e6_0493_3205,
            [120936, 662102, 118218, 52294, 463534, 142676],
            0x3f9c_0000_0000_0000,
        ),
        (
            PolicyKind::Guided,
            0x416d_7a33_94b3_3170,
            [120936, 660736, 122993, 57561, 460125, 137409],
            0x3fa5_5555_5555_5555,
        ),
        (
            PolicyKind::Stealing,
            0x416a_d5d1_9466_64fa,
            [120936, 659737, 191733, 57527, 392384, 137443],
            0x3fc1_5555_5555_5555,
        ),
        (
            PolicyKind::StaticSharing,
            0x418a_d0dc_466f_fd72,
            [121360, 662461, 82289, 74223, 498680, 120747],
            0x3faa_aaaa_aaaa_aaab,
        ),
        (
            PolicyKind::HybridOversub(2),
            0x4165_704e_c07f_fe80,
            [120936, 696525, 358571, 78133, 188758, 116837],
            0x3fea_b555_5555_5555,
        ),
    ];
    for (kind, cycles, counts, affinity) in pins {
        let r = simulate(&app, kind, 32, &cfg);
        assert_eq!(
            r.total_cycles.to_bits(),
            cycles,
            "{}: total_cycles {} moved",
            kind.name(),
            r.total_cycles
        );
        assert_eq!(r.counts.as_array(), counts, "{}: access counts moved", kind.name());
        let mean = r.mean_affinity(&app);
        assert_eq!(mean.to_bits(), affinity, "{}: mean affinity {mean} moved", kind.name());
    }
}
