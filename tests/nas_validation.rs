//! Deeper NAS kernel validation: determinism across runs, scheduler
//! equivalence at class-S size for the cheap kernels, and algebraic
//! sanity checks on kernel outputs.

use parloop::core::Schedule;
use parloop::nas::ep::{ep, ep_sequential, verify_class_s, EpParams};
use parloop::nas::ft::{self, ft, FtParams};
use parloop::nas::is::{generate_keys, is_sort, verify, IsParams};
use parloop::nas::mg::{self, mg, MgParams};
use parloop::nas::randdp::{randlc, seed_after, A, SEED};
use parloop::runtime::ThreadPool;

#[test]
fn ep_is_deterministic_across_repeated_parallel_runs() {
    let pool = ThreadPool::new(4);
    let params = EpParams::mini();
    let first = ep(&pool, params, Schedule::hybrid());
    for _ in 0..3 {
        let again = ep(&pool, params, Schedule::hybrid());
        assert_eq!(again.q, first.q);
        assert!((again.sx - first.sx).abs() < 1e-9);
        assert!((again.sy - first.sy).abs() < 1e-9);
    }
}

#[test]
fn ep_class_s_matches_sequential_under_hybrid() {
    let pool = ThreadPool::new(4);
    let params = EpParams::class_s();
    let seq = ep_sequential(params);
    let par = ep(&pool, params, Schedule::hybrid());
    assert_eq!(par.q, seq.q);
    assert!((par.sx - seq.sx).abs() < 1e-8, "{} vs {}", par.sx, seq.sx);
    assert!((par.sy - seq.sy).abs() < 1e-8);
    // Published property of EP: acceptance rate converges to pi/4.
    let total = (params.blocks() * params.pairs_per_block()) as f64;
    assert!((par.accepted as f64 / total - std::f64::consts::FRAC_PI_4).abs() < 2e-3);
    // NPB's published class-S sums, to its relative epsilon 1e-8.
    for (got, want) in [(par.sx, -3.24783465203474e3), (par.sy, -6.958407078382297e3)] {
        assert!(((got - want) / want).abs() <= 1e-8, "{got} vs published {want}");
    }
    assert!(verify_class_s(&par));
}

#[test]
fn lcg_jump_ahead_composes() {
    // seed_after(seed_after(s, a), b) == seed_after(s, a + b).
    for (a, b) in [(1u64, 1u64), (10, 100), (12345, 54321)] {
        let two_step = seed_after(seed_after(SEED, a), b);
        let one_step = seed_after(SEED, a + b);
        assert_eq!(two_step, one_step, "jump composition failed for {a}+{b}");
    }
}

#[test]
fn lcg_has_full_looking_period_prefix() {
    // No short cycles: the state does not return to the seed within the
    // first 1M draws.
    let mut x = SEED;
    for i in 1..=1_000_000 {
        randlc(&mut x, A);
        assert_ne!(x, SEED, "state cycled back to the seed after {i} draws");
    }
}

#[test]
fn is_class_s_sorts_correctly_under_hybrid_and_static() {
    let pool = ThreadPool::new(4);
    let params = IsParams::class_s();
    let keys = generate_keys(params);
    for sched in [Schedule::hybrid(), Schedule::omp_static()] {
        let r = is_sort(&pool, params, &keys, sched);
        assert!(verify(&keys, &r), "{}", sched.name());
    }
}

#[test]
fn mg_contraction_rate_is_schedule_independent() {
    let pool = ThreadPool::new(3);
    let params = MgParams::mini();
    let a = mg(&pool, params, Schedule::hybrid());
    let b = mg(&pool, params, Schedule::vanilla());
    for (x, y) in a.history.iter().zip(&b.history) {
        assert!(((x - y) / x).abs() < 1e-10, "{x} vs {y}");
    }
    // Multigrid contracts the residual by a healthy factor per V-cycle.
    let rate = a.history[1] / a.history[0];
    assert!(rate < 0.8, "weak contraction: {rate}");
}

#[test]
fn mg_and_ft_class_s_match_their_pins_under_hybrid_and_static() {
    // The pins catch an operator that is wrong the same way under every
    // schedule, which the cross-schedule checks cannot.
    let pool = ThreadPool::new(2);
    for sched in [Schedule::hybrid(), Schedule::omp_static()] {
        let r = mg(&pool, MgParams::class_s(), sched);
        assert!(mg::verify_class_s(&r), "{}: MG rnorm {:e}", sched.name(), r.rnorm);
        let r = ft(&pool, FtParams::class_s(), sched);
        assert!(ft::verify_class_s(&r), "{}: FT checksums {:?}", sched.name(), r.checksums);
    }
}

#[test]
fn ft_checksums_evolve_smoothly() {
    let pool = ThreadPool::new(2);
    let r = ft(&pool, FtParams::mini(), Schedule::hybrid());
    // Consecutive checksums differ (the field evolves) but remain the
    // same order of magnitude (gentle Gaussian decay, alpha = 1e-6).
    for w in r.checksums.windows(2) {
        let (a, b) = (w[0], w[1]);
        assert!(a.re != b.re || a.im != b.im, "field did not evolve");
        let ratio = (a.norm_sqr() / b.norm_sqr()).sqrt();
        assert!((0.5..2.0).contains(&ratio), "checksum jumped by {ratio}");
    }
}

#[test]
fn kernels_with_many_worker_counts() {
    use parloop::nas::{run_kernel, ClassSize, Kernel};
    for p in [2usize, 6, 8] {
        let pool = ThreadPool::new(p);
        for kernel in [Kernel::Ep, Kernel::Is] {
            let rep = run_kernel(&pool, kernel, ClassSize::Mini, Schedule::hybrid());
            assert!(rep.verified, "{} P={p}", kernel.name());
        }
    }
}
