//! EP — the NAS "embarrassingly parallel" kernel.
//!
//! Generates `2^m` pairs of uniform deviates, maps each accepted pair
//! through the Marsaglia polar method to a pair of Gaussian deviates,
//! and tallies the sums `sx`, `sy` plus the annulus counts `q[0..10]`
//! (pairs binned by `max(|X|, |Y|)`).
//!
//! The parallel loop runs over *blocks* of `2^nk_log` pairs; each block
//! seeds its generator independently via the LCG jump-ahead, so any
//! scheduler may execute blocks in any order and on any worker without
//! changing the result (up to floating-point summation order of the
//! block partials).

use parloop_core::Schedule;
use parloop_runtime::ThreadPool;

use crate::randdp::{fill, seed_after, word, A, BATCH, SEED};
use crate::util::{par_sum, within_npb_epsilon};

/// EP problem size: `2^m` pairs processed in blocks of `2^nk_log`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpParams {
    pub m: u32,
    pub nk_log: u32,
}

impl EpParams {
    /// NAS class S (2^24 pairs).
    pub fn class_s() -> Self {
        EpParams { m: 24, nk_log: 16 }
    }

    /// A miniature size for fast tests (2^18 pairs in 256 blocks).
    pub fn mini() -> Self {
        EpParams { m: 18, nk_log: 10 }
    }

    /// Number of parallel blocks.
    pub fn blocks(&self) -> usize {
        assert!(self.m >= self.nk_log);
        1usize << (self.m - self.nk_log)
    }

    /// Pairs per block.
    pub fn pairs_per_block(&self) -> usize {
        1usize << self.nk_log
    }
}

/// EP result: Gaussian sums and annulus counts.
#[derive(Debug, Clone, PartialEq)]
pub struct EpResult {
    pub sx: f64,
    pub sy: f64,
    pub q: [u64; 10],
    /// Accepted pairs (= Σ q).
    pub accepted: u64,
}

/// NPB's published class-S sums `(sx, sy)` (NPB 3.3 `ep.f`).
pub const CLASS_S_SUMS: (f64, f64) = (-3.24783465203474e3, -6.958407078382297e3);

/// Whether `r` matches [`CLASS_S_SUMS`] to NPB's verification epsilon, a
/// relative 1e-8 (block partials are summed in schedule order).
pub fn verify_class_s(r: &EpResult) -> bool {
    let (sx, sy) = CLASS_S_SUMS;
    within_npb_epsilon(r.sx, sx) && within_npb_epsilon(r.sy, sy)
}

/// Pairs the tally walks side by side: two 256-bit vectors of `f64`.
/// Eight lanes spill more of the `at_least` counters to the stack than
/// four, yet run faster: each group gives two independent chains of
/// divides and square roots to overlap (EXPERIMENTS A17).
const LANES: usize = 8;

/// A block's partial result: `sx`, `sy` and the annulus counts `q`.
type Tally = (f64, f64, [u64; 10]);

/// Natural logarithm of a positive normal `x`: fdlibm's `__ieee754_log`
/// in musl's branch-free form, without the special cases (zero, negative,
/// subnormal, infinite and NaN inputs) that EP's `t` in [2^-90, 1] never
/// reaches. Within 1 ulp of `f64::ln`, and exactly 0 at 1.
///
/// Writes `x = 2^k · (1 + f)` with `1 + f` in [√2/2, √2), then
/// `ln(1 + f) = f - hfsq + s·(hfsq + R(s²))` with `s = f / (2 + f)`,
/// `hfsq = f²/2` and `R` the Lg1–Lg7 minimax polynomial.
#[inline(always)]
fn ln(x: f64) -> f64 {
    const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000); // 6.93147180369123816490e-01
    const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76); // 1.90821492927058770002e-10
    const LG1: f64 = f64::from_bits(0x3fe5_5555_5555_5593); // 6.666666666666735130e-01
    const LG2: f64 = f64::from_bits(0x3fd9_9999_9997_fa04); // 3.999999999940941908e-01
    const LG3: f64 = f64::from_bits(0x3fd2_4924_9422_9359); // 2.857142874366239149e-01
    const LG4: f64 = f64::from_bits(0x3fcc_71c5_1d8e_78af); // 2.222219843214978396e-01
    const LG5: f64 = f64::from_bits(0x3fc7_4664_96cb_03de); // 1.818357216161805012e-01
    const LG6: f64 = f64::from_bits(0x3fc3_9a09_d078_c69f); // 1.531383769920937332e-01
    const LG7: f64 = f64::from_bits(0x3fc2_f112_df3e_5244); // 1.479819860511658591e-01
    /// High word of √2/2: mantissas at or above √2's carry into `k`.
    const SQRT_HALF_HI: u64 = 0x3fe6_a09e;

    let ix = x.to_bits() + ((0x3ff0_0000 - SQRT_HALF_HI) << 32);
    let k = (ix >> 52) as i32 - 0x3ff;
    let f = f64::from_bits((ix & 0x000f_ffff_ffff_ffff) + (SQRT_HALF_HI << 32)) - 1.0;
    let hfsq = 0.5 * f * f;
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let t1 = w * (LG2 + w * (LG4 + w * LG6));
    let t2 = z * (LG1 + w * (LG3 + w * (LG5 + w * LG7)));
    let r = t2 + t1;
    let dk = f64::from(k);
    s * (hfsq + r) + dk * LN2_LO - hfsq + f + dk * LN2_HI
}

/// Per-block tally, merged across the parallel loop.
///
/// NPB's `vranlc`-then-tally shape: the generator fills a batch of
/// deviates in one tight integer loop, then the tally walks its pairs in
/// [`LANES`] lanes without a branch. A rejected pair's lane takes
/// `t = 0.5`, so its log stays finite, and a masked `f = 0`, so it adds
/// nothing to the sums; each lane counts its accepted pairs with
/// `max(|X|, |Y|) >= b` for every bin `b`, and `q` is their difference.
/// Acceptance and `q` are exactly those of one `randlc` call per deviate;
/// `sx` and `sy` differ from that form only through [`ln`] and the lane
/// summation order. No FMA is ever formed, so every build of this body
/// returns the same bits.
#[inline(always)]
fn block_tally(params: EpParams, block: usize) -> Tally {
    let deviates = 2 * params.pairs_per_block();
    // Jump the seed past the deviates of all preceding blocks.
    let mut x = word(seed_after(SEED, block as u64 * deviates as u64));
    let a = word(A);

    let mut sx = [0.0_f64; LANES];
    let mut sy = [0.0_f64; LANES];
    // at_least[b][l]: lane l's accepted pairs with max(|X|, |Y|) >= b
    // (b = 0: all of its accepted pairs).
    let mut at_least = [[0u64; LANES]; 10];
    let mut batch = [0.0_f64; BATCH];
    let mut left = deviates;
    while left > 0 {
        let n = left.min(BATCH);
        left -= n;
        fill(&mut x, a, &mut batch[..n]);
        // Pad to whole lane groups with deviate 0: u1 = u2 = -1, so t = 2
        // and the padding pairs are rejected. `BATCH` is a multiple of
        // the group, so the padding fits.
        let padded = n.next_multiple_of(2 * LANES);
        batch[n..padded].fill(0.0);
        for group in batch[..padded].chunks_exact(2 * LANES) {
            for l in 0..LANES {
                let u1 = 2.0 * group[2 * l] - 1.0;
                let u2 = 2.0 * group[2 * l + 1] - 1.0;
                let t = u1 * u1 + u2 * u2;
                let accept = t <= 1.0 && t > 0.0;
                let t = if accept { t } else { 0.5 };
                let f = (-2.0 * ln(t) / t).sqrt();
                let f = if accept { f } else { 0.0 };
                let (gx, gy) = (u1 * f, u2 * f);
                sx[l] += gx;
                sy[l] += gy;
                let m = gx.abs().max(gy.abs());
                at_least[0][l] += u64::from(accept);
                for (b, count) in at_least.iter_mut().enumerate().skip(1) {
                    count[l] += u64::from(m >= b as f64);
                }
            }
        }
    }
    let at_least = at_least.map(|lanes| lanes.iter().sum::<u64>());
    let q = std::array::from_fn(|b| at_least[b] - at_least.get(b + 1).copied().unwrap_or(0));
    (sx.iter().sum(), sy.iter().sum(), q)
}

/// [`block_tally`] compiled for AVX2, which is where its lanes pay. Kept
/// a symbol of its own so `scripts/verify.sh --asm` can check that it
/// vectorizes.
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline(never)]
unsafe fn ep_tally_avx2(params: EpParams, block: usize) -> Tally {
    block_tally(params, block)
}

/// The block tally for this CPU: the AVX2 copy when the CPU has AVX2,
/// else [`block_tally`] built for the baseline target. Both return the
/// same bits.
fn pick_tally() -> fn(EpParams, usize) -> Tally {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return |params, block| {
            // SAFETY: this closure is returned only after the CPU
            // reported AVX2 just above.
            unsafe { ep_tally_avx2(params, block) }
        };
    }
    block_tally
}

/// Run EP with the parallel block loop scheduled by `sched`. The body
/// runs inside one `install`, so a pool worker issues the block loop.
pub fn ep(pool: &ThreadPool, params: EpParams, sched: Schedule) -> EpResult {
    use std::sync::atomic::{AtomicU64, Ordering};

    let tally = pick_tally();
    pool.install(|| {
        let blocks = params.blocks();
        let q_tot: Vec<AtomicU64> = (0..10).map(|_| AtomicU64::new(0)).collect();
        let q_ref = &q_tot;

        // sx and sy come from two reduction passes sharing nothing; EP's
        // cost is the per-block generation and tally, so we fold the tally
        // into one pass and reduce sx, capturing sy and q via atomics.
        let sy_bits = AtomicU64::new(0.0_f64.to_bits());
        let sy_ref = &sy_bits;

        let sx = par_sum(pool, 0..blocks, sched, |b| {
            let (bsx, bsy, bq) = tally(params, b);
            for (slot, &c) in q_ref.iter().zip(&bq) {
                slot.fetch_add(c, Ordering::Relaxed);
            }
            // Atomic f64 add via CAS (low contention: once per block).
            let mut cur = sy_ref.load(Ordering::Relaxed);
            loop {
                let new = (f64::from_bits(cur) + bsy).to_bits();
                match sy_ref.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed) {
                    Ok(_) => break,
                    Err(c) => cur = c,
                }
            }
            bsx
        });

        let mut q = [0u64; 10];
        for (dst, src) in q.iter_mut().zip(&q_tot) {
            *dst = src.load(Ordering::Relaxed);
        }
        EpResult {
            sx,
            sy: f64::from_bits(sy_bits.load(Ordering::Relaxed)),
            q,
            accepted: q.iter().sum(),
        }
    })
}

/// Sequential reference (block order, deterministic summation).
pub fn ep_sequential(params: EpParams) -> EpResult {
    let tally = pick_tally();
    let (mut sx, mut sy) = (0.0, 0.0);
    let mut q = [0u64; 10];
    for b in 0..params.blocks() {
        let (bsx, bsy, bq) = tally(params, b);
        sx += bsx;
        sy += bsy;
        for (dst, c) in q.iter_mut().zip(&bq) {
            *dst += c;
        }
    }
    EpResult { sx, sy, q, accepted: q.iter().sum() }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference tally: one `randlc` call per deviate, libm's `ln` and
    /// one branch per pair, summed in pair order.
    fn block_tally_per_deviate(params: EpParams, block: usize) -> Tally {
        use crate::randdp::randlc;
        let pairs = params.pairs_per_block();
        let mut x = seed_after(SEED, (block * 2 * pairs) as u64);
        let (mut sx, mut sy) = (0.0_f64, 0.0_f64);
        let mut q = [0u64; 10];
        for _ in 0..pairs {
            let u1 = 2.0 * randlc(&mut x, A) - 1.0;
            let u2 = 2.0 * randlc(&mut x, A) - 1.0;
            let t = u1 * u1 + u2 * u2;
            if t <= 1.0 && t > 0.0 {
                let f = (-2.0 * t.ln() / t).sqrt();
                let (gx, gy) = (u1 * f, u2 * f);
                sx += gx;
                sy += gy;
                q[(gx.abs().max(gy.abs()) as usize).min(9)] += 1;
            }
        }
        (sx, sy, q)
    }

    /// Distance in units in the last place between two finite `f64`s of
    /// the same sign.
    fn ulps(a: f64, b: f64) -> u64 {
        assert_eq!(a.is_sign_negative(), b.is_sign_negative(), "{a} and {b}");
        a.to_bits().abs_diff(b.to_bits())
    }

    #[test]
    fn ln_is_within_one_ulp_of_libm_on_ep_inputs() {
        assert_eq!(ln(1.0).to_bits(), 0.0_f64.to_bits());
        // Log-spaced over EP's whole range of `t`, [2^-90, 1] ...
        const SPACED: u32 = 1_000_000;
        let spaced = (0..=SPACED).map(|i| (-90.0 * f64::from(i) / f64::from(SPACED)).exp2());
        // ... and the last 2^17 doubles below 1, where ln(t) is nearly 0.
        let near_one = (1..=1u32 << 17).map(|k| 1.0 - f64::from(k) * f64::EPSILON / 2.0);
        let mut worst = (0, 1.0);
        for t in spaced.chain(near_one) {
            assert!(t > 0.0 && t <= 1.0, "{t} outside (0, 1]");
            let d = ulps(ln(t), t.ln());
            if d > worst.0 {
                worst = (d, t);
            }
        }
        assert!(worst.0 <= 1, "ln({}) is {} ulps from libm", worst.1, worst.0);
    }

    #[test]
    fn lane_tally_matches_one_randlc_per_deviate() {
        // Blocks shorter than one lane group (1 and 2 pairs, padded),
        // shorter than, equal to and longer than one batch.
        for nk_log in [0, 1, 3, 10, 13] {
            let params = EpParams { m: nk_log + 3, nk_log };
            for block in 0..params.blocks() {
                let (sx, sy, q) = block_tally(params, block);
                let (rx, ry, rq) = block_tally_per_deviate(params, block);
                // Acceptance and binning are exact; the sums differ only by
                // `ln`'s last bit and the lanes' summation order.
                assert_eq!(q, rq, "nk_log {nk_log} block {block}");
                for (got, want) in [(sx, rx), (sy, ry)] {
                    let close = (got - want).abs() <= 1e-12 * want.abs();
                    assert!(close, "nk_log {nk_log} block {block}: {got} vs {want}");
                }
            }
        }
    }

    #[test]
    fn avx2_tally_is_bit_identical_to_baseline() {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            let params = EpParams::mini();
            for block in 0..params.blocks() {
                let (sx, sy, q) = block_tally(params, block);
                // SAFETY: the CPU reported AVX2 just above.
                let (vx, vy, vq) = unsafe { ep_tally_avx2(params, block) };
                assert_eq!((sx.to_bits(), sy.to_bits(), q), (vx.to_bits(), vy.to_bits(), vq));
            }
            return;
        }
        eprintln!("skipped: this CPU has no AVX2 tally to compare with the baseline");
    }

    #[test]
    fn acceptance_rate_near_pi_over_4() {
        let params = EpParams::mini();
        let r = ep_sequential(params);
        let total = (params.blocks() * params.pairs_per_block()) as f64;
        let rate = r.accepted as f64 / total;
        assert!((rate - std::f64::consts::FRAC_PI_4).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn gaussian_sums_are_small_relative_to_count() {
        // Mean of a standard Gaussian is 0; |sum| ≈ O(sqrt(count)).
        let r = ep_sequential(EpParams::mini());
        let bound = 20.0 * (r.accepted as f64).sqrt();
        assert!(r.sx.abs() < bound, "sx {}", r.sx);
        assert!(r.sy.abs() < bound, "sy {}", r.sy);
    }

    #[test]
    fn annulus_counts_decay() {
        let r = ep_sequential(EpParams::mini());
        // Nearly all mass is within |X| < 4.
        let head: u64 = r.q[..4].iter().sum();
        assert!(head as f64 / r.accepted as f64 > 0.999);
        assert!(r.q[0] > r.q[1] && r.q[1] > r.q[2]);
    }

    #[test]
    fn parallel_matches_sequential_under_every_schedule() {
        let pool = ThreadPool::new(3);
        let params = EpParams::mini();
        let reference = ep_sequential(params);
        for sched in Schedule::roster(params.blocks(), 3) {
            let r = ep(&pool, params, sched);
            assert_eq!(r.q, reference.q, "{}: annulus counts differ", sched.name());
            assert!(
                (r.sx - reference.sx).abs() < 1e-9,
                "{}: sx {} vs {}",
                sched.name(),
                r.sx,
                reference.sx
            );
            assert!(
                (r.sy - reference.sy).abs() < 1e-9,
                "{}: sy {} vs {}",
                sched.name(),
                r.sy,
                reference.sy
            );
        }
    }

    #[test]
    fn blocks_are_independent_of_partitioning() {
        // Same total pairs, different block size => same tallies.
        let a = ep_sequential(EpParams { m: 16, nk_log: 8 });
        let b = ep_sequential(EpParams { m: 16, nk_log: 10 });
        assert_eq!(a.q, b.q);
        assert!((a.sx - b.sx).abs() < 1e-9);
        assert!((a.sy - b.sy).abs() < 1e-9);
    }
}
