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

use crate::randdp::{fill, seed_after, word, A, SEED};
use crate::util::par_sum;

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
    const EPSILON: f64 = 1e-8;
    let (sx, sy) = CLASS_S_SUMS;
    ((r.sx - sx) / sx).abs() <= EPSILON && ((r.sy - sy) / sy).abs() <= EPSILON
}

/// Deviates generated per batch before their pairs are tallied: 16 KiB
/// of stack, so a batch stays in L1 between generation and tally.
const BATCH: usize = 2048;

/// Per-block tally, merged across the parallel loop.
///
/// NPB's `vranlc`-then-tally shape: the generator fills a batch of
/// deviates in one tight integer loop, then the tally walks its pairs.
/// The deviates and their order are those of one `randlc` call per
/// deviate, so `sx`, `sy` and `q` are bit-identical to that form.
fn block_tally(params: EpParams, block: usize) -> (f64, f64, [u64; 10]) {
    let deviates = 2 * params.pairs_per_block();
    // Jump the seed past the deviates of all preceding blocks.
    let mut x = word(seed_after(SEED, block as u64 * deviates as u64));
    let a = word(A);

    let (mut sx, mut sy) = (0.0_f64, 0.0_f64);
    let mut q = [0u64; 10];
    let mut batch = [0.0_f64; BATCH];
    let mut left = deviates;
    while left > 0 {
        // Both `deviates` and `BATCH` are even, so batches hold whole pairs.
        let batch = &mut batch[..left.min(BATCH)];
        left -= batch.len();
        fill(&mut x, a, batch);
        for pair in batch.chunks_exact(2) {
            let u1 = 2.0 * pair[0] - 1.0;
            let u2 = 2.0 * pair[1] - 1.0;
            let t = u1 * u1 + u2 * u2;
            if t <= 1.0 && t > 0.0 {
                let f = (-2.0 * t.ln() / t).sqrt();
                let gx = u1 * f;
                let gy = u2 * f;
                sx += gx;
                sy += gy;
                let bin = gx.abs().max(gy.abs()) as usize;
                q[bin.min(9)] += 1;
            }
        }
    }
    (sx, sy, q)
}

/// Run EP with the parallel block loop scheduled by `sched`.
pub fn ep(pool: &ThreadPool, params: EpParams, sched: Schedule) -> EpResult {
    use std::sync::atomic::{AtomicU64, Ordering};

    let blocks = params.blocks();
    let q_tot: Vec<AtomicU64> = (0..10).map(|_| AtomicU64::new(0)).collect();
    let q_ref = &q_tot;

    // sx and sy come from two reduction passes sharing nothing; EP's cost
    // is the per-block generation and tally, so we fold the tally into one
    // pass and reduce sx, capturing sy and q via atomics.
    let sy_bits = AtomicU64::new(0.0_f64.to_bits());
    let sy_ref = &sy_bits;

    let sx = par_sum(pool, 0..blocks, sched, |b| {
        let (bsx, bsy, bq) = block_tally(params, b);
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
        *dst = src.load(std::sync::atomic::Ordering::Relaxed);
    }
    EpResult {
        sx,
        sy: f64::from_bits(sy_bits.load(std::sync::atomic::Ordering::Relaxed)),
        q,
        accepted: q.iter().sum(),
    }
}

/// Sequential reference (block order, deterministic summation).
pub fn ep_sequential(params: EpParams) -> EpResult {
    let (mut sx, mut sy) = (0.0, 0.0);
    let mut q = [0u64; 10];
    for b in 0..params.blocks() {
        let (bsx, bsy, bq) = block_tally(params, b);
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

    /// The tally with one `randlc` call per deviate, as before batching.
    fn block_tally_per_deviate(params: EpParams, block: usize) -> (f64, f64, [u64; 10]) {
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

    #[test]
    fn batched_tally_is_bit_identical_to_one_randlc_per_deviate() {
        // Blocks shorter than, equal to and longer than one batch.
        for nk_log in [3, 10, 13] {
            let params = EpParams { m: nk_log + 3, nk_log };
            for block in 0..params.blocks() {
                let (sx, sy, q) = block_tally(params, block);
                let (rx, ry, rq) = block_tally_per_deviate(params, block);
                assert_eq!((sx.to_bits(), sy.to_bits(), q), (rx.to_bits(), ry.to_bits(), rq));
            }
        }
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
