//! The NAS double-precision linear congruential generator (`randdp`).
//!
//! `x_{k+1} = a · x_k mod 2^46` with `a = 5^13`. NPB's reference `randlc`
//! forms that product exactly in double precision by splitting both
//! operands into 23-bit halves; NPB also ships the same generator in
//! 64-bit integer arithmetic (`randi8`). This module uses the integer
//! form: states and multipliers are non-negative integers below 2^46, held
//! exactly in an `f64` at the public interface and as a `u64` inside. The
//! wrapping 64-bit product masked to 46 bits is `a · x mod 2^46`, because
//! 2^46 divides 2^64, so every deviate is bit-identical to the float
//! split's (the tests keep that split as a reference and compare them),
//! at a few cycles per step instead of a long floating-point chain.
//!
//! The generator supports O(log n) jump-ahead via [`power_mod`], which is
//! what lets EP's pair blocks be generated independently in parallel.

/// The LCG modulus 2^46.
const MOD: u64 = 1 << 46;
/// 2^-46: scales a state to its deviate (exact, a power of two).
const R46: f64 = 1.0 / MOD as f64;

/// The NPB multiplier `a = 5^13`.
pub const A: f64 = 1_220_703_125.0;

/// Default NPB seed.
pub const SEED: f64 = 271_828_183.0;

/// `v` as a generator word: the precondition of every function here is
/// that states and multipliers are integers in `[0, 2^46)`, which an `f64`
/// holds exactly, so the conversion loses nothing.
#[inline]
pub(crate) fn word(v: f64) -> u64 {
    debug_assert!((0.0..MOD as f64).contains(&v) && v.trunc() == v, "{v} is not in [0, 2^46)");
    v as u64
}

/// `a · x mod 2^46`, exactly: the wrapping product keeps the low 64 bits
/// of `a · x`, and 2^46 divides 2^64, so its low 46 bits are those of the
/// full product.
#[inline]
fn mul46(x: u64, a: u64) -> u64 {
    x.wrapping_mul(a) & (MOD - 1)
}

/// Advance `x` one LCG step with multiplier `a`; returns the uniform
/// deviate `x · 2^-46` in `(0, 1)`.
///
/// `x` and `a` must be integers in `[0, 2^46)` (debug-asserted); every
/// state and multiplier this crate passes is one.
pub fn randlc(x: &mut f64, a: f64) -> f64 {
    *x = mul46(word(*x), word(a)) as f64;
    R46 * *x
}

/// Deviates a kernel draws per [`fill`] batch before consuming them: 16
/// KiB of stack, so a batch stays in L1 between generation and use.
pub(crate) const BATCH: usize = 2048;

/// Fill `out` with uniform deviates, advancing the integer state `x` by
/// `out.len()` steps with multiplier `a` — [`vranlc`] without converting
/// the state, for loops that keep it as a `u64` across batches.
#[inline]
pub(crate) fn fill(x: &mut u64, a: u64, out: &mut [f64]) {
    let mut s = *x;
    for slot in out {
        s = mul46(s, a);
        *slot = R46 * s as f64;
    }
    *x = s;
}

/// Fill `out` with uniform deviates, advancing `x` by `out.len()` steps.
pub fn vranlc(x: &mut f64, a: f64, out: &mut [f64]) {
    let mut s = word(*x);
    fill(&mut s, word(a), out);
    *x = s as f64;
}

/// Compute `a^n mod 2^46` in the LCG's arithmetic (square-and-multiply) —
/// the jump-ahead multiplier for skipping `n` steps at once.
pub fn power_mod(a: f64, mut n: u64) -> f64 {
    let mut result = 1;
    let mut base = word(a);
    while n > 0 {
        if n & 1 == 1 {
            result = mul46(result, base);
        }
        base = mul46(base, base);
        n >>= 1;
    }
    result as f64
}

/// Seed the generator as if `steps` values had already been drawn from
/// `seed` with multiplier [`A`].
pub fn seed_after(seed: f64, steps: u64) -> f64 {
    let mult = power_mod(A, steps);
    let mut x = seed;
    randlc(&mut x, mult);
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    /// NPB's reference `randlc`: the same step in double precision, with
    /// both operands split into 23-bit halves so that every partial
    /// product stays below 2^53 and is exact.
    fn randlc_float_split(x: &mut f64, a: f64) -> f64 {
        const T23: f64 = 8_388_608.0; // 2^23
        const R23: f64 = 1.0 / T23;
        const T46: f64 = T23 * T23;
        // a = 2^23·a1 + a2, x = 2^23·x1 + x2.
        let a1 = (R23 * a).trunc();
        let a2 = a - T23 * a1;
        let x1 = (R23 * *x).trunc();
        let x2 = *x - T23 * x1;
        // z = a1·x2 + a2·x1 (mod 2^23); x = 2^23·z + a2·x2 (mod 2^46).
        let t1 = a1 * x2 + a2 * x1;
        let z = t1 - T23 * (R23 * t1).trunc();
        let t3 = T23 * z + a2 * x2;
        *x = t3 - T46 * (R46 * t3).trunc();
        R46 * *x
    }

    /// [`power_mod`] built on the float split, as the parent scheme did.
    fn power_mod_float_split(a: f64, mut n: u64) -> f64 {
        let (mut result, mut base) = (1.0, a);
        while n > 0 {
            if n & 1 == 1 {
                randlc_float_split(&mut result, base);
            }
            let mut sq = base;
            randlc_float_split(&mut sq, base);
            base = sq;
            n >>= 1;
        }
        result
    }

    #[test]
    fn integer_step_is_bit_identical_to_float_split_over_a_million_draws() {
        let (mut x, mut y) = (SEED, SEED);
        for i in 0..1_200_000 {
            let (r, s) = (randlc(&mut x, A), randlc_float_split(&mut y, A));
            assert_eq!(x.to_bits(), y.to_bits(), "state diverged at step {i}");
            assert_eq!(r.to_bits(), s.to_bits(), "deviate diverged at step {i}");
        }
    }

    #[test]
    fn every_class_s_ep_block_seed_is_bit_identical_to_float_split() {
        // EP class S: 2^24 pairs in 256 blocks of 2^16 pairs.
        let deviates_per_block = 2u64 << 16;
        for block in 0..256u64 {
            let steps = block * deviates_per_block;
            let jump = power_mod(A, steps);
            assert_eq!(jump.to_bits(), power_mod_float_split(A, steps).to_bits(), "block {block}");
            let mut x = seed_after(SEED, steps);
            let mut y = SEED;
            randlc_float_split(&mut y, jump);
            assert_eq!(x.to_bits(), y.to_bits(), "block {block} seed");
            for i in 0..64 {
                let (r, s) = (randlc(&mut x, A), randlc_float_split(&mut y, A));
                assert_eq!(r.to_bits(), s.to_bits(), "block {block} deviate {i}");
            }
        }
    }

    #[test]
    fn power_mod_is_bit_identical_to_float_split_up_to_2_pow_25() {
        let mut spread: Vec<u64> = (0..=64).collect();
        for k in 0..=25 {
            spread.extend([(1 << k) - 1, 1 << k, (1 << k) + 1]);
        }
        // Irregular exponents: the generator's own words, folded below 2^25.
        let mut x = SEED;
        spread.extend((0..200).map(|_| {
            randlc(&mut x, A);
            word(x) % (1 << 25)
        }));
        for n in spread {
            for a in [A, 3.0, SEED, (MOD - 1) as f64] {
                let (got, want) = (power_mod(a, n), power_mod_float_split(a, n));
                assert_eq!(got.to_bits(), want.to_bits(), "{a}^{n}");
            }
        }
    }

    #[test]
    fn deviates_in_unit_interval() {
        let mut x = SEED;
        for _ in 0..10_000 {
            let r = randlc(&mut x, A);
            assert!(r > 0.0 && r < 1.0, "deviate {r} out of range");
        }
    }

    #[test]
    fn state_stays_integral_and_bounded() {
        let mut x = SEED;
        for _ in 0..1000 {
            randlc(&mut x, A);
            assert_eq!(x, x.trunc(), "state must remain an integer");
            assert!(x < MOD as f64, "state {x} exceeds 2^46");
            assert!(x >= 0.0);
        }
    }

    #[test]
    fn jump_ahead_matches_stepping() {
        for steps in [1u64, 2, 7, 100, 12345] {
            let mut x = SEED;
            for _ in 0..steps {
                randlc(&mut x, A);
            }
            let jumped = seed_after(SEED, steps);
            assert_eq!(x, jumped, "jump-ahead of {steps} diverged");
        }
    }

    #[test]
    fn vranlc_equals_repeated_randlc() {
        let mut x1 = SEED;
        let mut buf = vec![0.0; 100];
        vranlc(&mut x1, A, &mut buf);
        let mut x2 = SEED;
        for (i, &v) in buf.iter().enumerate() {
            let r = randlc(&mut x2, A);
            assert_eq!(r, v, "index {i}");
        }
        assert_eq!(x1, x2);
    }

    #[test]
    fn power_mod_identity_and_one_step() {
        assert_eq!(power_mod(A, 0), 1.0);
        assert_eq!(power_mod(A, 1), A);
    }

    #[test]
    fn mean_is_about_half() {
        let mut x = SEED;
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| randlc(&mut x, A)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }
}
