//! FT — 3D fast Fourier transform with time evolution (NAS FT structure).
//!
//! The benchmark solves a 3D diffusion PDE spectrally: transform a random
//! initial state once, then for each time step scale the spectrum by
//! Gaussian decay factors and inverse-transform, recording a checksum of
//! 1024 fixed sample points. Each dimensional FFT pass is a parallel loop
//! over pencils (1D lines), which is exactly the loop structure whose
//! strided, whole-array traversals make FT locality-sensitive.

use std::ops::{Add, Mul, Sub};

use parloop_core::{par_for, par_for_chunks, Schedule};
use parloop_runtime::ThreadPool;

use crate::randdp::{randlc, A as LCG_A, SEED};
use crate::util::UnsafeSlice;

/// A complex number (no external deps).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    pub re: f64,
    pub im: f64,
}

impl Complex {
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };

    pub fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    #[inline]
    pub fn scale(self, s: f64) -> Self {
        Complex { re: self.re * s, im: self.im * s }
    }

    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }
}

impl Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, o: Complex) -> Complex {
        Complex { re: self.re + o.re, im: self.im + o.im }
    }
}

impl Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, o: Complex) -> Complex {
        Complex { re: self.re - o.re, im: self.im - o.im }
    }
}

impl Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, o: Complex) -> Complex {
        Complex { re: self.re * o.re - self.im * o.im, im: self.re * o.im + self.im * o.re }
    }
}

/// The twiddle table of an `n`-point transform: `w[k] = exp(±2πik/n)`
/// for `k < n/2`, the sign `+` for the inverse. Each entry comes straight
/// from `cos`/`sin`; a running product `w · wlen` would compound its
/// rounding with every step.
fn twiddles(n: usize, inverse: bool) -> Vec<Complex> {
    let sign = if inverse { 1.0 } else { -1.0 };
    (0..n / 2)
        .map(|k| {
            let ang = sign * 2.0 * std::f64::consts::PI * k as f64 / n as f64;
            Complex::new(ang.cos(), ang.sin())
        })
        .collect()
}

/// Iterative radix-2 Cooley–Tukey FFT, in place. `inverse` flips the
/// twiddle sign (no normalization here; callers scale once).
pub fn fft1d(buf: &mut [Complex], inverse: bool) {
    fft1d_with(buf, &twiddles(buf.len(), inverse));
}

/// [`fft1d`] with the [`twiddles`] table of `buf.len()` points, so a pass
/// over many pencils of one length builds it once. The stage of length
/// `len` uses every `(n / len)`-th entry: `exp(±2πik/len) = w[k · n/len]`.
fn fft1d_with(buf: &mut [Complex], w: &[Complex]) {
    let n = buf.len();
    assert!(n.is_power_of_two(), "FFT length must be a power of two");
    debug_assert_eq!(w.len(), n / 2);
    // Bit-reversal permutation.
    let mut j = 0usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            buf.swap(i, j);
        }
    }
    let mut len = 2;
    while len <= n {
        for block in buf.chunks_exact_mut(len) {
            let (lo, hi) = block.split_at_mut(len / 2);
            for ((u, v), &wk) in lo.iter_mut().zip(hi).zip(w.iter().step_by(n / len)) {
                let (a, b) = (*u, *v * wk);
                *u = a + b;
                *v = a - b;
            }
        }
        len <<= 1;
    }
}

/// FT problem parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FtParams {
    pub n1: usize,
    pub n2: usize,
    pub n3: usize,
    /// Time steps (checksums recorded per step).
    pub iters: usize,
}

impl FtParams {
    /// NAS class-S shape: 64³, 6 steps.
    pub fn class_s() -> Self {
        FtParams { n1: 64, n2: 64, n3: 64, iters: 6 }
    }

    /// Miniature instance for fast tests.
    pub fn mini() -> Self {
        FtParams { n1: 16, n2: 16, n3: 16, iters: 3 }
    }

    pub fn total(&self) -> usize {
        self.n1 * self.n2 * self.n3
    }
}

/// A 3D complex grid, flattened as `((k3·n2 + k2)·n1 + k1)`.
pub struct CGrid {
    pub p: FtParams,
    pub data: Vec<Complex>,
}

impl CGrid {
    fn zeros(p: FtParams) -> Self {
        CGrid { p, data: vec![Complex::ZERO; p.total()] }
    }

    #[inline]
    fn idx(&self, k3: usize, k2: usize, k1: usize) -> usize {
        (k3 * self.p.n2 + k2) * self.p.n1 + k1
    }
}

/// FFT along dimension 1 (contiguous pencils), parallel over (k2, k3).
/// Each chunk's pencils are one contiguous run of the grid, transformed
/// in place.
fn fft_dim1(pool: &ThreadPool, sched: Schedule, g: &mut CGrid, inverse: bool) {
    let (n1, n2, n3) = (g.p.n1, g.p.n2, g.p.n3);
    let w = twiddles(n1, inverse);
    let s = UnsafeSlice::new(&mut g.data);
    par_for_chunks(pool, 0..n2 * n3, sched, |chunk| {
        // SAFETY: pencil `p` is `p·n1..(p+1)·n1`, so the chunks the
        // scheduler hands out (disjoint, each run once) cover disjoint,
        // in-bounds runs of the grid.
        let pencils = unsafe { s.slice_mut(chunk.start * n1..chunk.end * n1) };
        for pencil in pencils.chunks_exact_mut(n1) {
            fft1d_with(pencil, &w);
        }
    });
}

/// FFT along a strided dimension of `grid`: pencil `p` is the `n` points
/// `base(p) + k·stride`, for each of the `grid.len() / n` pencils. Each
/// chunk gathers its pencils one at a time into one buffer, transforms it
/// and scatters it back.
fn fft_strided(
    pool: &ThreadPool,
    sched: Schedule,
    grid: &mut [Complex],
    n: usize,
    stride: usize,
    base: impl Fn(usize) -> usize + Sync,
    inverse: bool,
) {
    let w = twiddles(n, inverse);
    let pencils = grid.len() / n;
    let s = UnsafeSlice::new(grid);
    par_for_chunks(pool, 0..pencils, sched, |chunk| {
        let mut buf = vec![Complex::ZERO; n];
        for p in chunk {
            let b = base(p);
            // SAFETY: distinct pencils are disjoint, in-bounds index sets
            // of the grid, and the scheduler runs each pencil exactly once.
            for (k, slot) in buf.iter_mut().enumerate() {
                *slot = unsafe { s.read(b + k * stride) };
            }
            fft1d_with(&mut buf, &w);
            for (k, &v) in buf.iter().enumerate() {
                // SAFETY: as for the gather above.
                unsafe { s.write(b + k * stride, v) };
            }
        }
    });
}

/// FFT along dimension 2 (stride n1), parallel over (k1, k3).
fn fft_dim2(pool: &ThreadPool, sched: Schedule, g: &mut CGrid, inverse: bool) {
    let (n1, n2) = (g.p.n1, g.p.n2);
    fft_strided(pool, sched, &mut g.data, n2, n1, |p| (p / n1) * n2 * n1 + p % n1, inverse);
}

/// FFT along dimension 3 (stride n1·n2), parallel over (k1, k2).
fn fft_dim3(pool: &ThreadPool, sched: Schedule, g: &mut CGrid, inverse: bool) {
    let plane = g.p.n1 * g.p.n2;
    fft_strided(pool, sched, &mut g.data, g.p.n3, plane, |p| p, inverse);
}

/// Full 3D FFT (all three dimensions).
pub fn fft3d(pool: &ThreadPool, sched: Schedule, g: &mut CGrid, inverse: bool) {
    if inverse {
        fft_dim3(pool, sched, g, true);
        fft_dim2(pool, sched, g, true);
        fft_dim1(pool, sched, g, true);
    } else {
        fft_dim1(pool, sched, g, false);
        fft_dim2(pool, sched, g, false);
        fft_dim3(pool, sched, g, false);
    }
}

/// The signed frequency of index `k` on an axis of length `n`.
#[inline]
fn freq(k: usize, n: usize) -> f64 {
    if k <= n / 2 {
        k as f64
    } else {
        k as f64 - n as f64
    }
}

/// FT output: one complex checksum per time step.
#[derive(Debug, Clone, PartialEq)]
pub struct FtResult {
    pub checksums: Vec<Complex>,
}

/// Run the FT benchmark under `sched`. The body runs inside one
/// `install`, so a pool worker issues every loop.
pub fn ft(pool: &ThreadPool, p: FtParams, sched: Schedule) -> FtResult {
    const ALPHA: f64 = 1e-6;
    let total = p.total();
    // The grids come from the caller's allocator, not the worker's (DESIGN
    // §5.5, "One `install` per kernel").
    let mut u0 = CGrid::zeros(p);
    let mut decay = vec![0.0f64; total];
    let mut work = CGrid::zeros(p);
    pool.install(|| {
        // Random initial state (NPB seeds the grid from the NAS LCG).
        let mut x = SEED;
        for c in &mut u0.data {
            let re = randlc(&mut x, LCG_A);
            let im = randlc(&mut x, LCG_A);
            *c = Complex::new(re, im);
        }

        // Forward transform once.
        fft3d(pool, sched, &mut u0, false);

        // Per-mode decay factors exp(−4 α π² |k̄|²).
        {
            let d = UnsafeSlice::new(&mut decay);
            par_for(pool, 0..p.n3, sched, |k3| {
                let f3 = freq(k3, p.n3);
                for k2 in 0..p.n2 {
                    let f2 = freq(k2, p.n2);
                    for k1 in 0..p.n1 {
                        let f1 = freq(k1, p.n1);
                        let ksq = f1 * f1 + f2 * f2 + f3 * f3;
                        let idx = (k3 * p.n2 + k2) * p.n1 + k1;
                        unsafe {
                            d.write(idx, (-4.0 * ALPHA * std::f64::consts::PI.powi(2) * ksq).exp())
                        };
                    }
                }
            });
        }

        let mut checksums = Vec::with_capacity(p.iters);
        let inv_total = 1.0 / total as f64;

        for step in 1..=p.iters {
            // work = u0 ⊙ decay^step, elementwise (parallel).
            {
                let w = UnsafeSlice::new(&mut work.data);
                let u0_ref = &u0;
                let decay_ref = &decay;
                par_for_chunks(pool, 0..total, sched, |chunk| {
                    for i in chunk {
                        let f = decay_ref[i].powi(step as i32);
                        unsafe { w.write(i, u0_ref.data[i].scale(f)) };
                    }
                });
            }
            // Inverse transform back to physical space.
            fft3d(pool, sched, &mut work, true);

            // Checksum over 1024 fixed sample points (sequential: bitwise
            // deterministic across schedulers).
            let mut sum = Complex::ZERO;
            for j in 1..=1024usize {
                let q = (5 * j) % p.n1;
                let r = (3 * j) % p.n2;
                let s_ = j % p.n3;
                sum = sum + work.data[work.idx(s_, r, q)].scale(inv_total);
            }
            checksums.push(sum.scale(1.0 / 1024.0));
        }

        FtResult { checksums }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fft1d_of_impulse_is_flat() {
        let mut buf = vec![Complex::ZERO; 8];
        buf[0] = Complex::new(1.0, 0.0);
        fft1d(&mut buf, false);
        for c in &buf {
            assert!((c.re - 1.0).abs() < 1e-12 && c.im.abs() < 1e-12);
        }
    }

    /// The O(n²) DFT `X_j = Σ_k x_k · exp(∓2πi·jk/n)`, with `jk` reduced
    /// mod `n` so each factor is as accurate as `cos`/`sin`.
    fn naive_dft(x: &[Complex], inverse: bool) -> Vec<Complex> {
        let n = x.len();
        let sign = if inverse { 1.0 } else { -1.0 };
        (0..n)
            .map(|j| {
                x.iter().enumerate().fold(Complex::ZERO, |acc, (k, &v)| {
                    let ang = sign * 2.0 * std::f64::consts::PI * ((j * k) % n) as f64 / n as f64;
                    acc + v * Complex::new(ang.cos(), ang.sin())
                })
            })
            .collect()
    }

    #[test]
    fn fft1d_matches_naive_dft() {
        // A wrong twiddle stride can keep the transform invertible (and
        // pass the roundtrip and Parseval tests) while computing another
        // transform; the DFT itself catches it.
        let mut x = SEED;
        let mut uniform = || 2.0 * randlc(&mut x, LCG_A) - 1.0;
        for n in (1..=8).map(|log_n| 1usize << log_n) {
            let input: Vec<Complex> = (0..n).map(|_| Complex::new(uniform(), uniform())).collect();
            for inverse in [false, true] {
                let mut got = input.clone();
                fft1d(&mut got, inverse);
                let want = naive_dft(&input, inverse);
                let err = got
                    .iter()
                    .zip(&want)
                    .map(|(&a, &b)| (a - b).norm_sqr().sqrt())
                    .fold(0.0, f64::max);
                assert!(err <= 1e-12, "n = {n}, inverse = {inverse}: max error {err:e}");
            }
        }
    }

    #[test]
    fn fft1d_roundtrip_identity() {
        let mut x = SEED;
        let orig: Vec<Complex> =
            (0..64).map(|_| Complex::new(randlc(&mut x, LCG_A), randlc(&mut x, LCG_A))).collect();
        let mut buf = orig.clone();
        fft1d(&mut buf, false);
        fft1d(&mut buf, true);
        for (a, b) in buf.iter().zip(&orig) {
            let d = (*a - *b).scale(1.0 / 64.0);
            let recon = a.scale(1.0 / 64.0);
            let want = *b;
            assert!(
                (recon.re - want.re).abs() < 1e-10 && (recon.im - want.im).abs() < 1e-10,
                "roundtrip error {d:?}"
            );
        }
    }

    #[test]
    fn parseval_holds_for_fft1d() {
        let mut x = 7.0;
        let sig: Vec<Complex> =
            (0..32).map(|_| Complex::new(randlc(&mut x, LCG_A) - 0.5, 0.0)).collect();
        let time_energy: f64 = sig.iter().map(|c| c.norm_sqr()).sum();
        let mut buf = sig;
        fft1d(&mut buf, false);
        let freq_energy: f64 = buf.iter().map(|c| c.norm_sqr()).sum::<f64>() / 32.0;
        assert!((time_energy - freq_energy).abs() < 1e-9);
    }

    #[test]
    fn fft3d_roundtrip_identity() {
        let pool = ThreadPool::new(2);
        let p = FtParams { n1: 8, n2: 8, n3: 8, iters: 1 };
        let mut g = CGrid::zeros(p);
        let mut x = SEED;
        for c in &mut g.data {
            *c = Complex::new(randlc(&mut x, LCG_A), randlc(&mut x, LCG_A));
        }
        let orig = g.data.clone();
        fft3d(&pool, Schedule::hybrid(), &mut g, false);
        fft3d(&pool, Schedule::hybrid(), &mut g, true);
        let scale = 1.0 / p.total() as f64;
        for (a, b) in g.data.iter().zip(&orig) {
            assert!((a.re * scale - b.re).abs() < 1e-10);
            assert!((a.im * scale - b.im).abs() < 1e-10);
        }
    }

    #[test]
    fn checksums_identical_across_schedules() {
        let pool = ThreadPool::new(3);
        let p = FtParams::mini();
        let reference = ft(&pool, p, Schedule::omp_static());
        for sched in Schedule::roster(p.total(), 3) {
            let r = ft(&pool, p, sched);
            for (i, (a, b)) in r.checksums.iter().zip(&reference.checksums).enumerate() {
                assert!(
                    (a.re - b.re).abs() < 1e-9 && (a.im - b.im).abs() < 1e-9,
                    "{} step {i}: {a:?} vs {b:?}",
                    sched.name()
                );
            }
        }
    }

    #[test]
    fn non_cubic_grids_roundtrip() {
        let pool = ThreadPool::new(2);
        let p = FtParams { n1: 16, n2: 8, n3: 4, iters: 1 };
        let mut g = CGrid::zeros(p);
        let mut x = SEED;
        for c in &mut g.data {
            *c = Complex::new(randlc(&mut x, LCG_A), randlc(&mut x, LCG_A));
        }
        let orig = g.data.clone();
        fft3d(&pool, Schedule::vanilla(), &mut g, false);
        fft3d(&pool, Schedule::vanilla(), &mut g, true);
        let scale = 1.0 / p.total() as f64;
        for (a, b) in g.data.iter().zip(&orig) {
            assert!((a.re * scale - b.re).abs() < 1e-10);
            assert!((a.im * scale - b.im).abs() < 1e-10);
        }
    }

    #[test]
    fn non_cubic_ft_runs_and_agrees() {
        let pool = ThreadPool::new(2);
        let p = FtParams { n1: 32, n2: 8, n3: 16, iters: 2 };
        let a = ft(&pool, p, Schedule::hybrid());
        let b = ft(&pool, p, Schedule::omp_static());
        for (x, y) in a.checksums.iter().zip(&b.checksums) {
            assert!((x.re - y.re).abs() < 1e-9 && (x.im - y.im).abs() < 1e-9);
        }
    }

    #[test]
    fn evolution_decays_high_frequencies() {
        let pool = ThreadPool::new(2);
        let p = FtParams::mini();
        let r = ft(&pool, p, Schedule::hybrid());
        assert_eq!(r.checksums.len(), p.iters);
        // All checksums finite and nonzero.
        for c in &r.checksums {
            assert!(c.re.is_finite() && c.im.is_finite());
            assert!(c.norm_sqr() > 0.0);
        }
    }
}
