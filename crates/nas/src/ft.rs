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

use crate::randdp::{fill, seed_after, word, A as LCG_A, BATCH, SEED};
use crate::util::{within_npb_epsilon, UnsafeSlice};

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

/// [`fft1d`] with a prebuilt [`twiddles`] table of `buf.len()` points. The
/// stage of length `len` uses every `(n / len)`-th entry:
/// `exp(±2πik/len) = w[k · n/len]`. The passes run these butterflies on
/// blocks of pencils ([`fft_block`]); the tests keep this per-pencil form
/// as their reference.
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

/// Pencils a chunk transforms side by side, as NPB's `cffts1–3` do: at
/// n = 64 a block's split `re`/`im` buffers fill 16 KiB.
const BLOCK: usize = 16;

/// One row of a pencil block: point `k` of each of its [`BLOCK`] pencils.
type Lanes = [f64; BLOCK];

/// `k` with its low `bits` bits reversed: the row that point `k` of a
/// `2^bits`-point pencil takes before the butterflies.
#[inline]
fn bit_reverse(k: usize, bits: u32) -> usize {
    k.reverse_bits().checked_shr(usize::BITS - bits).unwrap_or(0)
}

/// The radix-2 butterflies of [`fft1d_with`] on a block of [`BLOCK`]
/// pencils at once: row `k` of `re`/`im` holds point `k` of every pencil,
/// already in bit-reversed order, and the innermost loop runs across the
/// pencils. Each pencil sees `fft1d_with`'s arithmetic in its order, with
/// no fused multiply-add, so each comes out bit-identical to it. Kept a
/// symbol of its own so `scripts/verify.sh --asm` can check that the
/// lanes stay packed.
#[inline(never)]
fn fft_block(re: &mut [Lanes], im: &mut [Lanes], w: &[Complex]) {
    let n = re.len();
    debug_assert!(im.len() == n && w.len() == n / 2);
    let mut len = 2;
    while len <= n {
        let half = len / 2;
        for (re, im) in re.chunks_exact_mut(len).zip(im.chunks_exact_mut(len)) {
            let (u_re, v_re) = re.split_at_mut(half);
            let (u_im, v_im) = im.split_at_mut(half);
            let rows = u_re.iter_mut().zip(v_re).zip(u_im.iter_mut().zip(v_im));
            for (((u_re, v_re), (u_im, v_im)), wk) in rows.zip(w.iter().step_by(n / len)) {
                for j in 0..BLOCK {
                    let (a_re, a_im) = (u_re[j], u_im[j]);
                    let b_re = v_re[j] * wk.re - v_im[j] * wk.im;
                    let b_im = v_re[j] * wk.im + v_im[j] * wk.re;
                    u_re[j] = a_re + b_re;
                    u_im[j] = a_im + b_im;
                    v_re[j] = a_re - b_re;
                    v_im[j] = a_im - b_im;
                }
            }
        }
        len <<= 1;
    }
}

/// FFT of every pencil of `grid`: pencil `p` is the `n` points
/// `base(p) + k·stride`, for each of the `grid.len() / n` pencils. Each
/// chunk gathers its pencils [`BLOCK`] at a time into split `re`/`im`
/// buffers, runs [`fft_block`] on them and scatters them back. A chunk's
/// last block may be short; its spare lanes hold stale values that are
/// transformed and never written back.
fn fft_pencils(
    pool: &ThreadPool,
    sched: Schedule,
    grid: &mut [Complex],
    n: usize,
    stride: usize,
    base: impl Fn(usize) -> usize + Sync,
    inverse: bool,
) {
    assert!(n.is_power_of_two(), "FFT length must be a power of two");
    let w = twiddles(n, inverse);
    let bits = n.trailing_zeros();
    let pencils = grid.len() / n;
    let s = UnsafeSlice::new(grid);
    par_for_chunks(pool, 0..pencils, sched, |chunk| {
        let mut re = vec![[0.0; BLOCK]; n];
        let mut im = vec![[0.0; BLOCK]; n];
        let mut bases = [0; BLOCK];
        let mut first = chunk.start;
        while first < chunk.end {
            let width = (chunk.end - first).min(BLOCK);
            for (j, b) in bases[..width].iter_mut().enumerate() {
                *b = base(first + j);
            }
            for k in 0..n {
                let row = bit_reverse(k, bits);
                for (j, &b) in bases[..width].iter().enumerate() {
                    // SAFETY: distinct pencils are disjoint, in-bounds index
                    // sets of the grid, and the scheduler runs each pencil
                    // of the chunk exactly once.
                    let c = unsafe { s.read(b + k * stride) };
                    re[row][j] = c.re;
                    im[row][j] = c.im;
                }
            }
            fft_block(&mut re, &mut im, &w);
            for (k, (re, im)) in re.iter().zip(&im).enumerate() {
                for (j, &b) in bases[..width].iter().enumerate() {
                    // SAFETY: as for the gather above.
                    unsafe { s.write(b + k * stride, Complex::new(re[j], im[j])) };
                }
            }
            first += width;
        }
    });
}

/// FFT along dimension 1 (contiguous pencils), parallel over (k2, k3).
fn fft_dim1(pool: &ThreadPool, sched: Schedule, g: &mut CGrid, inverse: bool) {
    let n1 = g.p.n1;
    fft_pencils(pool, sched, &mut g.data, n1, 1, |p| p * n1, inverse);
}

/// FFT along dimension 2 (stride n1), parallel over (k1, k3).
fn fft_dim2(pool: &ThreadPool, sched: Schedule, g: &mut CGrid, inverse: bool) {
    let (n1, n2) = (g.p.n1, g.p.n2);
    fft_pencils(pool, sched, &mut g.data, n2, n1, |p| (p / n1) * n2 * n1 + p % n1, inverse);
}

/// FFT along dimension 3 (stride n1·n2), parallel over (k1, k2).
fn fft_dim3(pool: &ThreadPool, sched: Schedule, g: &mut CGrid, inverse: bool) {
    let plane = g.p.n1 * g.p.n2;
    fft_pencils(pool, sched, &mut g.data, g.p.n3, plane, |p| p, inverse);
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

/// The random initial state, one plane per iteration (NPB's
/// `compute_initial_conditions`): point `i` is the complex number of
/// deviates `2i` and `2i + 1` of the NAS generator from [`SEED`], so
/// plane `k3` jumps the generator to deviate `2·n1·n2·k3` and draws its
/// deviates in [`BATCH`]-sized stack batches. The grid is bit-identical
/// to one serial `randlc` chain.
fn initial_state(pool: &ThreadPool, sched: Schedule, g: &mut CGrid) {
    let plane = g.p.n1 * g.p.n2;
    let s = UnsafeSlice::new(&mut g.data);
    par_for(pool, 0..g.p.n3, sched, |k3| {
        let mut x = word(seed_after(SEED, (2 * plane * k3) as u64));
        let a = word(LCG_A);
        let mut batch = [0.0; BATCH];
        // SAFETY: plane `k3` is written only by iteration `k3`, and it is
        // in bounds.
        let points = unsafe { s.slice_mut(k3 * plane..(k3 + 1) * plane) };
        for points in points.chunks_mut(BATCH / 2) {
            let deviates = &mut batch[..2 * points.len()];
            fill(&mut x, a, deviates);
            for (c, pair) in points.iter_mut().zip(deviates.chunks_exact(2)) {
                *c = Complex::new(pair[0], pair[1]);
            }
        }
    });
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

/// One axis's factor of the decay `exp(−4απ²|k̄|²)`, which is the
/// product of `exp(−4απ²·f²)` over the three axes' frequencies `f`.
fn decay_axis(n: usize) -> Vec<f64> {
    const ALPHA: f64 = 1e-6;
    (0..n)
        .map(|k| {
            let f = freq(k, n);
            (-4.0 * ALPHA * std::f64::consts::PI.powi(2) * f * f).exp()
        })
        .collect()
}

/// `work = u0 ⊙ decay`, with `decay` the three axes' factor tables
/// `[d1, d2, d3]`: point `(k3, k2, k1)` scales by `d3[k3]·d2[k2]·d1[k1]`.
fn evolve(pool: &ThreadPool, sched: Schedule, work: &mut CGrid, u0: &CGrid, decay: &[Vec<f64>; 3]) {
    let (n1, n2) = (u0.p.n1, u0.p.n2);
    let [d1, d2, d3] = decay;
    let w = UnsafeSlice::new(&mut work.data);
    par_for_chunks(pool, 0..u0.p.total(), sched, |chunk| {
        // Split the chunk at row ends: a row shares its `d3·d2` factor.
        let mut i = chunk.start;
        while i < chunk.end {
            let (row, k1) = (i / n1, i % n1);
            let end = chunk.end.min((row + 1) * n1);
            let f32 = d3[row / n2] * d2[row % n2];
            // SAFETY: the scheduler's chunks are disjoint, in bounds and
            // each run once.
            let dst = unsafe { w.slice_mut(i..end) };
            for ((d, c), &f1) in dst.iter_mut().zip(&u0.data[i..end]).zip(&d1[k1..]) {
                *d = c.scale(f32 * f1);
            }
            i = end;
        }
    });
}

/// FT output: one complex checksum per time step.
#[derive(Debug, Clone, PartialEq)]
pub struct FtResult {
    pub checksums: Vec<Complex>,
}

/// The six class-S checksums of this FT (its initial state and decay are
/// NPB's shape, not its published instance), pinned from a run under
/// `Schedule::hybrid()` at the commit that added the `loopbench` `nas`
/// workload.
pub const CLASS_S_CHECKSUMS: [(f64, f64); 6] = [
    (0.4829166489299658, 0.48765526087841116),
    (0.4833213316450137, 0.488602273663046),
    (0.4837335796110196, 0.4894960410650986),
    (0.484150789890706, 0.49034014613198934),
    (0.48457066579146374, 0.49113787208072424),
    (0.48499118709731376, 0.4918922303745232),
];

/// Whether `r` has [`CLASS_S_CHECKSUMS`], each part to NPB's verification
/// epsilon, a relative 1e-8.
pub fn verify_class_s(r: &FtResult) -> bool {
    r.checksums.len() == CLASS_S_CHECKSUMS.len()
        && r.checksums
            .iter()
            .zip(CLASS_S_CHECKSUMS)
            .all(|(c, (re, im))| within_npb_epsilon(c.re, re) && within_npb_epsilon(c.im, im))
}

/// Run the FT benchmark under `sched`. The body runs inside one
/// `install`, so a pool worker issues every loop.
pub fn ft(pool: &ThreadPool, p: FtParams, sched: Schedule) -> FtResult {
    let total = p.total();
    // The grids and tables come from the caller's allocator, not the
    // worker's (DESIGN §5.5, "One `install` per kernel").
    let mut u0 = CGrid::zeros(p);
    let mut work = CGrid::zeros(p);
    let decay = [decay_axis(p.n1), decay_axis(p.n2), decay_axis(p.n3)];
    let mut decay_step = decay.clone();
    pool.install(|| {
        initial_state(pool, sched, &mut u0);

        // Forward transform once.
        fft3d(pool, sched, &mut u0, false);

        let mut checksums = Vec::with_capacity(p.iters);
        let inv_total = 1.0 / total as f64;

        for step in 1..=p.iters {
            // work = u0 ⊙ decay^step, elementwise (parallel).
            for (dst, src) in decay_step.iter_mut().zip(&decay) {
                for (d, &s) in dst.iter_mut().zip(src) {
                    *d = s.powi(step as i32);
                }
            }
            evolve(pool, sched, &mut work, &u0, &decay_step);
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
    use crate::randdp::randlc;

    /// A grid of the serial chain's deviates: point `i` is deviates `2i`
    /// and `2i + 1` from [`SEED`].
    fn serial_grid(p: FtParams) -> CGrid {
        let mut g = CGrid::zeros(p);
        let mut x = SEED;
        for c in &mut g.data {
            *c = Complex::new(randlc(&mut x, LCG_A), randlc(&mut x, LCG_A));
        }
        g
    }

    fn bits(c: &[Complex]) -> Vec<(u64, u64)> {
        c.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
    }

    #[test]
    fn per_plane_initial_state_is_bit_identical_to_the_serial_chain() {
        let pool = ThreadPool::new(3);
        // Planes of 24 points (shorter than a batch) and 4096 (longer).
        for p in [FtParams { n1: 4, n2: 6, n3: 5, iters: 1 }, FtParams::class_s()] {
            let mut g = CGrid::zeros(p);
            initial_state(&pool, Schedule::hybrid(), &mut g);
            assert!(bits(&g.data) == bits(&serial_grid(p).data), "{p:?}");
        }
    }

    #[test]
    fn pencil_blocks_are_bit_identical_to_fft1d_per_pencil() {
        // A non-cubic grid, and a grain of 3 so chunks end mid-block.
        let pool = ThreadPool::new(3);
        let sched = Schedule::vanilla().with_grain(3);
        let p = FtParams { n1: 16, n2: 8, n3: 32, iters: 1 };
        let g = serial_grid(p);
        // Each dimension's pass, its length, and the grid index of point
        // `k` of its pencil `(a, b)` over the other two axes.
        type Pass = fn(&ThreadPool, Schedule, &mut CGrid, bool);
        type Point = fn(&CGrid, usize, usize, usize) -> usize;
        let dims: [(Pass, usize, [usize; 2], Point); 3] = [
            (fft_dim1, p.n1, [p.n3, p.n2], |g, a, b, k| g.idx(a, b, k)),
            (fft_dim2, p.n2, [p.n3, p.n1], |g, a, b, k| g.idx(a, k, b)),
            (fft_dim3, p.n3, [p.n2, p.n1], |g, a, b, k| g.idx(k, a, b)),
        ];
        for (dim, (pass, n, [na, nb], at)) in dims.into_iter().enumerate() {
            for inverse in [false, true] {
                let mut got = CGrid { p, data: g.data.clone() };
                pass(&pool, sched, &mut got, inverse);
                let mut want = CGrid { p, data: g.data.clone() };
                let w = twiddles(n, inverse);
                let mut pencil = vec![Complex::ZERO; n];
                for a in 0..na {
                    for b in 0..nb {
                        for (k, c) in pencil.iter_mut().enumerate() {
                            *c = g.data[at(&g, a, b, k)];
                        }
                        fft1d_with(&mut pencil, &w);
                        for (k, &c) in pencil.iter().enumerate() {
                            let i = at(&want, a, b, k);
                            want.data[i] = c;
                        }
                    }
                }
                let dim = dim + 1;
                assert!(bits(&got.data) == bits(&want.data), "dim {dim}, inverse {inverse}");
            }
        }
    }

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
        let mut g = serial_grid(p);
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
        let mut g = serial_grid(p);
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
