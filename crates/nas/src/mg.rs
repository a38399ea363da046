//! MG — V-cycle multigrid on a 3D periodic grid (NAS MG structure).
//!
//! Solves `A u = v` where `A` is the NPB 27-point Poisson-like stencil,
//! by repeated V-cycles: restrict the residual down a grid hierarchy
//! (full weighting, `rprj3`), smooth at the coarsest level (`psinv`),
//! then interpolate corrections back up (trilinear `interp`) with
//! smoothing at each level. All stencil sweeps are parallel loops over
//! the outermost (`i3`) planes — each operator writes one array while
//! reading others, so plane-parallel iterations are race-free.
//!
//! The right-hand side follows NPB: `v` is −1 at ten pseudo-random points
//! and +1 at ten others, zero elsewhere.

use parloop_core::{par_for_chunks, Schedule};
use parloop_runtime::ThreadPool;

use crate::randdp::{randlc, A as LCG_A, SEED};
use crate::util::{par_sum, within_npb_epsilon, UnsafeSlice};

/// The `A` operator weights by neighbor distance class (center, face,
/// edge, corner) — NPB's `a` array.
const A_W: [f64; 4] = [-8.0 / 3.0, 0.0, 1.0 / 6.0, 1.0 / 12.0];
/// The smoother weights — NPB's `c` array for classes S/W/A.
const C_W: [f64; 4] = [-3.0 / 8.0, 1.0 / 32.0, -1.0 / 64.0, 0.0];
/// Full-weighting restriction weights by distance class.
const R_W: [f64; 4] = [0.5, 0.25, 0.125, 0.0625];

/// MG problem parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MgParams {
    /// Finest grid edge (power of two).
    pub n: usize,
    /// Number of V-cycles.
    pub iters: usize,
}

impl MgParams {
    /// NAS class-S shape: 32³ grid, 4 iterations.
    pub fn class_s() -> Self {
        MgParams { n: 32, iters: 4 }
    }

    /// Miniature instance for fast tests.
    pub fn mini() -> Self {
        MgParams { n: 16, iters: 2 }
    }

    /// Grid levels down to edge 2.
    pub fn levels(&self) -> usize {
        assert!(self.n.is_power_of_two() && self.n >= 4);
        self.n.trailing_zeros() as usize // n=32 -> 5 levels: 32,16,8,4,2
    }
}

/// A cubic periodic grid of edge `n`, flattened.
#[derive(Debug, Clone)]
pub struct Grid {
    pub n: usize,
    pub data: Vec<f64>,
}

impl Grid {
    pub fn zeros(n: usize) -> Self {
        Grid { n, data: vec![0.0; n * n * n] }
    }

    #[inline]
    fn at(&self, i3: usize, i2: usize, i1: usize) -> f64 {
        self.data[(i3 * self.n + i2) * self.n + i1]
    }

    /// Row `(i3, i2, ·)`.
    #[inline]
    fn row(&self, i3: usize, i2: usize) -> &[f64] {
        &self.data[(i3 * self.n + i2) * self.n..][..self.n]
    }
}

/// The periodic neighbours `(i − 1, i + 1)` of `i` on an axis of length
/// `n`. At `n = 2` both are the same point, which the operators then
/// count twice, as a gather over the 27 offsets does.
#[inline]
fn neighbours(i: usize, n: usize) -> (usize, usize) {
    ((i + n - 1) % n, (i + 1) % n)
}

/// Per-chunk scratch of [`Rows::apply`]: the row `c`, the sums `f` of its
/// four face neighbours in the (i2, i3) plane and the sums `e` of its four
/// edge neighbours there, each padded with one periodic halo point at
/// either end, and the operator's output row.
struct Rows {
    c: Vec<f64>,
    f: Vec<f64>,
    e: Vec<f64>,
    out: Vec<f64>,
}

impl Rows {
    fn new(n: usize) -> Self {
        Rows { c: vec![0.0; n + 2], f: vec![0.0; n + 2], e: vec![0.0; n + 2], out: vec![0.0; n] }
    }

    /// Apply the class-weighted 27-point operator `w` (center, face,
    /// edge, corner) to row `(i3, i2, ·)` of `g`, into `self.out` — NPB's
    /// `resid`/`psinv` shape. Every face or edge neighbour of a point is
    /// a face-plane sum `f` or edge-plane sum `e` at `i1` or at `i1 ± 1`,
    /// so each point costs four adds of partial sums instead of a
    /// 27-point gather, and the wrapped indices are computed once per row.
    fn apply(&mut self, w: &[f64; 4], g: &Grid, i3: usize, i2: usize) -> &[f64] {
        let n = g.n;
        let (i3m, i3p) = neighbours(i3, n);
        let (i2m, i2p) = neighbours(i2, n);
        let face = [g.row(i3, i2m), g.row(i3, i2p), g.row(i3m, i2), g.row(i3p, i2)];
        let edge = [g.row(i3m, i2m), g.row(i3m, i2p), g.row(i3p, i2m), g.row(i3p, i2p)];
        self.c[1..=n].copy_from_slice(g.row(i3, i2));
        for (sum, [a, b, c, d]) in [(&mut self.f, face), (&mut self.e, edge)] {
            for ((((s, a), b), c), d) in sum[1..=n].iter_mut().zip(a).zip(b).zip(c).zip(d) {
                *s = a + b + c + d;
            }
        }
        for buf in [&mut self.c, &mut self.f, &mut self.e] {
            buf[0] = buf[n];
            buf[n + 1] = buf[1];
        }
        let (c, f, e) = (&self.c[..n + 2], &self.f[..n + 2], &self.e[..n + 2]);
        for (i1, o) in self.out[..n].iter_mut().enumerate() {
            // Offsets 0, 1, 2 of the padded rows are i1 − 1, i1, i1 + 1.
            *o = w[0] * c[i1 + 1]
                + w[1] * (c[i1] + c[i1 + 2] + f[i1 + 1])
                + w[2] * (f[i1] + f[i1 + 2] + e[i1 + 1])
                + w[3] * (e[i1] + e[i1 + 2]);
        }
        &self.out[..n]
    }
}

/// Plane-parallel sweep over the rows of `out`: `row(i3, i2, rows, dst)`
/// writes row `(i3, i2, ·)` of `out` through `dst`, with `rows` the
/// chunk's scratch for an operator over edge-`n_in` grids.
fn sweep_rows(
    pool: &ThreadPool,
    sched: Schedule,
    out: &mut Grid,
    n_in: usize,
    row: impl Fn(usize, usize, &mut Rows, &mut [f64]) + Sync,
) {
    let n = out.n;
    let slice = UnsafeSlice::new(&mut out.data);
    par_for_chunks(pool, 0..n, sched, |planes| {
        let mut rows = Rows::new(n_in);
        // SAFETY: the planes of a chunk are written only by that chunk
        // (chunks are disjoint, each run once), and they are in bounds.
        let dst = unsafe { slice.slice_mut(planes.start * n * n..planes.end * n * n) };
        for (i3, plane) in planes.zip(dst.chunks_exact_mut(n * n)) {
            for (i2, dst_row) in plane.chunks_exact_mut(n).enumerate() {
                row(i3, i2, &mut rows, dst_row);
            }
        }
    });
}

/// `r = v − A u` (NPB `resid`).
fn resid(pool: &ThreadPool, sched: Schedule, r: &mut Grid, u: &Grid, v: &Grid) {
    sweep_rows(pool, sched, r, u.n, |i3, i2, rows, dst| {
        for ((d, &vv), &au) in dst.iter_mut().zip(v.row(i3, i2)).zip(rows.apply(&A_W, u, i3, i2)) {
            *d = vv - au;
        }
    });
}

/// `u += S r` (NPB `psinv` smoother).
fn psinv(pool: &ThreadPool, sched: Schedule, u: &mut Grid, r: &Grid) {
    sweep_rows(pool, sched, u, r.n, |i3, i2, rows, dst| {
        for (d, &sr) in dst.iter_mut().zip(rows.apply(&C_W, r, i3, i2)) {
            *d += sr;
        }
    });
}

/// Full-weighting restriction: coarse `out` from fine `fine` (NPB
/// `rprj3`). Coarse row `(i3, i2)` is every second point of the weighted
/// fine row `(2·i3, 2·i2)`, divided by 4.
fn rprj3(pool: &ThreadPool, sched: Schedule, out: &mut Grid, fine: &Grid) {
    debug_assert_eq!(out.n * 2, fine.n);
    sweep_rows(pool, sched, out, fine.n, |i3, i2, rows, dst| {
        let weighted = rows.apply(&R_W, fine, 2 * i3, 2 * i2);
        for (d, &s) in dst.iter_mut().zip(weighted.iter().step_by(2)) {
            *d = s / 4.0;
        }
    });
}

/// Trilinear prolongation: `fine += P coarse` (NPB `interp`). Fine point
/// `(f3, f2, f1)` adds the average of the coarse corners adjacent to it;
/// each fine row first sums the `(1 + o3)(1 + o2)` coarse rows it draws
/// on, so a point adds one or two of those sums.
fn interp(pool: &ThreadPool, sched: Schedule, fine: &mut Grid, coarse: &Grid) {
    debug_assert_eq!(coarse.n * 2, fine.n);
    let nf = fine.n;
    let nc = coarse.n;
    let slice = UnsafeSlice::new(&mut fine.data);
    par_for_chunks(pool, 0..nf, sched, |planes| {
        // The summed coarse rows, with one periodic halo point.
        let mut z = vec![0.0; nc + 1];
        // SAFETY: as in `sweep_rows`.
        let dst = unsafe { slice.slice_mut(planes.start * nf * nf..planes.end * nf * nf) };
        for (f3, plane) in planes.zip(dst.chunks_exact_mut(nf * nf)) {
            let (c3, o3) = (f3 / 2, f3 % 2);
            for (f2, fine_row) in plane.chunks_exact_mut(nf).enumerate() {
                let (c2, o2) = (f2 / 2, f2 % 2);
                z.fill(0.0);
                for j3 in (c3..=c3 + o3).map(|j| j % nc) {
                    for j2 in (c2..=c2 + o2).map(|j| j % nc) {
                        for (s, &x) in z.iter_mut().zip(coarse.row(j3, j2)) {
                            *s += x;
                        }
                    }
                }
                z[nc] = z[0];
                let corners = ((1 + o3) * (1 + o2)) as f64;
                let (w_even, w_odd) = (1.0 / corners, 1.0 / (2.0 * corners));
                for (c1, pair) in fine_row.chunks_exact_mut(2).enumerate() {
                    pair[0] += w_even * z[c1];
                    pair[1] += w_odd * (z[c1] + z[c1 + 1]);
                }
            }
        }
    });
}

/// NPB `norm2u3`: the grid's RMS norm and maximum absolute value.
fn norm2u3(pool: &ThreadPool, sched: Schedule, g: &Grid) -> (f64, f64) {
    let n = g.n;
    let sum = par_sum(pool, 0..n, sched, |i3| {
        let mut s = 0.0;
        for i2 in 0..n {
            for i1 in 0..n {
                let v = g.at(i3, i2, i1);
                s += v * v;
            }
        }
        s
    });
    let maxabs = crate::util::par_max_abs(pool, 0..n, sched, |i3| {
        let mut m = 0.0_f64;
        for i2 in 0..n {
            for i1 in 0..n {
                m = m.max(g.at(i3, i2, i1).abs());
            }
        }
        m
    });
    ((sum / (n * n * n) as f64).sqrt(), maxabs)
}

/// NPB-style right-hand side: ±1 at 2×10 pseudo-random points.
pub fn make_rhs(n: usize) -> Grid {
    let mut v = Grid::zeros(n);
    let mut x = SEED;
    let total = n * n * n;
    for sign in [1.0, -1.0] {
        for _ in 0..10 {
            let idx = (randlc(&mut x, LCG_A) * total as f64) as usize % total;
            v.data[idx] = sign;
        }
    }
    v
}

/// MG output.
#[derive(Debug, Clone, PartialEq)]
pub struct MgResult {
    /// L2 norm of the final residual.
    pub rnorm: f64,
    /// Maximum absolute residual component (NPB `norm2u3`'s second output).
    pub rnorm_max: f64,
    /// Residual norms after each V-cycle.
    pub history: Vec<f64>,
}

/// The class-S residual norm of this MG (its right-hand side and V-cycle
/// are NPB's shape, not its published instance), pinned from a run under
/// `Schedule::hybrid()` at the commit that added the `loopbench` `nas`
/// workload.
pub const CLASS_S_RNORM: f64 = 1.08145294698008e-3;

/// Whether `r` matches [`CLASS_S_RNORM`] to NPB's verification epsilon, a
/// relative 1e-8 (the norm's reduction order depends on the schedule).
pub fn verify_class_s(r: &MgResult) -> bool {
    within_npb_epsilon(r.rnorm, CLASS_S_RNORM)
}

/// Run `iters` V-cycles under `sched`; returns the residual norms. The
/// body runs inside one `install`, so a pool worker issues every loop.
pub fn mg(pool: &ThreadPool, params: MgParams, sched: Schedule) -> MgResult {
    let lt = params.levels(); // levels: edge n >> k for k in 0..lt
                              // The grids come from the caller's allocator, not the worker's (DESIGN
                              // §5.5, "One `install` per kernel").
    let v = make_rhs(params.n);
    let mut u = Grid::zeros(params.n);
    let mut r_levels: Vec<Grid> = (0..lt).map(|k| Grid::zeros(params.n >> k)).collect();
    let mut u_levels: Vec<Grid> = (1..lt).map(|k| Grid::zeros(params.n >> k)).collect();
    // The residual of each intermediate level's correction: tmp[k − 1]
    // has edge n >> k.
    let mut tmp: Vec<Grid> = (1..lt - 1).map(|k| Grid::zeros(params.n >> k)).collect();
    pool.install(|| {
        resid(pool, sched, &mut r_levels[0], &u, &v);
        let mut history = Vec::with_capacity(params.iters);

        for _ in 0..params.iters {
            // Down: restrict the residual to the coarsest level.
            for k in 0..lt - 1 {
                let (fine, coarse) = r_levels.split_at_mut(k + 1);
                rprj3(pool, sched, &mut coarse[0], &fine[k]);
            }
            // Coarsest: u = S r.
            {
                let uc = &mut u_levels[lt - 2];
                uc.data.fill(0.0);
                psinv(pool, sched, uc, &r_levels[lt - 1]);
            }
            // Up: interpolate, recompute residual, smooth.
            for k in (1..lt - 1).rev() {
                // u_k starts as zero plus the interpolated correction.
                let (finer, coarser) = u_levels.split_at_mut(k);
                let uk = &mut finer[k - 1]; // grid with edge n >> k
                uk.data.fill(0.0);
                interp(pool, sched, uk, &coarser[0]);
                // r_k = r_k − A u_k, then u_k += S r_k.
                let rk = &mut tmp[k - 1];
                resid(pool, sched, rk, uk, &r_levels[k]);
                psinv(pool, sched, uk, rk);
            }
            // Finest level: apply the correction to u, refresh r, smooth.
            interp(pool, sched, &mut u, &u_levels[0]);
            resid(pool, sched, &mut r_levels[0], &u, &v);
            psinv(pool, sched, &mut u, &r_levels[0]);
            resid(pool, sched, &mut r_levels[0], &u, &v);
            let (l2, _) = norm2u3(pool, sched, &r_levels[0]);
            history.push(l2);
        }

        let (_, rnorm_max) = norm2u3(pool, sched, &r_levels[0]);
        MgResult { rnorm: *history.last().expect("at least one iteration"), rnorm_max, history }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Grid {
        /// The reference operator: the weighted 27-point gather around
        /// `(i3, i2, i1)` with per-distance-class weights `w`, one wrapped
        /// index per neighbour.
        fn stencil(&self, w: &[f64; 4], i3: usize, i2: usize, i1: usize) -> f64 {
            let n = self.n as isize;
            let wrap = |i: usize, d: isize| (i as isize + d).rem_euclid(n) as usize;
            let mut s = 0.0;
            for d3 in -1isize..=1 {
                for d2 in -1isize..=1 {
                    for d1 in -1isize..=1 {
                        let class = (d3.abs() + d2.abs() + d1.abs()) as usize;
                        if w[class] != 0.0 {
                            s += w[class] * self.at(wrap(i3, d3), wrap(i2, d2), wrap(i1, d1));
                        }
                    }
                }
            }
            s
        }

        /// A grid of uniform deviates in (−1, 1).
        fn random(n: usize, seed: f64) -> Self {
            let mut x = seed;
            Grid { n, data: (0..n * n * n).map(|_| 2.0 * randlc(&mut x, LCG_A) - 1.0).collect() }
        }

        /// The grid with every point `(i3, i2, i1)` set to `f(i3, i2, i1)`.
        fn from_fn(n: usize, f: impl Fn(usize, usize, usize) -> f64) -> Self {
            let data = (0..n * n * n).map(|i| f(i / (n * n), i / n % n, i % n)).collect();
            Grid { n, data }
        }
    }

    /// Assert that `got` matches `want` to 1e-13 relative to `want`'s
    /// largest magnitude.
    fn assert_close(got: &Grid, want: &Grid, what: &str) {
        let scale = want.data.iter().fold(0.0_f64, |m, x| m.max(x.abs()));
        let err = got.data.iter().zip(&want.data).fold(0.0_f64, |m, (a, b)| m.max((a - b).abs()));
        assert!(err <= 1e-13 * scale, "{what} at edge {}: error {err:e} of {scale:e}", want.n);
    }

    #[test]
    fn row_operators_match_the_27_point_gather() {
        let pool = ThreadPool::new(2);
        for (k, n) in [2, 4, 8, 16].into_iter().enumerate() {
            let u = Grid::random(n, SEED + k as f64);
            let v = Grid::random(n, 7.0 + k as f64);
            let mut r = Grid::zeros(n);
            resid(&pool, Schedule::hybrid(), &mut r, &u, &v);
            let want =
                Grid::from_fn(n, |i3, i2, i1| v.at(i3, i2, i1) - u.stencil(&A_W, i3, i2, i1));
            assert_close(&r, &want, "resid");

            let mut smoothed = v.clone();
            psinv(&pool, Schedule::vanilla(), &mut smoothed, &u);
            let want =
                Grid::from_fn(n, |i3, i2, i1| v.at(i3, i2, i1) + u.stencil(&C_W, i3, i2, i1));
            assert_close(&smoothed, &want, "psinv");

            let mut coarse = Grid::zeros(n / 2);
            rprj3(&pool, Schedule::omp_static(), &mut coarse, &u);
            let want =
                Grid::from_fn(n / 2, |i3, i2, i1| u.stencil(&R_W, 2 * i3, 2 * i2, 2 * i1) / 4.0);
            assert_close(&coarse, &want, "rprj3");

            // `u` as the coarse grid of an edge-2n fine grid.
            let mut fine = Grid::random(2 * n, 11.0 + k as f64);
            let base = fine.clone();
            interp(&pool, Schedule::hybrid(), &mut fine, &u);
            let want = Grid::from_fn(2 * n, |f3, f2, f1| {
                let mut s = 0.0;
                for d3 in 0..=f3 % 2 {
                    for d2 in 0..=f2 % 2 {
                        for d1 in 0..=f1 % 2 {
                            s += u.at((f3 / 2 + d3) % n, (f2 / 2 + d2) % n, (f1 / 2 + d1) % n);
                        }
                    }
                }
                let corners = (1 + f3 % 2) * (1 + f2 % 2) * (1 + f1 % 2);
                base.at(f3, f2, f1) + s / corners as f64
            });
            assert_close(&fine, &want, "interp");
        }
    }

    #[test]
    fn rhs_has_twenty_nonzeros_at_most() {
        let v = make_rhs(16);
        let nz = v.data.iter().filter(|&&x| x != 0.0).count();
        assert!((10..=20).contains(&nz), "nz = {nz}");
        assert!(v.data.iter().all(|&x| x == 0.0 || x == 1.0 || x == -1.0));
    }

    #[test]
    fn stencil_weights_sum_applies_to_constant_grid() {
        let mut g = Grid::zeros(8);
        g.data.fill(2.0);
        // Σ weights over 27 points: w0·1 + w1·6 + w2·12 + w3·8.
        let wsum = A_W[0] + 6.0 * A_W[1] + 12.0 * A_W[2] + 8.0 * A_W[3];
        for got in Rows::new(8).apply(&A_W, &g, 3, 4) {
            assert!((got - 2.0 * wsum).abs() < 1e-12);
        }
    }

    #[test]
    fn residual_decreases_across_v_cycles() {
        let pool = ThreadPool::new(2);
        let r = mg(&pool, MgParams::mini(), Schedule::hybrid());
        assert!(r.history.len() == 2);
        assert!(r.history[1] < r.history[0], "V-cycle did not contract: {:?}", r.history);
    }

    #[test]
    fn max_residual_bounds_are_consistent() {
        let pool = ThreadPool::new(2);
        let params = MgParams::mini();
        let r = mg(&pool, params, Schedule::hybrid());
        // RMS <= max <= RMS * sqrt(points).
        let points = (params.n * params.n * params.n) as f64;
        assert!(r.rnorm_max >= r.rnorm, "max {} < rms {}", r.rnorm_max, r.rnorm);
        assert!(r.rnorm_max <= r.rnorm * points.sqrt() + 1e-12);
    }

    #[test]
    fn all_schedules_agree_on_rnorm() {
        let pool = ThreadPool::new(3);
        let params = MgParams::mini();
        let reference = mg(&pool, params, Schedule::omp_static());
        for sched in Schedule::roster(params.n, 3) {
            let r = mg(&pool, params, sched);
            let rel = ((r.rnorm - reference.rnorm) / reference.rnorm).abs();
            assert!(rel < 1e-10, "{}: rnorm {} vs {}", sched.name(), r.rnorm, reference.rnorm);
        }
    }

    #[test]
    fn interp_of_constant_coarse_adds_constant() {
        let pool = ThreadPool::new(2);
        let mut fine = Grid::zeros(8);
        let mut coarse = Grid::zeros(4);
        coarse.data.fill(3.0);
        interp(&pool, Schedule::vanilla(), &mut fine, &coarse);
        for &x in &fine.data {
            assert!((x - 3.0).abs() < 1e-12, "interp broke constants: {x}");
        }
    }

    #[test]
    fn rprj3_of_constant_fine_gives_constant() {
        let pool = ThreadPool::new(2);
        let mut coarse = Grid::zeros(4);
        let mut fine = Grid::zeros(8);
        fine.data.fill(1.0);
        rprj3(&pool, Schedule::vanilla(), &mut coarse, &fine);
        // Σ R_W over 27 points, divided by 4 (normalization).
        let wsum = (R_W[0] + 6.0 * R_W[1] + 12.0 * R_W[2] + 8.0 * R_W[3]) / 4.0;
        for &x in &coarse.data {
            assert!((x - wsum).abs() < 1e-12);
        }
    }
}
