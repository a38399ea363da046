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

use parloop_core::{par_for, Schedule};
use parloop_runtime::ThreadPool;

use crate::randdp::{randlc, A as LCG_A, SEED};
use crate::util::{par_sum, UnsafeSlice};

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

    /// Periodic neighbor coordinate.
    #[inline]
    fn wrap(n: usize, i: usize, d: isize) -> usize {
        (i as isize + d).rem_euclid(n as isize) as usize
    }

    /// Weighted 27-point gather around `(i3, i2, i1)` with per-distance-
    /// class weights `w`.
    fn stencil(&self, w: &[f64; 4], i3: usize, i2: usize, i1: usize) -> f64 {
        let n = self.n;
        let mut s = 0.0;
        for d3 in -1isize..=1 {
            let j3 = Self::wrap(n, i3, d3);
            for d2 in -1isize..=1 {
                let j2 = Self::wrap(n, i2, d2);
                for d1 in -1isize..=1 {
                    let class = (d3.abs() + d2.abs() + d1.abs()) as usize;
                    if w[class] == 0.0 {
                        continue;
                    }
                    let j1 = Self::wrap(n, i1, d1);
                    s += w[class] * self.at(j3, j2, j1);
                }
            }
        }
        s
    }
}

/// Plane-parallel sweep writing `out[i3] = f(i3, i2, i1)`.
fn sweep(
    pool: &ThreadPool,
    sched: Schedule,
    out: &mut Grid,
    f: impl Fn(usize, usize, usize) -> f64 + Sync,
) {
    let n = out.n;
    let slice = UnsafeSlice::new(&mut out.data);
    par_for(pool, 0..n, sched, |i3| {
        for i2 in 0..n {
            for i1 in 0..n {
                // SAFETY: plane i3 is written only by iteration i3.
                unsafe { slice.write((i3 * n + i2) * n + i1, f(i3, i2, i1)) };
            }
        }
    });
}

/// `r = v − A u` (NPB `resid`).
fn resid(pool: &ThreadPool, sched: Schedule, r: &mut Grid, u: &Grid, v: &Grid) {
    sweep(pool, sched, r, |i3, i2, i1| v.at(i3, i2, i1) - u.stencil(&A_W, i3, i2, i1));
}

/// `u += S r` (NPB `psinv` smoother).
fn psinv(pool: &ThreadPool, sched: Schedule, u: &mut Grid, r: &Grid) {
    let n = u.n;
    let slice = UnsafeSlice::new(&mut u.data);
    par_for(pool, 0..n, sched, |i3| {
        for i2 in 0..n {
            for i1 in 0..n {
                let idx = (i3 * n + i2) * n + i1;
                let add = r.stencil(&C_W, i3, i2, i1);
                unsafe { slice.write(idx, slice.read(idx) + add) };
            }
        }
    });
}

/// Full-weighting restriction: coarse `out` from fine `fine` (NPB `rprj3`).
fn rprj3(pool: &ThreadPool, sched: Schedule, out: &mut Grid, fine: &Grid) {
    debug_assert_eq!(out.n * 2, fine.n);
    sweep(pool, sched, out, |i3, i2, i1| {
        // Gather the fine 3³ neighborhood around (2i3, 2i2, 2i1).
        fine.stencil(&R_W, 2 * i3, 2 * i2, 2 * i1) / 4.0
    });
}

/// Trilinear prolongation: `fine += P coarse` (NPB `interp`).
fn interp(pool: &ThreadPool, sched: Schedule, fine: &mut Grid, coarse: &Grid) {
    debug_assert_eq!(coarse.n * 2, fine.n);
    let nf = fine.n;
    let nc = coarse.n;
    let slice = UnsafeSlice::new(&mut fine.data);
    par_for(pool, 0..nf, sched, |f3| {
        let (c3, o3) = (f3 / 2, f3 % 2);
        for f2 in 0..nf {
            let (c2, o2) = (f2 / 2, f2 % 2);
            for f1 in 0..nf {
                let (c1, o1) = (f1 / 2, f1 % 2);
                // Average the coarse corners adjacent to this fine point.
                let mut s = 0.0;
                for d3 in 0..=o3 {
                    for d2 in 0..=o2 {
                        for d1 in 0..=o1 {
                            s += coarse.at((c3 + d3) % nc, (c2 + d2) % nc, (c1 + d1) % nc);
                        }
                    }
                }
                let w = 1.0 / ((1 + o3) * (1 + o2) * (1 + o1)) as f64;
                let idx = (f3 * nf + f2) * nf + f1;
                unsafe { slice.write(idx, slice.read(idx) + w * s) };
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
                let mut tmp = Grid::zeros(uk.n);
                resid(pool, sched, &mut tmp, uk, &r_levels[k]);
                psinv(pool, sched, uk, &tmp);
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
        let got = g.stencil(&A_W, 3, 4, 5);
        assert!((got - 2.0 * wsum).abs() < 1e-12);
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
