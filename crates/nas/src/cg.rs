//! CG — conjugate gradient with a sparse, symmetric positive-definite
//! matrix.
//!
//! Structure follows NPB CG: an outer loop of `niter` steps, each running
//! 25 CG iterations to approximately solve `A z = x`, then computing
//! `ζ = shift + 1 / (x·z)` and renormalizing `x ← z/‖z‖`. The parallel
//! loops are the sparse mat-vec (rows have irregular lengths — CG's mild
//! load imbalance) and the vector reductions/updates.
//!
//! **Substitution note (documented in DESIGN.md):** NPB's `makea` matrix
//! generator is replaced by a synthetic generator producing a random
//! sparse symmetric diagonally-dominant (hence SPD) matrix with the same
//! knobs (`n`, nonzeros per row). The paper's scheduling results depend on
//! the loop structure and irregularity, not on `makea`'s exact spectrum.

use parloop_core::{par_for_chunks, Schedule};
use parloop_runtime::ThreadPool;

use crate::randdp::{randlc, A as LCG_A, SEED};
use crate::util::{par_sum, within_npb_epsilon, UnsafeSlice};

/// How off-diagonal nonzeros are distributed across rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowProfile {
    /// Every row targets the same `nonzer` off-diagonals.
    Uniform,
    /// Row densities vary ~5x (geometric-flavored, like NPB `makea`'s
    /// uneven rows) — the source of CG's mild load imbalance.
    Geometric,
}

/// CG problem parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CgParams {
    /// Matrix dimension.
    pub n: usize,
    /// Target off-diagonal nonzeros per row (before symmetrization).
    pub nonzer: usize,
    /// Outer iterations.
    pub niter: usize,
    /// Inner CG iterations per outer step (NPB uses 25).
    pub cg_iters: usize,
    /// Eigenvalue shift added to ζ.
    pub shift: f64,
    /// Row-density profile.
    pub rows: RowProfile,
}

impl CgParams {
    /// NAS class-S-shaped instance (n = 1400, nonzer = 7, 15 outer steps).
    pub fn class_s() -> Self {
        CgParams {
            n: 1400,
            nonzer: 7,
            niter: 15,
            cg_iters: 25,
            shift: 10.0,
            rows: RowProfile::Geometric,
        }
    }

    /// A miniature instance for fast tests.
    pub fn mini() -> Self {
        CgParams {
            n: 256,
            nonzer: 5,
            niter: 4,
            cg_iters: 15,
            shift: 10.0,
            rows: RowProfile::Uniform,
        }
    }

    /// The same instance with the given row profile.
    pub fn with_rows(mut self, rows: RowProfile) -> Self {
        self.rows = rows;
        self
    }
}

/// Compressed-sparse-row matrix.
#[derive(Debug, Clone)]
pub struct SparseMatrix {
    pub n: usize,
    pub row_ptr: Vec<usize>,
    pub col: Vec<usize>,
    pub val: Vec<f64>,
}

impl SparseMatrix {
    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.val.len()
    }

    /// `y[i] = Σ_j A[i,j]·x[j]` for one row. `inline(always)` so the
    /// gather loop fuses into each scheduler chunk body (the mat-vec is
    /// CG's hot leaf; the indirect `x[col[k]]` gather caps vectorization,
    /// but keeping the loop call-free still matters at small grains).
    #[inline(always)]
    pub fn row_dot(&self, i: usize, x: &[f64]) -> f64 {
        let mut s = 0.0;
        for k in self.row_ptr[i]..self.row_ptr[i + 1] {
            s += self.val[k] * x[self.col[k]];
        }
        s
    }
}

/// Stride-1 leaf of the CG vector updates, shared by the `z`/`r` step:
/// `acc[i] += a·v[i]` over one scheduler chunk. Written on slices (not
/// per-index `UnsafeSlice` calls) so LLVM sees a dense autovectorizable
/// loop — the same shape `parloop_micro::kernels::axpy` verifies under
/// the `--asm` disassembly check.
#[inline(always)]
fn axpy_leaf(a: f64, v: &[f64], acc: &mut [f64]) {
    for (y, x) in acc.iter_mut().zip(v) {
        *y += a * x;
    }
}

/// Stride-1 leaf of the direction update: `p[i] = r[i] + beta·p[i]`.
#[inline(always)]
fn xpby_leaf(r: &[f64], beta: f64, p: &mut [f64]) {
    for (pi, ri) in p.iter_mut().zip(r) {
        *pi = ri + beta * *pi;
    }
}

/// Stride-1 leaf of the renormalization: `dst[i] = src[i] / denom`.
#[inline(always)]
fn scale_leaf(src: &[f64], denom: f64, dst: &mut [f64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d = s / denom;
    }
}

/// Build a random sparse symmetric diagonally-dominant matrix.
#[allow(clippy::needless_range_loop)] // rows[i] and rows[j] both mutate
pub fn make_matrix(params: CgParams) -> SparseMatrix {
    let n = params.n;
    let mut x = SEED;
    // Collect symmetric off-diagonal triplets into per-row maps.
    let mut rows: Vec<std::collections::BTreeMap<usize, f64>> =
        (0..n).map(|_| std::collections::BTreeMap::new()).collect();
    for i in 0..n {
        let row_nonzer = match params.rows {
            RowProfile::Uniform => params.nonzer,
            RowProfile::Geometric => {
                // Densities spanning ~[nonzer/2, 5·nonzer/2], skewed low.
                let u = randlc(&mut x, LCG_A);
                let scale = 0.5 + 2.0 * u * u;
                ((params.nonzer as f64 * scale).round() as usize).max(1)
            }
        };
        for _ in 0..row_nonzer {
            let j = (randlc(&mut x, LCG_A) * n as f64) as usize % n;
            if j == i {
                continue;
            }
            let v = 2.0 * randlc(&mut x, LCG_A) - 1.0; // in (-1, 1)
                                                       // Indexed access on purpose: both rows[i] and rows[j] mutate.
            *rows[i].entry(j).or_insert(0.0) += v;
            *rows[j].entry(i).or_insert(0.0) += v;
        }
    }
    // Diagonal dominance: d_i = 1 + Σ_j |a_ij| ensures SPD.
    let mut row_ptr = Vec::with_capacity(n + 1);
    let mut col = Vec::new();
    let mut val = Vec::new();
    row_ptr.push(0);
    for i in 0..n {
        let dominance: f64 = 1.0 + rows[i].values().map(|v| v.abs()).sum::<f64>();
        let mut inserted_diag = false;
        for (&j, &v) in rows[i].iter() {
            if j > i && !inserted_diag {
                col.push(i);
                val.push(dominance);
                inserted_diag = true;
            }
            col.push(j);
            val.push(v);
        }
        if !inserted_diag {
            col.push(i);
            val.push(dominance);
        }
        row_ptr.push(col.len());
    }
    SparseMatrix { n, row_ptr, col, val }
}

/// One CG solve `A z ≈ x` (`cg_iters` steps) into `z`, with `r`, `p` and
/// `q` as its other vectors; returns `‖x − A z‖`.
fn conj_grad(
    pool: &ThreadPool,
    a: &SparseMatrix,
    x: &[f64],
    [z, r, p, q]: &mut [Vec<f64>; 4],
    cg_iters: usize,
    sched: Schedule,
) -> f64 {
    let n = a.n;
    z.fill(0.0);
    r.copy_from_slice(x);
    p.copy_from_slice(x);
    let mut rho = par_sum(pool, 0..n, sched, |i| r[i] * r[i]);

    for _ in 0..cg_iters {
        {
            let qs = UnsafeSlice::new(q);
            let p_ref = &*p;
            par_for_chunks(pool, 0..n, sched, |chunk| {
                for i in chunk {
                    unsafe { qs.write(i, a.row_dot(i, p_ref)) };
                }
            });
        }
        let pq = par_sum(pool, 0..n, sched, |i| p[i] * q[i]);
        let alpha = rho / pq;
        {
            let zs = UnsafeSlice::new(z);
            let rs = UnsafeSlice::new(r);
            let (p_ref, q_ref) = (&*p, &*q);
            par_for_chunks(pool, 0..n, sched, |chunk| unsafe {
                axpy_leaf(alpha, &p_ref[chunk.clone()], zs.slice_mut(chunk.clone()));
                axpy_leaf(-alpha, &q_ref[chunk.clone()], rs.slice_mut(chunk));
            });
        }
        let rho_new = par_sum(pool, 0..n, sched, |i| r[i] * r[i]);
        let beta = rho_new / rho;
        rho = rho_new;
        {
            let ps = UnsafeSlice::new(p);
            let r_ref = &*r;
            par_for_chunks(pool, 0..n, sched, |chunk| unsafe {
                xpby_leaf(&r_ref[chunk.clone()], beta, ps.slice_mut(chunk));
            });
        }
    }

    // Residual norm ‖x − A z‖.
    let z_ref = &*z;
    par_sum(pool, 0..n, sched, |i| {
        let d = x[i] - a.row_dot(i, z_ref);
        d * d
    })
    .sqrt()
}

/// CG benchmark output.
#[derive(Debug, Clone, PartialEq)]
pub struct CgResult {
    /// Final ζ estimate.
    pub zeta: f64,
    /// Residual norm of the last solve.
    pub rnorm: f64,
}

/// The class-S ζ of this CG on its synthetic class-S matrix (not NPB's
/// `makea`, so not NPB's published ζ), pinned from a run under
/// `Schedule::hybrid()` at the commit that added the `loopbench` `nas`
/// workload.
pub const CLASS_S_ZETA: f64 = 1.251310039130541e1;

/// Whether `r` matches [`CLASS_S_ZETA`] to NPB's verification epsilon, a
/// relative 1e-8 (reduction order depends on the schedule).
pub fn verify_class_s(r: &CgResult) -> bool {
    within_npb_epsilon(r.zeta, CLASS_S_ZETA)
}

/// Run the full CG benchmark under `sched`. The body runs inside one
/// `install`, so a pool worker issues every loop.
pub fn cg(pool: &ThreadPool, a: &SparseMatrix, params: CgParams, sched: Schedule) -> CgResult {
    let n = a.n;
    // The vectors come from the caller's allocator, not the worker's
    // (DESIGN §5.5, "One `install` per kernel"), and serve every step:
    // `x` and the solve's `[z, r, p, q]`.
    let mut x = vec![1.0; n];
    let mut solve: [Vec<f64>; 4] = std::array::from_fn(|_| vec![0.0; n]);
    pool.install(|| {
        let mut zeta = 0.0;
        let mut rnorm = 0.0;
        for _ in 0..params.niter {
            rnorm = conj_grad(pool, a, &x, &mut solve, params.cg_iters, sched);
            let z = &solve[0];
            let xz = par_sum(pool, 0..n, sched, |i| x[i] * z[i]);
            zeta = params.shift + 1.0 / xz;
            let znorm = par_sum(pool, 0..n, sched, |i| z[i] * z[i]).sqrt();
            let xs = UnsafeSlice::new(&mut x);
            par_for_chunks(pool, 0..n, sched, |chunk| unsafe {
                scale_leaf(&z[chunk.clone()], znorm, xs.slice_mut(chunk));
            });
        }
        CgResult { zeta, rnorm }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_is_symmetric() {
        let a = make_matrix(CgParams::mini());
        // Collect (i,j,v) and check transpose presence.
        let mut map = std::collections::HashMap::new();
        for i in 0..a.n {
            for k in a.row_ptr[i]..a.row_ptr[i + 1] {
                map.insert((i, a.col[k]), a.val[k]);
            }
        }
        for (&(i, j), &v) in &map {
            let vt = map.get(&(j, i)).copied().unwrap_or(0.0);
            assert!((v - vt).abs() < 1e-12, "A[{i},{j}]={v} but A[{j},{i}]={vt}");
        }
    }

    #[test]
    fn matrix_is_positive_definite_on_samples() {
        let a = make_matrix(CgParams::mini());
        let mut x = 42.0_f64;
        for _ in 0..5 {
            let v: Vec<f64> = (0..a.n).map(|_| 2.0 * randlc(&mut x, LCG_A) - 1.0).collect();
            let vav: f64 = (0..a.n).map(|i| v[i] * a.row_dot(i, &v)).sum();
            assert!(vav > 0.0, "v·Av = {vav} not positive");
        }
    }

    #[test]
    fn cg_converges() {
        let pool = ThreadPool::new(2);
        let params = CgParams::mini();
        let a = make_matrix(params);
        let r = cg(&pool, &a, params, Schedule::hybrid());
        // Diagonally dominant matrices are well-conditioned: the residual
        // after 15 CG steps must be tiny relative to ‖x‖ = sqrt(n) = 16.
        assert!(r.rnorm < 1e-5, "rnorm {}", r.rnorm);
        assert!(r.zeta > params.shift, "zeta {} not above shift", r.zeta);
        assert!(r.zeta.is_finite());
    }

    #[test]
    fn all_schedules_agree_on_zeta() {
        let pool = ThreadPool::new(3);
        let params = CgParams::mini();
        let a = make_matrix(params);
        let reference = cg(&pool, &a, params, Schedule::omp_static());
        for sched in Schedule::roster(params.n, 3) {
            let r = cg(&pool, &a, params, sched);
            let rel = ((r.zeta - reference.zeta) / reference.zeta).abs();
            assert!(rel < 1e-10, "{}: zeta {} vs {}", sched.name(), r.zeta, reference.zeta);
        }
    }

    #[test]
    fn geometric_rows_are_irregular_but_still_spd() {
        let params = CgParams::mini().with_rows(RowProfile::Geometric);
        let a = make_matrix(params);
        // Row lengths must actually vary.
        let lens: Vec<usize> = (0..a.n).map(|i| a.row_ptr[i + 1] - a.row_ptr[i]).collect();
        let min = lens.iter().min().unwrap();
        let max = lens.iter().max().unwrap();
        assert!(max > &(min + 3), "rows too uniform: min {min} max {max}");
        // Still SPD (diagonal dominance holds regardless of profile).
        let mut x = 7.0_f64;
        let v: Vec<f64> = (0..a.n).map(|_| 2.0 * randlc(&mut x, LCG_A) - 1.0).collect();
        let vav: f64 = (0..a.n).map(|i| v[i] * a.row_dot(i, &v)).sum();
        assert!(vav > 0.0);
    }

    #[test]
    fn geometric_cg_still_converges_under_all_schedules() {
        let pool = ThreadPool::new(3);
        let params = CgParams::mini().with_rows(RowProfile::Geometric);
        let a = make_matrix(params);
        let reference = cg(&pool, &a, params, Schedule::omp_static());
        for sched in [Schedule::hybrid(), Schedule::vanilla()] {
            let r = cg(&pool, &a, params, sched);
            assert!(((r.zeta - reference.zeta) / reference.zeta).abs() < 1e-10);
            assert!(r.rnorm < 1e-5);
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn row_dot_matches_dense_product() {
        let a = make_matrix(CgParams {
            n: 32,
            nonzer: 3,
            niter: 1,
            cg_iters: 1,
            shift: 0.0,
            rows: RowProfile::Uniform,
        });
        let x: Vec<f64> = (0..32).map(|i| i as f64 * 0.5).collect();
        // Densify.
        let mut dense = vec![vec![0.0; 32]; 32];
        for i in 0..32 {
            for k in a.row_ptr[i]..a.row_ptr[i + 1] {
                dense[i][a.col[k]] += a.val[k];
            }
        }
        for i in 0..32 {
            let want: f64 = (0..32).map(|j| dense[i][j] * x[j]).sum();
            assert!((a.row_dot(i, &x) - want).abs() < 1e-12);
        }
    }
}
