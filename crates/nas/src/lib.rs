//! Rust ports of the five NAS Parallel Benchmark kernels used in the
//! paper's evaluation (Section V): **EP**, **MG**, **CG**, **FT**, **IS**.
//!
//! Every kernel takes a [`Schedule`], so the identical numeric code runs
//! under the paper's hybrid scheme and under each baseline scheduler —
//! which is exactly the comparison the paper makes. Each kernel module
//! also ships a sequential reference and a verification predicate; the
//! test suite asserts that all schedulers produce the same result (exactly
//! for integer outputs, to rounding for floating-point reductions, whose
//! summation order legitimately depends on scheduling).
//!
//! Substitutions relative to NPB 3.3.1 (see DESIGN.md):
//! * CG's `makea` generator → a synthetic random symmetric diagonally-
//!   dominant matrix with the same shape knobs;
//! * problem classes are scaled to laptop-size (`class_s`/`mini`
//!   constructors) — the paper's classes B/C exist only as *workload
//!   models* in `parloop-sim`, where the 32-core machine is simulated.

pub mod cg;
pub mod ep;
pub mod ft;
pub mod is;
pub mod mg;
pub mod randdp;
pub mod util;

use std::time::{Duration, Instant};

use parloop_core::Schedule;
use parloop_runtime::ThreadPool;

/// The five kernels, in the paper's Figure 3 order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kernel {
    Mg,
    Ft,
    Ep,
    Is,
    Cg,
}

impl Kernel {
    pub const ALL: [Kernel; 5] = [Kernel::Mg, Kernel::Ft, Kernel::Ep, Kernel::Is, Kernel::Cg];

    pub fn name(self) -> &'static str {
        match self {
            Kernel::Mg => "mg",
            Kernel::Ft => "ft",
            Kernel::Ep => "ep",
            Kernel::Is => "is",
            Kernel::Cg => "cg",
        }
    }
}

/// Problem-size selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClassSize {
    /// NAS class-S-shaped sizes.
    S,
    /// Miniature sizes for quick runs and tests.
    Mini,
}

/// Outcome of running one kernel once.
#[derive(Debug, Clone)]
pub struct KernelReport {
    pub kernel: Kernel,
    pub schedule: &'static str,
    pub elapsed: Duration,
    /// Kernel-specific verification passed.
    pub verified: bool,
    /// Human-readable headline metric (`zeta`, `rnorm`, checksum, …).
    pub metric: String,
}

/// Run `kernel` at `class` size under `sched`, verifying the result.
pub fn run_kernel(
    pool: &ThreadPool,
    kernel: Kernel,
    class: ClassSize,
    sched: Schedule,
) -> KernelReport {
    let t0 = Instant::now();
    let (verified, metric) = match kernel {
        Kernel::Ep => {
            let params = match class {
                ClassSize::S => ep::EpParams::class_s(),
                ClassSize::Mini => ep::EpParams::mini(),
            };
            let r = ep::ep(pool, params, sched);
            let verified = match class {
                // NPB's published sums.
                ClassSize::S => ep::verify_class_s(&r),
                // No published value: the polar method's acceptance rate.
                ClassSize::Mini => {
                    let total = (params.blocks() * params.pairs_per_block()) as f64;
                    let rate = r.accepted as f64 / total;
                    (rate - std::f64::consts::FRAC_PI_4).abs() < 0.01
                }
            };
            (verified, format!("sx={:.6e} sy={:.6e} pairs={}", r.sx, r.sy, r.accepted))
        }
        Kernel::Mg => {
            let params = match class {
                ClassSize::S => mg::MgParams::class_s(),
                ClassSize::Mini => mg::MgParams::mini(),
            };
            let r = mg::mg(pool, params, sched);
            let verified = match class {
                ClassSize::S => mg::verify_class_s(&r),
                // No pin: the V-cycles contracted the residual.
                ClassSize::Mini => r.history.first().is_some_and(|&f| r.rnorm < f),
            };
            (verified, format!("rnorm={:.6e}", r.rnorm))
        }
        Kernel::Cg => {
            let params = match class {
                ClassSize::S => cg::CgParams::class_s(),
                ClassSize::Mini => cg::CgParams::mini(),
            };
            let a = cg::make_matrix(params);
            let r = cg::cg(pool, &a, params, sched);
            let verified = match class {
                ClassSize::S => cg::verify_class_s(&r),
                // No pin: the last solve converged.
                ClassSize::Mini => r.rnorm < 1e-6 && r.zeta.is_finite(),
            };
            (verified, format!("zeta={:.12} rnorm={:.3e}", r.zeta, r.rnorm))
        }
        Kernel::Ft => {
            let params = match class {
                ClassSize::S => ft::FtParams::class_s(),
                ClassSize::Mini => ft::FtParams::mini(),
            };
            let r = ft::ft(pool, params, sched);
            let last = r.checksums.last().copied().unwrap_or(ft::Complex::ZERO);
            let verified = match class {
                ClassSize::S => ft::verify_class_s(&r),
                // No pin: every checksum is finite.
                ClassSize::Mini => r.checksums.iter().all(|c| c.re.is_finite() && c.im.is_finite()),
            };
            (verified, format!("checksum={:.9e}{:+.9e}i", last.re, last.im))
        }
        Kernel::Is => {
            let params = match class {
                ClassSize::S => is::IsParams::class_s(),
                ClassSize::Mini => is::IsParams::mini(),
            };
            let keys = is::generate_keys(params);
            let r = is::is_sort(pool, params, &keys, sched);
            let ok = is::verify(&keys, &r);
            (ok, format!("keys={} buckets={}", keys.len(), r.histogram.len()))
        }
    };
    KernelReport { kernel, schedule: sched.name(), elapsed: t0.elapsed(), verified, metric }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kernel_verifies_under_hybrid() {
        let pool = ThreadPool::new(2);
        for k in Kernel::ALL {
            let rep = run_kernel(&pool, k, ClassSize::Mini, Schedule::hybrid());
            assert!(rep.verified, "{} failed: {}", k.name(), rep.metric);
        }
    }

    #[test]
    fn kernel_names_in_figure_order() {
        let names: Vec<_> = Kernel::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names, ["mg", "ft", "ep", "is", "cg"]);
    }
}
