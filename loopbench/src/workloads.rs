//! The four workloads. Each runs the paper's `Schedule::hybrid()`, and
//! each op's output is checked against a reference fixed at set-up.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::{Duration, Instant};

use parloop_core::{par_for_chunks, Schedule};
use parloop_micro::{IterativeMicro, MicroParams};
use parloop_nas::{cg, ep, ft, is, mg, Kernel};
use parloop_runtime::ThreadPool;

use crate::report::{median, splitmix64, Metrics};
use crate::tap::Tap;

/// One workload: its inputs, its op, and the op's reference.
pub trait Workload: Sized {
    type Out;
    /// Ops run during set-up, so that caches fill and lazy set-up ends.
    const WARMUP_OPS: usize;
    /// An op slower than this counts as timed out, hence failed.
    const TIMEOUT: Duration;

    /// Build the inputs and references for `seed`. With `perturb` every
    /// reference is shifted, so every op must fail verification.
    fn new(seed: u64, perturb: bool) -> Self;

    /// Run op number `k`.
    fn op<T: Tap>(&mut self, pool: &ThreadPool, k: usize, tap: &T) -> Self::Out;

    /// Check op `k`'s output against its reference.
    fn verify(&mut self, k: usize, out: Self::Out) -> bool;

    /// Size of the op's fixed iteration space, when consecutive ops share one.
    fn owner_space(&self) -> Option<usize> {
        None
    }

    /// Bytes one op reads and writes, computed from array sizes.
    fn bytes_per_op(&self) -> Option<f64> {
        None
    }

    /// Print workload-specific comment lines; fill its per-layer metrics.
    fn report(&self, _layers: Option<&mut Metrics>) {}
}

/// A value in `lo..hi` drawn from `state`.
fn draw(state: &mut u64, lo: usize, hi: usize) -> usize {
    lo + (splitmix64(state) % (hi - lo) as u64) as usize
}

/// `tiny_loops`: one near-empty loop per op, issued from the main thread.
pub struct TinyLoops {
    lens: Vec<usize>,
    bias: u64,
}

const TINY_TABLE: usize = 4096;

impl Workload for TinyLoops {
    type Out = u64;
    const WARMUP_OPS: usize = 4000;
    const TIMEOUT: Duration = Duration::from_secs(1);

    fn new(seed: u64, perturb: bool) -> Self {
        let mut s = seed;
        TinyLoops {
            lens: (0..TINY_TABLE).map(|_| draw(&mut s, 1024, 8192)).collect(),
            bias: u64::from(perturb),
        }
    }

    fn op<T: Tap>(&mut self, pool: &ThreadPool, k: usize, tap: &T) -> u64 {
        let sum = AtomicU64::new(0);
        par_for_chunks(pool, 0..self.lens[k % TINY_TABLE], Schedule::hybrid(), |chunk| {
            tap.leaf(|| sum.fetch_add(chunk.map(|i| i as u64).sum(), Relaxed));
        });
        sum.into_inner()
    }

    fn verify(&mut self, k: usize, out: u64) -> bool {
        let n = self.lens[k % TINY_TABLE] as u64;
        out == n * (n - 1) / 2 + self.bias
    }
}

/// `nested`: one install runs an outer loop over `ROWS` rows; each row
/// runs an inner loop with a hash body, issued by a busy worker.
pub struct Nested {
    lens: Vec<[usize; ROWS]>,
    sums: Vec<[u64; ROWS]>,
}

const ROWS: usize = 16;
const NESTED_TABLE: usize = 256;

fn hash(salt: u64, i: usize) -> u64 {
    let mut s = salt ^ i as u64;
    splitmix64(&mut s)
}

fn row_salt(t: usize, r: usize) -> u64 {
    ((t * ROWS + r) as u64) << 32
}

impl Workload for Nested {
    type Out = [u64; ROWS];
    const WARMUP_OPS: usize = 2000;
    const TIMEOUT: Duration = Duration::from_secs(1);

    fn new(seed: u64, perturb: bool) -> Self {
        let mut s = seed;
        let lens: Vec<[usize; ROWS]> =
            (0..NESTED_TABLE).map(|_| std::array::from_fn(|_| draw(&mut s, 256, 2304))).collect();
        let mut sums: Vec<[u64; ROWS]> = lens
            .iter()
            .enumerate()
            .map(|(t, row)| {
                std::array::from_fn(|r| {
                    (0..row[r]).fold(0u64, |a, i| a.wrapping_add(hash(row_salt(t, r), i)))
                })
            })
            .collect();
        if perturb {
            for s in &mut sums {
                s[0] = s[0].wrapping_add(1);
            }
        }
        Nested { lens, sums }
    }

    fn op<T: Tap>(&mut self, pool: &ThreadPool, k: usize, tap: &T) -> [u64; ROWS] {
        let t = k % NESTED_TABLE;
        let lens = &self.lens[t];
        let sums: [AtomicU64; ROWS] = std::array::from_fn(|_| AtomicU64::new(0));
        pool.install(|| {
            par_for_chunks(pool, 0..ROWS, Schedule::hybrid(), |rows| {
                tap.owner(rows.clone());
                for r in rows {
                    let (acc, salt) = (&sums[r], row_salt(t, r));
                    par_for_chunks(pool, 0..lens[r], Schedule::hybrid(), |chunk| {
                        tap.leaf(|| {
                            let s = chunk.fold(0u64, |a, i| a.wrapping_add(hash(salt, i)));
                            acc.fetch_add(s, Relaxed);
                        });
                    });
                }
            });
        });
        sums.map(AtomicU64::into_inner)
    }

    fn verify(&mut self, k: usize, out: [u64; ROWS]) -> bool {
        out == self.sums[k % NESTED_TABLE]
    }

    fn owner_space(&self) -> Option<usize> {
        Some(ROWS)
    }
}

/// `micro_unbalanced`: one inner loop of the paper's iterative
/// unbalanced microbenchmark per op.
pub struct MicroUnbalanced {
    micro: IterativeMicro,
    checksum: u64,
    per_op: u64,
}

const MICRO: MicroParams =
    MicroParams { working_set: 2 << 20, iterations: 128, passes: 1, balanced: false };

impl Workload for MicroUnbalanced {
    type Out = ();
    const WARMUP_OPS: usize = 50;
    const TIMEOUT: Duration = Duration::from_secs(1);

    fn new(_seed: u64, perturb: bool) -> Self {
        let micro = IterativeMicro::new(MICRO);
        // The stride-13 walk touches every element of every block once
        // per pass, so each op adds exactly elements × passes.
        let per_op = micro.elements() as u64 * u64::from(MICRO.passes) + u64::from(perturb);
        MicroUnbalanced { checksum: micro.checksum(), micro, per_op }
    }

    fn op<T: Tap>(&mut self, pool: &ThreadPool, _k: usize, tap: &T) {
        let micro = &self.micro;
        par_for_chunks(pool, 0..micro.iterations(), Schedule::hybrid(), |chunk| {
            tap.owner(chunk.clone());
            tap.leaf(|| chunk.for_each(|i| micro.iteration_body(i)));
        });
    }

    fn verify(&mut self, _k: usize, _out: ()) -> bool {
        let now = self.micro.checksum();
        let ok = now.wrapping_sub(self.checksum) == self.per_op;
        self.checksum = now;
        ok
    }

    fn owner_space(&self) -> Option<usize> {
        Some(MICRO.iterations)
    }

    fn bytes_per_op(&self) -> Option<f64> {
        // One 8-byte read and one 8-byte write per element per pass.
        Some(16.0 * self.micro.elements() as f64 * f64::from(MICRO.passes))
    }
}

/// `nas`: MG, FT, EP, IS and CG at class S, in Fig. 3 order.
pub struct Nas {
    matrix: cg::SparseMatrix,
    keys: Vec<u32>,
    sorted: Vec<u32>,
    /// 1, or a shift of every pinned floating-point reference.
    scale: f64,
    /// Per kernel (in `Kernel::ALL` order): ms and injected loops of each
    /// verified run.
    ms: [Vec<f64>; 5],
    loops: [Vec<f64>; 5],
}

/// Official NPB 3.3 class-S EP sums.
const EP_SX: f64 = -3.24783465203474e3;
const EP_SY: f64 = -6.958407078382297e3;
/// CG ζ, MG residual norm and FT checksums of this repository's class-S
/// instances (CG's matrix is synthetic), pinned from runs under
/// `Schedule::hybrid()` at the commit that added this benchmark.
const CG_ZETA: f64 = 1.251310039130541e1;
const MG_RNORM: f64 = 1.08145294698008e-3;
const FT_CHECKSUMS: [(f64, f64); 6] = [
    (0.4829166489299658, 0.48765526087841116),
    (0.4833213316450137, 0.488602273663046),
    (0.4837335796110196, 0.4894960410650986),
    (0.484150789890706, 0.49034014613198934),
    (0.48457066579146374, 0.49113787208072424),
    (0.48499118709731376, 0.4918922303745232),
];
/// Relative tolerance: reduction order depends on the schedule.
const REL_TOL: f64 = 1e-8;

fn close(got: f64, want: f64) -> bool {
    (got - want).abs() <= REL_TOL * want.abs()
}

pub struct NasOut {
    mg: mg::MgResult,
    ft: ft::FtResult,
    ep: ep::EpResult,
    is: is::IsResult,
    cg: cg::CgResult,
    ms: [f64; 5],
    /// Injected loops per kernel, counted on traced ops only.
    loops: Option<[u64; 5]>,
}

impl Workload for Nas {
    type Out = NasOut;
    const WARMUP_OPS: usize = 1;
    const TIMEOUT: Duration = Duration::from_secs(10);

    fn new(_seed: u64, perturb: bool) -> Self {
        let keys = is::generate_keys(is::IsParams::class_s());
        let mut sorted = is::is_sort_sequential(is::IsParams::class_s(), &keys).sorted;
        if perturb {
            sorted[0] ^= 1;
        }
        Nas {
            matrix: cg::make_matrix(cg::CgParams::class_s()),
            keys,
            sorted,
            scale: if perturb { 1.0 + 1e-6 } else { 1.0 },
            ms: Default::default(),
            loops: Default::default(),
        }
    }

    fn op<T: Tap>(&mut self, pool: &ThreadPool, _k: usize, _tap: &T) -> NasOut {
        let sched = Schedule::hybrid();
        let mut ms = [0.0; 5];
        let mut loops = [0; 5];
        let mut timed = |slot: usize, kernel: &mut dyn FnMut()| {
            let before = if T::ON { pool.stats().injected } else { 0 };
            let t0 = Instant::now();
            kernel();
            ms[slot] = t0.elapsed().as_secs_f64() * 1e3;
            if T::ON {
                loops[slot] = pool.stats().injected - before;
            }
        };
        let (mut mg_out, mut ft_out, mut ep_out, mut is_out, mut cg_out) =
            (None, None, None, None, None);
        timed(0, &mut || mg_out = Some(mg::mg(pool, mg::MgParams::class_s(), sched)));
        timed(1, &mut || ft_out = Some(ft::ft(pool, ft::FtParams::class_s(), sched)));
        timed(2, &mut || ep_out = Some(ep::ep(pool, ep::EpParams::class_s(), sched)));
        timed(3, &mut || {
            is_out = Some(is::is_sort(pool, is::IsParams::class_s(), &self.keys, sched))
        });
        timed(4, &mut || cg_out = Some(cg::cg(pool, &self.matrix, cg::CgParams::class_s(), sched)));
        let ran = "every kernel ran";
        NasOut {
            mg: mg_out.expect(ran),
            ft: ft_out.expect(ran),
            ep: ep_out.expect(ran),
            is: is_out.expect(ran),
            cg: cg_out.expect(ran),
            ms,
            loops: T::ON.then_some(loops),
        }
    }

    fn verify(&mut self, k: usize, out: NasOut) -> bool {
        let s = self.scale;
        let ok = [
            close(out.mg.rnorm, MG_RNORM * s),
            out.ft.checksums.len() == FT_CHECKSUMS.len()
                && out
                    .ft
                    .checksums
                    .iter()
                    .zip(FT_CHECKSUMS)
                    .all(|(c, (re, im))| close(c.re, re * s) && close(c.im, im * s)),
            close(out.ep.sx, EP_SX * s) && close(out.ep.sy, EP_SY * s),
            is::verify(&self.keys, &out.is) && out.is.sorted == self.sorted,
            close(out.cg.zeta, CG_ZETA * s),
        ];
        for (i, &kernel_ok) in ok.iter().enumerate() {
            if kernel_ok && k >= Self::WARMUP_OPS {
                self.ms[i].push(out.ms[i]);
                if let Some(loops) = out.loops {
                    self.loops[i].push(loops[i] as f64);
                }
            }
        }
        ok.iter().all(|&k| k)
    }

    fn report(&self, layers: Option<&mut Metrics>) {
        match layers {
            Some(m) => {
                for (i, k) in Kernel::ALL.iter().enumerate() {
                    m.set(&format!("nas.{}.ms", k.name()), median(&self.ms[i]));
                    m.set(&format!("nas.{}.loops", k.name()), median(&self.loops[i]));
                }
            }
            None => {
                let per_kernel: Vec<String> = Kernel::ALL
                    .iter()
                    .enumerate()
                    .map(|(i, k)| {
                        format!(
                            "{}_ms={:.3} (n={})",
                            k.name(),
                            median(&self.ms[i]),
                            self.ms[i].len()
                        )
                    })
                    .collect();
                println!("# nas kernels, median per verified run: {}", per_kernel.join(" "));
            }
        }
    }
}
