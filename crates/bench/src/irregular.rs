//! Irregular & nested loop workloads for the adaptive-grain benchmark
//! (`adapt_bench`).
//!
//! Each [`Workload`] runs the same computation under three grain regimes
//! ([`GrainMode`]) and returns an order-independent checksum, so
//! `adapt_bench` can verify **zero lost iterations** across modes by
//! exact equality before comparing wall times:
//!
//! * `Default` — the static Cilk pin (`default_grain`), the
//!   pre-controller baseline;
//! * `Fixed(g)` — one grain for every loop, the static-sweep oracle;
//! * `Adaptive(sites)` — the feedback controller of
//!   `parloop_core::adapt`, one [`AdaptiveSite`] per distinct call site.
//!
//! The suite spans the shapes the controller targets: regular flat loops
//! (`reg_sum`, `reg_dot` — the "within 5% of the best static pin" bar),
//! skewed per-iteration cost (`quicksort`, `sumfunc`), nested loops with
//! tiny inner spans (`scan_inner`, `compact`, `primes` — where the Cilk
//! rule over-splits and coarsening wins), a parallel-outer nesting dual
//! (`scan_outer`), and a shrinking-range elimination kernel (`lud`).
//! Bodies generate their data on the fly from a `splitmix64` stream, so
//! checksums are bit-exact across modes *and* runs.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

use parloop_core::{par_for_chunks, AdaptiveSite, GrainPolicy, Loop, Schedule};
use parloop_runtime::ThreadPool;

/// How a benchmark run picks each loop's grain.
#[derive(Clone, Copy)]
pub enum GrainMode<'a> {
    /// The schedule's static default (`min(2048, N/8P)` Cilk rule).
    Default,
    /// One explicit grain for every loop in the workload.
    Fixed(usize),
    /// The feedback controller; `sites[k]` serves the workload's call
    /// site `k` (see [`Workload::sites`]).
    Adaptive(&'a [AdaptiveSite]),
}

/// Run one parallel loop of a workload under `mode`. `site` indexes the
/// [`GrainMode::Adaptive`] slice; distinct call sites of one workload
/// must use distinct indices so the controller learns each loop shape
/// separately (the nested-accounting satellite relies on this).
pub fn grain_loop<F>(
    pool: &ThreadPool,
    range: Range<usize>,
    sched: Schedule,
    mode: GrainMode<'_>,
    site: usize,
    body: F,
) where
    F: Fn(Range<usize>) + Sync,
{
    match mode {
        GrainMode::Default => par_for_chunks(pool, range, sched, body),
        GrainMode::Fixed(g) => par_for_chunks(pool, range, sched.with_grain(g), body),
        GrainMode::Adaptive(sites) => {
            Loop { grain: GrainPolicy::Adaptive(&sites[site]), ..Loop::new(sched) }
                .run(pool, range, body)
                .expect("adaptive loop body panicked");
        }
    }
}

/// One benchmark workload: a named closure over (pool, grain mode)
/// returning a mode-independent checksum.
pub struct Workload {
    pub name: &'static str,
    /// Regular workloads feed the "within 5% of best static" bar;
    /// irregular ones feed the "beats the default pin" bar.
    pub regular: bool,
    /// Distinct parallel call sites (= `AdaptiveSite`s a run needs).
    pub sites: usize,
    /// Whether every site sees a stable (n, cost) and must reach the
    /// `Settled` phase after training — the convergence gate. Workloads
    /// with shrinking ranges or drifting cost legitimately re-probe.
    pub converges: bool,
    pub run: fn(&ThreadPool, GrainMode<'_>) -> u64,
}

/// SplitMix64: the deterministic data stream every body draws from.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The full suite, regular workloads first.
pub fn workloads() -> Vec<Workload> {
    vec![
        Workload { name: "reg_sum", regular: true, sites: 1, converges: true, run: reg_sum },
        Workload { name: "reg_dot", regular: true, sites: 1, converges: true, run: reg_dot },
        Workload { name: "quicksort", regular: false, sites: 1, converges: false, run: quicksort },
        Workload { name: "scan_inner", regular: false, sites: 1, converges: true, run: scan_inner },
        Workload {
            name: "scan_outer",
            regular: false,
            sites: 1,
            converges: false,
            run: scan_outer,
        },
        Workload { name: "compact", regular: false, sites: 2, converges: false, run: compact },
        Workload { name: "lud", regular: false, sites: 1, converges: false, run: lud },
        Workload { name: "primes", regular: false, sites: 2, converges: false, run: primes },
        Workload { name: "sumfunc", regular: false, sites: 1, converges: false, run: sumfunc },
    ]
}

/// Regular flat sum, n = 64Ki light iterations (hybrid scheme).
fn reg_sum(pool: &ThreadPool, mode: GrainMode<'_>) -> u64 {
    const N: usize = 1 << 16;
    let sum = AtomicU64::new(0);
    pool.install(|| {
        grain_loop(pool, 0..N, Schedule::hybrid(), mode, 0, |chunk| {
            let mut acc = 0u64;
            for i in chunk {
                acc = acc.wrapping_add(splitmix64(i as u64));
            }
            sum.fetch_add(acc, Ordering::Relaxed);
        });
    });
    sum.load(Ordering::Relaxed)
}

/// Regular dot product, n = 64Ki (hybrid scheme).
fn reg_dot(pool: &ThreadPool, mode: GrainMode<'_>) -> u64 {
    const N: usize = 1 << 16;
    let sum = AtomicU64::new(0);
    pool.install(|| {
        grain_loop(pool, 0..N, Schedule::hybrid(), mode, 0, |chunk| {
            let mut acc = 0u64;
            for i in chunk {
                let a = splitmix64(i as u64);
                let b = splitmix64(a);
                acc = acc.wrapping_add(a.wrapping_mul(b));
            }
            sum.fetch_add(acc, Ordering::Relaxed);
        });
    });
    sum.load(Ordering::Relaxed)
}

/// 96 independent sorts with quadratically skewed lengths (16..1216):
/// heavy, imbalanced iterations over a short range.
fn quicksort(pool: &ThreadPool, mode: GrainMode<'_>) -> u64 {
    const ITEMS: usize = 96;
    let sum = AtomicU64::new(0);
    pool.install(|| {
        grain_loop(pool, 0..ITEMS, Schedule::vanilla(), mode, 0, |chunk| {
            let mut acc = 0u64;
            for it in chunk {
                let len = 16 + (it * it * 37) % 1200;
                let mut v: Vec<u64> =
                    (0..len).map(|j| splitmix64((it * 10_007 + j) as u64)).collect();
                v.sort_unstable();
                acc = acc.wrapping_add(v[len / 2] ^ v[0] ^ v[len - 1]);
            }
            sum.fetch_add(acc, Ordering::Relaxed);
        });
    });
    sum.load(Ordering::Relaxed)
}

/// Sequential outer over 64 rows, parallel Hillis–Steele scan inside:
/// 8 parallel loops of a tiny n = 256 per row (512 loops per run). The
/// canonical over-split case — the Cilk rule cuts 16 chunks from loops
/// whose whole body is ~1us of work.
fn scan_inner(pool: &ThreadPool, mode: GrainMode<'_>) -> u64 {
    const ROWS: usize = 64;
    const M: usize = 256;
    let a: Vec<AtomicU64> = (0..M).map(|_| AtomicU64::new(0)).collect();
    let b: Vec<AtomicU64> = (0..M).map(|_| AtomicU64::new(0)).collect();
    let out = AtomicU64::new(0);
    pool.install(|| {
        for row in 0..ROWS {
            for (i, slot) in a.iter().enumerate() {
                slot.store(splitmix64((row * M + i) as u64), Ordering::Relaxed);
            }
            let mut src = &a;
            let mut dst = &b;
            let mut stride = 1;
            while stride < M {
                grain_loop(pool, 0..M, Schedule::vanilla(), mode, 0, |chunk| {
                    for i in chunk {
                        let mut v = src[i].load(Ordering::Relaxed);
                        if i >= stride {
                            v = v.wrapping_add(src[i - stride].load(Ordering::Relaxed));
                        }
                        dst[i].store(v, Ordering::Relaxed);
                    }
                });
                std::mem::swap(&mut src, &mut dst);
                stride <<= 1;
            }
            out.fetch_add(src[M - 1].load(Ordering::Relaxed), Ordering::Relaxed);
        }
    });
    out.load(Ordering::Relaxed)
}

/// The nesting dual of `scan_inner`: parallel outer over 64 ragged rows
/// (32..512 elements), sequential inclusive scan inside each.
fn scan_outer(pool: &ThreadPool, mode: GrainMode<'_>) -> u64 {
    const ROWS: usize = 64;
    let sum = AtomicU64::new(0);
    pool.install(|| {
        grain_loop(pool, 0..ROWS, Schedule::vanilla(), mode, 0, |chunk| {
            let mut acc = 0u64;
            for r in chunk {
                let len = 32 + (r * 97) % 480;
                let mut running = 0u64;
                let mut row = 0u64;
                for j in 0..len {
                    running = running.wrapping_add(splitmix64((r * 1_000_003 + j) as u64));
                    row ^= running;
                }
                // Fold per row, then sum: the checksum must not depend on
                // how rows are grouped into chunks.
                acc = acc.wrapping_add(row);
            }
            sum.fetch_add(acc, Ordering::Relaxed);
        });
    });
    sum.load(Ordering::Relaxed)
}

/// Stream compaction over 48 segments: per segment a parallel flag pass
/// (site 0), a sequential prefix sum, and a parallel scatter (site 1) —
/// two distinct tiny-loop call sites the controller must learn
/// independently.
fn compact(pool: &ThreadPool, mode: GrainMode<'_>) -> u64 {
    const SEGS: usize = 48;
    const M: usize = 512;
    let flags: Vec<AtomicU64> = (0..M).map(|_| AtomicU64::new(0)).collect();
    let out: Vec<AtomicU64> = (0..M).map(|_| AtomicU64::new(0)).collect();
    let sum = AtomicU64::new(0);
    pool.install(|| {
        let mut pos = vec![0u32; M];
        for seg in 0..SEGS {
            grain_loop(pool, 0..M, Schedule::vanilla(), mode, 0, |chunk| {
                for i in chunk {
                    let x = splitmix64((seg * M + i) as u64);
                    flags[i].store(u64::from(x & 7 < 3), Ordering::Relaxed);
                }
            });
            let mut run = 0u32;
            for (i, slot) in pos.iter_mut().enumerate() {
                *slot = run;
                run += flags[i].load(Ordering::Relaxed) as u32;
            }
            let pos = &pos;
            grain_loop(pool, 0..M, Schedule::vanilla(), mode, 1, |chunk| {
                for i in chunk {
                    if flags[i].load(Ordering::Relaxed) == 1 {
                        let x = splitmix64((seg * M + i) as u64);
                        out[pos[i] as usize].store(x, Ordering::Relaxed);
                    }
                }
            });
            let mut acc = 0u64;
            for slot in out.iter().take(run as usize) {
                acc = acc.wrapping_add(slot.load(Ordering::Relaxed));
            }
            sum.fetch_add(acc, Ordering::Relaxed);
        }
    });
    sum.load(Ordering::Relaxed)
}

/// Row-parallel elimination on a 96x96 matrix: the inner parallel range
/// shrinks 95 -> 1 across outer steps, so the static rule re-derives an
/// ever-finer grain while the controller can hold a coarse one. Integer
/// update (wrapping mul/rotate) keeps the result exact. Row `j > i` only
/// reads pivot row `i` and writes row `j`, so steps are deterministic.
fn lud(pool: &ThreadPool, mode: GrainMode<'_>) -> u64 {
    const N: usize = 96;
    let m: Vec<AtomicU64> = (0..N * N).map(|k| AtomicU64::new(splitmix64(k as u64) | 1)).collect();
    pool.install(|| {
        for i in 0..N - 1 {
            grain_loop(pool, i + 1..N, Schedule::vanilla(), mode, 0, |chunk| {
                for j in chunk {
                    let f = m[j * N + i].load(Ordering::Relaxed).wrapping_mul(0x9e37_79b9);
                    for k in i..N {
                        let upd =
                            f.wrapping_mul(m[i * N + k].load(Ordering::Relaxed)).rotate_left(7);
                        let cur = m[j * N + k].load(Ordering::Relaxed);
                        m[j * N + k].store(cur.wrapping_sub(upd), Ordering::Relaxed);
                    }
                }
            });
        }
    });
    let mut acc = 0u64;
    for d in 0..N {
        acc = acc.wrapping_add(m[d * N + d].load(Ordering::Relaxed));
    }
    acc.wrapping_add(m[N * N - 1].load(Ordering::Relaxed))
}

/// Segmented sieve to 64Ki: per segment a parallel clear (site 0,
/// n = 4096 trivial stores) and a parallel mark over the 54 base primes
/// (site 1, skewed — small primes mark far more composites).
fn primes(pool: &ThreadPool, mode: GrainMode<'_>) -> u64 {
    const LIMIT: usize = 1 << 16;
    const SEG: usize = 1 << 12;
    // Base primes below sqrt(LIMIT) = 256, by trial division.
    let base: Vec<usize> = (2..256)
        .filter(|&c: &usize| (2..c).take_while(|d| d * d <= c).all(|d| c % d != 0))
        .collect();
    let marks: Vec<AtomicU64> = (0..SEG).map(|_| AtomicU64::new(0)).collect();
    let count = AtomicU64::new(0);
    pool.install(|| {
        for s in (SEG..LIMIT).step_by(SEG) {
            grain_loop(pool, 0..SEG, Schedule::vanilla(), mode, 0, |chunk| {
                for i in chunk {
                    marks[i].store(0, Ordering::Relaxed);
                }
            });
            grain_loop(pool, 0..base.len(), Schedule::vanilla(), mode, 1, |chunk| {
                for bi in chunk {
                    let p = base[bi];
                    let mut j = s.div_ceil(p) * p;
                    while j < s + SEG {
                        marks[j - s].store(1, Ordering::Relaxed);
                        j += p;
                    }
                }
            });
            let mut c = 0u64;
            for slot in &marks {
                if slot.load(Ordering::Relaxed) == 0 {
                    c += 1;
                }
            }
            count.fetch_add(c, Ordering::Relaxed);
        }
    });
    // Primes below SEG are counted directly off the base list's sieve.
    let below_seg =
        (2..SEG).filter(|&c| base.iter().take_while(|&&p| p * p <= c).all(|&p| c % p != 0)).count();
    count.load(Ordering::Relaxed).wrapping_add(below_seg as u64)
}

/// Data-dependent per-iteration cost: iteration `i` hashes `(i*i) % 97`
/// times, a sawtooth of light-to-medium work over n = 4096.
fn sumfunc(pool: &ThreadPool, mode: GrainMode<'_>) -> u64 {
    const N: usize = 4096;
    let sum = AtomicU64::new(0);
    pool.install(|| {
        grain_loop(pool, 0..N, Schedule::vanilla(), mode, 0, |chunk| {
            let mut acc = 0u64;
            for i in chunk {
                let reps = (i * i) % 97;
                let mut h = i as u64;
                for _ in 0..reps {
                    h = splitmix64(h);
                }
                acc = acc.wrapping_add(h);
            }
            sum.fetch_add(acc, Ordering::Relaxed);
        });
    });
    sum.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn suite_names_are_unique_and_regulars_lead() {
        let ws = workloads();
        assert_eq!(ws.len(), 9);
        let names: HashSet<&str> = ws.iter().map(|w| w.name).collect();
        assert_eq!(names.len(), ws.len());
        assert!(ws[0].regular && ws[1].regular);
        assert_eq!(ws.iter().filter(|w| w.regular).count(), 2);
    }

    #[test]
    fn checksums_agree_across_grain_modes() {
        let pool = ThreadPool::new(2);
        for w in workloads() {
            let sites: Vec<AdaptiveSite> =
                (0..w.sites).map(|_| AdaptiveSite::new(w.name)).collect();
            let default = (w.run)(&pool, GrainMode::Default);
            let fixed = (w.run)(&pool, GrainMode::Fixed(64));
            let coarse = (w.run)(&pool, GrainMode::Fixed(4096));
            let adaptive = (w.run)(&pool, GrainMode::Adaptive(&sites));
            assert_eq!(default, fixed, "{}: Fixed(64) diverged", w.name);
            assert_eq!(default, coarse, "{}: Fixed(4096) diverged", w.name);
            assert_eq!(default, adaptive, "{}: Adaptive diverged", w.name);
        }
    }

    #[test]
    fn checksums_are_stable_across_runs() {
        let pool = ThreadPool::new(2);
        for w in workloads() {
            let one = (w.run)(&pool, GrainMode::Default);
            let two = (w.run)(&pool, GrainMode::Default);
            assert_eq!(one, two, "{}: run-to-run checksum drift", w.name);
        }
    }
}
