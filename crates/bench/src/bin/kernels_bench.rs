//! NAS-kernel wall-clock bench (plain port of the old Criterion `kernels`
//! bench): MG / FT / EP / IS / CG at mini sizes under hybrid, static and
//! vanilla scheduling, plus one iterative-micro phase — and a
//! leaf-saturation check that the stride-1 `parloop_micro::kernels`
//! actually vectorize.
//!
//! Usage: `cargo run --release -p parloop-bench --bin kernels_bench
//! [--quick]`
//!
//! The saturation check times each SIMD kernel against a deliberately
//! scalarized twin (`black_box` on every element defeats vectorization
//! and unrolling). If the stride-1 leaves stopped vectorizing, the ratio
//! collapses toward 1 and the check fails (report-only under `--quick`,
//! where timer noise on a loaded host would make it flaky). The bar is a
//! deliberately loose 1.2x — devectorization shows up as ~1.0x, while
//! memory-bound kernels (sum_u64 at 512 KiB) hover near 1.5x on a busy
//! 1-CPU host; the precise gate is `scripts/verify.sh --asm`. The
//! `*_asm_anchor` symbols are exercised through `black_box` so they
//! survive linking for `scripts/verify.sh --asm` to disassemble; the
//! `ft` row links FT's pencil-block butterfly (`ft::fft_block`) and the
//! `ep` row EP's AVX2 tally, which it checks too.

use parloop_bench::{quick_flag, time_best_ns, Table};
use parloop_core::Schedule;
use parloop_micro::kernels::{axpy_asm_anchor, dot_asm_anchor, sum_u64_asm_anchor};
use parloop_micro::{IterativeMicro, MicroParams};
use parloop_nas::cg::{cg, make_matrix, CgParams};
use parloop_nas::ep::{ep, EpParams};
use parloop_nas::ft::{ft, FtParams};
use parloop_nas::is::{generate_keys, is_sort, IsParams};
use parloop_nas::mg::{mg, MgParams};
use parloop_runtime::ThreadPool;

fn main() {
    let quick = quick_flag();
    let p = 4usize;
    let reps = if quick { 3 } else { 10 };
    let pool = ThreadPool::new(p);

    let schemes = [Schedule::hybrid(), Schedule::omp_static(), Schedule::vanilla()];

    let is_params = IsParams::mini();
    let keys = generate_keys(is_params);
    let cg_params = CgParams::mini();
    let a = make_matrix(cg_params);
    let micro = IterativeMicro::new(MicroParams::small(false));

    println!("NAS kernels at mini sizes, P = {p} (ms, best of {reps})\n");
    let mut t = Table::new(vec!["kernel", "hybrid", "omp_static", "vanilla"]);
    for kernel in ["mg", "ft", "ep", "is", "cg", "micro"] {
        let mut cells = vec![kernel.to_string()];
        for sched in schemes {
            let ns = time_best_ns(reps, || match kernel {
                "mg" => {
                    std::hint::black_box(mg(&pool, MgParams::mini(), sched));
                }
                "ft" => {
                    std::hint::black_box(ft(&pool, FtParams::mini(), sched));
                }
                "ep" => {
                    std::hint::black_box(ep(&pool, EpParams::mini(), sched));
                }
                "is" => {
                    std::hint::black_box(is_sort(&pool, is_params, &keys, sched));
                }
                "cg" => {
                    std::hint::black_box(cg(&pool, &a, cg_params, sched));
                }
                _ => micro.run_phase(&pool, sched),
            });
            cells.push(format!("{:.3}", ns / 1e6));
        }
        t.row(cells);
    }
    t.print();

    println!();
    leaf_saturation_check(quick);
}

/// Scalarized twin of a reduction: `black_box` on each element keeps LLVM
/// from vectorizing or unrolling, approximating the kernel's element
/// throughput without SIMD.
fn scalar_dot(x: &[f64], y: &[f64]) -> f64 {
    let mut acc = 0.0;
    for (a, b) in x.iter().zip(y) {
        acc += std::hint::black_box(a * b);
    }
    acc
}

fn scalar_axpy(a: f64, x: &[f64], y: &mut [f64]) {
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += std::hint::black_box(a * xi);
    }
}

fn scalar_sum_u64(x: &[u64]) -> u64 {
    let mut acc = 0u64;
    for &v in x {
        acc = acc.wrapping_add(std::hint::black_box(v));
    }
    acc
}

fn leaf_saturation_check(quick: bool) {
    use std::hint::black_box;
    let n = 64 * 1024;
    let reps = if quick { 5 } else { 20 };
    let x: Vec<f64> = (0..n).map(|i| (i as f64) * 0.25 + 1.0).collect();
    let y: Vec<f64> = (0..n).map(|i| (i as f64) * 0.5 - 3.0).collect();
    let u: Vec<u64> = (0..n as u64).map(|i| i * 7 + 1).collect();
    let mut dst = y.clone();

    // (name, SIMD ns, scalarized ns) — the anchors double as the symbol
    // keep-alive for the disassembly step.
    let axpy_simd = time_best_ns(reps, || {
        axpy_asm_anchor(black_box(1.0009), black_box(&x), black_box(&mut dst))
    });
    let axpy_scalar =
        time_best_ns(reps, || scalar_axpy(black_box(1.0009), black_box(&x), black_box(&mut dst)));
    let dot_simd = time_best_ns(reps, || {
        black_box(dot_asm_anchor(black_box(&x), black_box(&y)));
    });
    let dot_scalar = time_best_ns(reps, || {
        black_box(scalar_dot(black_box(&x), black_box(&y)));
    });
    let sum_simd = time_best_ns(reps, || {
        black_box(sum_u64_asm_anchor(black_box(&u)));
    });
    let sum_scalar = time_best_ns(reps, || {
        black_box(scalar_sum_u64(black_box(&u)));
    });

    println!("leaf saturation (SIMD vs scalarized twin, {n} elements):");
    let mut failed = Vec::new();
    for (name, simd, scalar) in [
        ("axpy", axpy_simd, axpy_scalar),
        ("dot", dot_simd, dot_scalar),
        ("sum_u64", sum_simd, sum_scalar),
    ] {
        let speedup = scalar / simd.max(1.0);
        println!("  {name:8} {:8.1} ns vs {:8.1} ns scalarized — {speedup:.2}x", simd, scalar);
        if speedup < 1.2 {
            failed.push(name);
        }
    }
    if failed.is_empty() {
        println!("  leaves saturate (every kernel >= 1.2x its scalarized twin)");
    } else if quick {
        println!("  [quick] below 1.2x: {failed:?} (report-only in quick mode)");
    } else {
        eprintln!("leaf saturation FAILED: {failed:?} under 1.2x vs scalarized twin");
        std::process::exit(1);
    }
}
