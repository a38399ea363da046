//! Quickstart: schedule a parallel loop six different ways.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use parloop::core::{par_for_chunks, Loop, Schedule};
use parloop::runtime::ThreadPool;
use std::sync::atomic::{AtomicU64, Ordering};

fn main() {
    // A pool of 4 workers — the analogue of starting the Cilk runtime.
    let pool = ThreadPool::new(4);
    let n = 1 << 16;

    // Any `Fn(Range<usize>) + Sync` chunk body works; here: a parallel
    // square-sum folding each scheduler chunk locally before one shared
    // atomic add (per-index `par_for` is also available).
    let expected: u64 = (0..n as u64).map(|i| i * i).sum();

    println!("parallel square-sum of 0..{n} under every scheduler:");
    for sched in Schedule::roster(n, pool.num_workers()) {
        let sum = AtomicU64::new(0);
        par_for_chunks(&pool, 0..n, sched, |chunk| {
            let partial: u64 = chunk.map(|i| (i * i) as u64).sum();
            sum.fetch_add(partial, Ordering::Relaxed);
        });
        let got = sum.load(Ordering::Relaxed);
        println!(
            "  {:<12} -> {} {}",
            sched.name(),
            got,
            if got == expected { "ok" } else { "MISMATCH" }
        );
    }

    // The hybrid scheme also reports its scheduling counters: how many
    // partitions it made, how many workers adopted the loop through the
    // DoHybridLoop steal protocol, and how many claims failed (bounded by
    // lg R per worker between successes — Lemma 4).
    let stats = Loop::new(Schedule::hybrid())
        .run(&pool, 0..n, |chunk| {
            std::hint::black_box(chunk);
        })
        .expect("hybrid loop body panicked");
    println!(
        "\nhybrid loop stats: partitions={} adoptions={} failed_claims={}",
        stats.partitions, stats.adoptions, stats.failed_claims
    );
}
