//! Integration tests for the chunk-granular execution layer: every
//! scheduler must hand the monomorphized chunk body a set of in-range,
//! non-overlapping chunks that cover the loop exactly once, and the
//! chunked path must place iterations on the same workers as the dyn
//! path (they share one decomposition).

use parloop::core::{par_for, par_for_chunks, par_for_tracked, AffinityProbe, Schedule};
use parloop::runtime::{current_worker_index, ThreadPool};
use std::ops::Range;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Roster plus the off-roster oversubscribed hybrid, which the chunk
/// layer must also serve.
fn all_schemes(n: usize, p: usize) -> Vec<Schedule> {
    let mut v = Schedule::roster(n, p);
    v.push(Schedule::hybrid_oversub(4));
    v
}

#[test]
fn chunks_cover_every_index_exactly_once() {
    for p in [1usize, 2, 4, 5] {
        let pool = ThreadPool::new(p);
        for n in [0usize, 1, 13, 256, 1000] {
            for sched in all_schemes(n.max(1), p) {
                let counts: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
                par_for_chunks(&pool, 0..n, sched, |chunk| {
                    for i in chunk {
                        counts[i].fetch_add(1, Ordering::Relaxed);
                    }
                });
                for (i, c) in counts.iter().enumerate() {
                    assert_eq!(
                        c.load(Ordering::Relaxed),
                        1,
                        "{} n={n} p={p}: index {i} not covered exactly once",
                        sched.name()
                    );
                }
            }
        }
    }
}

#[test]
fn chunks_cover_offset_ranges() {
    let pool = ThreadPool::new(4);
    let (lo, hi) = (1000usize, 1500usize);
    for sched in all_schemes(hi - lo, 4) {
        let counts: Vec<AtomicU32> = (0..hi - lo).map(|_| AtomicU32::new(0)).collect();
        par_for_chunks(&pool, lo..hi, sched, |chunk| {
            for i in chunk {
                counts[i - lo].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(
            counts.iter().all(|c| c.load(Ordering::Relaxed) == 1),
            "{}: offset range not covered exactly once",
            sched.name()
        );
    }
}

#[test]
fn chunk_bounds_are_nonempty_and_in_range() {
    let pool = ThreadPool::new(4);
    let n = 777usize;
    for sched in all_schemes(n, 4) {
        let chunks: Mutex<Vec<Range<usize>>> = Mutex::new(Vec::new());
        let calls = AtomicUsize::new(0);
        par_for_chunks(&pool, 0..n, sched, |chunk| {
            calls.fetch_add(1, Ordering::Relaxed);
            chunks.lock().unwrap().push(chunk);
        });
        let mut chunks = chunks.into_inner().unwrap();
        assert_eq!(chunks.len(), calls.load(Ordering::Relaxed));
        let mut total = 0usize;
        for c in &chunks {
            assert!(c.start < c.end, "{}: empty chunk {c:?}", sched.name());
            assert!(c.end <= n, "{}: chunk {c:?} out of range", sched.name());
            total += c.len();
        }
        assert_eq!(total, n, "{}: chunk lengths must sum to n", sched.name());
        // Sorted by start, chunks must tile 0..n without gap or overlap
        // (exactly-once, phrased over bounds instead of per-index counts).
        chunks.sort_by_key(|c| c.start);
        let mut expect = 0usize;
        for c in &chunks {
            assert_eq!(c.start, expect, "{}: gap or overlap at {c:?}", sched.name());
            expect = c.end;
        }
        assert_eq!(expect, n);
    }
}

#[test]
fn tracked_probe_matches_dyn_ownership_for_static() {
    // Schedule::Static assigns each index to a fixed worker, so per-chunk
    // tracking (par_for_tracked) and per-index tracking through the dyn
    // path must record identical ownership maps.
    let p = 4usize;
    let n = 1000usize;
    let pool = ThreadPool::new(p);

    let chunked = AffinityProbe::new(0..n);
    par_for_tracked(&pool, 0..n, Schedule::Static, &chunked, |_| {});

    let dyn_probe = AffinityProbe::new(0..n);
    let body = |i: usize| {
        let w = current_worker_index().expect("loop bodies run on pool workers");
        dyn_probe.record(i, w);
    };
    par_for(&pool, 0..n, Schedule::Static, &body as &(dyn Fn(usize) + Sync));

    assert_eq!(
        chunked.snapshot(),
        dyn_probe.snapshot(),
        "per-chunk and per-iteration tracking disagree under Static"
    );
    // Every index must actually have been claimed by some worker.
    for i in 0..n {
        assert!(chunked.owner(i).is_some(), "index {i} untracked");
    }
}
