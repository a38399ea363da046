//! Work-sharing loop schedulers: the `omp_dynamic`, `omp_guided`, and
//! FastFlow baselines.
//!
//! All three drive a shared cursor over the iteration space; the whole
//! team (every pool worker) enters the loop, mirroring an OpenMP parallel
//! region, and each worker repeatedly grabs the next chunk until the
//! cursor passes the end:
//!
//! * **dynamic** — fixed-size chunks via `fetch_add` (omp `schedule(dynamic,
//!   chunk)`; FastFlow's dynamic mode is the same engine);
//! * **guided** — decreasing chunks `max(remaining / P, min_chunk)` via a
//!   CAS loop (omp `schedule(guided, min_chunk)`);
//! * **static-sharing** — `P` fixed blocks of `⌈N/P⌉` claimed through the
//!   shared cursor (FastFlow's static mode: the *partitioning* is static
//!   but block-to-worker assignment depends on arrival order).
//!
//! The engines hand each claimed chunk to a generic `Fn(Range<usize>)`
//! body, so the per-chunk loop monomorphizes at the call site; only the
//! team-broadcast job boundary is type-erased.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

use parloop_runtime::ThreadPool;

/// Chunk-size policy for the shared-cursor engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SharingPolicy {
    /// Fixed chunks of the given size.
    Fixed(usize),
    /// `max(remaining / team, min_chunk)` (guided self-scheduling).
    Guided { min_chunk: usize },
}

/// Run `body` over `range` on the whole team with a shared cursor,
/// delivering each claimed chunk as one contiguous range.
pub(crate) fn sharing_for<F>(
    pool: &ThreadPool,
    range: Range<usize>,
    policy: SharingPolicy,
    body: &F,
) where
    F: Fn(Range<usize>) + Sync,
{
    if range.is_empty() {
        return;
    }
    let (start, n) = (range.start, range.len());
    let team = pool.num_workers();
    // Loop-relative cursors that cannot wrap: the fixed one counts chunks
    // handed out (at most `⌈n/chunk⌉` plus one failing `fetch_add` per
    // worker), the guided one claims iterations by CAS, never past `n`.
    let cursor = AtomicUsize::new(0);

    pool.broadcast_all(|_w| loop {
        let (lo, hi) = match policy {
            SharingPolicy::Fixed(chunk) => {
                let chunk = chunk.clamp(1, n);
                let lo = cursor.fetch_add(1, Ordering::AcqRel).saturating_mul(chunk);
                if lo >= n {
                    break;
                }
                (lo, lo + chunk.min(n - lo))
            }
            SharingPolicy::Guided { min_chunk } => {
                let min_chunk = min_chunk.max(1);
                let mut lo;
                let mut hi;
                loop {
                    lo = cursor.load(Ordering::Acquire);
                    if lo >= n {
                        return;
                    }
                    let remaining = n - lo;
                    let chunk = (remaining / team).max(min_chunk).min(remaining);
                    hi = lo + chunk;
                    if cursor
                        .compare_exchange_weak(lo, hi, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        break;
                    }
                }
                (lo, hi)
            }
        };
        body(start + lo..start + hi);
    });
}

/// FastFlow-style static partitioning through a shared queue: `P` blocks,
/// block index handed out by a shared counter; each block runs as one chunk.
pub(crate) fn static_sharing_for<F>(pool: &ThreadPool, range: Range<usize>, body: &F)
where
    F: Fn(Range<usize>) + Sync,
{
    if range.is_empty() {
        return;
    }
    let n = range.len();
    let start = range.start;
    let team = pool.num_workers();
    let next_block = AtomicUsize::new(0);

    pool.broadcast_all(|_w| loop {
        let b = next_block.fetch_add(1, Ordering::AcqRel);
        if b >= team {
            break;
        }
        let r = crate::range::block_bounds(n, team, b);
        body(start + r.start..start + r.end);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn check_exactly_once(run: impl FnOnce(&ThreadPool, &(dyn Fn(Range<usize>) + Sync)), n: usize) {
        let pool = ThreadPool::new(3);
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        run(&pool, &|chunk: Range<usize>| {
            for i in chunk {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "iteration {i}");
        }
    }

    #[test]
    fn dynamic_fixed_chunks_cover_range() {
        check_exactly_once(|p, b| sharing_for(p, 0..1000, SharingPolicy::Fixed(7), &b), 1000);
    }

    #[test]
    fn dynamic_chunk_larger_than_range() {
        check_exactly_once(|p, b| sharing_for(p, 0..5, SharingPolicy::Fixed(100), &b), 5);
    }

    #[test]
    fn guided_covers_range() {
        check_exactly_once(
            |p, b| sharing_for(p, 0..1000, SharingPolicy::Guided { min_chunk: 4 }, &b),
            1000,
        );
    }

    #[test]
    fn guided_min_chunk_one() {
        check_exactly_once(
            |p, b| sharing_for(p, 0..123, SharingPolicy::Guided { min_chunk: 1 }, &b),
            123,
        );
    }

    #[test]
    fn static_sharing_covers_range() {
        check_exactly_once(|p, b| static_sharing_for(p, 0..100, &b), 100);
    }

    #[test]
    fn static_sharing_fewer_iterations_than_workers() {
        check_exactly_once(|p, b| static_sharing_for(p, 0..2, &b), 2);
    }

    #[test]
    fn empty_ranges_are_noops() {
        let pool = ThreadPool::new(2);
        sharing_for(&pool, 3..3, SharingPolicy::Fixed(4), &|_| panic!());
        sharing_for(&pool, 3..3, SharingPolicy::Guided { min_chunk: 1 }, &|_| panic!());
        static_sharing_for(&pool, 3..3, &|_| panic!());
    }

    #[test]
    fn nonzero_range_start_respected() {
        let pool = ThreadPool::new(2);
        for chunk in [3, usize::MAX / 2, usize::MAX] {
            let sum = AtomicUsize::new(0);
            sharing_for(&pool, 10..20, SharingPolicy::Fixed(chunk), &|r: Range<usize>| {
                for i in r {
                    assert!((10..20).contains(&i), "chunk {chunk}: index {i}");
                    sum.fetch_add(i, Ordering::Relaxed);
                }
            });
            assert_eq!(sum.load(Ordering::Relaxed), (10..20).sum::<usize>(), "chunk {chunk}");
        }
    }
}
