//! Static partitioning — the `omp_static` baseline.
//!
//! The iteration space is divided into `P` near-equal blocks, block `w`
//! executed by worker `w`, always. The mapping is a pure function of
//! `(N, P, w)`, so consecutive loops over the same index space place each
//! iteration on the same worker — 100 % loop affinity by construction —
//! at the price of zero load balancing: the slowest block gates the loop.

use std::ops::Range;

use parloop_runtime::ThreadPool;

use crate::range::block_bounds;

/// Execute `body` over `range` with OpenMP-style static partitioning,
/// handing each worker its whole block as one chunk.
pub(crate) fn static_for<F>(pool: &ThreadPool, range: Range<usize>, body: &F)
where
    F: Fn(Range<usize>) + Sync,
{
    if range.is_empty() {
        return;
    }
    let n = range.len();
    let start = range.start;
    let team = pool.num_workers();
    pool.broadcast_all(|w| {
        let r = block_bounds(n, team, w);
        if !r.is_empty() {
            body(start + r.start..start + r.end);
        }
    });
}

/// The worker that statically owns iteration `i` of a loop of `n`
/// iterations on `p` workers (exposed for affinity analysis and tests).
pub fn static_owner(n: usize, p: usize, i: usize) -> usize {
    crate::range::block_of(n, p, i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use parloop_runtime::current_worker_index;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn covers_exactly_once() {
        let pool = ThreadPool::new(4);
        let n = 103;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        static_for(&pool, 0..n, &|chunk: Range<usize>| {
            for i in chunk {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn iteration_lands_on_its_static_owner() {
        let pool = ThreadPool::new(4);
        let n = 64;
        let owners: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(usize::MAX)).collect();
        static_for(&pool, 0..n, &|chunk: Range<usize>| {
            let w = current_worker_index().unwrap();
            for i in chunk {
                owners[i].store(w, Ordering::Relaxed);
            }
        });
        for (i, o) in owners.iter().enumerate() {
            assert_eq!(o.load(Ordering::Relaxed), static_owner(n, 4, i), "iteration {i}");
        }
    }

    #[test]
    fn deterministic_across_repeats() {
        // The defining property: repeated loops map iterations identically.
        let pool = ThreadPool::new(3);
        let n = 50;
        let mut maps = Vec::new();
        for _ in 0..3 {
            let owners: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            static_for(&pool, 0..n, &|chunk: Range<usize>| {
                let w = current_worker_index().unwrap() + 1;
                for i in chunk {
                    owners[i].store(w, Ordering::Relaxed);
                }
            });
            maps.push(owners.iter().map(|o| o.load(Ordering::Relaxed)).collect::<Vec<_>>());
        }
        assert_eq!(maps[0], maps[1]);
        assert_eq!(maps[1], maps[2]);
    }

    #[test]
    fn offset_range() {
        let pool = ThreadPool::new(2);
        let sum = AtomicUsize::new(0);
        static_for(&pool, 100..110, &|chunk: Range<usize>| {
            for i in chunk {
                assert!((100..110).contains(&i));
                sum.fetch_add(i, Ordering::Relaxed);
            }
        });
        assert_eq!(sum.load(Ordering::Relaxed), (100..110).sum::<usize>());
    }
}
