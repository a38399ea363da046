//! IS — the NAS integer sort kernel (bucket sort of small integer keys).
//!
//! Keys follow the NPB distribution: each key is the scaled average of
//! four uniform deviates from the NAS LCG, giving a centered (roughly
//! binomial) histogram. Ranking proceeds in three parallel phases:
//!
//! 1. **histogram** — per-block private histograms merged into a global
//!    one (this is the loop whose scattered shared writes make IS a
//!    locality stress test);
//! 2. **prefix** — an exclusive scan over the (small) key universe,
//!    done sequentially as in NPB;
//! 3. **permute** — each block writes its keys to their ranked positions
//!    via per-key cursors.

use std::sync::atomic::{AtomicU64, Ordering};

use parloop_core::{par_for, Schedule};
use parloop_runtime::ThreadPool;

use crate::randdp::{randlc, A, SEED};
use crate::util::UnsafeSlice;

/// IS problem size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IsParams {
    /// log2 of the number of keys.
    pub n_log: u32,
    /// log2 of the key universe size (max key + 1).
    pub key_log: u32,
    /// Number of parallel blocks for histogram/permute loops.
    pub blocks: usize,
}

impl IsParams {
    /// NAS class S: 2^16 keys over 2^11 values.
    pub fn class_s() -> Self {
        IsParams { n_log: 16, key_log: 11, blocks: 128 }
    }

    /// A miniature size for fast tests.
    pub fn mini() -> Self {
        IsParams { n_log: 12, key_log: 8, blocks: 32 }
    }

    pub fn n(&self) -> usize {
        1 << self.n_log
    }

    pub fn max_key(&self) -> usize {
        1 << self.key_log
    }
}

/// Generate the NPB key sequence: `k_i = ⌊(r1+r2+r3+r4)/4 · max_key⌋`.
pub fn generate_keys(params: IsParams) -> Vec<u32> {
    let mut x = SEED;
    let max_key = params.max_key() as f64;
    (0..params.n())
        .map(|_| {
            let s: f64 = (0..4).map(|_| randlc(&mut x, A)).sum();
            ((s / 4.0) * max_key) as u32
        })
        .collect()
}

/// Result of a full rank-and-sort.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IsResult {
    pub sorted: Vec<u32>,
    pub histogram: Vec<u64>,
}

/// Sort `keys` with parallel loops scheduled by `sched`. The body runs
/// inside one `install`, so a pool worker issues both loops.
pub fn is_sort(pool: &ThreadPool, params: IsParams, keys: &[u32], sched: Schedule) -> IsResult {
    let n = keys.len();
    let universe = params.max_key();
    // The output and the shared buckets come from the caller's allocator,
    // not the worker's (DESIGN §5.5, "One `install` per kernel"). The
    // buckets are first written inside `install`, so their cache lines
    // start on a worker, not on the caller's core.
    let mut sorted = vec![0u32; n];
    let mut histogram = Vec::with_capacity(universe);
    let mut hist: Vec<AtomicU64> = Vec::with_capacity(universe);
    let mut cursors: Vec<AtomicU64> = Vec::with_capacity(universe);
    pool.install(|| {
        let blocks = params.blocks.min(n.max(1));

        // Phase 1: histogram (shared atomic buckets — the scattered-write loop).
        hist.extend((0..universe).map(|_| AtomicU64::new(0)));
        par_for(pool, 0..blocks, sched, |b| {
            let r = parloop_core::block_bounds(n, blocks, b);
            // Private tally first, then one merge pass — NPB's approach.
            let mut local = vec![0u64; universe];
            for &k in &keys[r] {
                local[k as usize] += 1;
            }
            for (slot, &c) in hist.iter().zip(&local) {
                if c > 0 {
                    slot.fetch_add(c, Ordering::Relaxed);
                }
            }
        });

        // Phase 2: exclusive prefix sum (sequential, tiny).
        let mut acc = 0u64;
        for h in &hist {
            let count = h.load(Ordering::Relaxed);
            histogram.push(count);
            cursors.push(AtomicU64::new(acc));
            acc += count;
        }
        debug_assert_eq!(acc as usize, n);

        // Phase 3: permute into ranked positions.
        {
            let out = UnsafeSlice::new(&mut sorted);
            let cursors = &cursors;
            par_for(pool, 0..blocks, sched, |b| {
                let r = parloop_core::block_bounds(n, blocks, b);
                for &k in &keys[r] {
                    let pos = cursors[k as usize].fetch_add(1, Ordering::Relaxed) as usize;
                    // SAFETY: `pos` values are unique (fetch_add) and < n.
                    unsafe { out.write(pos, k) };
                }
            });
        }
    });
    IsResult { sorted, histogram }
}

/// Fully sequential reference.
pub fn is_sort_sequential(params: IsParams, keys: &[u32]) -> IsResult {
    let mut histogram = vec![0u64; params.max_key()];
    for &k in keys {
        histogram[k as usize] += 1;
    }
    let mut sorted = keys.to_vec();
    sorted.sort_unstable();
    IsResult { sorted, histogram }
}

/// Rank of `key` given the global histogram: number of keys strictly
/// smaller (the position its first copy takes in the sorted output).
pub fn rank_of(histogram: &[u64], key: u32) -> u64 {
    histogram[..key as usize].iter().sum()
}

/// Result of the full NPB-style benchmark loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IsBenchResult {
    /// `(probe_key, rank)` pairs recorded each iteration — NPB's partial
    /// verification values.
    pub partial_ranks: Vec<(u32, u64)>,
    /// Final full sort passed verification.
    pub final_verified: bool,
}

/// The full NPB IS benchmark: `iterations` ranking passes, perturbing two
/// keys per pass (as NPB does to defeat result caching), recording partial
/// ranks, and fully sorting + verifying at the end.
pub fn is_bench(
    pool: &ThreadPool,
    params: IsParams,
    sched: Schedule,
    iterations: usize,
) -> IsBenchResult {
    let mut keys = generate_keys(params);
    let max_key = params.max_key() as u32;
    let n = keys.len();
    assert!(2 * iterations + 1 < n, "too many iterations for the key count");

    let mut partial_ranks = Vec::with_capacity(iterations * 2);
    let mut last = None;
    for it in 1..=iterations {
        // NPB's per-iteration perturbation.
        keys[it] = it as u32 % max_key;
        keys[it + iterations] = (max_key - it as u32) % max_key;

        let r = is_sort(pool, params, &keys, sched);
        partial_ranks.push((keys[it], rank_of(&r.histogram, keys[it])));
        partial_ranks.push((keys[it + iterations], rank_of(&r.histogram, keys[it + iterations])));
        last = Some(r);
    }
    let final_verified = match last {
        Some(r) => verify(&keys, &r),
        None => is_sort(pool, params, &keys, sched).sorted.windows(2).all(|w| w[0] <= w[1]),
    };
    IsBenchResult { partial_ranks, final_verified }
}

/// NPB-style verification: the output is sorted and is a permutation of
/// the input.
pub fn verify(keys: &[u32], result: &IsResult) -> bool {
    if result.sorted.len() != keys.len() {
        return false;
    }
    if result.sorted.windows(2).any(|w| w[0] > w[1]) {
        return false;
    }
    let total: u64 = result.histogram.iter().sum();
    if total as usize != keys.len() {
        return false;
    }
    // Histogram must match the sorted output's run lengths.
    let mut seen = vec![0u64; result.histogram.len()];
    for &k in &result.sorted {
        match seen.get_mut(k as usize) {
            Some(s) => *s += 1,
            None => return false,
        }
    }
    seen == result.histogram
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_distribution_is_centered() {
        let params = IsParams::mini();
        let keys = generate_keys(params);
        let mean: f64 = keys.iter().map(|&k| k as f64).sum::<f64>() / keys.len() as f64;
        let mid = params.max_key() as f64 / 2.0;
        assert!((mean - mid).abs() < mid * 0.05, "mean {mean} vs mid {mid}");
        assert!(keys.iter().all(|&k| (k as usize) < params.max_key()));
    }

    #[test]
    fn sequential_reference_verifies() {
        let params = IsParams::mini();
        let keys = generate_keys(params);
        let r = is_sort_sequential(params, &keys);
        assert!(verify(&keys, &r));
    }

    #[test]
    fn parallel_sort_matches_sequential_for_all_schedules() {
        let pool = ThreadPool::new(3);
        let params = IsParams::mini();
        let keys = generate_keys(params);
        let reference = is_sort_sequential(params, &keys);
        for sched in Schedule::roster(params.blocks, 3) {
            let r = is_sort(&pool, params, &keys, sched);
            assert!(verify(&keys, &r), "{}: verification failed", sched.name());
            assert_eq!(r.sorted, reference.sorted, "{}", sched.name());
            assert_eq!(r.histogram, reference.histogram, "{}", sched.name());
        }
    }

    #[test]
    fn verify_rejects_corruption() {
        let params = IsParams::mini();
        let keys = generate_keys(params);
        let mut r = is_sort_sequential(params, &keys);
        r.sorted[0] = r.sorted[r.sorted.len() - 1] + 1; // break sortedness
        assert!(!verify(&keys, &r));
        let mut r2 = is_sort_sequential(params, &keys);
        r2.histogram[0] += 1; // break conservation
        assert!(!verify(&keys, &r2));
    }

    #[test]
    fn rank_of_matches_sorted_position() {
        let params = IsParams::mini();
        let keys = generate_keys(params);
        let r = is_sort_sequential(params, &keys);
        for probe in [0u32, 1, 5, 100] {
            let rank = rank_of(&r.histogram, probe) as usize;
            // All keys before `rank` are < probe; all at/after are >= probe.
            assert!(r.sorted[..rank].iter().all(|&k| k < probe));
            assert!(r.sorted[rank..].iter().all(|&k| k >= probe));
        }
    }

    #[test]
    fn bench_loop_partial_ranks_agree_across_schedulers() {
        let pool = ThreadPool::new(3);
        let params = IsParams::mini();
        let reference = is_bench(&pool, params, Schedule::omp_static(), 5);
        assert!(reference.final_verified);
        assert_eq!(reference.partial_ranks.len(), 10);
        for sched in [Schedule::hybrid(), Schedule::vanilla(), Schedule::omp_guided()] {
            let r = is_bench(&pool, params, sched, 5);
            assert!(r.final_verified, "{}", sched.name());
            assert_eq!(r.partial_ranks, reference.partial_ranks, "{}", sched.name());
        }
    }

    #[test]
    fn handles_single_block() {
        let pool = ThreadPool::new(2);
        let params = IsParams { n_log: 8, key_log: 4, blocks: 1 };
        let keys = generate_keys(params);
        let r = is_sort(&pool, params, &keys, Schedule::hybrid());
        assert!(verify(&keys, &r));
    }
}
