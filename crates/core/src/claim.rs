//! The paper's claiming heuristic (Algorithms 2 and 3).
//!
//! A hybrid loop divides its iteration space into `R = 2^k` partitions and
//! tracks which have been claimed in a shared flag array `A` (one
//! `fetch_or` per claim — Algorithm 2). Each worker `w` walks partitions in
//! a *worker-specific* order: index `i` starts at `0` and maps to partition
//! `r = i XOR w`, so every worker tries its own earmarked partition
//! (`r = w`) first. On success `i += 1`; on failure at `i = 0` the worker
//! leaves the heuristic; on failure at `i > 0` it skips the whole sibling
//! index group via `i += i & (-i)` (add the least-significant set bit).
//!
//! This module keeps the heuristic in three composable forms:
//!
//! * [`ClaimWalker`] — the pure index walk as a step machine, shared by the
//!   threaded hybrid loop and the virtual-time simulator;
//! * [`ClaimTable`] — the atomic flag array `A`;
//! * [`run_claim_heuristic`] — Algorithm 3 glued together, parameterized
//!   over what "execute partition `r`" means.
//!
//! The index-group combinatorics from the correctness proof (Lemma 2) are
//! exposed as [`index_group`] / [`partition_group`] so tests can check the
//! paper's structural claims directly.

use std::ops::Range;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

use parloop_runtime::CachePadded;

/// Statistics from one worker's pass through the heuristic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeuristicStats {
    /// Partitions this worker successfully claimed (and executed).
    pub claimed: usize,
    /// Total unsuccessful claims.
    pub failed: usize,
    /// Longest run of consecutive unsuccessful claims (Lemma 4 bounds this
    /// by `lg R`).
    pub max_failed_run: usize,
}

/// The pure claim-index walk of Algorithm 3, as a step machine.
///
/// Drive it with [`candidate`](ClaimWalker::candidate) (which partition to
/// try next) and [`record`](ClaimWalker::record) (whether the `fetch_or`
/// claim succeeded). This split exists so the discrete-event simulator can
/// interleave many workers' walks in virtual time while reusing the exact
/// algorithm the threaded runtime executes.
#[derive(Debug, Clone)]
pub struct ClaimWalker {
    w: usize,
    r_total: usize,
    i: usize,
    finished: bool,
    stats: HeuristicStats,
    failed_run: usize,
}

impl ClaimWalker {
    /// A walker for worker `w` over `r_total` partitions: candidates are
    /// `i XOR w`, so the walk visits its earmarked partition `w` first and
    /// then climbs the sibling-group tree. Exactly-once (Theorem 3) and the
    /// `lg R` failed-run bound (Lemma 4) hold for any anchors, colliding
    /// ones included.
    ///
    /// `r_total` must be a power of two and `w < r_total`.
    pub fn new(w: usize, r_total: usize) -> Self {
        assert!(r_total.is_power_of_two(), "partition count must be a power of two");
        assert!(w < r_total, "earmark {w} out of range for {r_total} partitions");
        ClaimWalker {
            w,
            r_total,
            i: 0,
            finished: false,
            stats: HeuristicStats::default(),
            failed_run: 0,
        }
    }

    /// The partition this worker should attempt to claim next, or `None`
    /// if the walk has finished.
    #[inline]
    pub fn candidate(&self) -> Option<usize> {
        if self.finished {
            None
        } else {
            Some(self.i ^ self.w)
        }
    }

    /// Record the outcome of attempting to claim the current candidate.
    ///
    /// Returns the partition to *execute* if the claim succeeded.
    pub fn record(&mut self, success: bool) -> Option<usize> {
        assert!(!self.finished, "recorded a claim after the walk finished");
        let r = self.i ^ self.w;
        if success {
            self.stats.claimed += 1;
            self.failed_run = 0;
            self.i += 1;
            if self.i >= self.r_total {
                self.finished = true;
            }
            Some(r)
        } else {
            self.stats.failed += 1;
            self.failed_run += 1;
            self.stats.max_failed_run = self.stats.max_failed_run.max(self.failed_run);
            if self.i == 0 {
                // First (earmarked) partition already claimed: leave the
                // heuristic and fall back to ordinary work stealing.
                self.finished = true;
            } else {
                // Skip the sibling subtree: add the least-significant set bit.
                self.i += self.i & self.i.wrapping_neg();
                if self.i >= self.r_total {
                    self.finished = true;
                }
            }
            None
        }
    }

    /// Whether the walk is over.
    #[inline]
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// The current claim index `i` (so observers can tell *where* in the
    /// walk an attempt happened: `i = 0` is the earmarked partition, and a
    /// fresh walk always begins at `i = 0`).
    #[inline]
    pub fn index(&self) -> usize {
        self.i
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> HeuristicStats {
        self.stats
    }
}

/// The shared partition flag array `A` (Algorithm 2).
///
/// Flags are cache-line padded: claims are rare (at most `R` in a loop's
/// lifetime) but contended, and padding keeps a claim from invalidating its
/// neighbours' lines.
pub struct ClaimTable {
    flags: Box<[CachePadded<AtomicU32>]>,
    claimed_count: AtomicUsize,
}

impl ClaimTable {
    /// A table of `r_total` unclaimed partitions (`r_total` a power of two).
    pub fn new(r_total: usize) -> Self {
        assert!(r_total.is_power_of_two());
        ClaimTable {
            flags: (0..r_total).map(|_| CachePadded::new(AtomicU32::new(0))).collect(),
            claimed_count: AtomicUsize::new(0),
        }
    }

    /// Number of partitions `R`.
    #[inline]
    pub fn len(&self) -> usize {
        self.flags.len()
    }

    /// True if the table has no partitions (never the case in a real loop).
    pub fn is_empty(&self) -> bool {
        self.flags.is_empty()
    }

    /// Atomically claim partition `r`; true if *this* call won the claim.
    ///
    /// This is Algorithm 2's `fetch_and_or(A[r], 1)` with the polarity
    /// flipped to "true means success".
    #[inline]
    pub fn try_claim(&self, r: usize) -> bool {
        let won = self.flags[r].fetch_or(1, Ordering::AcqRel) == 0;
        if won {
            self.claimed_count.fetch_add(1, Ordering::AcqRel);
        }
        won
    }

    /// Whether partition `r` has been claimed by someone.
    #[inline]
    pub fn is_claimed(&self, r: usize) -> bool {
        self.flags[r].load(Ordering::Acquire) != 0
    }

    /// Whether every partition has been claimed.
    #[inline]
    pub fn all_claimed(&self) -> bool {
        self.claimed_count.load(Ordering::Acquire) == self.flags.len()
    }
}

/// Run Algorithm 3 to completion for worker `w`: walk the claim sequence,
/// executing each successfully-claimed partition with `exec`.
pub fn run_claim_heuristic(
    table: &ClaimTable,
    w: usize,
    mut exec: impl FnMut(usize),
) -> HeuristicStats {
    let mut walker = ClaimWalker::new(w, table.len());
    while let Some(r) = walker.candidate() {
        let won = table.try_claim(r);
        if let Some(part) = walker.record(won) {
            exec(part);
        }
    }
    walker.stats()
}

/// The level-`n` index group `I(x, n) = { x·2^n, …, x·2^n + 2^n − 1 }`.
pub fn index_group(x: usize, n: u32) -> Range<usize> {
    (x << n)..((x + 1) << n)
}

/// The level-`n` partition group `G(w, x, n) = w ⊕ I(x, n)`.
pub fn partition_group(w: usize, x: usize, n: u32) -> Vec<usize> {
    index_group(x, n).map(|i| i ^ w).collect()
}

/// Partition count for `P` workers with `oversub`-fold oversubscription:
/// the next power of two `≥ P · oversub`.
///
/// Theorem 5 analyzes a hybrid loop for *arbitrary* `R < n`: more
/// partitions than workers trade a larger `O(R lg R)` claim-work term for
/// finer-grained late-phase balancing (late partitions are claimed, not
/// stolen, so they keep their deterministic earmark order). `oversub = 1`
/// recovers the paper's default `R = next_pow2(P)`.
pub fn partitions_oversubscribed(p: usize, oversub: usize) -> usize {
    assert!(p > 0);
    (p * oversub.max(1)).next_power_of_two()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn walker_solo_claims_everything_in_xor_order() {
        // A lone worker's sequence visits partitions i ^ w for i = 0..R.
        let table = ClaimTable::new(8);
        let mut order = Vec::new();
        let stats = run_claim_heuristic(&table, 5, |r| order.push(r));
        assert_eq!(order, vec![5, 4, 7, 6, 1, 0, 3, 2]);
        assert_eq!(stats.claimed, 8);
        assert_eq!(stats.failed, 0);
        assert!(table.all_claimed());
    }

    #[test]
    fn walker_returns_immediately_when_earmark_taken() {
        let table = ClaimTable::new(8);
        assert!(table.try_claim(3));
        let stats = run_claim_heuristic(&table, 3, |_| panic!("should claim nothing"));
        assert_eq!(stats.claimed, 0);
        assert_eq!(stats.failed, 1);
    }

    #[test]
    fn lsb_increment_skips_sibling_groups() {
        // After failing at i=2 (binary 10), the next index is 4 (skip {2,3}).
        let mut w = ClaimWalker::new(0, 8);
        assert_eq!(w.candidate(), Some(0));
        assert_eq!(w.index(), 0);
        w.record(true);
        assert_eq!(w.candidate(), Some(1));
        assert_eq!(w.index(), 1);
        w.record(true);
        assert_eq!(w.candidate(), Some(2));
        w.record(false);
        assert_eq!(w.candidate(), Some(4));
        assert_eq!(w.index(), 4);
        w.record(false); // i = 4 -> 8 >= R: done
        assert!(w.finished());
        assert_eq!(w.stats().max_failed_run, 2);
    }

    #[test]
    fn two_workers_cover_all_partitions() {
        // Interleave two workers' walks in lockstep; union must be 0..R
        // exactly once (Theorem 3 for this interleaving).
        for r_total in [1usize, 2, 4, 8, 16, 32] {
            for w1 in 0..r_total.min(4) {
                for w2 in 0..r_total.min(4) {
                    if w1 == w2 {
                        continue;
                    }
                    let table = ClaimTable::new(r_total);
                    let mut a = ClaimWalker::new(w1, r_total);
                    let mut b = ClaimWalker::new(w2, r_total);
                    let mut executed = Vec::new();
                    while !a.finished() || !b.finished() {
                        for walker in [&mut a, &mut b] {
                            if let Some(r) = walker.candidate() {
                                let won = table.try_claim(r);
                                if let Some(part) = walker.record(won) {
                                    executed.push(part);
                                }
                            }
                        }
                    }
                    let set: HashSet<_> = executed.iter().copied().collect();
                    assert_eq!(set.len(), executed.len(), "partition executed twice");
                    assert_eq!(set.len(), r_total, "some partition never executed");
                }
            }
        }
    }

    #[test]
    fn lemma4_failed_run_bound_under_adversarial_prefill() {
        // Pre-claim arbitrary subsets; a walker must never fail more than
        // lg R times in a row.
        let r_total = 64usize;
        let lg = r_total.trailing_zeros() as usize;
        for mask in [0u64, 0xAAAA_AAAA_AAAA_AAAA, 0x0F0F_F0F0_1234_5678, u64::MAX >> 1] {
            for w in [0usize, 1, 7, 33, 63] {
                let table = ClaimTable::new(r_total);
                for r in 0..r_total {
                    if mask >> r & 1 == 1 {
                        table.try_claim(r);
                    }
                }
                let stats = run_claim_heuristic(&table, w, |_| {});
                assert!(
                    stats.max_failed_run <= lg,
                    "mask {mask:#x} w {w}: failed run {} > lg R = {lg}",
                    stats.max_failed_run
                );
            }
        }
    }

    #[test]
    fn claim_table_exactly_once_under_threads() {
        use std::sync::Arc;
        let table = Arc::new(ClaimTable::new(128));
        let wins = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let table = Arc::clone(&table);
                let wins = Arc::clone(&wins);
                s.spawn(move || {
                    for r in 0..128 {
                        if table.try_claim(r) {
                            wins.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(wins.load(Ordering::Relaxed), 128);
        assert!(table.all_claimed());
    }

    #[test]
    fn index_group_properties() {
        // I(x, n) = I(2x, n-1) ∪ I(2x+1, n-1).
        for n in 1..5u32 {
            for x in 0..(32 >> n) {
                let parent: Vec<_> = index_group(x, n).collect();
                let mut kids: Vec<_> = index_group(2 * x, n - 1).collect();
                kids.extend(index_group(2 * x + 1, n - 1));
                assert_eq!(parent, kids);
            }
        }
    }

    #[test]
    fn partition_group_is_xor_image() {
        // The paper's example: for w = 5, R = 8, the level-2 groups are
        // {5,4,7,6} and {1,0,3,2}.
        assert_eq!(partition_group(5, 0, 2), vec![5, 4, 7, 6]);
        assert_eq!(partition_group(5, 1, 2), vec![1, 0, 3, 2]);
    }

    #[test]
    fn partition_group_level_n_is_closed_under_xor_of_low_bits() {
        // G(w, x, n) for any two workers w, w' differing only in the low n
        // bits is the same *set* (used implicitly in Lemma 2's case split).
        let n = 2u32;
        let g1: HashSet<_> = partition_group(4, 1, n).into_iter().collect();
        let g2: HashSet<_> = partition_group(4 ^ 0b11, 1, n).into_iter().collect();
        assert_eq!(g1, g2);
    }

    #[test]
    fn new_anchors_the_walk_and_keeps_coverage() {
        // A relabeled walk visits its anchor first, then the same XOR
        // sibling tree — so a lone walker still covers everything.
        let table = ClaimTable::new(8);
        let mut order = Vec::new();
        let mut walker = ClaimWalker::new(6, 8);
        while let Some(r) = walker.candidate() {
            if let Some(part) = walker.record(table.try_claim(r)) {
                order.push(part);
            }
        }
        assert_eq!(order, vec![6, 7, 4, 5, 2, 3, 0, 1]);
        assert!(table.all_claimed());
    }

    #[test]
    fn relabeled_walkers_keep_exactly_once_and_lemma4() {
        // Arbitrary (even colliding) anchors: union exactly 0..R, and the
        // failed-run bound still holds for every walker.
        let r_total = 16usize;
        let lg = r_total.trailing_zeros() as usize;
        for anchors in [[0usize, 0, 0, 0], [3, 3, 11, 11], [0, 5, 10, 15], [7, 6, 5, 4]] {
            let table = ClaimTable::new(r_total);
            let mut walkers: Vec<_> =
                anchors.iter().map(|&a| ClaimWalker::new(a, r_total)).collect();
            let mut executed = Vec::new();
            while walkers.iter().any(|w| !w.finished()) {
                for walker in &mut walkers {
                    if let Some(r) = walker.candidate() {
                        if let Some(part) = walker.record(table.try_claim(r)) {
                            executed.push(part);
                        }
                    }
                }
            }
            let set: HashSet<_> = executed.iter().copied().collect();
            assert_eq!(set.len(), executed.len(), "anchors {anchors:?}: partition ran twice");
            assert_eq!(set.len(), r_total, "anchors {anchors:?}: partition missed");
            for w in &walkers {
                assert!(w.stats().max_failed_run <= lg, "anchors {anchors:?}");
            }
        }
    }

    #[test]
    fn partitions_without_oversubscription_round_up() {
        assert_eq!(partitions_oversubscribed(1, 1), 1);
        assert_eq!(partitions_oversubscribed(2, 1), 2);
        assert_eq!(partitions_oversubscribed(3, 1), 4);
        assert_eq!(partitions_oversubscribed(8, 1), 8);
        assert_eq!(partitions_oversubscribed(9, 1), 16);
        assert_eq!(partitions_oversubscribed(32, 1), 32);
    }
}
