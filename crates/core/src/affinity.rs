//! Loop-affinity measurement (the instrument behind the paper's Figure 2).
//!
//! For iterative applications — an outer sequential loop around an inner
//! parallel loop over the same index space — *loop affinity* is the
//! fraction of iterations executed by the same worker in consecutive
//! parallel loops. Static partitioning retains 100 % by construction;
//! plain work stealing retains almost none; the hybrid scheme sits near
//! static for balanced loads.

use std::ops::Range;
use std::sync::atomic::{AtomicU32, Ordering};

/// Marker for an iteration that was never recorded.
pub const UNRECORDED: u32 = u32::MAX;

/// Records which worker executed each iteration of one parallel loop.
pub struct AffinityProbe {
    base: usize,
    owners: Box<[AtomicU32]>,
}

impl AffinityProbe {
    /// A probe covering `range`.
    pub fn new(range: Range<usize>) -> Self {
        AffinityProbe {
            base: range.start,
            owners: range.map(|_| AtomicU32::new(UNRECORDED)).collect(),
        }
    }

    /// Record that iteration `i` ran on `worker`.
    #[inline]
    pub fn record(&self, i: usize, worker: usize) {
        self.owners[i - self.base].store(worker as u32, Ordering::Relaxed);
    }

    /// Record that every iteration in `chunk` ran on `worker` — the
    /// per-chunk fast path used by `par_for_tracked`.
    #[inline]
    pub fn record_range(&self, chunk: Range<usize>, worker: usize) {
        let w = worker as u32;
        for o in &self.owners[chunk.start - self.base..chunk.end - self.base] {
            o.store(w, Ordering::Relaxed);
        }
    }

    /// The worker that executed iteration `i`, if recorded.
    pub fn owner(&self, i: usize) -> Option<usize> {
        match self.owners[i - self.base].load(Ordering::Relaxed) {
            UNRECORDED => None,
            w => Some(w as usize),
        }
    }

    /// Copy out the owner map (index-aligned with the probe's range).
    pub fn snapshot(&self) -> Vec<u32> {
        self.owners.iter().map(|o| o.load(Ordering::Relaxed)).collect()
    }

    /// Forget all recordings (reuse between loops).
    pub fn reset(&self) {
        for o in self.owners.iter() {
            o.store(UNRECORDED, Ordering::Relaxed);
        }
    }

    /// Number of iterations covered.
    pub fn len(&self) -> usize {
        self.owners.len()
    }

    /// Whether the probe covers no iterations.
    pub fn is_empty(&self) -> bool {
        self.owners.is_empty()
    }
}

/// Fraction of iterations with the same (recorded) owner in two
/// consecutive owner maps. Iterations unrecorded in either map are skipped;
/// returns 1.0 for maps with no comparable iterations.
pub fn same_worker_fraction(prev: &[u32], cur: &[u32]) -> f64 {
    assert_eq!(prev.len(), cur.len(), "owner maps must cover the same range");
    let mut same = 0usize;
    let mut comparable = 0usize;
    for (&a, &b) in prev.iter().zip(cur) {
        if a == UNRECORDED || b == UNRECORDED {
            continue;
        }
        comparable += 1;
        if a == b {
            same += 1;
        }
    }
    if comparable == 0 {
        1.0
    } else {
        same as f64 / comparable as f64
    }
}

/// Accumulates affinity across a sequence of parallel loops.
#[derive(Default)]
pub struct ConsecutiveAffinity {
    prev: Option<Vec<u32>>,
    fractions: Vec<f64>,
}

impl ConsecutiveAffinity {
    pub fn new() -> Self {
        Self::default()
    }

    /// Feed the owner map of the next loop in the sequence.
    pub fn observe(&mut self, snapshot: Vec<u32>) {
        if let Some(prev) = &self.prev {
            self.fractions.push(same_worker_fraction(prev, &snapshot));
        }
        self.prev = Some(snapshot);
    }

    /// Per-transition affinity fractions (loop k vs loop k+1).
    pub fn fractions(&self) -> &[f64] {
        &self.fractions
    }

    /// Mean affinity over all observed transitions (1.0 if none).
    pub fn mean(&self) -> f64 {
        if self.fractions.is_empty() {
            1.0
        } else {
            self.fractions.iter().sum::<f64>() / self.fractions.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_records_and_resets() {
        let p = AffinityProbe::new(10..20);
        assert_eq!(p.len(), 10);
        assert_eq!(p.owner(10), None);
        p.record(10, 3);
        p.record(19, 7);
        assert_eq!(p.owner(10), Some(3));
        assert_eq!(p.owner(19), Some(7));
        p.reset();
        assert_eq!(p.owner(10), None);
    }

    #[test]
    fn record_range_marks_whole_chunk() {
        let p = AffinityProbe::new(10..20);
        p.record_range(12..15, 5);
        assert_eq!(p.owner(11), None);
        assert_eq!(p.owner(12), Some(5));
        assert_eq!(p.owner(14), Some(5));
        assert_eq!(p.owner(15), None);
    }

    #[test]
    fn fraction_counts_matches() {
        let prev = vec![0, 1, 2, 3];
        let cur = vec![0, 1, 9, 3];
        assert!((same_worker_fraction(&prev, &cur) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn fraction_skips_unrecorded() {
        let prev = vec![0, UNRECORDED, 2];
        let cur = vec![0, 1, UNRECORDED];
        // Only index 0 comparable; it matches.
        assert_eq!(same_worker_fraction(&prev, &cur), 1.0);
    }

    #[test]
    fn fraction_empty_maps() {
        assert_eq!(same_worker_fraction(&[], &[]), 1.0);
    }

    #[test]
    fn consecutive_affinity_tracks_transitions() {
        let mut c = ConsecutiveAffinity::new();
        c.observe(vec![0, 0, 1, 1]);
        c.observe(vec![0, 0, 1, 1]); // identical: 1.0
        c.observe(vec![1, 1, 0, 0]); // fully swapped: 0.0
        assert_eq!(c.fractions(), &[1.0, 0.0]);
        assert!((c.mean() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "same range")]
    fn mismatched_lengths_panic() {
        same_worker_fraction(&[0], &[0, 1]);
    }
}
