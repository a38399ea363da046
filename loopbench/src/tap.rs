//! Hooks the benchmark's own loop bodies call, so a traced run can see
//! each op's chunks from outside the library: when they start and end,
//! and on which worker.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

use parloop_core::AffinityProbe;
use parloop_runtime::{current_worker_index, CachePadded};

/// What a loop body reports about itself.
pub trait Tap: Sync {
    /// False for the untraced tap, whose hooks compile to nothing.
    const ON: bool;
    /// Run one chunk's leaf work.
    fn leaf<R>(&self, work: impl FnOnce() -> R) -> R;
    /// Record the current worker as owner of `range` of the op's fixed
    /// iteration space (for `hybrid.affinity`).
    fn owner(&self, range: Range<usize>);
}

/// The untraced tap.
pub struct Off;

impl Tap for Off {
    const ON: bool = false;

    #[inline(always)]
    fn leaf<R>(&self, work: impl FnOnce() -> R) -> R {
        work()
    }

    #[inline(always)]
    fn owner(&self, _: Range<usize>) {}
}

const NONE: u64 = u64::MAX;

/// Chunk timeline of one op, in nanoseconds since the timeline's base.
/// Each worker writes only its own padded slot, so the hooks add no
/// cross-worker cache traffic. Reset before each traced op.
pub struct Timeline {
    base: Instant,
    slots: Vec<CachePadded<Slot>>,
    probe: Option<AffinityProbe>,
}

/// One worker's share of an op's timeline.
struct Slot {
    first_start: AtomicU64,
    last_end: AtomicU64,
    chunks: AtomicU64,
    leaf_ns: AtomicU64,
}

impl Slot {
    fn new() -> Self {
        Slot {
            first_start: AtomicU64::new(NONE),
            last_end: AtomicU64::new(0),
            chunks: AtomicU64::new(0),
            leaf_ns: AtomicU64::new(0),
        }
    }
}

/// What one traced op's chunks showed.
pub struct OpTimeline {
    /// Call to the first chunk's start.
    pub first_chunk_ns: Option<u64>,
    /// Last chunk's end to the call's return.
    pub return_ns: Option<u64>,
    /// First chunk to the first chunk on a second worker.
    pub join_ns: Option<u64>,
    /// Distinct workers that ran chunks.
    pub workers: usize,
    pub chunks: u64,
    pub leaf_ns: u64,
}

impl Timeline {
    /// A timeline for a pool of `workers`, recording owners over
    /// `0..owner_space` when the op has a fixed iteration space.
    pub fn new(workers: usize, owner_space: Option<usize>) -> Self {
        Timeline {
            base: Instant::now(),
            slots: (0..workers).map(|_| CachePadded::new(Slot::new())).collect(),
            probe: owner_space.map(|n| AffinityProbe::new(0..n)),
        }
    }

    /// The instant timeline nanoseconds count from.
    pub fn base(&self) -> Instant {
        self.base
    }

    #[inline]
    fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    pub fn reset(&self) {
        for slot in &self.slots {
            slot.first_start.store(NONE, Relaxed);
            slot.last_end.store(0, Relaxed);
            slot.chunks.store(0, Relaxed);
            slot.leaf_ns.store(0, Relaxed);
        }
        if let Some(p) = &self.probe {
            p.reset();
        }
    }

    /// Summarize the op that was called at `call` and returned at `ret`.
    pub fn summary(&self, call: u64, ret: u64) -> OpTimeline {
        let mut starts: Vec<u64> =
            self.slots.iter().map(|s| s.first_start.load(Relaxed)).filter(|&t| t != NONE).collect();
        starts.sort_unstable();
        let last_end = self.slots.iter().map(|s| s.last_end.load(Relaxed)).max().unwrap_or(0);
        let seen = !starts.is_empty();
        OpTimeline {
            first_chunk_ns: seen.then(|| starts[0].saturating_sub(call)),
            return_ns: seen.then(|| ret.saturating_sub(last_end)),
            join_ns: (starts.len() > 1).then(|| starts[1] - starts[0]),
            workers: starts.len(),
            chunks: self.slots.iter().map(|s| s.chunks.load(Relaxed)).sum(),
            leaf_ns: self.slots.iter().map(|s| s.leaf_ns.load(Relaxed)).sum(),
        }
    }

    /// The op's owner map, if it has a fixed iteration space.
    pub fn owners(&self) -> Option<Vec<u32>> {
        self.probe.as_ref().map(AffinityProbe::snapshot)
    }
}

impl Tap for Timeline {
    const ON: bool = true;

    fn leaf<R>(&self, work: impl FnOnce() -> R) -> R {
        let start = self.now();
        let out = work();
        let end = self.now();
        // Only the worker itself writes its slot: plain load/store suffices.
        if let Some(slot) = current_worker_index().and_then(|w| self.slots.get(w)) {
            if slot.first_start.load(Relaxed) == NONE {
                slot.first_start.store(start, Relaxed);
            }
            slot.last_end.store(end, Relaxed);
            slot.chunks.store(slot.chunks.load(Relaxed) + 1, Relaxed);
            slot.leaf_ns.store(slot.leaf_ns.load(Relaxed) + (end - start), Relaxed);
        }
        out
    }

    fn owner(&self, range: Range<usize>) {
        if let (Some(p), Some(w)) = (&self.probe, current_worker_index()) {
            p.record_range(range, w);
        }
    }
}
