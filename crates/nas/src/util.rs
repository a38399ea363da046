//! Shared helpers for the NAS kernels: disjoint-write slices and parallel
//! reductions, usable under *any* [`Schedule`].

use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::ops::Range;

use parloop_core::{par_for_chunks, Schedule};
use parloop_runtime::{current_worker_index, CachePadded, ThreadPool};

/// A shared view of a mutable slice for parallel loops whose iterations
/// write *disjoint* index sets (stencils over planes, per-row outputs…).
///
/// # Safety contract
/// Callers must guarantee that no two concurrent iterations touch the same
/// index. Every scheduler in this workspace executes each loop index
/// exactly once (Theorem 3 for the hybrid scheme; trivially for the
/// others), so indexing by loop-owned positions is race-free.
pub struct UnsafeSlice<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: PhantomData<&'a mut [T]>,
}

unsafe impl<T: Send> Send for UnsafeSlice<'_, T> {}
unsafe impl<T: Send> Sync for UnsafeSlice<'_, T> {}

impl<'a, T> UnsafeSlice<'a, T> {
    pub fn new(slice: &'a mut [T]) -> Self {
        UnsafeSlice { ptr: slice.as_mut_ptr(), len: slice.len(), _marker: PhantomData }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Write `value` at `i`.
    ///
    /// # Safety
    /// `i < len`, and no concurrent access to index `i`.
    #[inline]
    pub unsafe fn write(&self, i: usize, value: T) {
        debug_assert!(i < self.len);
        *self.ptr.add(i) = value;
    }

    /// Read the value at `i` (for `T: Copy`).
    ///
    /// # Safety
    /// `i < len`, and no concurrent *write* to index `i`.
    #[inline]
    pub unsafe fn read(&self, i: usize) -> T
    where
        T: Copy,
    {
        debug_assert!(i < self.len);
        *self.ptr.add(i)
    }

    /// Get a raw mutable pointer to index `i`.
    ///
    /// # Safety
    /// `i < len`; aliasing rules are the caller's responsibility.
    #[inline]
    pub unsafe fn get_mut(&self, i: usize) -> *mut T {
        debug_assert!(i < self.len);
        self.ptr.add(i)
    }

    /// Reborrow the chunk `range` as a plain mutable slice, so chunk
    /// bodies can run dense stride-1 leaf kernels over it (per-index
    /// `write` calls hide the loop shape from the autovectorizer).
    ///
    /// # Safety
    /// `range` in bounds, and no concurrent access to any index in it —
    /// the scheduler's disjoint-chunk guarantee (see the type docs).
    #[inline]
    #[allow(clippy::mut_from_ref)] // disjoint-chunk contract, as with `write`
    pub unsafe fn slice_mut(&self, range: Range<usize>) -> &'a mut [T] {
        debug_assert!(range.start <= range.end && range.end <= self.len);
        std::slice::from_raw_parts_mut(self.ptr.add(range.start), range.len())
    }
}

/// Whether `got` is within NPB's verification epsilon of `want`: a
/// relative 1e-8, loose enough for reductions whose order depends on the
/// schedule.
pub(crate) fn within_npb_epsilon(got: f64, want: f64) -> bool {
    const EPSILON: f64 = 1e-8;
    ((got - want) / want).abs() <= EPSILON
}

/// Per-worker accumulator cells (cache-line padded). Each pool worker only
/// ever touches its own slot, so plain (non-atomic) accumulation is safe.
struct WorkerAccum {
    slots: Vec<CachePadded<UnsafeCell<f64>>>,
}

unsafe impl Sync for WorkerAccum {}

impl WorkerAccum {
    fn new(p: usize) -> Self {
        WorkerAccum { slots: (0..p).map(|_| CachePadded::new(UnsafeCell::new(0.0))).collect() }
    }

    #[inline]
    fn add(&self, w: usize, v: f64) {
        // SAFETY: slot `w` is only accessed by pool worker `w`, which is a
        // single OS thread.
        unsafe { *self.slots[w].get() += v }
    }

    fn total(&self) -> f64 {
        self.slots.iter().map(|s| unsafe { *s.get() }).sum()
    }
}

/// Parallel sum-reduction: `Σ f(i)` for `i` in `range`, scheduled by
/// `sched`. Accumulation is per-worker with one worker lookup per *chunk*
/// (the chunk folds into a local register first), so there is no atomic
/// contention; the final combine is sequential.
///
/// Floating-point note: the summation *order* depends on the schedule and
/// on stealing, so results across schedulers agree only to rounding —
/// compare with a tolerance.
pub fn par_sum<F>(pool: &ThreadPool, range: Range<usize>, sched: Schedule, f: F) -> f64
where
    F: Fn(usize) -> f64 + Sync,
{
    let acc = WorkerAccum::new(pool.num_workers());
    par_for_chunks(pool, range, sched, |chunk: Range<usize>| {
        let w = current_worker_index().expect("loop bodies run on pool workers");
        let mut partial = 0.0;
        for i in chunk {
            partial += f(i);
        }
        acc.add(w, partial);
    });
    acc.total()
}

/// Parallel max-reduction over `|f(i)|` (used by verification norms).
/// The chunk maximum is computed locally; the shared atomic is touched
/// once per chunk.
pub fn par_max_abs<F>(pool: &ThreadPool, range: Range<usize>, sched: Schedule, f: F) -> f64
where
    F: Fn(usize) -> f64 + Sync,
{
    use std::sync::atomic::{AtomicU64, Ordering};
    let best = AtomicU64::new(0);
    par_for_chunks(pool, range, sched, |chunk: Range<usize>| {
        let mut local = 0.0f64;
        for i in chunk {
            local = local.max(f(i).abs());
        }
        let mut cur = best.load(Ordering::Relaxed);
        while local > f64::from_bits(cur) {
            match best.compare_exchange_weak(
                cur,
                local.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(c) => cur = c,
            }
        }
    });
    f64::from_bits(best.load(std::sync::atomic::Ordering::Relaxed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use parloop_core::par_for;

    #[test]
    fn unsafe_slice_disjoint_writes() {
        let pool = ThreadPool::new(4);
        let mut v = vec![0u64; 1000];
        {
            let s = UnsafeSlice::new(&mut v);
            par_for(&pool, 0..1000, Schedule::hybrid(), |i| unsafe {
                s.write(i, (i * 3) as u64);
            });
        }
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, (i * 3) as u64);
        }
    }

    #[test]
    fn par_sum_matches_sequential() {
        let pool = ThreadPool::new(3);
        let expect: f64 = (0..10_000).map(|i| (i as f64).sqrt()).sum();
        for sched in Schedule::roster(10_000, 3) {
            let got = par_sum(&pool, 0..10_000, sched, |i| (i as f64).sqrt());
            let rel = ((got - expect) / expect).abs();
            assert!(rel < 1e-12, "{}: rel err {rel}", sched.name());
        }
    }

    #[test]
    fn par_max_abs_finds_peak() {
        let pool = ThreadPool::new(2);
        let got = par_max_abs(&pool, 0..1000, Schedule::vanilla(), |i| {
            if i == 617 {
                -42.5
            } else {
                (i % 10) as f64
            }
        });
        assert_eq!(got, 42.5);
    }

    #[test]
    fn par_sum_empty_range_is_zero() {
        let pool = ThreadPool::new(2);
        assert_eq!(par_sum(&pool, 5..5, Schedule::hybrid(), |_| 1.0), 0.0);
    }
}
