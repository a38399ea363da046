//! A Chase–Lev work-stealing deque, implemented from scratch.
//!
//! The owner pushes and pops at the **bottom**; thieves steal from the
//! **top**. The implementation follows the memory orderings of Lê, Pop,
//! Cohen & Zappa Nardelli, *"Correct and Efficient Work-Stealing for Weak
//! Memory Models"* (PPoPP 2013).
//!
//! Design notes:
//!
//! * Elements must be [`Copy`]. The runtime only stores `JobRef`-like
//!   two-word handles, and `Copy` sidesteps the classic "steal read races
//!   with a pop that drops the value" hazard: a racing read of a slot whose
//!   CAS subsequently fails is harmless for plain-old-data.
//! * Buffer growth never frees the old buffer while the deque lives; retired
//!   buffers are parked in a mutex-protected list and reclaimed when the
//!   deque is dropped. A thief holding a stale buffer pointer can therefore
//!   always read from it safely; its CAS on `top` will fail if the element
//!   moved.
//! * `top`/`bottom` are `i64` so that `bottom - 1` in `pop` cannot underflow.
//!
//! # Memory-ordering audit: the `SeqCst` here is load-bearing
//!
//! The per-loop fence audit deliberately leaves this file's four `SeqCst`
//! sites alone — they *are* the paper's orderings, and each one resolves a
//! store-buffering race that acquire/release cannot:
//!
//! * the `SeqCst` fence in `pop` (after the `bottom` store, before the
//!   `top` read) against the `SeqCst` fence in `steal` (before the `top`
//!   read): owner writes `bottom` then reads `top`, thief reads `top` then
//!   `bottom` — without a single total order both could see the pre-race
//!   values and pop *and* steal the same last element;
//! * the `SeqCst` CAS on `top` in `pop`'s last-element path and in
//!   `steal`, which arbitrate exactly that race (only one CAS can move
//!   `top` past the final slot).
//!
//! Lê et al. (PPoPP 2013) prove this placement both correct and minimal
//! for C11 — the demotion pass stops at proven-minimal code. Note the
//! fences cost nothing on the hot *push* path: `push` is fence-free
//! (Release store of `bottom`), so "pushes ≤ steals + 1" (the lazy
//! splitter's bound) keeps the owner's fast path cheap; `pop` pays its
//! fence only when the deque might be contended (non-empty pops).

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{fence, AtomicI64, AtomicPtr, Ordering};
use std::sync::{Arc, Mutex};

/// Initial buffer capacity (must be a power of two).
const MIN_CAP: usize = 64;

struct Buffer<T> {
    mask: i64,
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
}

impl<T: Copy> Buffer<T> {
    fn new(cap: usize) -> Box<Self> {
        debug_assert!(cap.is_power_of_two());
        let slots = (0..cap)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Box::new(Buffer { mask: cap as i64 - 1, slots })
    }

    #[inline]
    fn cap(&self) -> i64 {
        self.mask + 1
    }

    /// Read slot `index` (mod capacity). Caller must ensure the slot was
    /// written at logical index `index` and that `T: Copy`.
    #[inline]
    unsafe fn read(&self, index: i64) -> T {
        let slot = &self.slots[(index & self.mask) as usize];
        (*slot.get()).assume_init()
    }

    /// Write slot `index` (mod capacity).
    #[inline]
    unsafe fn write(&self, index: i64, value: T) {
        let slot = &self.slots[(index & self.mask) as usize];
        (*slot.get()).write(value);
    }
}

struct Inner<T> {
    top: AtomicI64,
    bottom: AtomicI64,
    buffer: AtomicPtr<Buffer<T>>,
    /// Retired buffers, kept alive until the deque is dropped so that
    /// concurrent thieves never read freed memory.
    retired: Mutex<Vec<*mut Buffer<T>>>,
}

// SAFETY: the deque protocol (single owner, CAS-validated steals, buffers
// retired not freed) makes Inner safe to share for T: Copy + Send.
unsafe impl<T: Copy + Send> Send for Inner<T> {}
unsafe impl<T: Copy + Send> Sync for Inner<T> {}

impl<T> Drop for Inner<T> {
    fn drop(&mut self) {
        // Reclaim the live buffer and every retired one. Elements are Copy,
        // so there is nothing to drop inside them.
        let live = self.buffer.load(Ordering::Relaxed);
        unsafe { drop(Box::from_raw(live)) };
        for &p in self.retired.lock().unwrap().iter() {
            unsafe { drop(Box::from_raw(p)) };
        }
    }
}

/// Owner handle: push/pop at the bottom. Not `Clone`; exactly one owner.
pub struct Worker<T: Copy + Send> {
    inner: Arc<Inner<T>>,
}

/// Thief handle: steal from the top. Cheaply cloneable.
pub struct Stealer<T: Copy + Send> {
    inner: Arc<Inner<T>>,
}

impl<T: Copy + Send> Clone for Stealer<T> {
    fn clone(&self) -> Self {
        Stealer { inner: Arc::clone(&self.inner) }
    }
}

/// Result of a steal attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Steal<T> {
    /// The deque was observed empty.
    Empty,
    /// Lost a race with the owner or another thief; worth retrying.
    Retry,
    /// Successfully stole a value.
    Success(T),
}

impl<T> Steal<T> {
    /// Convert to `Option`, treating `Retry` as `None`.
    pub fn success(self) -> Option<T> {
        match self {
            Steal::Success(v) => Some(v),
            _ => None,
        }
    }
}

/// Create a new deque, returning the owner and a thief handle.
pub fn deque<T: Copy + Send>() -> (Worker<T>, Stealer<T>) {
    let buffer = Box::into_raw(Buffer::<T>::new(MIN_CAP));
    let inner = Arc::new(Inner {
        top: AtomicI64::new(0),
        bottom: AtomicI64::new(0),
        buffer: AtomicPtr::new(buffer),
        retired: Mutex::new(Vec::new()),
    });
    (Worker { inner: Arc::clone(&inner) }, Stealer { inner })
}

impl<T: Copy + Send> Worker<T> {
    /// Push `value` at the bottom. Only the owner calls this.
    pub fn push(&self, value: T) {
        let inner = &*self.inner;
        let b = inner.bottom.load(Ordering::Relaxed);
        let t = inner.top.load(Ordering::Acquire);
        let mut buf = inner.buffer.load(Ordering::Relaxed);

        unsafe {
            if b - t >= (*buf).cap() {
                buf = self.grow(buf, b, t);
            }
            (*buf).write(b, value);
        }
        fence(Ordering::Release);
        inner.bottom.store(b + 1, Ordering::Relaxed);
    }

    /// Pop from the bottom (LIFO). Only the owner calls this.
    pub fn pop(&self) -> Option<T> {
        let inner = &*self.inner;
        let b = inner.bottom.load(Ordering::Relaxed) - 1;
        let buf = inner.buffer.load(Ordering::Relaxed);
        inner.bottom.store(b, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        let t = inner.top.load(Ordering::Relaxed);

        if t <= b {
            // Non-empty.
            let value = unsafe { (*buf).read(b) };
            if t == b {
                // Last element: race against thieves for it.
                let won = inner
                    .top
                    .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                    .is_ok();
                inner.bottom.store(b + 1, Ordering::Relaxed);
                if won {
                    Some(value)
                } else {
                    None
                }
            } else {
                Some(value)
            }
        } else {
            // Empty: restore bottom.
            inner.bottom.store(b + 1, Ordering::Relaxed);
            None
        }
    }

    /// Number of elements currently visible (approximate under concurrency).
    pub fn len(&self) -> usize {
        let b = self.inner.bottom.load(Ordering::Relaxed);
        let t = self.inner.top.load(Ordering::Relaxed);
        (b - t).max(0) as usize
    }

    /// Whether the deque appears empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Get an extra thief handle for this deque.
    pub fn stealer(&self) -> Stealer<T> {
        Stealer { inner: Arc::clone(&self.inner) }
    }

    /// Double the buffer, copying live elements `t..b`. Returns the new
    /// buffer pointer. Old buffer is retired, not freed.
    #[cold]
    unsafe fn grow(&self, old: *mut Buffer<T>, b: i64, t: i64) -> *mut Buffer<T> {
        let new = Box::into_raw(Buffer::<T>::new(((*old).cap() as usize) * 2));
        for i in t..b {
            (*new).write(i, (*old).read(i));
        }
        // Publish the new buffer before it is used; thieves load it Acquire.
        self.inner.buffer.store(new, Ordering::Release);
        self.inner.retired.lock().unwrap().push(old);
        new
    }
}

impl<T: Copy + Send> Stealer<T> {
    /// Attempt to steal one element from the top (FIFO side).
    pub fn steal(&self) -> Steal<T> {
        let inner = &*self.inner;
        let t = inner.top.load(Ordering::Acquire);
        fence(Ordering::SeqCst);
        let b = inner.bottom.load(Ordering::Acquire);

        if t < b {
            // Read the element *before* the CAS: if the CAS succeeds we own
            // it; if it fails the value is discarded (T: Copy, harmless).
            let buf = inner.buffer.load(Ordering::Acquire);
            let value = unsafe { (*buf).read(t) };
            if inner.top.compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed).is_ok() {
                Steal::Success(value)
            } else {
                Steal::Retry
            }
        } else {
            Steal::Empty
        }
    }

    /// Approximate length as observed by a thief.
    pub fn len(&self) -> usize {
        let t = self.inner.top.load(Ordering::Acquire);
        let b = self.inner.bottom.load(Ordering::Acquire);
        (b - t).max(0) as usize
    }

    /// Whether the deque appears empty to a thief.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicUsize;
    use std::thread;

    #[test]
    fn lifo_for_owner() {
        let (w, _s) = deque::<u64>();
        w.push(1);
        w.push(2);
        w.push(3);
        assert_eq!(w.pop(), Some(3));
        assert_eq!(w.pop(), Some(2));
        assert_eq!(w.pop(), Some(1));
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn fifo_for_thief() {
        let (w, s) = deque::<u64>();
        w.push(1);
        w.push(2);
        w.push(3);
        assert_eq!(s.steal(), Steal::Success(1));
        assert_eq!(s.steal(), Steal::Success(2));
        assert_eq!(w.pop(), Some(3));
        assert_eq!(s.steal(), Steal::Empty);
    }

    #[test]
    fn growth_preserves_elements() {
        let (w, s) = deque::<usize>();
        let n = MIN_CAP * 8;
        for i in 0..n {
            w.push(i);
        }
        assert_eq!(w.len(), n);
        // Steal half from the top, pop half from the bottom.
        for i in 0..n / 2 {
            assert_eq!(s.steal(), Steal::Success(i));
        }
        for i in (n / 2..n).rev() {
            assert_eq!(w.pop(), Some(i));
        }
        assert!(w.is_empty());
    }

    #[test]
    fn interleaved_push_pop_steal_single_thread() {
        let (w, s) = deque::<usize>();
        let mut seen = HashSet::new();
        let mut pushed = 0usize;
        for round in 0..1000 {
            w.push(pushed);
            pushed += 1;
            if round % 3 == 0 {
                if let Steal::Success(v) = s.steal() {
                    assert!(seen.insert(v));
                }
            }
            if round % 5 == 0 {
                if let Some(v) = w.pop() {
                    assert!(seen.insert(v));
                }
            }
        }
        while let Some(v) = w.pop() {
            assert!(seen.insert(v));
        }
        assert_eq!(seen.len(), pushed);
    }

    /// Stress: one owner pushing/popping, several thieves stealing; every
    /// pushed element must be taken exactly once.
    #[test]
    fn concurrent_exactly_once() {
        const N: usize = 20_000;
        const THIEVES: usize = 3;
        let (w, s) = deque::<usize>();
        let taken: Vec<AtomicUsize> = (0..N).map(|_| AtomicUsize::new(0)).collect();
        let taken = std::sync::Arc::new(taken);
        let done = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));

        thread::scope(|scope| {
            for _ in 0..THIEVES {
                let s = s.clone();
                let taken = Arc::clone(&taken);
                let done = std::sync::Arc::clone(&done);
                scope.spawn(move || {
                    while !done.load(Ordering::Acquire) {
                        if let Steal::Success(v) = s.steal() {
                            taken[v].fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    // Final drain.
                    loop {
                        match s.steal() {
                            Steal::Success(v) => {
                                taken[v].fetch_add(1, Ordering::Relaxed);
                            }
                            Steal::Empty => break,
                            Steal::Retry => {}
                        }
                    }
                });
            }
            for i in 0..N {
                w.push(i);
                if i % 7 == 0 {
                    if let Some(v) = w.pop() {
                        taken[v].fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            while let Some(v) = w.pop() {
                taken[v].fetch_add(1, Ordering::Relaxed);
            }
            done.store(true, Ordering::Release);
        });

        for (i, t) in taken.iter().enumerate() {
            assert_eq!(t.load(Ordering::Relaxed), 1, "element {i} taken wrong number of times");
        }
    }

    #[test]
    fn steal_empty_on_fresh_deque() {
        let (_w, s) = deque::<u32>();
        assert_eq!(s.steal(), Steal::Empty);
        assert!(s.is_empty());
    }
}
