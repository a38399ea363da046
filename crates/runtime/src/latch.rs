//! Latches: one-shot (or counted) completion signals.
//!
//! A latch is how a waiting task learns that work it forked has finished.
//! Latches that may be awaited by *pool workers* carry a handle to the
//! pool's sleep machinery so that `set` can wake a parked waiter; the
//! [`LockLatch`] variant is for external (non-worker) threads: it spins
//! under the runtime's idle policy (`SPIN_BUDGET`, 20 µs, in `sleep.rs`)
//! and then blocks on a private mutex/condvar.
//!
//! # The setter touches the latch last
//!
//! `broadcast_all`'s [`CountLatch`] and `install`'s [`LockLatch`] live on
//! the waiter's stack. The moment the waiter can observe the latch set,
//! it may return and free it, so no setter may touch the latch after the
//! operation that releases the waiter:
//!
//! * [`CountLatch`] copies its `Sleep` pointer into a local *before* the
//!   releasing decrement and wakes through the copy. The registry owns
//!   the `Sleep` and outlives every job that can set one of its latches.
//!   (A setter outside the pool must hold the latch alive across `set`,
//!   as a shared `Arc` does, and the latch's own `Arc<Sleep>` with it.)
//! * [`LockLatch`]'s setter stores the flag while holding the latch's
//!   mutex, and its unlock is its last access. The waiter takes that mutex
//!   once before it returns, even when it saw the flag while spinning, so
//!   it cannot free the latch under the setter.
//!
//! # Memory-ordering proof (fence audit)
//!
//! No latch operation needs `SeqCst`; every edge the waiters rely on is a
//! release/acquire pair on a single atomic:
//!
//! * **[`CountLatch`]** — each `set` is a `fetch_sub(1, AcqRel)`. The
//!   `Release` half publishes that participant's writes; because atomic
//!   RMWs continue a release sequence, the waiter's `Acquire` `probe`
//!   load that reads the *final* value (zero) synchronizes with **every**
//!   decrement in the sequence, not just the last one — so all
//!   participants' writes are visible once `probe()` returns true. The
//!   `Acquire` half of the RMW additionally lets the final decrementer
//!   itself act on its siblings' writes (the lazy-loop owner relies on
//!   this when it resolves its own latch). [`CountLatch::set_many`] is
//!   the batched form with the identical edge: one `fetch_sub(n)` stands
//!   for `n` logical completions the caller accumulated locally. The wake
//!   itself rides the sleep protocol's own `SeqCst` event counter
//!   ([`Sleep`](crate::sleep)).
//! * **[`LockLatch`]** — `set`'s `Release` store of `done` pairs with the
//!   spinning waiter's `Acquire` load; the mutex orders the rest (the
//!   `blocked` handshake, and the waiter's final lock after the setter's
//!   unlock).

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use crate::sleep::{IdleSpin, Sleep};

/// Something that can be signalled complete.
pub trait Latch {
    /// Signal (one step of) completion. May be called from any thread.
    fn set(&self);
}

/// Something whose completion can be polled.
pub trait Probe {
    /// True once the latch is fully set.
    fn probe(&self) -> bool;
}

/// The `Sleep` a setter wakes, copied as a plain pointer (not an `Arc`
/// clone) *before* the decrement that releases the waiter: the
/// waiter may return and free the latch once that operation lands.
#[inline]
fn sleep_ptr(sleep: &Option<Arc<Sleep>>) -> Option<*const Sleep> {
    sleep.as_ref().map(Arc::as_ptr)
}

/// Wake the pool's sleepers through a pointer taken by [`sleep_ptr`].
#[inline]
fn wake(sleep: Option<*const Sleep>) {
    if let Some(s) = sleep {
        // SAFETY: the registry owns the `Sleep` and outlives every job that
        // can set one of its latches (module docs).
        unsafe { (*s).notify_all() };
    }
}

/// A counting latch: `set` decrements, the latch is done at zero.
///
/// Used for loop partitions (the hybrid loop counts its `R` partitions),
/// lazy loops (one count, set by the last participant out) and team
/// regions (one per worker).
pub struct CountLatch {
    count: AtomicUsize,
    sleep: Option<Arc<Sleep>>,
}

impl CountLatch {
    pub(crate) fn with_sleep(count: usize, sleep: Arc<Sleep>) -> Self {
        CountLatch { count: AtomicUsize::new(count), sleep: Some(sleep) }
    }

    /// A detached counting latch (tests, or non-parking waiters).
    pub fn detached(count: usize) -> Self {
        CountLatch { count: AtomicUsize::new(count), sleep: None }
    }

    /// Current remaining count (diagnostics; racy under concurrency).
    pub fn remaining(&self) -> usize {
        self.count.load(Ordering::Acquire)
    }

    /// Signal `n` completions at once — the combining form of [`set`]
    /// (one RMW instead of `n`), used by participants that batch their
    /// completion updates (e.g. a hybrid claim walk resolving several
    /// partitions). `set_many(0)` is a no-op; the ordering argument is
    /// identical to `set`'s (module docs).
    ///
    /// [`set`]: Latch::set
    #[inline]
    pub fn set_many(&self, n: usize) {
        if n == 0 {
            return;
        }
        let sleep = sleep_ptr(&self.sleep);
        let prev = self.count.fetch_sub(n, Ordering::AcqRel);
        debug_assert!(prev >= n, "CountLatch underflow");
        if prev == n {
            wake(sleep);
        }
    }
}

impl Latch for CountLatch {
    #[inline]
    fn set(&self) {
        self.set_many(1);
    }
}

impl Probe for CountLatch {
    #[inline]
    fn probe(&self) -> bool {
        self.count.load(Ordering::Acquire) == 0
    }
}

/// A blocking latch for external threads (`ThreadPool::install` callers).
///
/// The waiter spins on `done` for the idle policy's budget, then blocks on
/// the condvar; the setter signals the condvar only if it has blocked.
pub struct LockLatch {
    done: AtomicBool,
    /// Whether the waiter has blocked on `cv`. The setter stores `done`
    /// while holding this mutex, so its unlock is its last access.
    blocked: Mutex<bool>,
    cv: Condvar,
}

impl LockLatch {
    pub fn new() -> Self {
        LockLatch { done: AtomicBool::new(false), blocked: Mutex::new(false), cv: Condvar::new() }
    }

    /// Block the calling thread until `set` is called.
    pub fn wait(&self) {
        let mut idle = IdleSpin::new();
        while !self.done.load(Ordering::Acquire) {
            if !idle.spin() {
                break;
            }
        }
        // Take the mutex even when the spin saw `done`: the setter stores
        // it under this mutex, so acquiring the mutex waits out the
        // setter's unlock, and the caller may free the latch on return.
        let mut blocked = self.blocked.lock().unwrap();
        while !self.done.load(Ordering::Acquire) {
            *blocked = true;
            blocked = self.cv.wait(blocked).unwrap();
        }
    }
}

impl Default for LockLatch {
    fn default() -> Self {
        Self::new()
    }
}

impl Latch for LockLatch {
    fn set(&self) {
        let blocked = self.blocked.lock().unwrap();
        self.done.store(true, Ordering::Release);
        if *blocked {
            self.cv.notify_all();
        }
        // The guard's unlock, here, is the setter's last access to `self`.
    }
}

impl Probe for LockLatch {
    /// Through the mutex, like [`wait`](LockLatch::wait): once this
    /// returns `true`, the setter no longer touches the latch.
    fn probe(&self) -> bool {
        let _blocked = self.blocked.lock().unwrap();
        self.done.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_latch_counts_down() {
        let l = CountLatch::detached(3);
        assert!(!l.probe());
        l.set();
        l.set();
        assert!(!l.probe());
        assert_eq!(l.remaining(), 1);
        l.set();
        assert!(l.probe());
    }

    #[test]
    fn lock_latch_cross_thread() {
        use std::time::Duration;
        // A set that lands inside the waiter's spin window, then one that
        // lands after the waiter has blocked on the condvar.
        for delay in [Duration::ZERO, Duration::from_millis(5)] {
            let l = Arc::new(LockLatch::new());
            let go = Arc::new(std::sync::Barrier::new(2));
            let (l2, go2) = (Arc::clone(&l), Arc::clone(&go));
            let h = std::thread::spawn(move || {
                go2.wait();
                std::thread::sleep(delay);
                l2.set();
            });
            go.wait();
            l.wait();
            assert!(l.probe());
            h.join().unwrap();
        }
    }

    #[test]
    fn zero_count_latch_is_immediately_done() {
        let l = CountLatch::detached(0);
        assert!(l.probe());
    }

    #[test]
    fn set_many_combines_decrements() {
        let l = CountLatch::detached(5);
        l.set_many(0); // no-op
        assert_eq!(l.remaining(), 5);
        l.set_many(3);
        assert_eq!(l.remaining(), 2);
        assert!(!l.probe());
        l.set_many(2);
        assert!(l.probe());
    }

    #[test]
    fn set_many_publishes_batched_work_cross_thread() {
        // The release half of the combined RMW must publish all writes
        // that preceded it, exactly like per-unit `set` (the hybrid walk
        // relies on this when it batches partition completions).
        let l = Arc::new(CountLatch::detached(4));
        let data = Arc::new([0u64; 4].map(|_| std::sync::atomic::AtomicUsize::new(0)));
        let (l2, d2) = (Arc::clone(&l), Arc::clone(&data));
        let h = std::thread::spawn(move || {
            for (i, d) in d2.iter().enumerate() {
                d.store(i + 1, Ordering::Relaxed);
            }
            l2.set_many(4);
        });
        while !l.probe() {
            std::hint::spin_loop();
        }
        for (i, d) in data.iter().enumerate() {
            assert_eq!(d.load(Ordering::Relaxed), i + 1);
        }
        h.join().unwrap();
    }
}
