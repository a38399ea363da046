//! Cooperative cancellation for parallel loops.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shared state behind a [`CancelToken`]: the latching flag plus an
/// optional deadline that trips the flag when it passes.
#[derive(Debug, Default)]
struct Inner {
    flag: AtomicBool,
    deadline: Option<Instant>,
}

/// A cloneable cancellation flag observed by loops that carry one (the
/// `cancel` option of `parloop_core::Loop`).
///
/// Cancellation is *cooperative*: loops stop claiming new partitions and
/// chunks once the flag is set and report the loop cancelled, but work that
/// already started runs to completion — the exactly-once guarantee still
/// holds for every partition that did run, and the pool is immediately
/// reusable afterwards.
///
/// A token may carry a **deadline** ([`with_deadline`](Self::with_deadline),
/// [`cancel_after`](Self::cancel_after)): once the deadline passes,
/// [`is_cancelled`](Self::is_cancelled) latches the flag and reports
/// `true`. There is no timer thread — the deadline is checked at the same
/// cooperative points that observe explicit [`cancel`](Self::cancel)
/// calls, so deadline cancellation and manual cancellation share one code
/// path end to end (the tenant layer's per-loop deadlines are built on
/// this).
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl CancelToken {
    /// A fresh, un-cancelled token with no deadline.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// A token that auto-cancels once `deadline` passes.
    pub fn with_deadline(deadline: Instant) -> CancelToken {
        CancelToken {
            inner: Arc::new(Inner { flag: AtomicBool::new(false), deadline: Some(deadline) }),
        }
    }

    /// A token that auto-cancels `timeout` from now — shorthand for
    /// [`with_deadline`](Self::with_deadline)`(Instant::now() + timeout)`.
    pub fn cancel_after(timeout: Duration) -> CancelToken {
        CancelToken::with_deadline(Instant::now() + timeout)
    }

    /// The deadline this token auto-cancels at, if it has one.
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.deadline
    }

    /// Request cancellation. Idempotent; safe from any thread (including
    /// from inside the loop body being cancelled).
    pub fn cancel(&self) {
        self.inner.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested (explicitly, or implicitly
    /// by a passed deadline — which latches the flag so later calls skip
    /// the clock read).
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        if self.inner.flag.load(Ordering::Acquire) {
            return true;
        }
        match self.inner.deadline {
            Some(deadline) if Instant::now() >= deadline => {
                self.inner.flag.store(true, Ordering::Release);
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_starts_clear_and_latches() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        let clone = t.clone();
        clone.cancel();
        assert!(t.is_cancelled(), "clones share the flag");
        t.cancel(); // idempotent
        assert!(t.is_cancelled());
    }

    #[test]
    fn deadline_token_trips_after_timeout() {
        let t = CancelToken::cancel_after(Duration::from_millis(20));
        assert!(!t.is_cancelled());
        assert!(t.deadline().is_some());
        std::thread::sleep(Duration::from_millis(30));
        assert!(t.is_cancelled());
        // The deadline latched the shared flag: clones see it without
        // consulting the clock.
        assert!(t.inner.flag.load(Ordering::Relaxed));
        assert!(t.clone().is_cancelled());
    }

    #[test]
    fn past_deadline_cancels_immediately() {
        let t = CancelToken::with_deadline(Instant::now() - Duration::from_secs(1));
        assert!(t.is_cancelled());
    }

    #[test]
    fn explicit_cancel_beats_far_deadline() {
        let t = CancelToken::cancel_after(Duration::from_secs(3600));
        assert!(!t.is_cancelled());
        t.cancel();
        assert!(t.is_cancelled());
    }

    #[test]
    fn plain_token_has_no_deadline() {
        assert_eq!(CancelToken::new().deadline(), None);
    }
}
