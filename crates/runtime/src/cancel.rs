//! Cooperative cancellation for parallel loops.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A cloneable cancellation flag observed by loops that carry one (the
/// `cancel` option of `parloop_core::Loop`).
///
/// Cancellation is *cooperative*: loops stop claiming new partitions and
/// chunks once the flag is set and report the loop cancelled, but work that
/// already started runs to completion — the exactly-once guarantee still
/// holds for every partition that did run, and the pool is immediately
/// reusable afterwards.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Request cancellation. Idempotent; safe from any thread (including
    /// from inside the loop body being cancelled).
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
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
}
