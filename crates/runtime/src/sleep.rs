//! Worker sleep/wake machinery: the idle policy, an event-counter protocol
//! with targeted wakes, and an exponentially backed-off timeout backstop.
//!
//! **Idle policy.** A thread with nothing to run keeps polling, with a
//! `yield_now` between polls, until [`SPIN_BUDGET`] (20 µs) has passed
//! since its first empty poll; only then does it block. [`IdleSpin`] is
//! the one place this is decided, for all three waits: an idle worker
//! (`run_loop`), a worker waiting on a latch (`wait_until`), and an
//! external `install` caller ([`LockLatch::wait`](crate::LockLatch::wait)).
//! The budget restarts when the thread finds work or comes back from
//! blocking, so every block follows a full budget of empty polls. A worker
//! woken for a job that a still-spinning worker took first therefore
//! spins again instead of blocking at once; otherwise the loser of that
//! race would take one OS wake per job.
//!
//! The budget is about one OS block-and-wake on a 2-vCPU host, the
//! break-even point of competitive spinning (Karlin, Li, Manasse &
//! Owicki, SOSP 1991): work that arrives within it costs no futex
//! sleep/wake pair, and a longer idle spell wastes at most as much CPU as
//! one wake costs. A spinning worker is not announced as a sleeper, so a
//! waker that publishes work while every idle worker still spins skips
//! the sleep lock and the notify.
//!
//! Blocked workers sleep on a condvar. The protocol keeps the common
//! (busy) path cheap and makes lost wakeups impossible:
//!
//! * **Sleepers** announce themselves (`sleepers += 1`), read the events
//!   epoch, and then — *under the sleep lock* — re-check for work and for
//!   an epoch advance before committing to the wait.
//! * **Wakers** first make the work visible (the publication: a deque
//!   push, a lane length increment under its queue lock), then bump the
//!   events counter, and only touch the sleep lock to notify when the
//!   sleeper count says somebody is actually asleep.
//!
//! The lost-wakeup argument: suppose a waker publishes work while a
//! sleeper is going to sleep. If the waker's counter bump and sleeper
//! check precede the sleeper's final under-lock re-check in the seq-cst
//! order, the re-check observes the publication (or the epoch advance) and
//! the sleeper aborts the wait. Otherwise the sleeper's announcement
//! precedes the waker's sleeper-count load, so the waker sees a sleeper
//! and takes the lock to notify — and because the sleeper atomically
//! releases that same lock only as it enters the wait, the notification
//! cannot land in the gap between the re-check and the wait. Either way
//! the sleeper wakes.
//!
//! Wakes are *targeted*: work that any worker can execute (deque pushes,
//! lane injections) wakes exactly one sleeper; only events with a specific
//! addressee or global scope (mailbox posts, latch completions, shutdown)
//! wake everyone. The timeout backstop remains as defense in depth, but
//! it no longer polls at a fixed 500µs forever: fruitless backstop wakes
//! back off exponentially (bounded), so an idle pool converges to a
//! near-zero wake rate while a freshly published job is still picked up
//! promptly by its notification.
//!
//! # Memory-ordering audit: which `SeqCst` is load-bearing
//!
//! The lost-wakeup argument above is a *store-buffering* (Dekker) pattern:
//! the sleeper writes `sleepers` then reads `events`; the waker writes
//! `events` then reads `sleepers`. Both threads must not simultaneously
//! miss the other's write, and acquire/release cannot exclude that — an
//! `Acquire` read is free to not-observe a `Release` write it has no
//! synchronizes-with edge to, so both "racing" interleavings would be
//! allowed to read the old values and the sleeper could block on a
//! published job with nobody left to notify it. Only a single total order
//! (`SeqCst`) over these four accesses rules that out. Hence the four
//! sites that stay `SeqCst`:
//!
//! * the sleeper's announcement `sleepers.fetch_add` and its two `events`
//!   reads (the epoch snapshot and the under-lock re-check);
//! * the waker's `events.fetch_add` and `sleepers` read in
//!   `notify_one` / `notify_all`.
//!
//! Two sites are *not* part of the race and run `Relaxed`:
//!
//! * the un-announce `sleepers.fetch_sub` on the way out of `sleep` — by
//!   then the caller is awake and will re-probe for work itself; a waker
//!   reading the stale (higher) count merely takes the sleep lock and
//!   issues a spurious notify, which is the safe direction. The waker
//!   direction that matters (missing a real sleeper) is impossible: a
//!   stale read can only *over*-count after decrements, and the announce
//!   increment itself is still in the `SeqCst` order.
//! * `sleeper_count` — a diagnostics probe (watchdog stall reports); its
//!   reads order nothing.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// How long an idle thread keeps polling before it blocks (module docs).
pub(crate) const SPIN_BUDGET: Duration = Duration::from_micros(20);

/// The idle policy: poll, yielding between polls, for [`SPIN_BUDGET`]
/// after the first empty poll; then block.
pub(crate) struct IdleSpin {
    /// When the current idle spell began: the first empty poll since the
    /// thread last found work or blocked.
    since: Option<Instant>,
}

impl IdleSpin {
    pub(crate) fn new() -> Self {
        IdleSpin { since: None }
    }

    /// The last poll found work: the next empty poll starts a new budget.
    pub(crate) fn reset(&mut self) {
        self.since = None;
    }

    /// The last poll found nothing. While the budget lasts, yield and
    /// return `true` (poll again); once it is spent, return `false`
    /// (block), and start a new budget for the polls after the block.
    pub(crate) fn spin(&mut self) -> bool {
        let now = Instant::now();
        if now.duration_since(*self.since.get_or_insert(now)) < SPIN_BUDGET {
            std::thread::yield_now();
            true
        } else {
            self.since = None;
            false
        }
    }
}

/// Default base interval of the timeout backstop (the first, un-backed-off
/// sleep bound). [`ThreadPoolBuilder`](crate::ThreadPoolBuilder) can
/// override it.
pub const DEFAULT_BACKSTOP_INTERVAL: Duration = Duration::from_micros(500);

/// Cap on the backstop's exponential backoff: fruitless sleeps lengthen
/// the timeout up to `base << MAX_BACKOFF_SHIFT` (128ms at the default
/// base).
pub(crate) const MAX_BACKOFF_SHIFT: u32 = 8;

/// How a call to [`Sleep::sleep`] ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SleepOutcome {
    /// The final under-lock re-check found work (or a missed event), so
    /// the caller never blocked.
    NotBlocked,
    /// A notification ended the wait — a real, targeted wake.
    Notified,
    /// The timeout backstop fired with no notification.
    Backstop,
}

pub(crate) struct Sleep {
    lock: Mutex<()>,
    cv: Condvar,
    sleepers: AtomicUsize,
    /// Work-availability epoch: bumped by every waker *after* its work is
    /// visible. Sleepers compare it across their announcement to catch
    /// publications that raced the final re-check.
    events: AtomicUsize,
    base: Duration,
}

impl Sleep {
    pub(crate) fn with_base(base: Duration) -> Self {
        Sleep {
            lock: Mutex::new(()),
            cv: Condvar::new(),
            sleepers: AtomicUsize::new(0),
            events: AtomicUsize::new(0),
            base,
        }
    }

    /// The backstop timeout after `fruitless` consecutive sleeps that
    /// timed out without finding work: bounded exponential backoff.
    pub(crate) fn backstop_after(&self, fruitless: u32) -> Duration {
        self.base.saturating_mul(1u32 << fruitless.min(MAX_BACKOFF_SHIFT))
    }

    /// Block until notified (or the backstop timeout fires), unless
    /// `has_work()` already holds or a work event raced our announcement.
    /// `fruitless` is the caller's count of consecutive backstop wakes
    /// that found nothing; it stretches the timeout (see
    /// [`backstop_after`](Self::backstop_after)).
    ///
    /// The re-check runs under the lock and wakers notify under the same
    /// lock, so a notification sent after `has_work` becomes true cannot
    /// be lost (the module docs give the full argument).
    pub(crate) fn sleep(&self, has_work: impl Fn() -> bool, fruitless: u32) -> SleepOutcome {
        // Announce *before* the final re-check: a waker that loads the
        // sleeper count after this increment will take the lock and
        // notify; one that loaded it before must have bumped `events`
        // first, which the epoch comparison below catches.
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        let epoch = self.events.load(Ordering::SeqCst);
        let outcome = {
            let guard = self.lock.lock().unwrap();
            if has_work() || self.events.load(Ordering::SeqCst) != epoch {
                SleepOutcome::NotBlocked
            } else {
                let timeout = self.backstop_after(fruitless);
                let (_guard, wait) = self.cv.wait_timeout(guard, timeout).unwrap();
                if wait.timed_out() {
                    SleepOutcome::Backstop
                } else {
                    SleepOutcome::Notified
                }
            }
        };
        // Relaxed: the un-announce is outside the Dekker core — see the
        // module-level audit (a waker over-counting sleepers only sends a
        // spurious notify).
        self.sleepers.fetch_sub(1, Ordering::Relaxed);
        outcome
    }

    /// Publish a work event and wake **one** sleeper, if any. Use for work
    /// any worker can execute (deque pushes, injection-lane posts). The
    /// caller must have made the work visible first.
    pub(crate) fn notify_one(&self) {
        self.events.fetch_add(1, Ordering::SeqCst);
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let _guard = self.lock.lock().unwrap();
            self.cv.notify_one();
        }
    }

    /// Publish a work event and wake **all** sleepers, if any. Use for
    /// events with a specific addressee or global scope (mailbox posts,
    /// latch completions, shutdown): `notify_one` could wake the wrong
    /// worker and leave the addressee parked until the backstop.
    pub(crate) fn notify_all(&self) {
        self.events.fetch_add(1, Ordering::SeqCst);
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let _guard = self.lock.lock().unwrap();
            self.cv.notify_all();
        }
    }

    /// Number of currently-sleeping workers (diagnostics; the watchdog's
    /// [`StallReport`](crate::StallReport) includes it).
    pub(crate) fn sleeper_count(&self) -> usize {
        // Relaxed: diagnostics only (module-level audit).
        self.sleepers.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    #[test]
    fn sleep_returns_immediately_when_work_present() {
        let s = Sleep::with_base(DEFAULT_BACKSTOP_INTERVAL);
        let start = std::time::Instant::now();
        let outcome = s.sleep(|| true, 0);
        assert_eq!(outcome, SleepOutcome::NotBlocked, "must not block when has_work() holds");
        assert!(start.elapsed() < Duration::from_millis(50));
        assert_eq!(s.sleeper_count(), 0);
    }

    #[test]
    fn notify_wakes_sleeper() {
        let s = Arc::new(Sleep::with_base(DEFAULT_BACKSTOP_INTERVAL));
        let flag = Arc::new(AtomicBool::new(false));
        let s2 = Arc::clone(&s);
        let f2 = Arc::clone(&flag);
        let h = std::thread::spawn(move || {
            while !f2.load(Ordering::Acquire) {
                s2.sleep(|| f2.load(Ordering::Acquire), 0);
            }
        });
        std::thread::sleep(Duration::from_millis(5));
        flag.store(true, Ordering::Release);
        s.notify_one();
        h.join().unwrap();
    }

    #[test]
    fn timeout_backstop_reports_itself() {
        // Even with no notification, sleep() must return within the
        // timeout — and say that the backstop (not a wake) ended it.
        let s = Sleep::with_base(DEFAULT_BACKSTOP_INTERVAL);
        let start = std::time::Instant::now();
        let outcome = s.sleep(|| false, 0);
        assert_eq!(outcome, SleepOutcome::Backstop);
        assert!(start.elapsed() < Duration::from_millis(200));
    }

    #[test]
    fn work_published_before_announcement_aborts_the_wait() {
        // A notify_one issued when nobody sleeps is "lost" as a
        // notification — but the work it published is already visible, so
        // the next sleeper's under-lock re-check sees it and never blocks,
        // even with the backoff maxed out.
        let s = Sleep::with_base(Duration::from_secs(2));
        let flag = AtomicBool::new(false);
        flag.store(true, Ordering::Release);
        s.notify_one();
        let start = std::time::Instant::now();
        let outcome = s.sleep(|| flag.load(Ordering::Acquire), MAX_BACKOFF_SHIFT);
        assert_eq!(outcome, SleepOutcome::NotBlocked);
        assert!(start.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn idle_spin_blocks_only_after_the_budget() {
        let mut idle = IdleSpin::new();
        let start = Instant::now();
        let mut polls = 0;
        while idle.spin() {
            polls += 1;
        }
        assert!(start.elapsed() >= SPIN_BUDGET);
        assert!(polls >= 1, "the first empty poll must not block");
        assert!(idle.spin(), "the polls after a block get a new budget");
        // Spend that budget too; only finding work restarts it early.
        std::thread::sleep(SPIN_BUDGET * 2);
        idle.reset();
        assert!(idle.spin(), "finding work restarts the budget");
    }

    #[test]
    fn backoff_is_bounded_and_monotonic() {
        let s = Sleep::with_base(Duration::from_micros(500));
        assert_eq!(s.backstop_after(0), Duration::from_micros(500));
        assert_eq!(s.backstop_after(1), Duration::from_millis(1));
        assert_eq!(s.backstop_after(MAX_BACKOFF_SHIFT), Duration::from_millis(128));
        // Clamped past the cap.
        assert_eq!(s.backstop_after(MAX_BACKOFF_SHIFT + 20), Duration::from_millis(128));
    }

    #[test]
    fn notified_outcome_distinguished_from_backstop() {
        let s = Arc::new(Sleep::with_base(Duration::from_secs(2)));
        let s2 = Arc::clone(&s);
        let h = std::thread::spawn(move || s2.sleep(|| false, 0));
        // Wait for the sleeper to register, then wake it.
        while s.sleeper_count() == 0 {
            std::thread::yield_now();
        }
        // It may not have reached the wait yet, but notify_one takes the
        // same lock the re-check holds, so the wake cannot be lost.
        let start = std::time::Instant::now();
        s.notify_one();
        let outcome = h.join().unwrap();
        // Either it blocked and was notified, or the event beat the
        // epoch read; with a 2s base the backstop cannot be the answer.
        assert_ne!(outcome, SleepOutcome::Backstop);
        assert!(start.elapsed() < Duration::from_secs(1));
    }
}
