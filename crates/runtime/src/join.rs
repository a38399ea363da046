//! The binary fork-join primitive.
//!
//! `join(a, b)` is the Cilk `spawn`/`sync` pair specialized to two branches:
//! the continuation `b` is pushed onto the current worker's deque (so an
//! idle worker can steal it — that is the only way real parallelism
//! arises), then `a` runs immediately (work-first). When `a` finishes the
//! worker pops `b` back if nobody took it, or helps with other work until
//! the thief finishes `b`.
//!
//! Called off-pool, `join` degrades to sequential execution, mirroring the
//! serial elision property of Cilk programs.
//!
//! # Memory-ordering audit
//!
//! `join` itself performs no raw atomics; its synchronization decomposes
//! into audited primitives. The result of a stolen `b` is published by the
//! thief's writes into the `StackJob` slot *before* it sets the job's
//! [`SpinLatch`](crate::latch::SpinLatch) (`Release` store), and
//! `wait_for_b` reads the result only after an `Acquire` `probe` observes
//! the latch — the release/acquire pair on `done` is the entire edge
//! (proof in [`latch`](crate::latch)). The un-stolen fast path pops `b`
//! back and runs it on the same thread, where program order suffices. The
//! deque traffic underneath keeps the Chase–Lev orderings
//! ([`deque`](crate::deque)).

use crate::job::StackJob;
use crate::latch::Probe;
use crate::registry::WorkerThread;
use crate::unwind;

/// Run `a` and `b`, potentially in parallel, returning both results.
///
/// Panics in either closure are re-thrown here after both branches have
/// come to rest (a panicking `a` still waits for a stolen `b` so that no
/// dangling reference to the stack frame survives).
///
/// ```
/// use parloop_runtime::{join, ThreadPool};
///
/// fn fib(n: u64) -> u64 {
///     if n < 2 { return n; }
///     let (a, b) = join(|| fib(n - 1), || fib(n - 2));
///     a + b
/// }
///
/// let pool = ThreadPool::new(2);
/// assert_eq!(pool.install(|| fib(12)), 144);
/// ```
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    unsafe {
        match WorkerThread::current() {
            Some(wt) => join_on_worker(wt, a, b),
            None => (a(), b()),
        }
    }
}

unsafe fn join_on_worker<A, B, RA, RB>(wt: &WorkerThread, a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let sleep = std::sync::Arc::clone(&wt.registry().sleep);
    let job_b = StackJob::new(b, crate::latch::SpinLatch::with_sleep(sleep));
    wt.push(job_b.as_job_ref());

    let ra = match unwind::halt_unwinding(a) {
        Ok(ra) => ra,
        Err(panic_a) => {
            // `b` may already be running on a thief; we must not unwind past
            // its stack slot until it is done.
            wait_for_b(wt, &job_b);
            unwind::resume_unwinding(panic_a);
        }
    };

    wait_for_b(wt, &job_b);
    let rb = job_b.into_result();
    (ra, rb)
}

/// Wait for `job_b`'s latch; fast path pops it back and runs it inline.
unsafe fn wait_for_b<L, F, R>(wt: &WorkerThread, job_b: &StackJob<L, F, R>)
where
    L: crate::latch::Latch + Probe + Sync,
    F: FnOnce() -> R + Send,
    R: Send,
{
    if !job_b.latch.probe() {
        // Anything above `b` on our deque was pushed while running `a` and
        // must execute before `b` anyway; `wait_until` pops our own deque
        // first, so the common un-stolen case inlines `b` after draining
        // those, and the stolen case keeps us busy stealing.
        if let Some(job) = wt.pop() {
            // This pop bypasses `find_work`, so count the execution here
            // (the pop itself is traced inside `WorkerThread::pop`).
            wt.note_job_executed();
            job.execute();
        }
        wt.wait_until(&job_b.latch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ThreadPool;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn fib(n: u64) -> u64 {
        if n < 2 {
            return n;
        }
        let (a, b) = join(|| fib(n - 1), || fib(n - 2));
        a + b
    }

    #[test]
    fn join_off_pool_is_sequential() {
        let (a, b) = join(|| 1, || 2);
        assert_eq!((a, b), (1, 2));
    }

    #[test]
    fn join_computes_fib_on_pool() {
        let pool = ThreadPool::new(4);
        let v = pool.install(|| fib(16));
        assert_eq!(v, 987);
    }

    #[test]
    fn join_deep_recursion_many_tasks() {
        let pool = ThreadPool::new(3);
        let count = AtomicUsize::new(0);
        fn go(n: usize, count: &AtomicUsize) {
            if n == 0 {
                count.fetch_add(1, Ordering::Relaxed);
                return;
            }
            join(|| go(n - 1, count), || go(n - 1, count));
        }
        pool.install(|| go(10, &count));
        assert_eq!(count.load(Ordering::Relaxed), 1 << 10);
    }

    #[test]
    fn join_propagates_panic_from_a() {
        let pool = ThreadPool::new(2);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.install(|| {
                join(|| panic!("a dies"), || 2);
            })
        }));
        assert!(r.is_err());
        assert_eq!(pool.install(|| 9), 9);
    }

    #[test]
    fn join_propagates_panic_from_b() {
        let pool = ThreadPool::new(2);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.install(|| {
                join(|| 1, || panic!("b dies"));
            })
        }));
        assert!(r.is_err());
        assert_eq!(pool.install(|| 9), 9);
    }

    #[test]
    fn join_results_ordered() {
        let pool = ThreadPool::new(4);
        let (a, b) = pool.install(|| join(|| "left", || "right"));
        assert_eq!(a, "left");
        assert_eq!(b, "right");
    }
}
