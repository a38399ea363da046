//! Structured task spawning with a completion barrier.
//!
//! `scope(|s| { s.spawn(..); .. })` lets a task fork an arbitrary number of
//! children that may borrow from the enclosing stack frame; the call does
//! not return until every spawned task (including transitively spawned
//! ones) has finished. Lifetime erasure is confined to this module: the
//! barrier (a [`CountLatch`]) is what makes handing `'scope` borrows to
//! heap jobs sound.

use std::any::Any;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use crate::job::HeapJob;
use crate::latch::{CountLatch, Latch};
use crate::registry::{Registry, SendPtr, WorkerThread};
use crate::unwind;

/// A scope in which tasks borrowing `'scope` data may be spawned.
pub struct Scope<'scope> {
    registry: Arc<Registry>,
    /// Counts the scope body itself (1) plus each spawned, unfinished task.
    pending: CountLatch,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    poisoned: AtomicBool,
    marker: PhantomData<&'scope mut &'scope ()>,
}

/// Run `body` with a [`Scope`], waiting for all spawned tasks to finish.
///
/// Must be called from a pool worker (e.g. inside
/// [`ThreadPool::install`](crate::ThreadPool::install)); panics otherwise.
/// The first panic from the body or any spawned task is re-thrown after the
/// barrier.
///
/// ```
/// use parloop_runtime::{scope, ThreadPool};
/// use std::sync::atomic::{AtomicUsize, Ordering};
///
/// let pool = ThreadPool::new(3);
/// let done = AtomicUsize::new(0);
/// pool.install(|| {
///     scope(|s| {
///         for _ in 0..10 {
///             s.spawn(|_| { done.fetch_add(1, Ordering::Relaxed); });
///         }
///     });
/// });
/// assert_eq!(done.load(Ordering::Relaxed), 10);
/// ```
pub fn scope<'scope, R>(body: impl FnOnce(&Scope<'scope>) -> R) -> R {
    let wt = unsafe { WorkerThread::current() }.expect("scope() requires a pool worker thread");
    let registry = Arc::clone(wt.registry());
    let sleep = Arc::clone(&registry.sleep);
    let s = Scope {
        registry,
        pending: CountLatch::with_sleep(1, sleep),
        panic: Mutex::new(None),
        poisoned: AtomicBool::new(false),
        marker: PhantomData,
    };

    let result = unwind::halt_unwinding(|| body(&s));
    s.pending.set(); // the body itself is done
    wt.wait_until(&s.pending);

    match result {
        Err(p) => unwind::resume_unwinding(p),
        Ok(r) => {
            if let Some(p) = s.panic.lock().unwrap().take() {
                unwind::resume_unwinding(p);
            }
            r
        }
    }
}

impl<'scope> Scope<'scope> {
    /// Spawn a task that may borrow `'scope` data. The task runs on this
    /// pool; panics are captured and re-thrown by the enclosing [`scope`].
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce(&Scope<'scope>) + Send + 'scope,
    {
        self.pending.increment(1);

        // Erase the 'scope lifetime: sound because `scope` does not return
        // until `pending` reaches zero, i.e. after this job completes.
        let p: SendPtr<Scope<'static>> =
            SendPtr::new(unsafe { &*(self as *const Scope<'scope>).cast::<Scope<'static>>() });

        let boxed: Box<dyn FnOnce(&Scope<'static>) + Send + 'scope> = Box::new(unsafe {
            std::mem::transmute::<
                Box<dyn FnOnce(&Scope<'scope>) + Send + 'scope>,
                Box<dyn FnOnce(&Scope<'static>) + Send + 'scope>,
            >(Box::new(f))
        });
        let boxed: Box<dyn FnOnce(&Scope<'static>) + Send + 'static> =
            unsafe { std::mem::transmute(boxed) };

        let job = HeapJob::new(move || {
            let scope: &Scope<'static> = unsafe { p.get() };
            if let Err(panic) = unwind::halt_unwinding(|| boxed(scope)) {
                scope.panic.lock().unwrap().get_or_insert(panic);
                scope.poisoned.store(true, Ordering::Release);
            }
            scope.pending.set();
        });
        let jref = job.into_job_ref();

        // Prefer the current worker's deque; fall back to injection if the
        // spawner is an external thread holding a Scope reference.
        unsafe {
            match WorkerThread::current() {
                Some(wt) if Arc::ptr_eq(wt.registry(), &self.registry) => wt.push(jref),
                _ => self.registry.inject(jref),
            }
        }
    }

    /// Whether some task in this scope has already panicked.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ThreadPool;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn scope_waits_for_all_spawns() {
        let pool = ThreadPool::new(4);
        let count = AtomicUsize::new(0);
        pool.install(|| {
            scope(|s| {
                for _ in 0..64 {
                    s.spawn(|_| {
                        count.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        });
        assert_eq!(count.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn nested_spawns() {
        let pool = ThreadPool::new(3);
        let count = AtomicUsize::new(0);
        pool.install(|| {
            scope(|s| {
                for _ in 0..4 {
                    s.spawn(|s| {
                        for _ in 0..4 {
                            s.spawn(|_| {
                                count.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                }
            });
        });
        assert_eq!(count.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn scope_borrows_stack_data() {
        let pool = ThreadPool::new(2);
        let data = [1u64, 2, 3, 4];
        let sum = AtomicUsize::new(0);
        let sum_ref = &sum;
        pool.install(|| {
            scope(|s| {
                for chunk in data.chunks(2) {
                    s.spawn(move |_| {
                        let partial: u64 = chunk.iter().sum();
                        sum_ref.fetch_add(partial as usize, Ordering::Relaxed);
                    });
                }
            });
        });
        assert_eq!(sum.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn scope_propagates_spawn_panic() {
        let pool = ThreadPool::new(2);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.install(|| {
                scope(|s| {
                    s.spawn(|_| panic!("spawned task dies"));
                });
            });
        }));
        assert!(r.is_err());
        assert_eq!(pool.install(|| 3), 3);
    }

    #[test]
    fn scope_poison_flag_visible_to_later_tasks() {
        let pool = ThreadPool::new(2);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.install(|| {
                scope(|s| {
                    s.spawn(|_| panic!("first"));
                    // Give the first task a chance to run and poison.
                    std::thread::sleep(std::time::Duration::from_millis(10));
                    s.spawn(|s| {
                        // Either ordering is legal; just exercise the API.
                        let _ = s.is_poisoned();
                    });
                });
            });
        }));
    }
}
