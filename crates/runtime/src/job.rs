//! Type-erased jobs.
//!
//! Deques and mailboxes store [`JobRef`]s: a two-word `(data, vtable-fn)`
//! pair, `Copy` so it can live in the Chase–Lev deque. Two concrete job
//! kinds back them:
//!
//! * [`StackJob`] — lives on the submitting thread's stack (used by
//!   `install`). Safety rests on the invariant that the submitter does not
//!   return until the job's latch is set, so the pointer cannot dangle
//!   while reachable.
//! * [`HeapJob`] — boxed `FnOnce`, freed when executed (used by detached
//!   spawns, team broadcasts, the hybrid loop's adopter frames and the
//!   lazy loop's assist handles).

use std::cell::UnsafeCell;
use std::mem;

use crate::latch::Latch;
use crate::unwind;

/// A type-erased, copyable handle to a job awaiting execution.
#[derive(Clone, Copy)]
pub(crate) struct JobRef {
    pointer: *const (),
    execute_fn: unsafe fn(*const ()),
}

// SAFETY: JobRefs are only created for Send closures and executed exactly
// once by some pool worker.
unsafe impl Send for JobRef {}
unsafe impl Sync for JobRef {}

impl JobRef {
    pub(crate) unsafe fn new<T: Job>(data: *const T) -> JobRef {
        JobRef { pointer: data as *const (), execute_fn: T::execute }
    }

    #[inline]
    pub(crate) unsafe fn execute(self) {
        (self.execute_fn)(self.pointer)
    }
}

/// Implemented by concrete job kinds; `execute` consumes the job.
pub(crate) trait Job {
    /// # Safety
    /// `this` must be a valid pointer to `Self` that has not been executed.
    unsafe fn execute(this: *const ());
}

/// Panic payload raised when a job is collected without any stored result.
///
/// By the latch protocol this cannot happen — the executor stores
/// `Ok`/`Panic` *before* setting the latch — so observing it means the
/// protocol was broken (a latch set without executing the job, memory
/// corruption, a collected job that never ran). A deliberate, greppable
/// payload turns that from an opaque `unreachable!` into a diagnosable
/// poisoned-job report.
pub const POISONED_JOB_MSG: &str = "parloop-runtime: poisoned job collected without a result \
     (latch protocol violated: the latch was set before Ok/Panic was stored)";

/// The outcome of a completed job.
pub(crate) enum JobResult<R> {
    None,
    Ok(R),
    Panic(Box<dyn std::any::Any + Send>),
}

impl<R> JobResult<R> {
    /// Unwrap a completed result, resuming a captured panic. A `None`
    /// result raises the deliberate [`POISONED_JOB_MSG`] panic.
    pub(crate) fn into_return_value(self) -> R {
        match self {
            JobResult::None => panic!("{}", POISONED_JOB_MSG),
            JobResult::Ok(r) => r,
            JobResult::Panic(p) => unwind::resume_unwinding(p),
        }
    }
}

/// A job allocated on the forker's stack.
pub(crate) struct StackJob<L, F, R>
where
    L: Latch + Sync,
    F: FnOnce() -> R + Send,
    R: Send,
{
    pub(crate) latch: L,
    func: UnsafeCell<Option<F>>,
    result: UnsafeCell<JobResult<R>>,
}

// SAFETY: access to `func`/`result` is serialized by the latch protocol —
// the executor writes before setting the latch; the owner reads only after
// the latch is set.
unsafe impl<L, F, R> Sync for StackJob<L, F, R>
where
    L: Latch + Sync,
    F: FnOnce() -> R + Send,
    R: Send,
{
}

impl<L, F, R> StackJob<L, F, R>
where
    L: Latch + Sync,
    F: FnOnce() -> R + Send,
    R: Send,
{
    pub(crate) fn new(func: F, latch: L) -> Self {
        StackJob {
            latch,
            func: UnsafeCell::new(Some(func)),
            result: UnsafeCell::new(JobResult::None),
        }
    }

    /// # Safety
    /// The caller must keep `self` alive until the latch is set.
    pub(crate) unsafe fn as_job_ref(&self) -> JobRef {
        JobRef::new(self)
    }

    /// Take the result; only valid after the latch has been set.
    pub(crate) unsafe fn into_result(self) -> R {
        mem::replace(&mut *self.result.get(), JobResult::None).into_return_value()
    }
}

impl<L, F, R> Job for StackJob<L, F, R>
where
    L: Latch + Sync,
    F: FnOnce() -> R + Send,
    R: Send,
{
    unsafe fn execute(this: *const ()) {
        let this = &*(this as *const Self);
        let func = (*this.func.get()).take().expect("StackJob executed twice");
        let res = match unwind::halt_unwinding(func) {
            Ok(r) => JobResult::Ok(r),
            Err(p) => JobResult::Panic(p),
        };
        *this.result.get() = res;
        // The latch must be set *after* the result is stored.
        this.latch.set();
    }
}

/// A heap-allocated fire-and-forget job.
///
/// The closure is responsible for its own completion signalling (e.g. a
/// team region's `CountLatch`) and for catching panics it must not leak.
pub(crate) struct HeapJob<F: FnOnce() + Send> {
    func: F,
}

impl<F: FnOnce() + Send> HeapJob<F> {
    pub(crate) fn new(func: F) -> Box<Self> {
        Box::new(HeapJob { func })
    }

    /// Leak the box into a `JobRef`; the allocation is reclaimed when the
    /// job executes. If the job is never executed (pool shutdown drops a
    /// deque with pending jobs), the allocation leaks — the registry drains
    /// deques at shutdown precisely to avoid this.
    pub(crate) fn into_job_ref(self: Box<Self>) -> JobRef {
        let ptr = Box::into_raw(self);
        unsafe { JobRef::new(ptr) }
    }
}

impl<F: FnOnce() + Send> Job for HeapJob<F> {
    unsafe fn execute(this: *const ()) {
        let this = Box::from_raw(this as *mut Self);
        (this.func)();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latch::{CountLatch, Probe};

    #[test]
    fn stack_job_roundtrip() {
        let job = StackJob::new(|| 21 * 2, CountLatch::detached(1));
        unsafe {
            let r = job.as_job_ref();
            r.execute();
        }
        assert!(job.latch.probe());
        assert_eq!(unsafe { job.into_result() }, 42);
    }

    #[test]
    fn stack_job_captures_panic_and_sets_latch() {
        let job: StackJob<_, _, ()> = StackJob::new(|| panic!("x"), CountLatch::detached(1));
        unsafe { job.as_job_ref().execute() };
        assert!(job.latch.probe(), "latch must be set even on panic");
        let caught = crate::unwind::halt_unwinding(move || unsafe { job.into_result() });
        assert!(caught.is_err());
    }

    #[test]
    fn poisoned_job_panics_with_diagnosable_payload() {
        // Collect a StackJob whose latch was set without executing it —
        // the latch-protocol violation the poisoned payload diagnoses.
        let job: StackJob<_, _, i32> = StackJob::new(|| 7, CountLatch::detached(1));
        job.latch.set();
        let caught = crate::unwind::halt_unwinding(move || unsafe { job.into_result() })
            .expect_err("collecting a never-executed job must panic");
        let msg = caught.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("poisoned job"), "opaque payload: {msg}");
    }

    #[test]
    fn heap_job_runs_and_frees() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let ran = Arc::new(AtomicBool::new(false));
        let r2 = Arc::clone(&ran);
        let job = HeapJob::new(move || r2.store(true, Ordering::Relaxed));
        let jref = job.into_job_ref();
        unsafe { jref.execute() };
        assert!(ran.load(Ordering::Relaxed));
    }
}
