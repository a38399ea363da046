//! The pool registry: worker threads, work discovery, injection, mailboxes.
//!
//! Work discovery order for a worker, mirroring Cilk's work-first policy:
//!
//! 1. its own deque (bottom, LIFO — depth-first on its own spawn tree);
//! 2. its mailbox (team-region jobs addressed to *this specific worker*,
//!    used by the OpenMP-style baseline schedulers);
//! 3. the sharded injection lanes (external `install`/`spawn_detached`
//!    calls): its own lane first, then a randomized sweep over the other
//!    lanes, like steal victims;
//! 4. randomized stealing from other workers' deques (top, FIFO —
//!    breadth-first on victims' spawn trees).
//!
//! Ordering note: injection lanes are per-lane FIFO, not globally FIFO.
//! Jobs posted by *one* submitter thread run in post order (a submitter
//! sticks to its home lane); jobs posted by different submitters have no
//! cross-lane order, exactly as concurrent injectors already had no
//! useful order under the old single global queue.
//!
//! # The idle count
//!
//! The registry counts the workers whose last look for work, in the
//! worker loop or in `wait_until`, came up empty. Parked workers count: a
//! pool whose idle workers have all blocked must still see work
//! published, and the push's `notify_one` wakes them. A worker adds
//! itself at the first empty `find_work` of an idle spell and removes
//! itself when it takes a job, when its `wait_until` latch resolves, and
//! when its worker loop exits or unwinds. A worker running a job is never
//! counted, so [`WorkerToken::peer_idle`] — the one read — asks whether
//! some *other* worker could take a job published now. The loop layers
//! use it to publish a loop's parallelism only when that is so.
//!
//! The updates and the read are `Relaxed`: the count publishes no data.
//! The jobs themselves travel through the deques, whose Chase–Lev
//! orderings are unchanged. A stale read can only (a) miss a peer that
//! just went idle, which delays a loop's publish by one chunk, or (b) see
//! a peer that just took other work, which publishes a job nobody takes
//! until its owner pops it back. Both were already possible before the
//! count existed — a published job could always go unstolen, and a thief
//! could always arrive one chunk late — and neither touches exactly-once,
//! which rests on the loops' own claims.

use std::cell::Cell;
use std::marker::PhantomData;
use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parloop_chaos::{chaos_spin, FaultAction, FaultInjector, NoopInjector, Site};
use parloop_trace::{CounterBank, NoopSink, TraceEvent, TraceSink, WorkerStats};

use crate::deque::{self, Steal, Stealer};
use crate::health::{PoolHealth, StallReport};
use crate::inject::{InjectLanes, Lane};
use crate::job::{HeapJob, JobRef, StackJob};
use crate::latch::{CountLatch, Latch, LockLatch, Probe, SpinLatch};
use crate::rng::XorShift64Star;
use crate::sleep::{IdleSpin, Sleep, SleepOutcome};
use crate::unwind;
use crate::util::CachePadded;

/// Default watchdog threshold: how long a pool may go with zero jobs
/// executed while a worker waits on an unresolved latch before the waiter
/// emits a [`StallReport`].
pub const DEFAULT_STALL_THRESHOLD: Duration = Duration::from_secs(2);

/// A raw-pointer wrapper that asserts cross-thread transferability.
///
/// Used to smuggle borrows of stack data into heap jobs whose completion is
/// awaited before the borrow expires (team broadcasts, hybrid-loop frames).
pub(crate) struct SendPtr<T: ?Sized>(*const T);
unsafe impl<T: ?Sized> Send for SendPtr<T> {}
unsafe impl<T: ?Sized> Sync for SendPtr<T> {}
impl<T: ?Sized> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T: ?Sized> Copy for SendPtr<T> {}

impl<T: ?Sized> SendPtr<T> {
    pub(crate) fn new(r: &T) -> Self {
        SendPtr(r as *const T)
    }

    /// # Safety
    /// The pointee must still be alive (the creating task must be blocked
    /// on a latch this job eventually sets).
    ///
    /// Note: always call through this method inside `move` closures — it
    /// forces the whole (Send) struct to be captured rather than the raw
    /// pointer field (edition-2021 precise capture).
    pub(crate) unsafe fn get<'a>(self) -> &'a T {
        &*self.0
    }
}

/// Sentinel "worker" id the registry hands the fault injector for
/// decisions made on external submitter threads (which have no worker id).
/// It must never be used to index per-worker state — in particular, such
/// decisions are *not* traced, because trace sinks index per-worker rings.
const EXTERNAL_SUBMITTER: usize = usize::MAX;

/// Monotonic counters describing scheduler activity (observability for
/// the overhead ablations; all `Relaxed` — approximate under concurrency).
///
/// Totals are sums of the per-worker counters kept in the pool's
/// [`CounterBank`]; [`ThreadPool::worker_stats`] exposes the per-worker
/// breakdown the totals are derived from.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Jobs executed across all workers (frames, team bodies, injections).
    pub jobs_executed: u64,
    /// Jobs pushed onto worker deques (splits, adopter frames, lazy-loop
    /// assist handles). Eager splitting pays `O(n/grain)` of these per
    /// loop; the lazy splitter's bound is `O(steals + 1)`.
    pub jobs_pushed: u64,
    /// Lazy-loop assist handles adopted by thieves.
    pub assist_joins: u64,
    /// Successful steals.
    pub steals: u64,
    /// Steal sweeps that found nothing.
    pub failed_steal_sweeps: u64,
    /// Jobs injected from external threads.
    pub injected: u64,
    /// Accepted adaptive grain adjustments across every registered
    /// `AdaptiveSite` driving loops on this pool (the `controller_report`
    /// aggregate; per-site breakdowns live on the sites themselves).
    pub grain_adjustments: u64,
}

/// Watchdog beat tracker entry: the last heartbeat value seen for a
/// worker and when it last changed. Updated only on watchdog trips (cold
/// path), so heartbeat ages cost the hot path nothing.
struct BeatEntry {
    beat: u64,
    since: Instant,
}

pub(crate) struct Registry {
    stealers: Vec<Stealer<JobRef>>,
    mailboxes: Vec<Lane>,
    injected: InjectLanes,
    pub(crate) sleep: Arc<Sleep>,
    terminate: AtomicBool,
    counters: CounterBank,
    /// Event sink for the observability layer ([`parloop_trace`]).
    trace: Arc<dyn TraceSink>,
    /// Cached `trace.enabled()` — the one branch instrumented hot paths
    /// pay when tracing is off.
    trace_on: bool,
    /// Fault injector for the chaos layer ([`parloop_chaos`]).
    chaos: Arc<dyn FaultInjector>,
    /// Cached `chaos.enabled()` — mirrors `trace_on`: with the default
    /// [`NoopInjector`] every injection site is one untaken branch.
    pub(crate) chaos_on: bool,
    /// Per-worker liveness heartbeats, bumped each main-loop and
    /// `wait_until` iteration (cache-padded: each worker writes only its
    /// own slot).
    hearts: Box<[CachePadded<AtomicU64>]>,
    /// Per-worker degraded flags, set by the main loop's panic catch.
    /// Sticky: they record that an escaped panic *ever* happened, while
    /// the worker itself stays in service.
    degraded: Box<[AtomicBool]>,
    /// Watchdog beat tracker (see [`BeatEntry`]); locked only on trips.
    beat_tracker: Mutex<Vec<BeatEntry>>,
    /// Workers whose last look for work came up empty (module docs, "The
    /// idle count"). Cache-padded: every idle-spell boundary writes it.
    idle: CachePadded<AtomicUsize>,
    /// Stall reports emitted by the `wait_until` watchdog.
    watchdog_trips: AtomicU64,
    stall_threshold: Duration,
    stall_handler: StallHandler,
    /// Per-worker steal-victim lists: every other worker, in id order.
    /// Built once — sweeps only index.
    victims: Box<[Box<[usize]>]>,
    n: usize,
}

/// Callback invoked with each watchdog [`StallReport`].
type StallHandler = Arc<dyn Fn(&StallReport) + Send + Sync>;

impl Registry {
    pub(crate) fn num_workers(&self) -> usize {
        self.n
    }

    /// Hand a job to the pool from any thread: post it on the submitter's
    /// home injection lane and wake one sleeper.
    ///
    /// The lane publishes its length counter *before* releasing the queue
    /// lock and the wake's event bump follows the publication, so an idle
    /// worker's final has-work re-check can never miss a job that was
    /// already notified for (the sleep protocol's lost-wakeup argument
    /// relies on this order).
    pub(crate) fn inject(&self, job: JobRef) {
        let mut lane = self.injected.home_lane();
        let mut drop_wake = false;
        if self.chaos_on {
            // Chaos runs on the *submitter's* thread: no worker id, no
            // tracing (trace sinks index per-worker rings). `Panic` is
            // demoted to `Fail` — injected faults must never unwind into
            // user submitter threads.
            match self.chaos.decide(EXTERNAL_SUBMITTER, Site::InjectLane) {
                // Dropped wake: publish the job but skip the notification;
                // only the timeout backstop can find it.
                FaultAction::Fail | FaultAction::Panic => drop_wake = true,
                // Forced contention: stall the submitter, then make it
                // collide with every other delayed submitter on lane 0.
                FaultAction::Delay(spins) => {
                    chaos_spin(spins);
                    lane = 0;
                }
                FaultAction::None => {}
            }
        }
        self.injected.push(lane, job);
        self.counters.note_injected();
        if !drop_wake {
            self.sleep.notify_one();
        }
    }

    fn post_mailbox(&self, worker: usize, job: JobRef) {
        self.mailboxes[worker].push(job);
        // Mailbox jobs are addressed to one specific worker; a notify_one
        // could wake the wrong sleeper and leave the addressee parked
        // until the backstop, so wake everyone.
        self.sleep.notify_all();
    }

    /// Bump `worker`'s liveness heartbeat.
    #[inline]
    fn heartbeat(&self, worker: usize) {
        self.hearts[worker].fetch_add(1, Ordering::Relaxed);
    }

    /// Mark `worker` degraded: its main loop caught a panic that escaped
    /// every job boundary. The worker stays in service; the pool surfaces
    /// the flag via [`ThreadPool::health`].
    fn mark_degraded(&self, worker: usize) {
        self.degraded[worker].store(true, Ordering::Release);
    }

    fn degraded_list(&self) -> Vec<usize> {
        (0..self.n).filter(|&w| self.degraded[w].load(Ordering::Acquire)).collect()
    }

    fn health(&self) -> PoolHealth {
        PoolHealth {
            degraded_workers: self.degraded_list(),
            watchdog_trips: self.watchdog_trips.load(Ordering::Relaxed),
            heartbeats: self.hearts.iter().map(|h| h.load(Ordering::Relaxed)).collect(),
        }
    }

    /// Build and emit a stall diagnostic on behalf of `reporter`.
    fn report_stall(&self, reporter: usize, stalled_for: Duration, jobs_executed: u64) {
        self.watchdog_trips.fetch_add(1, Ordering::Relaxed);
        let now = Instant::now();
        let mut ages = Vec::with_capacity(self.n);
        {
            let mut tracker = self.beat_tracker.lock().unwrap_or_else(|e| e.into_inner());
            for w in 0..self.n {
                let beat = self.hearts[w].load(Ordering::Relaxed);
                let entry = &mut tracker[w];
                if entry.beat != beat {
                    entry.beat = beat;
                    entry.since = now;
                }
                ages.push(now.saturating_duration_since(entry.since));
            }
        }
        let report = StallReport {
            reporter,
            stalled_for,
            jobs_executed,
            sleepers: self.sleep.sleeper_count(),
            heartbeats: self.hearts.iter().map(|h| h.load(Ordering::Relaxed)).collect(),
            heartbeat_ages: ages,
            degraded_workers: self.degraded_list(),
            worker_stats: self.counters.all_workers(),
        };
        (self.stall_handler)(&report);
    }

    /// Is there any work a currently-idle worker could acquire?
    fn has_visible_work(&self, me: usize) -> bool {
        if !self.injected.is_empty() {
            return true;
        }
        if self.mailboxes[me].len() > 0 {
            return true;
        }
        self.stealers.iter().any(|s| !s.is_empty())
    }
}

thread_local! {
    static WORKER: Cell<*const WorkerThread> = const { Cell::new(ptr::null()) };
}

pub(crate) struct WorkerThread {
    registry: Arc<Registry>,
    index: usize,
    deque: deque::Worker<JobRef>,
    rng: XorShift64Star,
    /// Nesting depth of `wait_until` on this worker. Injected panics at
    /// *runtime* sites are only honored at depth 0 (the main loop, where
    /// the degraded-worker catch contains them); unwinding out of
    /// `wait_until` could strand latches whose stack jobs are still live.
    wait_depth: Cell<u32>,
    /// Consecutive parks that ended in the timeout backstop without
    /// finding work. Stretches the next backstop timeout exponentially
    /// (bounded); reset by any real wake or any work found.
    fruitless: Cell<u32>,
    /// Whether this worker is in the registry's idle count.
    counted_idle: Cell<bool>,
}

impl WorkerThread {
    /// The worker executing the current thread, if any.
    ///
    /// # Safety
    /// The returned reference is valid for the duration of the current job
    /// execution (the worker outlives every job it runs).
    pub(crate) unsafe fn current<'a>() -> Option<&'a WorkerThread> {
        let p = WORKER.with(|c| c.get());
        if p.is_null() {
            None
        } else {
            Some(&*p)
        }
    }

    pub(crate) fn index(&self) -> usize {
        self.index
    }

    pub(crate) fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Record `event` into the pool's trace sink. With tracing off this is
    /// one branch on a cached bool — no sink call, no clock read, no
    /// allocation, no atomics.
    #[inline]
    pub(crate) fn trace(&self, event: TraceEvent) {
        if self.registry.trace_on {
            self.registry.trace.record(self.index, event);
        }
    }

    /// Count one job executed by this worker (jobs acquired outside
    /// [`find_work`](Self::find_work), e.g. `join`'s inline pop-back path).
    #[inline]
    pub(crate) fn note_job_executed(&self) {
        self.registry.counters.note_job_executed(self.index);
    }

    /// Consult the fault injector for `site`. Callers branch on
    /// `registry.chaos_on` first, so with chaos off this is never reached.
    /// Injected (non-`None`) actions are traced.
    fn chaos_point(&self, site: Site) -> FaultAction {
        let action = self.registry.chaos.decide(self.index, site);
        if action.is_fault() {
            self.trace(TraceEvent::FaultInjected { site: site.code(), action: action.code() });
        }
        action
    }

    /// [`chaos_point`](Self::chaos_point) for *runtime* sites (steal,
    /// park): inside `wait_until` an injected `Panic` demotes to `Fail`,
    /// because unwinding out of a wait would strand live stack jobs; in
    /// the main loop the degraded-worker catch makes the panic safe.
    fn chaos_point_runtime(&self, site: Site) -> FaultAction {
        match self.chaos_point(site) {
            FaultAction::Panic if self.wait_depth.get() > 0 => FaultAction::Fail,
            action => action,
        }
    }

    pub(crate) fn push(&self, job: JobRef) {
        self.deque.push(job);
        self.registry.counters.note_job_pushed(self.index);
        self.trace(TraceEvent::JobPushed);
        // One new stealable job: one sleeper suffices. Each push carries
        // its own event, so k pushes wake up to k sleepers.
        self.registry.sleep.notify_one();
    }

    pub(crate) fn pop(&self) -> Option<JobRef> {
        let job = self.deque.pop();
        if job.is_some() {
            self.trace(TraceEvent::JobPopped);
        }
        job
    }

    /// One full sweep over the other workers' deques from a random start,
    /// so no victim is structurally favored.
    fn steal(&self) -> Option<JobRef> {
        let n = self.registry.n;
        if n <= 1 {
            return None;
        }
        if self.registry.chaos_on {
            match self.chaos_point_runtime(Site::StealSweep) {
                FaultAction::Fail => {
                    // Forced empty sweep: the adversary hides all victims.
                    self.registry.counters.note_failed_sweep(self.index);
                    self.trace(TraceEvent::StealFailed);
                    return None;
                }
                FaultAction::Delay(spins) => chaos_spin(spins),
                FaultAction::Panic => {
                    panic!("{} at steal sweep", parloop_chaos::INJECTED_PANIC_MSG)
                }
                FaultAction::None => {}
            }
        }
        let victims = &self.registry.victims[self.index];
        let len = victims.len();
        let start = self.rng.next_below(len);
        if let Some(job) = (0..len).find_map(|k| self.try_steal_from(victims[(start + k) % len])) {
            return Some(job);
        }
        self.registry.counters.note_failed_sweep(self.index);
        self.trace(TraceEvent::StealFailed);
        None
    }

    /// Probe one victim's deque: chaos re-roll, then the Chase–Lev steal
    /// loop.
    fn try_steal_from(&self, victim: usize) -> Option<JobRef> {
        if self.registry.chaos_on {
            match self.chaos_point_runtime(Site::StealVictim) {
                // Forced victim re-roll: skip this victim as if its
                // deque raced empty.
                FaultAction::Fail => return None,
                FaultAction::Delay(spins) => chaos_spin(spins),
                FaultAction::Panic => {
                    panic!("{} at steal victim", parloop_chaos::INJECTED_PANIC_MSG)
                }
                FaultAction::None => {}
            }
        }
        loop {
            match self.registry.stealers[victim].steal() {
                Steal::Success(job) => {
                    self.registry.counters.note_steal(self.index);
                    self.trace(TraceEvent::Stolen { victim: victim as u32 });
                    return Some(job);
                }
                Steal::Empty => return None,
                Steal::Retry => std::hint::spin_loop(),
            }
        }
    }

    /// Drain one externally-injected job: this worker's own lane first,
    /// then a randomized sweep over the other lanes (like steal victims).
    fn take_injected(&self) -> Option<JobRef> {
        let lanes = self.registry.injected.num_lanes();
        let sweep_start = if lanes > 1 { self.rng.next_below(lanes) } else { 0 };
        let (job, lane) = self.registry.injected.take(self.index, sweep_start)?;
        self.registry.counters.note_lane_job(self.index);
        self.trace(TraceEvent::InjectLane { lane: lane as u32 });
        Some(job)
    }

    /// One look for work. An empty look enters the idle count, a job
    /// leaves it (module docs, "The idle count").
    fn find_work(&self) -> Option<JobRef> {
        let job = self
            .pop()
            .or_else(|| self.registry.mailboxes[self.index].pop())
            .or_else(|| self.take_injected())
            .or_else(|| self.steal());
        if job.is_some() {
            self.leave_idle();
            self.note_job_executed();
            self.fruitless.set(0);
        } else if !self.counted_idle.replace(true) {
            self.registry.idle.fetch_add(1, Ordering::Relaxed);
        }
        job
    }

    /// Leave the idle count if this worker is in it.
    fn leave_idle(&self) {
        if self.counted_idle.replace(false) {
            self.registry.idle.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Park on the pool's sleep machinery, bracketed with trace events.
    /// Timeout (backstop) wakes are distinguished from real notifications:
    /// fruitless backstop wakes stretch the next timeout exponentially, so
    /// an idle pool converges to a near-zero wake rate.
    fn park(&self, has_work: impl Fn() -> bool) {
        if self.registry.chaos_on {
            match self.chaos_point_runtime(Site::Park) {
                // Skip the park entirely: a busy-churning adversary.
                FaultAction::Fail => return,
                // Stall *before* blocking, so wakeups race the sleep.
                FaultAction::Delay(spins) => chaos_spin(spins),
                FaultAction::Panic => panic!("{} at park", parloop_chaos::INJECTED_PANIC_MSG),
                FaultAction::None => {}
            }
        }
        self.trace(TraceEvent::Parked);
        match self.registry.sleep.sleep(&has_work, self.fruitless.get()) {
            SleepOutcome::NotBlocked => self.fruitless.set(0),
            SleepOutcome::Notified => {
                self.fruitless.set(0);
                self.registry.counters.note_notified_wake(self.index);
                self.trace(TraceEvent::WakeTargeted);
            }
            SleepOutcome::Backstop => {
                self.registry.counters.note_backstop_wake(self.index);
                self.trace(TraceEvent::BackstopWake);
                if has_work() {
                    // The backstop found something a (dropped) wake should
                    // have delivered — productive, so no backoff.
                    self.fruitless.set(0);
                } else {
                    self.fruitless.set(self.fruitless.get().saturating_add(1));
                }
            }
        }
        self.trace(TraceEvent::Unparked);
    }

    /// Execute jobs until `latch` completes, preferring own work, then
    /// mailbox/injected/stolen work; parks once the idle policy's spin
    /// budget is spent ([`IdleSpin`]).
    ///
    /// While parked with the latch unresolved, a watchdog tracks the
    /// pool-wide job counter: if *no* job executes anywhere for the pool's
    /// stall threshold, the waiter emits a [`StallReport`] through the
    /// stall handler (default: stderr) instead of hanging silently, then
    /// re-arms so a persistent stall keeps reporting.
    pub(crate) fn wait_until<L: Probe>(&self, latch: &L) {
        let depth = self.wait_depth.get();
        self.wait_depth.set(depth + 1);
        let mut idle = IdleSpin::new();
        // Watchdog state: time and pool-wide job count at the start of the
        // current no-progress window.
        let mut stall: Option<(Instant, u64)> = None;
        while !latch.probe() {
            self.registry.heartbeat(self.index);
            if let Some(job) = self.find_work() {
                unsafe { job.execute() };
                idle.reset();
                stall = None;
            } else if !idle.spin() {
                let reg = &self.registry;
                self.park(|| latch.probe() || reg.has_visible_work(self.index));
                self.check_stall(&mut stall);
            }
        }
        self.leave_idle();
        self.wait_depth.set(depth);
    }

    /// One watchdog tick: reset the window if the pool executed any job
    /// since the last look, and report if the window exceeds the
    /// threshold.
    fn check_stall(&self, stall: &mut Option<(Instant, u64)>) {
        let reg = &self.registry;
        let jobs = reg.counters.totals().jobs_executed;
        match *stall {
            Some((since, seen)) if seen == jobs => {
                let elapsed = since.elapsed();
                if elapsed >= reg.stall_threshold {
                    self.trace(TraceEvent::WatchdogStall);
                    reg.report_stall(self.index, elapsed, jobs);
                    *stall = Some((Instant::now(), jobs));
                }
            }
            _ => *stall = Some((Instant::now(), jobs)),
        }
    }

    fn main_loop(&self) {
        // A panic that unwinds past every job boundary (a broken invariant
        // or an injected chaos panic) is caught here: the worker is marked
        // degraded and re-enters service instead of taking the process (or
        // the pool's shutdown join) down with it.
        loop {
            let run = unwind::halt_unwinding(|| self.run_loop());
            // Shutdown or an escaped panic may end the loop mid idle
            // spell: leave the count.
            self.leave_idle();
            match run {
                Ok(()) => break,
                Err(_) => {
                    self.wait_depth.set(0);
                    self.registry.mark_degraded(self.index);
                    self.trace(TraceEvent::WorkerDegraded);
                }
            }
        }
        // Drain leftovers so heap jobs (e.g. spent hybrid-loop adopter
        // frames) are reclaimed rather than leaked. By the shutdown
        // invariant every StackJob has already completed, so anything
        // left here is a self-contained heap job that is safe to run;
        // panics are contained so one poisoned leftover cannot leak the
        // rest.
        while let Some(job) = self.pop() {
            let _ = unwind::halt_unwinding(|| unsafe { job.execute() });
        }
        while let Some(job) = self.registry.mailboxes[self.index].pop() {
            let _ = unwind::halt_unwinding(|| unsafe { job.execute() });
        }
    }

    /// The body of the worker loop: find work, execute, park once the
    /// idle policy's spin budget is spent. Returns at pool shutdown.
    fn run_loop(&self) {
        let reg = Arc::clone(&self.registry);
        let mut idle = IdleSpin::new();
        loop {
            if reg.terminate.load(Ordering::Acquire) {
                return;
            }
            reg.heartbeat(self.index);
            if reg.chaos_on {
                match self.chaos_point(Site::MainLoop) {
                    // `Fail` has no operation to fail here; treat it as a
                    // scheduling perturbation.
                    FaultAction::Fail => std::thread::yield_now(),
                    FaultAction::Delay(spins) => chaos_spin(spins),
                    FaultAction::Panic => {
                        panic!("{} at main loop", parloop_chaos::INJECTED_PANIC_MSG)
                    }
                    FaultAction::None => {}
                }
            }
            if let Some(job) = self.find_work() {
                unsafe { job.execute() };
                idle.reset();
            } else if !idle.spin() {
                self.park(|| {
                    reg.terminate.load(Ordering::Acquire) || reg.has_visible_work(self.index)
                });
            }
        }
    }
}

/// The body of every worker thread: it owns worker `index`'s deque from
/// pool build to pool drop.
fn worker_entry(registry: Arc<Registry>, index: usize, deque: deque::Worker<JobRef>) {
    let wt = WorkerThread {
        registry,
        index,
        deque,
        rng: XorShift64Star::new(index as u64),
        wait_depth: Cell::new(0),
        fruitless: Cell::new(0),
        counted_idle: Cell::new(false),
    };
    WORKER.with(|c| c.set(&wt as *const WorkerThread));
    wt.main_loop();
    WORKER.with(|c| c.set(ptr::null()));
}

/// Configuration for building a [`ThreadPool`].
pub struct ThreadPoolBuilder {
    num_workers: usize,
    thread_name_prefix: String,
    stack_size: Option<usize>,
    trace_sink: Option<Arc<dyn TraceSink>>,
    fault_injector: Option<Arc<dyn FaultInjector>>,
    stall_threshold: Duration,
    stall_handler: Option<StallHandler>,
    backstop_interval: Duration,
}

impl ThreadPoolBuilder {
    pub fn new() -> Self {
        ThreadPoolBuilder {
            num_workers: 4,
            thread_name_prefix: "parloop-worker".into(),
            stack_size: None,
            trace_sink: None,
            fault_injector: None,
            stall_threshold: DEFAULT_STALL_THRESHOLD,
            stall_handler: None,
            backstop_interval: crate::sleep::DEFAULT_BACKSTOP_INTERVAL,
        }
    }

    /// Number of worker threads `P`. Worker ids are `0..P`.
    pub fn num_workers(mut self, n: usize) -> Self {
        assert!(n > 0, "a pool needs at least one worker");
        self.num_workers = n;
        self
    }

    /// Prefix for OS thread names (`<prefix>-<index>`).
    pub fn thread_name_prefix(mut self, p: impl Into<String>) -> Self {
        self.thread_name_prefix = p.into();
        self
    }

    /// Stack size per worker thread (deep divide-and-conquer recursion
    /// with tiny grains can need more than the OS default).
    pub fn stack_size(mut self, bytes: usize) -> Self {
        self.stack_size = Some(bytes);
        self
    }

    /// Install an event sink for the observability layer (typically a
    /// [`parloop_trace::RingTraceSink`] sized for this pool's workers).
    /// Without one the pool uses the no-op sink and instrumented hot paths
    /// cost a single untaken branch.
    pub fn trace_sink(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.trace_sink = Some(sink);
        self
    }

    /// Install a fault injector for the chaos layer (typically a seeded
    /// [`parloop_chaos::PlannedInjector`]). Without one the pool uses the
    /// disabled [`NoopInjector`] and every injection site costs a single
    /// untaken branch on a cached bool.
    pub fn fault_injector(mut self, injector: Arc<dyn FaultInjector>) -> Self {
        self.fault_injector = Some(injector);
        self
    }

    /// How long the pool may make zero job progress while a worker waits
    /// on an unresolved latch before the `wait_until` watchdog emits a
    /// [`StallReport`]. Default: [`DEFAULT_STALL_THRESHOLD`].
    pub fn stall_threshold(mut self, threshold: Duration) -> Self {
        self.stall_threshold = threshold;
        self
    }

    /// Install a handler for watchdog [`StallReport`]s. The default prints
    /// the report to stderr. The handler runs on the stalled waiter's
    /// thread and must not block on the pool.
    pub fn on_stall(mut self, handler: impl Fn(&StallReport) + Send + Sync + 'static) -> Self {
        self.stall_handler = Some(Arc::new(handler));
        self
    }

    /// Base interval of the sleep-protocol timeout backstop (the bound on
    /// how long a *lost* wakeup can delay an idle worker; real wakes are
    /// notification-driven and unaffected). Fruitless backstop wakes back
    /// off exponentially from this base, up to `base * 256`. Default:
    /// [`DEFAULT_BACKSTOP_INTERVAL`](crate::DEFAULT_BACKSTOP_INTERVAL).
    pub fn backstop_interval(mut self, interval: Duration) -> Self {
        assert!(!interval.is_zero(), "the backstop interval must be non-zero");
        self.backstop_interval = interval;
        self
    }

    pub fn build(self) -> ThreadPool {
        let n = self.num_workers;
        let mut workers = Vec::with_capacity(n);
        let mut stealers = Vec::with_capacity(n);
        for _ in 0..n {
            let (w, s) = deque::deque::<JobRef>();
            workers.push(w);
            stealers.push(s);
        }
        let trace = self.trace_sink.unwrap_or_else(|| Arc::new(NoopSink));
        let trace_on = trace.enabled();
        let chaos = self.fault_injector.unwrap_or_else(|| Arc::new(NoopInjector));
        let chaos_on = chaos.enabled();
        let stall_handler = self.stall_handler.unwrap_or_else(|| {
            Arc::new(|report: &StallReport| eprintln!("parloop-runtime watchdog: {report}"))
        });
        let victims = (0..n).map(|w| (0..n).filter(|&v| v != w).collect()).collect();
        let now = Instant::now();
        let registry = Arc::new(Registry {
            stealers,
            mailboxes: (0..n).map(|_| Lane::new()).collect(),
            injected: InjectLanes::new(n),
            sleep: Arc::new(Sleep::with_base(self.backstop_interval)),
            terminate: AtomicBool::new(false),
            counters: CounterBank::new(n),
            trace,
            trace_on,
            chaos,
            chaos_on,
            hearts: (0..n).map(|_| CachePadded::new(AtomicU64::new(0))).collect(),
            degraded: (0..n).map(|_| AtomicBool::new(false)).collect(),
            beat_tracker: Mutex::new((0..n).map(|_| BeatEntry { beat: 0, since: now }).collect()),
            idle: CachePadded::new(AtomicUsize::new(0)),
            watchdog_trips: AtomicU64::new(0),
            stall_threshold: self.stall_threshold,
            stall_handler,
            victims,
            n,
        });

        // Each worker reports in as its first action. The OS thread name is
        // set before a spawned closure runs, so once every worker has
        // reported, the pool's threads are visible under their names.
        let (started_tx, started_rx) = std::sync::mpsc::channel::<()>();
        let handles = workers
            .into_iter()
            .enumerate()
            .map(|(index, wdeque)| {
                let reg = Arc::clone(&registry);
                let started = started_tx.clone();
                let name = format!("{}-{}", self.thread_name_prefix, index);
                let mut builder = std::thread::Builder::new().name(name);
                if let Some(bytes) = self.stack_size {
                    builder = builder.stack_size(bytes);
                }
                builder
                    .spawn(move || {
                        // The receiver lives until every worker reported.
                        let _ = started.send(());
                        worker_entry(reg, index, wdeque)
                    })
                    .expect("failed to spawn pool worker")
            })
            .collect();
        drop(started_tx);
        for _ in 0..n {
            started_rx.recv().expect("a pool worker exited before reporting in");
        }

        ThreadPool { registry, handles }
    }
}

impl Default for ThreadPoolBuilder {
    fn default() -> Self {
        Self::new()
    }
}

/// A fixed-size pool of work-stealing workers.
///
/// Dropping the pool shuts the workers down (after draining leftover jobs).
pub struct ThreadPool {
    registry: Arc<Registry>,
    /// The worker threads' join handles, indexed by worker id.
    handles: Vec<JoinHandle<()>>,
}

impl ThreadPool {
    /// Build a pool with `n` workers and default settings.
    pub fn new(n: usize) -> Self {
        ThreadPoolBuilder::new().num_workers(n).build()
    }

    /// Number of workers `P`.
    pub fn num_workers(&self) -> usize {
        self.registry.num_workers()
    }

    /// Consult the pool's fault injector at `site` on behalf of an
    /// *external* (non-worker) thread — the adaptive grain controller's
    /// `Site::GrainAdjust` gate, whose recording thread may be a submitter.
    /// Never traced (trace sinks index per-worker rings), and an injected
    /// `Panic` is demoted to `Fail` so faults cannot unwind into user
    /// submitter threads. Returns [`FaultAction::None`] when chaos is off.
    pub fn chaos_decide_external(&self, site: Site) -> FaultAction {
        if !self.registry.chaos_on {
            return FaultAction::None;
        }
        match self.registry.chaos.decide(EXTERNAL_SUBMITTER, site) {
            // Faults must not unwind into user submitter threads.
            FaultAction::Panic => FaultAction::Fail,
            action => action,
        }
    }

    /// Record `event` from an *external* (non-worker) thread — e.g. a
    /// `GrainAdjusted` event recorded by a submitter. Routed through the
    /// sink's serialized external channel, never a per-worker ring. One
    /// untaken branch when tracing is off.
    #[inline]
    pub fn trace_external(&self, event: TraceEvent) {
        if self.registry.trace_on {
            self.registry.trace.record_external(event);
        }
    }

    /// Snapshot of the pool's scheduler counters (totals across workers).
    pub fn stats(&self) -> PoolStats {
        let t = self.registry.counters.totals();
        PoolStats {
            jobs_executed: t.jobs_executed,
            jobs_pushed: t.jobs_pushed,
            assist_joins: t.assist_joins,
            steals: t.steals,
            failed_steal_sweeps: t.failed_steal_sweeps,
            injected: self.registry.counters.injected(),
            grain_adjustments: self.registry.counters.grain_adjustments(),
        }
    }

    /// Count one accepted adaptive grain adjustment against this pool
    /// (feeds [`PoolStats::grain_adjustments`]). Called by the adaptive
    /// controller's recording thread, which may be an external submitter —
    /// pool-global, no worker slot involved.
    #[inline]
    pub fn note_grain_adjustment(&self) {
        self.registry.counters.note_grain_adjustment();
    }

    /// Per-worker breakdown of the counters behind [`stats`](Self::stats),
    /// indexed by worker id.
    pub fn worker_stats(&self) -> Vec<WorkerStats> {
        self.registry.counters.all_workers()
    }

    /// Whether this pool records scheduler events (a real sink was
    /// installed via [`ThreadPoolBuilder::trace_sink`]).
    pub fn tracing_enabled(&self) -> bool {
        self.registry.trace_on
    }

    /// Whether this pool injects faults (a real injector was installed via
    /// [`ThreadPoolBuilder::fault_injector`]).
    pub fn chaos_enabled(&self) -> bool {
        self.registry.chaos_on
    }

    /// Snapshot of the pool's health: degraded workers, watchdog trips,
    /// and per-worker liveness heartbeats.
    pub fn health(&self) -> PoolHealth {
        self.registry.health()
    }

    /// Whether any worker's main loop has caught an escaped panic (see
    /// [`PoolHealth::degraded_workers`]).
    pub fn is_degraded(&self) -> bool {
        !self.registry.degraded_list().is_empty()
    }

    /// Spawn a detached job on the pool. It runs at some point before the
    /// pool shuts down; there is no completion handle (use
    /// [`scope`](crate::scope) for structured spawning).
    pub fn spawn_detached(&self, f: impl FnOnce() + Send + 'static) {
        let job = HeapJob::new(f);
        unsafe {
            match WorkerThread::current() {
                Some(wt) if Arc::ptr_eq(wt.registry(), &self.registry) => {
                    wt.push(job.into_job_ref())
                }
                _ => self.registry.inject(job.into_job_ref()),
            }
        }
    }

    /// Run `op` on the pool, blocking until it completes and returning its
    /// result. If the calling thread is already a worker of this pool, `op`
    /// runs inline.
    pub fn install<R, F>(&self, op: F) -> R
    where
        R: Send,
        F: FnOnce() -> R + Send,
    {
        unsafe {
            if let Some(wt) = WorkerThread::current() {
                if Arc::ptr_eq(wt.registry(), &self.registry) {
                    return op();
                }
            }
        }
        let job = StackJob::new(op, LockLatch::new());
        let jref = unsafe { job.as_job_ref() };
        self.registry.inject(jref);
        job.latch.wait();
        unsafe { job.into_result() }
    }

    /// Run `body(worker_index)` exactly once on **every** worker of the
    /// team, blocking until all have finished — the analogue of entering an
    /// OpenMP parallel region. Panics in any body are re-thrown here.
    ///
    /// Workers busy with other jobs run their team body when they next look
    /// for work, modeling the paper's observation that "cores can arrive at
    /// the loops at different times".
    ///
    /// # Panic contract
    ///
    /// Every worker's body runs to completion (or to its own panic) even
    /// when other bodies panic — the broadcast never tears the team
    /// mid-region. If *multiple* bodies panic, exactly **one** payload is
    /// resumed here and the rest are discarded: the broadcaster's own
    /// panic wins if there is one, otherwise the first team panic to be
    /// recorded (first in completion order, not worker order). The pool
    /// remains fully usable afterwards.
    pub fn broadcast_all<F>(&self, body: F)
    where
        F: Fn(usize) + Sync,
    {
        self.install(|| {
            let wt = unsafe { WorkerThread::current().expect("installed on a worker") };
            let reg = wt.registry();
            let n = reg.num_workers();
            let latch = CountLatch::with_sleep(n.saturating_sub(1), Arc::clone(&reg.sleep));
            let panic_slot: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);

            let body_ptr: SendPtr<dyn Fn(usize) + Sync> =
                SendPtr::new(&body as &(dyn Fn(usize) + Sync));
            let latch_ptr: SendPtr<CountLatch> = SendPtr::new(&latch);
            let panic_ptr: SendPtr<Mutex<Option<Box<dyn std::any::Any + Send>>>> =
                SendPtr::new(&panic_slot);

            for w in 0..n {
                if w == wt.index() {
                    continue;
                }
                let job = HeapJob::new(move || {
                    // SAFETY: the broadcasting task waits on `latch` before
                    // returning, so these borrows outlive this job.
                    let body = unsafe { body_ptr.get() };
                    let latch = unsafe { latch_ptr.get() };
                    let panics = unsafe { panic_ptr.get() };
                    if let Err(p) = unwind::halt_unwinding(|| body(w)) {
                        panics.lock().unwrap().get_or_insert(p);
                    }
                    latch.set();
                });
                reg.post_mailbox(w, job.into_job_ref());
            }

            // The broadcaster is part of the team.
            let own = unwind::halt_unwinding(|| body(wt.index()));
            wt.wait_until(&latch);

            if let Err(p) = own {
                unwind::resume_unwinding(p);
            }
            let team_panic = panic_slot.lock().unwrap().take();
            if let Some(p) = team_panic {
                unwind::resume_unwinding(p);
            }
        })
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.registry.terminate.store(true, Ordering::Release);
        // The terminate flag is the published event: a parked worker's
        // has-work re-check reads it, so one wake reaches every sleeper.
        self.registry.sleep.notify_all();
        for h in self.handles.drain(..) {
            h.join().expect("pool worker panicked outside a job");
        }
        // Any detached jobs still sitting in the injection lanes run here,
        // on the dropping thread, so their allocations are reclaimed and
        // their effects still happen-before the pool disappears. Panics
        // are contained: resuming one here could double-panic inside this
        // `Drop` (an instant abort) and would leak the remaining jobs.
        while let Some(job) = self.registry.injected.take_any() {
            let _ = unwind::halt_unwinding(|| unsafe { job.execute() });
        }
    }
}

/// Index of the current pool worker, if the calling thread is one.
pub fn current_worker_index() -> Option<usize> {
    unsafe { WorkerThread::current().map(|w| w.index()) }
}

/// A non-`Send` capability proving the current thread is a pool worker.
///
/// `parloop-core` uses this to implement the hybrid loop: pushing adopter
/// frames onto the *current worker's own deque* and waiting on latches
/// while continuing to steal.
#[derive(Clone, Copy)]
pub struct WorkerToken {
    _not_send: PhantomData<*mut ()>,
}

impl WorkerToken {
    /// Obtain a token if the current thread is a pool worker.
    pub fn current() -> Option<WorkerToken> {
        unsafe { WorkerThread::current().map(|_| WorkerToken { _not_send: PhantomData }) }
    }

    #[inline]
    fn worker(&self) -> &WorkerThread {
        unsafe { WorkerThread::current().expect("WorkerToken used off its worker thread") }
    }

    /// This worker's id `w` in `0..P`.
    pub fn index(&self) -> usize {
        self.worker().index()
    }

    /// Team size `P`.
    pub fn num_workers(&self) -> usize {
        self.worker().registry().num_workers()
    }

    /// Push a fire-and-forget job onto this worker's own deque, where it is
    /// popped by this worker (LIFO) or stolen by an idle one (FIFO).
    pub fn spawn_local(&self, f: impl FnOnce() + Send + 'static) {
        self.worker().push(HeapJob::new(f).into_job_ref());
    }

    /// Create a counting latch wired to this pool's wake machinery.
    pub fn count_latch(&self, count: usize) -> CountLatch {
        CountLatch::with_sleep(count, Arc::clone(&self.worker().registry().sleep))
    }

    /// Create a one-shot latch wired to this pool's wake machinery.
    pub fn spin_latch(&self) -> SpinLatch {
        SpinLatch::with_sleep(Arc::clone(&self.worker().registry().sleep))
    }

    /// Work-first wait: execute available jobs until `latch` completes.
    pub fn wait_until<L: Probe>(&self, latch: &L) {
        self.worker().wait_until(latch)
    }

    /// Whether another worker of this pool is idle: its last look for
    /// work came up empty, and it has taken no job since (parked workers
    /// included). The calling worker runs a job, so it is never the one
    /// counted. One `Relaxed` load; a stale answer delays a publish by one
    /// chunk or publishes a job nobody takes, never anything worse (module
    /// docs, "The idle count"). The loop layers publish a loop's
    /// parallelism only while this holds.
    #[inline]
    pub fn peer_idle(&self) -> bool {
        self.worker().registry().idle.load(Ordering::Relaxed) > 0
    }

    /// Record a scheduler event on behalf of this worker. One untaken
    /// branch when the pool has no trace sink installed.
    #[inline]
    pub fn trace(&self, event: TraceEvent) {
        self.worker().trace(event)
    }

    /// Whether this worker's pool records scheduler events. Callers that
    /// emit several events (or compute event payloads) should check this
    /// once and skip the work when it is `false`.
    #[inline]
    pub fn tracing_enabled(&self) -> bool {
        self.worker().registry().trace_on
    }

    /// Whether this worker's pool injects faults. Loop-layer injection
    /// sites check this once (it is constant for the pool's lifetime) and
    /// skip [`chaos_decide`](Self::chaos_decide) entirely when `false`.
    #[inline]
    pub fn chaos_enabled(&self) -> bool {
        self.worker().registry().chaos_on
    }

    /// Consult the pool's fault injector at a loop-layer `site` on behalf
    /// of this worker, tracing any injected action. Callers own the
    /// response — including raising the injected panic *inside* their own
    /// catch boundary (loop sites must not let panics unwind into the
    /// scheduler).
    pub fn chaos_decide(&self, site: Site) -> FaultAction {
        self.worker().chaos_point(site)
    }

    /// Count one lazy-loop assist-handle adoption by this worker (the
    /// always-on counter behind `PoolStats::assist_joins`).
    #[inline]
    pub fn note_assist_join(&self) {
        let w = self.worker();
        w.registry().counters.note_assist_join(w.index());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn install_runs_on_worker_and_returns_value() {
        let pool = ThreadPool::new(2);
        let v = pool.install(|| {
            assert!(current_worker_index().is_some());
            6 * 7
        });
        assert_eq!(v, 42);
    }

    #[test]
    fn install_propagates_panic() {
        let pool = ThreadPool::new(2);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.install(|| panic!("inner"));
        }));
        assert!(r.is_err());
        // Pool still usable afterwards.
        assert_eq!(pool.install(|| 1), 1);
    }

    #[test]
    fn broadcast_reaches_every_worker_exactly_once() {
        let pool = ThreadPool::new(4);
        let hits: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        pool.broadcast_all(|w| {
            hits[w].fetch_add(1, Ordering::Relaxed);
            assert_eq!(current_worker_index(), Some(w));
        });
        for h in &hits {
            assert_eq!(h.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn broadcast_with_every_worker_panicking_resumes_one_payload() {
        // The documented contract: all bodies run, exactly one payload is
        // resumed, the pool stays usable.
        let pool = ThreadPool::new(4);
        let ran: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.broadcast_all(|w| {
                ran[w].fetch_add(1, Ordering::Relaxed);
                panic!("broadcast worker {w}");
            });
        }));
        let payload = r.expect_err("broadcast must re-throw");
        let msg = payload.downcast_ref::<String>().expect("panic message payload");
        assert!(msg.starts_with("broadcast worker "), "unexpected payload: {msg}");
        // Every body ran exactly once despite all of them panicking.
        for (w, hits) in ran.iter().enumerate() {
            assert_eq!(hits.load(Ordering::Relaxed), 1, "worker {w}");
        }
        // Pool fully reusable: a clean broadcast and an install both work.
        let ok: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        pool.broadcast_all(|w| {
            ok[w].fetch_add(1, Ordering::Relaxed);
        });
        assert!(ok.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        assert_eq!(pool.install(|| 9), 9);
    }

    #[test]
    fn escaped_panic_marks_worker_degraded_but_pool_survives() {
        let pool = ThreadPool::new(2);
        assert!(!pool.is_degraded());
        // A detached job's panic unwinds past every job boundary into the
        // worker main loop.
        pool.spawn_detached(|| panic!("escaped"));
        let deadline = Instant::now() + Duration::from_secs(10);
        while !pool.is_degraded() {
            assert!(Instant::now() < deadline, "degraded flag never raised");
            std::thread::yield_now();
        }
        let health = pool.health();
        assert_eq!(health.degraded_workers.len(), 1);
        assert!(health.heartbeats.iter().any(|&h| h > 0));
        // Degraded means *flagged*, not dead: the pool still runs work.
        assert_eq!(pool.install(|| 6 * 7), 42);
    }

    #[test]
    fn broadcast_propagates_panics() {
        let pool = ThreadPool::new(3);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.broadcast_all(|w| {
                if w == 1 {
                    panic!("worker 1 fails");
                }
            });
        }));
        assert!(r.is_err());
        assert_eq!(pool.install(|| 5), 5);
    }

    #[test]
    fn nested_install_same_pool_runs_inline() {
        let pool = ThreadPool::new(2);
        let out = pool.install(|| {
            let before = current_worker_index();
            let inner = pool.install(current_worker_index);
            assert_eq!(before, inner);
            inner
        });
        assert!(out.is_some());
    }

    #[test]
    fn worker_token_identity() {
        let pool = ThreadPool::new(3);
        pool.install(|| {
            let t = WorkerToken::current().unwrap();
            assert_eq!(t.num_workers(), 3);
            assert!(t.index() < 3);
        });
        assert!(WorkerToken::current().is_none());
    }

    #[test]
    fn spawn_local_eventually_runs() {
        let pool = ThreadPool::new(2);
        let counter = Arc::new(AtomicUsize::new(0));
        pool.install(|| {
            let t = WorkerToken::current().unwrap();
            let latch = t.count_latch(8);
            for _ in 0..8 {
                let c = Arc::clone(&counter);
                let l: SendPtr<CountLatch> = SendPtr::new(&latch);
                t.spawn_local(move || {
                    c.fetch_add(1, Ordering::Relaxed);
                    unsafe { l.get().set() };
                });
            }
            t.wait_until(&latch);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn builder_options_apply() {
        let pool = ThreadPoolBuilder::new()
            .num_workers(3)
            .thread_name_prefix("custom")
            .stack_size(4 << 20)
            .build();
        assert_eq!(pool.num_workers(), 3);
        let name = pool.install(|| std::thread::current().name().map(String::from));
        assert!(name.unwrap().starts_with("custom-"));
    }

    #[test]
    fn backstop_interval_option_applies() {
        let pool = ThreadPoolBuilder::new()
            .num_workers(2)
            .backstop_interval(Duration::from_millis(2))
            .build();
        assert_eq!(pool.install(|| 11), 11);
        pool.broadcast_all(|_| {});
    }

    #[test]
    fn deep_recursion_with_big_stacks() {
        let pool = ThreadPoolBuilder::new().num_workers(2).stack_size(16 << 20).build();
        fn depth(n: usize) -> usize {
            if n == 0 {
                return 0;
            }
            let (a, _) = crate::join(|| depth(n - 1), || ());
            a + 1
        }
        assert_eq!(pool.install(|| depth(2000)), 2000);
    }

    #[test]
    fn stats_count_activity() {
        let pool = ThreadPool::new(2);
        let before = pool.stats();
        for _ in 0..10 {
            pool.install(|| {
                crate::join(|| std::hint::black_box(1), || std::hint::black_box(2));
            });
        }
        let after = pool.stats();
        assert!(after.jobs_executed > before.jobs_executed);
        assert!(after.injected >= before.injected + 10);
    }

    #[test]
    fn spawn_detached_runs_before_shutdown() {
        let ran = Arc::new(AtomicUsize::new(0));
        {
            let pool = ThreadPool::new(2);
            for _ in 0..16 {
                let r = Arc::clone(&ran);
                pool.spawn_detached(move || {
                    r.fetch_add(1, Ordering::Relaxed);
                });
            }
            // Pool drop waits for workers and drains leftovers.
        }
        assert_eq!(ran.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn spawn_detached_from_worker_uses_local_deque() {
        let pool = ThreadPool::new(2);
        let ran = Arc::new(AtomicUsize::new(0));
        let r = Arc::clone(&ran);
        pool.install(|| {
            let r2 = Arc::clone(&r);
            pool.spawn_detached(move || {
                r2.fetch_add(1, Ordering::Relaxed);
            });
        });
        // Give it a moment to be picked up, then force a sync point.
        pool.install(|| {});
        while ran.load(Ordering::Relaxed) == 0 {
            std::thread::yield_now();
        }
        assert_eq!(ran.load(Ordering::Relaxed), 1);
    }

    /// The idle count polled until it reads `expected` or a 10 s deadline
    /// passes; returns the last reading.
    fn idle_settled(pool: &ThreadPool, expected: usize) -> usize {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let idle = pool.registry.idle.load(Ordering::Relaxed);
            if idle == expected || Instant::now() >= deadline {
                return idle;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn idle_count_settles_at_p_across_work() {
        // A quiet pool counts every worker, parked ones included, and
        // counts each once again after running work.
        let pool = ThreadPool::new(3);
        assert_eq!(idle_settled(&pool, 3), 3);
        assert_eq!(pool.install(|| 6 * 7), 42);
        pool.broadcast_all(|_| {});
        assert_eq!(idle_settled(&pool, 3), 3);
    }

    #[test]
    fn each_worker_sweeps_every_other_worker() {
        let pool = ThreadPool::new(3);
        assert_eq!(&pool.registry.victims[1][..], &[0, 2]);
    }

    #[test]
    fn many_concurrent_installs() {
        let pool = Arc::new(ThreadPool::new(4));
        let total = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let pool = Arc::clone(&pool);
                let total = Arc::clone(&total);
                s.spawn(move || {
                    for _ in 0..16 {
                        pool.install(|| {
                            total.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 8 * 16);
    }
}
