//! Tenant handles: QoS class, fair-share weight, deadline, admission.

use std::ops::Range;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parloop_chaos::{chaos_spin, FaultAction, Site};
use parloop_core::{Loop, LoopError, Schedule};
use parloop_runtime::{CancelToken, QosClass, ThreadPool, TraceEvent, WorkerToken};

use crate::global::global_pool;
use crate::hist::LatencyHistogram;

/// Default admission window per unit of [`TenantBuilder::weight`]: a
/// tenant may have `weight * DEFAULT_DEPTH_PER_WEIGHT` loops in flight
/// before [`TenantError::Overloaded`] rejections start. Weight-scaling
/// the window is the fairness mechanism — equal-weight tenants get equal
/// standing demand on the lanes, and the DRR drain does the rest.
pub const DEFAULT_DEPTH_PER_WEIGHT: usize = 4;

/// Process-wide tenant id allocator (ids tag trace events).
static NEXT_TENANT_ID: AtomicU32 = AtomicU32::new(0);

/// Errors a tenant loop can return without running (or completing) the
/// loop body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantError {
    /// Admission control rejected the loop: the tenant already had its
    /// full depth-limit of loops in flight (or the chaos layer forced a
    /// rejection at [`Site::Admission`]). Nothing was queued; no
    /// iteration ran. Back off and retry.
    Overloaded,
    /// The tenant's deadline passed before the loop completed. Chunks
    /// that started before the deadline was observed ran exactly once;
    /// no new chunks were claimed after it.
    DeadlineExceeded,
    /// The tenant's circuit breaker is open: enough consecutive
    /// rejections tripped it, and submissions fail fast (no admission
    /// attempt, no retry loop) until the cooldown elapses and a
    /// half-open probe succeeds. Only returned by tenants configured
    /// with [`TenantBuilder::circuit_breaker`].
    BreakerOpen,
}

impl std::fmt::Display for TenantError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TenantError::Overloaded => f.write_str("tenant over its admission depth limit"),
            TenantError::DeadlineExceeded => f.write_str("tenant deadline exceeded"),
            TenantError::BreakerOpen => f.write_str("tenant circuit breaker open"),
        }
    }
}

impl std::error::Error for TenantError {}

/// Retry-on-[`Overloaded`](TenantError::Overloaded) policy: jittered
/// exponential backoff, capped both per sleep and in total attempts.
/// Installed via [`TenantBuilder::retry_policy`]; without one a tenant
/// never retries (the pre-existing behavior).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retry budget: attempts after the initial one. `0` disables.
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per attempt.
    pub base_backoff: Duration,
    /// Cap on any single backoff sleep.
    pub max_backoff: Duration,
}

impl RetryPolicy {
    /// A policy with `max_retries` attempts, 50 µs base, 5 ms cap.
    pub fn new(max_retries: u32) -> Self {
        RetryPolicy {
            max_retries,
            base_backoff: Duration::from_micros(50),
            max_backoff: Duration::from_millis(5),
        }
    }

    /// Override the base backoff (doubles per attempt).
    pub fn base_backoff(mut self, base: Duration) -> Self {
        self.base_backoff = base;
        self
    }

    /// Override the per-sleep cap.
    pub fn max_backoff(mut self, cap: Duration) -> Self {
        self.max_backoff = cap;
        self
    }

    /// The jittered sleep before retry number `attempt` (1-based): the
    /// exponential `base * 2^(attempt-1)` capped at `max_backoff`, then
    /// scaled into `[1/2, 1)` of itself by a hash of `(salt, attempt)` so
    /// colliding submitters decorrelate deterministically.
    pub fn backoff(&self, attempt: u32, salt: u64) -> Duration {
        let exp = attempt.saturating_sub(1).min(20);
        let raw = self.base_backoff.saturating_mul(1u32 << exp).min(self.max_backoff);
        let h = splitmix64(salt ^ (attempt as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        // Jitter factor in [512, 1024) / 1024 — i.e. [0.5, 1.0).
        let num = 512 + (h % 512) as u32;
        raw.mul_f64(num as f64 / 1024.0)
    }
}

/// SplitMix64 — the same mixer the chaos layer uses for deterministic
/// plans, reproduced here (it is not exported) for backoff jitter.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Per-thread jitter salt, so same-tenant submitters on different
/// threads back off on decorrelated schedules.
fn submitter_salt() -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    std::thread::current().id().hash(&mut h);
    h.finish()
}

/// Circuit-breaker configuration: `threshold` consecutive rejections
/// open the breaker; after `cooldown` one half-open probe is let
/// through, and its outcome closes or re-opens the breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BreakerConfig {
    threshold: u32,
    cooldown: Duration,
}

/// Breaker states (stored in `Shared::breaker_state`).
const BREAKER_CLOSED: u8 = 0;
const BREAKER_OPEN: u8 = 1;
const BREAKER_HALF_OPEN: u8 = 2;

/// Point-in-time snapshot of one tenant's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Loops admitted and installed on the pool.
    pub installed: u64,
    /// Loops rejected by admission control ([`TenantError::Overloaded`]).
    pub rejected: u64,
    /// Loops cancelled by the tenant deadline
    /// ([`TenantError::DeadlineExceeded`]).
    pub cancelled_by_deadline: u64,
    /// Backoff-retries taken after `Overloaded` rejections (counts every
    /// retry attempt, successful or not; zero without a
    /// [`RetryPolicy`]).
    pub retries: u64,
    /// Times the circuit breaker opened (closed→open and a failed
    /// half-open probe re-opening both count).
    pub breaker_trips: u64,
    /// Loops currently admitted and not yet finished.
    pub in_flight: usize,
}

/// The shared state behind a [`Tenant`] and its clones.
struct Shared {
    id: u32,
    name: String,
    class: QosClass,
    weight: u32,
    deadline: Option<Duration>,
    depth_limit: usize,
    in_flight: AtomicUsize,
    installed: AtomicU64,
    rejected: AtomicU64,
    cancelled_by_deadline: AtomicU64,
    retries: AtomicU64,
    breaker_trips: AtomicU64,
    retry: Option<RetryPolicy>,
    breaker: Option<BreakerConfig>,
    /// Breaker state machine (`BREAKER_*` encodings).
    breaker_state: AtomicU8,
    /// Consecutive admission rejections since the last success.
    consecutive_rejections: AtomicU32,
    /// When the breaker last opened, as µs since `born` (Instant is not
    /// atomic; the µs offset is).
    breaker_opened_us: AtomicU64,
    born: Instant,
    install_latency: LatencyHistogram,
}

/// Decrement-on-drop admission slot, so a panicking loop body (or an
/// early return) can never leak in-flight accounting and wedge the
/// tenant at its depth limit. Owns its `Arc` so detached jobs can carry
/// the slot onto a worker and release it when the job finishes.
struct AdmitGuard(Arc<Shared>);

impl Drop for AdmitGuard {
    fn drop(&mut self) {
        self.0.in_flight.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Configures a [`Tenant`]; created via [`Tenant::builder`].
pub struct TenantBuilder {
    name: String,
    class: QosClass,
    weight: u32,
    deadline: Option<Duration>,
    max_in_flight: Option<usize>,
    retry: Option<RetryPolicy>,
    breaker: Option<BreakerConfig>,
}

impl TenantBuilder {
    /// QoS class for every loop this tenant submits. Default:
    /// [`QosClass::Batch`] — latency standing is something a tenant opts
    /// into, not the bulk default.
    pub fn class(mut self, class: QosClass) -> Self {
        self.class = class;
        self
    }

    /// Fair-share weight (≥ 1). Scales the admission window:
    /// `weight * DEFAULT_DEPTH_PER_WEIGHT` loops in flight unless
    /// [`max_in_flight`](Self::max_in_flight) overrides it.
    pub fn weight(mut self, weight: u32) -> Self {
        assert!(weight >= 1, "tenant weight must be at least 1");
        self.weight = weight;
        self
    }

    /// Per-loop deadline: each loop gets a fresh
    /// [`CancelToken::cancel_after`]`(deadline)` and returns
    /// [`TenantError::DeadlineExceeded`] if it fires first.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Explicit admission window, overriding the weight-scaled default.
    pub fn max_in_flight(mut self, depth: usize) -> Self {
        assert!(depth >= 1, "a tenant needs an admission window of at least 1");
        self.max_in_flight = Some(depth);
        self
    }

    /// Retry [`Overloaded`](TenantError::Overloaded) rejections with
    /// jittered exponential backoff before giving up. Without a policy
    /// the tenant never retries (every rejection surfaces immediately).
    pub fn retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.retry = Some(policy);
        self
    }

    /// Arm a per-tenant circuit breaker: `threshold` *consecutive*
    /// admission rejections open it, submissions then fail fast with
    /// [`TenantError::BreakerOpen`] for `cooldown`, after which a single
    /// half-open probe decides between closing and re-opening. Without
    /// this call the breaker never engages.
    pub fn circuit_breaker(mut self, threshold: u32, cooldown: Duration) -> Self {
        assert!(threshold >= 1, "a breaker needs a threshold of at least 1");
        self.breaker = Some(BreakerConfig { threshold, cooldown });
        self
    }

    /// Build the tenant on the process-global pool (creating the pool
    /// with defaults if this is the first use — see
    /// [`global_pool`](crate::global_pool)).
    pub fn build(self) -> Tenant {
        let pool = global_pool();
        self.build_on(pool)
    }

    /// Build the tenant on an explicit pool (tests, benches, and
    /// embedders that manage their own fleet).
    pub fn build_on(self, pool: Arc<ThreadPool>) -> Tenant {
        let depth_limit =
            self.max_in_flight.unwrap_or(self.weight as usize * DEFAULT_DEPTH_PER_WEIGHT);
        Tenant {
            pool,
            shared: Arc::new(Shared {
                id: NEXT_TENANT_ID.fetch_add(1, Ordering::Relaxed),
                name: self.name,
                class: self.class,
                weight: self.weight,
                deadline: self.deadline,
                depth_limit,
                in_flight: AtomicUsize::new(0),
                installed: AtomicU64::new(0),
                rejected: AtomicU64::new(0),
                cancelled_by_deadline: AtomicU64::new(0),
                retries: AtomicU64::new(0),
                breaker_trips: AtomicU64::new(0),
                retry: self.retry,
                breaker: self.breaker,
                breaker_state: AtomicU8::new(BREAKER_CLOSED),
                consecutive_rejections: AtomicU32::new(0),
                breaker_opened_us: AtomicU64::new(0),
                born: Instant::now(),
                install_latency: LatencyHistogram::new(),
            }),
        }
    }
}

/// A caller's handle onto the shared fleet. Cloning is cheap and clones
/// share class, weight, admission window, and stats — hand clones to the
/// tenant's submitter threads.
#[derive(Clone)]
pub struct Tenant {
    pool: Arc<ThreadPool>,
    shared: Arc<Shared>,
}

impl Tenant {
    /// Start configuring a tenant named `name` (names are for humans and
    /// stats; ids tag trace events).
    pub fn builder(name: impl Into<String>) -> TenantBuilder {
        TenantBuilder {
            name: name.into(),
            class: QosClass::Batch,
            weight: 1,
            deadline: None,
            max_in_flight: None,
            retry: None,
            breaker: None,
        }
    }

    /// This tenant's process-unique id (tags `tenant_installed` /
    /// `tenant_deadline` trace events).
    pub fn id(&self) -> u32 {
        self.shared.id
    }

    /// The name given at build time.
    pub fn name(&self) -> &str {
        &self.shared.name
    }

    /// The QoS class every loop of this tenant is injected with.
    pub fn class(&self) -> QosClass {
        self.shared.class
    }

    /// The fair-share weight.
    pub fn weight(&self) -> u32 {
        self.shared.weight
    }

    /// The admission window (maximum in-flight loops).
    pub fn depth_limit(&self) -> usize {
        self.shared.depth_limit
    }

    /// The pool this tenant submits to.
    pub fn pool(&self) -> &Arc<ThreadPool> {
        &self.pool
    }

    /// Snapshot of this tenant's counters.
    pub fn stats(&self) -> TenantStats {
        TenantStats {
            installed: self.shared.installed.load(Ordering::Relaxed),
            rejected: self.shared.rejected.load(Ordering::Relaxed),
            cancelled_by_deadline: self.shared.cancelled_by_deadline.load(Ordering::Relaxed),
            retries: self.shared.retries.load(Ordering::Relaxed),
            breaker_trips: self.shared.breaker_trips.load(Ordering::Relaxed),
            in_flight: self.shared.in_flight.load(Ordering::Relaxed),
        }
    }

    /// p50 install latency (admission to first instruction on a worker),
    /// as the upper bound of its log2 bucket. `None` before any install.
    pub fn p50_install_latency(&self) -> Option<Duration> {
        self.shared.install_latency.p50()
    }

    /// p99 install latency; see
    /// [`p50_install_latency`](Self::p50_install_latency).
    pub fn p99_install_latency(&self) -> Option<Duration> {
        self.shared.install_latency.p99()
    }

    /// Claim an admission slot, or reject. The breaker gate runs first
    /// (an open breaker fails fast without touching admission), then the
    /// chaos site, so a forced rejection exercises the exact path real
    /// overload takes.
    fn admit(&self) -> Result<AdmitGuard, TenantError> {
        self.breaker_check()?;
        if self.pool.chaos_enabled() {
            // `Panic` and `Kill` are worker-side faults; at the external
            // admission site both demote to a plain rejection — faults
            // must never unwind into (or kill) user submitter threads.
            match self.pool.chaos_decide_external(Site::Admission) {
                FaultAction::Fail | FaultAction::Panic | FaultAction::Kill => {
                    self.shared.rejected.fetch_add(1, Ordering::Relaxed);
                    self.breaker_record(false);
                    return Err(TenantError::Overloaded);
                }
                FaultAction::Delay(spins) => chaos_spin(spins),
                FaultAction::None => {}
            }
        }
        let mut cur = self.shared.in_flight.load(Ordering::Relaxed);
        loop {
            if cur >= self.shared.depth_limit {
                self.shared.rejected.fetch_add(1, Ordering::Relaxed);
                self.breaker_record(false);
                return Err(TenantError::Overloaded);
            }
            match self.shared.in_flight.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.breaker_record(true);
                    return Ok(AdmitGuard(Arc::clone(&self.shared)));
                }
                Err(seen) => cur = seen,
            }
        }
    }

    /// Breaker gate ahead of admission. `Ok` when the breaker is closed,
    /// unconfigured, or this caller won the half-open probe slot; `Err`
    /// while the breaker is open (cooldown running) or another caller
    /// already holds the probe.
    fn breaker_check(&self) -> Result<(), TenantError> {
        let Some(cfg) = self.shared.breaker else { return Ok(()) };
        match self.shared.breaker_state.load(Ordering::Acquire) {
            BREAKER_CLOSED => Ok(()),
            BREAKER_OPEN => {
                let opened =
                    Duration::from_micros(self.shared.breaker_opened_us.load(Ordering::Acquire));
                if self.shared.born.elapsed().saturating_sub(opened) >= cfg.cooldown {
                    // Cooldown over: exactly one caller flips open→half-open
                    // and proceeds as the probe; losers keep failing fast.
                    if self
                        .shared
                        .breaker_state
                        .compare_exchange(
                            BREAKER_OPEN,
                            BREAKER_HALF_OPEN,
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        )
                        .is_ok()
                    {
                        return Ok(());
                    }
                }
                Err(TenantError::BreakerOpen)
            }
            // Half-open: a probe is already in flight; everyone else waits.
            _ => Err(TenantError::BreakerOpen),
        }
    }

    /// Fold one admission outcome into the breaker state machine. A
    /// success closes the breaker (and clears the rejection streak); a
    /// failure extends the streak and — at the threshold, or on a failed
    /// half-open probe — opens the breaker and stamps the cooldown clock.
    fn breaker_record(&self, success: bool) {
        if self.shared.breaker.is_none() {
            return;
        }
        let cfg = self.shared.breaker.unwrap();
        if success {
            self.shared.consecutive_rejections.store(0, Ordering::Relaxed);
            self.shared.breaker_state.store(BREAKER_CLOSED, Ordering::Release);
            return;
        }
        let streak = self.shared.consecutive_rejections.fetch_add(1, Ordering::Relaxed) + 1;
        let state = self.shared.breaker_state.load(Ordering::Acquire);
        let should_open =
            state == BREAKER_HALF_OPEN || (state == BREAKER_CLOSED && streak >= cfg.threshold);
        if should_open {
            self.shared
                .breaker_opened_us
                .store(self.shared.born.elapsed().as_micros() as u64, Ordering::Release);
            self.shared.breaker_state.store(BREAKER_OPEN, Ordering::Release);
            self.shared.breaker_trips.fetch_add(1, Ordering::Relaxed);
            self.pool.trace_external(TraceEvent::BreakerOpen { tenant: self.shared.id });
        }
    }

    /// [`admit`](Self::admit) wrapped in the tenant's [`RetryPolicy`]:
    /// `Overloaded` rejections sleep a jittered exponential backoff and
    /// retry, up to the policy budget. `BreakerOpen` and success return
    /// immediately — retrying into an open breaker would defeat it.
    fn admit_with_retry(&self) -> Result<AdmitGuard, TenantError> {
        let mut err = match self.admit() {
            Ok(slot) => return Ok(slot),
            Err(e) => e,
        };
        let Some(policy) = self.shared.retry else { return Err(err) };
        let salt = (self.shared.id as u64) << 32 | submitter_salt();
        for attempt in 1..=policy.max_retries {
            if err != TenantError::Overloaded {
                break;
            }
            self.shared.retries.fetch_add(1, Ordering::Relaxed);
            self.pool.trace_external(TraceEvent::TenantRetry { tenant: self.shared.id, attempt });
            std::thread::sleep(policy.backoff(attempt, salt));
            match self.admit() {
                Ok(slot) => return Ok(slot),
                Err(e) => err = e,
            }
        }
        Err(err)
    }

    /// A fresh cancellation token for one loop: a deadline token if the
    /// tenant has a deadline (one code path with every other
    /// `cancel_after` user), otherwise a plain never-firing token.
    fn loop_token(&self) -> CancelToken {
        match self.shared.deadline {
            Some(d) => CancelToken::cancel_after(d),
            None => CancelToken::new(),
        }
    }

    /// Run a chunked parallel loop under this tenant's class, weight
    /// window, and deadline. See [`Loop::run`] for the chunk and
    /// cancellation semantics; on `Err` nothing leaks — admission slots
    /// are released and every chunk that started ran exactly once. Body
    /// panics are re-raised.
    pub fn par_for_chunks<F>(
        &self,
        range: Range<usize>,
        sched: Schedule,
        body: F,
    ) -> Result<(), TenantError>
    where
        F: Fn(Range<usize>) + Sync,
    {
        let _slot = self.admit_with_retry()?;
        let cancel = self.loop_token();
        let shared = &self.shared;
        let pool = &self.pool;
        let submitted = Instant::now();
        let cancelled = pool.install_class(shared.class, || {
            // First instruction on the worker: the queueing delay QoS is
            // supposed to bound. The nested loop entry below installs
            // inline (same pool), so this is the only injected hop.
            shared.install_latency.record(submitted.elapsed());
            shared.installed.fetch_add(1, Ordering::Relaxed);
            if let Some(token) = WorkerToken::current() {
                token.trace(TraceEvent::TenantInstalled {
                    tenant: shared.id,
                    class: shared.class.as_u8(),
                });
            }
            let run = Loop { cancel: Some(&cancel), ..Loop::new(sched) }.run(pool, range, &body);
            let cancelled = match run {
                Ok(_) => false,
                Err(LoopError::Cancelled(_)) => true,
                Err(LoopError::Panicked { payload, .. }) => resume_unwind(payload),
            };
            if cancelled {
                // Still on the worker: the deadline event must be traced
                // here (trace sinks index per-worker rings; the submitter
                // thread has none).
                if let Some(token) = WorkerToken::current() {
                    token.trace(TraceEvent::TenantDeadline { tenant: shared.id });
                }
            }
            cancelled
        });
        if cancelled {
            shared.cancelled_by_deadline.fetch_add(1, Ordering::Relaxed);
            return Err(TenantError::DeadlineExceeded);
        }
        Ok(())
    }

    /// Per-index convenience over [`par_for_chunks`](Self::par_for_chunks).
    pub fn par_for<F>(
        &self,
        range: Range<usize>,
        sched: Schedule,
        body: F,
    ) -> Result<(), TenantError>
    where
        F: Fn(usize) + Sync,
    {
        self.par_for_chunks(range, sched, |chunk| {
            for i in chunk {
                body(i);
            }
        })
    }

    /// Fire-and-forget: run `f` on the pool under this tenant's class,
    /// holding one admission slot until the job finishes (the slot rides
    /// inside the job, so a rejected spawn queues nothing and a finished
    /// job frees its slot even if `f` panics).
    pub fn spawn_detached<F>(&self, f: F) -> Result<(), TenantError>
    where
        F: FnOnce() + Send + 'static,
    {
        let slot = self.admit_with_retry()?;
        let shared = Arc::clone(&self.shared);
        let submitted = Instant::now();
        self.pool.spawn_detached_class(shared.class, move || {
            let _slot = slot;
            shared.install_latency.record(submitted.elapsed());
            shared.installed.fetch_add(1, Ordering::Relaxed);
            if let Some(token) = WorkerToken::current() {
                token.trace(TraceEvent::TenantInstalled {
                    tenant: shared.id,
                    class: shared.class.as_u8(),
                });
            }
            f()
        });
        Ok(())
    }

    /// Run an arbitrary closure on the pool under this tenant's class and
    /// admission window (no deadline — the closure has no cooperative
    /// cancellation points).
    pub fn install<R, F>(&self, op: F) -> Result<R, TenantError>
    where
        R: Send,
        F: FnOnce() -> R + Send,
    {
        let _slot = self.admit_with_retry()?;
        let shared = &self.shared;
        let submitted = Instant::now();
        Ok(self.pool.install_class(shared.class, || {
            shared.install_latency.record(submitted.elapsed());
            shared.installed.fetch_add(1, Ordering::Relaxed);
            if let Some(token) = WorkerToken::current() {
                token.trace(TraceEvent::TenantInstalled {
                    tenant: shared.id,
                    class: shared.class.as_u8(),
                });
            }
            op()
        }))
    }
}

impl std::fmt::Debug for Tenant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tenant")
            .field("id", &self.shared.id)
            .field("name", &self.shared.name)
            .field("class", &self.shared.class)
            .field("weight", &self.shared.weight)
            .field("depth_limit", &self.shared.depth_limit)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parloop_runtime::ThreadPoolBuilder;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let p = RetryPolicy::new(3)
            .base_backoff(Duration::from_micros(100))
            .max_backoff(Duration::from_micros(400));
        let first = p.backoff(1, 42);
        assert_eq!(first, p.backoff(1, 42), "same (attempt, salt) must reproduce");
        // attempt 1: raw 100 µs, jitter scales into [50, 100).
        assert!(first >= Duration::from_micros(50) && first < Duration::from_micros(100));
        // attempt 4: 100 µs * 8 = 800 µs, capped at 400, jittered to [200, 400).
        let capped = p.backoff(4, 42);
        assert!(capped >= Duration::from_micros(200) && capped < Duration::from_micros(400));
        assert_ne!(p.backoff(1, 42), p.backoff(1, 43), "salts must decorrelate");
    }

    /// Occupy the tenant's only admission slot until `gate` flips.
    fn hold_slot(tenant: &Tenant, gate: &Arc<AtomicBool>) {
        let g = Arc::clone(gate);
        tenant
            .spawn_detached(move || {
                while !g.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
            })
            .expect("slot holder must admit into an idle tenant");
        // The slot is claimed on this thread, before the job is queued —
        // no need to wait for the worker to pick it up.
    }

    #[test]
    fn retry_recovers_from_transient_overload() {
        let pool = Arc::new(ThreadPoolBuilder::new().num_workers(2).build());
        let tenant = Tenant::builder("retrier")
            .max_in_flight(1)
            .retry_policy(
                RetryPolicy::new(500)
                    .base_backoff(Duration::from_micros(200))
                    .max_backoff(Duration::from_millis(1)),
            )
            .build_on(Arc::clone(&pool));
        let gate = Arc::new(AtomicBool::new(false));
        hold_slot(&tenant, &gate);
        let releaser = {
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(2));
                gate.store(true, Ordering::Release);
            })
        };
        // Blocks in backoff until the holder finishes, then admits.
        tenant.install(|| ()).expect("retry must outlast a 2 ms transient");
        releaser.join().unwrap();
        let stats = tenant.stats();
        assert!(stats.retries >= 1, "the transient must have cost at least one retry");
        assert_eq!(stats.breaker_trips, 0, "no breaker configured");
    }

    #[test]
    fn breaker_opens_half_opens_and_closes() {
        let pool = Arc::new(ThreadPoolBuilder::new().num_workers(2).build());
        let tenant = Tenant::builder("guarded")
            .max_in_flight(1)
            .circuit_breaker(2, Duration::from_millis(5))
            .build_on(Arc::clone(&pool));
        let gate = Arc::new(AtomicBool::new(false));
        hold_slot(&tenant, &gate);

        // Two real rejections reach the threshold and open the breaker.
        assert_eq!(tenant.install(|| ()).unwrap_err(), TenantError::Overloaded);
        assert_eq!(tenant.install(|| ()).unwrap_err(), TenantError::Overloaded);
        assert_eq!(tenant.stats().breaker_trips, 1);

        // Open: fail fast without touching admission accounting.
        let rejected_before = tenant.stats().rejected;
        assert_eq!(tenant.install(|| ()).unwrap_err(), TenantError::BreakerOpen);
        assert_eq!(tenant.stats().rejected, rejected_before, "fail-fast must skip admission");

        // Cooldown over but the slot is still held: the half-open probe
        // fails and re-opens the breaker.
        std::thread::sleep(Duration::from_millis(6));
        assert_eq!(tenant.install(|| ()).unwrap_err(), TenantError::Overloaded);
        assert_eq!(tenant.stats().breaker_trips, 2, "failed probe must re-open");
        assert_eq!(tenant.install(|| ()).unwrap_err(), TenantError::BreakerOpen);

        // Release the slot, sit out the new cooldown, and let a probe win.
        gate.store(true, Ordering::Release);
        std::thread::sleep(Duration::from_millis(6));
        while tenant.stats().in_flight != 0 {
            std::thread::yield_now();
        }
        tenant.install(|| ()).expect("healed tenant must admit the probe");
        assert_eq!(tenant.stats().breaker_trips, 2, "success must not trip");
        tenant.install(|| ()).expect("breaker must be closed again");
    }
}
