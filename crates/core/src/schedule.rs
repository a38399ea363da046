//! The scheduling API: pick a [`Schedule`], describe the loop with a
//! [`Loop`] (schedule, grain policy, optional cancel token) and
//! [`Loop::run`] it. That is the one dispatch; [`par_for`],
//! [`par_for_chunks`] and [`par_for_tracked`] are one-line conveniences
//! over it that re-raise body panics.
//!
//! All schedulers are generic over the chunk body, so a regular chunk
//! body is monomorphized through every scheduler and [`par_for`]'s
//! per-index loop over each chunk compiles to a tight loop with no
//! per-iteration dispatch.

use std::any::Any;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use parloop_runtime::chaos::chaos_spin;
use parloop_runtime::{
    current_worker_index, CancelToken, FaultAction, Site, ThreadPool, TraceEvent, WorkerToken,
};

use crate::adapt::AdaptiveSite;
use crate::affinity::AffinityProbe;
use crate::hybrid::hybrid_for;
use crate::lazy::lazy_for_chunks;
use crate::range::default_grain;
use crate::sharing::{sharing_for, static_sharing_for, SharingPolicy};
use crate::static_part::{static_cyclic_for, static_for};

/// A loop-scheduling policy — one per platform/scheme the paper compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// OpenMP `schedule(static)`: `P` fixed blocks, block `w` on worker `w`.
    Static,
    /// OpenMP `schedule(static, chunk)`: fixed chunks dealt round-robin —
    /// deterministic (affinity-retaining) but interleaved, which spreads
    /// monotonic imbalance.
    StaticCyclic { chunk: usize },
    /// FastFlow static: fixed blocks claimed through a shared counter.
    StaticSharing,
    /// Cilk `cilk_for` ("vanilla"): dynamic partitioning with work
    /// stealing, run on the lazy splitter ([`crate::lazy`]).
    /// `grain = None` uses the Cilk default `min(2048, N/8P)`.
    DynamicStealing { grain: Option<usize> },
    /// OpenMP `schedule(dynamic, chunk)` / FastFlow dynamic: fixed chunks
    /// from a shared cursor.
    WorkSharing { chunk: usize },
    /// OpenMP `schedule(guided, min_chunk)`: decreasing chunks
    /// `max(remaining/P, min_chunk)` from a shared cursor.
    Guided { min_chunk: usize },
    /// The paper's hybrid scheme: static earmarking + XOR claim heuristic +
    /// work stealing. `grain = None` uses the Cilk default for the inner
    /// per-partition loops; `oversub` multiplies the partition count
    /// (`R = next_pow2(P · oversub)` — Theorem 5's general `R`; the
    /// paper's default is 1).
    Hybrid { grain: Option<usize>, oversub: usize },
}

impl Schedule {
    /// The paper's `omp_static` configuration.
    pub fn omp_static() -> Self {
        Schedule::Static
    }

    /// OpenMP `schedule(static, chunk)` (cyclic distribution).
    pub fn omp_static_chunked(chunk: usize) -> Self {
        Schedule::StaticCyclic { chunk }
    }

    /// The paper's `omp_dynamic` configuration with an adjusted chunk
    /// (`min(2048, N/8P)` is applied by the caller; pass it here).
    pub fn omp_dynamic(chunk: usize) -> Self {
        Schedule::WorkSharing { chunk }
    }

    /// The paper's `omp_guided` configuration.
    pub fn omp_guided() -> Self {
        Schedule::Guided { min_chunk: 1 }
    }

    /// FastFlow with static partitioning.
    pub fn ff_static() -> Self {
        Schedule::StaticSharing
    }

    /// FastFlow with dynamic partitioning and an adjusted chunk.
    pub fn ff_dynamic(chunk: usize) -> Self {
        Schedule::WorkSharing { chunk }
    }

    /// The paper's `vanilla` configuration (Cilk Plus work stealing).
    pub fn vanilla() -> Self {
        Schedule::DynamicStealing { grain: None }
    }

    /// The paper's `hybrid` configuration (`R = next_pow2(P)`).
    pub fn hybrid() -> Self {
        Schedule::Hybrid { grain: None, oversub: 1 }
    }

    /// The hybrid scheme with `R = next_pow2(P · factor)` partitions —
    /// finer static pieces for better late-phase balancing at `O(R lg R)`
    /// claim cost (the A3 ablation).
    pub fn hybrid_oversub(factor: usize) -> Self {
        Schedule::Hybrid { grain: None, oversub: factor.max(1) }
    }

    /// This schedule with its granularity knob set to `grain`, overriding
    /// the derived `min(2048, N/8P)` default. `default_grain` only sees
    /// the iteration *count*, never the body's weight — a caller that
    /// knows each iteration is heavy (or trivially light) can pick a
    /// smaller (or larger) chunk here; the adaptive controller
    /// ([`GrainPolicy::Adaptive`]) sets its operating point the same way.
    ///
    /// The grain maps onto each scheme's own knob: the splitter grain for
    /// [`Schedule::DynamicStealing`] / [`Schedule::Hybrid`], the fixed
    /// chunk for [`Schedule::WorkSharing`] / [`Schedule::StaticCyclic`],
    /// and the minimum chunk for [`Schedule::Guided`]. The
    /// block-partitioned schemes ([`Schedule::Static`],
    /// [`Schedule::StaticSharing`]) have no chunk parameter and come back
    /// unchanged. A grain of `0` is clamped to `1`.
    ///
    /// ```
    /// use parloop_core::{par_for_chunks, Schedule};
    /// use parloop_runtime::ThreadPool;
    /// use std::sync::atomic::{AtomicUsize, Ordering};
    ///
    /// let pool = ThreadPool::new(4);
    /// // default_grain(16384, 4) would be 512; ask for 64 instead.
    /// let max_len = AtomicUsize::new(0);
    /// let total = AtomicUsize::new(0);
    /// par_for_chunks(&pool, 0..16384, Schedule::vanilla().with_grain(64), |chunk| {
    ///     max_len.fetch_max(chunk.len(), Ordering::Relaxed);
    ///     total.fetch_add(chunk.len(), Ordering::Relaxed);
    /// });
    /// assert_eq!(total.load(Ordering::Relaxed), 16384);
    /// // The largest chunk the splitter hands out is exactly the grain.
    /// assert_eq!(max_len.load(Ordering::Relaxed), 64);
    /// ```
    pub fn with_grain(self, grain: usize) -> Schedule {
        let grain = grain.max(1);
        match self {
            Schedule::DynamicStealing { .. } => Schedule::DynamicStealing { grain: Some(grain) },
            Schedule::Hybrid { oversub, .. } => Schedule::Hybrid { grain: Some(grain), oversub },
            Schedule::WorkSharing { .. } => Schedule::WorkSharing { chunk: grain },
            Schedule::Guided { .. } => Schedule::Guided { min_chunk: grain },
            Schedule::StaticCyclic { .. } => Schedule::StaticCyclic { chunk: grain },
            keep @ (Schedule::Static | Schedule::StaticSharing) => keep,
        }
    }

    /// Short name used in tables and plots.
    pub fn name(&self) -> &'static str {
        match self {
            Schedule::Static => "omp_static",
            Schedule::StaticCyclic { .. } => "omp_static_c",
            Schedule::StaticSharing => "ff_static",
            Schedule::DynamicStealing { .. } => "vanilla",
            Schedule::WorkSharing { .. } => "omp_dynamic",
            Schedule::Guided { .. } => "omp_guided",
            Schedule::Hybrid { .. } => "hybrid",
        }
    }

    /// The roster of schemes the paper's microbenchmark figures compare,
    /// with the paper's chunk-size adjustment (`min(2048, N/8P)`) applied
    /// to the chunked schemes.
    pub fn roster(n: usize, p: usize) -> Vec<Schedule> {
        let chunk = default_grain(n, p);
        vec![
            Schedule::hybrid(),
            Schedule::omp_static(),
            Schedule::omp_dynamic(chunk),
            Schedule::omp_guided(),
            Schedule::vanilla(),
            Schedule::ff_static(),
        ]
    }
}

impl std::str::FromStr for Schedule {
    type Err = String;

    /// Parse a scheme by its paper name (`hybrid`, `omp_static`,
    /// `omp_dynamic`, `omp_guided`, `vanilla`, `ff_static`,
    /// `omp_static_c`); chunked schemes get sensible defaults
    /// (override with the typed constructors).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "hybrid" => Ok(Schedule::hybrid()),
            "omp_static" | "static" => Ok(Schedule::omp_static()),
            "omp_dynamic" | "dynamic" => Ok(Schedule::omp_dynamic(64)),
            "omp_guided" | "guided" => Ok(Schedule::omp_guided()),
            "vanilla" | "cilk" => Ok(Schedule::vanilla()),
            "ff_static" | "ff" => Ok(Schedule::ff_static()),
            "omp_static_c" | "static_cyclic" => Ok(Schedule::omp_static_chunked(64)),
            other => Err(format!(
                "unknown schedule '{other}' (expected one of: hybrid, omp_static, \
                 omp_dynamic, omp_guided, vanilla, ff_static, omp_static_c)"
            )),
        }
    }
}

/// How a loop's grain is chosen.
#[derive(Debug, Clone, Copy, Default)]
pub enum GrainPolicy<'a> {
    /// The schedule's own grain: an explicit pin if the [`Schedule`]
    /// carries one, else the static Cilk rule ([`default_grain`]).
    #[default]
    Static,
    /// Feedback-driven: the [`AdaptiveSite`] supplies the grain before
    /// the loop and ingests its wall time afterwards (see
    /// [`crate::adapt`]).
    Adaptive(&'a AdaptiveSite),
}

/// Observability counters from one loop execution, filled for every
/// schedule. The non-hybrid schemes run as one partition (`partitions`
/// is 1, no adoptions or claims).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoopReport {
    /// Number of partitions `R` (1 off the hybrid scheme).
    pub partitions: usize,
    /// Workers that joined via the `DoHybridLoop` steal protocol
    /// (excluding the initiator).
    pub adoptions: usize,
    /// Total unsuccessful claims across all participating workers
    /// (Theorem 5 charges `O(R lg R)` work for these).
    pub failed_claims: usize,
    /// Partitions whose body was *skipped*: the loop was already poisoned
    /// by a sibling's panic, or its cancel token had fired (off the hybrid
    /// scheme: 1 if the token skipped any chunk). Skipped partitions still
    /// resolve the completion latch, but their iterations never ran.
    pub skipped_partitions: usize,
}

/// Why [`Loop::run`] did not complete normally. Carries the report either
/// way, so skipped partitions stay observable in failed runs.
pub enum LoopError {
    /// The loop's [`CancelToken`] fired and skipped at least one chunk or
    /// partition body.
    Cancelled(LoopReport),
    /// A loop body (or an injected fault) panicked; `payload` is the first
    /// captured panic.
    Panicked {
        /// Counters up to the loop's resolution.
        report: LoopReport,
        /// The first panic payload recorded by any participant.
        payload: Box<dyn Any + Send>,
    },
}

impl LoopError {
    /// The scheduling counters, whatever the failure mode.
    pub fn report(&self) -> LoopReport {
        match self {
            LoopError::Cancelled(report) => *report,
            LoopError::Panicked { report, .. } => *report,
        }
    }
}

impl std::fmt::Debug for LoopError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoopError::Cancelled(report) => f.debug_tuple("Cancelled").field(report).finish(),
            LoopError::Panicked { report, .. } => {
                f.debug_struct("Panicked").field("report", report).finish_non_exhaustive()
            }
        }
    }
}

impl std::fmt::Display for LoopError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Allocation-free: static strings only. The payload is opaque
        // (`dyn Any`) and the counters live behind `.report()` for callers
        // that want numbers — `?`-chain error messages stay cheap.
        match self {
            LoopError::Cancelled(_) => f.write_str("loop cancelled before completion"),
            LoopError::Panicked { .. } => f.write_str("loop body panicked"),
        }
    }
}

impl std::error::Error for LoopError {}

/// One parallel loop: the scheme, how its grain is chosen, and an
/// optional cancel token. [`Loop::run`] is the only loop dispatch.
///
/// ```
/// use parloop_core::{AdaptiveSite, GrainPolicy, Loop, Schedule};
/// use parloop_runtime::{CancelToken, ThreadPool};
///
/// static SITE: AdaptiveSite = AdaptiveSite::new("readme");
///
/// let pool = ThreadPool::new(2);
/// let cancel = CancelToken::new();
/// let report = Loop {
///     grain: GrainPolicy::Adaptive(&SITE),
///     cancel: Some(&cancel),
///     ..Loop::new(Schedule::hybrid())
/// }
/// .run(&pool, 0..4096, |chunk| {
///     std::hint::black_box(chunk.len());
/// })
/// .unwrap();
/// assert_eq!(report.partitions, 2);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Loop<'a> {
    /// The scheduling scheme.
    pub schedule: Schedule,
    /// How the grain is chosen.
    pub grain: GrainPolicy<'a>,
    /// Cooperative cancellation. Once the token fires, no new chunk body
    /// (hybrid: partition body) starts; bodies that already started are
    /// not rolled back, so exactly-once holds for everything that ran.
    pub cancel: Option<&'a CancelToken>,
}

impl<'a> Loop<'a> {
    /// A loop under `schedule` with the static grain and no cancel token.
    pub fn new(schedule: Schedule) -> Loop<'a> {
        Loop { schedule, grain: GrainPolicy::Static, cancel: None }
    }

    /// Execute `body(chunk)` for each scheduler-chosen chunk of `range` on
    /// `pool`, blocking until the loop completes. Chunks are non-empty,
    /// disjoint, and tile `range`.
    ///
    /// Returns the loop's [`LoopReport`]. A body panic comes back as
    /// [`LoopError::Panicked`] with its payload; [`LoopError::Cancelled`]
    /// means the cancel token skipped at least one chunk (hybrid: one
    /// partition) body — a token that fires after the last body started
    /// still yields `Ok`. Under [`GrainPolicy::Adaptive`] the site's
    /// grain overrides the schedule's, and a measured loop that completes
    /// feeds its wall time back through [`AdaptiveSite::record`].
    ///
    /// A chunk body must not wait for a later chunk of its own loop. The
    /// work-stealing schemes run a loop on its issuing worker, chunk after
    /// chunk, until another worker is idle, so such a body can deadlock —
    /// as it does on a 1-worker pool or off-pool.
    pub fn run<F>(
        self,
        pool: &ThreadPool,
        range: Range<usize>,
        body: F,
    ) -> Result<LoopReport, LoopError>
    where
        F: Fn(Range<usize>) + Sync,
    {
        match self.grain {
            GrainPolicy::Static => dispatch(pool, range, self.schedule, self.cancel, &body),
            GrainPolicy::Adaptive(site) => {
                run_adaptive(pool, range, self.schedule, site, self.cancel, &body)
            }
        }
    }
}

/// Unwrap the result of a loop run without a cancel token, re-raising a
/// captured body panic.
pub(crate) fn rethrow(result: Result<LoopReport, LoopError>) -> LoopReport {
    match result {
        Ok(report) => report,
        Err(LoopError::Panicked { payload, .. }) => resume_unwind(payload),
        Err(LoopError::Cancelled(_)) => unreachable!("no cancel token was supplied"),
    }
}

/// Run one loop with every grain taken from `sched` (the Cilk default
/// where it carries none).
fn dispatch<F>(
    pool: &ThreadPool,
    range: Range<usize>,
    sched: Schedule,
    cancel: Option<&CancelToken>,
    body: &F,
) -> Result<LoopReport, LoopError>
where
    F: Fn(Range<usize>) + Sync,
{
    // The Cilk default grain is derived from the *pool's* worker count
    // (`min(2048, N/8P)`), never the host's CPU count — the docs and the
    // grain-pinning test below rely on exactly this wiring.
    let n = range.len();
    let p = pool.num_workers();
    let grain_or_default = |grain: Option<usize>| grain.unwrap_or_else(|| default_grain(n, p));
    if let Schedule::Hybrid { grain, oversub } = sched {
        let grain = grain_or_default(grain);
        return pool.install(|| {
            let token = WorkerToken::current().expect("install puts us on a worker");
            hybrid_for(token, range, grain, oversub, cancel, body)
        });
    }
    // Every other scheme is one partition, cancelled per chunk: once the
    // token fires, each chunk body still to start is skipped instead.
    let skipped = AtomicBool::new(false);
    let gated = |chunk: Range<usize>| {
        if cancel.is_some_and(CancelToken::is_cancelled) {
            // Relaxed: read below only after the loop joined its workers.
            skipped.store(true, Ordering::Relaxed);
        } else {
            body(chunk);
        }
    };
    let ran = catch_unwind(AssertUnwindSafe(|| match sched {
        Schedule::Static => static_for(pool, range, &gated),
        Schedule::StaticCyclic { chunk } => static_cyclic_for(pool, range, chunk, &gated),
        Schedule::StaticSharing => static_sharing_for(pool, range, &gated),
        Schedule::WorkSharing { chunk } => {
            sharing_for(pool, range, SharingPolicy::Fixed(chunk), &gated)
        }
        Schedule::Guided { min_chunk } => {
            sharing_for(pool, range, SharingPolicy::Guided { min_chunk }, &gated)
        }
        Schedule::DynamicStealing { grain } => {
            let grain = grain_or_default(grain);
            pool.install(|| lazy_for_chunks(range, grain, &gated));
        }
        Schedule::Hybrid { .. } => unreachable!("dispatched above"),
    }));
    let skipped = skipped.load(Ordering::Relaxed);
    let report =
        LoopReport { partitions: 1, skipped_partitions: skipped as usize, ..LoopReport::default() };
    match ran {
        Err(payload) => Err(LoopError::Panicked { report, payload }),
        Ok(()) if skipped => Err(LoopError::Cancelled(report)),
        Ok(()) => Ok(report),
    }
}

/// The adaptive execution path: snapshot the site, run the loop under its
/// grain, feed the wall time back.
///
/// The feedback is gated by the `Site::GrainAdjust` chaos site (an
/// injected `Fail` drops the sample, a `Delay` stalls the recording
/// thread — user iterations are never at risk). Accepted adjustments are
/// counted in `PoolStats::grain_adjustments` and emitted as
/// `TraceEvent::GrainAdjusted` events.
fn run_adaptive<F>(
    pool: &ThreadPool,
    range: Range<usize>,
    sched: Schedule,
    site: &AdaptiveSite,
    cancel: Option<&CancelToken>,
    body: &F,
) -> Result<LoopReport, LoopError>
where
    F: Fn(Range<usize>) + Sync,
{
    let n = range.len();
    if n == 0 {
        return dispatch(pool, range, sched, cancel, body);
    }
    let start = site.begin(n, pool.num_workers());
    let sched = sched.with_grain(start.grain);
    // Timestamps only on measured loops: in the settled steady state 15
    // of 16 loops skip both `Instant::now` calls entirely.
    let t0 = start.measure.then(Instant::now);
    let report = dispatch(pool, range, sched, cancel, body)?;
    let Some(t0) = t0 else { return Ok(report) };
    let wall_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    // Chaos: perturb the *controller*, never the loop. `Fail` drops this
    // sample on the floor (convergence must survive missing
    // observations); `Delay` stalls the recording thread so concurrent
    // loops race their CAS. Panic is already demoted to Fail by the
    // external-decision path.
    match pool.chaos_decide_external(Site::GrainAdjust) {
        FaultAction::Fail | FaultAction::Panic => return Ok(report),
        FaultAction::Delay(spins) => chaos_spin(spins),
        FaultAction::None => {}
    }
    if let Some(grain) = site.record(&start, wall_ns) {
        pool.note_grain_adjustment();
        pool.trace_external(TraceEvent::GrainAdjusted {
            site: site.id(),
            grain: u32::try_from(grain).unwrap_or(u32::MAX),
        });
    }
    Ok(report)
}

/// Execute `body(i)` for each `i` in `range` under `sched` on `pool`,
/// blocking until the loop completes. Panics in `body` are re-thrown.
///
/// ```
/// use parloop_core::{par_for, Schedule};
/// use parloop_runtime::ThreadPool;
/// use std::sync::atomic::{AtomicU64, Ordering};
///
/// let pool = ThreadPool::new(4);
/// let sum = AtomicU64::new(0);
/// par_for(&pool, 0..1000, Schedule::hybrid(), |i| {
///     sum.fetch_add(i as u64, Ordering::Relaxed);
/// });
/// assert_eq!(sum.load(Ordering::Relaxed), 499_500);
/// ```
pub fn par_for<F>(pool: &ThreadPool, range: Range<usize>, sched: Schedule, body: F)
where
    F: Fn(usize) + Sync,
{
    par_for_chunks(pool, range, sched, move |chunk: Range<usize>| {
        for i in chunk {
            body(i);
        }
    });
}

/// Execute `body(chunk)` for each scheduler-chosen chunk of `range` under
/// `sched` on `pool` — [`Loop::run`] with the static grain and no cancel
/// token. Panics in `body` are re-thrown.
///
/// ```
/// use parloop_core::{par_for_chunks, Schedule};
/// use parloop_runtime::ThreadPool;
/// use std::sync::atomic::{AtomicU64, Ordering};
///
/// let pool = ThreadPool::new(4);
/// let sum = AtomicU64::new(0);
/// par_for_chunks(&pool, 0..1000, Schedule::hybrid(), |chunk| {
///     let partial: u64 = chunk.map(|i| i as u64).sum();
///     sum.fetch_add(partial, Ordering::Relaxed);
/// });
/// assert_eq!(sum.load(Ordering::Relaxed), 499_500);
/// ```
pub fn par_for_chunks<F>(pool: &ThreadPool, range: Range<usize>, sched: Schedule, body: F)
where
    F: Fn(Range<usize>) + Sync,
{
    rethrow(Loop::new(sched).run(pool, range, body));
}

/// Like [`par_for`], but records which worker executed each iteration into
/// `probe` (used for the Figure 2 affinity experiments).
///
/// Ownership is recorded per *chunk*: one worker-index lookup and one
/// probe write-range per scheduler chunk, instead of per iteration.
pub fn par_for_tracked<F>(
    pool: &ThreadPool,
    range: Range<usize>,
    sched: Schedule,
    probe: &AffinityProbe,
    body: F,
) where
    F: Fn(usize) + Sync,
{
    par_for_chunks(pool, range, sched, move |chunk: Range<usize>| {
        if let Some(w) = current_worker_index() {
            probe.record_range(chunk.clone(), w);
        }
        for i in chunk {
            body(i);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn all_schedules(n: usize, p: usize) -> Vec<Schedule> {
        Schedule::roster(n, p)
    }

    #[test]
    fn every_schedule_covers_exactly_once() {
        let n = 2000;
        for p in [1usize, 2, 4] {
            let pool = ThreadPool::new(p);
            for sched in all_schedules(n, p) {
                let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                par_for(&pool, 0..n, sched, |i| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                });
                for (i, h) in hits.iter().enumerate() {
                    assert_eq!(
                        h.load(Ordering::Relaxed),
                        1,
                        "{} P={p}: iteration {i}",
                        sched.name()
                    );
                }
            }
        }
    }

    #[test]
    fn schedules_compute_identical_reductions() {
        let n = 1234;
        let pool = ThreadPool::new(3);
        let expect: usize = (0..n).map(|i| i * i).sum();
        for sched in all_schedules(n, 3) {
            let sum = AtomicUsize::new(0);
            par_for(&pool, 0..n, sched, |i| {
                sum.fetch_add(i * i, Ordering::Relaxed);
            });
            assert_eq!(sum.load(Ordering::Relaxed), expect, "{}", sched.name());
        }
    }

    #[test]
    fn tracked_records_owners() {
        let pool = ThreadPool::new(2);
        let probe = AffinityProbe::new(0..100);
        par_for_tracked(&pool, 0..100, Schedule::hybrid(), &probe, |_| {});
        let snap = probe.snapshot();
        assert!(snap.iter().all(|&w| w != crate::affinity::UNRECORDED));
        assert!(snap.iter().all(|&w| (w as usize) < 2));
    }

    #[test]
    fn static_tracked_matches_static_owner() {
        let pool = ThreadPool::new(4);
        let n = 64;
        let probe = AffinityProbe::new(0..n);
        par_for_tracked(&pool, 0..n, Schedule::Static, &probe, |_| {});
        for i in 0..n {
            assert_eq!(probe.owner(i), Some(crate::static_part::static_owner(n, 4, i)));
        }
    }

    #[test]
    fn hybrid_stats_reported() {
        let pool = ThreadPool::new(4);
        let s = Loop::new(Schedule::hybrid()).run(&pool, 0..1000, |_| {}).unwrap();
        assert_eq!(s.partitions, 4);
        assert!(s.adoptions <= 4);
    }

    #[test]
    fn parse_round_trips_names() {
        for sched in Schedule::roster(1000, 4) {
            let parsed: Schedule = sched.name().parse().unwrap();
            assert_eq!(parsed.name(), sched.name());
        }
        assert!("nonsense".parse::<Schedule>().is_err());
        assert_eq!("static_cyclic".parse::<Schedule>().unwrap().name(), "omp_static_c");
    }

    #[test]
    fn cyclic_static_covers_and_is_deterministic() {
        let pool = ThreadPool::new(4);
        let n = 500;
        let sched = Schedule::omp_static_chunked(16);
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        par_for(&pool, 0..n, sched, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn try_apis_complete_when_token_never_fires() {
        let n = 500;
        let pool = ThreadPool::new(3);
        for sched in all_schedules(n, 3) {
            let cancel = CancelToken::new();
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            Loop { cancel: Some(&cancel), ..Loop::new(sched) }
                .run(&pool, 0..n, |chunk| {
                    for i in chunk {
                        hits[i].fetch_add(1, Ordering::Relaxed);
                    }
                })
                .unwrap_or_else(|_| panic!("{}: spuriously cancelled", sched.name()));
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "{}: not exactly-once",
                sched.name()
            );
        }
        let cancel = CancelToken::new();
        let stats = Loop { cancel: Some(&cancel), ..Loop::new(Schedule::hybrid()) }
            .run(&pool, 0..n, |_| {})
            .unwrap();
        assert_eq!(stats.partitions, 4);
        assert_eq!(stats.skipped_partitions, 0);
    }

    #[test]
    fn try_apis_reject_a_pre_fired_token() {
        let pool = ThreadPool::new(2);
        let cancel = CancelToken::new();
        cancel.cancel();
        let ran = AtomicUsize::new(0);
        for sched in all_schedules(100, 2) {
            let r = Loop { cancel: Some(&cancel), ..Loop::new(sched) }.run(&pool, 0..100, |_| {
                ran.fetch_add(1, Ordering::Relaxed);
            });
            assert!(r.is_err(), "{}: must observe the fired token", sched.name());
        }
        assert_eq!(ran.load(Ordering::Relaxed), 0, "no body may run after cancellation");

        let err = Loop { cancel: Some(&cancel), ..Loop::new(Schedule::hybrid()) }
            .run(&pool, 0..100, |_| {
                ran.fetch_add(1, Ordering::Relaxed);
            })
            .expect_err("pre-fired token must cancel the hybrid loop");
        match err {
            LoopError::Cancelled(stats) => {
                assert_eq!(stats.skipped_partitions, stats.partitions);
            }
            other => panic!("expected Cancelled, got {other:?}"),
        }
        assert_eq!(ran.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn token_fired_in_the_final_chunk_is_not_a_cancellation() {
        // One worker runs every schedule's chunks in order, so the chunk
        // ending at the last iteration is the final body to start. Firing
        // the token at its end skips nothing: every schedule must return
        // `Ok`, with all 100 iterations run exactly once.
        let pool = ThreadPool::new(1);
        for sched in all_schedules(100, 1) {
            let cancel = CancelToken::new();
            let hits: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
            let r =
                Loop { cancel: Some(&cancel), ..Loop::new(sched) }.run(&pool, 0..100, |chunk| {
                    let last = chunk.end == 100;
                    for i in chunk {
                        hits[i].fetch_add(1, Ordering::Relaxed);
                    }
                    if last {
                        cancel.cancel();
                    }
                });
            assert!(r.is_ok(), "{}: nothing was skipped, got {r:?}", sched.name());
            assert!(cancel.is_cancelled());
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1), "{}", sched.name());
        }
    }

    #[test]
    fn default_grain_uses_pool_worker_count() {
        // `DynamicStealing { grain: None }` must derive the Cilk default
        // grain from the *pool's* worker count, not the host CPU count:
        // for N = 16384 on a 4-worker pool, min(2048, N/8P) = 512. Pin the
        // formula and then observe the wired value — the largest chunk the
        // splitter hands out is exactly one full grain.
        let (n, p) = (16384usize, 4usize);
        assert_eq!(default_grain(n, p), 512);

        let pool = ThreadPool::new(p);
        let max_len = std::sync::atomic::AtomicUsize::new(0);
        let total = AtomicUsize::new(0);
        par_for_chunks(&pool, 0..n, Schedule::DynamicStealing { grain: None }, |chunk| {
            max_len.fetch_max(chunk.len(), Ordering::Relaxed);
            total.fetch_add(chunk.len(), Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), n);
        assert_eq!(
            max_len.load(Ordering::Relaxed),
            512,
            "observed grain disagrees with default_grain(n, pool.num_workers())"
        );
    }

    #[test]
    fn grain_hint_overrides_every_chunked_scheme() {
        let (n, p) = (4096usize, 2usize);
        let pool = ThreadPool::new(p);
        for sched in [
            Schedule::vanilla(),
            Schedule::hybrid(),
            Schedule::omp_dynamic(999),
            Schedule::omp_static_chunked(999),
        ] {
            let max_len = AtomicUsize::new(0);
            let total = AtomicUsize::new(0);
            par_for_chunks(&pool, 0..n, sched.with_grain(32), |chunk| {
                max_len.fetch_max(chunk.len(), Ordering::Relaxed);
                total.fetch_add(chunk.len(), Ordering::Relaxed);
            });
            assert_eq!(total.load(Ordering::Relaxed), n, "{}", sched.name());
            assert!(
                max_len.load(Ordering::Relaxed) <= 32,
                "{}: chunk exceeded the 32-iteration hint",
                sched.name()
            );
        }
        // Zero clamps to 1 rather than panicking or hanging.
        let total = AtomicUsize::new(0);
        par_for_chunks(&pool, 0..17, Schedule::vanilla().with_grain(0), |chunk| {
            total.fetch_add(chunk.len(), Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 17);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Schedule::hybrid().name(), "hybrid");
        assert_eq!(Schedule::vanilla().name(), "vanilla");
        assert_eq!(Schedule::omp_static().name(), "omp_static");
        assert_eq!(Schedule::omp_dynamic(8).name(), "omp_dynamic");
        assert_eq!(Schedule::omp_guided().name(), "omp_guided");
        assert_eq!(Schedule::ff_static().name(), "ff_static");
    }
}
