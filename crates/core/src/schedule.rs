//! The scheduling API: pick a [`Schedule`], describe the loop with a
//! [`Loop`] (schedule and grain policy) and [`Loop::run`] it. That is the
//! one dispatch; [`par_for`], [`par_for_chunks`] and [`par_for_tracked`]
//! are one-line conveniences over it that re-raise body panics.
//!
//! All schedulers are generic over the chunk body, so a regular chunk
//! body is monomorphized through every scheduler and [`par_for`]'s
//! per-index loop over each chunk compiles to a tight loop with no
//! per-iteration dispatch.

use std::any::Any;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::time::Instant;

use parloop_runtime::chaos::chaos_spin;
use parloop_runtime::{
    current_worker_index, FaultAction, Site, ThreadPool, TraceEvent, WorkerToken,
};

use crate::adapt::AdaptiveSite;
use crate::affinity::AffinityProbe;
use crate::hybrid::hybrid_for;
use crate::lazy::lazy_for_chunks;
use crate::range::default_grain;
use crate::sharing::{sharing_for, static_sharing_for, SharingPolicy};
use crate::static_part::static_for;

/// A loop-scheduling policy — one per platform/scheme the paper compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// OpenMP `schedule(static)`: `P` fixed blocks, block `w` on worker `w`.
    Static,
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
    /// chunk for [`Schedule::WorkSharing`], and the minimum chunk for
    /// [`Schedule::Guided`]. The block-partitioned schemes
    /// ([`Schedule::Static`], [`Schedule::StaticSharing`]) have no chunk
    /// parameter and come back unchanged. A grain of `0` is clamped to `1`.
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
            keep @ (Schedule::Static | Schedule::StaticSharing) => keep,
        }
    }

    /// Short name used in tables and plots.
    pub fn name(&self) -> &'static str {
        match self {
            Schedule::Static => "omp_static",
            Schedule::StaticSharing => "ff_static",
            Schedule::DynamicStealing { .. } => "vanilla",
            Schedule::WorkSharing { .. } => "omp_dynamic",
            Schedule::Guided { .. } => "omp_guided",
            Schedule::Hybrid { .. } => "hybrid",
        }
    }

    /// The roster of schemes the paper's microbenchmark figures compare —
    /// one per [`Schedule`] variant — with the paper's chunk-size
    /// adjustment (`min(2048, N/8P)`) applied to the chunked schemes.
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
    /// `omp_dynamic`, `omp_guided`, `vanilla`, `ff_static`); chunked
    /// schemes get sensible defaults (override with the typed
    /// constructors).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "hybrid" => Ok(Schedule::hybrid()),
            "omp_static" | "static" => Ok(Schedule::omp_static()),
            "omp_dynamic" | "dynamic" => Ok(Schedule::omp_dynamic(64)),
            "omp_guided" | "guided" => Ok(Schedule::omp_guided()),
            "vanilla" | "cilk" => Ok(Schedule::vanilla()),
            "ff_static" | "ff" => Ok(Schedule::ff_static()),
            other => Err(format!(
                "unknown schedule '{other}' (expected one of: hybrid, omp_static, \
                 omp_dynamic, omp_guided, vanilla, ff_static)"
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
    /// Hybrid partitions whose body was *skipped* because the loop was
    /// already poisoned by a sibling's panic (0 off the hybrid scheme).
    /// Skipped partitions still resolve the completion latch, but their
    /// iterations never ran.
    pub skipped_partitions: usize,
}

/// Why [`Loop::run`] did not complete normally. Carries the report, so
/// skipped partitions stay observable in failed runs.
pub enum LoopError {
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
    /// The scheduling counters up to the loop's resolution.
    pub fn report(&self) -> LoopReport {
        match self {
            LoopError::Panicked { report, .. } => *report,
        }
    }
}

impl std::fmt::Debug for LoopError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
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
            LoopError::Panicked { .. } => f.write_str("loop body panicked"),
        }
    }
}

impl std::error::Error for LoopError {}

/// One parallel loop: the scheme and how its grain is chosen.
/// [`Loop::run`] is the only loop dispatch.
///
/// ```
/// use parloop_core::{AdaptiveSite, GrainPolicy, Loop, Schedule};
/// use parloop_runtime::ThreadPool;
///
/// static SITE: AdaptiveSite = AdaptiveSite::new("readme");
///
/// let pool = ThreadPool::new(2);
/// let report = Loop { grain: GrainPolicy::Adaptive(&SITE), ..Loop::new(Schedule::hybrid()) }
///     .run(&pool, 0..4096, |chunk| {
///         std::hint::black_box(chunk.len());
///     })
///     .unwrap();
/// assert_eq!(report.partitions, 2);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Loop<'a> {
    /// The scheduling scheme.
    pub schedule: Schedule,
    /// How the grain is chosen.
    pub grain: GrainPolicy<'a>,
}

impl<'a> Loop<'a> {
    /// A loop under `schedule` with the static grain.
    pub fn new(schedule: Schedule) -> Loop<'a> {
        Loop { schedule, grain: GrainPolicy::Static }
    }

    /// Execute `body(chunk)` for each scheduler-chosen chunk of `range` on
    /// `pool`, blocking until the loop completes. Chunks are non-empty,
    /// disjoint, and tile `range`.
    ///
    /// Returns the loop's [`LoopReport`]. A body panic comes back as
    /// [`LoopError::Panicked`] with its payload. Under
    /// [`GrainPolicy::Adaptive`] the site's grain overrides the schedule's,
    /// and a measured loop that completes feeds its wall time back through
    /// [`AdaptiveSite::record`].
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
            GrainPolicy::Static => dispatch(pool, range, self.schedule, &body),
            GrainPolicy::Adaptive(site) => run_adaptive(pool, range, self.schedule, site, &body),
        }
    }
}

/// Unwrap the result of a loop run, re-raising a captured body panic.
pub(crate) fn rethrow(result: Result<LoopReport, LoopError>) -> LoopReport {
    match result {
        Ok(report) => report,
        Err(LoopError::Panicked { payload, .. }) => resume_unwind(payload),
    }
}

/// Run one loop with every grain taken from `sched` (the Cilk default
/// where it carries none).
fn dispatch<F>(
    pool: &ThreadPool,
    range: Range<usize>,
    sched: Schedule,
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
            hybrid_for(token, range, grain, oversub, body)
        });
    }
    // Every other scheme is one partition.
    let ran = catch_unwind(AssertUnwindSafe(|| match sched {
        Schedule::Static => static_for(pool, range, body),
        Schedule::StaticSharing => static_sharing_for(pool, range, body),
        Schedule::WorkSharing { chunk } => {
            sharing_for(pool, range, SharingPolicy::Fixed(chunk), body)
        }
        Schedule::Guided { min_chunk } => {
            sharing_for(pool, range, SharingPolicy::Guided { min_chunk }, body)
        }
        Schedule::DynamicStealing { grain } => {
            let grain = grain_or_default(grain);
            pool.install(|| lazy_for_chunks(range, grain, body));
        }
        Schedule::Hybrid { .. } => unreachable!("dispatched above"),
    }));
    let report = LoopReport { partitions: 1, ..LoopReport::default() };
    match ran {
        Err(payload) => Err(LoopError::Panicked { report, payload }),
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
    body: &F,
) -> Result<LoopReport, LoopError>
where
    F: Fn(Range<usize>) + Sync,
{
    let n = range.len();
    if n == 0 {
        return dispatch(pool, range, sched, body);
    }
    let start = site.begin(n, pool.num_workers());
    let sched = sched.with_grain(start.grain);
    // Timestamps only on measured loops: in the settled steady state 15
    // of 16 loops skip both `Instant::now` calls entirely.
    let t0 = start.measure.then(Instant::now);
    let report = dispatch(pool, range, sched, body)?;
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
/// `sched` on `pool` — [`Loop::run`] with the static grain. Panics in
/// `body` are re-thrown.
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
    use std::sync::atomic::{AtomicUsize, Ordering};

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
    }

    #[test]
    fn roster_holds_every_variant_exactly_once() {
        // No wildcard arm: a new variant fails to compile here until it
        // gets an arm, and fails this test until the roster runs it —
        // so the roster-driven tests cannot skip it.
        let mut hits = [0usize; 6];
        for sched in Schedule::roster(1000, 4) {
            let arm = match sched {
                Schedule::Static => 0,
                Schedule::StaticSharing => 1,
                Schedule::DynamicStealing { .. } => 2,
                Schedule::WorkSharing { .. } => 3,
                Schedule::Guided { .. } => 4,
                Schedule::Hybrid { .. } => 5,
            };
            hits[arm] += 1;
        }
        assert_eq!(hits, [1; 6], "roster arms hit: {hits:?}");
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
        for sched in [Schedule::vanilla(), Schedule::hybrid(), Schedule::omp_dynamic(999)] {
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
