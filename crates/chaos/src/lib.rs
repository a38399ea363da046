//! `parloop-chaos` — deterministic fault injection for the hybrid runtime.
//!
//! The paper's guarantees (Theorem 3 exactly-once execution, Lemma 4's
//! `max(lg R, 1)` failed-claim bound) are claims over *all* interleavings,
//! but ordinary tests only see the schedules the OS happens to produce.
//! This crate lets the runtime deterministically provoke adversarial
//! schedules instead:
//!
//! * [`Site`] — the taxonomy of injection points threaded through the
//!   runtime and the hybrid loop layer (steal sweeps, victim selection,
//!   parking, the claim `fetch_or`, adopter-frame publication, partition
//!   bodies, the worker main loop, external injection-lane posts and
//!   grain adjustments);
//! * [`FaultAction`] — what a site is told to do: nothing, fail the
//!   operation, stall for a bounded spin, or panic;
//! * [`FaultInjector`] — the trait the registry owns, mirroring
//!   `parloop-trace`'s `TraceSink`: [`enabled`](FaultInjector::enabled) is
//!   constant per injector and cached by the pool, so every injection site
//!   costs exactly one untaken branch when chaos is off;
//! * [`NoopInjector`] — the default disabled injector;
//! * [`PlannedInjector`] — a seeded injector whose every decision is a
//!   pure function of `(seed, site, query-counter)`: the same seed always
//!   yields the same per-site injection sequence, so a failing chaos run
//!   reproduces from its `u64` seed alone.
//!
//! The crate is a dependency leaf (std only); `parloop-runtime` owns the
//! injector and `parloop-core` reaches it through the worker token.

use std::sync::atomic::{AtomicU64, Ordering};

/// An injection point in the runtime or hybrid-loop layer.
///
/// Runtime sites (`MainLoop`, `StealSweep`, `StealVictim`, `Park`) are
/// consulted by worker-thread plumbing; loop sites (`Claim`,
/// `FramePublish`, `PartitionBody`, `AssistClaim`) by the hybrid and
/// lazy-splitting schedulers; `InjectLane` and `GrainAdjust` on threads
/// that may be external submitters, where an injected panic demotes to
/// `Fail`. Injected
/// panics at loop sites surface through the loop's panic protocol; panics
/// at runtime sites are raised only from the worker main loop (where the
/// degraded-worker catch contains them), never from inside `wait_until`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Site {
    /// Top of the worker main loop, before looking for work.
    MainLoop,
    /// Entry of a full steal sweep (`Fail` forces an empty sweep).
    StealSweep,
    /// Per-victim probe inside a sweep (`Fail` skips the victim — a forced
    /// re-roll).
    StealVictim,
    /// Entry of `park` (`Fail` skips the park, `Delay` stalls before it).
    Park,
    /// A `ClaimWalker` about to issue its `fetch_or` (`Fail` makes the
    /// walker lose the race without claiming).
    Claim,
    /// A hybrid adopter-frame publication (`Fail` drops the publish).
    FramePublish,
    /// A claimed partition about to run its body.
    PartitionBody,
    /// An external submission entering the sharded injection lanes.
    /// Consulted on the *submitter's* thread (no worker id — the runtime
    /// passes a sentinel). `Fail` drops the post-publish wake (the job
    /// lands in its lane but no worker is notified, so only the sleep
    /// backstop restores liveness); `Delay` forces lane contention by
    /// stalling the submitter and redirecting it to lane 0. `Panic` is
    /// demoted to `Fail` — unwinding into a submitter thread would take
    /// user code down, which is not a runtime fault.
    InjectLane,
    /// A lazy-loop participant about to CAS a chunk off the shared packed
    /// cursor (`Fail` forces the CAS loss path — the participant re-reads
    /// and retries, exactly as if another assistant had won the race;
    /// consecutive forced losses are bounded by the loop layer so rate-1
    /// plans still make progress).
    AssistClaim,
    /// The adaptive grain controller about to ingest one loop's wall time
    /// (`parloop-core`'s `adapt` layer). Consulted through the pool's
    /// external-decision path (the recording thread may be a non-worker
    /// submitter), so like [`Site::InjectLane`] a `Panic` is demoted to
    /// `Fail` — a perturbed controller must never take user loops down.
    /// `Fail` drops the feedback sample on the floor (the controller
    /// misses one observation and must still converge); `Delay` stalls
    /// the recording thread so concurrent loops race their controller
    /// updates.
    GrainAdjust,
}

impl Site {
    /// Every site, in code order.
    pub const ALL: [Site; 10] = [
        Site::MainLoop,
        Site::StealSweep,
        Site::StealVictim,
        Site::Park,
        Site::Claim,
        Site::FramePublish,
        Site::PartitionBody,
        Site::InjectLane,
        Site::AssistClaim,
        Site::GrainAdjust,
    ];

    /// Dense index into per-site tables.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable wire code (used by the trace layer's `FaultInjected` event).
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Inverse of [`code`](Self::code).
    pub fn from_code(code: u8) -> Option<Site> {
        Site::ALL.get(code as usize).copied()
    }

    /// Short stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Site::MainLoop => "main_loop",
            Site::StealSweep => "steal_sweep",
            Site::StealVictim => "steal_victim",
            Site::Park => "park",
            Site::Claim => "claim",
            Site::FramePublish => "frame_publish",
            Site::PartitionBody => "partition_body",
            Site::InjectLane => "inject_lane",
            Site::AssistClaim => "assist_claim",
            Site::GrainAdjust => "grain_adjust",
        }
    }

    /// Whether the site belongs to the hybrid-loop layer (injected panics
    /// there are caught by the loop's panic protocol).
    pub fn is_loop_site(self) -> bool {
        matches!(self, Site::Claim | Site::FramePublish | Site::PartitionBody | Site::AssistClaim)
    }
}

impl std::fmt::Display for Site {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What an injection site is instructed to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Proceed normally (the overwhelmingly common answer).
    None,
    /// Fail the operation: lose the claim race, drop the publish, skip the
    /// victim, report an empty sweep, skip the park.
    Fail,
    /// Stall the worker for this many bounded spins before proceeding.
    Delay(u32),
    /// Raise a panic at the site.
    Panic,
}

impl FaultAction {
    /// Stable wire code (used by the trace layer's `FaultInjected` event).
    pub fn code(self) -> u8 {
        match self {
            FaultAction::None => 0,
            FaultAction::Fail => 1,
            FaultAction::Delay(_) => 2,
            FaultAction::Panic => 3,
        }
    }

    /// Whether this action perturbs the site at all.
    pub fn is_fault(self) -> bool {
        !matches!(self, FaultAction::None)
    }
}

/// Execute a [`FaultAction::Delay`]: a bounded busy spin with a yield, so
/// delays perturb interleavings without wedging a one-core host.
pub fn chaos_spin(spins: u32) {
    for i in 0..spins {
        if i % 64 == 63 {
            std::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Message prefix of every injected panic, so tests (and humans reading a
/// backtrace) can tell injected failures from organic ones.
pub const INJECTED_PANIC_MSG: &str = "parloop-chaos: injected panic";

/// Decides, per worker and site, whether to inject a fault.
///
/// Mirrors `parloop-trace`'s sink contract: the registry caches
/// [`enabled`](FaultInjector::enabled) at pool construction, and every
/// instrumented site branches on that cached flag before calling
/// [`decide`](FaultInjector::decide) — with the default [`NoopInjector`]
/// the branch is the entire cost.
pub trait FaultInjector: Send + Sync {
    /// Whether this injector ever injects. Must be constant per injector.
    fn enabled(&self) -> bool;

    /// Decide what `worker` should do at `site`. Called once per site
    /// visit; implementations may count calls.
    fn decide(&self, worker: usize, site: Site) -> FaultAction;
}

/// The default injector: disabled, never consulted on hot paths.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopInjector;

impl FaultInjector for NoopInjector {
    fn enabled(&self) -> bool {
        false
    }

    fn decide(&self, _worker: usize, _site: Site) -> FaultAction {
        FaultAction::None
    }
}

const N_SITES: usize = Site::ALL.len();

/// Rates are numerators over this denominator (per-site probability of
/// injecting at each visit).
pub const RATE_DENOM: u32 = 65_536;

#[repr(align(128))]
#[derive(Default)]
struct PaddedCounter(AtomicU64);

/// `splitmix64` — the standard 64-bit finalizer; also what the runtime's
/// RNG seeds itself with. Deterministic and stateless.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A deterministic, seeded fault plan.
///
/// Every decision is a pure function of `(seed, site, k)` where `k` is the
/// site's global query counter — the worker id deliberately does *not*
/// enter the hash, so the k-th visit to a site receives the same verdict
/// no matter which worker drew it. Two injectors built from the same seed
/// therefore produce identical per-site injection sequences
/// ([`preview`](Self::preview) exposes the pure function for tests).
///
/// [`from_seed`](Self::from_seed) derives moderate per-site rates from the
/// seed itself; [`quiet`](Self::quiet) starts with all rates zero for
/// hand-built plans. [`with_panic_at`](Self::with_panic_at) arms a
/// one-shot panic at the `nth` visit of a site.
pub struct PlannedInjector {
    seed: u64,
    rates: [u32; N_SITES],
    delay_spins: u32,
    /// One-shot panics: `(site, nth query)`.
    panic_plan: Vec<(Site, u64)>,
    queries: [PaddedCounter; N_SITES],
    injected: [PaddedCounter; N_SITES],
}

impl PlannedInjector {
    /// A plan with seed-derived moderate rates at every non-panic site:
    /// enough chaos to provoke adversarial interleavings, bounded enough
    /// that loops still finish quickly.
    pub fn from_seed(seed: u64) -> PlannedInjector {
        let mut inj = PlannedInjector::quiet(seed);
        for site in Site::ALL {
            // Base ceilings per site, in RATE_DENOM units.
            let ceil: u32 = match site {
                Site::MainLoop => RATE_DENOM / 64,
                Site::StealSweep => RATE_DENOM / 8,
                Site::StealVictim => RATE_DENOM / 4,
                Site::Park => RATE_DENOM / 4,
                Site::Claim => RATE_DENOM / 2,
                Site::FramePublish => RATE_DENOM / 2,
                Site::PartitionBody => RATE_DENOM / 32,
                Site::InjectLane => RATE_DENOM / 16,
                Site::AssistClaim => RATE_DENOM / 2,
                Site::GrainAdjust => RATE_DENOM / 16,
            };
            // Seed-dependent rate in [ceil/2, ceil).
            let h = splitmix64(seed ^ (site.index() as u64).wrapping_mul(0xA076_1D64_78BD_642F));
            inj.rates[site.index()] = ceil / 2 + (h as u32) % (ceil / 2).max(1);
        }
        inj
    }

    /// A plan that injects nothing until configured via the builders.
    pub fn quiet(seed: u64) -> PlannedInjector {
        PlannedInjector {
            seed,
            rates: [0; N_SITES],
            delay_spins: 200,
            panic_plan: Vec::new(),
            queries: Default::default(),
            injected: Default::default(),
        }
    }

    /// Set one site's injection rate (numerator over [`RATE_DENOM`]).
    pub fn with_rate(mut self, site: Site, rate: u32) -> Self {
        self.rates[site.index()] = rate.min(RATE_DENOM);
        self
    }

    /// Set the spin count used by injected delays.
    pub fn with_delay_spins(mut self, spins: u32) -> Self {
        self.delay_spins = spins;
        self
    }

    /// Arm a one-shot panic at the `nth` visit (0-based) of `site`.
    pub fn with_panic_at(mut self, site: Site, nth: u64) -> Self {
        self.panic_plan.push((site, nth));
        self
    }

    /// The seed this plan was built from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The pure decision function: what the `k`-th visit of `site` is told
    /// to do, independent of live counters. [`decide`](FaultInjector::decide)
    /// is exactly `preview(site, k)` for the `k`-th call at that site.
    pub fn preview(&self, site: Site, k: u64) -> FaultAction {
        if self.panic_plan.iter().any(|&(s, n)| s == site && n == k) {
            return FaultAction::Panic;
        }
        let s = site.index();
        if self.rates[s] == 0 {
            return FaultAction::None;
        }
        let h = splitmix64(
            self.seed
                ^ (s as u64).wrapping_mul(0xA076_1D64_78BD_642F)
                ^ k.wrapping_mul(0xE703_7ED1_A0B4_28DB),
        );
        if (h as u32) % RATE_DENOM >= self.rates[s] {
            return FaultAction::None;
        }
        // Which fault: sites where "fail" has no meaning always delay;
        // others mix failures with occasional delays.
        match site {
            Site::MainLoop | Site::PartitionBody => FaultAction::Delay(self.delay_spins),
            _ => {
                if (h >> 32) & 7 == 0 {
                    FaultAction::Delay(self.delay_spins)
                } else {
                    FaultAction::Fail
                }
            }
        }
    }

    /// How many faults were injected at each site so far.
    pub fn injection_counts(&self) -> Vec<(Site, u64)> {
        Site::ALL.iter().map(|&s| (s, self.injected[s.index()].0.load(Ordering::Relaxed))).collect()
    }

    /// Total faults injected across all sites.
    pub fn injected_total(&self) -> u64 {
        self.injected.iter().map(|c| c.0.load(Ordering::Relaxed)).sum()
    }

    /// Total decide calls across all sites.
    pub fn queries_total(&self) -> u64 {
        self.queries.iter().map(|c| c.0.load(Ordering::Relaxed)).sum()
    }

    /// Decide calls at one specific site so far. Lets tests assert that a
    /// site was *never consulted* (e.g. `Site::AssistClaim` on a
    /// 1-worker pool), which `queries_total` cannot distinguish.
    pub fn queries_at(&self, site: Site) -> u64 {
        self.queries[site.index()].0.load(Ordering::Relaxed)
    }
}

impl FaultInjector for PlannedInjector {
    fn enabled(&self) -> bool {
        true
    }

    fn decide(&self, _worker: usize, site: Site) -> FaultAction {
        let k = self.queries[site.index()].0.fetch_add(1, Ordering::Relaxed);
        let action = self.preview(site, k);
        if action.is_fault() {
            self.injected[site.index()].0.fetch_add(1, Ordering::Relaxed);
        }
        action
    }
}

impl std::fmt::Debug for PlannedInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlannedInjector")
            .field("seed", &self.seed)
            .field("rates", &self.rates)
            .field("delay_spins", &self.delay_spins)
            .field("panic_plan", &self.panic_plan)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_codes_round_trip() {
        for site in Site::ALL {
            assert_eq!(Site::from_code(site.code()), Some(site), "{site}");
            assert_eq!(Site::ALL[site.index()], site);
        }
        assert_eq!(Site::from_code(200), None);
    }

    #[test]
    fn noop_injector_is_disabled_and_inert() {
        let inj = NoopInjector;
        assert!(!inj.enabled());
        assert_eq!(inj.decide(0, Site::Claim), FaultAction::None);
    }

    #[test]
    fn same_seed_same_sequence() {
        let a = PlannedInjector::from_seed(42);
        let b = PlannedInjector::from_seed(42);
        for site in Site::ALL {
            for k in 0..512 {
                // Live decisions match each other and the pure preview,
                // regardless of the querying worker.
                let da = a.decide(k as usize % 7, site);
                let db = b.decide(0, site);
                assert_eq!(da, db, "seed 42, {site}, k={k}");
                assert_eq!(da, a.preview(site, k), "preview mismatch at {site}, k={k}");
            }
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let a = PlannedInjector::from_seed(1);
        let b = PlannedInjector::from_seed(2);
        let diverged =
            Site::ALL.iter().any(|&s| (0..256).any(|k| a.preview(s, k) != b.preview(s, k)));
        assert!(diverged, "seeds 1 and 2 produced identical plans");
    }

    #[test]
    fn from_seed_rates_are_moderate_and_active() {
        for seed in 0..32 {
            let inj = PlannedInjector::from_seed(seed);
            // Every site must inject *something* in a long window...
            for site in Site::ALL {
                let injected = (0..4096).filter(|&k| inj.preview(site, k).is_fault()).count();
                assert!(injected > 0, "seed {seed}: {site} never injects");
                // ...but never majority-inject (loops must still finish).
                assert!(injected < 4096 * 3 / 4, "seed {seed}: {site} injects too much");
            }
        }
    }

    #[test]
    fn panic_plan_is_one_shot_and_exact() {
        let inj = PlannedInjector::quiet(7).with_panic_at(Site::Claim, 3);
        for k in 0..8u64 {
            let a = inj.decide(0, Site::Claim);
            if k == 3 {
                assert_eq!(a, FaultAction::Panic);
            } else {
                assert_eq!(a, FaultAction::None, "k={k}");
            }
        }
        assert_eq!(inj.injected_total(), 1);
        assert_eq!(inj.queries_total(), 8);
    }

    #[test]
    fn counters_attribute_to_sites() {
        let inj = PlannedInjector::quiet(0).with_rate(Site::Park, RATE_DENOM);
        for _ in 0..10 {
            assert!(inj.decide(0, Site::Park).is_fault());
            assert!(!inj.decide(0, Site::Claim).is_fault());
        }
        let counts = inj.injection_counts();
        assert_eq!(counts[Site::Park.index()], (Site::Park, 10));
        assert_eq!(counts[Site::Claim.index()], (Site::Claim, 0));
    }

    #[test]
    fn quiet_plan_injects_nothing() {
        let inj = PlannedInjector::quiet(99);
        for site in Site::ALL {
            for _ in 0..64 {
                assert_eq!(inj.decide(0, site), FaultAction::None);
            }
        }
        assert_eq!(inj.injected_total(), 0);
    }

    #[test]
    fn chaos_spin_terminates() {
        chaos_spin(0);
        chaos_spin(1_000);
    }
}
