//! Online adaptive granularity: a per-call-site feedback controller for
//! the grain the paper pins statically (closing the `split/*` 5–24x
//! ns/iter swing without hand tuning).
//!
//! # Model
//!
//! Each parallel-loop *call site* owns one [`AdaptiveSite`] — a single
//! atomic word of controller state plus two monotone counters. Before a
//! loop runs, [`AdaptiveSite::begin`] snapshots the word and derives the
//! grain to use; after the loop, [`AdaptiveSite::record`] ingests that
//! loop's one signal — its wall time — and folds it into the word with
//! one `compare_exchange`. A lost CAS means a concurrent loop on the same
//! site already consumed its sample — the sample is dropped, never
//! merged, so the state sequence is a pure function of the *accepted*
//! sample sequence and single-threaded replays are bit-for-bit
//! deterministic (the property `tests/adapt_layer.rs` pins and the
//! `Site::GrainAdjust` chaos sweep perturbs).
//!
//! # The state machine (DESIGN.md §5.13 has the ablation record)
//!
//! Grain moves on a log2 lattice `2^0 ..= 2^11` — the upper rail is the
//! Cilk 2048 cap, shared with [`default_grain`] through [`grain_bounds`]
//! so the static rule and the controller can never disagree about the
//! legal window. Three phases, packed in the word:
//!
//! * **Warmup** — the first accepted sample becomes the reference cost
//!   (ns per iteration, 8-bit fixed point) and the site starts probing
//!   coarser (`grain × 2`).
//! * **Probe** — multiplicative hill-climb with hysteresis: a probe step
//!   is kept only if it beat the reference by ≥ 1/32 (~3%); otherwise the
//!   step is undone, an up-probe turns into a down-probe, and a failed
//!   down-probe settles at the best point seen. Monotone improvement
//!   keeps stepping in the same direction until a rail.
//! * **Settled** — the site re-measures only every 16th loop (steady
//!   state costs one `fetch_add` + one load per loop). A re-measured
//!   cost drifting beyond 2x of the reference in either direction resets
//!   the site to Warmup; a cost inside that band leaves the word as is.
//!
//! The controller is wired through
//! [`GrainPolicy::Adaptive`](crate::GrainPolicy::Adaptive), the grain
//! option of [`Loop`](crate::Loop). Accepted adjustments surface as
//! `TraceEvent::GrainAdjusted` events and the pool-global
//! `PoolStats::grain_adjustments` counter; [`controller_report`] renders
//! per-site snapshots for benches and experiments.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::OnceLock;

use crate::range::{default_grain, grain_bounds};

/// Largest grain exponent: `2^11 = 2048`, the Cilk cap — the same upper
/// rail [`grain_bounds`] enforces (pinned by a unit test below).
pub const GRAIN_LOG2_MAX: u8 = 11;

/// In Settled phase only every `2^SETTLED_SAMPLE_SHIFT`-th loop is
/// measured (the rest pay no `Instant::now` at all).
const SETTLED_SAMPLE_SHIFT: u32 = 4;

// ---- controller word layout (one AtomicU64) ----
//
//  bits 0..4   grain_log2      (0..=11)
//  bits 4..6   phase           (0 Warmup, 1 Probe, 2 Settled)
//  bit  6      dir_down        (current probe direction)
//  bit  7      initialized     (first begin() seeds grain from default_grain)
//  bits 32..64 ref_cost        (u32: ns per iteration, x256 fixed point; 0 = unset)
const INIT_BIT: u64 = 1 << 7;

/// Controller phase (decoded from the packed word; see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// No reference cost yet: the next accepted sample seeds it.
    Warmup,
    /// Hill-climbing: each accepted sample keeps or undoes a probe step.
    Probe,
    /// Converged: re-measure every 16th loop, reset on 2x drift.
    Settled,
}

impl Phase {
    fn from_bits(b: u64) -> Phase {
        match b {
            0 => Phase::Warmup,
            1 => Phase::Probe,
            _ => Phase::Settled,
        }
    }

    fn bits(self) -> u64 {
        match self {
            Phase::Warmup => 0,
            Phase::Probe => 1,
            Phase::Settled => 2,
        }
    }

    /// Short stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Warmup => "warmup",
            Phase::Probe => "probe",
            Phase::Settled => "settled",
        }
    }
}

/// Decoded controller word — only ever manipulated inside the pure
/// [`transition`] function so the CAS in [`AdaptiveSite::record`] stays
/// the one synchronization point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Ctrl {
    grain_log2: u8,
    phase: Phase,
    dir_down: bool,
    ref_cost: u32,
}

fn unpack(word: u64) -> Ctrl {
    Ctrl {
        grain_log2: (word & 0xF) as u8,
        phase: Phase::from_bits((word >> 4) & 0x3),
        dir_down: word & (1 << 6) != 0,
        ref_cost: (word >> 32) as u32,
    }
}

fn pack(c: Ctrl) -> u64 {
    (c.grain_log2 as u64 & 0xF)
        | c.phase.bits() << 4
        | (c.dir_down as u64) << 6
        | INIT_BIT
        | (c.ref_cost as u64) << 32
}

/// What [`AdaptiveSite::begin`] hands the loop runner: the operating
/// point to use plus the snapshot [`AdaptiveSite::record`] CASes against.
#[derive(Debug, Clone, Copy)]
pub struct LoopStart {
    /// Grain to run with — the site's current `2^grain_log2`, clamped
    /// into this loop's [`grain_bounds`] window.
    pub grain: usize,
    /// Whether this loop should be timed and fed back via `record`
    /// (always true while converging; every 16th loop once settled).
    pub measure: bool,
    /// Iterations in this loop (normalizes the wall time to a cost).
    n: usize,
    /// The controller word this loop ran under.
    word: u64,
}

/// Point-in-time controller state for reports ([`controller_report`]).
#[derive(Debug, Clone)]
pub struct SiteSnapshot {
    /// The site's registration name.
    pub name: &'static str,
    /// The site's dense id, if one was ever assigned (first trace emit).
    pub id: Option<u32>,
    /// Current grain (`2^grain_log2`; per-loop values may clamp lower).
    pub grain: usize,
    /// Current phase.
    pub phase: Phase,
    /// Reference cost, ns per iteration (fixed point / 256).
    pub ref_cost_ns: f64,
    /// Loops started through this site.
    pub loops: u64,
    /// Accepted grain adjustments.
    pub adjustments: u64,
}

static NEXT_SITE_ID: AtomicU32 = AtomicU32::new(0);

/// One parallel-loop call site's adaptive grain state. Create as a
/// `static` (const-constructible) next to the loop it governs:
///
/// ```
/// use parloop_core::{AdaptiveSite, GrainPolicy, Loop, Schedule};
/// use parloop_runtime::ThreadPool;
///
/// static SITE: AdaptiveSite = AdaptiveSite::new("my_kernel");
///
/// let pool = ThreadPool::new(2);
/// for _ in 0..4 {
///     Loop { grain: GrainPolicy::Adaptive(&SITE), ..Loop::new(Schedule::hybrid()) }
///         .run(&pool, 0..4096, |chunk| {
///             std::hint::black_box(chunk.len());
///         })
///         .unwrap();
/// }
/// assert!(SITE.snapshot().loops >= 4);
/// ```
#[derive(Debug)]
pub struct AdaptiveSite {
    name: &'static str,
    id: OnceLock<u32>,
    /// The packed controller word (layout above). All transitions CAS.
    ctrl: AtomicU64,
    /// Accepted grain adjustments (monotone).
    adjustments: AtomicU64,
    /// Loops started (drives the Settled sampling cadence).
    loops: AtomicU64,
}

impl AdaptiveSite {
    /// A fresh site. `name` labels trace/report output; the grain seeds
    /// lazily from `default_grain` at the first [`begin`](Self::begin).
    pub const fn new(name: &'static str) -> AdaptiveSite {
        AdaptiveSite {
            name,
            id: OnceLock::new(),
            ctrl: AtomicU64::new(0),
            adjustments: AtomicU64::new(0),
            loops: AtomicU64::new(0),
        }
    }

    /// The site's label.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The site's dense id for trace events, assigned process-wide on
    /// first use (sites are usually `static`, so ids are stable within a
    /// run but not across runs — join on `name` for cross-run analysis).
    pub fn id(&self) -> u32 {
        *self.id.get_or_init(|| NEXT_SITE_ID.fetch_add(1, Ordering::Relaxed))
    }

    /// Snapshot the operating point for one loop of `n` iterations on a
    /// `workers`-wide pool. Cost in steady state: one `fetch_add`, one
    /// load, and the clamp arithmetic — no timestamps unless `measure`.
    pub fn begin(&self, n: usize, workers: usize) -> LoopStart {
        let loops = self.loops.fetch_add(1, Ordering::Relaxed);
        let mut word = self.ctrl.load(Ordering::Acquire);
        if word & INIT_BIT == 0 {
            // First use: seed from the static rule so GrainPolicy::Static
            // and a fresh Adaptive site start from the same operating
            // point (the controller only ever has to *improve* on it).
            let g0 = default_grain(n.max(1), workers.max(1));
            let seeded = pack(Ctrl {
                grain_log2: (g0.next_power_of_two().trailing_zeros() as u8).min(GRAIN_LOG2_MAX),
                phase: Phase::Warmup,
                dir_down: false,
                ref_cost: 0,
            });
            word =
                match self.ctrl.compare_exchange(word, seeded, Ordering::AcqRel, Ordering::Acquire)
                {
                    Ok(_) => seeded,
                    Err(seen) => seen,
                };
        }
        let c = unpack(word);
        let (lo, hi) = grain_bounds(n, workers);
        LoopStart {
            grain: (1usize << c.grain_log2).clamp(lo, hi),
            measure: c.phase != Phase::Settled || loops & ((1 << SETTLED_SAMPLE_SHIFT) - 1) == 0,
            n,
            word,
        }
    }

    /// Fold one measured loop's wall time into the controller. Returns
    /// the site's new grain (`2^grain_log2`, pre-clamp) if the transition
    /// changed it. A `None` is either "no change", "not a measured loop",
    /// or "sample dropped" (a concurrent loop on this site won the CAS —
    /// the word moved under us, and merging a stale sample would break
    /// determinism).
    pub fn record(&self, start: &LoopStart, wall_ns: u64) -> Option<usize> {
        if !start.measure || start.n == 0 || wall_ns == 0 {
            return None;
        }
        let new = transition(start.word, cost_per_iter(wall_ns, start.n));
        if new == start.word {
            return None;
        }
        if self.ctrl.compare_exchange(start.word, new, Ordering::AcqRel, Ordering::Acquire).is_err()
        {
            return None;
        }
        let (before, after) = (unpack(start.word), unpack(new));
        if before.grain_log2 == after.grain_log2 {
            return None;
        }
        self.adjustments.fetch_add(1, Ordering::Relaxed);
        Some(1usize << after.grain_log2)
    }

    /// Whether the site has converged (phase Settled).
    pub fn settled(&self) -> bool {
        let word = self.ctrl.load(Ordering::Acquire);
        word & INIT_BIT != 0 && unpack(word).phase == Phase::Settled
    }

    /// Accepted grain adjustments so far.
    pub fn adjustments(&self) -> u64 {
        self.adjustments.load(Ordering::Relaxed)
    }

    /// Current controller state for reports.
    pub fn snapshot(&self) -> SiteSnapshot {
        let word = self.ctrl.load(Ordering::Acquire);
        let c = unpack(word);
        let initialized = word & INIT_BIT != 0;
        SiteSnapshot {
            name: self.name,
            id: self.id.get().copied(),
            grain: if initialized { 1usize << c.grain_log2 } else { 0 },
            phase: if initialized { c.phase } else { Phase::Warmup },
            ref_cost_ns: c.ref_cost as f64 / 256.0,
            loops: self.loops.load(Ordering::Relaxed),
            adjustments: self.adjustments(),
        }
    }
}

/// Measured cost in the word's fixed point: ns per iteration × 256,
/// saturated into a `u32`, floored at 1 so "measured" is distinguishable
/// from "unset".
fn cost_per_iter(wall_ns: u64, n: usize) -> u32 {
    (wall_ns.saturating_mul(256) / n.max(1) as u64).clamp(1, u32::MAX as u64) as u32
}

/// The pure state transition: `(word, cost) → word`. Everything the
/// controller does lives here, so determinism is structural — no clocks,
/// no randomness, no reads of shared state.
fn transition(word: u64, cost: u32) -> u64 {
    let mut c = unpack(word);
    match c.phase {
        Phase::Warmup => {
            c.ref_cost = cost;
            c.phase = Phase::Probe;
            if c.grain_log2 < GRAIN_LOG2_MAX {
                c.dir_down = false;
                c.grain_log2 += 1;
            } else {
                c.dir_down = true;
                c.grain_log2 -= 1;
            }
        }
        Phase::Probe => {
            // Hysteresis: both thresholds sit ≥ 1/32 (~3%) away from the
            // reference, so measurement noise can neither ping-pong the
            // grain nor masquerade as a regression.
            let improved = (cost as u64) * 32 <= (c.ref_cost as u64) * 31;
            let worse = (cost as u64) * 31 >= (c.ref_cost as u64) * 32;
            if improved {
                c.ref_cost = cost;
                if !c.dir_down && c.grain_log2 < GRAIN_LOG2_MAX {
                    c.grain_log2 += 1;
                } else if c.dir_down && c.grain_log2 > 0 {
                    c.grain_log2 -= 1;
                } else {
                    c.phase = Phase::Settled;
                }
            } else if !c.dir_down && !worse {
                // Plateau on an up-probe: keep ratcheting coarser. Equal
                // cost/iter at twice the grain means half the chunks — a
                // structural win the per-iteration clock can't resolve
                // (the inline `n <= grain` bypass hides behind exactly
                // such plateaus). `ref_cost` stays pinned at the plateau
                // base, so sub-threshold losses accumulate against it
                // and a creeping regression eventually reads as `worse`.
                if c.grain_log2 < GRAIN_LOG2_MAX {
                    c.grain_log2 += 1;
                } else {
                    c.phase = Phase::Settled;
                }
            } else if !c.dir_down {
                // Up-probe hurt: undo it and try the other direction.
                c.grain_log2 -= 1;
                c.dir_down = true;
                if c.grain_log2 > 0 {
                    c.grain_log2 -= 1;
                } else {
                    c.phase = Phase::Settled;
                }
            } else {
                // Down-probe failed to win: the undone point is the
                // local best. Finer grain must prove itself — ties go
                // to the coarser side.
                c.grain_log2 += 1;
                c.phase = Phase::Settled;
            }
        }
        Phase::Settled => {
            if cost > c.ref_cost.saturating_mul(2) || c.ref_cost > cost.saturating_mul(2) {
                // The workload shifted under us: re-learn from scratch.
                c.phase = Phase::Warmup;
                c.ref_cost = 0;
            }
        }
    }
    pack(c)
}

/// Render one line per site — the human end of the controller's
/// observability (the machine end is `TraceEvent::GrainAdjusted` plus
/// `PoolStats::grain_adjustments`).
pub fn controller_report<'a>(sites: impl IntoIterator<Item = &'a AdaptiveSite>) -> String {
    let mut out = String::new();
    for site in sites {
        let s = site.snapshot();
        out.push_str(&format!(
            "{:<24} grain={:<5} phase={:<7} ref={:.1}ns/iter loops={} adjustments={}\n",
            s.name,
            s.grain,
            s.phase.name(),
            s.ref_cost_ns,
            s.loops,
            s.adjustments,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drive `site` through one begin/record cycle with a synthetic cost
    /// model `cost_ns_per_iter(grain)`; returns the accepted new grain.
    fn run_loop(
        site: &AdaptiveSite,
        n: usize,
        workers: usize,
        cost_ns_per_iter: impl Fn(usize) -> u64,
    ) -> Option<usize> {
        let start = site.begin(n, workers);
        if !start.measure {
            return None;
        }
        site.record(&start, cost_ns_per_iter(start.grain) * n as u64)
    }

    #[test]
    fn grain_rail_matches_grain_bounds_cap() {
        // The controller's upper rail and the shared clamp window must
        // never disagree (the module contract with range.rs).
        assert_eq!(1usize << GRAIN_LOG2_MAX, grain_bounds(usize::MAX, 1).1);
    }

    #[test]
    fn pack_unpack_round_trips() {
        for grain_log2 in 0..=GRAIN_LOG2_MAX {
            for phase in [Phase::Warmup, Phase::Probe, Phase::Settled] {
                for dir_down in [false, true] {
                    for ref_cost in [0u32, 1, 77 * 256, u32::MAX] {
                        let c = Ctrl { grain_log2, phase, dir_down, ref_cost };
                        assert_eq!(unpack(pack(c)), c);
                    }
                }
            }
        }
    }

    #[test]
    fn begin_seeds_from_default_grain() {
        let site = AdaptiveSite::new("seed");
        // default_grain(16384, 4) = 512, already a power of two.
        let start = site.begin(16384, 4);
        assert_eq!(start.grain, 512);
        assert!(start.measure, "warmup loops are always measured");
    }

    #[test]
    fn begin_clamps_into_grain_bounds() {
        let site = AdaptiveSite::new("clamp");
        // Seed with a big loop so the site's grain is 2048...
        let _ = site.begin(1 << 22, 1);
        // ...then a small loop on the same site must clamp to n.
        let start = site.begin(10, 4);
        assert!(start.grain <= 10, "grain {} exceeds n", start.grain);
    }

    #[test]
    fn flat_cost_ratchets_coarser_and_settles_at_the_cap() {
        // Cost independent of grain: every up-probe is a plateau, and
        // ties go coarse (same measured cost, half the chunks), so the
        // site rides the rail from the 512 seed to the cap and settles.
        let site = AdaptiveSite::new("flat");
        for _ in 0..8 {
            run_loop(&site, 16384, 4, |_| 100);
        }
        assert!(site.settled());
        assert_eq!(site.snapshot().grain, 1 << GRAIN_LOG2_MAX as usize);
        // Exactly two grain adjustments: the warmup probe 512 -> 1024
        // and the plateau ratchet 1024 -> 2048; settling at the cap
        // changes only the phase.
        assert_eq!(site.adjustments(), 2);
    }

    #[test]
    fn overhead_dominated_cost_climbs_to_the_cap() {
        // Fixed per-chunk overhead: cost/iter strictly improves with
        // coarser grain, so the climb (seeded at 512 = default_grain)
        // should ride the rail to 2048.
        let site = AdaptiveSite::new("climb");
        for _ in 0..32 {
            run_loop(&site, 16384, 4, |g| 10 + 4096 / g as u64);
        }
        assert!(site.settled());
        assert_eq!(site.snapshot().grain, 1 << GRAIN_LOG2_MAX as usize);
    }

    #[test]
    fn imbalance_dominated_cost_descends() {
        // Cost worsens with coarser grain (tail imbalance): the up-probe
        // fails immediately and the site walks down until flat.
        let site = AdaptiveSite::new("descend");
        for _ in 0..32 {
            run_loop(&site, 1 << 20, 4, |g| 100 + (g as u64) / 4);
        }
        assert!(site.settled());
        let final_grain = site.snapshot().grain;
        assert!(final_grain <= 64, "expected a fine grain, got {final_grain}");
    }

    #[test]
    fn settled_phase_samples_sparsely_and_resets_on_drift() {
        let site = AdaptiveSite::new("drift");
        for _ in 0..8 {
            run_loop(&site, 16384, 4, |_| 100);
        }
        assert!(site.settled());
        // Most settled loops are unmeasured.
        let measured = (0..64).filter(|_| site.begin(16384, 4).measure).count();
        assert!(measured <= 5, "settled cadence leaked: {measured}/64 measured");
        let next_measured = || loop {
            let start = site.begin(16384, 4);
            if start.measure {
                break start;
            }
        };
        // A 1.5x cost shift stays inside the 2x band: the word is left
        // alone, so the reference does not move.
        let reference = site.snapshot().ref_cost_ns;
        assert_eq!(site.record(&next_measured(), 150 * 16384), None);
        assert!(site.settled(), "drift inside the band keeps the site settled");
        assert_eq!(site.snapshot().ref_cost_ns, reference, "the reference must not track drift");
        // A 4x cost shift on a measured loop resets to warmup.
        site.record(&next_measured(), 400 * 16384);
        assert!(!site.settled(), "2x drift must re-enter warmup");
    }

    #[test]
    fn stale_snapshot_samples_are_dropped() {
        let site = AdaptiveSite::new("stale");
        let start_a = site.begin(16384, 4);
        let start_b = site.begin(16384, 4);
        // First record moves the word; the second holds a stale snapshot
        // and must be dropped (None), leaving exactly one adjustment.
        assert!(site.record(&start_a, 100 * 16384).is_some());
        assert!(site.record(&start_b, 100 * 16384).is_none());
        assert_eq!(site.adjustments(), 1);
    }

    #[test]
    fn transitions_are_deterministic() {
        let run = || {
            let site = AdaptiveSite::new("det");
            let mut trail = Vec::new();
            for k in 0..64u64 {
                // A lumpy but fixed signal sequence.
                let cost = move |g: usize| 50 + 2048 / g as u64 + (k % 7) * 3;
                if let Some(grain) = run_loop(&site, 1 << 18, 4, cost) {
                    trail.push(grain);
                }
            }
            (trail, site.snapshot().grain, site.adjustments())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn controller_report_lists_every_site() {
        let a = AdaptiveSite::new("alpha");
        let b = AdaptiveSite::new("beta");
        let _ = a.begin(1024, 2);
        let report = controller_report([&a, &b]);
        assert!(report.contains("alpha"), "{report}");
        assert!(report.contains("beta"), "{report}");
        assert!(report.contains("phase="), "{report}");
    }
}
