//! The virtual-time execution engine.
//!
//! Workers are virtual cores with individual clocks, pinned to the modeled
//! machine's physical cores (compact pinning, as in the paper). One loop
//! executes by repeatedly advancing the globally *least-advanced* unfinished
//! worker by one policy action; iteration costs combine the workload
//! model's CPU cycles with memory latency from the cache hierarchy, which
//! persists across loops — so loop affinity translates into cache hits
//! exactly as on the real machine.

use parloop_core::{default_grain, same_worker_fraction, UNRECORDED};
use parloop_simcache::{AccessCounts, MemoryHierarchy};
use parloop_topo::{pin_order, LatencyTable, MachineSpec, PinningPolicy};

use crate::costs::CostModel;
use crate::policy::{make_policy, Action, PolicyKind};
use crate::workload::AppModel;

/// Everything fixed about a simulation: machine, latencies, costs, pinning.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    pub machine: MachineSpec,
    pub latency: LatencyTable,
    pub cost: CostModel,
    pub pinning: PinningPolicy,
}

impl SimConfig {
    /// The paper's machine with calibrated costs and compact pinning.
    pub fn xeon() -> Self {
        SimConfig {
            machine: MachineSpec::xeon_e5_4620(),
            latency: LatencyTable::xeon_e5_4620(),
            cost: CostModel::xeon(),
            pinning: PinningPolicy::Compact,
        }
    }
}

/// Output of one simulated application run.
#[derive(Debug, Clone)]
pub struct SimResult {
    pub kind: PolicyKind,
    pub workers: usize,
    /// Virtual end-to-end cycles.
    pub total_cycles: f64,
    /// Per-level access counts over the whole run (Figure 4's columns).
    pub counts: AccessCounts,
    /// Mean consecutive-loop affinity per loop slot (Figure 2's metric).
    pub affinity: Vec<f64>,
    /// Cycles per outer phase.
    pub per_phase_cycles: Vec<f64>,
}

impl SimResult {
    /// Mean affinity across loop slots, weighted by loop length — the
    /// single number Figure 2 reports per configuration.
    pub fn mean_affinity(&self, app: &AppModel) -> f64 {
        let total: usize = app.loops.iter().map(|l| l.n).sum();
        if total == 0 {
            return 1.0;
        }
        self.affinity.iter().zip(&app.loops).map(|(a, l)| a * l.n as f64 / total as f64).sum()
    }
}

/// One executed chunk in a traced simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChunkEvent {
    /// Worker that executed the chunk.
    pub worker: usize,
    /// Virtual time the chunk started.
    pub start: f64,
    /// Cycles it took (scheduling overhead included).
    pub cycles: f64,
    /// Iteration range `lo..hi`.
    pub lo: usize,
    pub hi: usize,
}

/// Per-loop-instance chunk events from a traced run.
#[derive(Debug, Clone)]
pub struct LoopTrace {
    /// Loop name from the workload model.
    pub name: &'static str,
    /// Outer phase the instance belongs to.
    pub phase: usize,
    pub events: Vec<ChunkEvent>,
}

impl LoopTrace {
    /// Busy cycles per worker over this loop instance.
    pub fn busy_per_worker(&self, p: usize) -> Vec<f64> {
        let mut busy = vec![0.0; p];
        for e in &self.events {
            busy[e.worker] += e.cycles;
        }
        busy
    }

    /// Chunks executed per worker.
    pub fn chunks_per_worker(&self, p: usize) -> Vec<usize> {
        let mut n = vec![0usize; p];
        for e in &self.events {
            n[e.worker] += 1;
        }
        n
    }
}

/// Simulate `app` under scheme `kind` with `p` workers.
///
/// ```
/// use parloop_sim::{micro_app, simulate, MicroParams, PolicyKind, SimConfig};
///
/// let app = micro_app(MicroParams::small_for_tests(true));
/// let r = simulate(&app, PolicyKind::Hybrid, 8, &SimConfig::xeon());
/// assert!(r.total_cycles > 0.0);
/// assert_eq!(r.workers, 8);
/// ```
pub fn simulate(app: &AppModel, kind: PolicyKind, p: usize, cfg: &SimConfig) -> SimResult {
    simulate_inner(app, kind, p, cfg, None)
}

/// Like [`simulate`], additionally recording every executed chunk.
/// Traces grow with the workload (one event per chunk); use scaled-down
/// models for interactive exploration.
pub fn simulate_traced(
    app: &AppModel,
    kind: PolicyKind,
    p: usize,
    cfg: &SimConfig,
) -> (SimResult, Vec<LoopTrace>) {
    let mut traces = Vec::new();
    let r = simulate_inner(app, kind, p, cfg, Some(&mut traces));
    (r, traces)
}

fn simulate_inner(
    app: &AppModel,
    kind: PolicyKind,
    p: usize,
    cfg: &SimConfig,
    mut traces: Option<&mut Vec<LoopTrace>>,
) -> SimResult {
    assert!(p >= 1 && p <= cfg.machine.cores(), "p={p} outside machine");
    let mut mem = MemoryHierarchy::new(cfg.machine, cfg.latency);
    let cores: Vec<usize> = (0..p).map(|w| pin_order(&cfg.machine, cfg.pinning, w)).collect();

    // Consecutive-loop affinity per slot: owner maps of the previous
    // instance plus the per-transition worker retention fractions.
    let mut prev_owners: Vec<Option<Vec<u32>>> = app.loops.iter().map(|_| None).collect();
    let mut worker_fracs: Vec<Vec<f64>> = app.loops.iter().map(|_| Vec::new()).collect();
    let mut per_phase = Vec::with_capacity(app.outer);
    let mut clock = 0.0_f64;

    let mut loop_seq = 0u64;
    for phase in 0..app.outer {
        let phase_start = clock;
        for (slot, lm) in app.loops.iter().enumerate() {
            loop_seq += 1;
            let mut events = traces.as_ref().map(|_| Vec::new());
            let (end, owners) =
                run_one_loop(lm, kind, p, cfg, &cores, &mut mem, clock, loop_seq, events.as_mut());
            clock = end;
            if let Some(owners) = owners {
                if let Some(prev) = &prev_owners[slot] {
                    worker_fracs[slot].push(same_worker_fraction(prev, &owners));
                }
                prev_owners[slot] = Some(owners);
            }
            if let (Some(traces), Some(events)) = (traces.as_deref_mut(), events) {
                traces.push(LoopTrace { name: lm.name, phase, events });
            }
            clock += app.seq_between;
        }
        per_phase.push(clock - phase_start);
    }

    let mean = |fracs: &Vec<f64>| {
        if fracs.is_empty() {
            1.0
        } else {
            fracs.iter().sum::<f64>() / fracs.len() as f64
        }
    };
    SimResult {
        kind,
        workers: p,
        total_cycles: clock,
        counts: mem.total_counts(),
        affinity: worker_fracs.iter().map(mean).collect(),
        per_phase_cycles: per_phase,
    }
}

/// The sequential baseline `T_s`: no parallel constructs, no overheads,
/// one core.
pub fn sequential_time(app: &AppModel, cfg: &SimConfig) -> f64 {
    let mut free = *cfg;
    free.cost = CostModel::free();
    simulate(app, PolicyKind::Sequential, 1, &free).total_cycles
}

/// Splitmix64 step, used to derive per-loop-instance jitter.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Run one loop instance from virtual time `start`; returns its end time
/// and the owner map (worker per iteration; `None` for an empty loop).
#[allow(clippy::too_many_arguments)]
fn run_one_loop(
    lm: &crate::workload::LoopModel,
    kind: PolicyKind,
    p: usize,
    cfg: &SimConfig,
    cores: &[usize],
    mem: &mut MemoryHierarchy,
    start: f64,
    loop_seq: u64,
    mut events: Option<&mut Vec<ChunkEvent>>,
) -> (f64, Option<Vec<u32>>) {
    if lm.n == 0 {
        return (start, None);
    }
    let chunk_hint = default_grain(lm.n, p);
    let seed = mix64(loop_seq);
    let mut policy = make_policy(kind, lm.n, p, chunk_hint, cfg.cost, seed);

    // Per-loop-instance arrival jitter: on a real machine workers never
    // reach a loop in lock-step (interrupts, cache state, prior work), and
    // it is precisely this noise that keeps dynamic schemes from replaying
    // the previous loop's schedule. Bounded by half a discovery hop.
    let jitter = |w: usize| -> f64 {
        if p == 1 {
            return 0.0;
        }
        let h = mix64(seed ^ (w as u64).wrapping_mul(0x9E37_79B9));
        (h % 1024) as f64 * (cfg.cost.discovery_hop / 2048.0)
    };

    let mut clocks: Vec<f64> = (0..p)
        .map(|w| {
            start
                + jitter(w)
                + if kind.is_team() { cfg.cost.team_fork } else { cfg.cost.arrival(w) }
        })
        .collect();
    let mut finished = vec![false; p];
    let mut ran = vec![false; p];
    let mut owners = vec![UNRECORDED; lm.n];

    let mut active = p;
    while active > 0 {
        // Advance the least-advanced unfinished worker.
        let mut w = usize::MAX;
        let mut best = f64::INFINITY;
        for (i, &c) in clocks.iter().enumerate() {
            if !finished[i] && c < best {
                best = c;
                w = i;
            }
        }
        match policy.next(w) {
            Action::Run { lo, hi, overhead } => {
                ran[w] = true;
                let chunk_start = clocks[w];
                let mut cost = overhead;
                for (i, owner) in owners.iter_mut().enumerate().take(hi).skip(lo) {
                    cost += lm.iter_cost(i, cores[w], mem);
                    *owner = w as u32;
                }
                clocks[w] += cost;
                if let Some(ev) = events.as_deref_mut() {
                    ev.push(ChunkEvent { worker: w, start: chunk_start, cycles: cost, lo, hi });
                }
            }
            Action::Stall(c) => clocks[w] += c.max(1.0),
            Action::Finished => {
                finished[w] = true;
                active -= 1;
            }
        }
    }

    let mut end = start;
    if kind.is_team() {
        // All team members synchronize on a barrier at the end.
        for &c in &clocks {
            end = end.max(c);
        }
        end += cfg.cost.barrier_per_worker * (p as f64).log2().max(1.0);
    } else {
        // Steal-discovered loops complete when the last chunk finishes;
        // workers that never obtained work do not gate the loop.
        for w2 in 0..p {
            if ran[w2] {
                end = end.max(clocks[w2]);
            }
        }
    }

    (end, Some(owners))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{blocked_offsets, AccessPattern, AddressSpace, CostProfile, LoopModel};

    fn tiny_app(balanced: bool, outer: usize) -> AppModel {
        let mut sp = AddressSpace::new();
        let ws = 256 << 10; // 256 KB
        let n = 64;
        let arr = sp.alloc(ws);
        let ramp = if balanced { 1.0 } else { 6.0 };
        AppModel {
            name: "tiny".into(),
            loops: vec![LoopModel {
                name: "loop",
                n,
                cpu: if balanced {
                    CostProfile::Uniform(500.0)
                } else {
                    CostProfile::LinearRamp { min: 200.0, max: 1200.0 }
                },
                patterns: vec![AccessPattern::Block {
                    array: arr,
                    offsets: blocked_offsets(ws, n, ramp),
                    passes: 1,
                    write: true,
                }],
            }],
            outer,
            seq_between: 0.0,
        }
    }

    #[test]
    fn simulation_is_deterministic() {
        let app = tiny_app(true, 3);
        let cfg = SimConfig::xeon();
        let a = simulate(&app, PolicyKind::Hybrid, 8, &cfg);
        let b = simulate(&app, PolicyKind::Hybrid, 8, &cfg);
        assert_eq!(a.total_cycles, b.total_cycles);
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.affinity, b.affinity);
    }

    #[test]
    fn more_workers_never_much_slower() {
        let app = tiny_app(true, 2);
        let cfg = SimConfig::xeon();
        for kind in PolicyKind::roster() {
            let t1 = simulate(&app, kind, 1, &cfg).total_cycles;
            let t8 = simulate(&app, kind, 8, &cfg).total_cycles;
            assert!(
                t8 < t1 * 1.10,
                "{}: T8 {t8:.0} vs T1 {t1:.0} — parallel run should not be slower",
                kind.name()
            );
        }
    }

    #[test]
    fn sequential_baseline_below_any_scheme_t1() {
        let app = tiny_app(true, 2);
        let cfg = SimConfig::xeon();
        let ts = sequential_time(&app, &cfg);
        for kind in PolicyKind::roster() {
            let t1 = simulate(&app, kind, 1, &cfg).total_cycles;
            assert!(ts <= t1 * 1.001, "{}: Ts {ts:.0} must not exceed T1 {t1:.0}", kind.name());
        }
    }

    #[test]
    fn static_affinity_is_perfect() {
        let app = tiny_app(true, 5);
        let cfg = SimConfig::xeon();
        let r = simulate(&app, PolicyKind::Static, 8, &cfg);
        assert!((r.affinity[0] - 1.0).abs() < 1e-12, "static affinity {}", r.affinity[0]);
    }

    #[test]
    fn hybrid_affinity_beats_stealing_on_balanced() {
        let app = tiny_app(true, 5);
        let cfg = SimConfig::xeon();
        let hybrid = simulate(&app, PolicyKind::Hybrid, 8, &cfg);
        let vanilla = simulate(&app, PolicyKind::Stealing, 8, &cfg);
        assert!(
            hybrid.affinity[0] > vanilla.affinity[0],
            "hybrid {} must beat vanilla {}",
            hybrid.affinity[0],
            vanilla.affinity[0]
        );
        // The tiny test app (64 iterations, grain 1) leaves room for a few
        // end-of-loop steals; the full-size Figure 2 run lands ≈ 1.0.
        assert!(hybrid.affinity[0] > 0.8, "hybrid affinity {}", hybrid.affinity[0]);
    }

    #[test]
    fn unbalanced_hurts_static_more_than_hybrid() {
        let app = tiny_app(false, 2);
        let cfg = SimConfig::xeon();
        let st = simulate(&app, PolicyKind::Static, 8, &cfg).total_cycles;
        let hy = simulate(&app, PolicyKind::Hybrid, 8, &cfg).total_cycles;
        // Hybrid load balances; static is gated by the largest block.
        assert!(hy < st, "hybrid {hy:.0} should beat static {st:.0} on unbalanced work");
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn traced_run_matches_untraced_and_covers_iterations() {
        let app = tiny_app(false, 2);
        let cfg = SimConfig::xeon();
        let plain = simulate(&app, PolicyKind::Hybrid, 4, &cfg);
        let (traced, traces) = simulate_traced(&app, PolicyKind::Hybrid, 4, &cfg);
        assert_eq!(plain.total_cycles, traced.total_cycles);
        assert_eq!(traces.len(), 2, "one trace per loop instance");
        for t in &traces {
            // Every iteration appears in exactly one chunk.
            let mut seen = vec![false; app.loops[0].n];
            for e in &t.events {
                for i in e.lo..e.hi {
                    assert!(!seen[i], "iteration {i} in two chunks");
                    seen[i] = true;
                }
                assert!(e.cycles > 0.0 && e.start >= 0.0);
                assert!(e.worker < 4);
            }
            assert!(seen.iter().all(|&s| s), "trace missed iterations");
            // Aggregations agree with raw events.
            let busy: f64 = t.busy_per_worker(4).iter().sum();
            let direct: f64 = t.events.iter().map(|e| e.cycles).sum();
            assert!((busy - direct).abs() < 1e-9);
            assert_eq!(t.chunks_per_worker(4).iter().sum::<usize>(), t.events.len());
        }
    }

    #[test]
    fn counts_accumulate_across_phases() {
        let app = tiny_app(true, 3);
        let cfg = SimConfig::xeon();
        let r = simulate(&app, PolicyKind::Static, 4, &cfg);
        let expected: u64 = app.loops[0].total_accesses() * 3;
        assert_eq!(r.counts.total(), expected);
    }

    #[test]
    fn per_phase_cycles_sum_to_total() {
        let app = tiny_app(true, 4);
        let cfg = SimConfig::xeon();
        let r = simulate(&app, PolicyKind::Guided, 4, &cfg);
        let sum: f64 = r.per_phase_cycles.iter().sum();
        assert!((sum - r.total_cycles).abs() < 1e-6 * r.total_cycles.max(1.0));
    }
}
