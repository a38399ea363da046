//! The six scheduling schemes as virtual-time step machines.
//!
//! Each policy answers one question — "worker `w` is idle *now*; what does
//! it do next?" — with an [`Action`]: run a chunk (plus the scheduling
//! overhead paid to obtain it), stall (a failed steal / backoff), or
//! finish. The engine advances whichever worker's clock is smallest, so
//! interleavings play out in virtual time.
//!
//! The hybrid policy reuses [`parloop_core::ClaimWalker`] — the *same*
//! claim-sequence code the threaded runtime executes — so the simulator
//! and the real scheduler cannot drift apart on the heuristic.

use std::collections::VecDeque;

use parloop_core::{block_bounds, locality_earmark, ClaimWalker};
use parloop_topo::TopologyMap;

use crate::costs::CostModel;

/// What an idle worker does next.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Action {
    /// Execute iterations `lo..hi`, having paid `overhead` cycles of
    /// scheduling cost to obtain them.
    Run { lo: usize, hi: usize, overhead: f64 },
    /// Burn `.0` cycles without obtaining work (failed steal, claim, …).
    Stall(f64),
    /// This worker will receive no more work from this loop.
    Finished,
}

/// Which scheme to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// The paper's hybrid scheme.
    Hybrid,
    /// OpenMP static.
    Static,
    /// FastFlow static (fixed blocks via shared counter).
    StaticSharing,
    /// OpenMP dynamic (fixed chunks via shared cursor).
    WorkSharing,
    /// OpenMP guided (decreasing chunks via shared cursor).
    Guided,
    /// Vanilla Cilk work stealing.
    Stealing,
    /// The hybrid scheme with `R = next_pow2(P · factor)` partitions
    /// (Theorem 5's general `R`; the A3 ablation).
    HybridOversub(u8),
    /// The hybrid scheme made topology-aware: claim walks anchored at a
    /// NUMA-earmarked partition and two-phase socket-first stealing
    /// (same-socket victims before remote ones). Coincides with
    /// [`Hybrid`](PolicyKind::Hybrid) on a flat (single-socket) topology.
    HybridSocketFirst,
    /// OpenMP `schedule(static, chunk)`: deterministic round-robin chunks.
    StaticCyclic(u16),
    /// No parallel constructs at all (the `T_s` baseline).
    Sequential,
}

impl PolicyKind {
    /// Display name matching the paper's figure legends.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Hybrid => "hybrid",
            PolicyKind::Static => "omp_static",
            PolicyKind::StaticSharing => "ff_static",
            PolicyKind::WorkSharing => "omp_dynamic",
            PolicyKind::Guided => "omp_guided",
            PolicyKind::Stealing => "vanilla",
            PolicyKind::HybridOversub(_) => "hybrid_oversub",
            PolicyKind::HybridSocketFirst => "hybrid_sf",
            PolicyKind::StaticCyclic(_) => "omp_static_c",
            PolicyKind::Sequential => "sequential",
        }
    }

    /// The schemes the paper's figures compare.
    pub fn roster() -> [PolicyKind; 6] {
        [
            PolicyKind::Hybrid,
            PolicyKind::Static,
            PolicyKind::WorkSharing,
            PolicyKind::Guided,
            PolicyKind::Stealing,
            PolicyKind::StaticSharing,
        ]
    }

    /// Team schemes fork all `P` workers into the loop and barrier at the
    /// end (OpenMP/FastFlow); non-team schemes discover the loop by
    /// stealing and end when the last chunk completes.
    pub fn is_team(self) -> bool {
        matches!(
            self,
            PolicyKind::Static
                | PolicyKind::StaticCyclic(_)
                | PolicyKind::StaticSharing
                | PolicyKind::WorkSharing
                | PolicyKind::Guided
        )
    }
}

/// A policy instance for one loop execution.
pub trait Policy {
    fn next(&mut self, w: usize) -> Action;

    /// Successful steals so far, classified against the topology as
    /// `(same-socket, remote)`. Schemes without steals report `(0, 0)`.
    fn steal_counts(&self) -> (u64, u64) {
        (0, 0)
    }
}

/// Build a policy for a loop of `n` iterations on `p` workers.
///
/// `chunk_hint` is the paper's adjusted chunk `min(2048, N/8P)`; it is the
/// fixed chunk for `WorkSharing`, the inner grain for `Stealing`/`Hybrid`,
/// and the minimum chunk for `Guided` uses 1 (OpenMP default).
/// `seed` models run-to-run scheduling nondeterminism (victim selection,
/// arrival order): the engine passes a fresh value per loop *instance*, so
/// consecutive loops of an iterative application do not replay identical
/// dynamic schedules — on real machines they never do, which is exactly
/// why non-static schemes lose affinity (paper, Figure 2).
///
/// `topo` is the worker → socket map the engine derives from its pinned
/// virtual cores; it classifies steals as local/remote for every stealing
/// scheme and drives victim ordering plus claim-anchor earmarking for
/// [`PolicyKind::HybridSocketFirst`].
pub fn make_policy(
    kind: PolicyKind,
    n: usize,
    p: usize,
    chunk_hint: usize,
    cost: CostModel,
    seed: u64,
    topo: &TopologyMap,
) -> Box<dyn Policy> {
    match kind {
        PolicyKind::Sequential => Box::new(SequentialPolicy { n, done: false }),
        PolicyKind::Static => Box::new(StaticPolicy::new(n, p)),
        PolicyKind::StaticSharing => Box::new(StaticSharingPolicy::new(n, p, cost)),
        PolicyKind::WorkSharing => Box::new(SharingPolicy::fixed(n, p, chunk_hint, cost)),
        PolicyKind::Guided => Box::new(SharingPolicy::guided(n, p, 1, cost)),
        PolicyKind::Stealing => Box::new(StealingPolicy::new(n, p, chunk_hint, cost, seed, topo)),
        PolicyKind::Hybrid => {
            let shape = HybridShape { oversub: 1, socket_first: false };
            Box::new(HybridPolicy::new(n, p, chunk_hint, cost, seed, shape, topo))
        }
        PolicyKind::HybridOversub(f) => {
            let shape = HybridShape { oversub: f.max(1) as usize, socket_first: false };
            Box::new(HybridPolicy::new(n, p, chunk_hint, cost, seed, shape, topo))
        }
        PolicyKind::HybridSocketFirst => {
            let shape = HybridShape { oversub: 1, socket_first: true };
            Box::new(HybridPolicy::new(n, p, chunk_hint, cost, seed, shape, topo))
        }
        PolicyKind::StaticCyclic(chunk) => {
            Box::new(StaticCyclicPolicy::new(n, p, chunk.max(1) as usize))
        }
    }
}

/// OpenMP `schedule(static, chunk)`: worker `w` owns chunks `w, w+P, …`.
struct StaticCyclicPolicy {
    n: usize,
    p: usize,
    chunk: usize,
    next_chunk: Vec<usize>,
}

impl StaticCyclicPolicy {
    fn new(n: usize, p: usize, chunk: usize) -> Self {
        StaticCyclicPolicy { n, p, chunk, next_chunk: (0..p).collect() }
    }
}

impl Policy for StaticCyclicPolicy {
    fn next(&mut self, w: usize) -> Action {
        let chunks = self.n.div_ceil(self.chunk);
        let c = self.next_chunk[w];
        if c >= chunks {
            return Action::Finished;
        }
        self.next_chunk[w] = c + self.p;
        let lo = c * self.chunk;
        let hi = (lo + self.chunk).min(self.n);
        Action::Run { lo, hi, overhead: 0.0 }
    }
}

// ------------------------------------------------------------------
// Sequential
// ------------------------------------------------------------------

struct SequentialPolicy {
    n: usize,
    done: bool,
}

impl Policy for SequentialPolicy {
    fn next(&mut self, w: usize) -> Action {
        if w != 0 || self.done {
            return Action::Finished;
        }
        self.done = true;
        if self.n == 0 {
            Action::Finished
        } else {
            Action::Run { lo: 0, hi: self.n, overhead: 0.0 }
        }
    }
}

// ------------------------------------------------------------------
// OpenMP static
// ------------------------------------------------------------------

struct StaticPolicy {
    n: usize,
    p: usize,
    taken: Vec<bool>,
}

impl StaticPolicy {
    fn new(n: usize, p: usize) -> Self {
        StaticPolicy { n, p, taken: vec![false; p] }
    }
}

impl Policy for StaticPolicy {
    fn next(&mut self, w: usize) -> Action {
        if self.taken[w] {
            return Action::Finished;
        }
        self.taken[w] = true;
        let r = block_bounds(self.n, self.p, w);
        if r.is_empty() {
            Action::Finished
        } else {
            Action::Run { lo: r.start, hi: r.end, overhead: 0.0 }
        }
    }
}

// ------------------------------------------------------------------
// Shared-cursor schemes (omp_dynamic / omp_guided / ff_static)
// ------------------------------------------------------------------

enum CursorMode {
    Fixed(usize),
    Guided { min_chunk: usize },
}

struct SharingPolicy {
    n: usize,
    p: usize,
    cursor: usize,
    mode: CursorMode,
    cost: CostModel,
}

impl SharingPolicy {
    fn fixed(n: usize, p: usize, chunk: usize, cost: CostModel) -> Self {
        SharingPolicy { n, p, cursor: 0, mode: CursorMode::Fixed(chunk.max(1)), cost }
    }

    fn guided(n: usize, p: usize, min_chunk: usize, cost: CostModel) -> Self {
        SharingPolicy { n, p, cursor: 0, mode: CursorMode::Guided { min_chunk }, cost }
    }
}

impl Policy for SharingPolicy {
    fn next(&mut self, _w: usize) -> Action {
        if self.cursor >= self.n {
            return Action::Finished;
        }
        let remaining = self.n - self.cursor;
        let chunk = match self.mode {
            CursorMode::Fixed(c) => c,
            CursorMode::Guided { min_chunk } => (remaining / self.p).max(min_chunk),
        }
        .min(remaining);
        let lo = self.cursor;
        self.cursor += chunk;
        Action::Run { lo, hi: lo + chunk, overhead: self.cost.grab(self.p) }
    }
}

/// FastFlow static: `P` fixed blocks handed out through a shared counter.
struct StaticSharingPolicy {
    n: usize,
    p: usize,
    next_block: usize,
    cost: CostModel,
}

impl StaticSharingPolicy {
    fn new(n: usize, p: usize, cost: CostModel) -> Self {
        StaticSharingPolicy { n, p, next_block: 0, cost }
    }
}

impl Policy for StaticSharingPolicy {
    fn next(&mut self, _w: usize) -> Action {
        while self.next_block < self.p {
            let b = self.next_block;
            self.next_block += 1;
            let r = block_bounds(self.n, self.p, b);
            if !r.is_empty() {
                return Action::Run { lo: r.start, hi: r.end, overhead: self.cost.grab(self.p) };
            }
        }
        Action::Finished
    }
}

// ------------------------------------------------------------------
// Work stealing (vanilla cilk_for) — shared deque machinery
// ------------------------------------------------------------------

/// Per-worker deques of iteration ranges plus randomized stealing; also
/// the substrate under the hybrid policy's inner loops.
struct DequeSet {
    deques: Vec<VecDeque<(usize, usize)>>,
    grain: usize,
    /// Iterations still queued in some deque (not yet handed to a worker).
    queued: usize,
    rng: u64,
    cost: CostModel,
    /// Worker → socket, for classifying steals as local or remote.
    socket_of: Vec<usize>,
    /// Per-worker `(same-socket victims, remote victims)` sweep lists;
    /// built only for socket-first stealing (empty under uniform).
    victims: Vec<(Vec<usize>, Vec<usize>)>,
    local_steals: u64,
    remote_steals: u64,
}

impl DequeSet {
    fn new(
        p: usize,
        grain: usize,
        cost: CostModel,
        seed: u64,
        topo: &TopologyMap,
        socket_first: bool,
    ) -> Self {
        let socket_of: Vec<usize> = (0..p).map(|w| topo.socket_of(w)).collect();
        let victims = if socket_first {
            (0..p)
                .map(|w| (0..p).filter(|&v| v != w).partition(|&v| socket_of[v] == socket_of[w]))
                .collect()
        } else {
            Vec::new()
        };
        DequeSet {
            deques: vec![VecDeque::new(); p],
            grain: grain.max(1),
            queued: 0,
            rng: seed | 1,
            cost,
            socket_of,
            victims,
            local_steals: 0,
            remote_steals: 0,
        }
    }

    fn push(&mut self, w: usize, lo: usize, hi: usize) {
        debug_assert!(lo < hi);
        self.queued += hi - lo;
        self.deques[w].push_back((lo, hi));
    }

    fn next_rand(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }

    /// Pop from own deque (bottom), splitting down to the grain; the right
    /// halves stay stealable. Returns a run action if work was present.
    fn pop_own(&mut self, w: usize) -> Option<Action> {
        let (lo, hi) = self.deques[w].pop_back()?;
        self.queued -= hi - lo;
        Some(self.split_down(w, lo, hi, 0.0))
    }

    /// One steal attempt at a uniformly random victim; `Run` on success,
    /// `Stall` on failure, `None` if no work exists anywhere.
    fn steal(&mut self, w: usize) -> Option<Action> {
        if self.queued == 0 {
            return None;
        }
        let p = self.deques.len();
        let victim = (self.next_rand() % p as u64) as usize;
        if victim != w {
            if let Some((lo, hi)) = self.deques[victim].pop_front() {
                self.queued -= hi - lo;
                self.note_steal(w, victim);
                return Some(self.split_down(w, lo, hi, self.cost.steal_success));
            }
        }
        Some(Action::Stall(self.cost.steal_attempt))
    }

    /// One two-phase localized steal sweep: same-socket victims first from
    /// a random start, then remote ones (Suksompong–Leiserson–Schardl).
    /// Probing an empty deque is a cheap load there, so only the terminal
    /// outcome is charged: `steal_success` on a hit, one `steal_attempt`
    /// for a whole failed sweep (the runtime's `StealFailed` + backoff).
    fn steal_socket_first(&mut self, w: usize) -> Option<Action> {
        if self.queued == 0 {
            return None;
        }
        for phase in 0..2 {
            let len = if phase == 0 { self.victims[w].0.len() } else { self.victims[w].1.len() };
            if len == 0 {
                continue;
            }
            let start = (self.next_rand() % len as u64) as usize;
            for k in 0..len {
                let ix = (start + k) % len;
                let v = if phase == 0 { self.victims[w].0[ix] } else { self.victims[w].1[ix] };
                if let Some((lo, hi)) = self.deques[v].pop_front() {
                    self.queued -= hi - lo;
                    self.note_steal(w, v);
                    return Some(self.split_down(w, lo, hi, self.cost.steal_success));
                }
            }
        }
        Some(Action::Stall(self.cost.steal_attempt))
    }

    fn note_steal(&mut self, thief: usize, victim: usize) {
        if self.socket_of[thief] == self.socket_of[victim] {
            self.local_steals += 1;
        } else {
            self.remote_steals += 1;
        }
    }

    fn split_down(&mut self, w: usize, lo: usize, mut hi: usize, base: f64) -> Action {
        let mut overhead = base;
        while hi - lo > self.grain {
            let mid = lo + (hi - lo) / 2;
            self.push(w, mid, hi);
            overhead += self.cost.spawn;
            hi = mid;
        }
        Action::Run { lo, hi, overhead }
    }
}

struct StealingPolicy {
    set: DequeSet,
}

impl StealingPolicy {
    fn new(
        n: usize,
        p: usize,
        grain: usize,
        cost: CostModel,
        seed: u64,
        topo: &TopologyMap,
    ) -> Self {
        let mut set = DequeSet::new(p, grain, cost, seed, topo, false);
        if n > 0 {
            set.push(0, 0, n); // the initiator owns the whole range
        }
        StealingPolicy { set }
    }
}

impl Policy for StealingPolicy {
    fn next(&mut self, w: usize) -> Action {
        if let Some(a) = self.set.pop_own(w) {
            return a;
        }
        match self.set.steal(w) {
            Some(a) => a,
            None => Action::Finished,
        }
    }

    fn steal_counts(&self) -> (u64, u64) {
        (self.set.local_steals, self.set.remote_steals)
    }
}

// ------------------------------------------------------------------
// The hybrid scheme
// ------------------------------------------------------------------

/// Static shape of a hybrid-policy instance: Theorem 5's oversubscription
/// factor plus whether the topology-aware variant is in force.
#[derive(Debug, Clone, Copy)]
struct HybridShape {
    oversub: usize,
    socket_first: bool,
}

struct HybridPolicy {
    n: usize,
    r_parts: usize,
    claimed: Vec<bool>,
    walkers: Vec<ClaimWalker>,
    set: DequeSet,
    cost: CostModel,
    socket_first: bool,
}

impl HybridPolicy {
    fn new(
        n: usize,
        p: usize,
        grain: usize,
        cost: CostModel,
        seed: u64,
        shape: HybridShape,
        topo: &TopologyMap,
    ) -> Self {
        let r_parts = (p * shape.oversub).next_power_of_two();
        // Topology-aware anchors: worker w starts its claim walk at the
        // partition earmarked to its socket (NUMA-blocked ranges), not at
        // partition w. The XOR walk's coverage/termination proofs only
        // depend on the walk shape, so relabeling anchors is safe.
        let anchor = |w: usize| -> usize {
            if shape.socket_first && !topo.is_flat() {
                locality_earmark(topo.socket_table(), topo.sockets(), w, r_parts)
            } else {
                w % r_parts
            }
        };
        HybridPolicy {
            n,
            r_parts,
            claimed: vec![false; r_parts],
            walkers: (0..p).map(|w| ClaimWalker::with_start(anchor(w), r_parts)).collect(),
            set: DequeSet::new(p, grain, cost, seed, topo, shape.socket_first),
            cost,
            socket_first: shape.socket_first,
        }
    }
}

impl Policy for HybridPolicy {
    fn next(&mut self, w: usize) -> Action {
        // Inner per-partition loops are ordinary stealable ranges.
        if let Some(a) = self.set.pop_own(w) {
            return a;
        }
        // Claim walk: one claim attempt per call (each costs a fetch_or).
        if !self.walkers[w].finished() {
            let cand = self.walkers[w].candidate().expect("unfinished walker has a candidate");
            let won = !self.claimed[cand];
            if won {
                self.claimed[cand] = true;
            }
            if let Some(part) = self.walkers[w].record(won) {
                let r = block_bounds(self.n, self.r_parts, part);
                if !r.is_empty() {
                    self.set.push(w, r.start, r.end);
                }
            }
            return Action::Stall(self.cost.claim);
        }
        // Heuristic exhausted: ordinary work stealing.
        let stolen =
            if self.socket_first { self.set.steal_socket_first(w) } else { self.set.steal(w) };
        match stolen {
            Some(a) => a,
            None => Action::Finished,
        }
    }

    fn steal_counts(&self) -> (u64, u64) {
        (self.set.local_steals, self.set.remote_steals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drive a policy round-robin (all workers at equal pace) and collect
    /// which iterations ran where; checks exactly-once coverage.
    fn drive(kind: PolicyKind, n: usize, p: usize) -> Vec<Option<usize>> {
        drive_topo(kind, n, p, &TopologyMap::flat(p))
    }

    #[allow(clippy::needless_range_loop)]
    fn drive_topo(kind: PolicyKind, n: usize, p: usize, topo: &TopologyMap) -> Vec<Option<usize>> {
        let mut pol = make_policy(kind, n, p, 16, CostModel::xeon(), 7, topo);
        let mut owner = vec![None; n];
        let mut finished = vec![false; p];
        let mut guard = 0;
        while finished.iter().any(|f| !f) {
            guard += 1;
            assert!(guard < 1_000_000, "{} did not terminate", kind.name());
            for w in 0..p {
                if finished[w] {
                    continue;
                }
                match pol.next(w) {
                    Action::Run { lo, hi, .. } => {
                        for i in lo..hi {
                            assert!(owner[i].is_none(), "{}: iter {i} ran twice", kind.name());
                            owner[i] = Some(w);
                        }
                    }
                    Action::Stall(_) => {}
                    Action::Finished => finished[w] = true,
                }
            }
        }
        owner
    }

    #[test]
    fn all_policies_cover_exactly_once() {
        for kind in PolicyKind::roster() {
            for (n, p) in [(100, 4), (1000, 8), (7, 3), (64, 32), (1, 1)] {
                let owner = drive(kind, n, p);
                assert!(
                    owner.iter().all(|o| o.is_some()),
                    "{} (n={n}, p={p}): missed iterations",
                    kind.name()
                );
            }
        }
    }

    #[test]
    fn sequential_runs_all_on_worker_zero() {
        let owner = drive(PolicyKind::Sequential, 50, 4);
        assert!(owner.iter().all(|&o| o == Some(0)));
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn static_matches_block_bounds() {
        let n = 103;
        let p = 4;
        let owner = drive(PolicyKind::Static, n, p);
        for i in 0..n {
            assert_eq!(owner[i], Some(parloop_core::block_of(n, p, i)));
        }
    }

    #[test]
    fn hybrid_lone_worker_first_claims_its_own_partition() {
        // With one worker active (others never scheduled), the claim order
        // must start at partition w.
        let mut pol =
            make_policy(PolicyKind::Hybrid, 64, 4, 4, CostModel::xeon(), 7, &TopologyMap::flat(4));
        // Worker 2 acts alone.
        let mut first_range = None;
        for _ in 0..100 {
            match pol.next(2) {
                Action::Run { lo, hi, .. } => {
                    first_range = Some((lo, hi));
                    break;
                }
                Action::Stall(_) => {}
                Action::Finished => break,
            }
        }
        let r = parloop_core::block_bounds(64, 4, 2);
        // Worker 2's first executed chunk comes from its own partition.
        let (lo, hi) = first_range.expect("worker 2 got work");
        assert!(lo >= r.start && hi <= r.end, "chunk {lo}..{hi} outside partition {r:?}");
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn hybrid_round_robin_gives_every_worker_its_partition() {
        // With all workers advancing in lockstep, worker w should execute
        // (most of) partition w — the affinity property.
        let n = 4096;
        let p = 8;
        let owner = drive(PolicyKind::Hybrid, n, p);
        let mut own_count = 0;
        for i in 0..n {
            if owner[i] == Some(parloop_core::block_of(n, p, i)) {
                own_count += 1;
            }
        }
        assert!(
            own_count as f64 / n as f64 > 0.9,
            "only {own_count}/{n} iterations on their earmarked worker"
        );
    }

    #[test]
    fn stealing_distributes_to_multiple_workers() {
        let owner = drive(PolicyKind::Stealing, 4096, 4);
        let distinct: std::collections::HashSet<_> = owner.iter().flatten().collect();
        assert!(distinct.len() > 1, "stealing never moved work");
    }

    #[test]
    fn guided_chunks_decrease() {
        let mut pol = make_policy(
            PolicyKind::Guided,
            1000,
            4,
            1,
            CostModel::xeon(),
            7,
            &TopologyMap::flat(4),
        );
        let mut sizes = Vec::new();
        loop {
            match pol.next(0) {
                Action::Run { lo, hi, .. } => sizes.push(hi - lo),
                Action::Finished => break,
                Action::Stall(_) => {}
            }
        }
        assert!(sizes.first().unwrap() > sizes.last().unwrap());
        assert_eq!(sizes.iter().sum::<usize>(), 1000);
        for w in sizes.windows(2) {
            assert!(w[1] <= w[0], "guided chunks must not grow: {sizes:?}");
        }
    }

    #[test]
    fn work_sharing_uses_fixed_chunks() {
        let mut pol = make_policy(
            PolicyKind::WorkSharing,
            100,
            4,
            16,
            CostModel::xeon(),
            7,
            &TopologyMap::flat(4),
        );
        let mut sizes = Vec::new();
        loop {
            match pol.next(1) {
                Action::Run { lo, hi, .. } => sizes.push(hi - lo),
                Action::Finished => break,
                Action::Stall(_) => {}
            }
        }
        assert_eq!(sizes.iter().sum::<usize>(), 100);
        assert!(sizes[..sizes.len() - 1].iter().all(|&s| s == 16));
    }

    #[test]
    fn hybrid_oversub_covers_exactly_once() {
        for factor in [2u8, 4, 8] {
            let owner = drive_kind(PolicyKind::HybridOversub(factor), 500, 4);
            assert!(owner.iter().all(|o| o.is_some()), "factor {factor}");
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn static_cyclic_deals_round_robin() {
        let n = 64;
        let p = 4;
        let chunk = 4;
        let owner = drive_kind(PolicyKind::StaticCyclic(chunk as u16), n, p);
        for i in 0..n {
            assert_eq!(owner[i], Some((i / chunk) % p), "iteration {i}");
        }
    }

    fn drive_kind(kind: PolicyKind, n: usize, p: usize) -> Vec<Option<usize>> {
        drive(kind, n, p)
    }

    #[test]
    fn hybrid_socket_first_covers_exactly_once() {
        // Earmarked anchors relabel the claim walks; coverage must hold on
        // balanced and ragged shapes alike.
        let topo = TopologyMap::from_sockets(vec![0, 0, 1, 1, 2, 2, 3, 3]);
        for (n, p) in [(100, 4), (1000, 8), (7, 3), (64, 8), (1, 1)] {
            let owner = drive_topo(PolicyKind::HybridSocketFirst, n, p, &topo);
            assert!(owner.iter().all(|o| o.is_some()), "(n={n}, p={p}): missed iterations");
        }
    }

    #[test]
    fn socket_first_sweep_prefers_local_victims() {
        let topo = TopologyMap::from_sockets(vec![0, 0, 1, 1]);
        let mut set = DequeSet::new(4, 8, CostModel::xeon(), 7, &topo, true);
        // Work on worker 1 (thief's socket) and worker 3 (remote).
        set.push(1, 0, 8);
        set.push(3, 8, 16);
        // Worker 0's sweep must take the same-socket victim first.
        match set.steal_socket_first(0).expect("work is queued") {
            Action::Run { lo, .. } => assert_eq!(lo, 0, "stole from the remote victim first"),
            a => panic!("expected a successful steal, got {a:?}"),
        }
        assert_eq!((set.local_steals, set.remote_steals), (1, 0));
        // Local phase exhausted: the sweep falls through to the remote one.
        match set.steal_socket_first(0).expect("work is queued") {
            Action::Run { lo, .. } => assert_eq!(lo, 8),
            a => panic!("expected a successful steal, got {a:?}"),
        }
        assert_eq!((set.local_steals, set.remote_steals), (1, 1));
    }

    #[test]
    fn socket_first_lone_worker_first_claims_its_earmark() {
        // Scatter pinning [0,1,0,1]: worker 2 is the second worker of
        // socket 0, whose NUMA block covers partitions 0..2 — so its walk
        // anchors at partition 1, not at partition 2.
        let topo = TopologyMap::from_sockets(vec![0, 1, 0, 1]);
        let mut pol =
            make_policy(PolicyKind::HybridSocketFirst, 64, 4, 4, CostModel::xeon(), 7, &topo);
        let mut first_range = None;
        for _ in 0..100 {
            match pol.next(2) {
                Action::Run { lo, hi, .. } => {
                    first_range = Some((lo, hi));
                    break;
                }
                Action::Stall(_) => {}
                Action::Finished => break,
            }
        }
        let r = parloop_core::block_bounds(64, 4, 1);
        let (lo, hi) = first_range.expect("worker 2 got work");
        assert!(lo >= r.start && hi <= r.end, "chunk {lo}..{hi} outside earmarked {r:?}");
    }

    #[test]
    fn uniform_stealing_still_classifies_remote_steals() {
        // Victim ORDER is the policy knob; local/remote CLASSIFICATION
        // follows the topology even under uniform stealing.
        let topo = TopologyMap::from_sockets(vec![0, 1]);
        let mut pol = make_policy(PolicyKind::Stealing, 256, 2, 8, CostModel::xeon(), 7, &topo);
        let mut finished = [false; 2];
        let mut guard = 0;
        while finished.iter().any(|f| !f) {
            guard += 1;
            assert!(guard < 100_000);
            for (w, fin) in finished.iter_mut().enumerate() {
                if !*fin && pol.next(w) == Action::Finished {
                    *fin = true;
                }
            }
        }
        let (local, remote) = pol.steal_counts();
        assert_eq!(local, 0, "two workers on two sockets cannot steal locally");
        assert!(remote > 0, "worker 1 must have stolen from the initiator");
    }

    #[test]
    fn empty_loop_finishes_immediately() {
        for kind in PolicyKind::roster() {
            let mut pol = make_policy(kind, 0, 4, 8, CostModel::xeon(), 7, &TopologyMap::flat(4));
            for w in 0..4 {
                let mut steps = 0;
                loop {
                    match pol.next(w) {
                        Action::Finished => break,
                        Action::Stall(_) => {
                            steps += 1;
                            assert!(steps < 100, "{} stalls forever on empty loop", kind.name());
                        }
                        Action::Run { .. } => panic!("{}: work in empty loop", kind.name()),
                    }
                }
            }
        }
    }
}
