//! The hybrid loop scheduler (Section III of the paper).
//!
//! A hybrid loop starts as static partitioning — `R = 2^k ≥ P` partitions,
//! partition `w` earmarked for worker `w` — and degrades gracefully into
//! dynamic partitioning:
//!
//! 1. The initiating worker creates the shared partition table `A`
//!    ([`ClaimTable`]) and pushes a **`DoHybridLoop` frame** (an *adopter
//!    job*) onto its own deque, then runs `DoHybridLoop` itself.
//! 2. An idle worker that steals the frame follows the paper's steal
//!    protocol: if its designated partition `r = w ⊕ 0 = w` is still
//!    unclaimed, it re-instantiates the frame under its own worker id
//!    (claiming partitions starting from `w`), re-publishing one more
//!    frame so later thieves can join (bounded by `P` total, matching the
//!    analysis's "at most P protocol steals"); if `r` is already claimed,
//!    the thief simply returns to ordinary randomized work stealing —
//!    where it can still steal *chunks* of claimed partitions, because
//!    each partition body runs as a stealable lazy loop.
//! 3. `DoHybridLoop` walks the semi-deterministic claim sequence
//!    ([`ClaimWalker`]); every successfully claimed partition executes via
//!    [`lazy_for_chunks`] and then decrements the loop's completion latch.
//!
//! Theorem 3 (every partition executes exactly once) carries over
//! directly: claims are `fetch_or` on `A`, and only a winning claim
//! executes a partition. Termination of the latch (count `R`) follows from
//! Lemma 2 — the initiator always *attempts* a claim in the top-level
//! group, which guarantees every partition is eventually claimed by one of
//! the workers running the heuristic.
//!
//! The scheduler is generic over the loop body `F: Fn(Range<usize>)`, so
//! every leaf chunk of a claimed partition runs monomorphized. Type
//! erasure happens only at the adopter-frame boundary (the frame closure
//! is boxed to cross `spawn_local`), i.e. once per protocol steal instead
//! of once per iteration.
//!
//! # Publishing only when a peer is idle
//!
//! A frame no thief can take buys nothing, so the table, latch and frame
//! of step 1 are built only when some other worker of the pool is idle
//! ([`WorkerToken::peer_idle`]). Until then the initiator runs grain-sized
//! chunks of the range itself — no allocation, read-modify-write or push,
//! one `Relaxed` load of the idle count per chunk. At the first chunk
//! boundary with an idle peer, the *remainder* runs through steps 1–3
//! with `R` partitions of its own, so Theorem 3 and Lemma 4 hold on it
//! exactly as on a whole loop. A loop issued while a worker is idle — any
//! loop issued from outside to a resting pool — publishes its frame
//! before its first iteration, as the paper's `DoHybridLoop` does; only
//! loops issued by busy workers change. A loop on a pool with fault
//! injection takes steps 1–3 from its first iteration, so the
//! `FramePublish`, `Claim` and `PartitionBody` sites stay exercised.
//!
//! A loop that completes uncontended reports its `R` partitions with no
//! adoptions or failed claims. If a body panics there, every partition
//! none of whose iterations reached the body counts as skipped.
//!
//! # Completion-path ordering (fence audit)
//!
//! The only synchronization the initiator's return depends on is the
//! completion latch: each participant's partition executions
//! happen-before its (batched) `CountLatch::set_many`, whose `Release`
//! half joins the latch's release sequence; the initiator's `Acquire`
//! probe of zero therefore sees every partition's writes (proof in
//! `parloop_runtime::latch`). Everything else on the completion path is
//! *observability*, not synchronization, and runs `Relaxed`:
//!
//! * `adoptions` / `failed_claims` / `skipped` are monotone counters read
//!   once in `HybridState::report` *after* the latch resolves. Counts from
//!   any participant that executed a partition are ordered by the latch edge;
//!   a late adopter that claimed nothing may be missed by the snapshot —
//!   exactly as it could be under the previous `SeqCst`-strength RMWs,
//!   since no ordering makes "increments after the last decrement"
//!   visible to a snapshot that has already been taken.
//! * `poisoned` is a prompt-skip hint. Reading a stale `false` merely runs
//!   a partition body that a fresher read would have skipped — always
//!   allowed, since the poisoning panic races with that claim anyway. The
//!   authoritative panic payload travels under the `panic` mutex, and the
//!   deterministic skip tests run on one worker where coherence alone
//!   orders the store before the next claim's load.
//!
//! Batching the latch decrements (`LatchBatch`) turns `k` executed
//! partitions per walk into one RMW; the flush sits in a `Drop` impl so an
//! injected panic unwinding a walk still resolves everything it executed
//! (a stranded count would hang the initiator).

use std::any::Any;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use parloop_runtime::chaos::{chaos_spin, INJECTED_PANIC_MSG};
use parloop_runtime::{CountLatch, FaultAction, Site, TraceEvent, WorkerToken};

use crate::claim::{partitions_oversubscribed, ClaimTable, ClaimWalker};
use crate::lazy::{lazy_for_chunks, run_uncontended};
use crate::range::block_bounds;
use crate::schedule::{LoopError, LoopReport};
use crate::util::SendPtr;

/// Shared per-loop state. `F` is the (chunk) body type; the state never
/// owns the body — `body` is a lifetime-erased pointer to the caller's
/// borrow, dereferenced only while the caller still blocks on `latch`.
struct HybridState<F> {
    table: ClaimTable,
    latch: CountLatch,
    range_start: usize,
    n: usize,
    r_parts: usize,
    grain: usize,
    body: SendPtr<F>,
    /// Adopter frames spawned so far (the initial frame plus re-publishes).
    frames: AtomicUsize,
    /// Workers that actually adopted the loop via the steal protocol.
    adoptions: AtomicUsize,
    max_frames: usize,
    failed_claims: AtomicUsize,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    poisoned: AtomicBool,
    /// Claimed partitions whose body was skipped (the loop was poisoned).
    skipped: AtomicUsize,
}

impl<F> HybridState<F> {
    /// The partition worker `w` anchors its claim walk at: the paper's
    /// `r = w`, folded into `0..R`.
    fn earmark(&self, w: usize) -> usize {
        w % self.r_parts
    }

    /// Record the *first* panic and poison the loop so sibling partitions
    /// skip their bodies (still resolving the latch).
    fn record_panic(&self, payload: Box<dyn Any + Send>) {
        self.panic.lock().unwrap().get_or_insert(payload);
        self.poisoned.store(true, Ordering::Release);
    }

    /// Read the observability counters. Called only after the completion
    /// latch resolved, which orders every partition-executing
    /// participant's `Relaxed` increments before these loads (module
    /// docs); hence no per-load ordering is needed.
    fn report(&self) -> LoopReport {
        LoopReport {
            partitions: self.r_parts,
            adoptions: self.adoptions.load(Ordering::Relaxed),
            failed_claims: self.failed_claims.load(Ordering::Relaxed),
            skipped_partitions: self.skipped.load(Ordering::Relaxed),
        }
    }
}

/// Batches completion-latch decrements: a walk counts the partitions it
/// resolved locally and publishes one combined [`CountLatch::set_many`]
/// instead of one RMW per partition. The flush lives in `Drop` so a panic
/// unwinding a walk (injected claim faults) still resolves everything the
/// walk executed — a stranded count would hang the initiator.
struct LatchBatch<'a> {
    latch: &'a CountLatch,
    pending: usize,
}

impl<'a> LatchBatch<'a> {
    fn new(latch: &'a CountLatch) -> Self {
        LatchBatch { latch, pending: 0 }
    }

    #[inline]
    fn add_one(&mut self) {
        self.pending += 1;
    }
}

impl Drop for LatchBatch<'_> {
    fn drop(&mut self) {
        self.latch.set_many(self.pending);
    }
}

/// Execute `body` over chunks of `range` with the hybrid scheme and
/// `R = next_pow2(P · oversub)` partitions (the paper's general-`R`
/// setting, Theorem 5). Must be called on a pool worker (`token`). Without
/// fault injection, the loop runs uncontended until a peer is idle and
/// then hands its remainder to the hybrid scheme (module docs).
///
/// Panics are returned rather than resumed. Exactly-once (Theorem 3) is
/// preserved for the partitions that *did* run: poisoning only ever skips
/// whole partitions whose claim was won after the panic, never re-runs
/// one, and a skipped partition still resolves the completion latch.
pub(crate) fn hybrid_for<F>(
    token: WorkerToken,
    range: Range<usize>,
    grain: usize,
    oversub: usize,
    body: &F,
) -> Result<LoopReport, LoopError>
where
    F: Fn(Range<usize>) + Sync,
{
    let p = token.num_workers();
    let r_parts = partitions_oversubscribed(p, oversub);
    let mut lo = range.start;
    if !token.chaos_enabled() {
        let tracing = token.tracing_enabled();
        let run = catch_unwind(AssertUnwindSafe(|| {
            run_uncontended(&token, tracing, &mut lo, range.end, grain.max(1), body)
        }));
        if let Err(payload) = run {
            // `lo` is the end of the chunk that panicked: partitions that
            // start at or past it never reached the body.
            let n = range.len();
            let skipped = (0..r_parts)
                .filter(|&part| range.start + block_bounds(n, r_parts, part).start >= lo)
                .count();
            let report = LoopReport {
                partitions: r_parts,
                skipped_partitions: skipped,
                ..LoopReport::default()
            };
            return Err(LoopError::Panicked { report, payload });
        }
        if lo == range.end {
            return Ok(LoopReport { partitions: r_parts, ..LoopReport::default() });
        }
    }
    // A peer is idle (or the pool injects faults): publish the remainder.
    let range = lo..range.end;
    let n = range.len();

    let state = Arc::new(HybridState {
        table: ClaimTable::new(r_parts),
        latch: token.count_latch(r_parts),
        range_start: range.start,
        n,
        r_parts,
        grain,
        // SAFETY (lifetime erasure): this function blocks on `state.latch`
        // (all `R` partitions executed) before returning, and
        // `execute_partition` is the only deref site — every deref happens
        // before that partition's `latch.set()`, hence before we return.
        // Frames that run later hit the `all_claimed` early-return and
        // never touch `body`.
        body: SendPtr::new(body),
        frames: AtomicUsize::new(0),
        adoptions: AtomicUsize::new(0),
        max_frames: p,
        failed_claims: AtomicUsize::new(0),
        panic: Mutex::new(None),
        poisoned: AtomicBool::new(false),
        skipped: AtomicUsize::new(0),
    });

    // Publish the DoHybridLoop frame for thieves, then run it ourselves.
    // An injected publish fault must not unwind out of here (the stack
    // frames the state borrows from are still live), so it is captured
    // like a body panic.
    if let Err(payload) = catch_unwind(AssertUnwindSafe(|| publish_frame(&token, &state))) {
        state.record_panic(payload);
    }
    do_hybrid_loop(&token, &state);
    // Under fault injection the walkers above may have been *forced* to
    // lose claims or abandon their walk (injected claim panics), which
    // voids Lemma 2's liveness argument. The initiator therefore sweeps
    // everything still unclaimed before blocking, restoring termination.
    // Off the chaos path this branch is never taken (Lemma 2 applies).
    if token.chaos_enabled() {
        sweep_unclaimed(&token, &state);
    }
    token.wait_until(&state.latch);

    let report = state.report();
    let maybe_panic = state.panic.lock().unwrap().take();
    if let Some(payload) = maybe_panic {
        return Err(LoopError::Panicked { report, payload });
    }
    Ok(report)
}

/// Push one adopter frame onto the current worker's deque, if the protocol
/// budget (`P` frames per loop) allows. The budget is consumed only by
/// frames actually published: a CAS loop backs off without spending a slot
/// once the cap is reached, so `P` rejected attempts cannot starve later
/// legitimate re-publishes. Returns whether a frame was actually pushed.
fn publish_frame<F>(token: &WorkerToken, state: &Arc<HybridState<F>>) -> bool
where
    F: Fn(Range<usize>) + Sync,
{
    // Chaos site: a dropped publish models the frame never reaching the
    // deque (thieves simply cannot join; the initiator's walk — plus the
    // rescue sweep — still covers every partition). The gate sits before
    // the CAS so a dropped or panicked publish never burns budget.
    if token.chaos_enabled() {
        match token.chaos_decide(Site::FramePublish) {
            FaultAction::Fail => return false,
            FaultAction::Delay(spins) => chaos_spin(spins),
            FaultAction::Panic => panic!("{INJECTED_PANIC_MSG} (frame publish)"),
            FaultAction::None => {}
        }
    }
    let mut cur = state.frames.load(Ordering::Relaxed);
    loop {
        if cur >= state.max_frames {
            return false;
        }
        match state.frames.compare_exchange_weak(cur, cur + 1, Ordering::AcqRel, Ordering::Acquire)
        {
            Ok(_) => break,
            Err(seen) => cur = seen,
        }
    }
    let st = Arc::clone(state);
    let frame: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
        let token = WorkerToken::current().expect("adopter frames execute on pool workers");
        adopt_frame(token, st);
    });
    // SAFETY: erase the frame's lifetime (it captures `Arc<HybridState<F>>`
    // where `F` may borrow the caller's stack). A frame popped after the
    // loop completes only observes `all_claimed` and drops the Arc; the
    // body pointer inside is dereferenced solely for partitions claimed
    // while the initiator still blocks on the latch. Same pattern as the
    // lazy loop's assist handles.
    let frame: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(frame) };
    token.spawn_local(frame);
    true
}

/// The `DoHybridLoop` steal-protocol entry point, run by whichever worker
/// pops or steals an adopter frame.
fn adopt_frame<F>(token: WorkerToken, state: Arc<HybridState<F>>)
where
    F: Fn(Range<usize>) + Sync,
{
    if state.table.all_claimed() {
        return; // loop already fully claimed; nothing to adopt
    }
    let w = token.index();
    debug_assert!(w < state.r_parts, "worker id exceeds partition count");
    // The same earmark `claim_walk` will anchor at — the protocol's
    // "designated partition" check and the walk must agree, or a thief
    // could decline to adopt a loop whose anchor it would have won.
    if state.table.is_claimed(state.earmark(w)) {
        // Designated starting partition taken: fall back to ordinary
        // randomized work stealing (the worker can still steal chunks of
        // claimed partitions' inner loops).
        return;
    }
    // Relaxed: observability counter; ordering argument in module docs.
    state.adoptions.fetch_add(1, Ordering::Relaxed);
    token.trace(TraceEvent::HybridFrameStolen);
    // Re-instantiate the frame so later thieves can also join. Adopter
    // frames run from the scheduler's own loop, so an injected publish
    // panic is captured here rather than unwinding into the deque pop.
    match catch_unwind(AssertUnwindSafe(|| publish_frame(&token, &state))) {
        Ok(true) => token.trace(TraceEvent::FrameReinstantiated),
        Ok(false) => {}
        Err(payload) => state.record_panic(payload),
    }
    do_hybrid_loop(&token, &state);
}

/// Algorithm 3: the claim walk plus partition execution. Panics escaping
/// the walk (injected claim faults) are captured into the loop state —
/// unwinding past this frame would strand the adopter machinery.
fn do_hybrid_loop<F>(token: &WorkerToken, state: &Arc<HybridState<F>>)
where
    F: Fn(Range<usize>) + Sync,
{
    if let Err(payload) = catch_unwind(AssertUnwindSafe(|| claim_walk(token, state))) {
        state.record_panic(payload);
    }
}

/// The semi-deterministic claim walk itself (separated from
/// [`do_hybrid_loop`] so injected panics have a single catch point).
fn claim_walk<F>(token: &WorkerToken, state: &Arc<HybridState<F>>)
where
    F: Fn(Range<usize>) + Sync,
{
    let w = token.index();
    let tracing = token.tracing_enabled();
    let chaos = token.chaos_enabled();
    let mut walker = ClaimWalker::new(state.earmark(w), state.r_parts);
    // One combined latch decrement per walk instead of one per partition
    // (flushed on drop — including an unwind from an injected panic).
    let mut done = LatchBatch::new(&state.latch);
    while let Some(candidate) = walker.candidate() {
        // Chaos site: a forced loss makes the walker behave exactly as if
        // another worker had won the `fetch_or` race — the skip structure
        // (and with it Lemma 4's failed-run bound) must hold for arbitrary
        // claim outcomes, which is precisely what this exercises. The
        // `fetch_or` itself is skipped so the partition stays claimable.
        let mut forced_loss = false;
        if chaos {
            match token.chaos_decide(Site::Claim) {
                FaultAction::Fail => forced_loss = true,
                FaultAction::Delay(spins) => chaos_spin(spins),
                FaultAction::Panic => panic!("{INJECTED_PANIC_MSG} (claim)"),
                FaultAction::None => {}
            }
        }
        let won = !forced_loss && state.table.try_claim(candidate);
        if tracing {
            token.trace(TraceEvent::ClaimAttempt {
                success: won,
                index: walker.index() as u32,
                partition: candidate as u32,
            });
        }
        if let Some(part) = walker.record(won) {
            execute_partition(token, state, part);
            done.add_one();
        }
    }
    // Relaxed: observability counter; ordering argument in module docs.
    // This precedes the batch flush (drop of `done`), so a participant's
    // count is published by its own latch edge.
    state.failed_claims.fetch_add(walker.stats().failed, Ordering::Relaxed);
}

/// Claim-and-resolve every partition still unclaimed: the rescue path when
/// fault injection has forced claim losses or walk abandonment (voiding
/// Lemma 2's liveness argument). Claims here go straight through
/// `fetch_or` — no fault is ever injected into the sweep — so exactly-once
/// still holds: a swept partition is executed (or skip-counted) only by
/// its winning claimer.
fn sweep_unclaimed<F>(token: &WorkerToken, state: &Arc<HybridState<F>>)
where
    F: Fn(Range<usize>) + Sync,
{
    let mut done = LatchBatch::new(&state.latch);
    for part in 0..state.r_parts {
        if state.table.all_claimed() {
            break;
        }
        if state.table.try_claim(part) {
            execute_partition(token, state, part);
            done.add_one();
        }
    }
}

/// Run the iterations of partition `part` as a stealable inner loop.
fn execute_partition<F>(token: &WorkerToken, state: &Arc<HybridState<F>>, part: usize)
where
    F: Fn(Range<usize>) + Sync,
{
    // Relaxed on both: `poisoned` is a prompt-skip hint (the payload is
    // authoritative, under the panic mutex) and `skipped` an observability
    // counter — happens-before arguments in the module docs.
    if state.poisoned.load(Ordering::Relaxed) {
        // A sibling partition panicked: skip the body but keep the claim
        // walk and latch accounting alive so the loop still terminates.
        state.skipped.fetch_add(1, Ordering::Relaxed);
        return;
    }
    let rel = block_bounds(state.n, state.r_parts, part);
    let range = (state.range_start + rel.start)..(state.range_start + rel.end);
    // SAFETY: the initiator blocks on `latch` until all `R` partitions have
    // executed; every deref of `body` happens before its partition's
    // `latch.set()`, hence before `hybrid_for` returns.
    let body = unsafe { state.body.get() };
    let chaos = token.chaos_enabled();
    if let Err(payload) = catch_unwind(AssertUnwindSafe(|| {
        // Chaos site: faults *inside* the partition body, caught by the
        // same net as a user-code panic.
        if chaos {
            match token.chaos_decide(Site::PartitionBody) {
                FaultAction::Delay(spins) => chaos_spin(spins),
                FaultAction::Panic => panic!("{INJECTED_PANIC_MSG} (partition body)"),
                FaultAction::Fail | FaultAction::None => {}
            }
        }
        lazy_for_chunks(range, state.grain, body)
    })) {
        state.record_panic(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::rethrow;
    use parloop_runtime::ThreadPool;
    use std::sync::atomic::AtomicUsize;

    fn run_hybrid(
        pool: &ThreadPool,
        n: usize,
        grain: usize,
        body: impl Fn(usize) + Sync,
    ) -> LoopReport {
        pool.install(|| {
            let token = WorkerToken::current().unwrap();
            rethrow(hybrid_for(token, 0..n, grain, 1, &|chunk: Range<usize>| {
                for i in chunk {
                    body(i);
                }
            }))
        })
    }

    #[test]
    fn every_iteration_exactly_once() {
        for p in [1usize, 2, 3, 4, 7] {
            let pool = ThreadPool::new(p);
            let n = 5000;
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            let stats = run_hybrid(&pool, n, 64, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "P={p}: some iteration not executed exactly once"
            );
            assert_eq!(stats.partitions, p.next_power_of_two());
        }
    }

    #[test]
    fn empty_loop() {
        let pool = ThreadPool::new(4);
        let stats = run_hybrid(&pool, 0, 16, |_| panic!("no iterations"));
        assert_eq!(stats.partitions, 4);
    }

    #[test]
    fn fewer_iterations_than_partitions() {
        let pool = ThreadPool::new(8);
        let hits: Vec<AtomicUsize> = (0..3).map(|_| AtomicUsize::new(0)).collect();
        run_hybrid(&pool, 3, 4, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn single_worker_pool() {
        let pool = ThreadPool::new(1);
        let sum = AtomicUsize::new(0);
        let stats = run_hybrid(&pool, 1000, 32, |i| {
            sum.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), (0..1000).sum::<usize>());
        assert_eq!(stats.partitions, 1);
    }

    #[test]
    fn nested_hybrid_loops() {
        let pool = ThreadPool::new(4);
        let total = AtomicUsize::new(0);
        pool.install(|| {
            let token = WorkerToken::current().unwrap();
            rethrow(hybrid_for(token, 0..8, 1, 1, &|outer: Range<usize>| {
                for _ in outer {
                    let inner_token = WorkerToken::current().unwrap();
                    rethrow(hybrid_for(inner_token, 0..10, 2, 1, &|inner: Range<usize>| {
                        total.fetch_add(inner.len(), Ordering::Relaxed);
                    }));
                }
            }));
        });
        assert_eq!(total.load(Ordering::Relaxed), 80);
    }

    #[test]
    fn panic_in_body_propagates_and_pool_survives() {
        let pool = ThreadPool::new(4);
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_hybrid(&pool, 100, 4, |i| {
                if i == 37 {
                    panic!("iteration 37 dies");
                }
            });
        }));
        assert!(r.is_err());
        // Pool and hybrid machinery still usable.
        let sum = AtomicUsize::new(0);
        run_hybrid(&pool, 10, 2, |i| {
            sum.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 45);

        // The poisoned fast path now *counts* what it skips. On a 1-worker
        // pool with R=4 oversubscribed partitions the walk is sequential:
        // the first claimed partition panics, poisoning the loop, so the
        // remaining three are claimed but skipped — deterministically.
        let single = ThreadPool::new(1);
        let err = single
            .install(|| {
                let token = WorkerToken::current().unwrap();
                hybrid_for(token, 0..64, 4, 4, &|_chunk: Range<usize>| {
                    panic!("first partition dies");
                })
            })
            .expect_err("poisoned loop must report the panic");
        let stats = err.report();
        assert_eq!(stats.partitions, 4);
        assert_eq!(
            stats.skipped_partitions, 3,
            "all partitions after the poisoning one must be skip-counted"
        );
    }

    #[test]
    fn repeated_loops_reuse_pool() {
        let pool = ThreadPool::new(3);
        for _ in 0..50 {
            let count = AtomicUsize::new(0);
            run_hybrid(&pool, 256, 8, |_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(count.load(Ordering::Relaxed), 256);
        }
    }

    #[test]
    fn oversubscribed_partitions_cover_exactly_once() {
        let pool = ThreadPool::new(3);
        for oversub in [1usize, 2, 4, 8] {
            let n = 3000;
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            let stats = pool.install(|| {
                let token = WorkerToken::current().unwrap();
                rethrow(hybrid_for(token, 0..n, 16, oversub, &|chunk: Range<usize>| {
                    for i in chunk {
                        hits[i].fetch_add(1, Ordering::Relaxed);
                    }
                }))
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1), "oversub={oversub}");
            assert_eq!(stats.partitions, (3 * oversub).next_power_of_two());
        }
    }

    #[test]
    fn stats_adoptions_bounded_by_p() {
        let pool = ThreadPool::new(4);
        for _ in 0..10 {
            let stats = run_hybrid(&pool, 4096, 16, |i| {
                std::hint::black_box(i);
            });
            assert!(stats.adoptions <= 4, "adoptions {} > P", stats.adoptions);
        }
    }

    #[test]
    fn frame_budget_not_consumed_by_rejected_publishes() {
        // Regression: a rejected publish (budget full) must not burn a
        // slot. After the cap is hit, repeated publish attempts leave the
        // counter saturated at max_frames instead of overflowing past it.
        let pool = ThreadPool::new(2);
        pool.install(|| {
            let token = WorkerToken::current().unwrap();
            let body = |_: Range<usize>| {};
            let state = Arc::new(HybridState {
                table: ClaimTable::new(2),
                latch: token.count_latch(0),
                range_start: 0,
                n: 0,
                r_parts: 2,
                grain: 1,
                body: SendPtr::new(&body),
                frames: AtomicUsize::new(0),
                adoptions: AtomicUsize::new(0),
                max_frames: 2,
                failed_claims: AtomicUsize::new(0),
                panic: Mutex::new(None),
                poisoned: AtomicBool::new(false),
                skipped: AtomicUsize::new(0),
            });
            // Claim everything so the published frames are inert no-ops.
            state.table.try_claim(0);
            state.table.try_claim(1);
            for _ in 0..10 {
                publish_frame(&token, &state);
            }
            assert_eq!(state.frames.load(Ordering::Acquire), 2);
        });
    }
}
