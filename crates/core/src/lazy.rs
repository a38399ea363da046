//! Lazy, steal-driven loop splitting — the engine of every
//! dynamically-stolen loop: the `vanilla` scheme and the inner loop of
//! every claimed hybrid partition.
//!
//! Eager binary splitting (Cilk's divide-and-conquer `cilk_for`) pays one
//! `join` — a deque push, a Chase–Lev pop or steal, and a latch — at
//! *every* split level, so a loop of `n` iterations with grain `g` costs
//! `~n/g` deque round-trips even when zero steals occur. The paper's
//! Corollary 6 only needs chunks to be *stealable*, not pre-split; this
//! module splits only when a thief actually arrives (the work-assisting
//! idea):
//!
//! * The remaining range lives in **one packed atomic**
//!   (`u64 = end << 32 | cursor`, loop-relative 32-bit iteration indices).
//!   Claiming a chunk advances `cursor` by at most `grain`, clamped to
//!   `end`, so claims are monotone and never overshoot.
//! * The **owner** peels grain-sized chunks with a single atomic op each.
//!   While no assistant is registered (`shared` unset) the owner is the
//!   packed word's only writer: a plain load plus one release store per
//!   chunk — no CAS, no fence beyond the store.
//! * Exactly **one** stealable **assist handle** job sits in a deque. A
//!   thief that executes it *registers* (bumps `working`, sets `shared`,
//!   waits for the owner's `ack`), re-publishes the handle on its own
//!   deque so further thieves can join, and then claims chunks from the
//!   same cursor via CAS. Deque pushes per loop are therefore
//!   `O(assists + 1)`, not `O(n/grain)`.
//!
//! ## The exclusive→shared transition
//!
//! The owner's plain-store fast path is only sound while it is the single
//! writer. A registering assistant therefore never touches the cursor
//! until the owner has *acknowledged* the transition: the assistant sets
//! `shared` (release) and spins on `ack`; the owner checks `shared` once
//! per chunk and, on observing it, sets `ack` (release) and switches
//! permanently to CAS claiming. The owner also sets `ack` unconditionally
//! when it exits, so an assistant that registers after the owner's last
//! chunk never spins forever. The release/acquire pair on `ack` makes the
//! owner's last plain cursor store visible to the assistant's first CAS.
//!
//! The owner can also *wait* inside a chunk: a nested loop's latch, a
//! `join` whose other half was stolen. That wait runs jobs, and one of
//! them can be this loop's own assist handle, popped from the owner's
//! deque or stolen back from an assistant that re-published it. Its
//! registrant would spin on an `ack` that only the waiting frame below
//! it can store: a deadlock. So the owner runs its exclusive phase inside
//! `WorkerToken::exclusive_owner`, and any wait on that worker first
//! stores `shared`, then `ack`, for every loop it owns in that phase. An
//! `ack` spin therefore only ever waits on an owner running a chunk body,
//! never on a blocked one.
//!
//! ## Exactly-once and completion
//!
//! A chunk executes iff its claim advanced the cursor (a release store in
//! the exclusive phase, a successful CAS afterwards); the cursor is
//! monotone, so no index can be claimed twice, and participants stop at
//! `cursor == end`, so none is dropped. Completion uses a `working`
//! participant count (the owner starts at 1, every registering assistant
//! adds 1 *before* its first claim): whoever decrements it to zero sets
//! the loop's one-count latch (guarded so late no-op adoptions of a stale
//! handle cannot set it twice). The owner blocks on the latch — with zero
//! steals it decremented last itself and the wait is a single probe — and
//! re-raises the first captured panic. Panics poison the loop: the
//! panicking participant drains the cursor to `end`, so sibling
//! participants run dry promptly, the latch still resolves, and the body
//! pointer is never dereferenced after the owner returns.
//!
//! Chaos site [`Site::AssistClaim`] forces CAS losses (the participant
//! re-reads and retries exactly as if another assistant had won the race;
//! consecutive forced losses are capped at one so rate-1 plans still make
//! progress), delays, and one-shot panics inside the claim loop.
//!
//! ## The single-worker bypass
//!
//! Every piece above exists to coordinate with *thieves*, and a P = 1
//! pool cannot have any: the assist handle is only reachable by stealing,
//! and this worker — the only one — is busy running the loop. So with one
//! worker the loop skips the coordinator allocation, the latch, the
//! handshake and the claim machinery entirely and runs as a plain chunked
//! call ([`lazy_for_chunks`] dispatches to `run_uncontended`). Observable
//! behaviour is unchanged: chunk trace brackets still fire, panics still
//! propagate to the caller, and `Site::AssistClaim` is — as on the
//! coordinator path with zero assists — never consulted. The branch pays
//! for itself: at P = 1 the coordinator costs 69.0 ns per near-empty loop
//! against 10.9 for the bypass (`floor/lazy_coord/p1` vs `floor/lazy/p1`
//! in `BENCH_parloop.json`).
//!
//! ## Memory-ordering audit (per-site happens-before arguments)
//!
//! * `shared`/`ack` handshake: the assistant's `shared` release store is
//!   paired with the owner's acquire load; the owner's `ack` release store
//!   is paired with the assistant's acquire spin. The second pair is the
//!   load-bearing one: the owner's *last plain cursor store* precedes its
//!   `ack` store in program order, so the release/acquire edge on `ack`
//!   makes that store visible before the assistant's first CAS. Neither
//!   flag needs SeqCst — each direction of the handshake is a one-way
//!   message, not a Dekker-style mutual exclusion.
//! * Cursor claims: the exclusive-phase plain load may be Relaxed (the
//!   owner is the only writer until it acknowledges `shared`); the release
//!   store / AcqRel CAS publish each claim so a later claimant's acquire
//!   load sees every prior advance.
//! * `working`/`finished`/latch: `exit_participant`'s AcqRel `fetch_sub`
//!   is the completion edge — the Release half publishes this
//!   participant's chunk writes, and the final decrementer's Acquire half
//!   (plus the latch-probe acquire in the owner) pulls in all of them
//!   before `lazy_for_chunks` returns.
//! * `poisoned` is read Relaxed: it is a promptness hint only (see the
//!   comments at the two load sites); correctness rests on the drained
//!   cursor and the panic mutex.

use std::any::Any;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use parloop_runtime::chaos::{chaos_spin, INJECTED_PANIC_MSG};
use parloop_runtime::{CountLatch, FaultAction, Latch, Site, TraceEvent, WorkerToken};

use crate::util::SendPtr;

#[inline]
fn pack(cursor: u64, end: u64) -> u64 {
    end << 32 | cursor
}

#[inline]
fn unpack(packed: u64) -> (u64, u64) {
    (packed & 0xFFFF_FFFF, packed >> 32)
}

/// Shared per-loop state: the packed cursor, the exclusive→shared
/// handshake, and the completion/panic protocol. `F` is the chunk body
/// type; `body` is a lifetime-erased pointer to the caller's borrow,
/// dereferenced only for chunks claimed while the owner still blocks on
/// `latch`.
struct LoopCoordinator<F> {
    /// Remaining range, packed as `end << 32 | cursor` (loop-relative).
    range: AtomicU64,
    grain: usize,
    /// Absolute index of loop-relative iteration 0.
    offset: usize,
    body: SendPtr<F>,
    /// An assistant has registered; set (release) before spinning on
    /// `ack`. Once true the owner abandons its plain-store fast path.
    shared: AtomicBool,
    /// The owner acknowledged `shared` (or exited): all cursor writes go
    /// through CAS from here on. Assistants claim only after observing it.
    ack: AtomicBool,
    /// Participants currently claiming or executing (owner counts from
    /// construction; assistants add themselves *before* their first claim).
    working: AtomicUsize,
    /// One-count completion latch, set by whoever takes `working` to zero.
    latch: CountLatch,
    /// Guard so a late no-op adoption can never set the latch a second
    /// time after the owner has already returned.
    finished: AtomicBool,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    poisoned: AtomicBool,
}

impl<F> LoopCoordinator<F> {
    /// Record the *first* panic and poison the loop so every participant
    /// runs dry promptly.
    fn record_panic(&self, payload: Box<dyn Any + Send>) {
        self.panic.lock().unwrap().get_or_insert(payload);
        self.poisoned.store(true, Ordering::Release);
    }

    /// Jump the cursor to `end` so no further chunk can be claimed. Safe
    /// against concurrent CAS claims: the store changes the packed value,
    /// so any in-flight CAS that read an older word fails and its owner
    /// re-reads the exhausted cursor.
    fn drain(&self) {
        let (_, end) = unpack(self.range.load(Ordering::Acquire));
        self.range.store(pack(end, end), Ordering::Release);
    }
}

/// Execute `body(chunk)` over `range` with lazy steal-driven splitting;
/// chunks have at most `grain` iterations. Must run on a pool worker for
/// actual parallelism; off-pool it degrades to a sequential chunked call
/// (serial elision). The packed cursor is 32-bit, so a range longer than
/// `u32::MAX` iterations runs as consecutive lazy loops over segments of
/// at most `u32::MAX` iterations each.
///
/// On a **one-worker pool** the entire coordinator is bypassed: no thief
/// can ever exist, so the loop runs as a plain chunked call — zero
/// allocations, zero atomics, zero latch waits, and the `AssistClaim`
/// chaos site is never consulted (there is no claim loop to inject into).
/// Panics propagate unchanged (there is no sibling participant to poison).
pub fn lazy_for_chunks<F>(range: Range<usize>, grain: usize, body: &F)
where
    F: Fn(Range<usize>) + Sync,
{
    let grain = grain.max(1);
    let n = range.len();
    if n == 0 {
        return;
    }
    let Some(token) = WorkerToken::current() else {
        let mut lo = range.start;
        while lo < range.end {
            let hi = (lo + grain).min(range.end);
            body(lo..hi);
            lo = hi;
        }
        return;
    };
    let tracing = token.tracing_enabled();
    if n <= grain {
        run_chunk(&token, tracing, range, body);
        return;
    }
    // Single-worker bypass: the coordinator exists only to let thieves
    // join, and a P = 1 pool has none. See `run_uncontended`.
    if token.num_workers() == 1 {
        run_uncontended(&token, tracing, range, grain, body);
        return;
    }
    let mut lo = range.start;
    while lo < range.end {
        let hi = lo + (range.end - lo).min(u32::MAX as usize);
        coordinated_loop(&token, lo..hi, grain, body);
        lo = hi;
    }
}

/// The single-worker fast path: a plain loop over grain-sized chunks.
/// Keeps the `ChunkStart`/`ChunkEnd` trace bracket (observability is
/// unchanged) but allocates nothing and performs no atomic operation —
/// the per-loop fixed cost is the chunked call itself.
#[inline]
fn run_uncontended<F>(
    token: &WorkerToken,
    tracing: bool,
    range: Range<usize>,
    grain: usize,
    body: &F,
) where
    F: Fn(Range<usize>) + Sync,
{
    let mut lo = range.start;
    while lo < range.end {
        let hi = (lo + grain).min(range.end);
        run_chunk(token, tracing, lo..hi, body);
        lo = hi;
    }
}

/// The shared-cursor coordinator path (P > 1) over a range of at most
/// `u32::MAX` iterations.
fn coordinated_loop<F>(token: &WorkerToken, range: Range<usize>, grain: usize, body: &F)
where
    F: Fn(Range<usize>) + Sync,
{
    let state = Arc::new(LoopCoordinator {
        range: AtomicU64::new(pack(0, range.len() as u64)),
        grain,
        offset: range.start,
        // SAFETY (lifetime erasure): this function blocks on `state.latch`
        // before returning, and the latch is set only after `working`
        // reaches zero — i.e. after every participant has finished its
        // last chunk body. Every deref of `body` therefore happens before
        // the return; handles that run later observe the exhausted cursor
        // and never touch it.
        body: SendPtr::new(body),
        shared: AtomicBool::new(false),
        ack: AtomicBool::new(false),
        working: AtomicUsize::new(1),
        latch: token.count_latch(1),
        finished: AtomicBool::new(false),
        panic: Mutex::new(None),
        poisoned: AtomicBool::new(false),
    });

    // The single stealable entry point into this loop.
    publish_handle(token, &state);
    participate(token, &state, true);
    token.wait_until(&state.latch);

    let maybe_panic = state.panic.lock().unwrap().take();
    if let Some(payload) = maybe_panic {
        resume_unwind(payload);
    }
}

/// Push one assist handle onto the current worker's deque.
fn publish_handle<F>(token: &WorkerToken, state: &Arc<LoopCoordinator<F>>)
where
    F: Fn(Range<usize>) + Sync,
{
    let st = Arc::clone(state);
    let handle: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
        let token = WorkerToken::current().expect("assist handles execute on pool workers");
        adopt_handle(token, st);
    });
    // SAFETY: erase the handle's lifetime (it captures an
    // `Arc<LoopCoordinator<F>>` where `F` may borrow the caller's stack).
    // A handle popped after the loop completes observes the exhausted
    // cursor and drops the Arc without dereferencing `body`; chunks are
    // claimed only while the owner still blocks on the latch. Same
    // pattern as the hybrid scheduler's adopter frames.
    let handle: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(handle) };
    token.spawn_local(handle);
}

/// Entry point of a popped or stolen assist handle: register as an
/// assistant, re-publish the handle, and join the claim loop.
fn adopt_handle<F>(token: WorkerToken, state: Arc<LoopCoordinator<F>>)
where
    F: Fn(Range<usize>) + Sync,
{
    // Register *before* inspecting the cursor: once `working` is bumped,
    // the owner cannot resolve the latch under us, so a chunk we claim is
    // always awaited. (If the loop finished first, the decrement below is
    // a guarded no-op and `body` is never touched.)
    state.working.fetch_add(1, Ordering::AcqRel);
    let (cur, end) = unpack(state.range.load(Ordering::Acquire));
    if cur >= end {
        exit_participant(&state);
        return;
    }
    token.note_assist_join();
    token.trace(TraceEvent::AssistJoin);
    // Keep exactly one handle available for further thieves (fan-out is
    // O(active assistants), not O(n/grain)).
    publish_handle(&token, &state);
    // Handshake: announce, then wait for the owner to leave its
    // single-writer fast path. The owner checks `shared` once per chunk
    // and sets `ack` on observing it — or unconditionally on exit — and a
    // wait inside its chunk body sets `ack` before running any job, so
    // this spin is bounded by one chunk body that is not waiting. It is
    // the only wait inside a job that does not go through `wait_until`.
    state.shared.store(true, Ordering::Release);
    let mut spins = 0u32;
    while !state.ack.load(Ordering::Acquire) {
        spins = spins.wrapping_add(1);
        if spins.is_multiple_of(64) {
            std::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
    participate(&token, &state, false);
}

/// Run one participant (owner or assistant) to cursor exhaustion, then
/// run the completion protocol. Panics are captured into the loop state —
/// assistants must not unwind into the scheduler; the owner re-raises
/// after the latch resolves.
fn participate<F>(token: &WorkerToken, state: &Arc<LoopCoordinator<F>>, owner: bool)
where
    F: Fn(Range<usize>) + Sync,
{
    let tracing = token.tracing_enabled();
    let chaos = token.chaos_enabled();
    let result = catch_unwind(AssertUnwindSafe(|| {
        if owner {
            owner_loop(token, state, tracing, chaos);
        } else {
            claim_loop(token, state, tracing, chaos, true);
        }
    }));
    if let Err(payload) = result {
        state.record_panic(payload);
        state.drain();
        // A panicking owner may still be in its exclusive phase; release
        // any assistant spinning on the handshake.
        state.ack.store(true, Ordering::Release);
    }
    exit_participant(state);
}

/// Decrement `working`; whoever reaches zero resolves the latch (once).
fn exit_participant<F>(state: &LoopCoordinator<F>) {
    if state.working.fetch_sub(1, Ordering::AcqRel) == 1
        && !state.finished.swap(true, Ordering::AcqRel)
    {
        state.latch.set();
    }
}

/// The owner's fast path: while no assistant is registered the owner is
/// the packed word's only writer, so each chunk costs one plain load and
/// one release store. On observing `shared` the owner acknowledges and
/// joins the CAS claim loop; on exit it acknowledges unconditionally so a
/// late registrant never spins forever. A wait inside a chunk body stores
/// `shared` and `ack` for it first (`WorkerToken::exclusive_owner`).
fn owner_loop<F>(token: &WorkerToken, state: &Arc<LoopCoordinator<F>>, tracing: bool, chaos: bool)
where
    F: Fn(Range<usize>) + Sync,
{
    let shared = token.exclusive_owner(&state.shared, &state.ack, || loop {
        if state.shared.load(Ordering::Acquire) {
            return true;
        }
        // Ordering: Relaxed suffices — `poisoned` is a promptness hint,
        // not the correctness mechanism. The authoritative stop is
        // `drain()`'s cursor store (the panicking participant jumps the
        // cursor to `end`), which this loop observes through the packed
        // word itself; the panic payload is read under `state.panic`'s
        // mutex, whose lock provides the happens-before edge.
        if state.poisoned.load(Ordering::Relaxed) {
            state.drain();
            return false;
        }
        let (cur, end) = unpack(state.range.load(Ordering::Relaxed));
        if cur >= end {
            return false;
        }
        let next = (cur + state.grain as u64).min(end);
        state.range.store(pack(next, end), Ordering::Release);
        let chunk = (state.offset + cur as usize)..(state.offset + next as usize);
        // SAFETY: see `LoopCoordinator::body` — the owner still blocks on
        // the latch, so the borrow is live.
        run_chunk(token, tracing, chunk, unsafe { state.body.get() });
    });
    state.ack.store(true, Ordering::Release);
    if shared {
        claim_loop(token, state, tracing, chaos, false);
    }
}

/// The shared claim loop: CAS grain-sized chunks off the packed cursor
/// until it is exhausted (or the loop is poisoned). Used by every
/// assistant and by the owner after the exclusive→shared transition.
fn claim_loop<F>(
    token: &WorkerToken,
    state: &Arc<LoopCoordinator<F>>,
    tracing: bool,
    chaos: bool,
    assistant: bool,
) where
    F: Fn(Range<usize>) + Sync,
{
    // Chaos: a forced `Fail` models losing the CAS race; the next attempt
    // bypasses the gate so rate-1 plans degrade to every-other-attempt
    // losses instead of livelock.
    let mut gate_bypassed = false;
    loop {
        // Relaxed: same promptness-hint argument as in `owner_loop` — the
        // drained cursor, not this flag, is what guarantees no further
        // chunk is claimed after a panic.
        if state.poisoned.load(Ordering::Relaxed) {
            state.drain();
            return;
        }
        let packed = state.range.load(Ordering::Acquire);
        let (cur, end) = unpack(packed);
        if cur >= end {
            return;
        }
        if chaos && !gate_bypassed {
            match token.chaos_decide(Site::AssistClaim) {
                FaultAction::Fail | FaultAction::Kill => {
                    gate_bypassed = true;
                    continue;
                }
                FaultAction::Delay(spins) => chaos_spin(spins),
                FaultAction::Panic => panic!("{INJECTED_PANIC_MSG} (assist claim)"),
                FaultAction::None => {}
            }
        }
        gate_bypassed = false;
        let next = (cur + state.grain as u64).min(end);
        if state
            .range
            .compare_exchange_weak(packed, pack(next, end), Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            continue;
        }
        let chunk = (state.offset + cur as usize)..(state.offset + next as usize);
        if tracing && assistant {
            token.trace(TraceEvent::AssistChunk {
                start: chunk.start as u64,
                len: chunk.len() as u32,
            });
        }
        // SAFETY: the claim succeeded, so the owner still blocks on the
        // latch (`working` includes us) and the borrow is live.
        run_chunk(token, tracing, chunk, unsafe { state.body.get() });
    }
}

/// Run one chunk, bracketed with `ChunkStart`/`ChunkEnd` when the pool
/// records events. `tracing` is resolved once per loop (not per chunk),
/// so the tracing-off cost is a single boolean test.
#[inline]
fn run_chunk<F>(token: &WorkerToken, tracing: bool, chunk: Range<usize>, body: &F)
where
    F: Fn(Range<usize>) + Sync,
{
    if tracing {
        let (start, len) = (chunk.start as u64, chunk.len() as u32);
        token.trace(TraceEvent::ChunkStart { start, len });
        body(chunk);
        token.trace(TraceEvent::ChunkEnd { start, len });
    } else {
        body(chunk);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parloop_runtime::ThreadPool;
    use std::sync::atomic::AtomicUsize;

    fn hits_all_once(hits: &[AtomicUsize]) -> bool {
        hits.iter().all(|h| h.load(Ordering::Relaxed) == 1)
    }

    #[test]
    fn covers_every_iteration_exactly_once() {
        for p in [1usize, 2, 4] {
            let pool = ThreadPool::new(p);
            let n = 10_000;
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            pool.install(|| {
                lazy_for_chunks(0..n, 64, &|chunk: Range<usize>| {
                    for i in chunk {
                        hits[i].fetch_add(1, Ordering::Relaxed);
                    }
                });
            });
            assert!(hits_all_once(&hits), "P={p}");
        }
    }

    #[test]
    fn chunks_respect_grain_and_offset() {
        let pool = ThreadPool::new(2);
        let grain = 48;
        let hits: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        pool.install(|| {
            lazy_for_chunks(100..1100, grain, &|chunk: Range<usize>| {
                assert!(!chunk.is_empty() && chunk.len() <= grain);
                assert!(chunk.start >= 100 && chunk.end <= 1100);
                for i in chunk {
                    hits[i - 100].fetch_add(1, Ordering::Relaxed);
                }
            });
        });
        assert!(hits_all_once(&hits));
    }

    #[test]
    fn empty_and_single_chunk_ranges() {
        let pool = ThreadPool::new(2);
        pool.install(|| lazy_for_chunks(5..5, 8, &|_| panic!("no chunks expected")));
        let count = AtomicUsize::new(0);
        pool.install(|| {
            lazy_for_chunks(0..7, 8, &|chunk: Range<usize>| {
                count.fetch_add(chunk.len(), Ordering::Relaxed);
            });
        });
        assert_eq!(count.load(Ordering::Relaxed), 7);
    }

    #[test]
    fn grain_zero_treated_as_one() {
        let pool = ThreadPool::new(2);
        let count = AtomicUsize::new(0);
        pool.install(|| {
            lazy_for_chunks(0..17, 0, &|chunk: Range<usize>| {
                assert_eq!(chunk.len(), 1);
                count.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(count.load(Ordering::Relaxed), 17);
    }

    #[test]
    fn works_off_pool_sequentially() {
        let count = AtomicUsize::new(0);
        lazy_for_chunks(0..100, 10, &|chunk: Range<usize>| {
            assert_eq!(chunk.len(), 10);
            count.fetch_add(chunk.len(), Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn one_worker_loop_pushes_no_jobs() {
        let pool = ThreadPool::new(1);
        pool.install(|| {}); // settle install plumbing
        let before = pool.stats().jobs_pushed;
        pool.install(|| {
            lazy_for_chunks(0..100_000, 64, &|chunk: Range<usize>| {
                std::hint::black_box(chunk.len());
            });
        });
        // The handle is skipped on a one-worker pool; the only push is
        // install's own bridge job bookkeeping (which goes through the
        // injection lanes, not the deque).
        assert_eq!(pool.stats().jobs_pushed, before, "lazy loop must not push split jobs");
    }

    #[test]
    fn panic_in_owner_chunk_propagates_and_pool_survives() {
        let pool = ThreadPool::new(2);
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.install(|| {
                lazy_for_chunks(0..1000, 16, &|chunk: Range<usize>| {
                    if chunk.contains(&500) {
                        panic!("chunk dies");
                    }
                });
            });
        }));
        assert!(r.is_err());
        let count = AtomicUsize::new(0);
        pool.install(|| {
            lazy_for_chunks(0..64, 8, &|c: Range<usize>| {
                count.fetch_add(c.len(), Ordering::Relaxed);
            });
        });
        assert_eq!(count.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn ranges_past_u32_max_run_as_segments() {
        // The packed cursor holds 32-bit indices; a longer range runs as
        // consecutive lazy loops over segments of at most `u32::MAX`
        // iterations. About 1k chunks of 4 Mi iterations must still tile
        // the whole range, none above the grain.
        use crate::{par_for_chunks, Schedule};
        let grain = 1usize << 22;
        let n = u32::MAX as usize + 12_345;
        let pool = ThreadPool::new(2);
        let chunks = Mutex::new(Vec::new());
        par_for_chunks(&pool, 0..n, Schedule::DynamicStealing { grain: Some(grain) }, |c| {
            chunks.lock().unwrap().push(c);
        });
        let mut chunks = chunks.into_inner().unwrap();
        chunks.sort_by_key(|c| c.start);
        let mut expect = 0;
        for c in &chunks {
            assert_eq!(c.start, expect, "gap or overlap at {c:?}");
            assert!(!c.is_empty() && c.len() <= grain, "chunk {c:?} breaks the grain");
            expect = c.end;
        }
        assert_eq!(expect, n);
    }

    #[test]
    fn pack_unpack_round_trip() {
        for (cur, end) in [(0u64, 0u64), (0, 1), (17, 4096), (u32::MAX as u64, u32::MAX as u64)] {
            assert_eq!(unpack(pack(cur, end)), (cur, end));
        }
    }
}
