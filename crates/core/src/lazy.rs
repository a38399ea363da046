//! Lazy, steal-driven loop splitting — the engine of every
//! dynamically-stolen loop: the `vanilla` scheme and the inner loop of
//! every claimed hybrid partition.
//!
//! Eager binary splitting (Cilk's divide-and-conquer `cilk_for`) pays one
//! `spawn`/`sync` pair — a deque push, a Chase–Lev pop or steal, and a
//! latch — at *every* split level, so a loop of `n` iterations with grain `g` costs
//! `~n/g` deque round-trips even when zero steals occur. The paper's
//! Corollary 6 only needs chunks to be *stealable*, not pre-split; this
//! module splits only when a thief actually arrives (the work-assisting
//! idea), and publishes the loop at all only when a thief exists.
//!
//! ## Publish only when a peer is idle
//!
//! A loop starts **uncontended**: the issuing worker runs grain-sized
//! chunks itself, with no allocation, no read-modify-write and no deque
//! push, and reads the pool's idle count once per chunk
//! ([`WorkerToken::peer_idle`], one `Relaxed` load). While no other worker
//! is idle, nobody could take a published piece of the loop anyway. At the
//! first chunk boundary where a peer is idle, the rest of the range is
//! **promoted** to a coordinated loop (below), which that peer can steal
//! into. A loop issued while a peer is idle is promoted before its first
//! chunk; a loop on a one-worker pool never is. Chunk trace brackets fire
//! on both paths, and a body panic propagates to the caller on both.
//!
//! The price is a promotion delay: a worker that goes idle waits for the
//! chunk the owner is running to return before it can join. If that chunk
//! blocks in a nested wait, the remainder stays unpublished until the
//! chunk returns.
//!
//! **Body contract.** A chunk body must not wait for a later chunk of its
//! own loop. Uncontended, the later chunk runs only after this one
//! returns, so such a body deadlocks — as it does off-pool, under serial
//! elision.
//!
//! ## The coordinated loop
//!
//! * The remaining range lives in **one packed atomic**
//!   (`u64 = end << 32 | cursor`, loop-relative 32-bit iteration indices).
//!   Claiming a chunk advances `cursor` by at most `grain`, clamped to
//!   `end`, so claims are monotone and never overshoot.
//! * Every participant — the owner and each assistant — claims
//!   grain-sized chunks by CAS on the packed word. A coordinated loop
//!   exists only when a taker is present, so the owner has no
//!   single-writer phase to protect and claims by CAS from its first
//!   chunk.
//! * Exactly **one** stealable **assist handle** job sits in a deque. A
//!   thief that executes it *registers* (bumps `working`), re-publishes
//!   the handle on its own deque so further thieves can join, and claims
//!   chunks from the same cursor. Deque pushes per loop are therefore
//!   `O(assists + 1)`, not `O(n/grain)`.
//!
//! No participant spins on another: the owner's one wait, on the loop's
//! latch, runs other jobs while it waits. The owner can also wait *inside*
//! a chunk — on a nested loop's latch, say — and that wait may run this
//! loop's own assist handle, popped from the owner's deque or stolen back
//! from an assistant that re-published it. The handle just claims what is
//! left of the cursor and returns, so the self-adoption cycle of an
//! owner-acknowledged handshake cannot form.
//!
//! ## Exactly-once and completion
//!
//! A chunk executes iff its CAS advanced the cursor; the cursor is
//! monotone, so no index can be claimed twice, and participants stop at
//! `cursor == end`, so none is dropped. The uncontended run and the
//! promoted remainder split the range at one chunk boundary, and only the
//! owner runs the former. Completion uses a `working` participant count
//! (the owner starts at 1, every registering assistant adds 1 *before*
//! its first claim): whoever decrements it to zero sets the loop's
//! one-count latch (guarded so late no-op adoptions of a stale handle
//! cannot set it twice). The owner blocks on the latch — with zero steals
//! it decremented last itself and the wait is a single probe — and
//! re-raises the first captured panic. Panics poison the loop: the
//! panicking participant drains the cursor to `end`, so sibling
//! participants run dry promptly, the latch still resolves, and the body
//! pointer is never dereferenced after the owner returns.
//!
//! Chaos site [`Site::AssistClaim`] forces CAS losses (the participant
//! re-reads and retries exactly as if another participant had won the
//! race; consecutive forced losses are capped at one so rate-1 plans
//! still make progress), delays, and one-shot panics inside the claim
//! loop. It is consulted by every participant of a coordinated loop and
//! never in the uncontended run.
//!
//! ## Memory-ordering audit (per-site happens-before arguments)
//!
//! * The idle-count read is `Relaxed`: it only decides *whether* to
//!   publish. A stale read delays a promotion by one chunk or promotes a
//!   loop nobody assists; exactly-once rests on the cursor CAS either way
//!   (argument in `parloop_runtime`'s registry docs).
//! * Cursor claims: the AcqRel CAS publishes each claim, so a later
//!   claimant's acquire load sees every prior advance. The coordinator is
//!   initialized before its handle is pushed, and the deque's push/steal
//!   release/acquire pair makes the initial cursor word visible to an
//!   assistant's first load.
//! * `working`/`finished`/latch: `exit_participant`'s AcqRel `fetch_sub`
//!   is the completion edge — the Release half publishes this
//!   participant's chunk writes, and the final decrementer's Acquire half
//!   (plus the latch-probe acquire in the owner) pulls in all of them
//!   before `lazy_for_chunks` returns.
//! * `poisoned` is read Relaxed: it is a promptness hint only (see the
//!   comment at its load site); correctness rests on the drained cursor
//!   and the panic mutex.

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

/// Shared per-loop state: the packed cursor and the completion/panic
/// protocol. `F` is the chunk body type; `body` is a lifetime-erased
/// pointer to the caller's borrow, dereferenced only for chunks claimed
/// while the owner still blocks on `latch`.
struct LoopCoordinator<F> {
    /// Remaining range, packed as `end << 32 | cursor` (loop-relative).
    range: AtomicU64,
    grain: usize,
    /// Absolute index of loop-relative iteration 0.
    offset: usize,
    body: SendPtr<F>,
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
/// (serial elision).
///
/// The loop runs uncontended — chunk after chunk on this worker, with no
/// allocation, read-modify-write or deque push — while no other worker of
/// the pool is idle, and publishes the rest of the range for assistants
/// at the first chunk boundary where one is (module docs). A one-worker
/// pool therefore never publishes, and the `AssistClaim` chaos site is
/// consulted only once a loop has been published.
///
/// A chunk body must not wait for a later chunk of its own loop: run
/// uncontended, or off-pool, that body deadlocks.
///
/// The packed cursor is 32-bit, so a published remainder longer than
/// `u32::MAX` iterations runs as consecutive coordinated loops over
/// segments of at most `u32::MAX` iterations each.
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
    let mut lo = range.start;
    run_uncontended(&token, tracing, &mut lo, range.end, grain, body);
    while lo < range.end {
        let hi = lo + (range.end - lo).min(u32::MAX as usize);
        coordinated_loop(&token, lo..hi, grain, body);
        lo = hi;
    }
}

/// The uncontended run: execute grain-sized chunks from `*lo` up to `end`
/// on this worker while no peer is idle, reading the idle count once per
/// chunk. `*lo` advances past each chunk before its body runs, so on
/// return it is where the unpublished remainder starts (`end` once the
/// loop ran to completion), and after a body panic it is the end of the
/// chunk that panicked. Keeps the `ChunkStart`/`ChunkEnd` trace bracket
/// but allocates nothing and performs no read-modify-write.
#[inline]
pub(crate) fn run_uncontended<F>(
    token: &WorkerToken,
    tracing: bool,
    lo: &mut usize,
    end: usize,
    grain: usize,
    body: &F,
) where
    F: Fn(Range<usize>) + Sync,
{
    while *lo < end && !token.peer_idle() {
        let start = *lo;
        *lo = (start + grain).min(end);
        run_chunk(token, tracing, start..*lo, body);
    }
}

/// A published loop over a range of at most `u32::MAX` iterations: push
/// the assist handle, claim alongside any assistants, wait for them.
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
        working: AtomicUsize::new(1),
        latch: token.count_latch(1),
        finished: AtomicBool::new(false),
        panic: Mutex::new(None),
        poisoned: AtomicBool::new(false),
    });

    // The single stealable entry point into this loop.
    publish_handle(token, &state);
    participate(token, &state, false);
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
    participate(&token, &state, true);
}

/// Run one participant (owner or assistant) to cursor exhaustion, then
/// run the completion protocol. Panics are captured into the loop state —
/// assistants must not unwind into the scheduler; the owner re-raises
/// after the latch resolves.
fn participate<F>(token: &WorkerToken, state: &Arc<LoopCoordinator<F>>, assistant: bool)
where
    F: Fn(Range<usize>) + Sync,
{
    let result = catch_unwind(AssertUnwindSafe(|| claim_loop(token, state, assistant)));
    if let Err(payload) = result {
        state.record_panic(payload);
        state.drain();
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

/// The claim loop: CAS grain-sized chunks off the packed cursor until it
/// is exhausted (or the loop is poisoned). Run by the owner and by every
/// assistant.
fn claim_loop<F>(token: &WorkerToken, state: &Arc<LoopCoordinator<F>>, assistant: bool)
where
    F: Fn(Range<usize>) + Sync,
{
    let tracing = token.tracing_enabled();
    let chaos = token.chaos_enabled();
    // Chaos: a forced `Fail` models losing the CAS race; the next attempt
    // bypasses the gate so rate-1 plans degrade to every-other-attempt
    // losses instead of livelock.
    let mut gate_bypassed = false;
    loop {
        // Ordering: Relaxed suffices — `poisoned` is a promptness hint,
        // not the correctness mechanism. The authoritative stop is
        // `drain()`'s cursor store (the panicking participant jumps the
        // cursor to `end`), which this loop observes through the packed
        // word itself; the panic payload is read under `state.panic`'s
        // mutex, whose lock provides the happens-before edge.
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
                FaultAction::Fail => {
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
