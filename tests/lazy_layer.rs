//! Integration tests for the lazy steal-driven splitter: exactly-once
//! coverage across adversarial loop shapes, nesting, hybrid composition,
//! assistant panic propagation, publishing only when a peer is idle, and
//! a seeded chaos sweep over the `AssistClaim` injection site.
//!
//! The chaos sweep honours `CHAOS_SEEDS` (default 32) like the other
//! chaos suites, so CI can dial the stress level.

mod common;

use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use common::{run_cases, wait_for_idle_peer};
use parloop::chaos::{PlannedInjector, Site, RATE_DENOM};
use parloop::core::lazy_for_chunks;
use parloop::runtime::{Latch, WorkerToken};
use parloop::{par_for_chunks, Schedule, ThreadPool, ThreadPoolBuilder};

fn seed_count() -> u64 {
    std::env::var("CHAOS_SEEDS").ok().and_then(|s| s.parse().ok()).unwrap_or(32)
}

fn assert_exactly_once(pool: &ThreadPool, n: usize, grain: usize) {
    let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
    pool.install(|| {
        lazy_for_chunks(0..n, grain, &|chunk| {
            assert!(!chunk.is_empty() && chunk.len() <= grain.max(1), "oversized chunk {chunk:?}");
            for i in chunk {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
    });
    for (i, h) in hits.iter().enumerate() {
        assert_eq!(
            h.load(Ordering::Relaxed),
            1,
            "n={n} grain={grain}: iteration {i} not exactly-once"
        );
    }
}

/// Exactly-once over the boundary shapes that break off-by-one splitters:
/// empty, single, one less / equal / one more than the grain, primes
/// (indivisible by any grain), and a million iterations.
#[test]
fn exactly_once_across_boundary_shapes() {
    let pool = ThreadPool::new(4);
    run_cases(0x1A2_2026, 3, |rng| {
        let grain = *[1usize, 7, 64, 512, 2048].get(rng.usize_in(0, 5)).unwrap();
        let ns = [0usize, 1, grain - 1, grain, grain + 1, 13, 1009, 7919, 104_729, 1_000_000];
        for &n in &ns {
            assert_exactly_once(&pool, n, grain);
        }
    });
}

/// Randomized (n, grain, pool size) shapes.
#[test]
fn exactly_once_random_shapes() {
    run_cases(0x1A2_BEEF, 12, |rng| {
        let p = rng.usize_in(1, 5);
        let n = rng.usize_in(0, 20_000);
        let grain = rng.usize_in(1, 300);
        let pool = ThreadPool::new(p);
        if n > 0 {
            assert_exactly_once(&pool, n, grain);
        }
    });
}

/// Lazy loops nest: each outer chunk starts an inner lazy loop on the same
/// pool (the inner owner is whichever worker runs the outer chunk, and both
/// loops' assist handles coexist in the deques).
#[test]
fn nested_lazy_loops_cover_exactly_once() {
    let pool = ThreadPool::new(4);
    let (outer_n, inner_n) = (8usize, 1000usize);
    let hits: Vec<AtomicUsize> = (0..outer_n * inner_n).map(|_| AtomicUsize::new(0)).collect();
    pool.install(|| {
        lazy_for_chunks(0..outer_n, 1, &|outer| {
            for o in outer {
                lazy_for_chunks(0..inner_n, 32, &|inner| {
                    for i in inner {
                        hits[o * inner_n + i].fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
    });
    assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
}

/// Regression test: an owner waiting inside its chunk, while an assistant
/// holds the loop's assist handle, completes. The loop is issued with the
/// other worker idle, so it publishes its handle at once; that worker
/// adopts it and re-publishes it. The owner's first chunk then waits on a
/// latch that only the loop's last chunk sets, and that wait can steal
/// the re-published handle back and run it on the owner's own stack. The
/// pool runs on a helper thread, so a deadlock fails the test instead of
/// hanging it.
#[test]
fn owner_waiting_in_its_chunk_survives_stealing_its_own_handle() {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let pool = ThreadPool::new(2);
        let n = 4;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        pool.install(|| {
            let worker = || WorkerToken::current().expect("runs on a pool worker");
            let last_chunk_ran = worker().count_latch(1);
            wait_for_idle_peer(Instant::now() + Duration::from_secs(10));
            lazy_for_chunks(0..n, 1, &|chunk| {
                if chunk.start == 0 {
                    // The owner's first chunk: the other worker has adopted
                    // the handle and holds it while it claims.
                    while pool.stats().assist_joins < 1 {
                        std::thread::yield_now();
                    }
                    worker().wait_until(&last_chunk_ran);
                }
                if chunk.end == n {
                    last_chunk_ran.set();
                }
                for i in chunk {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }
            });
        });
        let _ = tx.send(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    });
    let outcome = rx.recv_timeout(Duration::from_secs(10));
    assert_eq!(outcome, Ok(true), "the loop deadlocked or missed an iteration");
}

/// Runs `owner` on worker 0 of a 2-worker pool while worker 1 is held
/// busy in its team body, spinning until it is released: through the
/// flag `owner` is handed, or once `owner` returns. `owner` starts only
/// after a second flag shows the busy body running, so worker 1 has left
/// the idle count.
fn with_busy_peer(pool: &ThreadPool, owner: impl FnOnce(&AtomicBool) + Send) {
    /// Releases the busy body even if `owner` panics, so the broadcast can
    /// return and the failure surfaces instead of hanging.
    struct Release<'a>(&'a AtomicBool);
    impl Drop for Release<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Release);
        }
    }
    let running = AtomicBool::new(false);
    let release = AtomicBool::new(false);
    let owner = Mutex::new(Some(owner));
    assert_eq!(pool.num_workers(), 2);
    pool.broadcast_all(|w| {
        if w == 0 {
            let _release = Release(&release);
            let deadline = Instant::now() + Duration::from_secs(10);
            while !running.load(Ordering::Acquire) {
                assert!(Instant::now() < deadline, "the busy body never started");
                std::thread::yield_now();
            }
            let owner = owner.lock().unwrap().take().expect("worker 0 runs its body once");
            owner(&release);
        } else {
            running.store(true, Ordering::Release);
            while !release.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
        }
    });
}

fn all_once(hits: &[AtomicUsize]) -> bool {
    hits.iter().all(|h| h.load(Ordering::Relaxed) == 1)
}

/// With the only other worker busy, a lazy loop and a hybrid loop issued
/// on the owner publish nothing: no assist handle, no adopter frame, no
/// inner-loop handle. Each still covers its range exactly once.
#[test]
fn loops_with_a_busy_peer_push_no_job() {
    let pool = ThreadPool::new(2);
    let n = 4096;
    with_busy_peer(&pool, |_| {
        let pushed = pool.stats().jobs_pushed;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        lazy_for_chunks(0..n, 16, &|chunk| {
            for i in chunk {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(all_once(&hits), "lazy loop not exactly-once");
        assert_eq!(pool.stats().jobs_pushed, pushed, "the lazy loop published a job");

        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        par_for_chunks(&pool, 0..n, Schedule::hybrid().with_grain(16), |chunk| {
            for i in chunk {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(all_once(&hits), "hybrid loop not exactly-once");
        assert_eq!(pool.stats().jobs_pushed, pushed, "the hybrid loop published a job");
    });
}

/// A long loop that releases its busy peer from inside a chunk publishes
/// its remainder at a later chunk boundary, and the released worker runs
/// a later chunk. The interleaving is forced: the releasing chunk returns
/// only once the peer is counted idle, and the first owner chunk that
/// sees the publish in `jobs_pushed` waits until a chunk has run on the
/// released worker. `run` issues the loop: lazy or hybrid.
fn released_peer_joins(run: impl Fn(&ThreadPool, usize, &(dyn Fn(Range<usize>) + Sync)) + Sync) {
    let pool = ThreadPool::new(2);
    let n = 256;
    let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
    let ran_on_peer = AtomicBool::new(false);
    with_busy_peer(&pool, |release| {
        let owner = WorkerToken::current().unwrap().index();
        let pushed = pool.stats().jobs_pushed;
        let deadline = Instant::now() + Duration::from_secs(10);
        run(&pool, n, &|chunk| {
            let token = WorkerToken::current().unwrap();
            if token.index() != owner {
                ran_on_peer.store(true, Ordering::Release);
            } else if chunk.start == 8 {
                assert_eq!(pool.stats().jobs_pushed, pushed, "published before the release");
                release.store(true, Ordering::Release);
                while !token.peer_idle() {
                    assert!(Instant::now() < deadline, "the released peer never went idle");
                    std::thread::yield_now();
                }
            } else if pool.stats().jobs_pushed > pushed {
                while !ran_on_peer.load(Ordering::Acquire) {
                    assert!(Instant::now() < deadline, "no chunk ran on the released peer");
                    std::thread::yield_now();
                }
            }
            for i in chunk {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
    });
    assert!(ran_on_peer.load(Ordering::Acquire), "the released peer ran no chunk");
    assert!(all_once(&hits), "not exactly-once across the publish");
}

#[test]
fn released_peer_joins_a_lazy_loop_at_a_chunk_boundary() {
    released_peer_joins(|_, n, body| lazy_for_chunks(0..n, 1, &|c| body(c)));
}

#[test]
fn released_peer_joins_a_hybrid_loop_at_a_chunk_boundary() {
    released_peer_joins(|pool, n, body| {
        par_for_chunks(pool, 0..n, Schedule::hybrid().with_grain(1), body);
    });
}

/// The lazy engine under the hybrid scheduler with oversubscribed
/// partitions: every partition's inner loop is a lazy loop, and the whole
/// range is still covered exactly once.
#[test]
fn lazy_under_hybrid_with_oversub() {
    run_cases(0x1A2_0B1B, 6, |rng| {
        let p = rng.usize_in(1, 5);
        let n = rng.usize_in(1, 8_000);
        let oversub = *[1usize, 2, 4].get(rng.usize_in(0, 3)).unwrap();
        let pool = ThreadPool::new(p);
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        par_for_chunks(&pool, 0..n, Schedule::Hybrid { grain: Some(16), oversub }, |chunk| {
            for i in chunk {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(
            hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
            "p={p} n={n} oversub={oversub}"
        );
    });
}

/// A panic raised inside an *assistant's* chunk propagates to the loop's
/// owner and leaves the pool reusable. The assistant is made deterministic:
/// the loop is issued once the other worker is idle, so it publishes its
/// assist handle at once; the owner's first chunk blocks until that
/// worker has adopted the handle (visible through the always-on
/// `assist_joins` counter), and the body panics on any chunk that
/// executes on a non-owner worker.
#[test]
fn panic_in_assistant_propagates_and_pool_is_reusable() {
    let pool = ThreadPool::new(2);
    let joins_before = pool.stats().assist_joins;
    // Set by the assistant just before it panics; owner chunks stall until
    // they see it, so the loop cannot finish without an assistant chunk.
    let assistant_fired = AtomicBool::new(false);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        pool.install(|| {
            let owner = WorkerToken::current().unwrap().index();
            wait_for_idle_peer(Instant::now() + Duration::from_secs(10));
            lazy_for_chunks(0..4096, 16, &|chunk| {
                let me = WorkerToken::current().unwrap().index();
                if me != owner {
                    assistant_fired.store(true, Ordering::Release);
                    panic!("assistant chunk {chunk:?} dies");
                }
                let deadline = Instant::now() + Duration::from_secs(10);
                if chunk.start == 0 {
                    // Hold the owner's first chunk until a thief adopts
                    // the assist handle.
                    while pool.stats().assist_joins == joins_before {
                        assert!(Instant::now() < deadline, "no assistant joined within 10s");
                        std::thread::yield_now();
                    }
                } else {
                    // The assistant claims from the same cursor, so
                    // stalling here guarantees it wins a chunk (and
                    // panics) before the owner drains the loop.
                    while !assistant_fired.load(Ordering::Acquire) {
                        assert!(Instant::now() < deadline, "assistant never claimed a chunk");
                        std::thread::yield_now();
                    }
                }
            });
        });
    }));
    assert!(result.is_err(), "the assistant's panic must reach the owner");
    assert!(pool.stats().assist_joins > joins_before, "panic came from a registered assistant");

    // Pool healthy and reusable, exactly-once intact.
    assert!(!pool.is_degraded());
    let sum = AtomicUsize::new(0);
    pool.install(|| {
        lazy_for_chunks(0..100, 8, &|chunk| {
            for i in chunk {
                sum.fetch_add(i, Ordering::Relaxed);
            }
        });
    });
    assert_eq!(sum.load(Ordering::Relaxed), 4950);
}

/// A P = 1 lazy loop never has an idle peer, so it runs uncontended to
/// the end (no coordinator, no assist publish), covers everything exactly
/// once, and pushes nothing onto the deque.
#[test]
fn single_worker_bypass_exactly_once_and_pushes_nothing() {
    let pool = ThreadPool::new(1);
    for (n, grain) in [(1usize, 1usize), (64, 16), (1009, 7), (4096, 64), (100, 4096)] {
        let before = pool.stats().jobs_pushed;
        assert_exactly_once(&pool, n, grain);
        assert_eq!(
            pool.stats().jobs_pushed,
            before,
            "n={n} grain={grain}: a P=1 loop must not touch the deque"
        );
    }
}

/// A panic in an uncontended (P = 1) loop body propagates to the caller
/// and leaves the pool reusable — the uncontended run must not trade the
/// coordinator's panic protocol away.
#[test]
fn single_worker_bypass_propagates_panics_and_pool_survives() {
    let pool = ThreadPool::new(1);
    let ran = AtomicUsize::new(0);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        pool.install(|| {
            lazy_for_chunks(0..256, 16, &|chunk| {
                ran.fetch_add(1, Ordering::Relaxed);
                if chunk.contains(&100) {
                    panic!("uncontended chunk dies");
                }
            });
        });
    }));
    assert!(result.is_err(), "the uncontended run must re-throw body panics");
    // The uncontended run goes in order; the panic at chunk [96,112) stops
    // the loop after 7 chunks, never running the rest.
    assert_eq!(ran.load(Ordering::Relaxed), 7, "chunks after the panic must not run");
    assert!(!pool.is_degraded());
    let sum = AtomicUsize::new(0);
    pool.install(|| {
        lazy_for_chunks(0..100, 8, &|chunk| {
            for i in chunk {
                sum.fetch_add(i, Ordering::Relaxed);
            }
        });
    });
    assert_eq!(sum.load(Ordering::Relaxed), 4950);
}

/// Tripwire: on a 1-worker pool the `Site::AssistClaim` chaos gate must
/// never be consulted: the only worker runs the loop, so no peer is ever
/// idle and the loop never leaves its uncontended run for the claim
/// loop. The plan arms a full-rate,
/// panic-on-first-query fault at the site, so a single consultation fails
/// the run loudly; `queries_at` then pins the stronger "never consulted".
#[test]
fn single_worker_bypass_never_consults_assist_claim() {
    for seed in 0..seed_count().min(8) {
        let injector = Arc::new(
            PlannedInjector::quiet(seed)
                .with_rate(Site::AssistClaim, RATE_DENOM)
                .with_panic_at(Site::AssistClaim, 0),
        );
        let pool = ThreadPoolBuilder::new()
            .num_workers(1)
            .fault_injector(Arc::clone(&injector) as _)
            .build();
        for (n, grain) in [(512usize, 8usize), (2048, 64), (63, 16)] {
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            pool.install(|| {
                lazy_for_chunks(0..n, grain, &|chunk| {
                    for i in chunk {
                        hits[i].fetch_add(1, Ordering::Relaxed);
                    }
                });
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "seed {seed} n={n}: not exactly-once"
            );
        }
        assert_eq!(
            injector.queries_at(Site::AssistClaim),
            0,
            "seed {seed}: AssistClaim consulted on a single-worker pool"
        );
    }
}

/// Seeded chaos sweep over [`Site::AssistClaim`]: forced CAS losses,
/// delays, and (on odd seeds) a one-shot injected panic in the claim loop.
/// Exactly-once must hold whenever the loop completes; an injected panic
/// must surface as a panic (never a wrong answer) and leave the pool
/// reusable.
#[test]
fn assist_claim_chaos_sweep_preserves_exactly_once() {
    let p = 4;
    let n = 2048;
    let mut assist_claims = 0;
    for seed in 0..seed_count() {
        let mut injector =
            PlannedInjector::quiet(seed).with_rate(Site::AssistClaim, RATE_DENOM / 2);
        if seed % 2 == 1 {
            injector = injector.with_panic_at(Site::AssistClaim, seed % 5);
        }
        let injector = Arc::new(injector);
        let pool = ThreadPoolBuilder::new()
            .num_workers(p)
            .fault_injector(Arc::clone(&injector) as _)
            .build();

        for rep in 0..4 {
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                pool.install(|| {
                    lazy_for_chunks(0..n, 16, &|chunk| {
                        for i in chunk {
                            hits[i].fetch_add(1, Ordering::Relaxed);
                        }
                    });
                });
            }));
            match result {
                Ok(()) => {
                    for (i, h) in hits.iter().enumerate() {
                        assert_eq!(
                            h.load(Ordering::Relaxed),
                            1,
                            "seed {seed} rep {rep}: iteration {i} not exactly-once"
                        );
                    }
                }
                Err(_) => {
                    // Injected one-shot panic: nothing may have run twice.
                    for (i, h) in hits.iter().enumerate() {
                        assert!(
                            h.load(Ordering::Relaxed) <= 1,
                            "seed {seed} rep {rep}: iteration {i} ran twice under panic"
                        );
                    }
                }
            }
        }
        // Whatever the plan injected, the pool must finish a clean loop.
        let sum = AtomicUsize::new(0);
        let clean = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.install(|| {
                lazy_for_chunks(0..100, 8, &|chunk| {
                    for i in chunk {
                        sum.fetch_add(i, Ordering::Relaxed);
                    }
                });
            });
        }));
        if clean.is_ok() {
            assert_eq!(sum.load(Ordering::Relaxed), 4950, "seed {seed}: wrong sum after chaos");
        }
        drop(pool);
        assist_claims += injector.queries_at(Site::AssistClaim);
    }
    // Loops publish only when a peer is idle, so the sweep must still
    // reach the claim loop it exists to exercise.
    assert!(assist_claims > 0, "no loop of the sweep ever consulted AssistClaim");
}

/// Full-rate forced CAS losses must not livelock: the in-loop cap on
/// consecutive forced losses guarantees progress even when the plan says
/// "fail every attempt".
#[test]
fn rate_one_assist_claim_losses_still_make_progress() {
    let injector = PlannedInjector::quiet(99).with_rate(Site::AssistClaim, RATE_DENOM);
    let pool = ThreadPoolBuilder::new().num_workers(2).fault_injector(Arc::new(injector)).build();
    let hits: Vec<AtomicUsize> = (0..1024).map(|_| AtomicUsize::new(0)).collect();
    pool.install(|| {
        lazy_for_chunks(0..1024, 8, &|chunk| {
            for i in chunk {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
    });
    assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
}
