//! Stress and lifecycle tests for the work-stealing runtime under
//! oversubscription (this host has one core, so every pool > 1 is
//! heavily preempted — a good adversarial schedule generator).

use parloop::core::{par_for, Schedule};
use parloop::runtime::{join, scope, ThreadPool, ThreadPoolBuilder};
use parloop::{global_pool, init_global, teardown_global, GlobalError};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

mod common;
use common::{threads_named, threads_named_settled};

#[test]
fn many_short_lived_pools() {
    for round in 0..30 {
        let p = 1 + round % 5;
        let pool = ThreadPool::new(p);
        let count = AtomicUsize::new(0);
        pool.install(|| {
            join(
                || count.fetch_add(1, Ordering::Relaxed),
                || count.fetch_add(1, Ordering::Relaxed),
            );
        });
        assert_eq!(count.load(Ordering::Relaxed), 2);
        // Drop immediately: shutdown must not hang or leak stack jobs.
    }
}

#[test]
fn deep_join_tree_with_stealing() {
    let pool = ThreadPool::new(4);
    fn sum(lo: u64, hi: u64) -> u64 {
        if hi - lo <= 32 {
            return (lo..hi).sum();
        }
        let mid = lo + (hi - lo) / 2;
        let (a, b) = join(|| sum(lo, mid), || sum(mid, hi));
        a + b
    }
    let n = 1 << 16;
    assert_eq!(pool.install(|| sum(0, n)), n * (n - 1) / 2);
    let stats = pool.stats();
    assert!(stats.jobs_executed > 0);
}

#[test]
fn scopes_spawning_parallel_loops() {
    let pool = ThreadPool::new(3);
    let total = AtomicUsize::new(0);
    let pool_ref = &pool;
    let total_ref = &total;
    pool.install(|| {
        scope(|s| {
            for _ in 0..8 {
                s.spawn(move |_| {
                    // A full parallel loop from inside a scoped task.
                    par_for(pool_ref, 0..64, Schedule::vanilla(), |_| {
                        total_ref.fetch_add(1, Ordering::Relaxed);
                    });
                });
            }
        });
    });
    assert_eq!(total.load(Ordering::Relaxed), 8 * 64);
}

#[test]
fn hybrid_under_oversubscription_is_exactly_once() {
    // 16 workers on (at most) a few cores: extreme preemption.
    let pool = ThreadPool::new(16);
    let n = 20_000;
    let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
    par_for(&pool, 0..n, Schedule::hybrid(), |i| {
        hits[i].fetch_add(1, Ordering::Relaxed);
    });
    assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
}

#[test]
fn alternating_schedules_many_rounds() {
    let pool = ThreadPool::new(4);
    let roster = Schedule::roster(512, 4);
    let count = Arc::new(AtomicUsize::new(0));
    for round in 0..60 {
        let sched = roster[round % roster.len()];
        let c = Arc::clone(&count);
        par_for(&pool, 0..512, sched, move |_| {
            c.fetch_add(1, Ordering::Relaxed);
        });
    }
    assert_eq!(count.load(Ordering::Relaxed), 60 * 512);
}

#[test]
fn panic_storm_leaves_pool_usable() {
    let pool = ThreadPool::new(3);
    for i in 0..10 {
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par_for(&pool, 0..100, Schedule::roster(100, 3)[i % 6], |j| {
                if j == 50 {
                    panic!("round {i}");
                }
            });
        }));
        assert!(r.is_err(), "round {i} should have panicked");
    }
    // Still fully functional afterwards.
    let count = AtomicUsize::new(0);
    par_for(&pool, 0..1000, Schedule::hybrid(), |_| {
        count.fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(count.load(Ordering::Relaxed), 1000);
}

#[test]
fn results_flow_out_of_install() {
    let pool = ThreadPool::new(2);
    let v: Vec<u64> = pool.install(|| {
        let (mut a, b) = join(
            || (0..100u64).map(|i| i * 2).collect::<Vec<_>>(),
            || (100..200u64).map(|i| i * 2).collect::<Vec<_>>(),
        );
        a.extend(b);
        a
    });
    assert_eq!(v.len(), 200);
    assert_eq!(v[199], 398);
}

// ---------------------------------------------------------------------
// Global-registry lifecycle (`parloop::tenant::global`).
//
// The registry is process-global state, and `cargo test` runs every
// `#[test]` in this binary concurrently — so the lifecycle tests
// serialize on one mutex and each starts from a torn-down registry.
// ---------------------------------------------------------------------

static GLOBAL_REGISTRY_LOCK: Mutex<()> = Mutex::new(());

/// Start from no global pool, whatever earlier tests did.
fn reset_global() {
    match teardown_global() {
        Ok(_) => {}
        Err(e) => panic!("stale global-pool reference leaked by an earlier test: {e}"),
    }
    assert_eq!(
        threads_named_settled("parloop-global", 0),
        0,
        "torn-down global pool left threads alive"
    );
}

#[test]
fn global_pool_initializes_once_under_a_first_use_race() {
    let _serial = GLOBAL_REGISTRY_LOCK.lock().unwrap();
    reset_global();

    // Many threads race the lazy first use: exactly one pool is built and
    // everyone gets it.
    let pools: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8).map(|_| s.spawn(global_pool)).collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let first = Arc::as_ptr(&pools[0]);
    assert!(pools.iter().all(|p| Arc::as_ptr(p) == first), "racing first uses built two pools");
    assert!(threads_named("parloop-global") >= 1);

    // The pool works like any explicit pool.
    let count = AtomicUsize::new(0);
    par_for(&pools[0], 0..512, Schedule::hybrid(), |_| {
        count.fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(count.load(Ordering::Relaxed), 512);

    drop(pools);
    assert_eq!(teardown_global(), Ok(true));
    assert_eq!(
        threads_named_settled("parloop-global", 0),
        0,
        "teardown_global leaked worker threads"
    );
}

#[test]
fn init_global_after_any_pool_exists_is_an_error() {
    let _serial = GLOBAL_REGISTRY_LOCK.lock().unwrap();
    reset_global();

    // Explicit init wins when it comes first...
    let pool =
        init_global(ThreadPoolBuilder::new().num_workers(2).thread_name_prefix("parloop-global"))
            .expect("first init on an empty registry");
    assert_eq!(pool.num_workers(), 2);
    assert_eq!(Arc::as_ptr(&global_pool()), Arc::as_ptr(&pool));

    // ...and a second init errors instead of replacing a live pool.
    let again = ThreadPoolBuilder::new().num_workers(1).thread_name_prefix("parloop-global");
    assert!(matches!(init_global(again), Err(GlobalError::AlreadyInitialized)));

    drop(pool);
    assert_eq!(teardown_global(), Ok(true));

    // The same error fires when the pool was built lazily.
    drop(global_pool());
    let late = ThreadPoolBuilder::new().num_workers(1).thread_name_prefix("parloop-global");
    assert!(matches!(init_global(late), Err(GlobalError::AlreadyInitialized)));
    assert_eq!(teardown_global(), Ok(true));
}

#[test]
fn teardown_is_refused_while_handles_live_and_joins_when_they_drop() {
    let _serial = GLOBAL_REGISTRY_LOCK.lock().unwrap();
    reset_global();

    assert_eq!(teardown_global(), Ok(false), "teardown of nothing is a no-op");
    assert!(parloop::tenant::global_pool_if_initialized().is_none());

    let handle = global_pool();
    assert!(threads_named("parloop-global") >= 1);

    // A live handle blocks teardown and the pool keeps running.
    assert_eq!(teardown_global(), Err(GlobalError::Busy));
    assert_eq!(handle.install(|| 6 * 7), 42);

    drop(handle);
    assert_eq!(teardown_global(), Ok(true));
    assert_eq!(
        threads_named_settled("parloop-global", 0),
        0,
        "teardown_global leaked worker threads"
    );
    assert!(parloop::tenant::global_pool_if_initialized().is_none());
}

/// Teardown racing the self-healing respawn path: the global pool runs
/// under a chaos plan that keeps killing workers at the `WorkerExit`
/// site, and `teardown_global` lands while respawns may be in flight.
/// Drop must wait out in-flight respawns (never orphaning a replacement
/// thread, never double-joining a slot) and release every thread.
#[test]
fn teardown_global_during_respawn_joins_everything() {
    let _serial = GLOBAL_REGISTRY_LOCK.lock().unwrap();
    reset_global();

    for seed in 0..8u64 {
        // A kill every ~200 WorkerExit visits: respawn churn for the
        // whole lifetime of the pool, including the teardown window.
        let mut injector = parloop::PlannedInjector::quiet(seed);
        for k in 0..64 {
            injector = injector.with_kill_at(k * 200);
        }
        let pool = init_global(
            ThreadPoolBuilder::new()
                .num_workers(3)
                .thread_name_prefix("parloop-global")
                .fault_injector(Arc::new(injector)),
        )
        .expect("registry torn down at loop top");

        let ran = Arc::new(AtomicUsize::new(0));
        for _ in 0..16 {
            let ran = Arc::clone(&ran);
            pool.spawn_detached(move || {
                ran.fetch_add(1, Ordering::SeqCst);
            });
        }
        let count = AtomicUsize::new(0);
        par_for(&pool, 0..512, Schedule::hybrid(), |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 512, "seed {seed}");

        // Tear down immediately — kills (and therefore respawns) may
        // still be in flight from the loop above.
        drop(pool);
        assert_eq!(teardown_global(), Ok(true), "seed {seed}");
        assert_eq!(
            threads_named_settled("parloop-global", 0),
            0,
            "seed {seed}: teardown under respawn churn leaked worker threads"
        );
        assert_eq!(ran.load(Ordering::SeqCst), 16, "seed {seed}: detached job lost in teardown");
    }
}

#[test]
fn dropping_pool_with_running_and_panicking_detached_jobs_is_clean() {
    // Detached jobs are fire-and-forget: some run long, some panic, and
    // the pool is dropped while they are still in flight. Drop must wait
    // for in-progress jobs, absorb the panics (workers may be marked
    // degraded, but the process must not abort), and release every thread.
    let started = Arc::new(AtomicUsize::new(0));
    let finished = Arc::new(AtomicUsize::new(0));
    let panicked = Arc::new(AtomicUsize::new(0));
    {
        let pool = ThreadPool::new(3);
        for i in 0..24 {
            let started = Arc::clone(&started);
            let finished = Arc::clone(&finished);
            let panicked = Arc::clone(&panicked);
            pool.spawn_detached(move || {
                started.fetch_add(1, Ordering::SeqCst);
                if i % 3 == 0 {
                    panicked.fetch_add(1, Ordering::SeqCst);
                    panic!("detached job {i} dies mid-flight");
                }
                std::thread::sleep(std::time::Duration::from_millis(2));
                finished.fetch_add(1, Ordering::SeqCst);
            });
        }
        // Give some jobs a chance to be mid-body when the drop begins.
        while started.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        // `pool` dropped here with jobs running, queued, and panicking.
    }
    // After drop returns no job is still running, so every job that
    // started either finished or panicked — drop never tears a body in
    // half, and the in-flight panics did not abort the teardown.
    let s = started.load(Ordering::SeqCst);
    assert!(s >= 1, "no detached job ever started");
    assert_eq!(
        finished.load(Ordering::SeqCst) + panicked.load(Ordering::SeqCst),
        s,
        "a started job neither finished nor panicked: torn by drop"
    );
}
