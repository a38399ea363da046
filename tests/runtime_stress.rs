//! Stress and lifecycle tests for the work-stealing runtime under
//! oversubscription (this host has one core, so every pool > 1 is
//! heavily preempted — a good adversarial schedule generator).

use parloop::core::{par_for, Schedule};
use parloop::runtime::{join, scope, ThreadPool, ThreadPoolBuilder};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

mod common;
use common::threads_named_settled;

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

/// Drop racing the self-healing respawn path: the pool runs under a chaos
/// plan that keeps killing workers at the `WorkerExit` site, and the drop
/// lands while respawns may be in flight. Drop must wait out in-flight
/// respawns (never orphaning a replacement thread, never double-joining a
/// slot) and release every thread.
#[test]
fn drop_during_respawn_churn_joins_every_thread() {
    let prefix = "respawn-churn";
    for seed in 0..8u64 {
        // A kill every ~200 WorkerExit visits: respawn churn for the
        // whole lifetime of the pool, including the drop window.
        let mut injector = parloop::PlannedInjector::quiet(seed);
        for k in 0..64 {
            injector = injector.with_kill_at(k * 200);
        }
        let pool = ThreadPoolBuilder::new()
            .num_workers(3)
            .thread_name_prefix(prefix)
            .fault_injector(Arc::new(injector))
            .build();

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

        // Drop immediately — kills (and therefore respawns) may still be
        // in flight from the loop above.
        drop(pool);
        assert_eq!(
            threads_named_settled(prefix, 0),
            0,
            "seed {seed}: drop under respawn churn leaked worker threads"
        );
        assert_eq!(ran.load(Ordering::SeqCst), 16, "seed {seed}: detached job lost in drop");
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
