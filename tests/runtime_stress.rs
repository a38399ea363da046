//! Stress and lifecycle tests for the work-stealing runtime under
//! oversubscription (this host has one core, so every pool > 1 is
//! heavily preempted — a good adversarial schedule generator).

use parloop::core::{par_for, Schedule};
use parloop::runtime::{ThreadPool, ThreadPoolBuilder};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

mod common;
use common::threads_named_settled;

#[test]
fn many_short_lived_pools() {
    for round in 0..30 {
        let p = 1 + round % 5;
        let pool = ThreadPool::new(p);
        let count = AtomicUsize::new(0);
        par_for(&pool, 0..2, Schedule::hybrid(), |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 2);
        // Drop immediately: shutdown must not hang or leak stack jobs.
    }
}

/// Full parallel loops issued from team bodies: every worker of a
/// 3-worker broadcast issues its share of 8 loops at once, so each loop's
/// owner is busy and the others run loops of their own or assist.
#[test]
fn scopes_spawning_parallel_loops() {
    let pool = ThreadPool::new(3);
    let total = AtomicUsize::new(0);
    pool.broadcast_all(|w| {
        for _ in (w..8).step_by(pool.num_workers()) {
            par_for(&pool, 0..64, Schedule::vanilla(), |_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
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
        let slots: Vec<AtomicU64> = (0..200).map(|_| AtomicU64::new(0)).collect();
        par_for(&pool, 0..200, Schedule::hybrid(), |i| {
            slots[i].store(i as u64 * 2, Ordering::Relaxed);
        });
        slots.into_iter().map(AtomicU64::into_inner).collect()
    });
    assert_eq!(v.len(), 200);
    assert_eq!(v[199], 398);
}

/// Drop joins every worker thread and runs every detached job: 8 rounds
/// of a 3-worker pool with its own thread-name prefix, 16 detached jobs
/// and a 512-iteration hybrid loop, dropped right after the loop. No
/// worker thread may outlive the drop, and no detached job may be lost.
#[test]
fn drop_joins_every_worker_and_runs_every_detached_job() {
    let prefix = "drop-join";
    for round in 0..8 {
        let pool = ThreadPoolBuilder::new().num_workers(3).thread_name_prefix(prefix).build();

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
        assert_eq!(count.load(Ordering::Relaxed), 512, "round {round}");

        drop(pool);
        assert_eq!(
            threads_named_settled(prefix, 0),
            0,
            "round {round}: drop leaked worker threads"
        );
        assert_eq!(ran.load(Ordering::SeqCst), 16, "round {round}: detached job lost in drop");
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
