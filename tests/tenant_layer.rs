//! Integration tests for several independent submitters ("tenants")
//! sharing one pool through the plain pool API: class-tagged installs and
//! caller-side cancellation.
//!
//! * **Deadline** — a caller keeps its own deadline with a timer thread
//!   that fires the loop's `CancelToken`: the hybrid loop returns
//!   `Err(Cancelled)` mid-flight, every started iteration ran exactly
//!   once, every partition claim is accounted for as run or skipped, and
//!   the pool stays usable.
//! * **Sharing** — two batch-class submitters running loops concurrently
//!   lose no iteration, and each of their installs is served by a batch
//!   lane exactly once.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use parloop::{par_for, CancelToken, Loop, LoopError, QosClass, Schedule, ThreadPool};

#[test]
fn deadline_cancels_loop_without_leaking_claims() {
    let pool = ThreadPool::new(2);
    let cancel = CancelToken::new();

    // Hybrid cancellation skips whole partitions whose claim comes after
    // the token fires, so the loop needs more partitions than workers
    // (oversub 8 → R = 16 on P = 2): the first claims start immediately,
    // each runs ~32ms of bodies, and every later claim sees the 5ms
    // deadline long expired.
    let n = 512;
    let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
    let r = std::thread::scope(|s| {
        let timer = cancel.clone();
        s.spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            timer.cancel();
        });
        let sched = Schedule::hybrid_oversub(8);
        Loop { cancel: Some(&cancel), ..Loop::new(sched) }.run(&pool, 0..n, |chunk| {
            for i in chunk {
                hits[i].fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(1));
            }
        })
    });
    let report = match r {
        Err(LoopError::Cancelled(report)) => report,
        other => panic!("the deadline must cancel the loop: {other:?}"),
    };

    // Exactly-once for everything that started; the tail never ran.
    assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) <= 1), "an iteration ran twice");
    let executed: usize = hits.iter().map(|h| h.load(Ordering::Relaxed)).sum();
    assert!(executed < n, "deadline fired but every iteration still ran");

    // No claim leaked: started partitions run whole and skipped ones run
    // nothing, so the iterations that ran fill exactly the partitions
    // that were not skipped.
    let (parts, skipped) = (report.partitions, report.skipped_partitions);
    assert!(parts > 2 && skipped > 0 && skipped < parts, "{report:?}");
    let ran_parts = parts - skipped;
    assert!(
        (ran_parts * (n / parts)..=ran_parts * n.div_ceil(parts)).contains(&executed),
        "{executed} iterations ran in {ran_parts} unskipped partitions: {report:?}"
    );

    // The pool stays usable: a loop without a token runs every iteration
    // exactly once.
    let again: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
    par_for(&pool, 0..n, Schedule::hybrid(), |i| {
        again[i].fetch_add(1, Ordering::Relaxed);
    });
    assert!(again.iter().all(|h| h.load(Ordering::Relaxed) == 1), "follow-up loop");
}

#[test]
fn equal_weight_tenants_share_without_losing_jobs() {
    // Two batch-class submitters share one pool: every iteration of every
    // loop runs exactly once, and every install reaches a worker through a
    // batch lane exactly once. (The wall-clock fairness ratio needs an
    // idle machine; a unit test on a loaded CI box can only check the
    // conservation laws.)
    let pool = ThreadPool::new(2);
    let loops = 25;
    let n = 400;
    let hits: [Vec<AtomicUsize>; 2] =
        std::array::from_fn(|_| (0..n).map(|_| AtomicUsize::new(0)).collect());
    std::thread::scope(|s| {
        for hits in &hits {
            let pool = &pool;
            s.spawn(move || {
                for _ in 0..loops {
                    pool.install_class(QosClass::Batch, || {
                        par_for(pool, 0..n, Schedule::hybrid(), |i| {
                            hits[i].fetch_add(1, Ordering::Relaxed);
                        })
                    });
                }
            });
        }
    });
    for (t, hits) in hits.iter().enumerate() {
        assert!(
            hits.iter().all(|h| h.load(Ordering::Relaxed) == loops),
            "submitter {t} lost or duplicated iterations"
        );
    }
    let batch_jobs: u64 = pool.worker_stats().iter().map(|w| w.batch_jobs).sum();
    let latency_jobs: u64 = pool.worker_stats().iter().map(|w| w.latency_jobs).sum();
    assert_eq!(batch_jobs, 2 * loops as u64, "batch installs served by lanes");
    assert_eq!(latency_jobs, 0, "no latency-class job was posted");
}
