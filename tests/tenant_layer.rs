//! Integration tests for the multi-tenant layer (`parloop-tenant`):
//! QoS-aware admission over the shared fleet.
//!
//! * **QoS priority** — with the pool's injection lanes in QoS mode, a
//!   latency-class tenant's jobs drain ahead of a queued batch backlog
//!   (deterministic: one worker, one submitter thread, so every job
//!   lands in the same lane and the weighted deficit-round-robin order
//!   is fixed).
//! * **Admission window** — a tenant over its depth limit is rejected
//!   with `TenantError::Overloaded`, nothing is queued, and finishing
//!   jobs reopen the window.
//! * **Deadline** — a tenant deadline cancels the loop cooperatively:
//!   `Err(DeadlineExceeded)`, every started chunk ran exactly once, and
//!   no admission slot leaks.
//! * **Chaos sweep** — 32 seeds of `Site::Admission` faults (forced
//!   rejections and stalled admits) against concurrent tenants: every
//!   admitted loop runs exactly once, rejected loops run zero
//!   iterations, and no tenant is left stuck at its depth limit.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use parloop::core::Schedule;
use parloop::{PlannedInjector, QosClass, Tenant, TenantError, ThreadPool, ThreadPoolBuilder};

/// A job that occupies the pool's only worker until `gate` is raised, so
/// everything posted behind it queues up in the injection lanes.
fn block_worker(pool: &Arc<ThreadPool>, gate: &Arc<AtomicBool>) {
    let started = Arc::new(AtomicBool::new(false));
    let s = Arc::clone(&started);
    let g = Arc::clone(gate);
    pool.spawn_detached(move || {
        s.store(true, Ordering::Release);
        while !g.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
    });
    while !started.load(Ordering::Acquire) {
        std::thread::yield_now();
    }
}

fn wait_until(deadline: Duration, mut cond: impl FnMut() -> bool) {
    let t0 = Instant::now();
    while !cond() {
        assert!(t0.elapsed() < deadline, "condition not reached in {deadline:?}");
        std::thread::yield_now();
    }
}

#[test]
fn latency_tenant_jumps_queued_batch_backlog() {
    // One worker (held by a gate job) + one submitter thread: all eight
    // jobs land in the same QoS lane, so execution order after the gate
    // opens is the lane's DRR order — both latency jobs first, then the
    // batch backlog in FIFO order, even though every batch job was
    // posted earlier.
    let pool = Arc::new(ThreadPoolBuilder::new().num_workers(1).build());
    let gate = Arc::new(AtomicBool::new(false));
    block_worker(&pool, &gate);

    let batch = Tenant::builder("bulk").class(QosClass::Batch).build_on(Arc::clone(&pool));
    let latency = Tenant::builder("frontend").class(QosClass::Latency).build_on(Arc::clone(&pool));
    let order: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));
    for _ in 0..4 {
        let order = Arc::clone(&order);
        batch.spawn_detached(move || order.lock().unwrap().push("batch")).unwrap();
    }
    for _ in 0..2 {
        let order = Arc::clone(&order);
        latency.spawn_detached(move || order.lock().unwrap().push("latency")).unwrap();
    }

    gate.store(true, Ordering::Release);
    wait_until(Duration::from_secs(30), || order.lock().unwrap().len() == 6);
    let seen = order.lock().unwrap().clone();
    assert_eq!(
        seen,
        ["latency", "latency", "batch", "batch", "batch", "batch"],
        "latency-class jobs did not jump the queued batch backlog"
    );
    assert_eq!(latency.stats().installed, 2);
    assert_eq!(batch.stats().installed, 4);

    // The class counters saw both sub-lanes serve jobs.
    let latency_jobs: u64 = pool.worker_stats().iter().map(|w| w.latency_jobs).sum();
    let batch_jobs: u64 = pool.worker_stats().iter().map(|w| w.batch_jobs).sum();
    assert!(latency_jobs >= 2, "latency_jobs = {latency_jobs}");
    assert!(batch_jobs >= 4, "batch_jobs = {batch_jobs}");
}

#[test]
fn admission_window_rejects_at_depth_and_reopens() {
    let pool = Arc::new(ThreadPoolBuilder::new().num_workers(1).build());
    let gate = Arc::new(AtomicBool::new(false));
    block_worker(&pool, &gate);

    let tenant = Tenant::builder("capped").max_in_flight(2).build_on(Arc::clone(&pool));
    let ran = Arc::new(AtomicUsize::new(0));
    for _ in 0..2 {
        let ran = Arc::clone(&ran);
        tenant
            .spawn_detached(move || {
                ran.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
    }
    // Window full: the third spawn is rejected and queues nothing.
    let ran3 = Arc::clone(&ran);
    assert_eq!(
        tenant.spawn_detached(move || {
            ran3.fetch_add(1, Ordering::Relaxed);
        }),
        Err(TenantError::Overloaded)
    );
    let stats = tenant.stats();
    assert_eq!(stats.in_flight, 2);
    assert_eq!(stats.rejected, 1);

    // Finishing jobs release their slots and the window reopens.
    gate.store(true, Ordering::Release);
    wait_until(Duration::from_secs(30), || tenant.stats().in_flight == 0);
    assert_eq!(ran.load(Ordering::Relaxed), 2, "a rejected spawn ran anyway");
    tenant.install(|| {}).expect("window did not reopen after jobs finished");
    let stats = tenant.stats();
    assert_eq!(stats.installed, 3);
    assert_eq!(stats.rejected, 1);
    assert!(tenant.p99_install_latency().is_some());
}

#[test]
fn deadline_cancels_loop_without_leaking_claims() {
    let pool = Arc::new(ThreadPool::new(2));
    let tenant =
        Tenant::builder("deadlined").deadline(Duration::from_millis(5)).build_on(Arc::clone(&pool));

    // Hybrid cancellation skips whole partitions whose claim comes after
    // the token fires, so the loop needs more partitions than workers
    // (oversub 8 → R = 16 on P = 2): the first claims start immediately,
    // each runs ~32ms of bodies, and every later claim sees the 5ms
    // deadline long expired.
    let n = 512;
    let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
    let r = tenant.par_for(0..n, Schedule::hybrid_oversub(8), |i| {
        hits[i].fetch_add(1, Ordering::Relaxed);
        std::thread::sleep(Duration::from_millis(1));
    });
    assert_eq!(r, Err(TenantError::DeadlineExceeded));

    // Exactly-once for everything that started; the tail never ran.
    assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) <= 1));
    let executed: usize = hits.iter().map(|h| h.load(Ordering::Relaxed)).sum();
    assert!(executed < n, "deadline fired but every iteration still ran");

    // No admission slot leaked and the tenant stays usable: a loop that
    // fits inside the deadline completes.
    let stats = tenant.stats();
    assert_eq!(stats.cancelled_by_deadline, 1);
    assert_eq!(stats.in_flight, 0);
    let quick = AtomicUsize::new(0);
    tenant
        .par_for(0..64, Schedule::hybrid(), |_| {
            quick.fetch_add(1, Ordering::Relaxed);
        })
        .expect("a fast loop should beat a 5ms deadline");
    assert_eq!(quick.load(Ordering::Relaxed), 64);
}

#[test]
fn no_deadline_means_no_spurious_cancellation() {
    let pool = Arc::new(ThreadPool::new(2));
    let tenant = Tenant::builder("steady").build_on(Arc::clone(&pool));
    let count = AtomicUsize::new(0);
    for _ in 0..20 {
        tenant
            .par_for(0..256, Schedule::hybrid(), |_| {
                count.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
    }
    assert_eq!(count.load(Ordering::Relaxed), 20 * 256);
    let stats = tenant.stats();
    assert_eq!(stats.installed, 20);
    assert_eq!(stats.cancelled_by_deadline, 0);
    assert_eq!(stats.in_flight, 0);
}

#[test]
fn chaos_admission_sweep_is_exactly_once_with_no_stuck_tenants() {
    // 32 deterministic seeds of full-plan chaos (every site active,
    // including forced `Site::Admission` rejections and stalled admits).
    // Two tenants submit concurrently, retrying on `Overloaded`. The
    // invariants: every admitted loop runs every iteration exactly once,
    // rejections run nothing, and when the dust settles no tenant is
    // wedged at its depth limit.
    let mut forced_rejections = 0u64;
    for seed in 0..32u64 {
        let inj = Arc::new(PlannedInjector::from_seed(seed));
        let pool = Arc::new(
            ThreadPoolBuilder::new().num_workers(2).fault_injector(Arc::clone(&inj) as _).build(),
        );
        let tenants = [
            Tenant::builder("chaos-latency").class(QosClass::Latency).build_on(Arc::clone(&pool)),
            Tenant::builder("chaos-batch").class(QosClass::Batch).build_on(Arc::clone(&pool)),
        ];
        let n = 128;
        let loops_per_tenant = 8;
        let executed = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for tenant in &tenants {
                let executed = Arc::clone(&executed);
                s.spawn(move || {
                    let mut completed = 0;
                    let t0 = Instant::now();
                    while completed < loops_per_tenant {
                        assert!(
                            t0.elapsed() < Duration::from_secs(60),
                            "seed {seed}: tenant {} stuck (completed {completed})",
                            tenant.name()
                        );
                        match tenant.par_for(0..n, Schedule::hybrid(), |_| {
                            executed.fetch_add(1, Ordering::Relaxed);
                        }) {
                            Ok(()) => completed += 1,
                            Err(TenantError::Overloaded) => std::thread::yield_now(),
                            Err(e) => panic!("seed {seed}: unexpected {e}"),
                        }
                    }
                });
            }
        });
        // Exactly-once: iterations executed == iterations admitted.
        assert_eq!(
            executed.load(Ordering::Relaxed),
            2 * loops_per_tenant * n,
            "seed {seed}: lost or duplicated iterations"
        );
        for tenant in &tenants {
            let stats = tenant.stats();
            assert_eq!(
                stats.installed,
                loops_per_tenant as u64,
                "seed {seed}: {} install count",
                tenant.name()
            );
            assert_eq!(stats.in_flight, 0, "seed {seed}: {} stuck in flight", tenant.name());
            forced_rejections += stats.rejected;
        }
    }
    // The sweep only proves something if admission chaos actually fired:
    // per seed it may be quiet, but 32 seeds must reject somewhere.
    assert!(forced_rejections > 0, "no seed ever forced an admission rejection");
}

#[test]
fn forced_admission_rejections_are_observable_and_harmless() {
    use parloop::{FaultAction, FaultInjector, Site};

    /// Reject every admission attempt, touch nothing else.
    struct RejectAdmission;
    impl FaultInjector for RejectAdmission {
        fn enabled(&self) -> bool {
            true
        }
        fn decide(&self, _worker: usize, site: Site) -> FaultAction {
            if matches!(site, Site::Admission) {
                FaultAction::Fail
            } else {
                FaultAction::None
            }
        }
    }

    let pool = Arc::new(
        ThreadPoolBuilder::new().num_workers(2).fault_injector(Arc::new(RejectAdmission)).build(),
    );
    let tenant = Tenant::builder("rejected").build_on(Arc::clone(&pool));
    let ran = AtomicUsize::new(0);
    for _ in 0..10 {
        assert_eq!(
            tenant.par_for(0..100, Schedule::hybrid(), |_| {
                ran.fetch_add(1, Ordering::Relaxed);
            }),
            Err(TenantError::Overloaded)
        );
    }
    // A forced rejection queues nothing and leaks nothing.
    assert_eq!(ran.load(Ordering::Relaxed), 0);
    let stats = tenant.stats();
    assert_eq!(stats.rejected, 10);
    assert_eq!(stats.installed, 0);
    assert_eq!(stats.in_flight, 0);
    // The pool itself is untouched by admission chaos: direct installs
    // (no tenant, no admission site) still work.
    assert_eq!(pool.install(|| 7 * 6), 42);
}

#[test]
fn equal_weight_tenants_share_without_losing_jobs() {
    // Two equal-weight batch tenants submitting concurrently: everything
    // admitted completes (no lost loops), both make progress, and the
    // per-tenant accounting adds up. (The wall-clock fairness *ratio* is
    // the traffic bench's job; a unit test on a loaded CI box can only
    // check the conservation laws.)
    let pool = Arc::new(ThreadPool::new(2));
    let a = Tenant::builder("share-a").class(QosClass::Batch).build_on(Arc::clone(&pool));
    let b = Tenant::builder("share-b").class(QosClass::Batch).build_on(Arc::clone(&pool));
    let hits_a = Arc::new(AtomicUsize::new(0));
    let hits_b = Arc::new(AtomicUsize::new(0));
    let loops = 25;
    let n = 400;
    std::thread::scope(|s| {
        for (tenant, hits) in [(&a, &hits_a), (&b, &hits_b)] {
            let hits = Arc::clone(hits);
            s.spawn(move || {
                let mut completed = 0;
                while completed < loops {
                    match tenant.par_for(0..n, Schedule::hybrid(), |_| {
                        hits.fetch_add(1, Ordering::Relaxed);
                    }) {
                        Ok(()) => completed += 1,
                        Err(TenantError::Overloaded) => std::thread::yield_now(),
                        Err(e) => panic!("unexpected {e}"),
                    }
                }
            });
        }
    });
    assert_eq!(hits_a.load(Ordering::Relaxed), loops * n);
    assert_eq!(hits_b.load(Ordering::Relaxed), loops * n);
    for tenant in [&a, &b] {
        let stats = tenant.stats();
        assert_eq!(stats.installed, loops as u64);
        assert_eq!(stats.in_flight, 0);
        assert!(tenant.p50_install_latency().is_some());
        assert!(tenant.p99_install_latency() >= tenant.p50_install_latency());
    }
}
