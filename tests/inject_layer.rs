//! Integration tests for the sharded injection lanes and the
//! event-counter sleep protocol.
//!
//! * **Prompt delivery** — a fully parked pool executes an injected job
//!   without waiting for the timeout backstop: the lane publishes its
//!   length counter before releasing the queue lock, and the targeted
//!   notification cannot be lost (the regression the old
//!   publish-after-unlock counter allowed).
//! * **Per-submitter FIFO** — jobs posted by one thread run in post order
//!   (each submitter sticks to its home lane; lanes are FIFO).
//! * **Multi-submitter stress** — many concurrent submitter threads, no
//!   job lost or run twice.
//! * **Two submitters sharing a pool** — concurrent installs of parallel
//!   loops lose no iteration, and each install is drained from a lane
//!   exactly once.
//! * **Backstop liveness** — with chaos dropping every post-publish wake
//!   at `Site::InjectLane`, jobs still run: the timeout backstop finds
//!   them, and the backstop counters prove it was the backstop.
//! * **Idle wake-rate backoff** — an idle pool's backstop wake rate drops
//!   at least 10x below the old fixed-interval polling rate, while a late
//!   `install` is still served promptly.
//! * **Spin before blocking** — back-to-back installs reach workers that
//!   are still inside the idle policy's 20 µs spin budget, so most of them
//!   cost no OS wake.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use parloop::{par_for, FaultAction, FaultInjector, Schedule, Site, ThreadPool, ThreadPoolBuilder};

/// Let every worker reach its parked state: an idle worker polls for the
/// runtime's spin budget (`SPIN_BUDGET`, 20 µs) before blocking, so a
/// short idle interval suffices.
fn let_pool_park() {
    std::thread::sleep(Duration::from_millis(50));
}

#[test]
fn parked_pool_runs_injected_job_without_backstop_delay() {
    // With a 2s backstop, only a real (targeted) notification can explain
    // a prompt install: if the wake were lost — e.g. because the length
    // counter were published after the queue unlock, as it used to be —
    // the job would sit until the timeout.
    let pool =
        ThreadPoolBuilder::new().num_workers(4).backstop_interval(Duration::from_secs(2)).build();
    pool.install(|| {}); // warm up, then let everyone park
    let_pool_park();
    for round in 0..10 {
        let start = Instant::now();
        let got = pool.install(|| 6 * 7);
        assert_eq!(got, 42);
        assert!(
            start.elapsed() < Duration::from_millis(500),
            "round {round}: install took {:?} — wake was lost and the backstop served it",
            start.elapsed()
        );
        let_pool_park();
    }
}

#[test]
fn fence_audit_lane_demotions_never_lose_a_wake() {
    // Regression for the memory-ordering audit: the injection lane's
    // counter was demoted from SeqCst (push Release / pop Acquire /
    // decrement Relaxed) and the sleep protocol's un-announce to Relaxed,
    // on the argument that the SeqCst Dekker core in `sleep.rs` alone
    // prevents lost wakeups. Hammer the exact race window: a pool that is
    // parking *while* an external thread injects, with a 10s backstop so
    // any lost wake (a sleeper blocking on an already-published job)
    // blows the per-round deadline instead of being quietly absorbed.
    let pool =
        ThreadPoolBuilder::new().num_workers(2).backstop_interval(Duration::from_secs(10)).build();
    pool.install(|| {});
    for round in 0..200 {
        // Vary the pre-inject idle time over the 20 µs spin budget in 1 µs
        // steps (0–40 µs), then past it (100–900 µs), so the injection
        // lands at every stage of the idle sequence: mid-spin, at the
        // spin-to-announce edge, under the sleep lock, and fully blocked.
        // A busy-wait: a sleep this short overshoots by the OS timer slack
        // (~50 µs on Linux).
        let phase = round % 50;
        let idle = Duration::from_micros(if phase <= 40 { phase } else { 100 * (phase - 40) });
        let t = Instant::now();
        while t.elapsed() < idle {
            std::hint::spin_loop();
        }
        let start = Instant::now();
        assert_eq!(pool.install(move || round + 1), round + 1);
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "round {round}: install took {:?} — a demoted ordering lost the wake",
            start.elapsed()
        );
    }
}

#[test]
fn back_to_back_installs_mostly_skip_the_os_wake() {
    // Each install's job finishes, and the caller issues the next one,
    // well within the workers' spin budget, so a spinning worker takes it
    // without being notified. Workers that blocked after one failed sweep
    // would take a notified wake for nearly every install; the bound sits
    // halfway.
    let pool = ThreadPoolBuilder::new().num_workers(2).build();
    let notified = || -> u64 { pool.worker_stats().iter().map(|w| w.notified_wakes).sum() };
    for _ in 0..100 {
        pool.install(|| {});
    }
    let before = notified();
    for i in 0..2000u64 {
        assert_eq!(pool.install(move || i + 1), i + 1);
    }
    let wakes = notified() - before;
    assert!(wakes < 1000, "{wakes} notified wakes for 2000 back-to-back installs");
}

#[test]
fn jobs_from_one_submitter_run_in_post_order() {
    // One worker, one lane: execution order must equal post order, the
    // per-lane FIFO contract (cross-submitter order is unspecified).
    let pool = ThreadPoolBuilder::new().num_workers(1).build();
    let order = Arc::new(Mutex::new(Vec::new()));
    for i in 0..100usize {
        let order = Arc::clone(&order);
        pool.spawn_detached(move || order.lock().unwrap().push(i));
    }
    // `install` goes through the same lane, so it is a completion barrier
    // for everything this thread posted before it.
    pool.install(|| {});
    let seen = order.lock().unwrap().clone();
    assert_eq!(seen, (0..100).collect::<Vec<_>>());
}

fn stress(pool: &ThreadPool, submitters: usize, jobs_per_submitter: usize) {
    let total = submitters * jobs_per_submitter;
    let hits: Arc<Vec<AtomicUsize>> = Arc::new((0..total).map(|_| AtomicUsize::new(0)).collect());
    let done = Arc::new(AtomicUsize::new(0));
    std::thread::scope(|s| {
        for t in 0..submitters {
            let hits = Arc::clone(&hits);
            let done = Arc::clone(&done);
            s.spawn(move || {
                for j in 0..jobs_per_submitter {
                    let hits = Arc::clone(&hits);
                    let done = Arc::clone(&done);
                    pool.spawn_detached(move || {
                        hits[t * jobs_per_submitter + j].fetch_add(1, Ordering::Relaxed);
                        done.fetch_add(1, Ordering::Release);
                    });
                }
            });
        }
    });
    let deadline = Instant::now() + Duration::from_secs(60);
    while done.load(Ordering::Acquire) < total {
        assert!(Instant::now() < deadline, "stress jobs not drained in time");
        std::thread::yield_now();
    }
    for (k, h) in hits.iter().enumerate() {
        assert_eq!(h.load(Ordering::Relaxed), 1, "job {k} lost or run twice");
    }
}

#[test]
fn multi_submitter_stress_loses_and_duplicates_nothing() {
    let pool = ThreadPool::new(4);
    let before = pool.stats().injected;
    stress(&pool, 8, 3000);
    assert!(pool.stats().injected >= before + 8 * 3000);
}

#[test]
fn two_submitters_share_a_pool_without_losing_iterations() {
    // Two submitter threads install loops on one pool concurrently: every
    // iteration of every loop runs exactly once, and every install
    // reaches a worker through an injection lane exactly once. (A
    // wall-clock fairness ratio needs an idle machine; a test on a loaded
    // CI box can only check the conservation laws.)
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
                    pool.install(|| {
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
    let lane_jobs: u64 = pool.worker_stats().iter().map(|w| w.lane_jobs).sum();
    assert_eq!(lane_jobs, 2 * loops as u64, "installs served by lanes");
}

/// Injector that returns a fixed action at `Site::InjectLane` and nothing
/// anywhere else.
struct InjectLaneOnly(FaultAction);

impl FaultInjector for InjectLaneOnly {
    fn enabled(&self) -> bool {
        true
    }

    fn decide(&self, _worker: usize, site: Site) -> FaultAction {
        if matches!(site, Site::InjectLane) {
            self.0
        } else {
            FaultAction::None
        }
    }
}

#[test]
fn dropped_wakes_are_recovered_by_the_backstop() {
    // Every injection wake is dropped; the only way jobs can run is the
    // timeout backstop. Installs must all complete, and the backstop
    // counters must show it fired.
    let pool = ThreadPoolBuilder::new()
        .num_workers(2)
        .fault_injector(Arc::new(InjectLaneOnly(FaultAction::Fail)))
        .build();
    let_pool_park();
    for i in 0..10 {
        assert_eq!(pool.install(move || i * 2), i * 2);
    }
    let wakes: u64 = pool.worker_stats().iter().map(|w| w.backstop_wakes).sum();
    assert!(wakes > 0, "jobs ran without any backstop wake despite dropped notifications");
}

#[test]
fn injected_panic_at_inject_lane_is_demoted_not_unwound() {
    // `Panic` at the injection site runs on the *submitter's* thread; the
    // runtime demotes it to a dropped wake rather than unwinding into
    // user code. The pool stays fully usable.
    let pool = ThreadPoolBuilder::new()
        .num_workers(2)
        .fault_injector(Arc::new(InjectLaneOnly(FaultAction::Panic)))
        .build();
    for i in 0..5 {
        assert_eq!(pool.install(move || i + 1), i + 1);
    }
    stress(&pool, 4, 100);
}

#[test]
fn idle_wake_rate_backs_off_and_late_install_stays_prompt() {
    let p = 4;
    let base = Duration::from_micros(500);
    let pool = ThreadPoolBuilder::new().num_workers(p).backstop_interval(base).build();
    pool.install(|| {}); // reach steady state, then go idle
    let_pool_park();

    let window = Duration::from_millis(300);
    let before: u64 = pool.worker_stats().iter().map(|w| w.backstop_wakes).sum();
    std::thread::sleep(window);
    let after: u64 = pool.worker_stats().iter().map(|w| w.backstop_wakes).sum();
    let observed = after - before;

    // The old protocol woke every worker every `base` forever:
    let unthrottled = (window.as_micros() / base.as_micros()) as u64 * p as u64;
    assert!(
        observed * 10 <= unthrottled,
        "idle wake rate did not drop 10x: {observed} wakes observed vs {unthrottled} unthrottled"
    );

    // Backing off must not make a late external job slow: its targeted
    // notification serves it, not the (now long) backstop timer.
    let start = Instant::now();
    assert_eq!(pool.install(|| 42), 42);
    assert!(
        start.elapsed() < Duration::from_millis(250),
        "late install took {:?} despite a targeted wake",
        start.elapsed()
    );
}
