//! Integration tests for the chaos layer: the scheduler's robustness
//! theorems must survive deterministic fault injection.
//!
//! * **Theorem 3 (exactly-once)** — every iteration executes exactly once
//!   even when the injector forces steal failures, claim losses, delays
//!   and victim re-rolls, across a sweep of seeds.
//! * **Lemma 4 (failed-claim runs)** — the `≤ max(lg R, 1)` bound on runs
//!   of consecutive failed claims is *structural*: it holds for arbitrary
//!   claim outcomes, so forced losses cannot break it.
//! * **Panic safety** — a panic injected at *any* site leaves the pool
//!   reusable.
//! * **Off-path proof** — a disabled injector is never consulted.
//! * **Cancellation** — loops with a cancel token observe it firing,
//!   return `Err`, and preserve exactly-once for everything that ran; a
//!   caller's timer thread can use the token as a deadline without
//!   leaking a partition claim.
//! * **Watchdog** — a stalled pool produces a diagnostic, not a hang,
//!   and the diagnostic names a stuck worker whose queued jobs its peers
//!   steal; once unstuck, the worker serves again on its own thread.
//! * **Repeated loops** — tracked and cancellable loops issued back to
//!   back on one chaos pool keep exactly-once, and every tracked
//!   iteration names a valid owner.
//!
//! The seed sweep honours `CHAOS_SEEDS` (default 64) so CI can dial the
//! stress level (`scripts/verify.sh` runs a reduced sweep).

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use parloop::chaos::{FaultAction, FaultInjector, PlannedInjector, Site};
use parloop::core::AffinityProbe;
use parloop::runtime::{current_worker_index, Latch, WorkerToken};
use parloop::trace::metrics::max_claim_failure_run;
use parloop::trace::{init_clock, RingTraceSink};
use parloop::{
    par_for_tracked, CancelToken, Loop, LoopError, Schedule, StallReport, ThreadPool,
    ThreadPoolBuilder,
};

mod common;
use common::threads_named_settled;

fn seed_count() -> u64 {
    std::env::var("CHAOS_SEEDS").ok().and_then(|s| s.parse().ok()).unwrap_or(64)
}

fn chaos_pool(p: usize, injector: Arc<PlannedInjector>) -> (ThreadPool, Arc<RingTraceSink>) {
    init_clock();
    let sink = Arc::new(RingTraceSink::with_capacity(p, 1 << 14));
    let pool = ThreadPoolBuilder::new()
        .num_workers(p)
        .trace_sink(Arc::<RingTraceSink>::clone(&sink))
        .fault_injector(injector)
        .build();
    (pool, sink)
}

/// Theorem 3 + Lemma 4 under a full-rate fault sweep: for every seed, all
/// iterations run exactly once, no partition is skipped, and the traced
/// failed-claim runs (which *include* injector-forced losses) stay within
/// the structural bound.
#[test]
fn exactly_once_and_lemma4_hold_across_seed_sweep() {
    let p = 4;
    let n = 512;
    for seed in 0..seed_count() {
        let injector = Arc::new(PlannedInjector::from_seed(seed));
        let (pool, sink) = chaos_pool(p, Arc::clone(&injector));
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let cancel = CancelToken::new();
        let stats = Loop { cancel: Some(&cancel), ..Loop::new(Schedule::hybrid().with_grain(8)) }
            .run(&pool, 0..n, |chunk| {
                for i in chunk {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }
            })
            .unwrap_or_else(|e| panic!("seed {seed}: loop failed: {e:?}"));

        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "seed {seed}: iteration {i} not exactly-once");
        }
        assert_eq!(stats.skipped_partitions, 0, "seed {seed}: healthy run skipped partitions");
        assert_eq!(stats.partitions, p.next_power_of_two());

        let snap = sink.drain();
        let bound = (stats.partitions.trailing_zeros()).max(1);
        assert!(
            max_claim_failure_run(&snap) <= bound,
            "seed {seed}: failed-claim run {} exceeds Lemma 4 bound {bound}",
            max_claim_failure_run(&snap)
        );
        drop(pool);
    }
}

/// The injection sequence is a pure function of (seed, site, visit index):
/// two injectors with the same seed, driven through the trait object with
/// the same per-site visit order, report identical actions — and a third
/// with a different seed diverges somewhere.
#[test]
fn same_seed_yields_identical_injection_sequence() {
    let a: Arc<dyn FaultInjector> = Arc::new(PlannedInjector::from_seed(0xC0FFEE));
    let b: Arc<dyn FaultInjector> = Arc::new(PlannedInjector::from_seed(0xC0FFEE));
    let c: Arc<dyn FaultInjector> = Arc::new(PlannedInjector::from_seed(0xC0FFEE + 1));
    let mut diverged = false;
    for k in 0..2_000usize {
        for site in Site::ALL {
            // Worker id is deliberately *not* part of the decision.
            let x = a.decide(k % 3, site);
            let y = b.decide((k + 1) % 5, site);
            diverged |= x != c.decide(0, site);
            assert_eq!(x, y, "visit {k} at {site}: same seed diverged");
        }
    }
    assert!(diverged, "distinct seeds never diverged across 2000 visits");
}

/// A panic injected at every site, one site at a time: the loop either
/// completes or reports the panic, never executes an iteration twice, and
/// the pool stays reusable afterwards.
#[test]
fn injected_panic_at_every_site_leaves_pool_reusable() {
    let p = 2;
    let n = 256;
    for site in Site::ALL {
        for nth in [0u64, 3] {
            let injector = Arc::new(PlannedInjector::quiet(7).with_panic_at(site, nth));
            let (pool, _sink) = chaos_pool(p, Arc::clone(&injector));
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            let cancel = CancelToken::new();
            let sched = Schedule::hybrid().with_grain(8);
            let result =
                Loop { cancel: Some(&cancel), ..Loop::new(sched) }.run(&pool, 0..n, |chunk| {
                    for i in chunk {
                        hits[i].fetch_add(1, Ordering::Relaxed);
                    }
                });
            for (i, h) in hits.iter().enumerate() {
                assert!(
                    h.load(Ordering::Relaxed) <= 1,
                    "{site} nth={nth}: iteration {i} ran twice"
                );
            }
            if let Err(LoopError::Cancelled(_)) = &result {
                panic!("{site} nth={nth}: spurious cancellation");
            }
            // The panic may have landed at a runtime site (absorbed or
            // demoted) or a loop site (reported via Err) — either way the
            // pool must run follow-up loops to completion. A one-shot
            // armed at a visit index the first loop never reached may
            // still fire in a follow-up (the plan is global), so allow at
            // most ONE more failure before demanding a clean pass.
            let mut leftover_fires = 0;
            let mut clean_pass = false;
            for _ in 0..4 {
                let sum = AtomicUsize::new(0);
                let clean = CancelToken::new();
                let result =
                    Loop { cancel: Some(&clean), ..Loop::new(Schedule::hybrid().with_grain(4)) }
                        .run(&pool, 0..100, |chunk| {
                            for i in chunk {
                                sum.fetch_add(i, Ordering::Relaxed);
                            }
                        });
                match result {
                    Ok(stats) => {
                        assert_eq!(sum.load(Ordering::Relaxed), 4950, "{site} nth={nth}");
                        assert_eq!(stats.skipped_partitions, 0, "{site} nth={nth}");
                        clean_pass = true;
                        break;
                    }
                    Err(_) => leftover_fires += 1,
                }
            }
            assert!(clean_pass, "{site} nth={nth}: pool unusable after injected panic");
            assert!(
                leftover_fires <= 1,
                "{site} nth={nth}: one-shot plan fired {leftover_fires} extra times"
            );
        }
    }
}

/// A *disabled* injector whose `decide` panics: if any injection site were
/// consulted despite `enabled() == false`, the pool would blow up. This is
/// the off-path proof — chaos costs one untaken branch when off.
#[test]
fn disabled_injector_is_never_consulted() {
    struct Tripwire;
    impl FaultInjector for Tripwire {
        fn enabled(&self) -> bool {
            false
        }
        fn decide(&self, _worker: usize, _site: Site) -> FaultAction {
            panic!("disabled injector was consulted");
        }
    }
    let pool = ThreadPoolBuilder::new().num_workers(4).fault_injector(Arc::new(Tripwire)).build();
    assert!(!pool.chaos_enabled());
    for _ in 0..5 {
        let hits: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        parloop::par_for(&pool, 0..1000, Schedule::hybrid(), |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }
    assert!(!pool.is_degraded(), "tripwire fired somewhere");
}

/// Mid-loop cancellation: the body fires the token at a fixed iteration,
/// the partitions claimed after it are drained (claimed + skipped), the
/// caller gets `Err(Cancelled)`, everything that ran ran exactly once, and
/// the pool is immediately reusable. Two inputs: a deterministic
/// single-worker schedule firing in its first chunk, and a 2-worker loop
/// with `R = 16` partitions (oversub 8) firing in partition 1, whose
/// bodies nap so the peer is mid-partition when the token fires.
#[test]
fn cancellation_mid_loop_returns_err_and_pool_stays_usable() {
    let inputs = [
        (1, Schedule::Hybrid { grain: Some(4), oversub: 4 }, 64, 0, Duration::ZERO),
        (2, Schedule::hybrid_oversub(8), 512, 40, Duration::from_micros(100)),
    ];
    for (p, sched, n, fire_at, nap) in inputs {
        let pool = ThreadPool::new(p);
        let cancel = CancelToken::new();
        let ran: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let r = Loop { cancel: Some(&cancel), ..Loop::new(sched) }.run(&pool, 0..n, |chunk| {
            for i in chunk {
                if i == fire_at {
                    cancel.cancel();
                }
                ran[i].fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(nap);
            }
        });
        assert!(matches!(r, Err(LoopError::Cancelled(_))), "P={p}: token must cancel: {r:?}");
        let executed: usize = ran.iter().map(|h| h.load(Ordering::Relaxed)).sum();
        assert!(
            ran.iter().all(|h| h.load(Ordering::Relaxed) <= 1),
            "P={p}: an iteration ran twice"
        );
        assert!(executed < n, "P={p}: cancellation should have skipped at least one partition");
        assert!(executed > 0, "P={p}: the cancelling chunk itself did run");

        // Pool reusable right away, exactly-once intact.
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        parloop::par_for(&pool, 0..n, Schedule::hybrid(), |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1), "P={p}: follow-up loop");
    }
}

/// A cancelled hybrid loop reports its counters: the drained
/// partitions show up as `skipped_partitions`.
#[test]
fn cancelled_hybrid_reports_skipped_partitions() {
    let pool = ThreadPool::new(1);
    let cancel = CancelToken::new();
    cancel.cancel();
    let sched = Schedule::hybrid().with_grain(8);
    let result = Loop { cancel: Some(&cancel), ..Loop::new(sched) }.run(&pool, 0..128, |_| {});
    match result {
        Err(LoopError::Cancelled(stats)) => {
            assert_eq!(stats.skipped_partitions, stats.partitions);
        }
        other => panic!("expected Cancelled, got {other:?}"),
    }
}

/// A caller keeps its own deadline with a timer thread that fires the
/// loop's token: the hybrid loop returns `Err(Cancelled)` mid-flight,
/// every started iteration ran exactly once, every partition claim is
/// accounted for as run or skipped, and the pool stays usable.
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
    parloop::par_for(&pool, 0..n, Schedule::hybrid(), |i| {
        again[i].fetch_add(1, Ordering::Relaxed);
    });
    assert!(again.iter().all(|h| h.load(Ordering::Relaxed) == 1), "follow-up loop");
}

/// A genuinely stalled wait produces a watchdog diagnostic instead of a
/// silent hang: the stall handler fires with a plausible report while one
/// worker sleeps inside a job, and the pool finishes normally afterwards.
#[test]
fn watchdog_reports_stall_instead_of_hanging() {
    let tripped = Arc::new(AtomicBool::new(false));
    let t2 = Arc::clone(&tripped);
    let pool = ThreadPoolBuilder::new()
        .num_workers(2)
        .stall_threshold(Duration::from_millis(50))
        .on_stall(move |report| {
            assert!(report.stalled_for >= Duration::from_millis(50));
            assert_eq!(report.heartbeats.len(), 2);
            t2.store(true, Ordering::Release);
        })
        .build();
    // A worker waits on a latch that only an external thread resolves,
    // 300ms later: no pool progress is possible, so the watchdog must
    // trip (threshold 50ms) well before the latch releases the wait.
    pool.install(|| {
        let token = WorkerToken::current().expect("install runs on a worker");
        let latch = Arc::new(token.count_latch(1));
        let releaser = {
            let latch = Arc::clone(&latch);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(300));
                latch.set();
            })
        };
        token.wait_until(&*latch);
        releaser.join().unwrap();
    });
    assert!(tripped.load(Ordering::Acquire), "watchdog never fired during a 400ms stall");
    assert!(pool.health().watchdog_trips >= 1);
    // The stall was transient — the pool is healthy and reusable.
    assert!(!pool.is_degraded());
    let sum = AtomicUsize::new(0);
    parloop::par_for(&pool, 0..100, Schedule::hybrid(), |i| {
        sum.fetch_add(i, Ordering::Relaxed);
    });
    assert_eq!(sum.load(Ordering::Relaxed), 4950);
}

/// The injector's own counters line up with what the runtime consumed:
/// a full-rate run on a chaos pool actually injects (this guards against
/// the sites silently rotting out of the hot paths).
#[test]
fn chaos_runs_actually_inject_faults() {
    let injector = Arc::new(
        PlannedInjector::quiet(11)
            .with_rate(Site::Claim, 16_000)
            .with_rate(Site::StealSweep, 8_000)
            .with_delay_spins(50),
    );
    let (pool, _sink) = chaos_pool(2, Arc::clone(&injector));
    for _ in 0..10 {
        let cancel = CancelToken::new();
        let hits: Vec<AtomicUsize> = (0..256).map(|_| AtomicUsize::new(0)).collect();
        Loop { cancel: Some(&cancel), ..Loop::new(Schedule::hybrid().with_grain(8)) }
            .run(&pool, 0..256, |chunk| {
                for i in chunk {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }
            })
            .unwrap();
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }
    assert!(injector.queries_total() > 0, "no site ever consulted the injector");
    let claim_faults = injector
        .injection_counts()
        .into_iter()
        .find(|(s, _)| *s == Site::Claim)
        .map(|(_, c)| c)
        .unwrap();
    assert!(claim_faults > 0, "claim site never injected at ~25% rate across 10 runs");
}

/// Theorem 3 for tracked loops under the full-rate injector: three
/// consecutive loops per seed on one pool, each tracked with an
/// [`AffinityProbe`]. Every iteration runs exactly once and is recorded
/// against a valid worker id (an out-of-range owner would mean a chunk
/// ran without being recorded).
#[test]
fn tracked_chaos_sweep_keeps_exactly_once_and_records_owners() {
    let p = 4;
    let n = 512;
    for seed in 0..seed_count().min(32) {
        let injector = Arc::new(PlannedInjector::from_seed(seed));
        init_clock();
        let pool = ThreadPoolBuilder::new()
            .num_workers(p)
            .fault_injector(Arc::clone(&injector) as _)
            .build();
        let probe = AffinityProbe::new(0..n);
        for round in 0..3 {
            probe.reset();
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            par_for_tracked(&pool, 0..n, Schedule::hybrid(), &probe, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(
                    h.load(Ordering::Relaxed),
                    1,
                    "seed {seed} round {round}: iteration {i} not exactly-once"
                );
            }
            for (i, &owner) in probe.snapshot().iter().enumerate() {
                assert!(
                    (owner as usize) < p,
                    "seed {seed} round {round}: iteration {i} owner {owner} out of range \
                     (unrecorded chunk)"
                );
            }
        }
        assert!(injector.injected_total() > 0, "seed {seed}: no fault was injected");
        drop(pool);
    }
}

/// A stuck worker needs no rescue: worker A runs a detached job that
/// pushes 8 jobs onto its own deque and then spins on a gate, while
/// worker B waits inside `install` on a latch that a helper thread sets
/// only after the gate opens. B must steal and run all 8 jobs, and the
/// watchdog (30 ms threshold) must deliver a report in which A's
/// heartbeat has been flat for a while and B's has just advanced. The
/// gate opens once both hold (10 s deadline); afterwards a loop runs
/// exactly once and the pool drops with every worker thread joined.
#[test]
fn stuck_worker_jobs_are_stolen_and_stall_report_names_it() {
    const JOBS: usize = 8;
    let prefix = "stuck-wk";
    let reports: Arc<Mutex<Vec<StallReport>>> = Arc::default();
    let pool = ThreadPoolBuilder::new()
        .num_workers(2)
        .thread_name_prefix(prefix)
        .stall_threshold(Duration::from_millis(30))
        .on_stall({
            let reports = Arc::clone(&reports);
            move |report| reports.lock().unwrap().push(report.clone())
        })
        .build();
    let stuck = Arc::new(AtomicUsize::new(usize::MAX));
    let ran_on: Arc<Mutex<Vec<usize>>> = Arc::default();
    let gate = Arc::new(AtomicBool::new(false));
    {
        let (stuck, ran_on, gate) = (Arc::clone(&stuck), Arc::clone(&ran_on), Arc::clone(&gate));
        pool.spawn_detached(move || {
            let token = WorkerToken::current().expect("detached jobs run on a worker");
            stuck.store(token.index(), Ordering::Release);
            for _ in 0..JOBS {
                let ran_on = Arc::clone(&ran_on);
                token.spawn_local(move || {
                    ran_on.lock().unwrap().push(current_worker_index().unwrap())
                });
            }
            while !gate.load(Ordering::Acquire) {
                std::hint::spin_loop();
            }
        });
    }
    // Only once A is inside its job does the install go out, so the other
    // worker is the one that takes it.
    let a = loop {
        match stuck.load(Ordering::Acquire) {
            usize::MAX => std::thread::yield_now(),
            a => break a,
        }
    };
    let b = 1 - a;

    // Observer: open the gate once every job ran and a report names A as
    // flat and B as live, or at the deadline so a failure cannot hang.
    let observer = {
        let (reports, ran_on, gate) =
            (Arc::clone(&reports), Arc::clone(&ran_on), Arc::clone(&gate));
        std::thread::spawn(move || {
            let names_a =
                |r: &StallReport| !r.heartbeat_ages[a].is_zero() && r.heartbeat_ages[b].is_zero();
            let deadline = Instant::now() + Duration::from_secs(10);
            let seen = loop {
                let done = ran_on.lock().unwrap().len() == JOBS
                    && reports.lock().unwrap().iter().any(names_a);
                if done || Instant::now() >= deadline {
                    break done;
                }
                std::thread::sleep(Duration::from_millis(2));
            };
            gate.store(true, Ordering::Release);
            seen
        })
    };

    pool.install(|| {
        let token = WorkerToken::current().expect("install runs on a worker");
        assert_eq!(token.index(), b, "the install must land on the worker that is not stuck");
        let latch = Arc::new(token.count_latch(1));
        let helper = {
            let (latch, gate) = (Arc::clone(&latch), Arc::clone(&gate));
            std::thread::spawn(move || {
                while !gate.load(Ordering::Acquire) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                latch.set();
            })
        };
        token.wait_until(&*latch);
        helper.join().unwrap();
    });
    let seen = observer.join().unwrap();
    let ran_on = ran_on.lock().unwrap().clone();
    assert!(
        seen,
        "within 10 s: {} of {JOBS} jobs ran, stall reports (ages) {:?}",
        ran_on.len(),
        reports.lock().unwrap().iter().map(|r| r.heartbeat_ages.clone()).collect::<Vec<_>>()
    );
    assert_eq!(ran_on, vec![b; JOBS], "every queued job of stuck worker {a} is stolen by {b}");

    let hits: Vec<AtomicUsize> = (0..256).map(|_| AtomicUsize::new(0)).collect();
    parloop::par_for(&pool, 0..256, Schedule::hybrid(), |i| {
        hits[i].fetch_add(1, Ordering::Relaxed);
    });
    assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    drop(pool);
    assert_eq!(threads_named_settled(prefix, 0), 0, "drop leaked worker threads");
}

/// A worker that wedges inside a job long enough to trip the peer's
/// watchdog is only reported, never replaced: once the job returns, the
/// same OS thread goes back to running loop chunks under its old index,
/// a stall is not a panic so no worker is marked degraded, the pool
/// still has exactly its two threads, and drop joins both.
#[test]
fn wedged_worker_keeps_its_thread_and_pool_drops_cleanly() {
    let prefix = "wedged-wk";
    let pool = Arc::new(
        ThreadPoolBuilder::new()
            .num_workers(2)
            .thread_name_prefix(prefix)
            .stall_threshold(Duration::from_millis(30))
            .on_stall(|_| {}) // expected stall; keep stderr quiet
            .build(),
    );
    let wedged: Arc<Mutex<Option<(usize, std::thread::ThreadId)>>> = Arc::default();
    let gate = Arc::new(AtomicBool::new(false));
    {
        let (wedged, gate) = (Arc::clone(&wedged), Arc::clone(&gate));
        pool.spawn_detached(move || {
            let me = (current_worker_index().unwrap(), std::thread::current().id());
            *wedged.lock().unwrap() = Some(me);
            while !gate.load(Ordering::Acquire) {
                std::hint::spin_loop();
            }
        });
    }
    // Only once the wedge is running does the install go out, so the
    // other worker is the one that waits (and whose watchdog ticks).
    let (a, a_thread) = loop {
        match *wedged.lock().unwrap() {
            Some(me) => break me,
            None => std::thread::yield_now(),
        }
    };

    // Observer: open the gate once the watchdog has tripped, or at the
    // deadline so a failure cannot hang.
    let observer = {
        let (pool, gate) = (Arc::clone(&pool), Arc::clone(&gate));
        std::thread::spawn(move || {
            let deadline = Instant::now() + Duration::from_secs(10);
            let tripped = loop {
                let tripped = pool.health().watchdog_trips >= 1;
                if tripped || Instant::now() >= deadline {
                    break tripped;
                }
                std::thread::sleep(Duration::from_millis(2));
            };
            gate.store(true, Ordering::Release);
            tripped
        })
    };

    pool.install(|| {
        let token = WorkerToken::current().expect("install runs on a worker");
        let latch = Arc::new(token.count_latch(1));
        let releaser = {
            let (latch, gate) = (Arc::clone(&latch), Arc::clone(&gate));
            std::thread::spawn(move || {
                while !gate.load(Ordering::Acquire) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                latch.set();
            })
        };
        token.wait_until(&*latch);
        releaser.join().unwrap();
    });
    assert!(observer.join().unwrap(), "watchdog never tripped: {:?}", pool.health());

    // Loops until worker `a` runs a chunk again; each iteration is slow
    // enough that the idle worker wakes and joins before the loop ends.
    let n = 256;
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let a_threads: Mutex<Vec<std::thread::ThreadId>> = Mutex::default();
        parloop::par_for(&pool, 0..n, Schedule::hybrid(), |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
            if current_worker_index() == Some(a) {
                a_threads.lock().unwrap().push(std::thread::current().id());
            }
            let spin = Instant::now();
            while spin.elapsed() < Duration::from_micros(50) {
                std::hint::spin_loop();
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        let a_threads = a_threads.into_inner().unwrap();
        assert!(
            a_threads.iter().all(|&t| t == a_thread),
            "worker {a} came back on a different thread"
        );
        if !a_threads.is_empty() {
            break;
        }
        assert!(Instant::now() < deadline, "worker {a} ran no chunk after its wedge ended");
    }
    assert!(!pool.health().is_degraded(), "a stall marked a worker degraded");
    assert_eq!(threads_named_settled(prefix, 2), 2, "the pool must keep exactly its workers");
    let pool = Arc::into_inner(pool).expect("the observer dropped its handle");
    drop(pool);
    assert_eq!(threads_named_settled(prefix, 0), 0, "drop leaked worker threads");
}

/// Three cancellable loops back to back on one pool under a seeded fault
/// sweep, with a token that never fires: the injector forces extra steal
/// traffic, and every loop still runs each iteration exactly once.
#[test]
fn repeated_cancellable_loops_keep_exactly_once_under_chaos() {
    let p = 4;
    let n = 512;
    for seed in 0..seed_count().min(8) {
        let injector = Arc::new(PlannedInjector::from_seed(seed));
        init_clock();
        let pool = ThreadPoolBuilder::new().num_workers(p).fault_injector(injector).build();
        for _ in 0..3 {
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            let cancel = CancelToken::new();
            Loop { cancel: Some(&cancel), ..Loop::new(Schedule::hybrid().with_grain(8)) }
                .run(&pool, 0..n, |chunk| {
                    for i in chunk {
                        hits[i].fetch_add(1, Ordering::Relaxed);
                    }
                })
                .unwrap_or_else(|e| panic!("seed {seed}: loop failed: {e:?}"));
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1), "seed {seed}");
        }
        drop(pool);
    }
}

/// The worker-token chaos surface (`chaos_enabled` / `chaos_decide`) is
/// public, so downstream schedulers can add their own injection sites.
#[test]
fn worker_token_exposes_chaos_surface() {
    let injector = Arc::new(PlannedInjector::quiet(3));
    let (pool, _sink) = chaos_pool(1, injector);
    let (enabled, action) = pool.install(|| {
        let token = WorkerToken::current().expect("install runs on a worker");
        (token.chaos_enabled(), token.chaos_decide(Site::Park))
    });
    assert!(enabled);
    assert_eq!(action, FaultAction::None, "quiet plan must not inject");
}
