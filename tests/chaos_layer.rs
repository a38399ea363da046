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
//!   return `Err`, and preserve exactly-once for everything that ran.
//! * **Watchdog** — a stalled pool produces a diagnostic, not a hang.
//! * **Locality** — the topology-aware configuration (multi-socket map,
//!   socket-first stealing, NUMA earmarks) keeps every guarantee under
//!   the same adversary, steal sweeps never probe quarantined or
//!   respawning slots, and a flat map never counts a remote steal.
//!
//! The seed sweep honours `CHAOS_SEEDS` (default 64) so CI can dial the
//! stress level (`scripts/verify.sh` runs a reduced sweep).

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parloop::chaos::{FaultAction, FaultInjector, PlannedInjector, Site};
use parloop::core::{same_socket_fraction, same_worker_fraction, AffinityProbe};
use parloop::runtime::{Latch, TopologyMap, WorkerToken};
use parloop::trace::metrics::max_claim_failure_run;
use parloop::trace::{init_clock, RingTraceSink};
use parloop::{
    par_for_tracked, CancelToken, Loop, LoopError, Schedule, ThreadPool, ThreadPoolBuilder,
    TraceEvent,
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

/// Self-healing under worker death, across a seed sweep: a one-shot
/// `Kill` at the `WorkerExit` site takes a worker down mid-service. The
/// pool must preserve exactly-once for every loop, respawn the dead slot
/// (epoch recorded in `PoolHealth`), end with zero degraded/quarantined
/// workers, and settle back to exactly `P` live worker threads.
#[test]
fn worker_exit_kill_sweep_recovers_exactly_once() {
    let p = 3;
    let n = 384;
    for seed in 0..seed_count() {
        let injector = Arc::new(PlannedInjector::quiet(seed).with_kill_at(seed % 4));
        let prefix = format!("kswp{seed}");
        init_clock();
        let pool = ThreadPoolBuilder::new()
            .num_workers(p)
            .thread_name_prefix(&prefix)
            .fault_injector(Arc::clone(&injector) as _)
            .build();

        for round in 0..3 {
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            let cancel = CancelToken::new();
            Loop { cancel: Some(&cancel), ..Loop::new(Schedule::hybrid().with_grain(8)) }
                .run(&pool, 0..n, |chunk| {
                    for i in chunk {
                        hits[i].fetch_add(1, Ordering::Relaxed);
                    }
                })
                .unwrap_or_else(|e| panic!("seed {seed} round {round}: loop failed: {e:?}"));
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(
                    h.load(Ordering::Relaxed),
                    1,
                    "seed {seed} round {round}: iteration {i} not exactly-once"
                );
            }
        }

        // The one-shot kill fires between jobs; idle run-loop passes keep
        // visiting the site, so recovery lands promptly after the loops.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let health = loop {
            let h = pool.health();
            if h.total_respawns() >= 1 && !h.is_quarantined() {
                break h;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "seed {seed}: kill never recovered (health: {h:?})"
            );
            std::thread::yield_now();
        };
        assert!(
            injector.queries_at(Site::WorkerExit) > 0,
            "seed {seed}: WorkerExit site never consulted"
        );
        assert_eq!(health.respawn_epochs.len(), p);
        assert!(
            health.respawn_epochs.iter().any(|&e| e >= 1),
            "seed {seed}: no slot recorded a respawn epoch: {health:?}"
        );
        assert_eq!(
            threads_named_settled(&prefix, p),
            p,
            "seed {seed}: thread census off after respawn (dead thread unreaped or doubled)"
        );

        // Post-recovery service check: the replacement participates.
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let cancel = CancelToken::new();
        Loop { cancel: Some(&cancel), ..Loop::new(Schedule::hybrid().with_grain(8)) }
            .run(&pool, 0..n, |chunk| {
                for i in chunk {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }
            })
            .unwrap_or_else(|e| panic!("seed {seed}: post-recovery loop failed: {e:?}"));
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1), "seed {seed}");
        drop(pool);
        assert_eq!(threads_named_settled(&prefix, 0), 0, "seed {seed}: drop leaked worker threads");
    }
}

/// Off-path pin for the self-healing machinery: with chaos disabled the
/// `WorkerExit` site must never be consulted — worker death detection
/// costs exactly one untaken branch per run-loop pass.
#[test]
fn worker_exit_site_is_never_consulted_when_chaos_off() {
    struct CountingDisabled(AtomicUsize);
    impl FaultInjector for CountingDisabled {
        fn enabled(&self) -> bool {
            false
        }
        fn decide(&self, _worker: usize, site: Site) -> FaultAction {
            if site == Site::WorkerExit {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
            FaultAction::None
        }
    }
    let counter = Arc::new(CountingDisabled(AtomicUsize::new(0)));
    let pool =
        ThreadPoolBuilder::new().num_workers(3).fault_injector(Arc::clone(&counter) as _).build();
    for _ in 0..5 {
        let sum = AtomicUsize::new(0);
        parloop::par_for(&pool, 0..500, Schedule::hybrid(), |i| {
            sum.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 124_750);
    }
    drop(pool);
    assert_eq!(
        counter.0.load(Ordering::Relaxed),
        0,
        "disabled injector was consulted at WorkerExit"
    );
}

/// Stuck-worker quarantine end to end: one worker wedges inside a job,
/// the waiting worker's watchdog escalates it to `Quarantined`, and once
/// the wedge releases the worker self-heals on its next run-loop pass —
/// so the pool drops cleanly (joining all threads) right afterwards.
#[test]
fn quarantined_worker_heals_and_pool_drops_cleanly() {
    let pool = Arc::new(
        ThreadPoolBuilder::new()
            .num_workers(2)
            .stall_threshold(Duration::from_millis(30))
            .on_stall(|_| {}) // expected stall; keep stderr quiet
            .build(),
    );
    let gate = Arc::new(AtomicBool::new(false));
    let started = Arc::new(AtomicBool::new(false));
    {
        let gate = Arc::clone(&gate);
        let started = Arc::clone(&started);
        pool.spawn_detached(move || {
            started.store(true, Ordering::Release);
            while !gate.load(Ordering::Acquire) {
                std::hint::spin_loop();
            }
        });
    }
    // Only once the wedge is running do we occupy the other worker —
    // otherwise the waiter could adopt the wedge job itself.
    while !started.load(Ordering::Acquire) {
        std::thread::yield_now();
    }

    // Observer: release the wedge as soon as quarantine lands.
    let observer = {
        let pool = Arc::clone(&pool);
        let gate = Arc::clone(&gate);
        std::thread::spawn(move || {
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            while !pool.health().is_quarantined() {
                assert!(
                    std::time::Instant::now() < deadline,
                    "watchdog never quarantined the wedged worker: {:?}",
                    pool.health()
                );
                std::thread::sleep(Duration::from_millis(2));
            }
            gate.store(true, Ordering::Release);
        })
    };

    // The healthy worker waits on a latch resolved only after the gate
    // opens; its watchdog ticks while it waits and performs the
    // escalation (reporter != victim, victim unparked and flat).
    pool.install(|| {
        let token = WorkerToken::current().expect("install runs on a worker");
        let latch = Arc::new(token.count_latch(1));
        let releaser = {
            let latch = Arc::clone(&latch);
            let gate = Arc::clone(&gate);
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
    observer.join().unwrap();

    // The wedged worker heals at the top of its run loop: epoch bump,
    // unfenced lane, Healthy again — observable before (and after) drop.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let h = pool.health();
        if !h.is_quarantined() && h.total_respawns() >= 1 {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "wedged worker never healed: {h:?}");
        std::thread::yield_now();
    }

    // Healed pool is fully usable, then drops cleanly (joins everything).
    let sum = AtomicUsize::new(0);
    parloop::par_for(&pool, 0..100, Schedule::hybrid(), |i| {
        sum.fetch_add(i, Ordering::Relaxed);
    });
    assert_eq!(sum.load(Ordering::Relaxed), 4950);
    drop(pool);
}

/// Theorem 3 for the locality-aware configuration: a two-socket map with
/// socket-first stealing and NUMA-earmarked claim anchors, driven by the
/// full-rate injector *plus* a guaranteed one-shot worker kill per seed
/// (so the respawn path runs mid-sweep on every seed, not just when the
/// seeded `WorkerExit` rate happens to fire). Consecutive loops are
/// tracked with an [`AffinityProbe`] and the invariants that hold for
/// *any* interleaving are pinned: every iteration runs exactly once and
/// is recorded against a valid worker slot (respawned workers keep their
/// slot index, so kills must not surface out-of-range owners), and
/// same-socket retention can never be below same-worker retention (a
/// same-worker iteration is same-socket by definition). The quantitative
/// retention bar lives in the deterministic sim layer and the
/// `locality_bench` acceptance — on a real pool, consecutive-loop
/// placement is host-timing luck (a 1-CPU CI box serializes workers), so
/// it cannot be asserted here without flaking.
#[test]
fn socket_first_chaos_sweep_keeps_exactly_once_and_affinity() {
    let p = 4;
    let n = 512;
    let sockets = vec![0usize, 0, 1, 1];
    let socket_of: Vec<u32> = sockets.iter().map(|&s| s as u32).collect();
    for seed in 0..seed_count().min(32) {
        let injector = Arc::new(PlannedInjector::from_seed(seed).with_kill_at(seed % 4));
        init_clock();
        let pool = ThreadPoolBuilder::new()
            .num_workers(p)
            .topology(TopologyMap::from_sockets(sockets.clone()))
            .fault_injector(Arc::clone(&injector) as _)
            .build();
        let probe = AffinityProbe::new(0..n);
        let mut prev: Option<Vec<u32>> = None;
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
            let cur = probe.snapshot();
            for (i, &owner) in cur.iter().enumerate() {
                assert!(
                    (owner as usize) < p,
                    "seed {seed} round {round}: iteration {i} owner {owner} out of range \
                     (unrecorded chunk or bad slot after respawn)"
                );
            }
            if let Some(prev) = &prev {
                let worker = same_worker_fraction(prev, &cur);
                let socket = same_socket_fraction(prev, &cur, &socket_of);
                assert!(
                    socket >= worker,
                    "seed {seed} round {round}: socket retention {socket:.3} \
                     below worker retention {worker:.3}"
                );
            }
            prev = Some(cur);
        }
        let stats = pool.stats();
        assert!(
            stats.remote_steals <= stats.steals,
            "seed {seed}: remote steals {} exceed total steals {}",
            stats.remote_steals,
            stats.steals
        );
        assert!(
            injector.queries_at(Site::WorkerExit) > 0,
            "seed {seed}: WorkerExit site never consulted"
        );
        drop(pool);
    }
}

/// Regression for the sweep's lifecycle skip: while a worker sits in
/// `Quarantined`, no steal sweep may probe its deque — the slot's work
/// was already rescued into live lanes, and probing it races the
/// ownership handover. A wedged worker is escalated by the waiting
/// worker's watchdog; real loops then run to completion against the
/// fenced pool, and the drained trace must contain no steal (local or
/// remote) naming the quarantined victim.
#[test]
fn steal_sweep_skips_quarantined_victims() {
    init_clock();
    let sink = Arc::new(RingTraceSink::with_capacity(3, 1 << 14));
    let pool = Arc::new(
        ThreadPoolBuilder::new()
            .num_workers(3)
            .topology(TopologyMap::from_sockets(vec![0, 0, 1]))
            .stall_threshold(Duration::from_millis(30))
            .on_stall(|_| {}) // expected stall; keep stderr quiet
            .trace_sink(Arc::<RingTraceSink>::clone(&sink))
            .build(),
    );
    let gate = Arc::new(AtomicBool::new(false));
    let started = Arc::new(AtomicBool::new(false));
    {
        let gate = Arc::clone(&gate);
        let started = Arc::clone(&started);
        pool.spawn_detached(move || {
            started.store(true, Ordering::Release);
            while !gate.load(Ordering::Acquire) {
                std::hint::spin_loop();
            }
        });
    }
    while !started.load(Ordering::Acquire) {
        std::thread::yield_now();
    }

    // Observer: once quarantine lands, run real loops against the fenced
    // pool and inspect the trace — only then release the wedge.
    let observer = {
        let pool = Arc::clone(&pool);
        let gate = Arc::clone(&gate);
        let sink = Arc::clone(&sink);
        std::thread::spawn(move || {
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            while !pool.health().is_quarantined() {
                assert!(
                    std::time::Instant::now() < deadline,
                    "watchdog never quarantined the wedged worker: {:?}",
                    pool.health()
                );
                std::thread::sleep(Duration::from_millis(2));
            }
            let q = pool.health().quarantined_workers[0] as u32;
            let _ = sink.drain(); // discard pre-quarantine steal events
            for _ in 0..10 {
                let sum = AtomicUsize::new(0);
                parloop::par_for(&pool, 0..2048, Schedule::hybrid(), |i| {
                    sum.fetch_add(i, Ordering::Relaxed);
                });
                assert_eq!(sum.load(Ordering::Relaxed), 2048 * 2047 / 2);
            }
            assert!(
                pool.health().is_quarantined(),
                "wedge healed early — the skip window was not covered"
            );
            let snap = sink.drain();
            for e in &snap.events {
                if let TraceEvent::Stolen { victim } | TraceEvent::StolenRemote { victim } = e.event
                {
                    assert_ne!(victim, q, "worker {} stole from quarantined slot {q}", e.worker);
                }
            }
            gate.store(true, Ordering::Release);
        })
    };

    // The healthy waiter whose watchdog performs the escalation
    // (reporter != victim; the wedged worker's heartbeats stay flat).
    pool.install(|| {
        let token = WorkerToken::current().expect("install runs on a worker");
        let latch = Arc::new(token.count_latch(1));
        let releaser = {
            let latch = Arc::clone(&latch);
            let gate = Arc::clone(&gate);
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
    observer.join().unwrap();

    // Wedge released: the worker heals and the pool stays fully usable.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while pool.health().is_quarantined() {
        assert!(std::time::Instant::now() < deadline, "wedged worker never healed");
        std::thread::yield_now();
    }
    let sum = AtomicUsize::new(0);
    parloop::par_for(&pool, 0..100, Schedule::hybrid(), |i| {
        sum.fetch_add(i, Ordering::Relaxed);
    });
    assert_eq!(sum.load(Ordering::Relaxed), 4950);
}

/// On the default flat (single-socket) map, the socket-first sweep is one
/// uniform pass even under chaos: every victim is local, so the
/// remote-steal counter stays zero across a seeded fault sweep while the
/// injector forces extra steal traffic — and exactly-once holds.
#[test]
fn flat_map_socket_first_never_counts_remote_steals() {
    let p = 4;
    let n = 512;
    for seed in 0..seed_count().min(8) {
        let injector = Arc::new(PlannedInjector::from_seed(seed));
        init_clock();
        let pool = ThreadPoolBuilder::new().num_workers(p).fault_injector(injector).build();
        assert!(pool.topology().is_flat(), "default topology must be flat");
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
        let stats = pool.stats();
        assert_eq!(stats.remote_steals, 0, "seed {seed}: flat map produced remote steals");
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
