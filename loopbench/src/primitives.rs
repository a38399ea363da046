//! Isolated costs of the runtime's public primitives, measured in the
//! traced run before any loop.

use std::hint::black_box;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parloop_core::ClaimTable;
use parloop_runtime::deque::deque;
use parloop_runtime::{CountLatch, Latch, LockLatch};

use crate::report::{median, us, Metrics};

const OPS: usize = 1 << 16;
const BATCHES: usize = 7;

/// Median over batches of the per-op cost of `batch`, which times `ops` ops.
fn per_op_ns(ops: usize, mut batch: impl FnMut() -> Duration) -> f64 {
    let v: Vec<f64> = (0..BATCHES).map(|_| batch().as_nanos() as f64 / ops as f64).collect();
    median(&v)
}

pub fn measure(m: &mut Metrics) {
    m.set(
        "deque.push_pop_ns",
        per_op_ns(OPS, || {
            let (w, _s) = deque::<usize>();
            let t = Instant::now();
            for i in 0..OPS {
                w.push(black_box(i));
                black_box(w.pop());
            }
            t.elapsed()
        }),
    );
    m.set(
        "deque.steal_ns",
        per_op_ns(OPS, || {
            let (w, s) = deque::<usize>();
            (0..OPS).for_each(|i| w.push(i));
            let t = Instant::now();
            for _ in 0..OPS {
                black_box(s.steal());
            }
            t.elapsed()
        }),
    );
    const R: usize = 1024;
    const TABLES: usize = 64;
    m.set(
        "claim.try_claim_ns",
        per_op_ns(R * TABLES, || {
            let tables: Vec<ClaimTable> = (0..TABLES).map(|_| ClaimTable::new(R)).collect();
            let t = Instant::now();
            for table in &tables {
                for r in 0..R {
                    black_box(table.try_claim(black_box(r)));
                }
            }
            t.elapsed()
        }),
    );
    m.set(
        "latch.count_set_ns",
        per_op_ns(OPS, || {
            let latch = CountLatch::detached(OPS);
            let t = Instant::now();
            for _ in 0..OPS {
                black_box(&latch).set();
            }
            t.elapsed()
        }),
    );
    m.set("latch.lock_wake_us", lock_wake_us());
}

/// Median time from `LockLatch::set` on this thread until `wait` returns
/// on another: the OS wake floor an external `install` caller pays.
fn lock_wake_us() -> f64 {
    const ROUNDS: usize = 200;
    let (to_waiter, latches) = mpsc::channel::<Arc<LockLatch>>();
    let (ready_tx, ready) = mpsc::channel::<()>();
    let (woke_tx, woke) = mpsc::channel::<Instant>();
    std::thread::scope(|s| {
        s.spawn(move || {
            for latch in latches {
                ready_tx.send(()).expect("the setter outlives the waiter");
                latch.wait();
                woke_tx.send(Instant::now()).expect("the setter outlives the waiter");
            }
        });
        let mut samples = Vec::with_capacity(ROUNDS);
        for _ in 0..ROUNDS {
            let latch = Arc::new(LockLatch::new());
            to_waiter.send(Arc::clone(&latch)).expect("the waiter runs until the channel closes");
            ready.recv().expect("the waiter runs until the channel closes");
            // Let the waiter block in `wait` before the set.
            std::thread::sleep(Duration::from_micros(200));
            let t0 = Instant::now();
            latch.set();
            let t1 = woke.recv().expect("the waiter runs until the channel closes");
            samples.push(us(t1.saturating_duration_since(t0)));
        }
        drop(to_waiter);
        median(&samples)
    })
}
