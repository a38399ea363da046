//! Helpers shared by the integration suites: a dependency-free
//! randomized-case generator for the property tests (a small stand-in for
//! the former proptest harness) and an OS thread census.
//!
//! Each property runs a fixed number of cases; every case gets its own
//! deterministic xorshift64* stream derived from a per-test seed and the
//! case index, so failures reproduce exactly and runs never flake.

#![allow(dead_code)]

use std::time::{Duration, Instant};

use parloop::runtime::WorkerToken;

/// Live threads of this process whose name starts with `prefix`
/// (`/proc/self/task/*/comm`). Each suite's pools use their own prefix,
/// so concurrent tests don't pollute the count.
pub fn threads_named(prefix: &str) -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("linux procfs")
        .filter(|entry| {
            let comm = entry.as_ref().unwrap().path().join("comm");
            std::fs::read_to_string(comm).is_ok_and(|name| name.starts_with(prefix))
        })
        .count()
}

/// [`threads_named`] polled until it reports `expected` or a 10 s
/// deadline passes; returns the last count. On Linux a join returns once
/// the thread's tid is cleared, before the kernel drops its
/// `/proc/self/task` entry, so a census taken right after a join can
/// still list a thread that has exited. A leaked thread stays listed past
/// the deadline, so the caller's leak check keeps its meaning.
pub fn threads_named_settled(prefix: &str, expected: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let count = threads_named(prefix);
        if count == expected || Instant::now() >= deadline {
            return count;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// xorshift64* PRNG — tiny, fast, and good enough for test-case shapes.
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    pub fn new(seed: u64) -> Self {
        // Mix the seed through splitmix64 so consecutive seeds (case
        // indices) do not produce correlated streams; avoid the all-zero
        // fixed point.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        Self { state: z | 1 }
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[lo, hi)`. Panics if the range is empty.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }

    /// Uniform in `[lo, hi)` as f64.
    pub fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + unit * (hi - lo)
    }

    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Pick an index with the given relative weights (proptest's
    /// `prop_oneof!` with weights).
    pub fn weighted(&mut self, weights: &[u32]) -> usize {
        let total: u32 = weights.iter().sum();
        let mut roll = (self.next_u64() % total as u64) as u32;
        for (i, &w) in weights.iter().enumerate() {
            if roll < w {
                return i;
            }
            roll -= w;
        }
        unreachable!("weights must be non-empty and non-zero")
    }

    pub fn bools(&mut self, len: usize) -> Vec<bool> {
        (0..len).map(|_| self.bool()).collect()
    }

    pub fn usizes_in(&mut self, len: usize, lo: usize, hi: usize) -> Vec<usize> {
        (0..len).map(|_| self.usize_in(lo, hi)).collect()
    }
}

/// Run `cases` deterministic randomized cases of a property. The `test_seed`
/// must be unique per property (hash of its name works; a hand-picked
/// constant is fine) so different properties explore different streams.
pub fn run_cases(test_seed: u64, cases: usize, mut property: impl FnMut(&mut XorShift64)) {
    for case in 0..cases {
        let mut rng =
            XorShift64::new(test_seed ^ (case as u64).wrapping_mul(0xA076_1D64_78BD_642F));
        property(&mut rng);
    }
}

/// Wait, within `deadline`, until another worker of the current pool is
/// idle: a loop issued afterwards publishes its parallelism at its first
/// chunk boundary instead of running uncontended.
pub fn wait_for_idle_peer(deadline: Instant) {
    let token = WorkerToken::current().expect("runs on a pool worker");
    while !token.peer_idle() {
        assert!(Instant::now() < deadline, "no peer went idle within the deadline");
        std::thread::yield_now();
    }
}
