//! A Cilk-style work-stealing fork-join runtime, built from scratch.
//!
//! This crate is the substrate the paper's hybrid loop scheduler runs on: a
//! work-first, randomized work-stealing scheduler in the style of Cilk and
//! rayon-core. Each worker thread owns a [Chase–Lev deque](deque) of jobs;
//! it pushes and pops at the *bottom* of its own deque, and idle workers
//! steal from the *top* of a uniformly random victim's deque (same-socket
//! victims first when the pool has a multi-socket [`TopologyMap`]). On top
//! of the deques sit:
//!
//! * [`join`] — the binary fork-join primitive used to implement
//!   divide-and-conquer `cilk_for` loops (work-first: the continuation is
//!   made stealable, the child runs immediately);
//! * [`scope`] — dynamic task spawning with a completion barrier;
//! * *team broadcast* ([`ThreadPool::broadcast_all`]) — per-worker mailboxes
//!   used to emulate OpenMP-style parallel regions where *every* worker of
//!   the team executes a per-thread body (needed for the `omp_static`,
//!   `omp_dynamic` and `omp_guided` baselines);
//! * raw deque access ([`WorkerToken::spawn_local`]) — used by
//!   `parloop-core` to implement the paper's `DoHybridLoop` steal protocol,
//!   where the hybrid-loop *frame* is a stealable job that re-instantiates
//!   itself under the thief's worker ID.
//!
//! # Worker identity
//!
//! Workers have dense ids `0..P` ([`current_worker_index`]).
//! The hybrid claiming heuristic is keyed on these ids, exactly as the
//! paper keys partition claiming on Cilk worker ids.
//!
//! # Panics
//!
//! A panic inside a parallel construct is captured and re-thrown at the
//! point that waits for that construct (the `join` call, the `scope` call,
//! or `install`), mirroring rayon's semantics.

mod cancel;
pub mod deque;
mod health;
mod inject;
mod job;
mod latch;
mod registry;
mod rng;
mod sleep;
mod unwind;

mod join;
mod scope;
pub mod util;

pub use cancel::CancelToken;
pub use health::{PoolHealth, StallReport};
pub use inject::{QosClass, DRR_WEIGHTS};
pub use job::POISONED_JOB_MSG;
pub use join::join;
pub use latch::{CountLatch, Latch, LockLatch, Probe, SpinLatch};
pub use registry::{
    current_worker_index, PoolStats, ThreadPool, ThreadPoolBuilder, WorkerToken,
    DEFAULT_STALL_THRESHOLD,
};
pub use scope::{scope, Scope};
pub use sleep::DEFAULT_BACKSTOP_INTERVAL;
pub use util::CachePadded;

/// The observability layer this runtime reports into (re-exported so that
/// downstream crates need not name `parloop-trace` directly).
pub use parloop_trace as trace;
pub use parloop_trace::{NoopSink, RingTraceSink, TraceEvent, TraceSink, WorkerStats};

/// The fault-injection layer (re-exported so downstream crates and tests
/// need not name `parloop-chaos` directly).
pub use parloop_chaos as chaos;
pub use parloop_chaos::{FaultAction, FaultInjector, NoopInjector, PlannedInjector, Site};

/// The machine-topology layer: the worker → socket map consumed by
/// [`ThreadPoolBuilder::topology`] (re-exported so pool users need not
/// name `parloop-topo` directly).
pub use parloop_topo::TopologyMap;
