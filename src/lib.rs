//! `parloop` — facade crate for the hybrid-loop-scheduling reproduction.
//!
//! Re-exports the public API of every sub-crate so that examples, tests and
//! downstream users can depend on a single crate:
//!
//! * [`runtime`] — the work-stealing runtime (pools, `install`, team
//!   broadcasts, latches);
//! * [`core`] — loop schedulers: the paper's hybrid scheme plus the static,
//!   work-sharing dynamic, guided and work-stealing dynamic baselines;
//! * [`topo`] — machine topology, cache geometry and latency models;
//! * [`simcache`] — the software memory-hierarchy simulator;
//! * [`sim`] — the virtual-time scheduler simulator used to regenerate the
//!   paper's figures on a modeled 32-core, 4-socket machine;
//! * [`nas`] — Rust ports of the five NAS parallel benchmark kernels;
//! * [`micro`] — the paper's balanced/unbalanced iterative microbenchmarks;
//! * [`trace`] — the observability layer: per-worker lock-free event rings,
//!   scheduler metrics (steal rate, claim-failure histograms, affinity
//!   retention) and Chrome-trace/CSV export;
//! * [`chaos`] — deterministic fault injection: seeded injectors that force
//!   steal failures, claim losses, delays and panics at named runtime
//!   sites, used to prove the scheduler's robustness properties under
//!   adversarial interleavings.
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! paper-vs-measured record.

pub use parloop_chaos as chaos;
pub use parloop_core as core;
pub use parloop_micro as micro;
pub use parloop_nas as nas;
pub use parloop_runtime as runtime;
pub use parloop_sim as sim;
pub use parloop_simcache as simcache;
pub use parloop_topo as topo;
pub use parloop_trace as trace;

pub use parloop_chaos::{FaultAction, FaultInjector, NoopInjector, PlannedInjector, Site};
pub use parloop_core::{
    par_for, par_for_chunks, par_for_tracked, GrainPolicy, Loop, LoopError, LoopReport, Schedule,
};
pub use parloop_runtime::{PoolHealth, StallReport, ThreadPool, ThreadPoolBuilder};
pub use parloop_trace::{NoopSink, RingTraceSink, TraceEvent, TraceSink, WorkerStats};
