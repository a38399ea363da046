//! Machine topology model for the `parloop` reproduction.
//!
//! The paper evaluates its hybrid loop scheduler on a 32-core, four-socket
//! Intel Xeon E5-4620 (8 cores per socket, 32 KB L1d, 256 KB L2 per core,
//! 16 MB shared L3 per socket, 512 GB DRAM). This crate captures that machine
//! as data — cache geometry, NUMA distances, per-level access latencies, and
//! the compact thread-pinning policy the paper uses — for the virtual-time
//! simulator (`parloop-sim`) and its memory hierarchy (`parloop-simcache`).
//! The threaded runtime keeps no topology: its workers steal from uniformly
//! random victims, as under Cilk.
//!
//! Nothing in this crate performs any scheduling; it is pure data plus a few
//! derived quantities (which socket owns a core, how many lines fit in a
//! cache, what a remote-DRAM access costs).

mod latency;
mod machine;
mod pinning;

pub use latency::{AccessLevel, LatencyTable};
pub use machine::{CacheGeometry, MachineSpec, NumaPolicy};
pub use pinning::{pin_order, PinningPolicy};
