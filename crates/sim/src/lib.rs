//! Virtual-time discrete-event simulator for the `parloop` reproduction.
//!
//! The paper's evaluation machine — a 32-core, four-socket Xeon E5-4620 —
//! is not available here (the hosts have one or two cores), so every timing
//! figure is regenerated on a *modeled* machine instead:
//!
//! * workers are virtual cores with individual clocks, pinned compactly to
//!   the topology from `parloop-topo`;
//! * every scheme the paper compares is implemented as a scheduling
//!   [`policy`] over virtual time, the hybrid one reusing the exact
//!   [`ClaimWalker`](parloop_core::ClaimWalker) the threaded runtime runs.
//!   Its thieves pick victims uniformly at random, as Cilk's do; the only
//!   hybrid variant is Theorem 5's oversubscribed `R` (the A3 ablation);
//! * iteration costs combine modeled CPU cycles with memory latencies from
//!   the `parloop-simcache` hierarchy, whose state persists across loops —
//!   so loop affinity turns into cache hits and NUMA locality exactly as
//!   the paper argues;
//! * scheduling overheads (steals, shared-cursor grabs, claims, barriers)
//!   come from an explicit [`CostModel`].
//!
//! The figure harnesses in `parloop-bench` sweep worker counts and schemes
//! over the [microbenchmark](micro_model) and [NAS kernel](nas_model)
//! models to regenerate Figures 1–4.

pub mod costs;
pub mod engine;
pub mod micro_model;
pub mod nas_model;
pub mod policy;
pub mod sweep;
pub mod workload;

pub use costs::CostModel;
pub use engine::{
    sequential_time, simulate, simulate_traced, ChunkEvent, LoopTrace, SimConfig, SimResult,
};
pub use micro_model::{micro_app, MicroParams};
pub use nas_model::{nas_app, nas_app_scaled, nas_app_scaled_from_name, NasKernel};
pub use policy::{Action, Policy, PolicyKind};
pub use sweep::{Sweep, SweepCell};
pub use workload::{
    blocked_offsets, weighted_offsets, AccessPattern, AddressSpace, AppModel, ArraySpec,
    CostProfile, LoopModel,
};
