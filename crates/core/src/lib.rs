//! Loop schedulers for the hybrid-scheduling reproduction.
//!
//! This crate implements the paper's contribution — the **hybrid loop
//! scheduler** ([`Schedule::Hybrid`], module [`hybrid`]) — together with
//! every baseline scheme its evaluation compares against, all running on
//! the same work-stealing runtime so that only the *scheduling policy*
//! varies:
//!
//! | paper name    | [`Schedule`] variant        | engine                              |
//! |---------------|-----------------------------|-------------------------------------|
//! | `hybrid`      | `Hybrid`                    | claim heuristic + work stealing     |
//! | `omp_static`  | `Static`                    | team broadcast, fixed blocks        |
//! | `omp_dynamic` | `WorkSharing`               | shared cursor, fixed chunks         |
//! | `omp_guided`  | `Guided`                    | shared cursor, decreasing chunks    |
//! | `ff` (static) | `StaticSharing`             | shared counter over fixed blocks    |
//! | `vanilla`     | `DynamicStealing`           | lazy steal-driven splitting         |
//!
//! Every loop goes through one dispatch, [`Loop::run`] (schedule and grain
//! policy; returns a [`LoopReport`]). [`par_for`]
//! and [`par_for_chunks`] are its one-line conveniences.
//!
//! Quick start:
//!
//! ```
//! use parloop_runtime::ThreadPool;
//! use parloop_core::{par_for, Schedule};
//!
//! let pool = ThreadPool::new(4);
//! let data: Vec<std::sync::atomic::AtomicU64> =
//!     (0..1024).map(|_| std::sync::atomic::AtomicU64::new(0)).collect();
//! par_for(&pool, 0..1024, Schedule::hybrid(), |i| {
//!     data[i].store(i as u64 * 2, std::sync::atomic::Ordering::Relaxed);
//! });
//! assert_eq!(data[7].load(std::sync::atomic::Ordering::Relaxed), 14);
//! ```

pub mod adapt;
pub mod affinity;
pub mod claim;
pub mod hybrid;
pub mod lazy;
pub mod range;
mod schedule;
mod sharing;
mod static_part;
mod util;

pub use adapt::{controller_report, AdaptiveSite, LoopStart, Phase, SiteSnapshot};
pub use affinity::{same_worker_fraction, AffinityProbe, ConsecutiveAffinity, UNRECORDED};
pub use claim::{
    index_group, partition_group, partitions_oversubscribed, run_claim_heuristic, ClaimTable,
    ClaimWalker, HeuristicStats,
};
pub use lazy::lazy_for_chunks;
pub use range::{block_bounds, block_of, default_grain, grain_bounds};
pub use schedule::{
    par_for, par_for_chunks, par_for_tracked, GrainPolicy, Loop, LoopError, LoopReport, Schedule,
};
pub use static_part::static_owner;
