//! The multi-tenant layer: many independent callers, one worker fleet.
//!
//! The paper's hybrid scheme assumes one loop owner driving one pool. A
//! service runtime inverts that: thousands of callers share a single
//! fleet, and the scheduler must keep them from trampling each other.
//! This crate adds that sharing layer without touching the loop
//! schedulers themselves:
//!
//! * [`global_pool`] / [`init_global`] / [`teardown_global`] — a
//!   process-global, lazily-initialized registry in the style of rayon's
//!   global pool, with an explicit builder override and clean teardown
//!   for tests;
//! * [`Tenant`] — a cheap, cloneable handle carrying a QoS class
//!   ([`QosClass::Latency`] or [`QosClass::Batch`]), a fair-share weight,
//!   and an optional per-loop deadline that converts into a
//!   [`CancelToken`](parloop_runtime::CancelToken) deadline;
//! * **admission control** — each tenant's in-flight loop count is
//!   bounded by a weight-scaled depth limit; loops beyond it are rejected
//!   with [`TenantError::Overloaded`] instead of buffered without bound,
//!   so one misbehaving tenant saturates its own window, not the pool;
//! * [`TenantStats`] — per-tenant installed / rejected /
//!   deadline-cancelled counts and p50/p99 install latency from a
//!   log2-bucketed histogram.
//!
//! Priority between classes lives *below* this crate, in the runtime's
//! injection lanes: every pool, a 1-worker one included, drains
//! latency-class jobs ahead of batch work with weighted
//! deficit-round-robin ([`DRR_WEIGHTS`](parloop_runtime::DRR_WEIGHTS)).
//!
//! ```
//! use parloop_tenant::{Tenant, QosClass};
//! use parloop_core::Schedule;
//! use std::sync::atomic::{AtomicU64, Ordering};
//!
//! let pool = std::sync::Arc::new(parloop_runtime::ThreadPool::new(2));
//! let t = Tenant::builder("indexer")
//!     .class(QosClass::Batch)
//!     .weight(2)
//!     .build_on(pool);
//! let hits: Vec<AtomicU64> = (0..512).map(|_| AtomicU64::new(0)).collect();
//! t.par_for(0..512, Schedule::hybrid(), |i| {
//!     hits[i].fetch_add(1, Ordering::Relaxed);
//! })
//! .unwrap();
//! assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
//! assert_eq!(t.stats().installed, 1);
//! ```

mod global;
mod hist;
mod tenant;

pub use global::{
    global_pool, global_pool_if_initialized, init_global, teardown_global, GlobalError,
};
pub use hist::LatencyHistogram;
pub use tenant::{
    RetryPolicy, Tenant, TenantBuilder, TenantError, TenantStats, DEFAULT_DEPTH_PER_WEIGHT,
};

/// Re-exported so tenant callers need not name `parloop-runtime` directly.
pub use parloop_runtime::QosClass;
