//! Run-scoped observability for the FAIL-MPI reproduction.
//!
//! The paper's methodology is observational — runs are classified and the
//! dispatcher bug was isolated "by analysing the execution trace" — and
//! the simulator's own performance story needs numbers too. This crate is
//! the bottom layer both stand on: plain-data metric primitives with **no
//! dependency on the simulation stack**, so every other crate (sim, net,
//! mpi, mpichv, experiments, bench) can thread them through without
//! cycles.
//!
//! Two metric families with very different determinism contracts live
//! here, and keeping them apart is the core design rule:
//!
//! * **Deterministic metrics** — [`Counter`] and [`Histogram`] over
//!   *virtual*-time quantities. These depend only on the simulated
//!   schedule, so two same-seed runs must produce byte-identical
//!   [`MetricsSnapshot`] JSON. They are safe to put in run records,
//!   figure outputs and determinism tests.
//! * **Wall-clock profiling** — [`WallProfile`] and [`peak_rss_bytes`].
//!   These measure the *simulator*, vary run to run, and must never leak
//!   into a deterministic snapshot. They feed the `benchmark/`
//!   package's per-layer budget only.
//!
//! Everything is zero-cost-when-disabled in the only place cost matters:
//! counters and histogram records are branch-free integer arithmetic on
//! the hot path, wall-clock timing is gated behind
//! [`WallProfile::is_enabled`] so a disabled profile never calls
//! `Instant::now`, and the deep-profiling context ([`prof`]) is one
//! thread-local flag check per instrumented call site when no run is
//! being profiled.
//!
//! The profiling subsystem ([`alloc`], [`prof`], [`RunProfile`]) sits on
//! the *deterministic* side of the fence despite measuring the simulator
//! itself: it records schedule-derived quantities (event kinds, payload
//! bytes, queue depths, span counts) plus allocation counts, which are
//! deterministic for a fixed binary. Wall time stays out of
//! [`RunProfile`] entirely. [`render`] turns a profile into the report,
//! comparison and flamegraph text `failmpi-trace profile` prints.

// The counting global allocator (feature `alloc-profile`) is the one
// piece of unsafe code in this crate; without it the whole crate is
// forbid(unsafe_code) as before.
#![cfg_attr(not(feature = "alloc-profile"), forbid(unsafe_code))]
#![warn(missing_docs)]

pub mod alloc;
mod counter;
mod histogram;
pub mod literal;
pub mod prof;
mod profile;
pub mod render;
mod rss;
mod snapshot;
mod wall;

pub use alloc::alloc_counters;
#[cfg(feature = "alloc-profile")]
pub use alloc::{peak_live_bytes, reset_peak_live_bytes, CountingAlloc, PeakAlloc};
pub use counter::Counter;
pub use histogram::{Histogram, HistogramSnapshot};
pub use profile::{
    AllocBin, CopyBin, QueueTelemetry, RunProfile, SpanBin, PROFILE_SCHEMA_VERSION,
};
pub use rss::peak_rss_bytes;
pub use snapshot::{MetricsSnapshot, SCHEMA_VERSION};
pub use wall::{WallBin, WallProfile};
