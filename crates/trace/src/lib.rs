//! # failmpi-trace — causal trace model, Perfetto export, root-cause tools
//!
//! The observability layer that says *why*: PR 3's metrics count what
//! happened; this crate works on the happens-before DAG the simulation
//! engine records (see `failmpi_sim::CausalLog`) — every handled event
//! linked to the event that scheduled it, plus the semantic MPICH-Vcl
//! lifecycle marks anchored into that graph.
//!
//! Components:
//!
//! - [`TraceFile`] / [`Node`] / [`Mark`]: the schema-versioned on-disk
//!   model, with deterministic (byte-identical for same-seed runs) JSON
//!   serialization. Produced by `--trace-out PATH` on `figure <name>`,
//!   `soak`, or `failmpi-trace timeline` (see `failmpi-experiments`).
//! - [`perfetto::export`]: Chrome trace-event JSON with one lane per
//!   component (dispatcher, scheduler, servers, ranks, the FAIL-MPI
//!   injector) and flow arrows on cross-lane cause edges. Load it at
//!   `ui.perfetto.dev`.
//! - [`explain`]: walk the causal chain backward from the last activity of
//!   a frozen run and narrate it — reproduces the paper's dispatcher-bug
//!   isolation (fault → recovery wave → stale dispatcher entry) on the
//!   Fig. 10 scenario.
//! - [`diff`]: first causal divergence between two traces (the causal
//!   complement of the testkit's fingerprint-journal divergence).
//! - [`slice`] / [`filter`]: ancestor-cone extraction and flat selection.
//!
//! The `failmpi-trace` binary (in `failmpi-experiments`) exposes all of
//! it on the command line.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diff;
pub mod explain;
mod model;
pub mod perfetto;
mod slice;

pub use model::{Mark, Node, TraceFile, SCHEMA_VERSION};
pub use slice::{filter, slice, Filter};
