//! # failmpi-experiments — the paper's evaluation, regenerated
//!
//! This crate binds the two halves of the reproduction together — the
//! FAIL-MPI injection middleware (`failmpi-core`) and the simulated
//! MPICH-Vcl deployment (`failmpi-mpichv`) — and drives every experiment of
//! the paper's Sec. 5:
//!
//! | id | content | module |
//! |----|---------|--------|
//! | Table 1 | fault-injector capability matrix | [`criteria`] |
//! | Fig. 5 | impact of fault frequency | [`figures::fig5`] |
//! | Fig. 6 | impact of scale | [`figures::fig6`] |
//! | Fig. 7 | impact of simultaneous faults | [`figures::fig7`] |
//! | Fig. 9 | synchronized faults (first recovery wave) | [`figures::fig9`] |
//! | Fig. 11 | state-synchronized faults (`localMPI_setCommand`) | [`figures::fig11`] |
//! | — | dispatcher & checkpoint-style ablations | [`figures::ablation`] |
//!
//! `cargo run --release -p failmpi-experiments --bin figure -- fig5`
//! prints the series the paper plots for any of them (the names are in
//! [`figures::FIGURES`]); `--smoke` picks the seconds-scale variant the
//! tests use.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classify;
pub mod cli;
pub mod criteria;
pub mod crosscheck;
pub mod figures;
pub mod harness;
pub mod invariants;
pub mod robustness;
pub mod timeline;
pub mod stats;
pub mod sweep;
pub mod telemetry;
pub mod tracesink;

/// Re-export for [`install_alloc_profiler`] expansions (feature
/// `alloc-profile`).
#[cfg(feature = "alloc-profile")]
pub use failmpi_obs::CountingAlloc;

/// Installs the counting global allocator in the calling binary when it
/// is built with the `alloc-profile` feature, and expands to nothing
/// otherwise. Every driver binary calls this once at top level so
/// that `--features alloc-profile` turns `--profile` output from
/// copy/queue/span telemetry into full allocation attribution:
///
/// ```text
/// cargo run --release -p failmpi-experiments --features alloc-profile \
///     --bin figure -- fig5 --smoke --profile fig5-profile.json
/// ```
#[macro_export]
macro_rules! install_alloc_profiler {
    () => {
        #[cfg(feature = "alloc-profile")]
        #[global_allocator]
        static FAILMPI_COUNTING_ALLOC: $crate::CountingAlloc = $crate::CountingAlloc;
    };
}

pub use classify::{classify_entries, Outcome};
pub use failmpi_backend::{BackendConfig, BackendKind, ProtocolBackend};
pub use crosscheck::{
    crosscheck_builtins, crosscheck_one, figure_matrix, render_backend_matrix, render_matrix,
    runnable_builtins, smoke_spec_for, verdicts_agree, CheckShape, CrosscheckRow, MatrixRow,
};
pub use harness::{
    lint_injection, run, run_one, run_one_profiled, run_one_traced, run_one_with_trace,
    ExperimentSpec, InjectionSpec, LintMode, Observe, RunArtifacts, RunRecord, Workload,
};
pub use invariants::{validate_entries, validate_trace};
