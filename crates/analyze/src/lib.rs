//! failmpi-analyze: static verification of FAIL scenarios and op-programs.
//!
//! The paper's methodology compiles FAIL scenarios and ships them to a
//! cluster; a scenario bug (a guard that can never fire, a message nobody
//! receives) then burns an hour of cluster time before showing up as a
//! frozen campaign. This crate front-loads those discoveries: it lints
//! compiled [`Scenario`](failmpi_core::Scenario) automata and MPI
//! op-programs *before* anything runs, reporting findings as
//! [`Diagnostic`] values with stable codes.
//!
//! Three consumers share the passes:
//!
//! * the `failck` binary (`failck scenario.fail --format json`),
//! * the pre-run lint gate in `failmpi-experiments`' harness,
//! * the CI step that lints every built-in scenario and figure workload.
//!
//! See [`scenario`] for the FA-codes, [`ops`] for the FB-codes, and
//! [`src_lints`] for the SD/SU source-level determinism codes that
//! `failck --src` runs over the workspace's own Rust code. [`findings`]
//! reads the fuzz findings artifacts `failck --findings` gates. [`cli`]
//! is the argument splitter and `main` wrapper of every binary in the
//! workspace.

#![forbid(unsafe_code)]

pub mod builtin;
pub mod cli;
pub mod diag;
pub mod findings;
pub mod model;
pub mod ops;
pub mod scenario;
pub mod src_lints;

pub use diag::{Diagnostic, Report, Severity, Span};
pub use findings::{read_findings, CodeCount, FindingsError};
pub use failmpi_srclint::Config as SrcLintConfig;
pub use failmpi_backend::BackendKind;
pub use model::{
    model_check_scenario, model_check_source, model_check_with_programs, ModelCheckConfig,
    ModelCheckResult, ModelSummary, StaticVerdict, Witness,
};
pub use ops::{analyze_programs, workload_error_diag};
pub use scenario::{
    analyze_scenario, check_breakpoints, check_source, compile_error_diag, deploy_error_diag,
};
pub use src_lints::{check_src_paths, check_src_text};
