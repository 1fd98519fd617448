//! # failmpi-testkit — schedule perturbation
//!
//! The whole FAIL-MPI reproduction rests on one claim: the discrete-event
//! simulator is deterministic and replayable, so the fault/recovery races
//! it exhibits (the paper's Figs. 5–11, the dispatcher bug) are protocol
//! behaviour, not simulator noise. The double-run half of that check —
//! same seed, same schedule, and a first divergent event when not — lives
//! in `failmpi_experiments::robustness`, beside the harness it runs. This
//! crate holds the other half:
//!
//! * [`perturbation`] — the **schedule-perturbation fuzzer**: sweep
//!   [`failmpi_sim::TieBreak::Seeded`] seeds to permute same-instant event
//!   order (causality-preserving, turmoil-style) and check that declared
//!   invariants and outcome classifications are stable across every legal
//!   interleaving.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod perturbation;

pub use perturbation::{perturbation_seeds, sweep, PerturbationOutcome, PerturbationReport};
