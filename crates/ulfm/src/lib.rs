//! # failmpi-ulfm — a ULFM-style shrink-and-continue runtime
//!
//! The natural contrast class to MPICH-Vcl's rollback recovery: a virtual
//! MPI extension in the spirit of **ULFM** (User-Level Failure
//! Mitigation). There is no dispatcher, no checkpoint wave, and no
//! relaunch — when a process dies, the survivors' errhandler runs the
//! `MPIX_Comm_failure_ack` / `MPIX_Comm_get_acked` / `MPIX_Comm_agree` /
//! `MPIX_Comm_shrink` sequence (a recursive-doubling agreement over the
//! live membership), the communicator shrinks around the dead ranks, and
//! the *moldable* application continues on the survivors with the victims'
//! remaining work redistributed.
//!
//! The failure texture this exposes under the FAIL scenarios is the exact
//! dual of Vcl's:
//!
//! * a single fault costs one agreement, not a stop-the-world rollback —
//!   Fig. 10's recovery-overlap freeze cannot occur (there is no stale
//!   dispatcher entry to forget);
//! * but nothing is ever relaunched, so sustained fault injection
//!   (Fig. 5's frequency sweep) monotonically eats the fleet until zero
//!   survivors remain and the job freezes;
//! * a SIGSTOP'd survivor blocks `MPIX_Comm_agree` — agreement is
//!   collective over live processes, and a stopped process is alive —
//!   which turns `stop`-based scenarios into recovery stalls.
//!
//! The runtime is the shared [`failmpi_backend::light::LightRuntime`]
//! skeleton under the [`Shrink`] recovery policy — this crate holds only
//! the policy and its abstract twin — so every FAIL scenario, classifier,
//! lint, model check, and fuzz campaign runs against it unchanged
//! (`--backend ulfm`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod abstractmodel;
mod policy;

pub use abstractmodel::AbstractUlfm;
pub use policy::{Shrink, ShrinkDone};
