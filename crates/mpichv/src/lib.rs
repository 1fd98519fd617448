//! # failmpi-mpichv — a reimplementation of MPICH-Vcl
//!
//! The fault-tolerant MPI runtime the paper strains: the MPICH-V framework
//! running the **Vcl** protocol — a *non-blocking* implementation of the
//! Chandy–Lamport coordinated-checkpointing algorithm (paper Sec. 3).
//!
//! Every runtime component of Fig. 2 is here:
//!
//! * **Communication daemons** (`Vdaemon`) — one per rank, owning all TCP
//!   streams, logging in-transit messages during checkpoint waves and
//!   replaying them on restart.
//! * **Dispatcher** — launches the fleet over ssh, detects failures by
//!   unexpected socket closure, and orchestrates stop/relaunch recovery
//!   waves. Ships in two flavours: [`DispatcherMode::Historical`]
//!   faithfully reproduces the wave-bookkeeping bug the paper discovered,
//!   [`DispatcherMode::Fixed`] the correction.
//! * **Checkpoint servers** — collect pipelined image transfers and logged
//!   channel state; retain exactly one complete global checkpoint (two
//!   files used alternately).
//! * **Checkpoint scheduler** — opens a wave every `checkpoint_period`,
//!   one wave at a time, commits on the last ack.
//!
//! Beyond Vcl, two more V-protocols from the MPICH-V family are
//! implemented for fair same-scenario comparisons ([`VProtocol`]):
//! **V2** — pessimistic sender-based message logging with uncoordinated
//! per-rank checkpoints and single-rank restarts — and **Vdummy** — no
//! fault tolerance, the restart-from-scratch baseline.
//!
//! The crate exposes a process-control surface (`fail` with a `Signal`,
//! breakpoints) plus lifecycle [`Hook`]s — exactly the
//! interface the FAIL-MPI middleware needs; the wiring of the two lives in
//! `failmpi-experiments`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod abstractmodel;
mod cluster;
mod config;
mod ctx;
mod dense;
mod dispatcher;
mod event;
mod scheduler;
mod server;
#[cfg(test)]
mod testutil;
mod trace;
mod vnode;
mod wire;

pub use abstractmodel::{AbstractEvent, AbstractPhase, AbstractRank, AbstractStep, AbstractVcl};
pub use cluster::{run_standalone, Cluster};
pub use ctx::TrafficStats;
pub use config::{CheckpointStyle, DispatcherMode, VProtocol, VclConfig};
pub use event::Ev;
pub use trace::{Hook, InstrumentedFn, VclEvent};
pub use wire::{LoggedMsg, Wire};
