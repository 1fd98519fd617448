//! # failmpi-mpi — virtual MPI processes as op-programs
//!
//! The paper runs real MPI applications (NAS BT) under MPICH-Vcl and uses
//! BLCR to snapshot whole unix processes. This crate is the simulated
//! equivalent: an MPI process is an **op-program** — a per-rank sequence of
//! [`Op`]s (compute, send, recv, progress markers) — executed by an
//! [`Interp`] whose entire state is a plain value. Snapshotting a process
//! image is `Interp::clone`; rollback is assignment. The fault-tolerance
//! layer (`failmpi-mpichv`) never looks inside: it sees the same interface a
//! checkpointing library gives it — an opaque image of a known size.
//!
//! A [`Program`] is held as the loop it is ([`LoopBody`]: one iteration's
//! ops, the iteration count, every iteration's compute spans) and is never
//! expanded: the interpreter computes op `pc` from the description
//! ([`Program::op_at`]), so a process image is a `pc` into an immutable
//! program plus the process' own state.
//!
//! Collective operations are *lowered* to point-to-point ops at program
//! construction time ([`collectives`]), mirroring how MPICH implements
//! collectives over the channel interface. The lowering is
//! communication-pattern-accurate (who talks to whom, how many bytes);
//! arithmetic reduction values are not modelled because no experiment
//! depends on them.
//!
//! [`lockstep`] provides a non-fault-tolerant reference executor used by
//! tests and generators to prove programs deadlock-free and message-matched
//! before they ever run under the fault-tolerant runtime.
//!
//! ```
//! use failmpi_mpi::{Action, Interp, ProgramBuilder, Rank, Tag};
//! use failmpi_sim::SimDuration;
//!
//! let program = ProgramBuilder::new(32 << 20) // 32 MB process image
//!     .compute(SimDuration::from_millis(50))
//!     .recv(Rank(1), Tag(0))
//!     .finalize();
//! let mut proc = Interp::new(Rank(0), program);
//! assert_eq!(proc.step(), Action::Busy(SimDuration::from_millis(50)));
//!
//! // A checkpoint is just a clone; rollback is assignment.
//! let image = proc.clone();
//! proc.deliver(Rank(1), Tag(0), 1024);
//! assert_eq!(proc.step(), Action::Finalized);
//! let mut rolled_back = image;
//! assert!(matches!(rolled_back.step(), Action::Blocked { .. }));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod collectives;
mod interp;
pub mod lockstep;
mod program;
mod stats;
mod types;

pub use interp::{Action, Interp};
pub use program::{LoopBody, Op, Program, ProgramBuilder};
pub use stats::OpStats;
pub use types::{Rank, Tag};
