//! # failmpi-sim — deterministic discrete-event simulation kernel
//!
//! This crate is the bottom layer of the FAIL-MPI reproduction. Every other
//! component — the simulated network, the virtual MPI runtime, the MPICH-Vcl
//! fault-tolerant runtime, and the FAIL fault-injection middleware — executes
//! on top of the event loop defined here.
//!
//! ## Design
//!
//! The kernel follows the *single-model* discrete-event style: the entire
//! world under simulation is one value implementing [`Model`]. Events are a
//! caller-defined type ([`Model::Event`]); the engine owns a priority queue of
//! `(time, sequence, event)` triples and repeatedly hands the earliest event
//! back to the model together with a [`Scheduler`] through which the model
//! schedules follow-up events. There are no trait objects, no interior
//! mutability and no threads inside a simulation: given the same seed and the
//! same model, a run is bit-for-bit reproducible. Parallelism in the
//! experiment harness happens *across* independent simulations, never inside
//! one (see the `failmpi-experiments` crate).
//!
//! Ties in virtual time are broken by insertion order (a monotonically
//! increasing sequence number), which both keeps the heap ordering total and
//! pins down simultaneous-event semantics: FIFO among same-time events.
//!
//! ## Quick example
//!
//! ```
//! use failmpi_sim::{Engine, Model, Scheduler, SimTime, SimDuration};
//!
//! struct Counter { fired: u32 }
//! #[derive(Debug)]
//! struct Tick;
//!
//! impl Model for Counter {
//!     type Event = Tick;
//!     fn handle(&mut self, now: SimTime, _ev: Tick, sched: &mut Scheduler<Tick>) {
//!         self.fired += 1;
//!         if self.fired < 10 {
//!             sched.after(SimDuration::from_secs(1), Tick);
//!         }
//!         let _ = now;
//!     }
//! }
//!
//! let mut engine = Engine::new(Counter { fired: 0 });
//! engine.schedule(SimTime::ZERO, Tick);
//! engine.run(SimTime::from_secs(1_000));
//! assert_eq!(engine.model().fired, 10);
//! assert_eq!(engine.now(), SimTime::from_secs(9));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod causal;
mod engine;
mod fingerprint;
mod queue;
mod rng;
mod time;
mod trace;

pub use causal::{CausalLog, CausalNode, EventDesc, EventId, Label, PackLabel};
pub use engine::{Engine, Model, RunOutcome, Scheduler};
pub use fingerprint::{Fingerprint, FingerprintEvent, JournalEntry};
pub use queue::{EventQueue, TieBreak};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
pub use trace::{TraceEntry, TraceLog};
