//! # failmpi-core — the FAIL language and the FAIL-MPI injection runtime
//!
//! This crate is the paper's primary contribution rebuilt in Rust:
//!
//! * **FAIL** (FAult Injection Language) — a small DSL describing fault
//!   scenarios as communicating state machines. Each `daemon` class is an
//!   automaton of numbered `node`s; transitions are guarded by message
//!   receptions (`?msg`), timers, process lifecycle events (`onload`,
//!   `onexit`, `onerror` — the three triggers FAIL-MPI added for
//!   self-deploying applications), or debugger breakpoints
//!   (`before(func)`), optionally refined by integer side-conditions; their
//!   actions send messages (`!msg(dest)`), drive the controlled process
//!   (`halt`, `stop`, `continue`), assign variables and `goto` other nodes.
//!   See [`lang`] for the full grammar.
//! * **The FCI/FAIL-MPI compiler** — [`compile`] turns source text into an
//!   executable [`Scenario`], interpreted directly where the paper's
//!   compiler generated C++ sources.
//! * **The injection runtime** — [`FailRuntime`] executes one automaton
//!   instance per cluster machine (plus free-standing coordinators like the
//!   paper's `P1`). It is host-agnostic: the embedding world feeds it
//!   [`FailInput`]s (timers, inter-daemon messages, lifecycle hooks,
//!   breakpoint hits) and applies the returned [`FailAction`]s (kill,
//!   suspend, resume, arm breakpoints, deliver messages).
//! * **The firing semantics** — [`fire`] holds the rules once, generic over
//!   a value domain; the runtime and the model checker in
//!   `failmpi-analyze` are two domains of it.
//!
//! The five scenario listings of the paper (Figs. 4, 5(a), 7(a), 8, 10)
//! ship verbatim — modulo ASCII syntax — in `scenarios/*.fail` and are
//! exercised end-to-end by the experiment harness.
//!
//! ```
//! use failmpi_core::{compile, Deployment, FailRuntime};
//!
//! let src = r#"
//!     param X = 50;
//!     daemon Adv {
//!       node 1:
//!         timer t = X;
//!         t -> !crash(G[0]), goto 2;
//!       node 2:
//!         ?ok -> goto 1;
//!     }
//!     daemon Node {
//!       node 1:
//!         onload -> continue, goto 2;
//!       node 2:
//!         ?crash -> !ok(P), halt, goto 1;
//!     }
//! "#;
//! let scenario = compile(src).expect("scenario compiles");
//! let mut deploy = Deployment::new();
//! deploy.add_instance("P", "Adv").unwrap();
//! let g0 = deploy.add_instance("n0", "Node").unwrap();
//! deploy.add_group("G", vec![g0]).unwrap();
//! let mut rt = FailRuntime::new(&scenario, deploy, &[("X", 10)]).unwrap();
//! let mut rng = failmpi_sim::SimRng::new(1);
//! let actions = rt.start(&mut rng);
//! assert!(!actions.is_empty()); // the timer of P was armed
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fire;
pub mod lang;
mod runtime;

pub use lang::compile::{compile, CompileError, Scenario};
pub use runtime::{Control, Deployment, FailAction, FailInput, FailRuntime, RuntimeError};
