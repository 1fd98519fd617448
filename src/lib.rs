//! # failmpi — *FAIL-MPI: How fault-tolerant is fault-tolerant MPI?* in Rust
//!
//! A full reproduction of Hérault, Hoarau, Lemarinier, Rodriguez & Tixeuil
//! (INRIA/LRI RR-1450, CLUSTER 2006): the **FAIL** fault-scenario language,
//! the **FAIL-MPI** injection middleware, a reimplementation of the
//! **MPICH-Vcl** fault-tolerant MPI runtime (non-blocking Chandy–Lamport),
//! a deterministic cluster simulator to run it all on, and the paper's
//! complete evaluation (Table 1, Figs. 5–11) as reproducible experiments.
//!
//! This facade crate re-exports the workspace layers:
//!
//! | layer | crate | contents |
//! |---|---|---|
//! | [`sim`] | `failmpi-sim` | deterministic discrete-event kernel |
//! | [`net`] | `failmpi-net` | simulated TCP-like cluster network |
//! | [`core`](mod@core) | `failmpi-core` | the FAIL language + injection runtime |
//! | [`mpi`] | `failmpi-mpi` | virtual MPI op-programs |
//! | [`backend`] | `failmpi-backend` | the `ProtocolBackend` contract, the light-runtime skeleton, the abstract-model vocabulary |
//! | [`mpichv`] | `failmpi-mpichv` | the MPICH-Vcl runtime under test |
//! | [`ulfm`] | `failmpi-ulfm` | shrink-and-continue recovery policy + abstract model |
//! | [`replica`] | `failmpi-replica` | replication-failover recovery policy + abstract model |
//! | [`workloads`] | `failmpi-workloads` | NAS-BT-pattern generators |
//! | [`experiments`] | `failmpi-experiments` | figure-by-figure evaluation |
//! | [`analyze`] | `failmpi-analyze` | static verification of scenarios & op-programs (`failck`) |
//!
//! ## Quickstart
//!
//! ```
//! use failmpi::prelude::*;
//!
//! // A miniature of the paper's headline experiment: strain MPICH-Vcl
//! // (historical dispatcher) with one fault every 4 virtual seconds.
//! let mut spec = ExperimentSpec {
//!     cluster: VclConfig::small(4, SimDuration::from_secs(2)),
//!     workload: Workload::Bt(BtClass::S),
//!     injection: Some(
//!         InjectionSpec::new(failmpi::experiments::figures::FIG5_SRC, "ADV1", "ADVnodes")
//!             .with_param("X", 4)
//!             .with_param("N", 5),
//!     ),
//!     timeout: SimTime::from_secs(90),
//!     freeze_window: SimDuration::from_secs(9),
//!     seed: 1,
//!     tie_break: TieBreak::Fifo,
//!     backend: BackendKind::Vcl,
//! };
//! let record = run_one(&spec);
//! assert!(record.faults_injected >= 1);
//!
//! // The same workload without faults finishes faster.
//! spec.injection = None;
//! let clean = run_one(&spec);
//! assert!(clean.outcome.time().unwrap() <= record.end);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use failmpi_analyze as analyze;
pub use failmpi_backend as backend;
pub use failmpi_core as core;
pub use failmpi_experiments as experiments;
pub use failmpi_fuzz as fuzz;
pub use failmpi_mpi as mpi;
pub use failmpi_mpichv as mpichv;
pub use failmpi_net as net;
pub use failmpi_replica as replica;
pub use failmpi_sim as sim;
pub use failmpi_ulfm as ulfm;
pub use failmpi_workloads as workloads;

/// The names most programs need.
pub mod prelude {
    pub use failmpi_analyze::{analyze_programs, analyze_scenario, check_source, Report, Severity};
    pub use failmpi_core::{compile, Deployment, FailAction, FailInput, FailRuntime};
    pub use failmpi_experiments::{
        run_one, BackendKind, ExperimentSpec, InjectionSpec, LintMode, Outcome, RunRecord,
        Workload,
    };
    pub use failmpi_mpi::{Interp, Op, Program, ProgramBuilder, Rank, Tag};
    pub use failmpi_mpichv::{
        run_standalone, CheckpointStyle, Cluster, DispatcherMode, VclConfig, VclEvent,
    };
    pub use failmpi_sim::{Engine, Model, SimDuration, SimRng, SimTime, TieBreak};
    pub use failmpi_workloads::{bt_programs, bt_programs_noisy, BtClass};
}
