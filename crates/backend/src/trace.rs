//! Shared lifecycle-trace vocabulary of a fault-tolerant run, and the
//! hook events exposed to the fault-injection layer.
//!
//! Extracted from the MPICH-Vcl runtime (hence the `VclEvent` name); every
//! backend maps its own lifecycle onto these records so one classifier and
//! one freeze-window definition serve all protocols.

use failmpi_mpi::Rank;
use failmpi_net::{HostId, ProcId};

/// What a backend records into its [`failmpi_sim::TraceLog`]. The
/// experiment harness classifies runs from these records, the way the
/// paper's authors classified runs "by analysing the execution trace".
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VclEvent {
    /// A communication daemon process was spawned (ssh arrival).
    DaemonSpawned {
        /// Rank of the daemon.
        rank: Rank,
        /// Execution epoch (0 = initial launch, +1 per recovery).
        epoch: u32,
        /// Machine it landed on.
        host: HostId,
    },
    /// A daemon registered with the dispatcher (or, for runtimes without
    /// a dispatcher, completed its connect/init handshake).
    DaemonRegistered {
        /// Rank of the daemon.
        rank: Rank,
        /// Epoch it registered for.
        epoch: u32,
    },
    /// All ranks ready; the run (or re-run) started.
    RunStarted {
        /// Epoch being started.
        epoch: u32,
    },
    /// A rank resumed computation after a recovery (restore, shrink, or
    /// promotion).
    RankResumed {
        /// The resuming rank.
        rank: Rank,
        /// Wave it restarted from (`None` = from scratch or no rollback).
        from_wave: Option<u32>,
    },
    /// The application reported progress (an iteration finished).
    AppProgress {
        /// Reporting rank.
        rank: Rank,
        /// Iteration counter.
        iter: u32,
    },
    /// The checkpoint scheduler opened a wave.
    WaveStarted {
        /// Wave number.
        wave: u32,
    },
    /// A rank finished its local checkpoint (image stored + markers in).
    LocalCheckpointDone {
        /// The rank.
        rank: Rank,
        /// Wave number.
        wave: u32,
    },
    /// Every rank acked the wave; it is now the restart line.
    WaveCommitted {
        /// Wave number.
        wave: u32,
    },
    /// The runtime detected an unexpected process death.
    FailureDetected {
        /// Rank whose daemon died.
        rank: Rank,
        /// Epoch in which it died.
        epoch: u32,
        /// Whether a recovery was already in flight (the paper's bug
        /// window).
        during_recovery: bool,
    },
    /// A recovery began (stop/relaunch, shrink agreement, or promotion).
    RecoveryStarted {
        /// The new epoch.
        epoch: u32,
    },
    /// A daemon respawn attempt failed before registration (the daemon
    /// died pre-register; the dispatcher retries the ssh launch).
    LaunchRetried {
        /// Rank being relaunched.
        rank: Rank,
        /// Epoch of the attempt.
        epoch: u32,
    },
    /// An MPI process called `MPI_Finalize`.
    RankFinalized {
        /// The finalizing rank.
        rank: Rank,
    },
    /// All ranks finalized; the job shut down.
    JobComplete,
}

/// Instrumentable functions (the simulation's debugger breakpoints).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum InstrumentedFn {
    /// Called by a communication daemon right after the initial argument
    /// exchange with the dispatcher — the paper's Fig. 10 injection point.
    LocalMpiSetCommand,
}

impl InstrumentedFn {
    /// Every instrumentable function.
    pub const ALL: [InstrumentedFn; 1] = [InstrumentedFn::LocalMpiSetCommand];

    /// The name a FAIL scenario's `before(name)` calls this function by —
    /// the one place each name is spelled.
    pub fn name(self) -> &'static str {
        match self {
            InstrumentedFn::LocalMpiSetCommand => "localMPI_setCommand",
        }
    }

    /// The function `before(name)` names, if any.
    pub fn from_name(name: &str) -> Option<InstrumentedFn> {
        Self::ALL.into_iter().find(|f| f.name() == name)
    }
}

/// Lifecycle and breakpoint events exposed to the fault-injection layer
/// (the FAIL-MPI daemon interface of paper Sec. 4).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Hook {
    /// A process registered with the FAIL-MPI daemon on `host` (the
    /// self-deploying integration scheme: every daemon spawn registers).
    OnLoad {
        /// Machine the process runs on.
        host: HostId,
        /// The process.
        proc: ProcId,
    },
    /// A registered process exited normally.
    OnExit {
        /// Machine the process ran on.
        host: HostId,
        /// The process.
        proc: ProcId,
    },
    /// A registered process died abnormally.
    OnError {
        /// Machine the process ran on.
        host: HostId,
        /// The process.
        proc: ProcId,
    },
    /// A registered process reached an armed breakpoint and is held.
    Breakpoint {
        /// Machine the process runs on.
        host: HostId,
        /// The held process.
        proc: ProcId,
        /// The function about to be entered.
        func: InstrumentedFn,
    },
}
