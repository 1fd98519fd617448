//! # failmpi-backend — the protocol-backend abstraction
//!
//! The paper strains *one* fault-tolerant MPI runtime (MPICH-Vcl). This
//! crate factors out everything the experiment harness, classifier, and
//! model checker actually depend on, so that *any* fault-tolerance
//! protocol can be strained by the same FAIL scenarios:
//!
//! * [`ProtocolBackend`] — the runtime contract: world construction hands
//!   the harness an event-driven deterministic machine; the harness feeds
//!   events back via [`ProtocolBackend::dispatch`], injects faults through
//!   the process-control surface (`fail_halt` / `fail_stop` /
//!   `fail_continue` / breakpoints), and observes lifecycle [`Hook`]s,
//!   the shared [`VclEvent`] trace vocabulary, probes, and metrics.
//! * [`BackendKind`] — the closed set of implemented protocols:
//!   rollback-recovery ([`BackendKind::Vcl`], `failmpi-mpichv`),
//!   shrink-and-continue ([`BackendKind::Ulfm`], `failmpi-ulfm`), and
//!   replication-failover ([`BackendKind::Replica`], `failmpi-replica`).
//! * [`Chassis`] — the state behind that surface (outbox, hooks, lifecycle
//!   trace, lifecycle ledger, breakpoint table, traffic ledger), owned once
//!   by every runtime; the trait's hand-off methods and lifecycle answers
//!   are provided over it, and [`Chassis::contribute`] writes the
//!   `lifecycle.*` and `net.traffic.*` metrics of every backend.
//! * [`light`] — the one runtime skeleton behind every dispatcher-less
//!   backend: [`light::LightRuntime`] owns the process table, op-streams,
//!   boot/init/breakpoint ladder and process-control surface and
//!   implements [`ProtocolBackend`] once; a [`light::RecoveryPolicy`]
//!   (ULFM's shrink, replication's promotion) supplies only the reaction
//!   to a lost process.
//! * The shared **abstract-model vocabulary** ([`AbstractPhase`],
//!   [`AbstractRank`], [`AbstractStep`], [`AbstractEvent`]) that every
//!   backend's finite abstraction speaks, so `failck --model-check`
//!   stays cross-layer and backend-tagged — and, in [`vocab`], the
//!   [`vocab::AbstractModel`] trait the explorer sees them through, with
//!   the boot ladder and slot relabelling all three models share.
//!
//! The trace vocabulary keeps its historical name (`VclEvent`) because it
//! was extracted from the reference Vcl runtime; each backend maps its own
//! lifecycle onto these records (see DESIGN.md's phase table), which is
//! exactly what lets one classifier and one freeze-window definition serve
//! all protocols.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chassis;
mod kind;
mod ledger;
pub mod light;
mod trace;
mod traffic;
pub mod vocab;

pub use chassis::Chassis;
pub use kind::BackendKind;
pub use trace::{Hook, InstrumentedFn, VclEvent};
pub use traffic::TrafficStats;
pub use vocab::{
    AbstractEvent, AbstractPhase, AbstractRank, AbstractStep, Slots, EPOCH_CAP, INCARNATION_CAP,
    WAVE_CAP,
};

use failmpi_net::{HostId, ProcId, MAX_HOSTS};
use failmpi_obs::MetricsSnapshot;
use failmpi_sim::{
    EventDesc, EventId, FingerprintEvent, Label, SimDuration, SimTime, TraceEntry, TraceLog,
};

/// Shared sizing and timing knobs for the non-Vcl backends (the Vcl
/// runtime keeps its richer `VclConfig`). Constructed from the harness's
/// cluster config so one spec drives every backend at the same scale.
#[derive(Clone, Debug)]
pub struct BackendConfig {
    /// MPI ranks in the job.
    pub n_ranks: u32,
    /// Compute machines available (ranks land on the first `n_ranks`;
    /// the surplus is spare capacity — replica hosts, idle spares).
    pub n_compute_hosts: usize,
    /// Process boot latency (launch → `onload`).
    pub boot_delay: SimDuration,
    /// Per-rank boot stagger (rank `i` launches at `i * stagger`).
    pub boot_stagger: SimDuration,
    /// Registration latency (`onload` → registered).
    pub init_delay: SimDuration,
    /// Failure-detection latency (process death → runtime notices).
    pub detect_delay: SimDuration,
    /// One round of the recovery exchange (an `agree`/`shrink`
    /// recursive-doubling round, or a promotion handshake leg).
    pub round_delay: SimDuration,
    /// Base virtual time of one application op step.
    pub op_delay: SimDuration,
}

impl BackendConfig {
    /// A smoke-scale config: `n_ranks` ranks over `n_hosts` machines.
    pub fn small(n_ranks: u32, n_hosts: usize) -> BackendConfig {
        BackendConfig {
            n_ranks,
            n_compute_hosts: n_hosts,
            boot_delay: SimDuration::from_millis(400),
            boot_stagger: SimDuration::from_millis(120),
            init_delay: SimDuration::from_millis(250),
            detect_delay: SimDuration::from_millis(600),
            round_delay: SimDuration::from_millis(180),
            op_delay: SimDuration::from_millis(900),
        }
    }

    /// Validates the shape (at least one rank, enough hosts, no more
    /// than the network holds).
    pub fn validate(&self) -> Result<(), String> {
        if self.n_ranks == 0 {
            return Err("n_ranks must be >= 1".into());
        }
        if self.n_compute_hosts > MAX_HOSTS {
            return Err(format!(
                "{} compute hosts exceed the network's {MAX_HOSTS}",
                self.n_compute_hosts
            ));
        }
        if self.n_compute_hosts < self.n_ranks as usize {
            return Err(format!(
                "n_compute_hosts ({}) < n_ranks ({})",
                self.n_compute_hosts, self.n_ranks
            ));
        }
        Ok(())
    }
}

/// The runtime contract every fault-tolerance protocol implements to be
/// strained by the FAIL harness.
///
/// A backend is a deterministic event machine: the harness's engine owns
/// the clock and the event queue; the backend reacts to its own
/// [`ProtocolBackend::Event`]s, leaves follow-ups in an outbox the harness
/// empties in place after every event ([`ProtocolBackend::drain_outputs`]:
/// nothing is allocated to hand them over, and the outbox keeps its
/// buffer), and surfaces lifecycle transitions as [`Hook`]s (the
/// FAIL-daemon interface of paper Sec. 4) plus [`VclEvent`] trace records
/// (what the classifier reads).
///
/// Determinism is part of the contract — same config, same programs, same
/// seed, same injected schedule ⇒ byte-identical fingerprint — and the
/// backend-conformance suite double-runs every backend to prove it.
///
/// **Profiling contract.** When a `failmpi_obs::prof` context is active
/// on the run's thread, a backend charges its layer costs into it:
/// payload bytes handed across an internal boundary go to the copy
/// ledger (`failmpi_obs::prof::copy`, hop names prefixed with the
/// backend's layer, e.g. `mpichv.dispatch`, `ulfm.agree`), and
/// sub-handler structure worth attributing opens spans
/// (`failmpi_obs::prof::span`). Every charge must be derived from the
/// simulated schedule alone — never wall clock — so profiles inherit the
/// determinism contract above, and profiling must not alter behaviour:
/// the schedule-transparency property test pins that fingerprints are
/// byte-identical with profiling on and off.
pub trait ProtocolBackend {
    /// The backend's internal event alphabet.
    type Event: FingerprintEvent + std::fmt::Debug;

    /// The runtime's chassis: the state every method below down to
    /// [`ProtocolBackend::max_progress`] is provided over.
    fn chassis(&self) -> &Chassis<Self::Event>;

    /// The chassis, mutably.
    fn chassis_mut(&mut self) -> &mut Chassis<Self::Event>;

    /// Records the engine event causing the upcoming state change (causal
    /// tracing); `None` clears it. A no-op when trace recording is off.
    fn set_event_cause(&mut self, cause: Option<EventId>) {
        self.chassis_mut().trace.set_cause(cause);
    }

    /// Drains the events produced since the last call, in place (feed
    /// them to the engine; whatever the caller leaves undrained is dropped).
    fn drain_outputs(&mut self) -> std::vec::Drain<'_, (SimTime, Self::Event)> {
        self.chassis_mut().out.drain(..)
    }

    /// Drains lifecycle/breakpoint hooks produced since the last call.
    fn take_hooks(&mut self) -> Vec<Hook> {
        std::mem::take(&mut self.chassis_mut().hooks)
    }

    /// Arms a debugger breakpoint on `func` for `proc`.
    fn arm_breakpoint(&mut self, proc: ProcId, func: InstrumentedFn) {
        self.chassis_mut().arm(proc, func);
    }

    /// Clears all breakpoints for `proc`.
    fn clear_breakpoints(&mut self, proc: ProcId) {
        self.chassis_mut().disarm(proc);
    }

    /// The lifecycle trace the classifier reads.
    fn trace(&self) -> &TraceLog<VclEvent> {
        &self.chassis().trace
    }

    /// Moves the lifecycle trace's entries out (for the run's artifacts,
    /// once the run is over).
    fn take_trace(&mut self) -> Vec<TraceEntry<VclEvent>> {
        self.chassis_mut().trace.take_entries()
    }

    /// Byte counters by traffic class.
    fn traffic(&self) -> TrafficStats {
        self.chassis().traffic
    }

    /// Current execution epoch: 0, then the epoch of the latest
    /// `RecoveryStarted` record (+1 per recovery).
    fn epoch(&self) -> u32 {
        self.chassis().ledger.epoch
    }

    /// The wave of the latest `WaveCommitted` record (`None` before the
    /// first commit, and always for protocols without checkpoint waves —
    /// the probe then never fires).
    fn committed_wave(&self) -> Option<u32> {
        self.chassis().ledger.committed_wave
    }

    /// Recoveries started so far (shrinks, promotions, restart waves).
    fn recoveries_started(&self) -> u64 {
        self.chassis().ledger.recoveries_started.get()
    }

    /// Checkpoint waves committed so far.
    fn waves_committed(&self) -> u64 {
        self.chassis().ledger.waves_committed.get()
    }

    /// Highest application iteration any rank reported.
    fn max_progress(&self) -> u32 {
        self.chassis().ledger.max_progress
    }

    /// Handles one event at `now`.
    fn dispatch(&mut self, now: SimTime, ev: Self::Event);

    /// Whether the job ran to completion.
    fn is_complete(&self) -> bool;

    /// Kills a controlled process (the FAIL `halt` action).
    fn fail_halt(&mut self, now: SimTime, proc: ProcId);

    /// Suspends a controlled process (`stop`, SIGSTOP semantics).
    fn fail_stop(&mut self, now: SimTime, proc: ProcId);

    /// Resumes a controlled process (`continue`).
    fn fail_continue(&mut self, now: SimTime, proc: ProcId);

    /// The `i`-th compute machine (FAIL daemons deploy per machine).
    fn compute_host(&self, i: usize) -> HostId;

    /// Number of compute machines.
    fn n_compute_hosts(&self) -> usize;

    /// Track display names, indexed by [`EventDesc::track`].
    fn track_names(&self) -> Vec<String>;

    /// What the engine's instruments record of an event (the harness's
    /// `Model::describe` forwards it): its stable kind (profiling bucket),
    /// its one-line description packed (what the causal log stores), and
    /// its timeline track (an index into
    /// [`ProtocolBackend::track_names`]).
    fn describe(&self, ev: &Self::Event) -> EventDesc;

    /// The text of a label [`ProtocolBackend::describe`] packed — the one
    /// place the backend's event descriptions are spelled.
    fn render_label(label: Label) -> String;

    /// Folds the backend's own metrics into a snapshot: everything beyond
    /// what [`Chassis::contribute`] reports for every backend.
    fn contribute_metrics(&self, snap: &mut MetricsSnapshot);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_kind_roundtrips_through_names() {
        for k in BackendKind::all() {
            assert_eq!(k.name().parse::<BackendKind>().unwrap(), k);
            assert_eq!(format!("{k}"), k.name());
        }
        assert!("vdummy".parse::<BackendKind>().is_err());
    }

    #[test]
    fn small_config_validates() {
        assert!(BackendConfig::small(4, 6).validate().is_ok());
        assert!(BackendConfig::small(4, 3).validate().is_err());
        let mut c = BackendConfig::small(1, 1);
        c.n_ranks = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn compute_hosts_fit_the_network() {
        assert!(BackendConfig::small(4, MAX_HOSTS).validate().is_ok());
        let err = BackendConfig::small(4, MAX_HOSTS + 1).validate().unwrap_err();
        assert_eq!(err, "65537 compute hosts exceed the network's 65536");
    }
}
