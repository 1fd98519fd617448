//! Run-scoped MPICH-Vcl metrics, driven by the trace-event stream.
//!
//! [`VclMetrics`] observes every [`VclEvent`] *before* it reaches the
//! [`failmpi_sim::TraceLog`] (see `Facilities::trace`), so the counters
//! provably agree with trace-derived counts (there is a property test on
//! exactly that) without ever reading the log.
//!
//! Everything here is a function of the simulated schedule: virtual-time
//! histograms and monotonic counters only, safe for deterministic
//! snapshots.

use std::collections::BTreeMap;

use failmpi_obs::{Counter, Histogram, MetricsSnapshot};
use failmpi_sim::SimTime;
use failmpi_mpi::OpStats;

use crate::trace::VclEvent;

/// Metrics registry owned by one [`crate::Cluster`].
#[derive(Clone, Debug, Default)]
pub struct VclMetrics {
    /// Daemons launched (initial + every relaunch).
    pub daemons_spawned: Counter,
    /// Daemons that completed registration with the dispatcher.
    pub daemons_registered: Counter,
    /// `StartRun` broadcasts (epoch 0 plus one per completed recovery).
    pub runs_started: Counter,
    /// Ranks that resumed from an image (or started fresh) after a run
    /// start.
    pub ranks_resumed: Counter,
    /// Application progress markers observed.
    pub app_progress_events: Counter,
    /// Highest application iteration reached by any rank.
    pub max_progress: u32,
    /// Checkpoint waves started by the scheduler.
    pub waves_started: Counter,
    /// Local checkpoints completed (per rank, per wave).
    pub local_checkpoints: Counter,
    /// Checkpoint waves globally committed.
    pub waves_committed: Counter,
    /// Wave start→commit durations, in virtual microseconds.
    pub wave_commit_micros: Histogram,
    /// Failures the dispatcher detected.
    pub failures_detected: Counter,
    /// …of which during an ongoing recovery (the Fig. 10 bug window).
    pub failures_during_recovery: Counter,
    /// Death→detection latency, in virtual microseconds.
    pub detection_micros: Histogram,
    /// Recoveries started (epoch bumps).
    pub recoveries_started: Counter,
    /// Deepest epoch reached (recovery depth; 0 = no recovery).
    pub max_epoch: u32,
    /// Recovery start→run-restart durations, in virtual microseconds
    /// (the final attempt per restart when recoveries nest).
    pub recovery_micros: Histogram,
    /// ssh launch retries.
    pub launch_retries: Counter,
    /// Ranks that reached MPI finalize.
    pub ranks_finalized: Counter,
    /// Job completions observed (0 or 1).
    pub jobs_completed: Counter,
    /// Faults injected into this cluster (FAIL `halt` actions applied).
    pub faults_injected: Counter,

    /// MPI op counts harvested from daemon incarnations that were
    /// replaced; add the live vnodes' stats for the full picture (see
    /// [`crate::Cluster::mpi_ops`]).
    pub(crate) retired_ops: OpStats,

    /// Wave → start instant, for the commit-duration histogram.
    open_waves: BTreeMap<u32, SimTime>,
    /// The latest recovery start `(epoch, instant)` not yet closed by a
    /// `RunStarted`.
    open_recovery: Option<(u32, SimTime)>,
    /// Rank → last death instant, for detector latency.
    pending_deaths: BTreeMap<u32, SimTime>,
}

impl VclMetrics {
    /// Observes one trace event at `now`. Called for *every* event, before
    /// (and regardless of whether) the trace log stores it.
    pub fn observe(&mut self, now: SimTime, kind: &VclEvent) {
        match kind {
            VclEvent::DaemonSpawned { .. } => self.daemons_spawned.inc(),
            VclEvent::DaemonRegistered { .. } => self.daemons_registered.inc(),
            VclEvent::RunStarted { epoch } => {
                self.runs_started.inc();
                if *epoch > 0 {
                    if let Some((_, t0)) = self.open_recovery.take() {
                        self.recovery_micros.record((now - t0).as_micros());
                    }
                }
            }
            VclEvent::RankResumed { .. } => self.ranks_resumed.inc(),
            VclEvent::AppProgress { iter, .. } => {
                self.app_progress_events.inc();
                self.max_progress = self.max_progress.max(*iter);
            }
            VclEvent::WaveStarted { wave } => {
                self.waves_started.inc();
                self.open_waves.insert(*wave, now);
            }
            VclEvent::LocalCheckpointDone { .. } => self.local_checkpoints.inc(),
            VclEvent::WaveCommitted { wave } => {
                self.waves_committed.inc();
                if let Some(t0) = self.open_waves.remove(wave) {
                    self.wave_commit_micros.record((now - t0).as_micros());
                }
            }
            VclEvent::FailureDetected {
                rank,
                during_recovery,
                ..
            } => {
                self.failures_detected.inc();
                if *during_recovery {
                    self.failures_during_recovery.inc();
                }
                if let Some(t0) = self.pending_deaths.remove(&rank.0) {
                    self.detection_micros.record((now - t0).as_micros());
                }
            }
            VclEvent::RecoveryStarted { epoch } => {
                self.recoveries_started.inc();
                self.max_epoch = self.max_epoch.max(*epoch);
                self.open_recovery = Some((*epoch, now));
            }
            VclEvent::LaunchRetried { .. } => self.launch_retries.inc(),
            VclEvent::RankFinalized { .. } => self.ranks_finalized.inc(),
            VclEvent::JobComplete => self.jobs_completed.inc(),
        }
    }

    /// Notes that `rank`'s daemon died at `now`; the next
    /// `FailureDetected` for the rank closes the detector-latency sample.
    pub(crate) fn note_daemon_death(&mut self, now: SimTime, rank: u32) {
        self.pending_deaths.insert(rank, now);
    }

    /// Counts one injected fault (`halt` applied to this cluster).
    pub(crate) fn note_fault_injected(&mut self) {
        self.faults_injected.inc();
    }

    /// Folds a replaced daemon incarnation's MPI op counts in.
    pub(crate) fn retire_ops(&mut self, ops: &OpStats) {
        self.retired_ops.merge(ops);
    }

    /// Writes the `mpichv.*` counters and histograms into `snap`.
    pub fn contribute(&self, snap: &mut MetricsSnapshot) {
        snap.set_counter("mpichv.daemons_spawned", self.daemons_spawned.get());
        snap.set_counter("mpichv.daemons_registered", self.daemons_registered.get());
        snap.set_counter("mpichv.runs_started", self.runs_started.get());
        snap.set_counter("mpichv.ranks_resumed", self.ranks_resumed.get());
        snap.set_counter(
            "mpichv.app_progress_events",
            self.app_progress_events.get(),
        );
        snap.set_counter("mpichv.max_progress", self.max_progress as u64);
        snap.set_counter("mpichv.waves_started", self.waves_started.get());
        snap.set_counter("mpichv.local_checkpoints", self.local_checkpoints.get());
        snap.set_counter("mpichv.waves_committed", self.waves_committed.get());
        snap.set_counter("mpichv.failures_detected", self.failures_detected.get());
        snap.set_counter(
            "mpichv.failures_during_recovery",
            self.failures_during_recovery.get(),
        );
        snap.set_counter("mpichv.recoveries_started", self.recoveries_started.get());
        snap.set_counter("mpichv.max_epoch", self.max_epoch as u64);
        snap.set_counter("mpichv.launch_retries", self.launch_retries.get());
        snap.set_counter("mpichv.ranks_finalized", self.ranks_finalized.get());
        snap.set_counter("mpichv.jobs_completed", self.jobs_completed.get());
        snap.set_counter("mpichv.faults_injected", self.faults_injected.get());
        snap.set_histogram("mpichv.wave_commit_micros", &self.wave_commit_micros);
        snap.set_histogram("mpichv.recovery_micros", &self.recovery_micros);
        snap.set_histogram("mpichv.detection_micros", &self.detection_micros);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use failmpi_mpi::Rank;
    use failmpi_net::HostId;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn wave_durations_pair_start_with_commit() {
        let mut m = VclMetrics::default();
        m.observe(t(10), &VclEvent::WaveStarted { wave: 1 });
        m.observe(t(13), &VclEvent::WaveCommitted { wave: 1 });
        // A commit without a start records no duration.
        m.observe(t(20), &VclEvent::WaveCommitted { wave: 7 });
        assert_eq!(m.waves_started.get(), 1);
        assert_eq!(m.waves_committed.get(), 2);
        assert_eq!(m.wave_commit_micros.count(), 1);
        assert_eq!(m.wave_commit_micros.sum(), 3_000_000);
    }

    #[test]
    fn detection_latency_pairs_death_with_detection() {
        let mut m = VclMetrics::default();
        m.note_daemon_death(t(5), 3);
        m.observe(
            t(6),
            &VclEvent::FailureDetected {
                rank: Rank(3),
                epoch: 0,
                during_recovery: false,
            },
        );
        assert_eq!(m.detection_micros.count(), 1);
        assert_eq!(m.detection_micros.sum(), 1_000_000);
        // A detection with no recorded death records no latency.
        m.observe(
            t(7),
            &VclEvent::FailureDetected {
                rank: Rank(9),
                epoch: 0,
                during_recovery: true,
            },
        );
        assert_eq!(m.detection_micros.count(), 1);
        assert_eq!(m.failures_during_recovery.get(), 1);
    }

    #[test]
    fn recovery_length_closes_on_run_start() {
        let mut m = VclMetrics::default();
        m.observe(t(0), &VclEvent::RunStarted { epoch: 0 });
        assert_eq!(m.recovery_micros.count(), 0, "epoch 0 is not a recovery");
        m.observe(t(100), &VclEvent::RecoveryStarted { epoch: 1 });
        m.observe(t(140), &VclEvent::RunStarted { epoch: 1 });
        assert_eq!(m.recovery_micros.count(), 1);
        assert_eq!(m.recovery_micros.sum(), 40_000_000);
        assert_eq!(m.max_epoch, 1);
    }

    #[test]
    fn progress_tracks_maximum() {
        let mut m = VclMetrics::default();
        for (rank, iter) in [(0, 3), (1, 7), (0, 5)] {
            m.observe(
                t(1),
                &VclEvent::AppProgress {
                    rank: Rank(rank),
                    iter,
                },
            );
        }
        assert_eq!(m.max_progress, 7);
        assert_eq!(m.app_progress_events.get(), 3);
    }

    #[test]
    fn contribute_emits_stable_key_set() {
        let mut m = VclMetrics::default();
        m.observe(
            t(0),
            &VclEvent::DaemonSpawned {
                rank: Rank(0),
                epoch: 0,
                host: HostId(4),
            },
        );
        let mut a = MetricsSnapshot::new();
        m.contribute(&mut a);
        let empty = VclMetrics::default();
        let mut b = MetricsSnapshot::new();
        empty.contribute(&mut b);
        // The schema (key set) must not depend on what happened.
        let keys = |s: &MetricsSnapshot| {
            s.counters
                .keys()
                .chain(s.histograms.keys())
                .cloned()
                .collect::<Vec<_>>()
        };
        assert_eq!(keys(&a), keys(&b));
        assert_eq!(a.counter("mpichv.daemons_spawned"), 1);
        assert_eq!(b.counter("mpichv.daemons_spawned"), 0);
    }
}
