//! Assembling a run's exported causal trace: the
//! [`failmpi_trace::TraceFile`] that `--trace-out` (through
//! [`crate::telemetry`]), `failmpi-trace timeline` and the fuzz oracle
//! write.
//!
//! This module owns the [`VclEvent`] → [`Mark`] conversion — the semantic
//! vocabulary `failmpi-trace explain` keys on (`failure_detected`,
//! `recovery_started`, `daemon_spawned`, …), so the kind strings here are
//! a compatibility contract with that crate.

use std::io::{self, Write};

use failmpi_sim::{CausalLog, TraceEntry};
use failmpi_mpichv::VclEvent;
use failmpi_trace::{Mark, Node, TraceFile};

use crate::harness::RunArtifacts;
use crate::robustness::outcome_class;

/// Converts one semantic cluster-trace entry into a [`Mark`], anchored to
/// the engine event it was recorded under (when causal tracing was on).
///
/// The kind strings are the stable vocabulary of `failmpi-trace explain`
/// and must not be renamed casually: `failure_detected`,
/// `recovery_started` and `daemon_spawned` drive its dispatcher-bug
/// narration.
pub fn mark_of(entry: &TraceEntry<VclEvent>) -> Mark {
    let mut m = Mark {
        node: entry.cause.map(|id| id.0),
        t_us: entry.at.as_micros(),
        kind: String::new(),
        label: String::new(),
        rank: None,
        epoch: None,
        wave: None,
        during_recovery: false,
    };
    match &entry.kind {
        VclEvent::DaemonSpawned { rank, epoch, host } => {
            m.kind = "daemon_spawned".to_string();
            m.label = format!("spawn rank {} epoch {epoch} on host {}", rank.0, host.0);
            m.rank = Some(i64::from(rank.0));
            m.epoch = Some(i64::from(*epoch));
        }
        VclEvent::DaemonRegistered { rank, epoch } => {
            m.kind = "daemon_registered".to_string();
            m.label = format!("rank {} registered epoch {epoch}", rank.0);
            m.rank = Some(i64::from(rank.0));
            m.epoch = Some(i64::from(*epoch));
        }
        VclEvent::RunStarted { epoch } => {
            m.kind = "run_started".to_string();
            m.label = format!("run started epoch {epoch}");
            m.epoch = Some(i64::from(*epoch));
        }
        VclEvent::RankResumed { rank, from_wave } => {
            m.kind = "rank_resumed".to_string();
            m.label = match from_wave {
                Some(w) => format!("rank {} resumed from wave {w}", rank.0),
                None => format!("rank {} resumed from scratch", rank.0),
            };
            m.rank = Some(i64::from(rank.0));
            m.wave = from_wave.map(i64::from);
        }
        VclEvent::AppProgress { rank, iter } => {
            m.kind = "app_progress".to_string();
            m.label = format!("rank {} iteration {iter}", rank.0);
            m.rank = Some(i64::from(rank.0));
        }
        VclEvent::WaveStarted { wave } => {
            m.kind = "wave_started".to_string();
            m.label = format!("wave {wave} started");
            m.wave = Some(i64::from(*wave));
        }
        VclEvent::LocalCheckpointDone { rank, wave } => {
            m.kind = "local_checkpoint_done".to_string();
            m.label = format!("rank {} checkpointed wave {wave}", rank.0);
            m.rank = Some(i64::from(rank.0));
            m.wave = Some(i64::from(*wave));
        }
        VclEvent::WaveCommitted { wave } => {
            m.kind = "wave_committed".to_string();
            m.label = format!("wave {wave} committed");
            m.wave = Some(i64::from(*wave));
        }
        VclEvent::FailureDetected {
            rank,
            epoch,
            during_recovery,
        } => {
            m.kind = "failure_detected".to_string();
            m.label = if *during_recovery {
                format!(
                    "FAILURE rank {} epoch {epoch} (during active recovery)",
                    rank.0
                )
            } else {
                format!("FAILURE rank {} epoch {epoch}", rank.0)
            };
            m.rank = Some(i64::from(rank.0));
            m.epoch = Some(i64::from(*epoch));
            m.during_recovery = *during_recovery;
        }
        VclEvent::RecoveryStarted { epoch } => {
            m.kind = "recovery_started".to_string();
            m.label = format!("recovery -> epoch {epoch}");
            m.epoch = Some(i64::from(*epoch));
        }
        VclEvent::LaunchRetried { rank, epoch } => {
            m.kind = "launch_retried".to_string();
            m.label = format!("relaunch retry rank {} epoch {epoch}", rank.0);
            m.rank = Some(i64::from(rank.0));
            m.epoch = Some(i64::from(*epoch));
        }
        VclEvent::RankFinalized { rank } => {
            m.kind = "rank_finalized".to_string();
            m.label = format!("rank {} finalized", rank.0);
            m.rank = Some(i64::from(rank.0));
        }
        VclEvent::JobComplete => {
            m.kind = "job_complete".to_string();
            m.label = "job complete".to_string();
        }
    }
    m
}

/// Everything of a run's exported trace but its nodes: the backend's
/// semantic [`VclEvent`] records as anchored marks, plus run identity
/// (name, seed, classified outcome, end instant, track names).
fn trace_frame_of(name: &str, seed: u64, run: &RunArtifacts) -> TraceFile {
    TraceFile {
        name: name.to_string(),
        seed,
        outcome: outcome_class(&run.record.outcome).to_string(),
        end_micros: run.record.end.as_micros(),
        tracks: run.track_names.clone(),
        nodes: Vec::new(),
        marks: run.trace.iter().map(mark_of).collect(),
    }
}

/// Assembles the exported trace of one run (made with
/// [`crate::harness::Observe::causal`] on), in memory: the engine's
/// happens-before DAG as nodes inside [`trace_frame_of`]'s frame.
pub fn trace_file_of(name: &str, seed: u64, run: &RunArtifacts) -> TraceFile {
    TraceFile {
        nodes: run.causal.nodes().map(Node::from).collect(),
        ..trace_frame_of(name, seed, run)
    }
}

/// The exported trace of one run, kept as the run left it — the packed
/// causal log beside the frame — and rendered node by node as it is
/// written: a paper-scale trace is 25 MB of JSON over a 9 MB log.
#[derive(Clone, Debug)]
pub struct TraceExport {
    pub(crate) frame: TraceFile,
    pub(crate) log: CausalLog,
}

impl TraceExport {
    /// What `--trace-out` writes for `run`.
    pub fn of(name: &str, seed: u64, run: &RunArtifacts) -> TraceExport {
        TraceExport {
            frame: trace_frame_of(name, seed, run),
            log: run.causal.clone(),
        }
    }

    /// Writes the bytes `trace_file_of(..).to_json()` would hold.
    pub fn write_json(&self, w: &mut impl Write) -> io::Result<()> {
        self.frame
            .write_json_with_nodes(w, self.log.nodes().map(Node::from))
    }

    /// Streams the trace to a new file at `path`.
    pub fn write_to(&self, path: &str) -> io::Result<()> {
        let mut file = io::BufWriter::new(std::fs::File::create(path)?);
        self.write_json(&mut file)?;
        file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use failmpi_net::HostId;
    use failmpi_sim::SimTime;
    use failmpi_mpi::Rank;

    fn entry(kind: VclEvent) -> TraceEntry<VclEvent> {
        TraceEntry::new(SimTime::from_secs(3), kind)
    }

    #[test]
    fn explain_contract_kind_strings_are_stable() {
        // `failmpi-trace explain` narrates the dispatcher bug from exactly
        // these kinds; renaming them silently breaks the CLI.
        let bug = mark_of(&entry(VclEvent::FailureDetected {
            rank: Rank(2),
            epoch: 1,
            during_recovery: true,
        }));
        assert_eq!(bug.kind, "failure_detected");
        assert!(bug.during_recovery);
        assert_eq!(bug.rank, Some(2));
        assert_eq!(bug.epoch, Some(1));
        let wave = mark_of(&entry(VclEvent::RecoveryStarted { epoch: 1 }));
        assert_eq!(wave.kind, "recovery_started");
        let spawn = mark_of(&entry(VclEvent::DaemonSpawned {
            rank: Rank(2),
            epoch: 1,
            host: HostId(5),
        }));
        assert_eq!(spawn.kind, "daemon_spawned");
        assert_eq!((spawn.rank, spawn.epoch), (Some(2), Some(1)));
    }

    #[test]
    fn the_streamed_export_is_the_materialised_one() {
        let spec = crate::robustness::fig10_stress_spec(
            failmpi_mpichv::DispatcherMode::Historical,
            3,
        );
        let run = crate::harness::run_one_traced(&spec);
        let mut streamed = Vec::new();
        TraceExport::of("t", 3, &run)
            .write_json(&mut streamed)
            .expect("writing to memory");
        let file = trace_file_of("t", 3, &run);
        assert_eq!(file.nodes.len() as u64, run.record.events);
        assert_eq!(String::from_utf8(streamed).expect("utf8"), file.to_json());
    }

    #[test]
    fn marks_carry_time_and_anchor() {
        let mut e = entry(VclEvent::WaveCommitted { wave: 4 });
        e.cause = Some(failmpi_sim::EventId(17));
        let m = mark_of(&e);
        assert_eq!(m.node, Some(17));
        assert_eq!(m.t_us, SimTime::from_secs(3).as_micros());
        assert_eq!(m.wave, Some(4));
        assert_eq!(m.kind, "wave_committed");
    }

    #[test]
    fn every_vcl_event_maps_to_a_distinct_kind() {
        let events = vec![
            VclEvent::DaemonSpawned {
                rank: Rank(0),
                epoch: 0,
                host: HostId(0),
            },
            VclEvent::DaemonRegistered { rank: Rank(0), epoch: 0 },
            VclEvent::RunStarted { epoch: 0 },
            VclEvent::RankResumed {
                rank: Rank(0),
                from_wave: None,
            },
            VclEvent::AppProgress { rank: Rank(0), iter: 1 },
            VclEvent::WaveStarted { wave: 0 },
            VclEvent::LocalCheckpointDone { rank: Rank(0), wave: 0 },
            VclEvent::WaveCommitted { wave: 0 },
            VclEvent::FailureDetected {
                rank: Rank(0),
                epoch: 0,
                during_recovery: false,
            },
            VclEvent::RecoveryStarted { epoch: 1 },
            VclEvent::LaunchRetried { rank: Rank(0), epoch: 1 },
            VclEvent::RankFinalized { rank: Rank(0) },
            VclEvent::JobComplete,
        ];
        let kinds: std::collections::BTreeSet<String> =
            events.iter().map(|e| mark_of(&entry(e.clone())).kind).collect();
        assert_eq!(kinds.len(), events.len(), "kinds must be distinct");
        assert!(kinds.iter().all(|k| !k.is_empty()));
    }
}
