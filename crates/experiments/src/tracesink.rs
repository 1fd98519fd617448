//! The `--trace-out` sink: captures one run's causal trace per invocation
//! and writes it as a schema-versioned [`failmpi_trace::TraceFile`].
//!
//! Mirrors the [`crate::metrics`] sink shape — a binary installs the sink,
//! the harness feeds it, the binary writes the result — but where the
//! metrics sink collects *every* run, causal tracing is per-run data
//! measured in megabytes, so this sink claims exactly **one** run: the
//! first to start after [`install_sink`]. With `--runs 1 --threads 1` (or
//! the single-run `trace` binary) the pick is deterministic; in a parallel
//! sweep it is whichever run the thread pool starts first.
//!
//! The claimed run is executed with the engine's causal tracing on (see
//! [`failmpi_sim::CausalLog`]); every other run keeps the zero-overhead
//! disabled path. This module also owns the [`VclEvent`] → [`Mark`]
//! conversion — the semantic vocabulary `failmpi-trace explain` keys on
//! (`failure_detected`, `recovery_started`, `daemon_spawned`, …), so the
//! kind strings here are a compatibility contract with that crate.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;

use failmpi_sim::{CausalLog, TraceEntry};
use failmpi_mpichv::VclEvent;
use failmpi_trace::{Mark, TraceFile};

use crate::classify::Outcome;
use crate::harness::TracedRun;
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

/// Assembles the exported trace of one run: the engine's happens-before
/// DAG as nodes, the backend's semantic [`VclEvent`] records as anchored
/// marks, plus run identity (name, seed, classified outcome, end instant,
/// track names).
pub fn build_trace_file(
    name: &str,
    seed: u64,
    outcome: &Outcome,
    end_micros: u64,
    entries: &[TraceEntry<VclEvent>],
    causal: &CausalLog,
    track_names: &[String],
) -> TraceFile {
    let mut trace = TraceFile::from_causal(causal);
    trace.name = name.to_string();
    trace.seed = seed;
    trace.outcome = outcome_class(outcome).to_string();
    trace.end_micros = end_micros;
    trace.tracks = track_names.to_vec();
    trace.marks = entries.iter().map(mark_of).collect();
    trace
}

/// [`build_trace_file`] over a finished [`TracedRun`].
pub fn trace_file_of(name: &str, seed: u64, traced: &TracedRun) -> TraceFile {
    build_trace_file(
        name,
        seed,
        &traced.record.outcome,
        traced.record.end.as_micros(),
        traced.cluster.trace().entries(),
        &traced.causal,
        &traced.track_names,
    )
}

/// Sink states: no sink, armed (next run to start claims it), claimed.
const OFF: u8 = 0;
const ARMED: u8 = 1;
const CLAIMED: u8 = 2;

static STATE: AtomicU8 = AtomicU8::new(OFF);
static CAPTURED: Mutex<Option<TraceFile>> = Mutex::new(None);

/// Arms the sink: the next run the harness starts is executed with causal
/// tracing on and its trace captured. Called once by a binary when
/// `--trace-out <path>` is given, before any experiment runs.
pub fn install_sink() {
    CAPTURED.lock().expect("trace sink lock").take();
    STATE.store(ARMED, Ordering::Release);
}

/// Atomically claims the armed sink for the calling run. Only the harness
/// calls this, once per run.
pub(crate) fn claim() -> bool {
    STATE
        .compare_exchange(ARMED, CLAIMED, Ordering::AcqRel, Ordering::Acquire)
        .is_ok()
}

/// Stores the claimed run's trace for [`write_sink`].
pub(crate) fn submit(trace: TraceFile) {
    CAPTURED.lock().expect("trace sink lock").replace(trace);
}

/// Writes the captured trace to `path`; `Ok(false)` when no run was
/// captured (the sink was never installed, or no experiment ran).
pub fn write_sink(path: &str) -> std::io::Result<bool> {
    let trace = CAPTURED.lock().expect("trace sink lock").take();
    match trace {
        Some(t) => {
            std::fs::write(path, t.to_json())?;
            Ok(true)
        }
        None => Ok(false),
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
