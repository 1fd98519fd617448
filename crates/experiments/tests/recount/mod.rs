//! The `lifecycle.*` counters recounted from a run's trace entries, with
//! no help from the ledger that wrote them: what every backend's snapshot
//! must agree with.

use std::collections::BTreeMap;

use failmpi_mpichv::VclEvent;
use failmpi_sim::TraceEntry;

/// The ledger's histograms (their sample counts are bounded, not
/// recounted).
pub const HISTOGRAMS: [&str; 3] = [
    "lifecycle.wave_commit_micros",
    "lifecycle.recovery_micros",
    "lifecycle.detection_micros",
];

/// The chassis's traffic counters, reported beside the ledger.
pub const TRAFFIC: [&str; 3] = [
    "net.traffic.app_bytes",
    "net.traffic.ckpt_bytes",
    "net.traffic.control_bytes",
];

/// Every `lifecycle.*` counter, recomputed from the entries.
pub fn recount(entries: &[TraceEntry<VclEvent>]) -> BTreeMap<&'static str, u64> {
    let mut n: BTreeMap<&'static str, u64> = [
        "lifecycle.daemons_spawned",
        "lifecycle.daemons_registered",
        "lifecycle.runs_started",
        "lifecycle.ranks_resumed",
        "lifecycle.app_progress_events",
        "lifecycle.max_progress",
        "lifecycle.waves_started",
        "lifecycle.local_checkpoints",
        "lifecycle.waves_committed",
        "lifecycle.failures_detected",
        "lifecycle.failures_during_recovery",
        "lifecycle.recoveries_started",
        "lifecycle.launch_retries",
        "lifecycle.ranks_finalized",
        "lifecycle.jobs_completed",
    ]
    .into_iter()
    .map(|key| (key, 0))
    .collect();
    let mut bump = |key| *n.get_mut(key).expect("a listed key") += 1;
    let mut max_progress = 0;
    for e in entries {
        match &e.kind {
            VclEvent::DaemonSpawned { .. } => bump("lifecycle.daemons_spawned"),
            VclEvent::DaemonRegistered { .. } => bump("lifecycle.daemons_registered"),
            VclEvent::RunStarted { .. } => bump("lifecycle.runs_started"),
            VclEvent::RankResumed { .. } => bump("lifecycle.ranks_resumed"),
            VclEvent::AppProgress { iter, .. } => {
                bump("lifecycle.app_progress_events");
                max_progress = max_progress.max(u64::from(*iter));
            }
            VclEvent::WaveStarted { .. } => bump("lifecycle.waves_started"),
            VclEvent::LocalCheckpointDone { .. } => bump("lifecycle.local_checkpoints"),
            VclEvent::WaveCommitted { .. } => bump("lifecycle.waves_committed"),
            VclEvent::FailureDetected {
                during_recovery, ..
            } => {
                bump("lifecycle.failures_detected");
                if *during_recovery {
                    bump("lifecycle.failures_during_recovery");
                }
            }
            VclEvent::RecoveryStarted { .. } => bump("lifecycle.recoveries_started"),
            VclEvent::LaunchRetried { .. } => bump("lifecycle.launch_retries"),
            VclEvent::RankFinalized { .. } => bump("lifecycle.ranks_finalized"),
            VclEvent::JobComplete => bump("lifecycle.jobs_completed"),
        }
    }
    n.insert("lifecycle.max_progress", max_progress);
    n
}
