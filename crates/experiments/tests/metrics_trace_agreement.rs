//! Property test: the metrics registry agrees with the trace.
//!
//! `VclMetrics` observes every event *before* the `TraceLog` stores it
//! (see `Facilities::trace` in `failmpi-mpichv`), so for any run the
//! counters must equal the counts recomputed from that run's trace
//! entries.

use proptest::prelude::*;

use failmpi_experiments::robustness::scenario_suite;
use failmpi_experiments::run_one_with_trace;
use failmpi_mpichv::VclEvent;
use failmpi_sim::TraceEntry;

/// Recomputes every trace-derivable `mpichv.*` counter from the entries.
fn recount(entries: &[TraceEntry<VclEvent>]) -> Vec<(&'static str, u64)> {
    let mut spawned = 0u64;
    let mut registered = 0u64;
    let mut runs = 0u64;
    let mut resumed = 0u64;
    let mut progress = 0u64;
    let mut max_progress = 0u64;
    let mut waves_started = 0u64;
    let mut local_ckpts = 0u64;
    let mut waves_committed = 0u64;
    let mut detected = 0u64;
    let mut during_recovery = 0u64;
    let mut recoveries = 0u64;
    let mut max_epoch = 0u64;
    let mut retries = 0u64;
    let mut finalized = 0u64;
    let mut completed = 0u64;
    for e in entries {
        match &e.kind {
            VclEvent::DaemonSpawned { .. } => spawned += 1,
            VclEvent::DaemonRegistered { .. } => registered += 1,
            VclEvent::RunStarted { .. } => runs += 1,
            VclEvent::RankResumed { .. } => resumed += 1,
            VclEvent::AppProgress { iter, .. } => {
                progress += 1;
                max_progress = max_progress.max(u64::from(*iter));
            }
            VclEvent::WaveStarted { .. } => waves_started += 1,
            VclEvent::LocalCheckpointDone { .. } => local_ckpts += 1,
            VclEvent::WaveCommitted { .. } => waves_committed += 1,
            VclEvent::FailureDetected {
                during_recovery: dr,
                ..
            } => {
                detected += 1;
                if *dr {
                    during_recovery += 1;
                }
            }
            VclEvent::RecoveryStarted { epoch } => {
                recoveries += 1;
                max_epoch = max_epoch.max(u64::from(*epoch));
            }
            VclEvent::LaunchRetried { .. } => retries += 1,
            VclEvent::RankFinalized { .. } => finalized += 1,
            VclEvent::JobComplete => completed += 1,
        }
    }
    vec![
        ("mpichv.daemons_spawned", spawned),
        ("mpichv.daemons_registered", registered),
        ("mpichv.runs_started", runs),
        ("mpichv.ranks_resumed", resumed),
        ("mpichv.app_progress_events", progress),
        ("mpichv.max_progress", max_progress),
        ("mpichv.waves_started", waves_started),
        ("mpichv.local_checkpoints", local_ckpts),
        ("mpichv.waves_committed", waves_committed),
        ("mpichv.failures_detected", detected),
        ("mpichv.failures_during_recovery", during_recovery),
        ("mpichv.recoveries_started", recoveries),
        ("mpichv.max_epoch", max_epoch),
        ("mpichv.launch_retries", retries),
        ("mpichv.ranks_finalized", finalized),
        ("mpichv.jobs_completed", completed),
    ]
}

proptest! {
    #![proptest_config(proptest::test_runner::Config::with_cases(8))]

    /// For a random builtin scenario at a random seed, every
    /// trace-derivable counter equals the trace recount.
    #[test]
    fn counters_agree_with_trace_recount(case in 0usize..10, seed in 0u64..10_000) {
        let suite = scenario_suite(seed);
        let (name, spec) = &suite[case % suite.len()];
        let (record, trace) = run_one_with_trace(spec);
        prop_assert!(!trace.is_empty(), "{}: the run must have traced", name);
        for (key, expected) in recount(&trace) {
            prop_assert_eq!(
                record.metrics.counter(key), expected,
                "{}: {} disagrees with the trace recount", name, key
            );
        }

        // Histogram sample counts are trace-derivable too: one commit
        // duration per started-then-committed wave (pairing on wave id).
        let commits = record.metrics.histogram("mpichv.wave_commit_micros");
        prop_assert!(
            commits.map(|h| h.count).unwrap_or(0)
                <= record.metrics.counter("mpichv.waves_committed"),
            "{}: more wave durations than wave commits", name
        );
    }
}
