//! Structural invariants of execution traces.
//!
//! Every run of the MPICH-Vcl cluster — faulty, frozen or clean — must
//! produce a trace that tells a *coherent* story. [`validate_trace`] checks
//! that story mechanically; the property tests at the repository root run
//! it over randomized fault schedules, so a regression anywhere in the
//! protocol stack that garbles event ordering fails loudly.

use failmpi_sim::TraceEntry;
use failmpi_mpichv::VclEvent;

use crate::harness::RunArtifacts;

/// Checks the trace of a finished `n_ranks`-rank Vcl run. Returns a
/// description of the first violated invariant, or `Ok(())`.
pub fn validate_trace(run: &RunArtifacts, n_ranks: u32) -> Result<(), String> {
    validate_entries(&run.trace, run.record.outcome.time().map(|_| n_ranks))
}

/// The trace-level core of [`validate_trace`]: checks bare entries, with
/// `completed_ranks = Some(n)` when the job completed with `n` ranks (the
/// completion invariants need that context). Exposed so tests can validate
/// — and deliberately corrupt — hand-built traces.
pub fn validate_entries(
    entries: &[TraceEntry<VclEvent>],
    completed_ranks: Option<u32>,
) -> Result<(), String> {

    // 1. Timestamps are non-decreasing (the engine guarantees this; the
    //    trace must not reorder).
    for w in entries.windows(2) {
        if w[1].at < w[0].at {
            return Err(format!(
                "trace went backwards: {:?} after {:?}",
                w[1], w[0]
            ));
        }
    }

    // 2. Wave numbering: WaveStarted strictly increasing; every
    //    WaveCommitted matches the latest started wave; commits strictly
    //    increasing.
    let mut last_started = 0u32;
    let mut last_committed = 0u32;
    for e in entries {
        match e.kind {
            VclEvent::WaveStarted { wave } => {
                if wave <= last_started {
                    return Err(format!("wave {wave} started after {last_started}"));
                }
                last_started = wave;
            }
            VclEvent::WaveCommitted { wave } => {
                if wave != last_started {
                    return Err(format!(
                        "wave {wave} committed but {last_started} was the last started"
                    ));
                }
                if wave <= last_committed {
                    return Err(format!("wave {wave} committed after {last_committed}"));
                }
                last_committed = wave;
            }
            _ => {}
        }
    }

    // 3. Epoch coherence: RecoveryStarted carries 1, 2, … in order, and
    //    every epoch-e recovery is preceded by a FailureDetected outside a
    //    recovery window.
    let mut expected_epoch = 1u32;
    for e in entries {
        if let VclEvent::RecoveryStarted { epoch } = e.kind {
            if epoch != expected_epoch {
                return Err(format!(
                    "recovery epoch {epoch}, expected {expected_epoch}"
                ));
            }
            expected_epoch += 1;
        }
    }
    let fresh_failures = entries
        .iter()
        .filter(
            |e| matches!(e.kind, VclEvent::FailureDetected { during_recovery: false, .. }),
        )
        .count();
    let recoveries = (expected_epoch - 1) as usize;
    if fresh_failures != recoveries {
        return Err(format!(
            "{fresh_failures} fresh failures but {recoveries} recoveries"
        ));
    }

    // 4. Per-rank progress is non-decreasing between consecutive resumes
    //    (a rollback may reset it, but only after a RankResumed).
    // 5. A complete job ends with JobComplete as its last lifecycle event,
    //    after every rank finalized in its final incarnation.
    if let Some(n) = completed_ranks {
        let complete_at = entries
            .iter()
            .rev()
            .find(|e| matches!(e.kind, VclEvent::JobComplete))
            .ok_or("complete job without JobComplete")?;
        let finalized = entries
            .iter()
            .filter(|e| {
                matches!(e.kind, VclEvent::RankFinalized { .. }) && e.at <= complete_at.at
            })
            .count();
        if (finalized as u32) < n {
            return Err(format!(
                "job complete with only {finalized}/{n} finalizations"
            ));
        }
    }

    // 6. Every DaemonRegistered has a DaemonSpawned for the same rank and
    //    epoch somewhere before it.
    for (i, e) in entries.iter().enumerate() {
        if let VclEvent::DaemonRegistered { rank, epoch } = e.kind {
            let spawned = entries[..i].iter().any(|p| {
                matches!(p.kind, VclEvent::DaemonSpawned { rank: r, epoch: ep, .. }
                    if r == rank && ep == epoch)
            });
            if !spawned {
                return Err(format!(
                    "rank {rank:?} registered for epoch {epoch} without a spawn"
                ));
            }
        }
    }

    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{ExperimentSpec, InjectionSpec, Workload};
    use crate::figures::FIG5_SRC;
    use failmpi_sim::{SimDuration, SimTime};
    use failmpi_mpichv::VclConfig;
    use failmpi_workloads::BtClass;

    fn spec(seed: u64) -> ExperimentSpec {
        let mut cluster = VclConfig::small(4, SimDuration::from_secs(2));
        cluster.ssh_stagger = SimDuration::from_millis(20);
        cluster.restart_overhead = SimDuration::from_millis(400);
        cluster.terminate_delay = SimDuration::from_millis(30);
        ExperimentSpec {
            cluster,
            workload: Workload::Bt(BtClass::S),
            injection: None,
            timeout: SimTime::from_secs(90),
            freeze_window: SimDuration::from_secs(9),
            seed,
            tie_break: failmpi_sim::TieBreak::Fifo,
            backend: failmpi_backend::BackendKind::Vcl,
        }
    }

    fn validate_run(spec: &ExperimentSpec) {
        let out = crate::harness::run(spec, Default::default()).expect("runs");
        validate_trace(&out, spec.cluster.n_ranks).expect("trace invariants");
    }

    #[test]
    fn clean_run_trace_is_coherent() {
        validate_run(&spec(1));
    }

    #[test]
    fn faulty_run_trace_is_coherent() {
        let mut s = spec(2);
        s.injection = Some(
            InjectionSpec::new(FIG5_SRC, "ADV1", "ADVnodes")
                .with_param("X", 4)
                .with_param("N", 5),
        );
        validate_run(&s);
    }

    #[test]
    fn starved_run_trace_is_coherent() {
        let mut s = spec(3);
        s.injection = Some(
            InjectionSpec::new(FIG5_SRC, "ADV1", "ADVnodes")
                .with_param("X", 1)
                .with_param("N", 5),
        );
        validate_run(&s);
    }

    // ---- hand-built traces: validate_entries must reject corruption ----

    use failmpi_mpi::Rank;
    use failmpi_net::HostId;

    fn e(at_s: u64, kind: VclEvent) -> TraceEntry<VclEvent> {
        TraceEntry::new(SimTime::from_secs(at_s), kind)
    }

    /// A small coherent story: spawn/register two daemons, run, survive one
    /// failure, commit a wave, finish.
    fn coherent_trace() -> Vec<TraceEntry<VclEvent>> {
        vec![
            e(0, VclEvent::DaemonSpawned { rank: Rank(0), epoch: 0, host: HostId(0) }),
            e(0, VclEvent::DaemonSpawned { rank: Rank(1), epoch: 0, host: HostId(1) }),
            e(1, VclEvent::DaemonRegistered { rank: Rank(0), epoch: 0 }),
            e(1, VclEvent::DaemonRegistered { rank: Rank(1), epoch: 0 }),
            e(2, VclEvent::RunStarted { epoch: 0 }),
            e(4, VclEvent::WaveStarted { wave: 1 }),
            e(5, VclEvent::WaveCommitted { wave: 1 }),
            e(
                6,
                VclEvent::FailureDetected { rank: Rank(1), epoch: 0, during_recovery: false },
            ),
            e(7, VclEvent::RecoveryStarted { epoch: 1 }),
            e(7, VclEvent::DaemonSpawned { rank: Rank(1), epoch: 1, host: HostId(2) }),
            e(8, VclEvent::DaemonRegistered { rank: Rank(1), epoch: 1 }),
            e(9, VclEvent::RunStarted { epoch: 1 }),
            e(20, VclEvent::RankFinalized { rank: Rank(0) }),
            e(20, VclEvent::RankFinalized { rank: Rank(1) }),
            e(21, VclEvent::JobComplete),
        ]
    }

    #[test]
    fn coherent_hand_built_trace_passes() {
        validate_entries(&coherent_trace(), Some(2)).expect("coherent trace");
    }

    #[test]
    fn rejects_backwards_timestamps() {
        let mut t = coherent_trace();
        t[4].at = SimTime::from_secs(100);
        let err = validate_entries(&t, Some(2)).unwrap_err();
        assert!(err.contains("backwards"), "got: {err}");
    }

    #[test]
    fn rejects_commit_of_unstarted_wave() {
        let mut t = coherent_trace();
        // Commit wave 2 while wave 1 is the latest started.
        t.insert(7, e(5, VclEvent::WaveCommitted { wave: 2 }));
        let err = validate_entries(&t, Some(2)).unwrap_err();
        assert!(err.contains("committed"), "got: {err}");
    }

    #[test]
    fn rejects_skipped_recovery_epoch() {
        let mut t = coherent_trace();
        for entry in &mut t {
            if let VclEvent::RecoveryStarted { epoch } = &mut entry.kind {
                *epoch = 2; // first recovery must carry epoch 1
            }
        }
        let err = validate_entries(&t, Some(2)).unwrap_err();
        assert!(err.contains("epoch"), "got: {err}");
    }

    #[test]
    fn rejects_recovery_without_failure() {
        let mut t = coherent_trace();
        t.retain(|entry| {
            !matches!(entry.kind, VclEvent::FailureDetected { during_recovery: false, .. })
        });
        let err = validate_entries(&t, Some(2)).unwrap_err();
        assert!(err.contains("failures"), "got: {err}");
    }

    #[test]
    fn rejects_registration_without_spawn() {
        let mut t = coherent_trace();
        t.retain(|entry| {
            !matches!(entry.kind, VclEvent::DaemonSpawned { rank: Rank(1), epoch: 1, .. })
        });
        let err = validate_entries(&t, Some(2)).unwrap_err();
        assert!(err.contains("without a spawn"), "got: {err}");
    }

    #[test]
    fn rejects_completion_with_missing_finalizations() {
        let t = coherent_trace();
        // Claim 3 ranks completed while only 2 finalized.
        let err = validate_entries(&t, Some(3)).unwrap_err();
        assert!(err.contains("finalizations"), "got: {err}");
    }

    #[test]
    fn rejects_completion_without_job_complete() {
        let mut t = coherent_trace();
        t.retain(|entry| !matches!(entry.kind, VclEvent::JobComplete));
        let err = validate_entries(&t, Some(2)).unwrap_err();
        assert!(err.contains("JobComplete"), "got: {err}");
    }
}
