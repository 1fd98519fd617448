//! Run classification, mechanising the paper's trace analysis:
//!
//! > "we distinguish between experiments that do not progress anymore due
//! > to the high failure frequency … and experiments that do not progress
//! > due to a bug in the fault tolerant implementation. The difference
//! > between the two kinds of experiments is done by analysing the
//! > execution trace."

use failmpi_sim::{RunOutcome, SimDuration, SimTime, TraceEntry};
use failmpi_mpichv::VclEvent;

/// The silence threshold: a run that reached its timeout without any
/// recovery/restart/progress activity in this final window is *frozen*
/// (buggy), not merely stalled. Stalled runs keep detecting failures and
/// restarting recoveries (the paper's rollback/crash cycle), so their gaps
/// stay below the largest fault interval (65 s) plus a recovery; frozen
/// runs go silent forever.
pub const FREEZE_WINDOW: SimDuration = SimDuration::from_secs(150);

/// Paper-faithful run outcomes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// The benchmark ran to completion.
    Completed {
        /// Total execution time.
        time: SimTime,
    },
    /// Timeout with ongoing fault/recovery activity: the failure frequency
    /// is too high for any progress (green bars in the paper's figures).
    NonTerminating,
    /// Timeout (or premature quiescence) with the system frozen: a bug in
    /// the fault-tolerant implementation (red bars in the paper's figures).
    Buggy,
}

impl Outcome {
    /// Completed-run time, if any.
    pub fn time(&self) -> Option<SimTime> {
        match self {
            Outcome::Completed { time } => Some(*time),
            _ => None,
        }
    }

    /// `true` for [`Outcome::Buggy`].
    pub fn is_buggy(&self) -> bool {
        matches!(self, Outcome::Buggy)
    }

    /// `true` for [`Outcome::NonTerminating`].
    pub fn is_non_terminating(&self) -> bool {
        matches!(self, Outcome::NonTerminating)
    }
}

fn is_liveness_event(k: &VclEvent) -> bool {
    matches!(
        k,
        VclEvent::RecoveryStarted { .. }
            | VclEvent::RankResumed { .. }
            | VclEvent::AppProgress { .. }
            | VclEvent::WaveCommitted { .. }
            | VclEvent::LaunchRetried { .. }
            | VclEvent::DaemonRegistered { .. }
    )
}

/// Classifies a finished engine run from its lifecycle trace, using
/// `freeze_window` as the silence threshold (see [`FREEZE_WINDOW`] for the
/// paper scale). Works over bare entries, so every backend shares it and
/// tests can classify hand-built traces without running a cluster.
pub fn classify_entries(
    entries: &[TraceEntry<VclEvent>],
    complete: bool,
    engine_outcome: RunOutcome,
    end: SimTime,
    timeout: SimTime,
    freeze_window: SimDuration,
) -> Outcome {
    if complete {
        return Outcome::Completed { time: end };
    }
    // Quiescence before the timeout with an incomplete job: nothing can
    // ever happen again — definitionally frozen.
    if engine_outcome == RunOutcome::Quiescent {
        return Outcome::Buggy;
    }
    let last_liveness = entries
        .iter()
        .rev()
        .find(|e| is_liveness_event(&e.kind))
        .map_or(SimTime::ZERO, |e| e.at);
    if timeout.saturating_since(last_liveness) > freeze_window {
        Outcome::Buggy
    } else {
        Outcome::NonTerminating
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use failmpi_mpi::Rank;

    fn e(at_s: u64, kind: VclEvent) -> TraceEntry<VclEvent> {
        TraceEntry::new(SimTime::from_secs(at_s), kind)
    }

    const TIMEOUT: SimTime = SimTime::from_secs(1500);
    const WINDOW: SimDuration = FREEZE_WINDOW;

    #[test]
    fn complete_job_classifies_completed() {
        let trace = vec![
            e(0, VclEvent::RunStarted { epoch: 0 }),
            e(90, VclEvent::RankFinalized { rank: Rank(0) }),
            e(91, VclEvent::JobComplete),
        ];
        let out = classify_entries(
            &trace,
            true,
            RunOutcome::Finished,
            SimTime::from_secs(91),
            TIMEOUT,
            WINDOW,
        );
        assert_eq!(
            out,
            Outcome::Completed {
                time: SimTime::from_secs(91)
            }
        );
    }

    #[test]
    fn ongoing_recovery_activity_classifies_non_terminating() {
        // The paper's rollback/crash cycle: failures and recoveries keep
        // arriving right up to the timeout.
        let mut trace = vec![e(0, VclEvent::RunStarted { epoch: 0 })];
        for epoch in 1..=20 {
            trace.push(e(
                70 * epoch as u64,
                VclEvent::FailureDetected {
                    rank: Rank(1),
                    epoch: epoch - 1,
                    during_recovery: false,
                },
            ));
            trace.push(e(70 * epoch as u64 + 5, VclEvent::RecoveryStarted { epoch }));
        }
        let out = classify_entries(
            &trace,
            false,
            RunOutcome::DeadlineReached,
            TIMEOUT,
            TIMEOUT,
            WINDOW,
        );
        assert_eq!(out, Outcome::NonTerminating);
    }

    #[test]
    fn long_silence_classifies_buggy() {
        // One early recovery, then nothing for >150 s before the timeout:
        // the Fig. 10 freeze signature.
        let trace = vec![
            e(0, VclEvent::RunStarted { epoch: 0 }),
            e(
                50,
                VclEvent::FailureDetected {
                    rank: Rank(1),
                    epoch: 0,
                    during_recovery: false,
                },
            ),
            e(55, VclEvent::RecoveryStarted { epoch: 1 }),
        ];
        let out = classify_entries(
            &trace,
            false,
            RunOutcome::DeadlineReached,
            TIMEOUT,
            TIMEOUT,
            WINDOW,
        );
        assert_eq!(out, Outcome::Buggy);
    }

    #[test]
    fn premature_quiescence_classifies_buggy() {
        // The queue drained with the job incomplete — frozen by definition,
        // however recent the last liveness event was.
        let trace = vec![e(10, VclEvent::RecoveryStarted { epoch: 1 })];
        let out = classify_entries(
            &trace,
            false,
            RunOutcome::Quiescent,
            SimTime::from_secs(11),
            TIMEOUT,
            WINDOW,
        );
        assert_eq!(out, Outcome::Buggy);
    }

    #[test]
    fn outcome_accessors() {
        let c = Outcome::Completed {
            time: SimTime::from_secs(5),
        };
        assert_eq!(c.time(), Some(SimTime::from_secs(5)));
        assert!(!c.is_buggy());
        assert!(Outcome::Buggy.is_buggy());
        assert!(Outcome::NonTerminating.is_non_terminating());
        assert_eq!(Outcome::Buggy.time(), None);
    }
}
