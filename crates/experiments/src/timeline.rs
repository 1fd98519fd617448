//! Human-readable execution timelines.
//!
//! The paper's authors classified runs and located the dispatcher bug "by
//! analysing the execution trace"; this module renders our traces the way
//! a person wants to read them — one line per event, indented recovery
//! epochs, progress collapsed into ranges.

use std::fmt::Write;

use failmpi_mpichv::VclEvent;

use crate::harness::RunArtifacts;

fn flush_progress(
    out: &mut String,
    pending: &mut Option<(f64, f64, u32, u32)>,
) {
    if let Some((t0, t1, lo, hi)) = pending.take() {
        if lo == hi {
            writeln!(out, "{t0:10.3}s  progress      iter {lo}").unwrap();
        } else {
            writeln!(
                out,
                "{t0:10.3}s  progress      iter {lo}..{hi} (until {t1:.3}s)"
            )
            .unwrap();
        }
    }
}

/// Renders the run's lifecycle trace as a timeline, consecutive
/// `AppProgress` records collapsed into `iter a..b` ranges. `lifecycle`
/// keeps the per-daemon spawn, registration and resume lines, which are
/// skipped otherwise. When the run was made with
/// [`crate::harness::Observe::causal`] on, each failure line carries its
/// immediate cause from the happens-before log (the engine event whose
/// handling detected the failure).
pub fn render(run: &RunArtifacts, lifecycle: bool) -> String {
    let mut out = String::new();
    let mut pending: Option<(f64, f64, u32, u32)> = None;
    for entry in &run.trace {
        let (at, kind) = (&entry.at, &entry.kind);
        let t = at.as_secs_f64();
        if let VclEvent::AppProgress { iter, .. } = kind {
            pending = Some(match pending {
                None => (t, t, *iter, *iter),
                Some((t0, _, lo, hi)) => (t0, t, lo.min(*iter), hi.max(*iter)),
            });
            continue;
        }
        flush_progress(&mut out, &mut pending);
        let line = match kind {
            VclEvent::DaemonSpawned { rank, epoch, host } => {
                if !lifecycle {
                    continue;
                }
                format!("spawn         rank {rank} epoch {epoch} on {host:?}")
            }
            VclEvent::DaemonRegistered { rank, epoch } => {
                if !lifecycle {
                    continue;
                }
                format!("register      rank {rank} epoch {epoch}")
            }
            VclEvent::RunStarted { epoch } => format!("run start     epoch {epoch}"),
            VclEvent::RankResumed { rank, from_wave } => {
                if !lifecycle {
                    continue;
                }
                match from_wave {
                    Some(w) => format!("resume        rank {rank} from wave {w}"),
                    None => format!("resume        rank {rank} from scratch"),
                }
            }
            VclEvent::AppProgress { .. } => unreachable!("progress is collapsed above"),
            VclEvent::WaveStarted { wave } => format!("wave start    #{wave}"),
            VclEvent::LocalCheckpointDone { .. } => continue,
            VclEvent::WaveCommitted { wave } => format!("wave commit   #{wave}"),
            VclEvent::FailureDetected {
                rank,
                epoch,
                during_recovery,
            } => {
                // Annotate the freeze-relevant line with its immediate
                // cause: the engine event whose handling detected the
                // failure (a socket closure, per the paper's detector).
                let via = entry
                    .cause
                    .and_then(|id| run.causal.node(id))
                    .map(|n| format!("  [cause: {}]", n.label))
                    .unwrap_or_default();
                if *during_recovery {
                    format!("FAILURE       rank {rank} epoch {epoch}  ** during recovery: the bug window **{via}")
                } else {
                    format!("failure       rank {rank} epoch {epoch}{via}")
                }
            }
            VclEvent::RecoveryStarted { epoch } => format!("recovery      -> epoch {epoch}"),
            VclEvent::LaunchRetried { rank, epoch } => {
                format!("ssh retry     rank {rank} epoch {epoch} (died unregistered)")
            }
            VclEvent::RankFinalized { rank } => {
                if !lifecycle {
                    continue;
                }
                format!("finalize      rank {rank}")
            }
            VclEvent::JobComplete => "JOB COMPLETE".to_string(),
        };
        writeln!(out, "{t:10.3}s  {line}").unwrap();
    }
    flush_progress(&mut out, &mut pending);
    if run.record.outcome.time().is_none() {
        writeln!(
            out,
            "{:>10}   (run did not complete — see the classifier verdict)",
            "…"
        )
        .unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::{FIG10_SRC, FIG5_SRC};
    use crate::harness::{run, ExperimentSpec, InjectionSpec, Observe, Workload};
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

    #[test]
    fn clean_timeline_reads_start_to_complete() {
        let out = run(&spec(1), Observe::default()).expect("runs");
        let text = render(&out, false);
        assert!(text.contains("run start     epoch 0"), "{text}");
        assert!(text.contains("wave commit"), "{text}");
        assert!(text.contains("JOB COMPLETE"), "{text}");
        assert!(!text.contains("failure"), "{text}");
        // Progress collapsed, not one line per iteration per rank.
        assert!(text.lines().count() < 30, "{text}");
    }

    #[test]
    fn frozen_timeline_shows_the_bug_window() {
        let mut s = spec(2);
        s.injection = Some(
            InjectionSpec::new(FIG10_SRC, "ADV1", "ADVG1")
                .with_param("T", 2)
                .with_param("N", 5),
        );
        let out = run(&s, Observe::default()).expect("runs");
        assert!(out.record.outcome.is_buggy());
        let text = render(&out, false);
        assert!(text.contains("** during recovery: the bug window **"), "{text}");
        assert!(text.contains("did not complete"), "{text}");
        assert!(!text.contains("JOB COMPLETE"), "{text}");
    }

    #[test]
    fn lifecycle_mode_shows_spawns() {
        let mut s = spec(3);
        s.injection = Some(
            InjectionSpec::new(FIG5_SRC, "ADV1", "ADVnodes")
                .with_param("X", 4)
                .with_param("N", 5),
        );
        let out = run(&s, Observe::default()).expect("runs");
        let with = render(&out, true);
        let without = render(&out, false);
        assert!(with.contains("spawn"), "{with}");
        assert!(with.lines().count() > without.lines().count());
    }
}
