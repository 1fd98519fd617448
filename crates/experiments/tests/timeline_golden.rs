//! Golden-file tests for the timeline renderer.
//!
//! The timeline is the human-facing artifact of a run — the thing a
//! person reads to classify an execution the way the paper's authors
//! did. Its exact layout is therefore part of the contract: these tests
//! pin the rendered text of two fixed-seed runs, in both rendering
//! variants, against committed golden files.
//!
//! To regenerate after an intentional format change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p failmpi-experiments --test timeline_golden
//! ```

use std::path::PathBuf;

use failmpi_experiments::harness::{run_one_traced, ExperimentSpec, InjectionSpec, Workload};
use failmpi_experiments::figures::FIG5_SRC;
use failmpi_experiments::timeline::render;
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

fn faulty_spec(seed: u64) -> ExperimentSpec {
    let mut s = spec(seed);
    s.injection = Some(
        InjectionSpec::new(FIG5_SRC, "ADV1", "ADVnodes")
            .with_param("X", 4)
            .with_param("N", 5),
    );
    s
}

fn check_golden(name: &str, actual: &str) {
    let path: PathBuf = [env!("CARGO_MANIFEST_DIR"), "tests", "golden", name]
        .iter()
        .collect();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
    assert_eq!(
        actual,
        expected,
        "{name}: rendered timeline differs from the golden file \
         (UPDATE_GOLDEN=1 regenerates after an intentional change)"
    );
}

/// Default rendering (progress collapsed, lifecycle noise hidden) of a
/// clean fault-free run, with causal annotations on (a fault-free run has
/// no failure lines, so the causal log must not change the output).
#[test]
fn collapsed_progress_timeline_matches_golden() {
    let traced = run_one_traced(&spec(7));
    let text = render(&traced, false);
    assert!(text.contains("JOB COMPLETE"), "{text}");
    check_golden("timeline_collapsed.txt", &text);
}

/// Lifecycle rendering (spawns, registrations, resumes, finalizes) of a
/// faulty run — the variant that shows relaunches after failures, with
/// every failure line annotated with its immediate cause.
#[test]
fn lifecycle_timeline_matches_golden() {
    let traced = run_one_traced(&faulty_spec(7));
    assert!(traced.record.faults_injected > 0, "scenario must inject");
    let text = render(&traced, true);
    assert!(text.contains("spawn"), "{text}");
    assert!(
        text.contains("[cause: "),
        "failure lines must carry their immediate cause:\n{text}"
    );
    check_golden("timeline_lifecycle.txt", &text);
}
