//! Metrics-snapshot determinism regression tests.
//!
//! The observability layer's contract (see `failmpi-obs`) is that a
//! [`failmpi_obs::MetricsSnapshot`] is a function of the simulated
//! schedule alone. These tests enforce the PR acceptance gate: a
//! same-seed double run of every builtin figure scenario must produce
//! byte-identical metrics JSON — with the schedule fingerprint verified
//! deterministic first, so a metrics divergence can never hide behind a
//! schedule divergence.

use failmpi_experiments::robustness::{assert_deterministic, det_run, scenario_suite};
use failmpi_experiments::run_one;
use failmpi_sim::TieBreak;

/// Same-seed double runs of every builtin scenario serialize to the same
/// metrics JSON, byte for byte.
#[test]
fn metrics_json_is_byte_identical_across_double_runs() {
    for (name, spec) in scenario_suite(0xA11) {
        assert_deterministic(&format!("{name}/metrics"), |capture| det_run(&spec, capture));
        let a = run_one(&spec);
        let b = run_one(&spec);
        let (ja, jb) = (a.metrics.to_json(), b.metrics.to_json());
        assert_eq!(ja, jb, "{name}: metrics JSON diverged across same-seed runs");
        assert!(
            ja.contains("\"schema_version\""),
            "{name}: snapshot lost its schema version"
        );
        assert_eq!(
            a.metrics.counter("sim.events_handled"),
            a.events,
            "{name}: sim.events_handled disagrees with the engine's count"
        );
        assert!(
            a.metrics.counter("lifecycle.daemons_spawned") > 0,
            "{name}: an empty snapshot would pass byte-identity vacuously"
        );
    }
}

/// Byte-identity holds under a perturbed (seeded) tie-break too: a
/// perturbed schedule is a *different* deterministic schedule, and its
/// metrics must reproduce just as exactly.
#[test]
fn perturbed_schedule_metrics_are_byte_identical() {
    for (name, spec) in scenario_suite(0xA12) {
        let spec = spec.with_tie_break(TieBreak::Seeded(0x0B5));
        let a = run_one(&spec).metrics.to_json();
        let b = run_one(&spec).metrics.to_json();
        assert_eq!(a, b, "{name}: perturbed-schedule metrics diverged");
    }
}

/// Different experiment seeds produce *different* metrics — the snapshot
/// actually reflects the run rather than a constant table.
#[test]
fn metrics_discriminate_seeds() {
    let suite_a = scenario_suite(1);
    let suite_b = scenario_suite(2);
    let (name, spec_a) = &suite_a[0];
    let (_, spec_b) = &suite_b[0];
    let a = run_one(spec_a).metrics.to_json();
    let b = run_one(spec_b).metrics.to_json();
    assert_ne!(a, b, "{name}: seeds 1 and 2 produced identical metrics");
}
