//! Determinism & schedule-robustness regression tests.
//!
//! Every paper scenario must (a) reproduce its schedule fingerprint
//! bit-for-bit across double runs — under the canonical FIFO tie-break
//! *and* under a perturbed one — and (b) keep its paper classification
//! across the whole interleaving sample: the Fig. 10 freeze is a property
//! of the historical dispatcher, not of one lucky schedule.

use failmpi_backend::BackendKind;
use failmpi_experiments::robustness::{
    det_run, fig10_stress_spec, perturb, scenario_suite,
};
use failmpi_mpichv::DispatcherMode;
use failmpi_sim::TieBreak;
use failmpi_testkit::assert_deterministic;

/// Every figure scenario double-runs with identical fingerprints, under
/// two different experiment seeds.
#[test]
fn every_scenario_is_deterministic() {
    for seed in [1u64, 42] {
        for (name, spec) in scenario_suite(seed) {
            let fp = assert_deterministic(&format!("{name}/seed{seed}"), |capture| {
                det_run(&spec, capture)
            });
            assert_ne!(fp, 0, "{name}: degenerate fingerprint");
        }
    }
}

/// The light backends run through the same driver: `det_run` double-runs
/// them too, and hands back the per-event journal when asked.
#[test]
fn every_scenario_is_deterministic_on_the_light_backends() {
    for backend in [BackendKind::Ulfm, BackendKind::Replica] {
        for (name, spec) in scenario_suite(5) {
            let spec = spec.with_backend(backend);
            let fp = assert_deterministic(&format!("{name}/{backend}"), |capture| {
                det_run(&spec, capture)
            });
            assert_ne!(fp, 0, "{name}/{backend}: degenerate fingerprint");
            let journaled = det_run(&spec, true);
            assert_eq!(journaled.fingerprint, fp);
            let journal = journaled.journal.expect("capture returns the journal");
            assert_eq!(journal.len() as u64, journaled.events, "{name}/{backend}");
        }
    }
}

/// Perturbed schedules are themselves reproducible: a seeded tie-break is
/// a *different* deterministic schedule, not a random one.
#[test]
fn perturbed_schedules_are_deterministic() {
    for (name, spec) in scenario_suite(3) {
        let spec = spec.with_tie_break(TieBreak::Seeded(0xD15C));
        assert_deterministic(&format!("{name}/perturbed"), |capture| {
            det_run(&spec, capture)
        });
    }
}

/// Distinct experiment seeds explore distinct schedules (the fingerprint
/// actually discriminates).
#[test]
fn fingerprint_discriminates_seeds() {
    let suite_a = scenario_suite(1);
    let suite_b = scenario_suite(2);
    let (name, a) = &suite_a[0];
    let (_, b) = &suite_b[0];
    let fa = det_run(a, false).fingerprint;
    let fb = det_run(b, false).fingerprint;
    assert_ne!(fa, fb, "{name}: seeds 1 and 2 produced the same schedule");
}

/// The paper's Fig. 10 claim, checked across the interleaving space: the
/// historical dispatcher freezes on *every* perturbed schedule.
#[test]
fn fig10_freeze_survives_schedule_perturbation() {
    let spec = fig10_stress_spec(DispatcherMode::Historical, 0xB10B);
    let report = perturb("fig10-buggy", &spec, 25).expect("spec runs");
    assert_eq!(report.distinct_schedules, 25, "perturbation must explore");
    report.assert_all("buggy");
}

/// …and the fixed dispatcher never freezes, on the same sample.
#[test]
fn fixed_dispatcher_never_freezes_under_perturbation() {
    let spec = fig10_stress_spec(DispatcherMode::Fixed, 0xB10B);
    let report = perturb("fig10-fixed", &spec, 25).expect("spec runs");
    assert_eq!(report.count("buggy"), 0, "{:?}", report.histogram);
    assert!(
        report.violations().next().is_none(),
        "invariant violations under perturbation"
    );
}
