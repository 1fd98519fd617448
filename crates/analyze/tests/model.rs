//! The model checker against the builtin scenarios and the FC fixtures:
//! one seeded-defect fixture per FC code, plus the paper-figure verdicts
//! the checker must predict without running anything.

use failmpi_analyze::{
    model_check_source, model_check_with_programs, ModelCheckConfig, StaticVerdict,
};
use failmpi_core::compile;
use failmpi_workloads::{bt_programs, BtClass};

fn check(src: &str) -> failmpi_analyze::ModelCheckResult {
    model_check_source(src, &ModelCheckConfig::default())
}

fn codes(r: &failmpi_analyze::ModelCheckResult) -> Vec<&'static str> {
    r.diagnostics.iter().map(|d| d.code).collect()
}

// -- paper figures ---------------------------------------------------------

#[test]
fn fig5_frequency_survives() {
    let r = check(include_str!("../../core/scenarios/fig5_frequency.fail"));
    assert_eq!(r.summary.verdict, StaticVerdict::Survives, "{:?}", codes(&r));
    assert!(r.summary.witness.is_none());
}

#[test]
fn fig7_simultaneous_survives() {
    let r = check(include_str!("../../core/scenarios/fig7_simultaneous.fail"));
    assert_eq!(r.summary.verdict, StaticVerdict::Survives, "{:?}", codes(&r));
}

#[test]
fn delay_injection_survives() {
    let r = check(include_str!("../../core/scenarios/delay_injection.fail"));
    assert_eq!(r.summary.verdict, StaticVerdict::Survives, "{:?}", codes(&r));
}

#[test]
fn fig4_class_library_is_not_applicable() {
    let r = check(include_str!("../../core/scenarios/fig4_generic_nodes.fail"));
    assert_eq!(r.summary.verdict, StaticVerdict::NotApplicable);
    assert!(r.diagnostics.is_empty());
}

#[test]
fn fig8_synchronized_freeze_is_reachable() {
    let r = check(include_str!("../../core/scenarios/fig8_synchronized.fail"));
    assert_eq!(r.summary.verdict, StaticVerdict::Freezes);
    assert!(codes(&r).contains(&"FC003"));
    let w = r.summary.witness.expect("witness");
    assert_eq!(w.faults, 2, "the freeze needs exactly two faults: {w:?}");
}

#[test]
fn fig10_dispatcher_bug_witness() {
    let r = check(include_str!("../../core/scenarios/fig10_state_sync.fail"));
    assert_eq!(r.summary.verdict, StaticVerdict::Freezes);
    let w = r.summary.witness.expect("witness");
    assert_eq!(w.faults, 2);
    // The minimal schedule must end with the paper's bug: a kill landing
    // on a re-registered rank while the recovery is still active, filed
    // as stopped with no relaunch.
    let last = w.steps.last().expect("steps");
    assert!(
        last.contains("during recovery") && last.contains("stale entry"),
        "witness does not narrate the dispatcher bug: {last}"
    );
    let fc003 = r.diagnostics.iter().find(|d| d.code == "FC003").expect("FC003");
    assert!(fc003.message.contains("permanently lost"));
}

#[test]
fn op_program_skeleton_names_blocked_ranks() {
    let sc = compile(include_str!("../../core/scenarios/fig10_state_sync.fail")).unwrap();
    let programs = bt_programs(&BtClass::S, 4);
    let cfg = ModelCheckConfig {
        n_ranks: 4,
        n_hosts: 5,
        ..ModelCheckConfig::default()
    };
    let r = model_check_with_programs(&sc, &programs, &cfg);
    assert_eq!(r.summary.verdict, StaticVerdict::Freezes);
    let fc003 = r.diagnostics.iter().find(|d| d.code == "FC003").expect("FC003");
    // BT's communication graph is connected: every survivor blocks on the
    // lost rank, and the diagnosis says so.
    assert!(
        fc003.message.contains("block on it through the op-program communication graph"),
        "got: {}",
        fc003.message
    );
}

// -- alternate protocol backends -------------------------------------------

#[test]
fn ulfm_shrinks_past_the_dispatcher_bug() {
    // The exact schedule that wedges the Vcl dispatcher (fig10's
    // state-synchronized double fault) is harmless under shrink-and-
    // continue: there is no relaunch window to corrupt, the victims are
    // simply excluded and the survivors keep computing.
    let cfg = ModelCheckConfig {
        backend: failmpi_analyze::BackendKind::Ulfm,
        ..ModelCheckConfig::default()
    };
    let r = model_check_source(include_str!("../../core/scenarios/fig10_state_sync.fail"), &cfg);
    assert_eq!(r.summary.verdict, StaticVerdict::Survives, "{:?}", codes(&r));
}

#[test]
fn ulfm_freeze_witness_names_the_backend() {
    // ULFM's one freeze mode: enough faults shrink the job to nothing.
    // fig5's random kills can eat both ranks of the default model, after
    // which no step leads back to an all-running state. The FC003 report
    // must say which backend predicted it.
    let cfg = ModelCheckConfig {
        backend: failmpi_analyze::BackendKind::Ulfm,
        ..ModelCheckConfig::default()
    };
    let r = model_check_source(include_str!("../../core/scenarios/fig5_frequency.fail"), &cfg);
    assert_eq!(r.summary.verdict, StaticVerdict::Freezes, "{:?}", codes(&r));
    let fc003 = r.diagnostics.iter().find(|d| d.code == "FC003").expect("FC003");
    assert!(
        fc003.message.contains("under the ulfm backend")
            && fc003.message.contains("no enabled step"),
        "got: {}",
        fc003.message
    );
    // ULFM never strands a survivor on a lost rank, so the witness must
    // not narrate a stale dispatcher entry.
    let w = r.summary.witness.expect("witness");
    assert!(
        w.steps.iter().all(|s| !s.contains("stale entry")),
        "ULFM witness narrates a Vcl-only failure: {w:?}"
    );
}

#[test]
fn replica_exhaustion_witness_names_the_backend() {
    // 2 ranks on 3 hosts leaves rank 1 unprotected (one spare = one
    // replica, assigned to rank 0): a single fault on rank 1 exhausts
    // replication immediately.
    let cfg = ModelCheckConfig {
        backend: failmpi_analyze::BackendKind::Replica,
        ..ModelCheckConfig::default()
    };
    let r = model_check_source(include_str!("../../core/scenarios/fig8_synchronized.fail"), &cfg);
    assert_eq!(r.summary.verdict, StaticVerdict::Freezes, "{:?}", codes(&r));
    let w = r.summary.witness.expect("witness");
    assert_eq!(w.faults, 1, "an unprotected primary dies in one fault: {w:?}");
    let fc003 = r.diagnostics.iter().find(|d| d.code == "FC003").expect("FC003");
    assert!(
        fc003.message.contains("replication exhausted")
            && fc003.message.contains("under the replica backend")
            && fc003.message.contains("permanently lost"),
        "got: {}",
        fc003.message
    );
    let last = w.steps.last().expect("steps");
    assert!(
        last.contains("no usable replica remains"),
        "witness does not narrate the exhausted pair: {last}"
    );
}

#[test]
fn replica_full_protection_masks_the_dispatcher_scenario() {
    // With a replica behind every rank (2 ranks, 4 hosts) the fig10
    // double fault is absorbed: each kill promotes a shadow atomically,
    // and there is no recovery window for the second fault to race.
    let cfg = ModelCheckConfig {
        backend: failmpi_analyze::BackendKind::Replica,
        n_hosts: 4,
        ..ModelCheckConfig::default()
    };
    let r = model_check_source(include_str!("../../core/scenarios/fig10_state_sync.fail"), &cfg);
    assert_eq!(r.summary.verdict, StaticVerdict::Survives, "{:?}", codes(&r));
}

// -- one fixture per FC code -----------------------------------------------

#[test]
fn fc001_unreachable_halt() {
    let r = check(include_str!("../fixtures/fc001_unreachable_halt.fail"));
    assert_eq!(r.summary.verdict, StaticVerdict::Survives);
    assert_eq!(codes(&r), vec!["FC001"]);
    assert_eq!(r.diagnostics[0].line, 24); // the halt transition's line
}

#[test]
fn fc002_faults_outside_any_wave() {
    let r = check(include_str!("../fixtures/fc002_pre_wave_faults.fail"));
    assert_eq!(r.summary.verdict, StaticVerdict::Survives);
    assert_eq!(codes(&r), vec!["FC002"]);
}

#[test]
fn fc003_recovery_refault_freezes() {
    let r = check(include_str!("../fixtures/fc003_recovery_refault.fail"));
    assert_eq!(r.summary.verdict, StaticVerdict::Freezes);
    assert_eq!(codes(&r), vec!["FC003"]);
    let w = r.summary.witness.expect("witness");
    assert_eq!(w.faults, 2);
}

#[test]
fn fc004_relaunch_livelock() {
    let r = check(include_str!("../fixtures/fc004_relaunch_livelock.fail"));
    assert_eq!(r.summary.verdict, StaticVerdict::Survives);
    assert_eq!(codes(&r), vec!["FC004"]);
}

#[test]
fn fc005_stale_halt() {
    let r = check(include_str!("../fixtures/fc005_stale_halt.fail"));
    assert_eq!(r.summary.verdict, StaticVerdict::Survives);
    assert_eq!(codes(&r), vec!["FC005"]);
    assert_eq!(r.diagnostics[0].line, 21); // the stale `?crash -> halt` line
}

#[test]
fn fc006_budget_exhaustion_is_unknown() {
    let cfg = ModelCheckConfig {
        budget: 20,
        ..ModelCheckConfig::default()
    };
    let r = model_check_source(
        include_str!("../../core/scenarios/fig10_state_sync.fail"),
        &cfg,
    );
    assert_eq!(r.summary.verdict, StaticVerdict::Unknown);
    assert_eq!(codes(&r), vec!["FC006"]);
    assert!(r.summary.frontier > 0, "frontier must be reported");
    assert!(r.summary.witness.is_none());
}

// -- robustness ------------------------------------------------------------

#[test]
fn uncompilable_source_is_not_applicable() {
    let r = check("daemon A { node 1: garbage }");
    assert_eq!(r.summary.verdict, StaticVerdict::NotApplicable);
    assert!(r.diagnostics.is_empty());
}

#[test]
fn unmodellable_deployment_is_diagnosed_not_explored() {
    // Library callers get FC000 and an empty summary where the abstract
    // model's constructor used to assert (or one-byte ids used to wrap).
    let fig10 = include_str!("../../core/scenarios/fig10_state_sync.fail");
    let shapes: [(usize, usize, failmpi_analyze::BackendKind); 4] = [
        (2, 1, failmpi_analyze::BackendKind::Vcl),
        (0, 3, failmpi_analyze::BackendKind::Ulfm),
        (300, 301, failmpi_analyze::BackendKind::Vcl),
        (130, 260, failmpi_analyze::BackendKind::Replica),
    ];
    for (n_ranks, n_hosts, backend) in shapes {
        for reduce in [false, true] {
            let cfg = ModelCheckConfig {
                backend,
                n_ranks,
                n_hosts,
                reduce,
                ..ModelCheckConfig::default()
            };
            let r = model_check_source(fig10, &cfg);
            assert_eq!(r.summary.verdict, StaticVerdict::NotApplicable, "{n_ranks}/{n_hosts}");
            assert_eq!(r.summary.explored, 0);
            assert_eq!(codes(&r), vec!["FC000"], "{n_ranks}/{n_hosts}");
        }
    }
}

#[test]
fn fixed_mode_dispatcher_survives_fig10() {
    // The paper's fix: re-deriving the assignment from live state instead
    // of history. Under it the Fig. 10 schedule relaunches the victim.
    let cfg = ModelCheckConfig {
        mode: failmpi_mpichv::DispatcherMode::Fixed,
        ..ModelCheckConfig::default()
    };
    let r = model_check_source(
        include_str!("../../core/scenarios/fig10_state_sync.fail"),
        &cfg,
    );
    assert_eq!(r.summary.verdict, StaticVerdict::Survives, "{:?}", codes(&r));
}
