//! The harness' pre-run lint gate: strict mode refuses scenarios with
//! `Error`-level findings, warn mode runs them anyway, and every builtin
//! figure scenario passes the gate clean.

use failmpi_experiments::figures::{DELAY_SRC, FIG10_SRC, FIG5_SRC, FIG7_SRC, FIG8_SRC};
use failmpi_experiments::{
    lint_injection, run, ExperimentSpec, InjectionSpec, LintMode, Observe, Workload,
};
use failmpi_sim::{SimDuration, SimTime};
use failmpi_mpichv::VclConfig;
use failmpi_workloads::BtClass;

/// A scenario with a guaranteed `Error`-level finding: `ping` goes to a
/// class that never receives it (FA008), and `?ack` can never be
/// satisfied (FA009).
const BROKEN_SRC: &str = "daemon ADV1 {\n  node 1:\n    onload -> !ping(G1[0]), goto 2;\n  node 2:\n    ?ack -> goto 1;\n}\ndaemon ADVnodes {\n  node 1:\n    onload -> continue, goto 1;\n}\ninstance P1 = ADV1;\ngroup G1[4] = ADVnodes;\n";

fn miniature(seed: u64) -> ExperimentSpec {
    let mut cluster = VclConfig::small(4, SimDuration::from_secs(2));
    cluster.ssh_stagger = SimDuration::from_millis(20);
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
fn strict_gate_refuses_broken_scenario() {
    let inj = InjectionSpec::new(BROKEN_SRC, "ADV1", "ADVnodes").with_lint(LintMode::Strict);
    let report = lint_injection(&inj).expect_err("strict gate must refuse");
    assert!(report.has_errors());
    let codes: Vec<_> = report.diagnostics.iter().map(|d| d.code).collect();
    assert!(codes.contains(&"FA008"), "got {codes:?}");
    assert!(codes.contains(&"FA009"), "got {codes:?}");
}

#[test]
fn strict_run_surfaces_the_report_instead_of_running() {
    let mut spec = miniature(11);
    spec.injection =
        Some(InjectionSpec::new(BROKEN_SRC, "ADV1", "ADVnodes").with_lint(LintMode::Strict));
    let report = run(&spec, Observe::default()).expect_err("must refuse");
    assert!(report.has_errors());
}

/// Whatever the lint mode, a scenario that does not compile or does not
/// deploy — `FAIL_RANDOM(0, N)` picking past the machines included, and a
/// `before(name)` no backend raises — comes back as a report: `run` never
/// unwinds on bad input, and never runs a breakpoint that cannot be armed.
#[test]
fn undeployable_scenarios_come_back_as_reports() {
    let misspelled = FIG10_SRC.replace("before(localMPI_setCommand)", "before(localMPI_setCommnd)");
    let cases = [
        ("daemon ADV1 { node 1: ?x -> goto 7; }", "ADV1", "ADVnodes", None, "FA000"),
        (FIG5_SRC, "ADV1", "NoSuchClass", None, "FA011"),
        (FIG5_SRC, "NoSuchClass", "ADVnodes", None, "FA011"),
        (FIG5_SRC, "ADV1", "ADVnodes", Some(("NoSuchParam", 1)), "FA011"),
        (FIG5_SRC, "ADV1", "ADVnodes", Some(("N", 99)), "FA011"),
        (&misspelled, "ADV1", "ADVG1", Some(("N", 3)), "FA012"),
    ];
    for mode in [LintMode::Off, LintMode::Warn, LintMode::Strict] {
        for (src, adversary, machines, param, code) in cases {
            let mut inj = InjectionSpec::new(src, adversary, machines).with_lint(mode);
            if let Some((name, value)) = param {
                inj = inj.with_param(name, value);
            }
            let mut spec = miniature(14);
            spec.injection = Some(inj);
            let report = run(&spec, Observe::default()).expect_err("must refuse");
            let codes: Vec<_> = report.diagnostics.iter().map(|d| d.code).collect();
            assert!(codes.contains(&code), "{mode:?} {adversary}/{machines}: got {codes:?}");
        }
    }
}

/// A misspelled breakpoint is refused with exactly the diagnostic `failck`
/// reports for the file, whatever the lint mode.
#[test]
fn misspelled_breakpoint_is_refused_with_the_static_diagnostic() {
    let misspelled = FIG10_SRC.replace("before(localMPI_setCommand)", "before(localMPI_setCommnd)");
    let expected = failmpi_analyze::check_source(&misspelled);
    let codes: Vec<_> = expected.iter().map(|d| d.code).collect();
    assert_eq!(codes, ["FA012"]);
    for mode in [LintMode::Off, LintMode::Warn, LintMode::Strict] {
        let inj = InjectionSpec::new(&misspelled, "ADV1", "ADVG1").with_param("N", 3);
        let mut spec = miniature(14);
        spec.injection = Some(inj.with_lint(mode));
        let report = run(&spec, Observe::default()).expect_err("must refuse");
        assert_eq!(report.diagnostics, expected, "{mode:?}");
    }
}

/// A spec whose workload does not fit its cluster comes back as an FB000
/// report on every backend: no constructor downstream gets to unwind on it.
#[test]
fn workloads_that_do_not_deploy_come_back_as_reports_on_every_backend() {
    use failmpi_backend::BackendKind;
    type Break = fn(&mut ExperimentSpec);
    let cases: [(&str, Break); 6] = [
        ("a BT rank count that forms no square grid", |spec| {
            *spec = ExperimentSpec::fault_free(50, BtClass::S, spec.seed);
        }),
        ("fewer fixed programs than ranks", |spec| {
            let three = failmpi_workloads::bt_programs(&BtClass::S, 4)[..3].to_vec();
            spec.workload = Workload::Fixed(three);
        }),
        ("fewer compute hosts than ranks", |spec| spec.cluster.n_compute_hosts = 3),
        ("no checkpoint server", |spec| spec.cluster.n_ckpt_servers = 0),
        ("a checkpoint server disk with no bandwidth", |spec| {
            spec.cluster.server_disk_bytes_per_sec = 0;
        }),
        ("no rank at all", |spec| spec.cluster.n_ranks = 0),
    ];
    for backend in [BackendKind::Vcl, BackendKind::Ulfm, BackendKind::Replica] {
        for (what, break_it) in cases {
            let mut spec = miniature(15);
            break_it(&mut spec);
            let spec = spec.with_backend(backend);
            let outcome = std::panic::catch_unwind(|| run(&spec, Observe::default()))
                .unwrap_or_else(|_| panic!("{backend} unwound on {what}"));
            let report = outcome.expect_err(what);
            let codes: Vec<_> = report.diagnostics.iter().map(|d| d.code).collect();
            assert_eq!(codes, ["FB000"], "{backend}, {what}");
            assert!(report.has_errors());
            let message = &report.diagnostics[0].message;
            assert!(message.starts_with("workload does not deploy: "), "{message}");
        }
        // The same miniature, left whole, runs.
        let spec = miniature(15).with_backend(backend);
        assert!(run(&spec, Observe::default()).is_ok(), "{backend}");
    }
}

#[test]
fn warn_and_off_modes_still_run_broken_scenarios() {
    for mode in [LintMode::Warn, LintMode::Off] {
        let inj = InjectionSpec::new(BROKEN_SRC, "ADV1", "ADVnodes").with_lint(mode);
        assert!(lint_injection(&inj).is_ok(), "{mode:?} must not refuse");
        let mut spec = miniature(12);
        spec.injection = Some(inj);
        // The run itself must proceed to a classified outcome (a broken
        // adversary degenerates to a near-fault-free run).
        let record = failmpi_experiments::run_one(&spec);
        assert!(record.faults_injected == 0);
    }
}

#[test]
fn surviving_figure_scenarios_pass_the_strict_gate() {
    for (name, src) in [("fig5", FIG5_SRC), ("fig7", FIG7_SRC), ("delay", DELAY_SRC)] {
        let inj = InjectionSpec::new(src, "ADV1", "ADVnodes").with_lint(LintMode::Strict);
        assert!(
            lint_injection(&inj).is_ok(),
            "builtin scenario {name} fails the strict gate"
        );
    }
}

#[test]
fn strict_gate_refuses_predicted_freezes_unless_expected() {
    // Fig. 8 and Fig. 10 are *designed* to freeze the dispatcher; the
    // model checker predicts it, and strict mode refuses to burn sweep
    // budget on them unless the spec declares the freeze is the point.
    for (name, src) in [("fig8", FIG8_SRC), ("fig10", FIG10_SRC)] {
        let inj = InjectionSpec::new(src, "ADV1", "ADVnodes").with_lint(LintMode::Strict);
        let report = lint_injection(&inj).expect_err("strict gate must refuse");
        let codes: Vec<_> = report.diagnostics.iter().map(|d| d.code).collect();
        assert!(codes.contains(&"FC003"), "{name}: got {codes:?}");

        let expected = inj.with_expect_freeze(true);
        assert!(
            lint_injection(&expected).is_ok(),
            "{name}: expect_freeze must open the gate"
        );
    }
}

#[test]
fn strict_run_of_clean_scenario_succeeds() {
    let mut spec = miniature(13);
    spec.injection = Some(
        InjectionSpec::new(FIG5_SRC, "ADV1", "ADVnodes")
            .with_param("X", 4)
            .with_param("N", 5)
            .with_lint(LintMode::Strict),
    );
    let out = run(&spec, Observe::default()).expect("clean scenario must run");
    assert!(out.record.end > SimTime::ZERO);
}
