//! Whole-system property tests: randomized fault schedules against the
//! fault-tolerance guarantees.

use failmpi::experiments::{run, validate_trace, Observe, RunArtifacts};
use failmpi::prelude::*;
use proptest::prelude::*;
use proptest::test_runner::Config as PropConfig;

/// Runs `spec` with no instrument on, keeping the lifecycle trace.
fn run_plain(spec: &ExperimentSpec) -> RunArtifacts {
    run(spec, Observe::default()).expect("generated scenarios compile and deploy")
}

/// Builds a one-shot FAIL scenario crashing a machine at each given
/// (second, machine) pair, sequentially.
fn schedule_scenario(faults: &[(u8, u8)], n_machines: usize) -> String {
    let mut src = String::new();
    let mut nodes = String::new();
    let mut t_prev = 0u32;
    for (k, &(gap, machine)) in faults.iter().enumerate() {
        let at = t_prev + 1 + gap as u32 % 10;
        let delay = at - t_prev;
        t_prev = at;
        let m = machine as usize % n_machines;
        let node = 10 + 2 * k;
        nodes.push_str(&format!(
            "  node {node}:\n    timer t{k} = {delay};\n    t{k} -> !crash(G1[{m}]), goto {};\n",
            node + 1
        ));
        let next = if k + 1 < faults.len() { 10 + 2 * (k + 1) } else { 1 };
        nodes.push_str(&format!(
            "  node {}:\n    ?ok -> goto {next};\n    ?no -> goto {next};\n",
            node + 1
        ));
    }
    src.push_str("daemon Seq {\n");
    if faults.is_empty() {
        src.push_str("  node 1:\n");
    } else {
        src.push_str(&nodes);
        src.push_str("  node 1:\n");
    }
    src.push_str("}\n");
    src.push_str(
        "daemon Ctl {\n  node 1:\n    onload -> continue, goto 2;\n    ?crash -> !no(P1), goto 1;\n  node 2:\n    onexit -> goto 1;\n    onerror -> goto 1;\n    onload -> continue, goto 2;\n    ?crash -> !ok(P1), halt, goto 1;\n}\n",
    );
    src
}

fn spec_with(faults: &[(u8, u8)], mode: DispatcherMode, seed: u64) -> ExperimentSpec {
    let mut cluster = VclConfig::small(4, SimDuration::from_secs(2));
    cluster.dispatcher = mode;
    cluster.ssh_stagger = SimDuration::from_millis(20);
    cluster.restart_overhead = SimDuration::from_millis(400);
    cluster.terminate_delay = SimDuration::from_millis(30);
    let n_machines = cluster.n_compute_hosts;
    ExperimentSpec {
        cluster,
        workload: Workload::Bt(BtClass::S),
        injection: Some(InjectionSpec::new(
            &schedule_scenario(faults, n_machines),
            "Seq",
            "Ctl",
        )),
        timeout: SimTime::from_secs(200),
        freeze_window: SimDuration::from_secs(20),
        seed,
        tie_break: failmpi::prelude::TieBreak::Fifo,
        backend: failmpi::prelude::BackendKind::Vcl,
    }
}

proptest! {
    #![proptest_config(PropConfig::with_cases(16))]

    /// The fixed dispatcher is robust: ANY schedule of sequential crashes
    /// (arbitrary victims, 1–10 s apart) either completes or is merely
    /// starved — it never produces a frozen (buggy) run.
    #[test]
    fn fixed_dispatcher_never_freezes(
        faults in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..6),
        seed in 0u64..1000,
    ) {
        let rec = run_one(&spec_with(&faults, DispatcherMode::Fixed, seed));
        prop_assert!(
            !rec.outcome.is_buggy(),
            "fixed dispatcher froze under {faults:?}: {:?}",
            rec.outcome
        );
    }

    /// Liveness under sparse faults: with generous spacing the job always
    /// completes, and every crash that landed produced exactly one
    /// detected recovery (historical dispatcher, no overlap ⇒ no bug).
    #[test]
    fn sparse_faults_always_complete(
        victims in proptest::collection::vec(any::<u8>(), 0..3),
        seed in 0u64..1000,
    ) {
        // 8–10 s apart: far beyond the miniature's recovery + wave cycle.
        let faults: Vec<(u8, u8)> = victims.iter().map(|&v| (7, v)).collect();
        let rec = run_one(&spec_with(&faults, DispatcherMode::Historical, seed));
        prop_assert!(
            matches!(rec.outcome, Outcome::Completed { .. }),
            "sparse schedule {faults:?} did not complete: {:?}",
            rec.outcome
        );
        // Each injected fault triggered exactly one recovery.
        prop_assert_eq!(rec.recoveries as u32, rec.faults_injected);
        prop_assert_eq!(rec.max_progress, BtClass::S.iterations);
    }

    /// Trace coherence: whatever the schedule and dispatcher variant, the
    /// execution trace satisfies every structural invariant (monotone
    /// waves, epoch numbering, spawn-before-register, complete-⇒-all-
    /// finalized…).
    #[test]
    fn any_schedule_yields_a_coherent_trace(
        faults in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..5),
        seed in 0u64..1000,
        fixed: bool,
    ) {
        let mode = if fixed { DispatcherMode::Fixed } else { DispatcherMode::Historical };
        let spec = spec_with(&faults, mode, seed);
        validate_trace(&run_plain(&spec), spec.cluster.n_ranks).map_err(|e| {
            TestCaseError::fail(format!("schedule {faults:?}: {e}"))
        })?;
    }

    /// Determinism: any schedule, same seed ⇒ identical outcome and
    /// timeline, on both dispatcher variants.
    #[test]
    fn any_schedule_is_deterministic(
        faults in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..4),
        seed in 0u64..1000,
        fixed: bool,
    ) {
        let mode = if fixed { DispatcherMode::Fixed } else { DispatcherMode::Historical };
        let a = run_one(&spec_with(&faults, mode, seed));
        let b = run_one(&spec_with(&faults, mode, seed));
        prop_assert_eq!(a.outcome, b.outcome);
        prop_assert_eq!(a.end, b.end);
        prop_assert_eq!(a.recoveries, b.recoveries);
        prop_assert_eq!(a.waves_committed, b.waves_committed);
    }
}

fn v2_spec(faults: &[(u8, u8)], seed: u64) -> ExperimentSpec {
    let mut spec = spec_with(faults, DispatcherMode::Historical, seed);
    spec.cluster.protocol = failmpi::mpichv::VProtocol::V2;
    spec
}

proptest! {
    #![proptest_config(PropConfig::with_cases(16))]

    /// V2 has no stop-the-world and hence no recovery-confusion window:
    /// ANY sequential crash schedule leaves it un-frozen (and its traces
    /// coherent), even under the historical dispatcher.
    #[test]
    fn v2_never_freezes_under_any_schedule(
        faults in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..6),
        seed in 0u64..1000,
    ) {
        let spec = v2_spec(&faults, seed);
        let out = run_plain(&spec);
        prop_assert!(
            !out.record.outcome.is_buggy(),
            "V2 froze under {faults:?}: {:?}",
            out.record.outcome
        );
        validate_trace(&out, spec.cluster.n_ranks).map_err(|e| {
            TestCaseError::fail(format!("V2 schedule {faults:?}: {e}"))
        })?;
    }

    /// V2 sparse-fault completions preserve exact application semantics:
    /// full progress, one solo restart per fault, no fleet respawns.
    #[test]
    fn v2_sparse_faults_complete_with_solo_restarts(
        victims in proptest::collection::vec(any::<u8>(), 0..3),
        seed in 0u64..1000,
    ) {
        let faults: Vec<(u8, u8)> = victims.iter().map(|&v| (7, v)).collect();
        let RunArtifacts { record: rec, trace, .. } = run_plain(&v2_spec(&faults, seed));
        prop_assert!(
            matches!(rec.outcome, Outcome::Completed { .. }),
            "V2 sparse schedule {faults:?}: {:?}",
            rec.outcome
        );
        prop_assert_eq!(rec.max_progress, BtClass::S.iterations);
        // Fleet spawns = n + one per injected fault (solo restarts only).
        let spawns = trace
            .iter()
            .filter(|e| matches!(e.kind, VclEvent::DaemonSpawned { .. }))
            .count();
        prop_assert_eq!(
            spawns as u32,
            4 + rec.faults_injected,
            "stop-the-world detected under V2"
        );
    }
}
