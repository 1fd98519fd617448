//! Property tests for the happens-before (causal) trace.
//!
//! Over random builtin scenarios and seeds, on every protocol backend:
//!
//! - the causal log is a well-formed DAG: dense handled-order ids, every
//!   cause edge pointing to an earlier-handled event, acyclic by
//!   construction (checked via `CausalLog::check_invariants`);
//! - every edge points backward (or equal) in *virtual time*, never
//!   forward — causes cannot postdate their effects;
//! - the exported `failmpi-trace` JSON is deterministic: a same-seed
//!   same-tie-break double run serializes byte-identically;
//! - tracing is schedule-transparent: the traced run's fingerprint equals
//!   the untraced run's.

use proptest::prelude::*;

use failmpi_backend::BackendKind;
use failmpi_experiments::robustness::scenario_suite;
use failmpi_experiments::tracesink::trace_file_of;
use failmpi_experiments::{run_one, run_one_traced, ExperimentSpec};

proptest! {
    #![proptest_config(proptest::test_runner::Config::with_cases(8))]

    #[test]
    fn causal_dag_is_sound_and_export_is_deterministic(
        case in 0usize..10,
        seed in 0u64..10_000,
    ) {
        let suite = scenario_suite(seed);
        let (name, spec) = &suite[case % suite.len()];
        for backend in [BackendKind::Vcl, BackendKind::Ulfm, BackendKind::Replica] {
            let name = &format!("{name}/{}", backend.name());
            causal_contract(name, &spec.clone().with_backend(backend))?;
        }
    }
}

/// The causal-trace contract of one spec on one backend.
fn causal_contract(name: &str, spec: &ExperimentSpec) -> Result<(), TestCaseError> {
    let traced = run_one_traced(spec);
    prop_assert!(traced.causal.is_enabled(), "{}: causal log must be on", name);
    prop_assert_eq!(
        traced.causal.len() as u64, traced.record.events,
        "{}: one causal node per handled event", name
    );
    traced
        .causal
        .check_invariants()
        .unwrap_or_else(|e| panic!("{name}: causal invariants broken: {e}"));

    // Every cause edge points backward (or equal) in virtual time.
    for node in traced.causal.nodes() {
        if let Some(cause) = node.cause.and_then(|c| traced.causal.node(c)) {
            prop_assert!(
                cause.at <= node.at,
                "{}: cause {} at {:?} postdates effect {} at {:?}",
                name, cause.id, cause.at, node.id, node.at
            );
        }
    }

    // Tracing must not perturb the schedule.
    let baseline = run_one(spec);
    prop_assert_eq!(
        baseline.fingerprint, traced.record.fingerprint,
        "{}: causal tracing changed the schedule", name
    );

    // Same-seed double run exports byte-identical trace JSON.
    let a = trace_file_of(name, spec.seed, &traced);
    a.check_invariants()
        .unwrap_or_else(|e| panic!("{name}: exported trace broken: {e}"));
    let again = run_one_traced(spec);
    let b = trace_file_of(name, spec.seed, &again);
    prop_assert_eq!(
        a.to_json(), b.to_json(),
        "{}: same-seed trace export is not byte-identical", name
    );
    Ok(())
}
