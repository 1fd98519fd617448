//! Property test: the lifecycle ledger agrees with the trace, on every
//! backend.
//!
//! `Chassis::record` is the one way a lifecycle record enters a runtime:
//! the ledger observes it *before* the `TraceLog` stores it, so for any
//! run of any backend the `lifecycle.*` counters must equal the counts
//! recomputed from that run's trace entries.

mod recount;

use proptest::prelude::*;

use failmpi_backend::BackendKind;
use failmpi_experiments::robustness::scenario_suite;
use failmpi_experiments::run_one_with_trace;

proptest! {
    #![proptest_config(proptest::test_runner::Config::with_cases(12))]

    /// For a random builtin scenario at a random seed on a random
    /// backend, every `lifecycle.*` counter equals the trace recount.
    #[test]
    fn counters_agree_with_trace_recount(
        case in 0usize..10,
        seed in 0u64..10_000,
        backend in 0usize..3,
    ) {
        let backend = BackendKind::all()[backend];
        let suite = scenario_suite(seed);
        let (name, spec) = &suite[case % suite.len()];
        let spec = spec.clone().with_backend(backend);
        let (record, trace) = run_one_with_trace(&spec);
        prop_assert!(!trace.is_empty(), "{}/{}: the run must have traced", backend, name);
        for (key, expected) in recount::recount(&trace) {
            prop_assert_eq!(
                record.metrics.counters.get(key).copied(), Some(expected),
                "{}/{}: {} disagrees with the trace recount", backend, name, key
            );
        }

        // Histogram sample counts are trace-derivable too: one commit
        // duration per started-then-committed wave (pairing on wave id).
        for key in recount::HISTOGRAMS {
            prop_assert!(record.metrics.histogram(key).is_some(), "{}/{}: no {}", backend, name, key);
        }
        let commits = record.metrics.histogram("lifecycle.wave_commit_micros");
        prop_assert!(
            commits.map(|h| h.count).unwrap_or(0)
                <= record.metrics.counter("lifecycle.waves_committed"),
            "{}/{}: more wave durations than wave commits", backend, name
        );

        // The chassis's traffic ledger is reported beside it, whole.
        let traffic: u64 = recount::TRAFFIC.iter().map(|k| record.metrics.counter(k)).sum();
        prop_assert_eq!(traffic, record.traffic.total(), "{}/{}", backend, name);
    }
}
