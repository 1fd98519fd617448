//! Determinism and transparency tests for the profiling subsystem.
//!
//! - the `--profile` document is deterministic: merging the profiles of
//!   the whole scenario suite twice renders byte-identical JSON (in a
//!   default build the allocation counters are zero and the remaining
//!   counters are schedule-derived; in an `alloc-profile` build the same
//!   holds within one binary, which is how CI gates it);
//! - the collapsed-stack flamegraph export of a fixed-seed run matches
//!   a committed golden file (span *counts* weight the stacks, so the
//!   golden is stable across toolchains);
//! - profiling is schedule-transparent: fingerprint, classification
//!   outcome and event count of a profiled run equal the unprofiled
//!   run's (the property-test satellite).
//!
//! To regenerate the golden after an intentional schema/span change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p failmpi-experiments --test profile_props
//! ```

use std::path::PathBuf;

use proptest::prelude::*;

use failmpi_experiments::robustness::{fig10_stress_spec, scenario_suite};
use failmpi_experiments::{run, run_one, ExperimentSpec, Observe, RunRecord};
use failmpi_mpichv::DispatcherMode;
use failmpi_obs::RunProfile;

/// One run under a profiling context.
fn profiled(spec: &ExperimentSpec) -> (RunRecord, RunProfile) {
    let observe = Observe {
        run_profile: true,
        ..Observe::default()
    };
    let out = run(spec, observe).expect("suite scenarios run");
    (out.record, out.run_profile.expect("profiled run carries its profile"))
}

/// One profiled pass over the full scenario suite, merged and rendered
/// the way the `--profile` sink does.
fn profiled_suite_pass(seed: u64) -> String {
    let mut merged: Option<RunProfile> = None;
    for (_, spec) in scenario_suite(seed) {
        let (_, p) = profiled(&spec);
        match merged.as_mut() {
            Some(agg) => agg.merge(&p),
            None => merged = Some(p),
        }
    }
    merged.expect("suite is not empty").to_pretty_json()
}

/// Byte-identity of the `--profile` document across a same-seed double
/// run of the figure-scale suite — the contract the `perf` stage of
/// `ci/run.sh` gates with `cmp`.
#[test]
fn profile_sink_output_is_byte_identical_across_runs() {
    let a = profiled_suite_pass(0xD_E7E);
    let b = profiled_suite_pass(0xD_E7E);
    assert_eq!(a, b, "same-seed --profile output must be byte-identical");
    // The merged document must carry the suite's backend tag: the vcl
    // scenario suite never mixes backends, so no `mixed` escape hatch.
    assert!(
        a.contains("\"backend\": \"vcl\""),
        "suite aggregate should be tagged vcl:\n{a}"
    );
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
        actual, expected,
        "{name}: collapsed stacks differ from the golden file \
         (UPDATE_GOLDEN=1 regenerates after an intentional change)"
    );
}

/// The collapsed-stack export of the Fig. 10 stress scenario, pinned
/// against a committed golden. Stack weights are span counts — pure
/// schedule artifacts — so this file is identical in default and
/// `alloc-profile` builds and across toolchains.
#[test]
fn fig10_collapsed_stacks_match_golden() {
    let (_, profile) = profiled(&fig10_stress_spec(DispatcherMode::Historical, 7));
    assert!(!profile.spans.is_empty(), "stress run must record spans");
    check_golden("fig10_collapsed.txt", &profile.to_collapsed());
}

proptest! {
    #![proptest_config(proptest::test_runner::Config::with_cases(8))]

    /// Schedule transparency: over random builtin scenarios and seeds,
    /// a profiled run's fingerprint, classification outcome and event
    /// count are identical to the unprofiled run's. Profiling observes
    /// the schedule; it must never steer it.
    #[test]
    fn profiling_is_schedule_transparent(
        case in 0usize..10,
        seed in 0u64..10_000,
    ) {
        let suite = scenario_suite(seed);
        let (name, spec) = &suite[case % suite.len()];
        let off = run_one(spec);
        let (on, p) = profiled(spec);

        prop_assert_eq!(
            off.fingerprint, on.fingerprint,
            "{}: profiling changed the schedule", name
        );
        prop_assert_eq!(
            format!("{:?}", off.outcome), format!("{:?}", on.outcome),
            "{}: profiling changed the classification verdict", name
        );
        prop_assert_eq!(off.events, on.events, "{}: event counts differ", name);
        // And the profile itself saw every handled event.
        prop_assert_eq!(p.events, on.events, "{}: profile missed events", name);
    }
}
