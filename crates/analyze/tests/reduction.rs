//! Soundness of the reduced exploration (`ModelCheckConfig::reduce`):
//! symmetry canonicalization plus partial-order reduction must preserve
//! the verdict, the minimal-witness (faults, steps) cost, and the FC
//! finding set (modulo the informational FC007 reduction stats) against
//! the unreduced product — on every runnable builtin and FC fixture.
//!
//! This suite is the arbiter the `model::por` and `model::canon` module
//! docs defer to: if a future scenario shape violates the ample-set or
//! orbit arguments, a case here fails and the conditions must be
//! tightened until it passes again.

use failmpi_analyze::{model_check_source, ModelCheckConfig, ModelCheckResult, StaticVerdict};
use proptest::prelude::*;
use proptest::test_runner::Config;

/// Scenarios cheap enough to explore unreduced at 4 ranks in debug mode.
const FAST: &[(&str, &str)] = &[
    ("fig8", include_str!("../../core/scenarios/fig8_synchronized.fail")),
    ("fig10", include_str!("../../core/scenarios/fig10_state_sync.fail")),
    ("delay", include_str!("../../core/scenarios/delay_injection.fail")),
    ("fc001", include_str!("../fixtures/fc001_unreachable_halt.fail")),
    ("fc002", include_str!("../fixtures/fc002_pre_wave_faults.fail")),
    ("fc003", include_str!("../fixtures/fc003_recovery_refault.fail")),
    ("fc004", include_str!("../fixtures/fc004_relaunch_livelock.fail")),
    ("fc005", include_str!("../fixtures/fc005_stale_halt.fail")),
];

/// The survivor grids whose unreduced product runs to ~850k states: the
/// `#[ignore]`d release-mode case covers them (CI runs it explicitly).
const LARGE: &[(&str, &str)] = &[
    ("fig5", include_str!("../../core/scenarios/fig5_frequency.fail")),
    ("fig7", include_str!("../../core/scenarios/fig7_simultaneous.fail")),
];

/// Every runnable builtin, reduced-mode — the permutation property runs
/// over these (all are cheap with reduction on).
const RUNNABLE: &[(&str, &str)] = &[
    ("fig5", include_str!("../../core/scenarios/fig5_frequency.fail")),
    ("fig7", include_str!("../../core/scenarios/fig7_simultaneous.fail")),
    ("fig8", include_str!("../../core/scenarios/fig8_synchronized.fail")),
    ("fig10", include_str!("../../core/scenarios/fig10_state_sync.fail")),
    ("delay", include_str!("../../core/scenarios/delay_injection.fail")),
];

fn grid_cfg(reduce: bool, budget: usize) -> ModelCheckConfig {
    ModelCheckConfig {
        n_ranks: 4,
        n_hosts: 5,
        budget,
        reduce,
        ..ModelCheckConfig::default()
    }
}

/// The observables reduction must preserve: verdict, witness cost, and
/// the FC code set without the informational FC007 stats line.
fn observables(r: &ModelCheckResult) -> (StaticVerdict, Option<(usize, usize)>, Vec<&'static str>) {
    let cost = r.summary.witness.as_ref().map(|w| (w.faults, w.steps.len()));
    let mut codes: Vec<&'static str> = r
        .diagnostics
        .iter()
        .map(|d| d.code)
        .filter(|c| *c != "FC007")
        .collect();
    codes.sort_unstable();
    codes.dedup();
    (r.summary.verdict, cost, codes)
}

fn assert_equivalent(name: &str, src: &str, full_budget: usize) {
    let full = model_check_source(src, &grid_cfg(false, full_budget));
    let reduced = model_check_source(src, &grid_cfg(true, full_budget));
    assert_eq!(
        full.summary.verdict,
        observables(&full).0,
        "sanity: verdict extraction"
    );
    assert_ne!(
        full.summary.verdict,
        StaticVerdict::Unknown,
        "{name}: full exploration must finish within the budget for the \
         comparison to mean anything"
    );
    assert_eq!(
        observables(&full),
        observables(&reduced),
        "{name}: reduced exploration changed an observable"
    );
    // The reduction must never *grow* the state space.
    assert!(
        reduced.summary.explored <= full.summary.explored,
        "{name}: reduced explored {} > full {}",
        reduced.summary.explored,
        full.summary.explored
    );
}

#[test]
fn reduced_matches_full_on_fast_builtins_and_fixtures() {
    for (name, src) in FAST {
        assert_equivalent(name, src, ModelCheckConfig::default().budget);
    }
}

/// The two big survivor grids: ~850k unreduced states each, so this runs
/// release-mode only (`cargo test --release -p failmpi-analyze -- --ignored`).
#[test]
#[ignore = "unreduced 4-rank fig5/fig7 explore ~850k states; run with --release -- --ignored"]
fn reduced_matches_full_on_large_survivor_grids() {
    for (name, src) in LARGE {
        assert_equivalent(name, src, 2_000_000);
    }
}

#[test]
fn reduction_actually_reduces_fig10() {
    let full = model_check_source(FAST[1].1, &grid_cfg(false, 50_000));
    let reduced = model_check_source(FAST[1].1, &grid_cfg(true, 50_000));
    // The 4-rank Fig. 10 grid shrinks by an order of magnitude; pin a
    // conservative floor so a silently disabled reduction fails loudly.
    assert!(
        reduced.summary.explored * 5 < full.summary.explored,
        "expected ≥5x reduction, got {} vs {}",
        reduced.summary.explored,
        full.summary.explored
    );
    let fc007 = reduced.diagnostics.iter().find(|d| d.code == "FC007");
    let d = fc007.expect("reduced runs report FC007 stats");
    assert_eq!(d.severity, failmpi_analyze::Severity::Info);
    assert!(d.message.contains("orbit merge"), "got: {}", d.message);
}

proptest! {
    #![proptest_config(Config::with_cases(8))]

    /// Canonicalization is a true orbit quotient: permuting the initial
    /// state by a random symmetry (the `permute_seed` hook shuffles
    /// interchangeable machines and ranks) changes nothing observable —
    /// same verdict, same witness cost, same state count, same FC codes.
    #[test]
    fn permuted_initial_state_is_observationally_identical(
        seed in any::<u64>(),
        which in 0usize..5,
    ) {
        let (name, src) = RUNNABLE[which];
        let base = model_check_source(src, &grid_cfg(true, 50_000));
        let permuted_cfg = ModelCheckConfig {
            permute_seed: Some(seed),
            ..grid_cfg(true, 50_000)
        };
        let permuted = model_check_source(src, &permuted_cfg);
        prop_assert_eq!(
            observables(&base),
            observables(&permuted),
            "{}: permute_seed={} changed an observable", name, seed
        );
        prop_assert_eq!(
            base.summary.explored,
            permuted.summary.explored,
            "{}: orbit quotient must make the permuted run intern the \
             same canonical states", name
        );
    }
}
