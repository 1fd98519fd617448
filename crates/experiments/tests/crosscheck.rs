//! The static model checker against the dynamic simulator: on every
//! runnable builtin figure scenario the pre-run verdict must agree with
//! the classifier's seed sweep (see `failmpi_experiments::crosscheck` for
//! the agreement contract) — under **both** dispatcher variants. The
//! historical mode carries the paper's stale-entry bug; the fixed mode is
//! the repaired reference, where any freeze would be a genuinely unknown
//! protocol bug (the scenario fuzzer's main oracle blind spot until this
//! suite closed it).

use std::sync::OnceLock;

use failmpi_analyze::StaticVerdict;
use failmpi_experiments::{crosscheck, crosscheck_builtins, CheckShape, CrosscheckRow};
use failmpi_mpichv::DispatcherMode;

/// Seeds covering both sides of Fig. 8's partial bugginess: seed 3
/// freezes the smoke-scale sweep, the others complete.
const SEEDS: &[u64] = &[1, 2, 3, 4, 5, 6, 7, 8];

/// Each mode's 5-scenario × 8-seed sweep is expensive; compute it once
/// and share it across the assertions.
fn rows(mode: DispatcherMode) -> &'static [CrosscheckRow] {
    static HISTORICAL: OnceLock<Vec<CrosscheckRow>> = OnceLock::new();
    static FIXED: OnceLock<Vec<CrosscheckRow>> = OnceLock::new();
    // The static side runs the checker's default 2-rank Vcl deployment.
    match mode {
        DispatcherMode::Historical => &HISTORICAL,
        DispatcherMode::Fixed => &FIXED,
    }
    .get_or_init(|| crosscheck_builtins(SEEDS, &[CheckShape::checker_default(mode)]).expect("builtins run"))
}

#[test]
fn static_verdicts_agree_with_dynamic_classification() {
    for mode in [DispatcherMode::Historical, DispatcherMode::Fixed] {
        let rows = rows(mode);
        assert_eq!(rows.len(), 5, "all five runnable builtins are checked");
        for r in rows {
            assert!(
                r.agrees,
                "static/dynamic disagreement ({mode:?}):\n{}",
                crosscheck::render(rows)
            );
        }
    }
}

#[test]
fn fig10_freeze_prediction_is_realized_on_every_seed() {
    // The model checker calls Fig. 10 a guaranteed freeze (FC003 with a
    // minimal two-fault witness); dynamically the witness schedule is not
    // just realizable but unavoidable — every seed freezes, the paper's
    // "every run froze" observation.
    let rows = rows(DispatcherMode::Historical);
    let fig10 = rows.iter().find(|r| r.name == "fig10_state_sync").unwrap();
    assert_eq!(fig10.static_verdict, StaticVerdict::Freezes);
    assert!(fig10.dynamic.iter().all(|(_, c)| *c == "buggy"), "{fig10:?}");
}

#[test]
fn fixed_dispatcher_has_no_freeze_on_any_builtin() {
    // The repaired dispatcher is the fuzzer's clean-room reference: no
    // builtin may freeze under it, statically or dynamically, on any of
    // the 8 sweep seeds. A violation here would be a surviving-protocol
    // bug — exactly what the fuzzer hunts for in generated scenarios.
    let rows = rows(DispatcherMode::Fixed);
    for r in rows {
        assert_ne!(
            r.static_verdict,
            StaticVerdict::Freezes,
            "{}: static freeze under the fixed dispatcher: {r:?}",
            r.name
        );
        assert!(
            r.dynamic.iter().all(|(_, c)| *c != "buggy"),
            "{}: dynamic freeze under the fixed dispatcher: {r:?}",
            r.name
        );
    }
}

#[test]
fn no_false_freeze_on_surviving_builtins() {
    // Acceptance guard: the checker must not cry freeze on any scenario
    // the dynamic classifier marks surviving across the sweep.
    for mode in [DispatcherMode::Historical, DispatcherMode::Fixed] {
        for r in rows(mode) {
            let any_buggy = r.dynamic.iter().any(|(_, c)| *c == "buggy");
            if !any_buggy {
                assert_ne!(
                    r.static_verdict,
                    StaticVerdict::Freezes,
                    "{}: static freeze but dynamic survives ({mode:?}): {r:?}",
                    r.name
                );
            }
        }
    }
}
