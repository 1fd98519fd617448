//! The cross-backend differential verdict matrix: every runnable builtin
//! × every protocol backend × 8 sweep seeds, static and dynamic sides at
//! the same smoke deployment scale (4 ranks on 6 machines). The pinned
//! texture is the PR's acceptance artifact — backends must *differ* on
//! specific scenarios for protocol-explainable reasons (see
//! `docs/DESIGN.md`, "Protocol backends"):
//!
//! * **Fig. 10 is a Vcl bug, not an MPI fact**: the state-synchronized
//!   double fault freezes every Vcl seed (stale dispatcher entry) and no
//!   ULFM seed (shrink-and-continue has no relaunch window to corrupt).
//! * **ULFM's only freeze mode is job exhaustion**: random-kill scenarios
//!   (Fig. 5/7) are statically freezing — enough faults can eat every
//!   rank — but the schedule is rare enough that no smoke seed realizes
//!   it. That over-approximation is pinned as the two `!agrees` rows,
//!   the static-freeze analogue of the fuzzer's FZ007.
//! * **Replication converts coverage into the verdict**: with 2 spares
//!   for 4 ranks, any fault on an unprotected primary (or a primary +
//!   its shadow) is an immediate permanent loss, so every fault-landing
//!   scenario freezes statically and flickers seed-by-seed dynamically.
//! * **delay_injection survives everywhere**: its probe waits on a Vcl
//!   checkpoint wave that the other backends never emit, so no backend
//!   even reaches a fault.

use std::sync::OnceLock;

use failmpi_analyze::StaticVerdict;
use failmpi_experiments::{
    crosscheck_builtins, figure_matrix, render_backend_matrix, BackendKind, CheckShape,
    CrosscheckRow,
};
use failmpi_mpichv::DispatcherMode;

const SEEDS: &[u64] = &[1, 2, 3, 4, 5, 6, 7, 8];

/// The 15-row sweep is expensive; compute it once per process.
fn rows() -> &'static [CrosscheckRow] {
    static ROWS: OnceLock<Vec<CrosscheckRow>> = OnceLock::new();
    // The static side at the dynamic side's smoke deployment.
    ROWS.get_or_init(|| {
        crosscheck_builtins(SEEDS, &BackendKind::all().map(CheckShape::smoke)).expect("builtins run")
    })
}

fn row(name: &str, backend: BackendKind) -> &'static CrosscheckRow {
    rows()
        .iter()
        .find(|r| r.name == name && r.backend == backend)
        .unwrap_or_else(|| panic!("missing row {name}/{backend}"))
}

fn buggy_seeds(r: &CrosscheckRow) -> Vec<u64> {
    r.dynamic.iter().filter(|(_, c)| *c == "buggy").map(|(s, _)| *s).collect()
}

#[test]
fn matrix_shape_and_static_verdicts_are_pinned() {
    assert_eq!(rows().len(), 15, "5 scenarios x 3 backends");
    let expect = [
        ("fig5_frequency", BackendKind::Vcl, StaticVerdict::Survives),
        ("fig5_frequency", BackendKind::Ulfm, StaticVerdict::Freezes),
        ("fig5_frequency", BackendKind::Replica, StaticVerdict::Freezes),
        ("fig7_simultaneous", BackendKind::Vcl, StaticVerdict::Survives),
        ("fig7_simultaneous", BackendKind::Ulfm, StaticVerdict::Freezes),
        ("fig7_simultaneous", BackendKind::Replica, StaticVerdict::Freezes),
        ("fig8_synchronized", BackendKind::Vcl, StaticVerdict::Freezes),
        ("fig8_synchronized", BackendKind::Ulfm, StaticVerdict::Survives),
        ("fig8_synchronized", BackendKind::Replica, StaticVerdict::Freezes),
        ("fig10_state_sync", BackendKind::Vcl, StaticVerdict::Freezes),
        ("fig10_state_sync", BackendKind::Ulfm, StaticVerdict::Survives),
        ("fig10_state_sync", BackendKind::Replica, StaticVerdict::Freezes),
        ("delay_injection", BackendKind::Vcl, StaticVerdict::Survives),
        ("delay_injection", BackendKind::Ulfm, StaticVerdict::Survives),
        ("delay_injection", BackendKind::Replica, StaticVerdict::Survives),
    ];
    for (name, backend, verdict) in expect {
        assert_eq!(
            row(name, backend).static_verdict,
            verdict,
            "{name}/{backend}:\n{}",
            render_backend_matrix(rows())
        );
    }
}

#[test]
fn fig10_divergence_is_the_dispatcher_bug_not_an_mpi_fact() {
    // The PR's headline differential: the exact same injection campaign
    // freezes every Vcl seed and no ULFM seed.
    let vcl = row("fig10_state_sync", BackendKind::Vcl);
    assert!(vcl.dynamic.iter().all(|(_, c)| *c == "buggy"), "{vcl:?}");
    let ulfm = row("fig10_state_sync", BackendKind::Ulfm);
    assert!(ulfm.dynamic.iter().all(|(_, c)| *c == "completed"), "{ulfm:?}");
    assert!(vcl.agrees && ulfm.agrees);
}

#[test]
fn replication_masks_some_seeds_and_loses_others() {
    // 2 spares protect ranks 0-1; faults landing on ranks 2-3 (or on a
    // primary plus its shadow) are unmaskable. Each fault-landing
    // scenario must show both textures across the sweep.
    for name in ["fig5_frequency", "fig7_simultaneous", "fig8_synchronized", "fig10_state_sync"]
    {
        let r = row(name, BackendKind::Replica);
        let buggy = buggy_seeds(r);
        assert!(
            !buggy.is_empty() && buggy.len() < SEEDS.len(),
            "{name}/replica must flicker seed-by-seed, got {r:?}"
        );
        assert!(r.agrees, "{r:?}");
    }
    // Pinned seed-level golden for the headline scenario: which seeds
    // lose an unprotected primary is a deterministic function of the
    // simulation, so a drift here is a behaviour change, not noise.
    assert_eq!(buggy_seeds(row("fig10_state_sync", BackendKind::Replica)), vec![2, 3, 5]);
}

#[test]
fn ulfm_exhaustion_freezes_are_statically_real_but_dynamically_rare() {
    // ULFM's random-kill rows are the matrix's pinned over-approximation:
    // the static model proves the all-ranks-eaten freeze reachable, but
    // no smoke seed realizes the schedule (4 kills must land on 4
    // distinct live ranks). Exactly these two rows may disagree.
    for name in ["fig5_frequency", "fig7_simultaneous"] {
        let r = row(name, BackendKind::Ulfm);
        assert_eq!(r.static_verdict, StaticVerdict::Freezes);
        assert!(buggy_seeds(r).is_empty(), "{r:?}");
        assert!(!r.agrees, "{r:?}");
    }
    let disagreeing: Vec<_> = rows().iter().filter(|r| !r.agrees).collect();
    assert_eq!(
        disagreeing.len(),
        2,
        "only the two ULFM exhaustion rows may disagree:\n{}",
        render_backend_matrix(rows())
    );
}

#[test]
fn dynamic_freezes_are_always_statically_predicted() {
    // The soundness direction holds for every backend: a concrete frozen
    // run on any seed must have been statically reachable.
    for r in rows() {
        if !buggy_seeds(r).is_empty() {
            assert_eq!(
                r.static_verdict,
                StaticVerdict::Freezes,
                "soundness hole in {}/{}: {r:?}",
                r.name,
                r.backend
            );
        }
    }
}

#[test]
fn delay_probe_never_fires_off_vcl() {
    // delay_injection waits on a checkpoint-wave probe; ULFM and
    // replication have no checkpoint scheduler, so the campaign is a
    // no-op there and everything completes.
    for backend in [BackendKind::Ulfm, BackendKind::Replica] {
        let r = row("delay_injection", backend);
        assert!(r.dynamic.iter().all(|(_, c)| *c == "completed"), "{r:?}");
    }
}

/// The light backends one grid step up, in the default suite: 9 ranks plus
/// one spare machine, reduced. Measured in a debug build, whole five-row
/// matrix per shape: ulfm 0.35 s, replica 4.0 s (0.8 s a row, 11 276
/// states each). What stays `#[ignore]`d below, and what it costs in
/// debug: ulfm at 16 / 25 ranks 11 s / 25 s (`delay_injection` runs into
/// the budget), replica at 16 ranks 60 s for five `unknown`s, Vcl at
/// 9 / 16 / 25 ranks 6 s / 16 s / 53 s.
///
/// The texture is the 4-rank smoke matrix's, moved by scale the way the
/// protocols say it must: ULFM freezes only by losing every rank, which at
/// 9 ranks the bounded campaigns (Fig. 7/8/10) can no longer do while
/// Fig. 5's re-arming killer still can — its witness is exactly nine
/// faults; replication with one spare protects one rank, so every
/// fault-landing scenario loses an unprotected primary in one fault.
#[test]
fn nine_rank_grid_verdicts_on_the_light_backends() {
    for backend in [BackendKind::Ulfm, BackendKind::Replica] {
        let rows = figure_matrix(&[CheckShape::grid(backend, DispatcherMode::Historical, 9, 50_000)]);
        assert_eq!(rows.len(), 5);
        for r in &rows {
            let expect = match (backend, r.name) {
                (BackendKind::Ulfm, "fig5_frequency") => Some(9),
                (BackendKind::Replica, name) if name != "delay_injection" => Some(1),
                _ => None,
            };
            let at = format!("{backend}/{}", r.name);
            match expect {
                Some(faults) => {
                    assert_eq!(r.verdict, StaticVerdict::Freezes, "{at}");
                    assert_eq!(r.witness_cost.expect("witness").0, faults, "{at}");
                }
                None => assert_eq!(r.verdict, StaticVerdict::Survives, "{at}"),
            }
        }
    }
}

/// Release-speed variant: the per-backend static matrix at grid scale
/// (`cargo test --release -p failmpi-experiments --test backend_matrix --
/// --ignored`). The differential shifts with scale:
///
/// * Vcl and ULFM run the paper's full 25-rank grid. ULFM's exhaustion
///   freeze needs every rank eaten, so the *bounded* campaigns
///   (Fig. 7/8/10) that freeze the 4-rank smoke grid cannot touch 25
///   ranks — but Fig. 5's periodic killer re-arms forever and can still
///   eat the whole job, one 25-fault schedule at a time.
/// * Replication runs at its largest definitive scale, 8 ranks + 9
///   machines: its heterogeneous unit space admits no rank symmetry, so
///   the 0-fault boot interleavings of a 26-unit deployment exhaust any
///   practical budget (verified up to 500k states). The 25-rank honesty
///   check below pins that FC006 `Unknown` as the expected answer.
#[test]
#[ignore = "grid scale is release-speed; run with --release -- --ignored"]
fn grid_scale_backend_matrix() {
    for backend in BackendKind::all() {
        let n_ranks = if backend == BackendKind::Replica { 8 } else { 25 };
        let shape = CheckShape::grid(backend, DispatcherMode::Historical, n_ranks, 50_000);
        let rows = figure_matrix(&[shape]);
        assert_eq!(rows.len(), 5);
        for r in &rows {
            match (backend, r.name) {
                // The dispatcher bug stays definitive at grid scale (the
                // existing figure-matrix suite pins the Vcl side in
                // depth; here it anchors the differential).
                (BackendKind::Vcl, "fig8_synchronized" | "fig10_state_sync") => {
                    assert_eq!(r.verdict, StaticVerdict::Freezes, "{backend}/{}", r.name);
                    assert_eq!(r.witness_cost.expect("witness").0, 2);
                }
                // ULFM's unbounded killer can still exhaust 25 ranks —
                // the witness eats every one of them.
                (BackendKind::Ulfm, "fig5_frequency") => {
                    assert_eq!(r.verdict, StaticVerdict::Freezes, "{backend}/{}", r.name);
                    assert_eq!(r.witness_cost.expect("witness").0, 25);
                }
                // The bounded ULFM campaigns cannot eat the whole job, and
                // there is no dispatcher to corrupt — nothing freezes.
                (BackendKind::Ulfm, _) => {
                    assert_ne!(r.verdict, StaticVerdict::Freezes, "{backend}/{}", r.name);
                }
                // Replication with one spare: any fault-landing scenario
                // finds an unprotected primary in one fault.
                (
                    BackendKind::Replica,
                    "fig5_frequency" | "fig7_simultaneous" | "fig8_synchronized"
                    | "fig10_state_sync",
                ) => {
                    assert_eq!(r.verdict, StaticVerdict::Freezes, "{backend}/{}", r.name);
                    assert_eq!(r.witness_cost.expect("witness").0, 1);
                }
                (BackendKind::Replica, "delay_injection") => {
                    assert_eq!(r.verdict, StaticVerdict::Survives, "{backend}/{}", r.name);
                }
                _ => {}
            }
        }
    }

    // Honesty pin: replication at the full 25-rank grid is *not*
    // definitive — no rank symmetry means no boot-ladder folding — and
    // the checker must say Unknown (FC006) rather than guess.
    let shape = CheckShape::grid(BackendKind::Replica, DispatcherMode::Historical, 25, 50_000);
    let replica_25 = figure_matrix(&[shape]);
    assert!(
        replica_25
            .iter()
            .all(|r| r.verdict == StaticVerdict::Unknown),
        "{replica_25:?}"
    );
}
