//! Corpus-replay regression suite: every checked-in fuzz fixture is
//! re-evaluated against its pinned verdicts on every test run.
//!
//! The seed corpus under `tests/fixtures/fuzz/` pins, per scenario, the
//! static model-check verdict under both dispatcher modes, the dynamic
//! outcome class per probe seed, and the per-backend (ULFM, replication)
//! static and dynamic views. Any drift (an FZ004 diagnostic) means
//! either a behavioural regression in the simulator/model checker or an
//! intentional change that requires regenerating the corpus with
//! `failmpi-fuzz --seed 1 --budget 30 --corpus tests/fixtures/fuzz`.

use std::collections::BTreeSet;
use std::path::PathBuf;

use failmpi::fuzz::{load_corpus, replay_entry, FuzzConfig};

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/fuzz")
}

#[test]
fn corpus_is_wide_enough_and_well_formed() {
    let entries = load_corpus(&corpus_dir()).expect("seed corpus loads");
    assert!(
        entries.len() >= 10,
        "seed corpus shrank to {} entries; the regression suite needs \
         at least 10 distinct behaviours",
        entries.len()
    );

    let mut names = BTreeSet::new();
    for (entry, source) in &entries {
        assert!(names.insert(entry.name.clone()), "duplicate entry {}", entry.name);
        assert!(!source.is_empty(), "{}: empty source", entry.name);
        assert!(
            failmpi::fuzz::passes_filter(source),
            "{}: checked-in scenario no longer passes the validity filter",
            entry.name
        );
        assert!(
            !entry.dynamic_historical.is_empty() && !entry.dynamic_fixed.is_empty(),
            "{}: entry pins no dynamic probes",
            entry.name
        );
    }

    // The corpus must cover both sides of the paper's story: scenarios the
    // historical dispatcher freezes on, and scenarios everything survives.
    let frozen = entries
        .iter()
        .filter(|(e, _)| e.dynamic_historical.iter().any(|(_, c)| c == "buggy"))
        .count();
    assert!(frozen >= 1, "no pinned historical freeze in the corpus");
    assert!(
        frozen < entries.len(),
        "every corpus entry freezes; no surviving behaviour is pinned"
    );
}

#[test]
fn corpus_replay_sees_no_drift() {
    let entries = load_corpus(&corpus_dir()).expect("seed corpus loads");
    let cfg = FuzzConfig::default();
    let mut drift = Vec::new();
    for (entry, source) in &entries {
        for d in replay_entry(entry, source, &cfg) {
            drift.push(format!("{}: {}", entry.name, d.message));
        }
    }
    assert!(
        drift.is_empty(),
        "corpus replay drift ({} finding(s)):\n{}",
        drift.len(),
        drift.join("\n")
    );
}

#[test]
fn a_shifted_seed_or_an_extra_pin_is_drift() {
    // Pins are compared with the replay's probes seed for seed and length
    // for length: a class match under another seed, or a pin no probe
    // reproduces, is FZ004.
    let entries = load_corpus(&corpus_dir()).expect("seed corpus loads");
    let (entry, source) = entries
        .iter()
        .find(|(e, _)| e.name == "c003-mut-fig5_frequency")
        .expect("entry present");
    let cfg = FuzzConfig::default();
    assert!(replay_entry(entry, source, &cfg).is_empty());

    let mut shifted = entry.clone();
    shifted.dynamic_historical[1].0 += 1;
    let mut extra = entry.clone();
    extra.dynamic_fixed.push((3, "completed".into()));
    let mut extra_backend = entry.clone();
    extra_backend.dynamic_ulfm.push((3, "completed".into()));
    for tampered in [shifted, extra, extra_backend] {
        let codes: Vec<&str> = replay_entry(&tampered, source, &cfg)
            .iter()
            .map(|d| d.code)
            .collect();
        assert_eq!(codes, ["FZ004"], "{tampered:?}");
    }
}

#[test]
fn corpus_pins_the_backend_axis() {
    // Every entry carries the per-backend pins (the manifest was
    // regenerated when the backend axis landed), and the corpus preserves
    // the cross-backend differential: at least one entry must freeze
    // under the historical Vcl dispatcher while ULFM's abstract model
    // proves the same scenario survivable — the FZ008 divergence the
    // fuzzer's oracle hunts, pinned as data.
    let entries = load_corpus(&corpus_dir()).expect("seed corpus loads");
    for (entry, _) in &entries {
        assert!(
            !entry.static_ulfm.is_empty() && !entry.static_replica.is_empty(),
            "{}: entry pins no backend verdicts",
            entry.name
        );
        assert!(
            !entry.dynamic_ulfm.is_empty() && !entry.dynamic_replica.is_empty(),
            "{}: entry pins no backend probes",
            entry.name
        );
    }
    let divergent = entries
        .iter()
        .filter(|(e, _)| {
            e.dynamic_historical.iter().any(|(_, c)| c == "buggy") && e.static_ulfm == "survives"
        })
        .count();
    assert!(
        divergent >= 1,
        "no pinned Vcl-freezes/ULFM-survives divergence in the corpus"
    );
}

#[test]
fn minimized_fig10_reproducer_is_pinned() {
    // The delta-debugged Fig. 10-family reproducer rides in the corpus:
    // it must stay frozen under the historical dispatcher and never under
    // the fixed one — the paper's headline asymmetry in miniature.
    let entries = load_corpus(&corpus_dir()).expect("seed corpus loads");
    let (entry, _) = entries
        .iter()
        .find(|(e, _)| e.name == "min-fig10-stale-entry")
        .expect("minimized reproducer present in the corpus");
    assert_eq!(entry.static_historical, "freezes");
    assert!(entry.dynamic_historical.iter().any(|(_, c)| c == "buggy"));
    assert!(entry.dynamic_fixed.iter().all(|(_, c)| c != "buggy"));
}
