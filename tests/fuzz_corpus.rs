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

use failmpi::fuzz::{load_corpus, replay_entry, FuzzConfig, VIEWS};

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
            !entry.view("historical").probes.is_empty()
                && !entry.view("fixed").probes.is_empty(),
            "{}: entry pins no dynamic probes",
            entry.name
        );
    }

    // The corpus must cover both sides of the paper's story: scenarios the
    // historical dispatcher freezes on, and scenarios everything survives.
    let frozen = entries
        .iter()
        .filter(|(e, _)| e.view("historical").probes.iter().any(|(_, c)| c == "buggy"))
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

    // Per view: a shifted seed, an extra pin, and a flipped static
    // verdict, each one FZ004 naming that view.
    for (at, view) in VIEWS.iter().enumerate() {
        let mut shifted = entry.clone();
        shifted.pins[at].probes[1].0 += 1;
        let mut extra = entry.clone();
        extra.pins[at].probes.push((3, "completed".into()));
        let mut flipped = entry.clone();
        let verdict = &mut flipped.pins[at].verdict;
        *verdict = if verdict == "survives" { "freezes" } else { "survives" }.into();
        for tampered in [shifted, extra, flipped] {
            let drift = replay_entry(&tampered, source, &cfg);
            let codes: Vec<&str> = drift.iter().map(|d| d.code).collect();
            assert_eq!(codes, ["FZ004"], "{tampered:?}");
            let named = format!("({})", view.name);
            assert!(drift[0].message.contains(&named), "{}: {}", view.name, drift[0].message);
        }
    }
}

#[test]
fn corpus_pins_the_backend_axis() {
    // Every entry carries the per-backend pins (the reader refuses an
    // entry without them), and the corpus preserves
    // the cross-backend differential: at least one entry must freeze
    // under the historical Vcl dispatcher while ULFM's abstract model
    // proves the same scenario survivable — the FZ008 divergence the
    // fuzzer's oracle hunts, pinned as data.
    let entries = load_corpus(&corpus_dir()).expect("seed corpus loads");
    for (entry, _) in &entries {
        for view in ["ulfm", "replica"] {
            let pins = entry.view(view);
            assert!(!pins.verdict.is_empty(), "{}: entry pins no {view} verdict", entry.name);
            assert!(!pins.probes.is_empty(), "{}: entry pins no {view} probes", entry.name);
        }
    }
    let divergent = entries
        .iter()
        .filter(|(e, _)| {
            e.view("historical").probes.iter().any(|(_, c)| c == "buggy")
                && e.view("ulfm").verdict == "survives"
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
    assert_eq!(entry.view("historical").verdict, "freezes");
    assert!(entry.view("historical").probes.iter().any(|(_, c)| c == "buggy"));
    assert!(entry.view("fixed").probes.iter().all(|(_, c)| c != "buggy"));
}
