//! The oracle's backend axis: evaluating a candidate also runs it through
//! the ULFM and replication models/runtimes, and a concrete divergence
//! from the Vcl view surfaces as the informational FZ008 finding.

use std::path::PathBuf;

use failmpi_fuzz::oracle::Role;
use failmpi_fuzz::{candidate_of, evaluate, findings_for, load_corpus, FuzzConfig, VIEWS};

fn corpus_dir() -> PathBuf {
    // The seed corpus lives with the facade's replay suite; the oracle
    // tests borrow its minimized reproducer as a known-divergent input.
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/fuzz")
}

#[test]
fn fig10_reproducer_diverges_under_ulfm_and_reports_fz008() {
    let entries = load_corpus(&corpus_dir()).expect("seed corpus loads");
    let (entry, source) = entries
        .iter()
        .find(|(e, _)| e.name == "min-fig10-stale-entry")
        .expect("minimized reproducer present");
    let cfg = FuzzConfig {
        probe_seeds: entry.view("historical").probes.iter().map(|(s, _)| *s).collect(),
        ..FuzzConfig::default()
    };
    let ev = evaluate(&candidate_of(entry, source), &cfg).expect("corpus entries run");

    // The dispatcher bug freezes the Vcl probes; both alternate backends
    // are evaluated and at least ULFM completes the same campaign.
    assert!(ev.view("historical").buggy(), "reproducer no longer freezes under Vcl");
    assert_eq!(ev.views.len(), VIEWS.len());
    let alternates: Vec<&str> = ev
        .views
        .iter()
        .filter(|v| v.view.role == Role::Divergence)
        .map(|v| v.view.backend.name())
        .collect();
    assert_eq!(alternates, ["ulfm", "replica"]);
    let ulfm = ev.view("ulfm");
    assert!(!ulfm.buggy(), "reproducer freezes under ULFM too: {ulfm:?}");

    let findings = findings_for(&ev);
    let fz008: Vec<_> = findings.iter().filter(|d| d.code == "FZ008").collect();
    assert!(
        fz008
            .iter()
            .any(|d| d.message.contains("freezes under vcl") && d.message.contains("ulfm")),
        "no FZ008 naming the vcl/ulfm divergence: {findings:?}"
    );
}

#[test]
fn non_divergent_entries_report_no_fz008() {
    // A scenario that behaves the same everywhere (the delay mutants
    // complete under every backend) must not manufacture a divergence.
    let entries = load_corpus(&corpus_dir()).expect("seed corpus loads");
    let (entry, source) = entries
        .iter()
        .find(|(e, _)| e.name.contains("delay_injection"))
        .expect("a delay mutant is pinned");
    let cfg = FuzzConfig {
        probe_seeds: entry.view("historical").probes.iter().map(|(s, _)| *s).collect(),
        ..FuzzConfig::default()
    };
    let ev = evaluate(&candidate_of(entry, source), &cfg).expect("corpus entries run");
    let findings = findings_for(&ev);
    assert!(
        findings.iter().all(|d| d.code != "FZ008"),
        "spurious FZ008 on a uniform scenario: {findings:?}"
    );
}
