//! The oracle's two lanes: `evaluate_all` runs the concrete probes on a
//! second thread, ahead of the model checks, and must reproduce the serial
//! evaluation exactly — every campaign output, and a refusal in the middle
//! of a candidate list without shifting the candidates after it.

use std::path::PathBuf;

use failmpi_analyze::{Diagnostic, Report, Severity};
use failmpi_fuzz::oracle::{probes, settle, statics};
use failmpi_fuzz::{
    candidate_of, entry_of, evaluate, evaluate_all, findings_for, key_of, load_corpus, run_fuzz,
    Candidate, Coverage, CorpusEntry, Evaluation, FuzzConfig, FuzzOptions, Generator,
};

/// Raw generation attempts per candidate (`run_fuzz`'s own limit).
const MAX_ATTEMPTS: usize = 16;

/// One candidate through the oracle with no second lane: model checks,
/// probes and settlement one after the other.
fn evaluate_inline(cand: &Candidate, cfg: &FuzzConfig) -> Result<Evaluation, Report> {
    let statics = statics(cand, cfg);
    probes(cand, cfg).and_then(|probes| settle(cand, cfg, statics, probes))
}

/// What a campaign leaves behind, as the bytes its readers see: the
/// summary JSON, the corpus entries with their sources, and the reports
/// rendered both ways.
fn outputs(
    summary: &impl serde::Serialize,
    corpus: &[(CorpusEntry, String)],
    reports: &[Report],
) -> [String; 4] {
    let entries: Vec<&CorpusEntry> = corpus.iter().map(|(e, _)| e).collect();
    let sources: String = corpus.iter().map(|(_, s)| s.as_str()).collect();
    [
        serde_json::to_string_pretty(summary).expect("summary serializes"),
        serde_json::to_string_pretty(&entries).expect("entries serialize") + &sources,
        serde_json::to_string_pretty(&reports.to_vec()).expect("reports serialize"),
        reports.iter().map(Report::render_human).collect(),
    ]
}

/// `run_fuzz`'s fold over candidates evaluated inline. The campaigns below
/// raise no error finding, so it has no minimisation step; the test
/// asserts that they do not.
fn run_fuzz_inline(opts: &FuzzOptions) -> [String; 4] {
    let mut generator = Generator::new(opts.seed);
    let mut coverage = Coverage::new();
    let mut reports = Vec::new();
    let mut corpus = Vec::new();
    let mut candidates = 0;
    let mut fig10 = false;
    for _ in 0..opts.budget {
        let Some(cand) = generator.next_valid(MAX_ATTEMPTS) else {
            continue;
        };
        candidates += 1;
        let ev = match evaluate_inline(&cand, &opts.config) {
            Ok(ev) => ev,
            Err(refusal) => {
                reports.push(Report::new(format!("fuzz:{}", cand.name), refusal.diagnostics));
                continue;
            }
        };
        fig10 |= ev.fig10_family;
        let key = key_of(&ev);
        if coverage.observe(&key) {
            corpus.push((entry_of(&cand, &ev, &key), cand.source.clone()));
        }
        let mut findings = findings_for(&ev);
        if findings.is_empty() {
            continue;
        }
        if let Some(narration) = &ev.narration {
            findings.push(Diagnostic::new(
                Severity::Warning,
                "FZ006",
                0,
                "causal narration of the frozen probe".to_string(),
                narration.clone(),
            ));
        }
        reports.push(Report::new(format!("fuzz:{}", cand.name), findings));
    }
    let summary = failmpi_fuzz::FuzzSummary {
        seed: opts.seed,
        budget: opts.budget,
        candidates,
        accepted: corpus.len(),
        errors: reports.iter().map(Report::error_count).sum(),
        warnings: reports.iter().map(Report::warning_count).sum(),
        fig10_family_rediscovered: fig10,
    };
    outputs(&summary, &corpus, &reports)
}

#[test]
fn campaigns_on_two_lanes_equal_the_inline_fold() {
    for seed in [1, 9, 14] {
        let opts = FuzzOptions {
            seed,
            ..FuzzOptions::default()
        };
        let lanes = run_fuzz(&opts);
        assert_eq!(lanes.summary.errors, 0, "seed {seed}: the inline fold does not minimise");
        let lanes = outputs(&lanes.summary, &lanes.corpus, &lanes.reports);
        let inline = run_fuzz_inline(&opts);
        for (what, (a, b)) in ["summary", "corpus", "findings", "rendered reports"]
            .iter()
            .zip(lanes.iter().zip(&inline))
        {
            assert_eq!(a, b, "seed {seed}: the {what} differ");
        }
    }
}

#[test]
fn a_refused_candidate_keeps_its_place_in_the_lane() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/fuzz");
    let entries = load_corpus(&dir).expect("seed corpus loads");
    let candidate = |name: &str| {
        let (entry, source) = entries
            .iter()
            .find(|(e, _)| e.name == name)
            .expect("entry present");
        candidate_of(entry, source)
    };
    // A daemon class the scenario does not declare: it compiles, but the
    // harness will not deploy it.
    let refused = Candidate {
        machine_class: "NoSuchClass".to_string(),
        ..candidate("c003-mut-fig5_frequency")
    };
    let cands = [
        candidate("min-fig10-stale-entry"),
        refused,
        candidate("c003-mut-fig5_frequency"),
    ];
    let cfg = FuzzConfig::default();

    let together = evaluate_all(&cands, &cfg);
    let one_by_one: Vec<_> = cands.iter().map(|c| evaluate(c, &cfg)).collect();
    let shape: Vec<bool> = together.iter().map(Result::is_ok).collect();
    assert_eq!(shape, [true, false, true]);
    for ((cand, a), b) in cands.iter().zip(&together).zip(&one_by_one) {
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "{}", cand.name);
    }
}
