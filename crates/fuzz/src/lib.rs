//! # failmpi-fuzz — coverage-guided FAIL-scenario fuzzing
//!
//! The paper found its headline result — the MPICH-Vcl stale-dispatcher-
//! entry freeze (Fig. 10) — by hand-crafting fault campaigns until one
//! wedged the cluster. This crate automates that hunt as a deterministic,
//! seed-driven loop over the repo's whole verification stack:
//!
//! ```text
//!             ┌────────────────────────────────────────────────┐
//!             │  generate (mutate builtins / synthesize)       │
//!             │        │  FA-lint validity filter               │
//!             │        ▼                                        │
//!             │  evaluate: model checker  ×  dynamic harness   │
//!             │    per view: vcl historical, vcl fixed,        │
//!             │              ulfm, replica                     │
//!             │        │                                        │
//!             │        ├─ novel behaviour? ──► corpus           │
//!             │        │   (pins per view)                      │
//!             │        └─ findings (FZ001–FZ008) ──► minimize,  │
//!             │                                     narrate     │
//!             └────────────────────────────────────────────────┘
//! ```
//!
//! The views are one table, [`oracle::VIEWS`]: a (backend, dispatcher)
//! pair per row, each with its role. The two Vcl views run the escalation
//! ladder and are held to the FZ001/FZ007 contract; the ULFM and replica
//! views feed FZ008. Every view is evaluated on the two legs of
//! `failmpi_experiments::crosscheck` (the model check and the smoke
//! probe), and a corpus entry pins every view's verdict and probes.
//!
//! Finding codes (consumed by `failck --findings`):
//!
//! * **FZ001** (error) — static/dynamic verdict disagreement: the FC
//!   abstraction and the simulator answered differently.
//! * **FZ002** (error) — novel freeze family: a freeze that is not the
//!   Fig. 10 stale-entry pattern, or survives the fixed dispatcher.
//! * **FZ003** (warning) — Fig. 10-family rediscovery: expected against
//!   the historical dispatcher; proof the loop can find the paper's bug.
//! * **FZ004** (error) — corpus replay drift: a pinned verdict changed.
//! * **FZ005** (warning) — the delta-debugged minimal reproducer, attached
//!   to the finding it shrinks (the source rides in the help text).
//! * **FZ006** (warning) — the causal-trace narration of a frozen probe
//!   (`failmpi_trace::explain`), attached alongside freeze findings.
//! * **FZ007** (warning) — a statically reachable freeze no probe seed
//!   realized even after escalation — one extra seed per step of the
//!   minimal abstract witness, capped by `escalate_cap` (the abstraction's
//!   over-approximate direction; the converse is the FZ001 error).
//! * **FZ008** (info) — backend divergence: a ULFM or replica view's
//!   probes freeze where the historical Vcl view's survive, or the
//!   reverse.
//!
//! Determinism contract: `failmpi-fuzz --seed S --budget N` twice produces
//! byte-identical corpus and findings JSON — all randomness flows from one
//! [`failmpi_sim::SimRng`], and every output collection is sorted. The
//! oracle runs on two lanes ([`oracle::evaluate_all`]: the model checks on
//! the calling thread, the concrete probes ahead of them on a second one),
//! but results do not depend on lane timing: every probe is a pure
//! function of (candidate, seed, mode, backend), and results fold in
//! candidate order.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod coverage;
pub mod gen;
pub mod minimize;
pub mod oracle;

use failmpi_analyze::Report;
use serde::Serialize;

pub use corpus::{candidate_of, entry_of, load_corpus, replay_entry, write_corpus, CorpusEntry};
pub use coverage::{key_of, Coverage};
pub use gen::{passes_filter, Candidate, Generator};
pub use minimize::minimize;
pub use oracle::{evaluate, evaluate_all, findings_for, Evaluation, FuzzConfig, VIEWS};

/// Raw generation attempts per accepted candidate before the slot is
/// forfeited (keeps a pathological seed from spinning).
const MAX_ATTEMPTS: usize = 16;

/// One fuzzing campaign's knobs.
#[derive(Clone, Debug)]
pub struct FuzzOptions {
    /// Generator seed.
    pub seed: u64,
    /// Candidates to evaluate.
    pub budget: usize,
    /// Oracle configuration.
    pub config: FuzzConfig,
    /// Also delta-debug FZ003 rediscoveries (off by default: error
    /// findings are always minimized, rediscoveries are expected and only
    /// minimized on request — the EXPERIMENTS.md walkthrough).
    pub minimize_family: bool,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        FuzzOptions {
            seed: 1,
            budget: 30,
            config: FuzzConfig::default(),
            minimize_family: false,
        }
    }
}

/// Campaign totals, printed as the run summary.
#[derive(Clone, Debug, Serialize)]
pub struct FuzzSummary {
    /// Generator seed.
    pub seed: u64,
    /// Candidate budget.
    pub budget: usize,
    /// Candidates that passed the validity filter and were evaluated.
    pub candidates: usize,
    /// Behaviourally novel candidates kept in the corpus.
    pub accepted: usize,
    /// Error-severity findings (FZ001/FZ002/FZ004).
    pub errors: usize,
    /// Warning-severity findings (FZ003 rediscoveries).
    pub warnings: usize,
    /// Whether any candidate reproduced the paper's Fig. 10 freeze family
    /// against the historical dispatcher — the loop's acceptance signal.
    pub fig10_family_rediscovered: bool,
}

/// Everything one campaign produced.
#[derive(Debug)]
pub struct FuzzOutcome {
    /// Totals.
    pub summary: FuzzSummary,
    /// Per-candidate finding reports (only candidates with findings).
    pub reports: Vec<Report>,
    /// Accepted corpus entries with their sources, in acceptance order.
    pub corpus: Vec<(CorpusEntry, String)>,
}

/// Runs one campaign.
pub fn run_fuzz(opts: &FuzzOptions) -> FuzzOutcome {
    // The generator reads no evaluation result, so the whole candidate
    // list is drawn first and the probe lane can run ahead over it.
    let mut generator = Generator::new(opts.seed);
    let cands: Vec<Candidate> = (0..opts.budget)
        .filter_map(|_| generator.next_valid(MAX_ATTEMPTS))
        .collect();
    let evaluations = evaluate_all(&cands, &opts.config);

    let mut coverage = Coverage::new();
    let mut reports = Vec::new();
    let mut corpus = Vec::new();
    let mut fig10 = false;
    for (cand, ev) in cands.iter().zip(evaluations) {
        let ev = match ev {
            Ok(ev) => ev,
            // A candidate the harness refuses slipped through the
            // validity filter: its diagnostics are the finding.
            Err(refusal) => {
                reports.push(Report::new(format!("fuzz:{}", cand.name), refusal.diagnostics));
                continue;
            }
        };
        fig10 |= ev.fig10_family;

        let key = key_of(&ev);
        if coverage.observe(&key) {
            corpus.push((entry_of(cand, &ev, &key), cand.source.clone()));
        }

        let mut findings = findings_for(&ev);
        if findings.is_empty() {
            continue;
        }
        let has_errors = findings
            .iter()
            .any(|d| d.severity == failmpi_analyze::Severity::Error);
        if has_errors || opts.minimize_family {
            // Shrink while the finding signature (the sorted FZ code set)
            // survives — each probe re-runs both oracles.
            let signature = |src: &str| {
                let probe = Candidate {
                    source: src.to_string(),
                    ..cand.clone()
                };
                let findings = match evaluate(&probe, &opts.config) {
                    Ok(ev) => findings_for(&ev),
                    Err(refusal) => refusal.diagnostics,
                };
                let mut codes: Vec<&str> = findings.iter().map(|d| d.code).collect();
                codes.sort_unstable();
                codes
            };
            let want = signature(&cand.source);
            let minimized = minimize(&cand.source, |src| signature(src) == want);
            if minimized != cand.source {
                findings.push(failmpi_analyze::Diagnostic::new(
                    failmpi_analyze::Severity::Warning,
                    "FZ005",
                    0,
                    format!(
                        "minimized reproducer ({} -> {} bytes)",
                        cand.source.len(),
                        minimized.len()
                    ),
                    minimized,
                ));
            }
        }
        if let Some(narration) = &ev.narration {
            findings.push(failmpi_analyze::Diagnostic::new(
                failmpi_analyze::Severity::Warning,
                "FZ006",
                0,
                "causal narration of the frozen probe".to_string(),
                narration.clone(),
            ));
        }
        reports.push(Report::new(format!("fuzz:{}", cand.name), findings));
    }

    let errors: usize = reports.iter().map(Report::error_count).sum();
    let warnings: usize = reports.iter().map(Report::warning_count).sum();
    FuzzOutcome {
        summary: FuzzSummary {
            seed: opts.seed,
            budget: opts.budget,
            candidates: cands.len(),
            accepted: corpus.len(),
            errors,
            warnings,
            fig10_family_rediscovered: fig10,
        },
        reports,
        corpus,
    }
}

/// Replays a loaded corpus: every entry re-evaluated against its pins;
/// drift comes back as FZ004 reports.
pub fn run_replay(
    entries: &[(CorpusEntry, String)],
    cfg: &FuzzConfig,
) -> (FuzzSummary, Vec<Report>) {
    let cands: Vec<Candidate> = entries
        .iter()
        .map(|(entry, source)| candidate_of(entry, source))
        .collect();
    let mut reports = Vec::new();
    for ((entry, _), ev) in entries.iter().zip(evaluate_all(&cands, cfg)) {
        let findings = corpus::drift(entry, ev);
        if !findings.is_empty() {
            reports.push(Report::new(format!("fuzz:{}", entry.name), findings));
        }
    }
    let errors: usize = reports.iter().map(Report::error_count).sum();
    let warnings: usize = reports.iter().map(Report::warning_count).sum();
    (
        FuzzSummary {
            seed: 0,
            budget: entries.len(),
            candidates: entries.len(),
            accepted: entries.len(),
            errors,
            warnings,
            fig10_family_rediscovered: false,
        },
        reports,
    )
}
