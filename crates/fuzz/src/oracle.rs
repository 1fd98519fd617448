//! The differential oracle: every candidate runs through the static model
//! checker *and* the dynamic harness, under both dispatcher variants, and
//! the disagreements/novelties become FZ-coded findings.
//!
//! | code | severity | meaning |
//! |------|----------|---------|
//! | FZ001 | error | soundness gap: a probe froze but the model checker said survives |
//! | FZ002 | error | novel freeze family (not the Fig. 10 pattern, or freezes the fixed dispatcher) |
//! | FZ003 | warning | Fig. 10-family freeze rediscovered (the known defect) |
//! | FZ004 | error | corpus replay drift (a pinned verdict changed) |
//! | FZ007 | warning | a statically reachable freeze no probe seed realized (over-approximation) |
//! | FZ008 | info | backend divergence: the scenario separates protocol backends |
//!
//! The agreement contract is direction-aware. The checker explores *all*
//! abstract schedules, so `freezes` is an over-approximation — a witness
//! the probe seeds never realize (even after escalation) is FZ007, a
//! warning. The converse can never be excused: a concrete frozen run
//! under a `survives` verdict means the abstraction dropped a behaviour,
//! and that is the FZ001 error.

use std::collections::BTreeSet;

use failmpi_analyze::{
    model_check_source, Diagnostic, ModelCheckConfig, ModelSummary, Report, Severity,
    StaticVerdict,
};
use failmpi_backend::BackendKind;
use failmpi_experiments::robustness::outcome_class;
use failmpi_experiments::harness::{self, Observe};
use failmpi_experiments::{smoke_spec_for, tracesink, verdicts_agree, LintMode};
use failmpi_mpichv::DispatcherMode;

use crate::gen::Candidate;

/// Oracle knobs.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// Dynamic seeds each candidate is probed with, per dispatcher mode.
    pub probe_seeds: Vec<u64>,
    /// Model-checker exploration budget per candidate (smaller than the
    /// failck default: mutants with unbounded counters go `unknown`, which
    /// the agreement contract treats as vacuous).
    pub model_budget: usize,
    /// Hard ceiling on the escalation seed ladder: when a static freeze
    /// goes unrealized by the initial probes, extra seeds are probed — as
    /// many as the model checker's witness schedule has steps (longer
    /// abstract schedules need more timing luck to realize concretely) —
    /// but never past this seed, so a mutant with a pathological witness
    /// cannot stall the campaign.
    pub escalate_cap: u64,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            probe_seeds: vec![1, 2],
            model_budget: 20_000,
            escalate_cap: 12,
        }
    }
}

/// One dynamic probe run.
#[derive(Clone, Debug)]
pub struct DynRun {
    /// Experiment seed.
    pub seed: u64,
    /// Classifier outcome class (`completed`/`non-terminating`/`buggy`).
    pub class: &'static str,
    /// Schedule fingerprint of the run.
    pub fingerprint: u64,
}

/// One alternate protocol backend's view of a candidate: the static
/// verdict of its abstract model next to the same probe seeds run through
/// its runtime. The Vcl view lives in the historical/fixed fields of
/// [`Evaluation`]; these rows cover the non-Vcl backends.
#[derive(Clone, Debug)]
pub struct BackendEval {
    /// The protocol backend probed.
    pub backend: BackendKind,
    /// Model-check summary of this backend's abstract model.
    pub summary: ModelSummary,
    /// Dynamic probes through this backend's runtime.
    pub dynamic: Vec<DynRun>,
}

impl BackendEval {
    /// Whether any probe froze under this backend.
    pub fn buggy(&self) -> bool {
        self.dynamic.iter().any(|r| r.class == "buggy")
    }
}

/// Everything both oracles observed about one candidate.
#[derive(Clone, Debug)]
pub struct Evaluation {
    /// Model-check summary under the historical (paper-bug) dispatcher.
    pub static_h: ModelSummary,
    /// Model-check summary under the fixed dispatcher.
    pub static_f: ModelSummary,
    /// Dynamic probes under the historical dispatcher.
    pub dynamic_h: Vec<DynRun>,
    /// Dynamic probes under the fixed dispatcher.
    pub dynamic_f: Vec<DynRun>,
    /// Whether a frozen historical run matches the causal-trace
    /// dispatcher-bug pattern (the Fig. 10 family classifier).
    pub fig10_family: bool,
    /// Causal narration of the first frozen historical run, when any.
    pub narration: Option<String>,
    /// The alternate protocol backends' views (ULFM, replication) — the
    /// differential oracle's third axis next to the dispatcher modes.
    pub backends: Vec<BackendEval>,
}

impl Evaluation {
    /// Whether any historical probe froze.
    pub fn h_buggy(&self) -> bool {
        self.dynamic_h.iter().any(|r| r.class == "buggy")
    }

    /// Whether any fixed-dispatcher probe froze.
    pub fn f_buggy(&self) -> bool {
        self.dynamic_f.iter().any(|r| r.class == "buggy")
    }

    /// Fingerprints of every frozen probe, both modes, sorted.
    pub fn freeze_fingerprints(&self) -> Vec<u64> {
        let mut fps: Vec<u64> = self
            .dynamic_h
            .iter()
            .chain(&self.dynamic_f)
            .filter(|r| r.class == "buggy")
            .map(|r| r.fingerprint)
            .collect();
        fps.sort_unstable();
        fps.dedup();
        fps
    }
}

fn probe(
    cand: &Candidate,
    seed: u64,
    mode: DispatcherMode,
    backend: BackendKind,
) -> Result<DynRun, Report> {
    let params: Vec<(&str, i64)> = cand.params.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    let mut spec = smoke_spec_for(&cand.source, &cand.machine_class, &params, seed, mode)
        .with_backend(backend);
    // The generator already FA-filtered the source; the gate would only
    // re-lint it (and spam stderr once per distinct mutant).
    if let Some(inj) = spec.injection.as_mut() {
        inj.lint = LintMode::Off;
    }
    let record = harness::run(&spec, Observe::default())?.record;
    Ok(DynRun {
        seed,
        class: outcome_class(&record.outcome),
        fingerprint: record.fingerprint,
    })
}

/// The four model checks of one candidate: the Vcl model under both
/// dispatcher modes, then the ULFM and replication models (historical
/// mode). The first half of [`evaluate`], on the calling thread.
#[derive(Debug)]
pub struct Statics {
    historical: ModelSummary,
    fixed: ModelSummary,
    ulfm: ModelSummary,
    replica: ModelSummary,
}

/// Runs the four model checks of `cand`.
pub fn statics(cand: &Candidate, cfg: &FuzzConfig) -> Statics {
    let check = |mode, backend| {
        let mc = ModelCheckConfig {
            backend,
            params: cand.params.clone(),
            mode,
            budget: cfg.model_budget,
            ..ModelCheckConfig::default()
        };
        model_check_source(&cand.source, &mc).summary
    };
    Statics {
        historical: check(DispatcherMode::Historical, BackendKind::Vcl),
        fixed: check(DispatcherMode::Fixed, BackendKind::Vcl),
        ulfm: check(DispatcherMode::Historical, BackendKind::Ulfm),
        replica: check(DispatcherMode::Historical, BackendKind::Replica),
    }
}

/// The base probe seeds of one candidate through every runtime: Vcl under
/// both dispatcher modes, then ULFM and replication (historical mode).
/// The second half of [`evaluate`], on the probe lane.
#[derive(Debug)]
pub struct Probes {
    historical: Vec<DynRun>,
    fixed: Vec<DynRun>,
    ulfm: Vec<DynRun>,
    replica: Vec<DynRun>,
}

/// Runs the base probe seeds of `cand` on every backend. `Err` is the
/// harness's refusal of the first probe it will not run.
pub fn probes(cand: &Candidate, cfg: &FuzzConfig) -> Result<Probes, Report> {
    let base = |mode, backend| {
        cfg.probe_seeds
            .iter()
            .map(|&seed| probe(cand, seed, mode, backend))
            .collect::<Result<Vec<_>, _>>()
    };
    Ok(Probes {
        historical: base(DispatcherMode::Historical, BackendKind::Vcl)?,
        fixed: base(DispatcherMode::Fixed, BackendKind::Vcl)?,
        ulfm: base(DispatcherMode::Historical, BackendKind::Ulfm)?,
        replica: base(DispatcherMode::Historical, BackendKind::Replica)?,
    })
}

/// A statically reachable freeze deserves a fair shot at concrete
/// realization: escalate through additional seeds before the finding
/// stage settles on "unrealized" (FZ007). The ladder's length comes from
/// the witness itself — one extra seed per step of the minimal abstract
/// schedule, clamped by `escalate_cap` — so a shallow freeze gets a short
/// ladder and a deep Fig. 10-shaped one gets the full budget.
/// Deterministic: it depends only on the config and the (deterministic)
/// static summary.
fn escalate(
    cand: &Candidate,
    cfg: &FuzzConfig,
    mode: DispatcherMode,
    summary: &ModelSummary,
    mut runs: Vec<DynRun>,
) -> Result<Vec<DynRun>, Report> {
    if summary.verdict != StaticVerdict::Freezes || runs.iter().any(|r| r.class == "buggy") {
        return Ok(runs);
    }
    // A freeze verdict always carries a witness; fall back to the old flat
    // ladder length if a future change ever drops it.
    let extra = summary.witness.as_ref().map_or(4, |w| w.steps.len());
    let from = runs.iter().map(|r| r.seed).max().unwrap_or(0) + 1;
    let to = (from + extra as u64).saturating_sub(1).min(cfg.escalate_cap);
    for seed in from..=to {
        let run = probe(cand, seed, mode, BackendKind::Vcl)?;
        let hit = run.class == "buggy";
        runs.push(run);
        if hit {
            break;
        }
    }
    Ok(runs)
}

/// Runs both oracles over `cand`. `Err` is the harness's refusal of a
/// candidate that compiles and lints but does not deploy at smoke scale
/// under its parameters.
pub fn evaluate(cand: &Candidate, cfg: &FuzzConfig) -> Result<Evaluation, Report> {
    evaluate_all(std::slice::from_ref(cand), cfg)
        .pop()
        .expect("one evaluation per candidate")
}

/// [`evaluate`] over every candidate, on two lanes: the calling thread
/// runs each candidate's [`statics`] and then [`settle`]s it, while one
/// scoped thread, the probe lane, runs the [`probes`] of every candidate
/// ahead of it and hands them over in candidate order. Every probe is a
/// pure function of (candidate, seed, mode, backend) and the results are
/// folded in candidate order, so the output does not depend on how the
/// lanes interleave.
pub fn evaluate_all(cands: &[Candidate], cfg: &FuzzConfig) -> Vec<Result<Evaluation, Report>> {
    std::thread::scope(|scope| {
        let (tx, rx) = std::sync::mpsc::channel();
        scope.spawn(move || {
            // One result per candidate, a refusal included, so a refused
            // candidate never shifts the ones after it.
            for cand in cands {
                if tx.send(probes(cand, cfg)).is_err() {
                    break;
                }
            }
        });
        cands
            .iter()
            .map(|cand| {
                let statics = statics(cand, cfg);
                let probes = rx.recv().expect("the probe lane sends one result per candidate");
                probes.and_then(|probes| settle(cand, cfg, statics, probes))
            })
            .collect()
    })
}

/// The last step of [`evaluate`]: the escalation ladder, the causal
/// narration of the first frozen historical run, and the assembly. `Err`
/// is the harness's refusal of an escalation or narration run.
pub fn settle(
    cand: &Candidate,
    cfg: &FuzzConfig,
    statics: Statics,
    probes: Probes,
) -> Result<Evaluation, Report> {
    let static_h = statics.historical;
    let static_f = statics.fixed;
    let dynamic_h =
        escalate(cand, cfg, DispatcherMode::Historical, &static_h, probes.historical)?;
    let dynamic_f = escalate(cand, cfg, DispatcherMode::Fixed, &static_f, probes.fixed)?;

    // Classify frozen historical runs against the paper's dispatcher-bug
    // pattern via the causal trace — the family discriminator that keeps
    // expected Fig. 10 rediscoveries out of the error findings.
    let (fig10_family, narration) = match dynamic_h.iter().find(|r| r.class == "buggy") {
        Some(run) => {
            let params: Vec<(&str, i64)> =
                cand.params.iter().map(|(k, v)| (k.as_str(), *v)).collect();
            let mut spec = smoke_spec_for(
                &cand.source,
                &cand.machine_class,
                &params,
                run.seed,
                DispatcherMode::Historical,
            );
            if let Some(inj) = spec.injection.as_mut() {
                inj.lint = LintMode::Off;
            }
            let traced = harness::run(&spec, Observe { causal: true, ..Observe::default() })?;
            let trace = tracesink::trace_file_of(&cand.name, run.seed, &traced);
            let ex = failmpi_trace::explain::explain(&trace);
            (
                ex.dispatcher_bug,
                Some(failmpi_trace::explain::render(&trace)),
            )
        }
        None => (false, None),
    };

    // The non-Vcl backends: one static check of each backend's abstract
    // model plus the base probe seeds through its runtime. No escalation
    // ladder — the backend axis hunts divergence, not realization, and
    // the corpus pins exactly these seeds.
    let backends = vec![
        BackendEval {
            backend: BackendKind::Ulfm,
            summary: statics.ulfm,
            dynamic: probes.ulfm,
        },
        BackendEval {
            backend: BackendKind::Replica,
            summary: statics.replica,
            dynamic: probes.replica,
        },
    ];

    Ok(Evaluation {
        static_h,
        static_f,
        dynamic_h,
        dynamic_f,
        fig10_family,
        narration,
        backends,
    })
}

fn dyn_note(runs: &[DynRun]) -> String {
    runs.iter()
        .map(|r| format!("{}:{}", r.seed, r.class))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Converts an evaluation into FZ diagnostics. `known_freeze_fps` holds
/// the freeze fingerprints already pinned by the corpus: a freeze that
/// replays a known fingerprint is corpus behaviour, not a finding.
pub fn findings_for(ev: &Evaluation, known_freeze_fps: &BTreeSet<u64>) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    for (mode, summary, buggy, runs) in [
        ("historical", &ev.static_h, ev.h_buggy(), &ev.dynamic_h),
        ("fixed", &ev.static_f, ev.f_buggy(), &ev.dynamic_f),
    ] {
        if verdicts_agree(summary.verdict, buggy) {
            continue;
        }
        match summary.verdict {
            // A concrete freeze under a `survives` verdict: the
            // abstraction dropped a behaviour. Never excusable.
            StaticVerdict::Survives => out.push(Diagnostic::new(
                Severity::Error,
                "FZ001",
                0,
                format!(
                    "soundness gap under the {mode} dispatcher: model checker \
                     says survives but the probes saw [{}]",
                    dyn_note(runs)
                ),
                "the abstract Vcl model misses a schedule the simulator \
                 realizes — walk the causal narration of the frozen probe",
            )),
            // A reachable freeze no probe realized, even after the seed
            // escalation: the over-approximate direction, a warning.
            _ => out.push(Diagnostic::new(
                Severity::Warning,
                "FZ007",
                0,
                format!(
                    "statically reachable freeze unrealized under the {mode} \
                     dispatcher: probes [{}] all survive the witness",
                    dyn_note(runs)
                ),
                "the abstract witness schedule may need timing the smoke \
                 spec cannot hit, or the abstraction over-approximates \
                 here; raise --probe-seeds to keep hunting",
            )),
        }
    }

    // Any freeze that concretely survives the dispatcher fix is by
    // construction not the paper's stale-entry defect: a novel bug.
    if ev.f_buggy() {
        out.push(Diagnostic::new(
            Severity::Error,
            "FZ002",
            0,
            format!(
                "freeze survives the fixed dispatcher (static {}, probes [{}])",
                ev.static_f.verdict,
                dyn_note(&ev.dynamic_f)
            ),
            "not the known Fig. 10 stale-entry defect — the repaired \
             recovery protocol itself wedges on this scenario",
        ));
    } else if ev.h_buggy() {
        let fps = ev.freeze_fingerprints();
        let all_known = fps.iter().all(|fp| known_freeze_fps.contains(fp));
        if ev.fig10_family {
            if !all_known {
                out.push(Diagnostic::new(
                    Severity::Warning,
                    "FZ003",
                    0,
                    format!(
                        "fig10-family freeze rediscovered under the historical \
                         dispatcher (probes [{}])",
                        dyn_note(&ev.dynamic_h)
                    ),
                    "the causal trace matches the paper's stale-dispatcher-entry \
                     pattern and the fixed dispatcher survives it — the known \
                     defect, not a new finding",
                ));
            }
        } else {
            out.push(Diagnostic::new(
                Severity::Error,
                "FZ002",
                0,
                format!(
                    "novel freeze family under the historical dispatcher: the \
                     causal trace does not match the stale-entry pattern \
                     (probes [{}])",
                    dyn_note(&ev.dynamic_h)
                ),
                "a freeze with a different root cause than the paper's \
                 dispatcher bug — walk the causal narration",
            ));
        }
    }

    // Backend divergence: the scenario separates the protocol backends'
    // concrete behaviour. Informational — divergence is the differential
    // suite's raw material (a Vcl-only freeze localizes the dispatcher
    // bug; a backend-only freeze exposes that protocol's own failure
    // mode), not a defect in itself.
    for be in &ev.backends {
        if be.buggy() != ev.h_buggy() {
            let (frozen, surviving) = if ev.h_buggy() {
                ("vcl".to_string(), be.backend.name().to_string())
            } else {
                (be.backend.name().to_string(), "vcl".to_string())
            };
            out.push(Diagnostic::new(
                Severity::Info,
                "FZ008",
                0,
                format!(
                    "backend divergence: freezes under {frozen} but survives \
                     under {surviving} (static {}, probes [{}])",
                    be.summary.verdict,
                    dyn_note(&be.dynamic)
                ),
                "the scenario separates the recovery protocols — a vcl-only \
                 freeze localizes the dispatcher bug, a backend-only freeze \
                 is that protocol's own failure mode (see the cross-backend \
                 matrix in failmpi-experiments)",
            ));
        }
    }

    out
}
