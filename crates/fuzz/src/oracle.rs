//! The differential oracle: every candidate runs through the static model
//! checker *and* the dynamic harness under every (backend, dispatcher)
//! view of [`VIEWS`], on the two legs `failmpi_experiments::crosscheck`
//! owns, and the disagreements/novelties become FZ-coded findings.
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

use failmpi_analyze::{Diagnostic, ModelSummary, Report, Severity, StaticVerdict};
use failmpi_backend::BackendKind;
use failmpi_experiments::crosscheck::{self, CheckShape, DynRun};
use failmpi_experiments::harness::{self, ExperimentSpec, Observe};
use failmpi_experiments::{tracesink, verdicts_agree};
use failmpi_mpichv::DispatcherMode;

use crate::gen::Candidate;

/// Oracle knobs.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// Dynamic seeds each candidate is probed with, per view.
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

/// What the oracle holds a view to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// A Vcl dispatcher variant: an unrealized static freeze runs the
    /// escalation ladder, and the view is held to the FZ001/FZ007
    /// agreement contract.
    Contract,
    /// Another protocol backend: its base probes are compared with the
    /// historical view's (FZ008).
    Divergence,
}

/// One (backend, dispatcher) pair every candidate is evaluated under: a
/// model check of the backend's abstract model next to the probe seeds
/// run through its runtime.
#[derive(Clone, Copy, Debug)]
pub struct View {
    /// The view's name in findings, and in its two corpus manifest fields
    /// `static_<name>` and `dynamic_<name>`.
    pub name: &'static str,
    /// Protocol backend.
    pub backend: BackendKind,
    /// Dispatcher variant (a Vcl concept; the other backends run the
    /// historical default).
    pub mode: DispatcherMode,
    /// What the findings hold the view to.
    pub role: Role,
}

/// Every view, in evaluation, findings and manifest order. A new backend
/// is one row here plus its two manifest fields.
pub const VIEWS: [View; 4] = [
    View::new("historical", BackendKind::Vcl, DispatcherMode::Historical, Role::Contract),
    View::new("fixed", BackendKind::Vcl, DispatcherMode::Fixed, Role::Contract),
    View::new("ulfm", BackendKind::Ulfm, DispatcherMode::Historical, Role::Divergence),
    View::new("replica", BackendKind::Replica, DispatcherMode::Historical, Role::Divergence),
];

impl View {
    const fn new(
        name: &'static str,
        backend: BackendKind,
        mode: DispatcherMode,
        role: Role,
    ) -> View {
        View { name, backend, mode, role }
    }
}

/// One view's observations of a candidate.
#[derive(Clone, Debug)]
pub struct ViewEval {
    /// The [`VIEWS`] row.
    pub view: View,
    /// Model-check summary of the view's abstract model.
    pub summary: ModelSummary,
    /// Dynamic probes: the base seeds, then a contract view's escalation
    /// ladder.
    pub dynamic: Vec<DynRun>,
}

impl ViewEval {
    /// Whether any probe froze under this view.
    pub fn buggy(&self) -> bool {
        self.dynamic.iter().any(|r| r.class == "buggy")
    }
}

/// Everything both oracles observed about one candidate.
#[derive(Clone, Debug)]
pub struct Evaluation {
    /// One entry per [`VIEWS`] row, in table order.
    pub views: Vec<ViewEval>,
    /// Whether a frozen historical run matches the causal-trace
    /// dispatcher-bug pattern (the Fig. 10 family classifier).
    pub fig10_family: bool,
    /// Causal narration of the first frozen historical run, when any.
    pub narration: Option<String>,
}

impl Evaluation {
    /// The view named `name`. Panics on a name not in [`VIEWS`].
    pub fn view(&self, name: &str) -> &ViewEval {
        self.views
            .iter()
            .find(|v| v.view.name == name)
            .unwrap_or_else(|| panic!("no view named {name}"))
    }

    /// The views held to the agreement contract.
    pub fn contract(&self) -> impl Iterator<Item = &ViewEval> {
        self.views.iter().filter(|v| v.view.role == Role::Contract)
    }
}

fn params(cand: &Candidate) -> Vec<(&str, i64)> {
    cand.params.iter().map(|(k, v)| (k.as_str(), *v)).collect()
}

/// The dynamic leg's spec of `cand` under `view`.
fn spec(cand: &Candidate, view: &View, seed: u64) -> ExperimentSpec {
    let (src, machine) = (&cand.source, &cand.machine_class);
    crosscheck::probe_spec(src, machine, &params(cand), seed, view.backend, view.mode)
}

/// The model check of `cand` under every view, in table order. The first
/// half of [`evaluate`], on the calling thread.
pub fn statics(cand: &Candidate, cfg: &FuzzConfig) -> Vec<ModelSummary> {
    let params = params(cand);
    VIEWS
        .iter()
        .map(|view| {
            let shape = CheckShape {
                backend: view.backend,
                budget: cfg.model_budget,
                ..CheckShape::checker_default(view.mode)
            };
            crosscheck::model_check(&cand.source, &params, shape)
        })
        .collect()
}

/// The base probe seeds of `cand` under every view, in table order. The
/// second half of [`evaluate`], on the probe lane. `Err` is the harness's
/// refusal of the first probe it will not run.
pub fn probes(cand: &Candidate, cfg: &FuzzConfig) -> Result<Vec<Vec<DynRun>>, Report> {
    VIEWS
        .iter()
        .map(|view| {
            cfg.probe_seeds
                .iter()
                .map(|&seed| crosscheck::probe(&spec(cand, view, seed)))
                .collect()
        })
        .collect()
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
    view: &View,
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
        let run = crosscheck::probe(&spec(cand, view, seed))?;
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

/// The last step of [`evaluate`]: the escalation ladder of each contract
/// view, the causal narration of the first frozen historical run, and the
/// assembly. `statics` and `probes` are in [`VIEWS`] order. `Err` is the
/// harness's refusal of an escalation or narration run.
pub fn settle(
    cand: &Candidate,
    cfg: &FuzzConfig,
    statics: Vec<ModelSummary>,
    probes: Vec<Vec<DynRun>>,
) -> Result<Evaluation, Report> {
    // The other backends run no escalation ladder: they hunt divergence,
    // not realization, and the corpus pins exactly their base seeds.
    let views = VIEWS
        .iter()
        .zip(statics)
        .zip(probes)
        .map(|((&view, summary), base)| {
            let dynamic = match view.role {
                Role::Contract => escalate(cand, cfg, &view, &summary, base)?,
                Role::Divergence => base,
            };
            Ok(ViewEval { view, summary, dynamic })
        })
        .collect::<Result<_, Report>>()?;
    let mut ev = Evaluation {
        views,
        fig10_family: false,
        narration: None,
    };

    // Classify frozen historical runs against the paper's dispatcher-bug
    // pattern via the causal trace — the family discriminator that keeps
    // expected Fig. 10 rediscoveries out of the error findings.
    let historical = ev.view("historical");
    if let Some(run) = historical.dynamic.iter().find(|r| r.class == "buggy") {
        let spec = spec(cand, &historical.view, run.seed);
        let traced = harness::run(&spec, Observe { causal: true, ..Observe::default() })?;
        let trace = tracesink::trace_file_of(&cand.name, run.seed, &traced);
        ev.fig10_family = failmpi_trace::explain::explain(&trace).dispatcher_bug;
        ev.narration = Some(failmpi_trace::explain::render(&trace));
    }
    Ok(ev)
}

fn dyn_note(runs: &[DynRun]) -> String {
    runs.iter()
        .map(|r| format!("{}:{}", r.seed, r.class))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Converts an evaluation into FZ diagnostics.
pub fn findings_for(ev: &Evaluation) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    for v in ev.contract() {
        let (mode, runs) = (v.view.name, &v.dynamic);
        if verdicts_agree(v.summary.verdict, v.buggy()) {
            continue;
        }
        match v.summary.verdict {
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
    let (historical, fixed) = (ev.view("historical"), ev.view("fixed"));
    if fixed.buggy() {
        out.push(Diagnostic::new(
            Severity::Error,
            "FZ002",
            0,
            format!(
                "freeze survives the fixed dispatcher (static {}, probes [{}])",
                fixed.summary.verdict,
                dyn_note(&fixed.dynamic)
            ),
            "not the known Fig. 10 stale-entry defect — the repaired \
             recovery protocol itself wedges on this scenario",
        ));
    } else if historical.buggy() {
        if ev.fig10_family {
            out.push(Diagnostic::new(
                Severity::Warning,
                "FZ003",
                0,
                format!(
                    "fig10-family freeze rediscovered under the historical \
                     dispatcher (probes [{}])",
                    dyn_note(&historical.dynamic)
                ),
                "the causal trace matches the paper's stale-dispatcher-entry \
                 pattern and the fixed dispatcher survives it — the known \
                 defect, not a new finding",
            ));
        } else {
            out.push(Diagnostic::new(
                Severity::Error,
                "FZ002",
                0,
                format!(
                    "novel freeze family under the historical dispatcher: the \
                     causal trace does not match the stale-entry pattern \
                     (probes [{}])",
                    dyn_note(&historical.dynamic)
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
    for v in ev.views.iter().filter(|v| v.view.role == Role::Divergence) {
        if v.buggy() != historical.buggy() {
            let (frozen, surviving) = if historical.buggy() {
                (historical, v)
            } else {
                (v, historical)
            };
            out.push(Diagnostic::new(
                Severity::Info,
                "FZ008",
                0,
                format!(
                    "backend divergence: freezes under {} but survives \
                     under {} (static {}, probes [{}])",
                    frozen.view.backend.name(),
                    surviving.view.backend.name(),
                    v.summary.verdict,
                    dyn_note(&v.dynamic)
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
