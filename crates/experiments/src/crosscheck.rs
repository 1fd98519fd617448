//! Static-vs-dynamic crosscheck: for every runnable builtin figure
//! scenario, compare the model checker's pre-run verdict
//! ([`failmpi_analyze::StaticVerdict`]) against what the dynamic
//! simulator's classifier actually observes over a seed sweep.
//!
//! The agreement contract is asymmetric, because the two sides answer
//! different questions — the model checker decides *reachability* of a
//! freeze over all abstract schedules, the classifier observes *one
//! concrete schedule per seed*:
//!
//! * static **freezes** — at least one sweep seed must be classified
//!   [`crate::classify::Outcome::Buggy`] (the witness schedule is
//!   concretely realizable);
//! * static **survives** — no sweep seed may be classified `Buggy` (a
//!   dynamic freeze the model misses would be a soundness hole);
//! * static **unknown** (budget exhausted) — vacuously consistent.
//!
//! [`crate::classify::Outcome::NonTerminating`] agrees with a surviving
//! verdict: livelock (the paper's too-high fault frequency) is not a
//! freeze, statically (FC004, a warning) or dynamically (green vs red
//! bars in the figures).
//!
//! Both dispatcher variants are first-class: the historical mode carries
//! the paper's stale-entry bug, the fixed mode is the repaired reference
//! where any freeze — static or dynamic — is a genuinely unknown protocol
//! bug. The scenario fuzzer (`failmpi-fuzz`) leans on exactly this
//! two-mode contract as its oracle, so both modes are exercised end-to-end
//! here.
//!
//! Every static × dynamic comparison is built from two legs, both owned
//! here and shared with the fuzzer: the static leg [`model_check`] at a
//! [`CheckShape`], and the dynamic leg [`probe`], one smoke run of a
//! (backend, dispatcher) pair.

use failmpi_analyze::{
    model_check_source, ModelCheckConfig, ModelSummary, Report, StaticVerdict,
};
use failmpi_backend::BackendKind;
use failmpi_mpichv::DispatcherMode;
use failmpi_workloads::BtClass;

use crate::figures::{self, DELAY_SRC, FIG10_SRC, FIG5_SRC, FIG7_SRC, FIG8_SRC};
use crate::harness::{run, ExperimentSpec, InjectionSpec, LintMode, Observe};
use crate::robustness::outcome_class;

/// One scenario's static verdict next to its dynamic seed sweep, both
/// under the same backend and dispatcher variant; the dynamic side always
/// runs the smoke deployment of [`smoke_spec_for`].
#[derive(Clone, Debug)]
pub struct CrosscheckRow {
    /// Scenario label (paper figure).
    pub name: &'static str,
    /// Protocol backend both sides ran against.
    pub backend: BackendKind,
    /// Dispatcher variant both sides ran against.
    pub mode: DispatcherMode,
    /// The model checker's pre-run verdict.
    pub static_verdict: StaticVerdict,
    /// Product states the exploration expanded.
    pub explored: usize,
    /// `(seed, outcome class)` per dynamic run.
    pub dynamic: Vec<(u64, &'static str)>,
    /// Whether the two sides satisfy the agreement contract
    /// ([`verdicts_agree`]).
    pub agrees: bool,
}

/// The abstract deployment one crosscheck or matrix pass model-checks
/// under. The three shapes the tables use are its constructors, so the
/// shape decisions live here and not at the call sites.
#[derive(Clone, Copy, Debug)]
pub struct CheckShape {
    /// Protocol backend (both sides of a crosscheck run against it).
    pub backend: BackendKind,
    /// Dispatcher variant (both sides; a Vcl concept).
    pub mode: DispatcherMode,
    /// Abstract MPI ranks.
    pub n_ranks: usize,
    /// Abstract machines; `n_hosts - n_ranks` are spares.
    pub n_hosts: usize,
    /// Symmetry canonicalization + partial-order reduction.
    pub reduce: bool,
    /// Product states to expand before answering `Unknown`.
    pub budget: usize,
}

impl CheckShape {
    /// The checker's default deployment (2-rank Vcl, unreduced) under
    /// `mode` — the static side of the two-mode Vcl table.
    pub fn checker_default(mode: DispatcherMode) -> Self {
        let d = ModelCheckConfig::default();
        CheckShape {
            backend: d.backend,
            mode,
            n_ranks: d.n_ranks,
            n_hosts: d.n_hosts,
            reduce: d.reduce,
            budget: d.budget,
        }
    }

    /// The dynamic side's smoke deployment (4 ranks on 6 machines) under
    /// `backend`'s historical dispatcher. The 4-rank product needs the
    /// orbit quotient to stay definitive inside the default budget (the
    /// 2-rank Vcl crosscheck does not).
    pub fn smoke(backend: BackendKind) -> Self {
        CheckShape {
            backend,
            n_ranks: 4,
            n_hosts: 6,
            reduce: true,
            ..Self::checker_default(DispatcherMode::Historical)
        }
    }

    /// Grid scale: `n_ranks` ranks plus one spare machine, reduced
    /// exploration bounded by `budget`.
    pub fn grid(backend: BackendKind, mode: DispatcherMode, n_ranks: usize, budget: usize) -> Self {
        CheckShape {
            backend,
            mode,
            n_ranks,
            n_hosts: n_ranks + 1,
            reduce: true,
            budget,
        }
    }
}

/// One runnable builtin: `(name, source, machine class, smoke-scale
/// parameter overrides)`.
type BuiltinScenario = (&'static str, &'static str, &'static str, &'static [(&'static str, i64)]);

/// The runnable builtin scenarios. Fig. 4 is a class library with no
/// deployment and is deliberately absent.
const SCENARIOS: &[BuiltinScenario] = &[
    ("fig5_frequency", FIG5_SRC, "ADVnodes", &[("X", 4), ("N", 5)]),
    (
        "fig7_simultaneous",
        FIG7_SRC,
        "ADVnodes",
        &[("X", 2), ("T", 4), ("N", 5)],
    ),
    ("fig8_synchronized", FIG8_SRC, "ADVnodes", &[("T", 2), ("N", 5)]),
    ("fig10_state_sync", FIG10_SRC, "ADVG1", &[("T", 2), ("N", 5)]),
    ("delay_injection", DELAY_SRC, "ADVnodes", &[("D", 1), ("N", 5)]),
];

/// The runnable builtins as `(name, source, machine class, smoke params)`
/// rows — the mutation seed pool of the scenario fuzzer.
pub fn runnable_builtins() -> &'static [BuiltinScenario] {
    SCENARIOS
}

/// The smoke-scale spec the crosscheck (and the scenario fuzzer) runs a
/// scenario under: 4 ranks on 6 machines, class-S BT, miniaturized
/// recovery constants, 90 s virtual timeout.
pub fn smoke_spec_for(
    src: &str,
    machine: &str,
    params: &[(&str, i64)],
    seed: u64,
    mode: DispatcherMode,
) -> ExperimentSpec {
    let mut cluster = figures::cluster_config(4, 6, 2, mode);
    figures::miniaturize(&mut cluster);
    let mut inj = InjectionSpec::new(src, "ADV1", machine);
    for (k, v) in params {
        inj = inj.with_param(k, *v);
    }
    figures::spec(cluster, BtClass::S, Some(inj), 90, seed)
}

/// Whether a static verdict and a dynamic sweep satisfy the asymmetric
/// agreement contract (see the module docs). Shared with the fuzzer's
/// oracle so both sides flag disagreements identically.
pub fn verdicts_agree(static_verdict: StaticVerdict, any_dynamic_buggy: bool) -> bool {
    match static_verdict {
        StaticVerdict::Freezes => any_dynamic_buggy,
        StaticVerdict::Survives => !any_dynamic_buggy,
        StaticVerdict::Unknown | StaticVerdict::NotApplicable => true,
    }
}

/// The static leg: model-checks `src` with the scenario's `params` at
/// `shape`.
pub fn model_check(src: &str, params: &[(&str, i64)], shape: CheckShape) -> ModelSummary {
    let cfg = ModelCheckConfig {
        backend: shape.backend,
        mode: shape.mode,
        n_ranks: shape.n_ranks,
        n_hosts: shape.n_hosts,
        reduce: shape.reduce,
        budget: shape.budget,
        params: params.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        ..ModelCheckConfig::default()
    };
    model_check_source(src, &cfg).summary
}

/// One run of the dynamic leg.
#[derive(Clone, Debug)]
pub struct DynRun {
    /// Experiment seed.
    pub seed: u64,
    /// Classifier outcome class (`completed`/`non-terminating`/`buggy`).
    pub class: &'static str,
    /// Schedule fingerprint of the run.
    pub fingerprint: u64,
}

/// The spec the dynamic leg runs: the smoke deployment of
/// [`smoke_spec_for`] on `backend`, with the lint gate off because the
/// static leg has already analysed the scenario.
pub fn probe_spec(
    src: &str,
    machine: &str,
    params: &[(&str, i64)],
    seed: u64,
    backend: BackendKind,
    mode: DispatcherMode,
) -> ExperimentSpec {
    let mut spec = smoke_spec_for(src, machine, params, seed, mode).with_backend(backend);
    if let Some(inj) = spec.injection.as_mut() {
        inj.lint = LintMode::Off;
    }
    spec
}

/// The dynamic leg: one run of a [`probe_spec`]. `Err` is the harness's
/// refusal of the spec.
pub fn probe(spec: &ExperimentSpec) -> Result<DynRun, Report> {
    let record = run(spec, Observe::default())?.record;
    Ok(DynRun {
        seed: spec.seed,
        class: outcome_class(&record.outcome),
        fingerprint: record.fingerprint,
    })
}

/// Crosschecks one scenario source: its static verdict at `shape` next to
/// `seeds` dynamic runs of the smoke deployment on the same backend and
/// dispatcher variant. `name` only labels the row.
pub fn crosscheck_one(
    name: &'static str,
    src: &str,
    machine: &str,
    params: &[(&str, i64)],
    seeds: &[u64],
    shape: CheckShape,
) -> Result<CrosscheckRow, Report> {
    let st = model_check(src, params, shape);
    let dynamic: Vec<(u64, &'static str)> = seeds
        .iter()
        .map(|&seed| {
            let r = probe(&probe_spec(src, machine, params, seed, shape.backend, shape.mode))?;
            Ok((r.seed, r.class))
        })
        .collect::<Result<_, Report>>()?;
    let any_buggy = dynamic.iter().any(|(_, c)| *c == "buggy");
    Ok(CrosscheckRow {
        name,
        backend: shape.backend,
        mode: shape.mode,
        static_verdict: st.verdict,
        explored: st.explored,
        dynamic,
        agrees: verdicts_agree(st.verdict, any_buggy),
    })
}

/// Crosschecks every runnable builtin over `seeds` dynamic runs at each of
/// `shapes` (scenario-major). [`CheckShape::checker_default`] under both
/// dispatcher variants is the two-mode Vcl table — the fixed mode closes
/// the fuzzer's main oracle blind spot: a freeze there (static or dynamic)
/// is a surviving-protocol bug, not the known Fig. 10 defect.
/// [`CheckShape::smoke`] over every backend is the
/// cross-backend differential matrix, whose interesting rows are the ones
/// where backends *disagree* for protocol reasons — the Fig. 10 dispatcher
/// bug is Vcl-specific (ULFM shrinks past it), random kills freeze ULFM
/// only by eating the whole job, and replication converts any fault on an
/// unprotected primary into an immediate loss.
pub fn crosscheck_builtins(
    seeds: &[u64],
    shapes: &[CheckShape],
) -> Result<Vec<CrosscheckRow>, Report> {
    let mut out = Vec::new();
    for (name, src, machine, params) in SCENARIOS {
        for &shape in shapes {
            out.push(crosscheck_one(name, src, machine, params, seeds, shape)?);
        }
    }
    Ok(out)
}

/// One cell of a paper-scale figure matrix: a builtin figure scenario
/// model-checked at grid scale.
#[derive(Clone, Debug)]
pub struct MatrixRow {
    /// Scenario label (paper figure).
    pub name: &'static str,
    /// Dispatcher variant.
    pub mode: DispatcherMode,
    /// MPI ranks in the abstract deployment.
    pub n_ranks: usize,
    /// The checker's verdict at this scale.
    pub verdict: StaticVerdict,
    /// Canonical states expanded.
    pub explored: usize,
    /// Canonical states interned (explored + frontier, deduplicated).
    pub interned: usize,
    /// Successors merged into an already-interned orbit representative.
    pub orbit_hits: usize,
    /// Commuting deliveries pruned by the ample-set filter.
    pub por_pruned: usize,
    /// Minimal witness cost when the verdict is `Freezes`.
    pub witness_cost: Option<(usize, usize)>,
}

/// Model-checks every runnable builtin at each of `shapes`
/// (scenario-major) — the paper's figure-by-figure verdict matrix when
/// `shapes` are both dispatcher variants of [`CheckShape::grid`] on Vcl,
/// its per-backend analogue under one backend's historical dispatcher
/// (the variant is a Vcl concept). The 25-rank Vcl matrix completes well inside the `failck`
/// default budget.
pub fn figure_matrix(shapes: &[CheckShape]) -> Vec<MatrixRow> {
    let mut out = Vec::new();
    for (name, src, _machine, params) in SCENARIOS {
        for &shape in shapes {
            let r = model_check(src, params, shape);
            out.push(MatrixRow {
                name,
                mode: shape.mode,
                n_ranks: shape.n_ranks,
                verdict: r.verdict,
                explored: r.explored,
                interned: r.interned,
                orbit_hits: r.orbit_hits,
                por_pruned: r.por_pruned,
                witness_cost: r.witness.as_ref().map(|w| (w.faults, w.steps.len())),
            });
        }
    }
    out
}

fn mode_name(mode: DispatcherMode) -> &'static str {
    match mode {
        DispatcherMode::Historical => "historical",
        DispatcherMode::Fixed => "fixed",
    }
}

/// The `seed:class` list of a row, flagged when its two sides disagree.
fn dynamic_column(r: &CrosscheckRow) -> String {
    let dyns: Vec<String> = r.dynamic.iter().map(|(s, c)| format!("{s}:{c}")).collect();
    format!("{}{}", dyns.join(" "), if r.agrees { "" } else { "  [DISAGREES]" })
}

/// Renders cross-backend crosscheck rows as an aligned table keyed by
/// backend (the CI artifact).
pub fn render_backend_matrix(rows: &[CrosscheckRow]) -> String {
    let mut out =
        String::from("scenario              backend  static    explored  dynamic\n");
    for r in rows {
        out.push_str(&format!(
            "{:<21} {:<8} {:<9} {:<9} {}\n",
            r.name,
            r.backend.name(),
            r.static_verdict.to_string(),
            r.explored,
            dynamic_column(r)
        ));
    }
    out
}

/// Renders the figure matrix as an aligned table (the CI artifact).
pub fn render_matrix(rows: &[MatrixRow]) -> String {
    let mut out = String::from(
        "scenario              mode        ranks  verdict   explored  orbit-hits  por-pruned  witness\n",
    );
    for r in rows {
        let witness = match r.witness_cost {
            Some((faults, steps)) => format!("{faults} fault(s) / {steps} step(s)"),
            None => "-".to_string(),
        };
        out.push_str(&format!(
            "{:<21} {:<11} {:<6} {:<9} {:<9} {:<11} {:<11} {}\n",
            r.name,
            mode_name(r.mode),
            r.n_ranks,
            r.verdict.to_string(),
            r.explored,
            r.orbit_hits,
            r.por_pruned,
            witness
        ));
    }
    out
}

/// Renders two-mode crosscheck rows as an aligned table keyed by
/// dispatcher variant (the CI artifact).
pub fn render(rows: &[CrosscheckRow]) -> String {
    let mut out = String::from("scenario              mode        static    dynamic\n");
    for r in rows {
        out.push_str(&format!(
            "{:<21} {:<11} {:<9} {}\n",
            r.name,
            mode_name(r.mode),
            r.static_verdict.to_string(),
            dynamic_column(r)
        ));
    }
    out
}
