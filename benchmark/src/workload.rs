//! The six named workloads and the operations they are made of.
//!
//! A workload is a fixed list of operations built from the run's seed; a
//! *sample* is one pass over that list. The program under test only ever
//! sees the generated specs.

use failmpi_analyze::{model_check_source, BackendKind, ModelCheckConfig};
use failmpi_experiments::figures::{FIG10_SRC, FIG5_SRC, FIG8_SRC};
use failmpi_experiments::robustness::{fault_free_smoke_spec, outcome_class};
use failmpi_experiments::{
    run_one, run_one_traced, smoke_spec_for, ExperimentSpec, InjectionSpec, RunRecord,
};
use failmpi_fuzz::{run_fuzz, FuzzOptions};
use failmpi_mpichv::DispatcherMode;
use failmpi_workloads::BtClass;

use crate::spans::Spans;

/// Seed of the pinned reference run (`expected/<workload>.json`).
pub const DEFAULT_SEED: u64 = 0xFA11;

/// Generator seeds of the `fuzz_campaign` campaigns. A campaign's cost is
/// heavy-tailed in every seed it takes: over generator seeds 1–30 a
/// budget-48 campaign takes 0.9–8.3 s, because a few mutants exhaust the
/// model checker's budget, and moving the oracle's probe seeds with the
/// run's seed turned a 1.1 s pass into a 6.7 s one on two seeds of twenty,
/// where a probe raised an error finding and woke the delta-debugging
/// minimiser. So the run's seed does not reach this workload: it runs the
/// campaigns of `failmpi-fuzz --seed 14 --budget 32` and `--seed 9
/// --budget 32`, default oracle, whose candidates are all decided within
/// the model checker's budget and raise no error finding.
const FUZZ_GENERATOR_SEEDS: [u64; 2] = [14, 9];
/// Candidates per campaign.
const FUZZ_BUDGET: usize = 32;

/// One unit of work: one `run_one`, one `model_check_source`, one campaign
/// or one fully instrumented run.
pub enum Op {
    /// A plain harness run.
    Sim {
        /// Spec label, as printed in mismatch reports.
        label: String,
        /// The generated spec.
        spec: ExperimentSpec,
    },
    /// A run with every telemetry sink armed and serialised.
    Telemetry {
        /// Spec label.
        label: String,
        /// The generated spec.
        spec: ExperimentSpec,
    },
    /// One static exploration.
    ModelCheck {
        /// Component label.
        label: &'static str,
        /// FAIL source.
        src: &'static str,
        /// Exploration configuration.
        cfg: ModelCheckConfig,
    },
    /// One fuzzing campaign.
    Fuzz {
        /// Campaign label.
        label: String,
        /// Campaign options.
        opts: FuzzOptions,
    },
}

/// What one operation produced.
pub struct OpResult {
    /// Work units done (engine events, explored states, candidates).
    pub work: u64,
    /// Everything that must repeat exactly, as one line.
    pub pin: String,
    /// A defect visible in this result alone (a fault-free run that did not
    /// complete, a record whose two event counts disagree).
    pub defect: Option<String>,
}

fn sim_result(record: &RunRecord, fault_free: bool, extra: &str) -> OpResult {
    let class = outcome_class(&record.outcome);
    let counted = record.metrics.counter("sim.events_handled");
    let defect = if fault_free && class != "completed" {
        Some(format!("fault-free run ended {class}"))
    } else if counted != record.events {
        Some(format!(
            "record says {} events, its metrics snapshot {counted}",
            record.events
        ))
    } else {
        None
    };
    OpResult {
        work: record.events,
        pin: format!(
            "fp={:#018x} events={} class={class} end_us={}{extra}",
            record.fingerprint,
            record.events,
            record.end.as_micros()
        ),
        defect,
    }
}

impl Op {
    /// The label mismatch reports name the operation by.
    pub fn label(&self) -> &str {
        match self {
            Op::Sim { label, .. } | Op::Telemetry { label, .. } | Op::Fuzz { label, .. } => label,
            Op::ModelCheck { label, .. } => label,
        }
    }

    /// Whether the result is the same under every seed, so that the
    /// default-seed pins apply to any run.
    pub fn seedless(&self) -> bool {
        matches!(self, Op::ModelCheck { .. } | Op::Fuzz { .. })
    }

    /// Executes the operation, one span per call into a layer.
    pub fn run(&self, spans: &mut Spans) -> OpResult {
        match self {
            Op::Sim { spec, .. } => {
                let (record, _) = spans.time("experiments.run_one", |_| run_one(spec));
                sim_result(&record, spec.injection.is_none(), "")
            }
            Op::Telemetry { spec, .. } => {
                let (out, _) = spans.time("experiments.telemetry_run", |sp| {
                    sp.time("obs.prof_start_run", |_| {
                        failmpi_obs::prof::start_run(spec.backend.name())
                    });
                    let (traced, _) =
                        sp.time("experiments.run_one_traced", |_| run_one_traced(spec));
                    let (profile, _) =
                        sp.time("obs.prof_finish_run", |_| failmpi_obs::prof::finish_run());
                    let (metrics_json, _) =
                        sp.time("obs.metrics_to_json", |_| traced.record.metrics.to_json());
                    let (profile_json, _) = sp.time("obs.profile_to_pretty_json", |_| {
                        profile.map(|p| p.to_pretty_json()).unwrap_or_default()
                    });
                    std::hint::black_box((&metrics_json, &profile_json));
                    (traced.record, traced.causal.len())
                });
                let (record, causal_nodes) = out;
                let mut r = sim_result(
                    &record,
                    spec.injection.is_none(),
                    &format!(" causal_nodes={causal_nodes}"),
                );
                if r.defect.is_none() && causal_nodes as u64 != record.events {
                    r.defect = Some(format!(
                        "{causal_nodes} causal nodes for {} handled events",
                        record.events
                    ));
                }
                r
            }
            Op::ModelCheck { src, cfg, .. } => {
                let (r, _) = spans.time("analyze.model_check_source", |_| {
                    model_check_source(src, cfg)
                });
                let s = r.summary;
                OpResult {
                    work: s.explored as u64,
                    pin: format!(
                        "verdict={} explored={} interned={} digest={:#018x} witness_steps={}",
                        s.verdict,
                        s.explored,
                        s.interned,
                        s.state_digest,
                        s.witness.map_or(0, |w| w.steps.len())
                    ),
                    defect: None,
                }
            }
            Op::Fuzz { opts, .. } => {
                let (outcome, _) = spans.time("fuzz.run_fuzz", |_| run_fuzz(opts));
                let s = outcome.summary;
                OpResult {
                    work: s.candidates as u64,
                    pin: serde_json::to_string(&s).expect("summary serializes"),
                    defect: None,
                }
            }
        }
    }
}

/// A named workload.
pub struct Workload {
    /// Name later issues refer to.
    pub name: &'static str,
    /// What `work_per_s` counts on this workload.
    pub work_unit: &'static str,
    /// Why the workload exists.
    pub why: &'static str,
    build: fn(u64) -> Vec<Op>,
    traced_only: fn(u64) -> Vec<Op>,
}

impl Workload {
    /// The workload's operations for `seed`.
    pub fn ops(&self, seed: u64) -> Vec<Op> {
        (self.build)(seed)
    }

    /// Operations too long for a timed pass, which the traced pass runs
    /// once for their per-layer numbers.
    pub fn traced_only_ops(&self, seed: u64) -> Vec<Op> {
        (self.traced_only)(seed)
    }
}

fn none(_seed: u64) -> Vec<Op> {
    Vec::new()
}

/// The paper's Fig. 5 deployment: BT class B, 49 ranks on 53 machines,
/// historical dispatcher, one fault every `x` seconds.
fn fig5_spec(x: i64, seed: u64) -> ExperimentSpec {
    let mut spec = ExperimentSpec::fault_free(49, BtClass::B, seed);
    spec.cluster.n_compute_hosts = 53;
    spec.injection = Some(
        InjectionSpec::new(FIG5_SRC, "ADV1", "ADVnodes")
            .with_param("X", x)
            .with_param("N", 52),
    );
    spec
}

fn vcl_fault_sweep(seed: u64) -> Vec<Op> {
    [65i64, 50, 40]
        .into_iter()
        .zip(1u64..)
        .map(|(x, k)| Op::Sim {
            label: format!("vcl n49 fig5 X={x}"),
            spec: fig5_spec(x, seed.wrapping_add(1000 * k)),
        })
        .collect()
}

fn vcl_scale_ladder(seed: u64) -> Vec<Op> {
    [25u32, 64, 100, 144, 196]
        .into_iter()
        .map(|n| Op::Sim {
            label: format!("vcl n{n} fault-free"),
            spec: ExperimentSpec::fault_free(n, BtClass::B, seed.wrapping_add(u64::from(n))),
        })
        .collect()
}

fn light_backend_mix(seed: u64) -> Vec<Op> {
    let mut ops = Vec::new();
    for backend in [BackendKind::Ulfm, BackendKind::Replica] {
        for n in [49u32, 100, 196] {
            for faulty in [false, true] {
                for k in 0..8u64 {
                    let mut spec = ExperimentSpec::fault_free(n, BtClass::B, seed.wrapping_add(k));
                    if faulty {
                        spec.injection = Some(
                            InjectionSpec::new(FIG5_SRC, "ADV1", "ADVnodes")
                                .with_param("X", 50)
                                .with_param("N", i64::from(n) + 3),
                        );
                    }
                    ops.push(Op::Sim {
                        label: format!(
                            "{} n{n} {} #{k}",
                            backend.name(),
                            if faulty { "fig5 X=50" } else { "fault-free" }
                        ),
                        spec: spec.with_backend(backend),
                    });
                }
            }
        }
    }
    ops
}

/// One `T=2, N=5` exploration on `n_ranks + 1` machines, single-threaded.
/// Reduced explorations start from a seed-permuted deployment: symmetry
/// canonicalisation makes every count and the digest independent of it.
fn mc_op(
    label: &'static str,
    src: &'static str,
    backend: BackendKind,
    n_ranks: usize,
    reduce: bool,
    seed: u64,
) -> Op {
    Op::ModelCheck {
        label,
        src,
        cfg: ModelCheckConfig {
            backend,
            n_ranks,
            n_hosts: n_ranks + 1,
            params: vec![("T".to_string(), 2), ("N".to_string(), 5)],
            reduce,
            threads: 1,
            permute_seed: reduce.then_some(seed),
            ..ModelCheckConfig::default()
        },
    }
}

fn model_check_grid25(seed: u64) -> Vec<Op> {
    vec![
        mc_op("vcl9", FIG10_SRC, BackendKind::Vcl, 9, true, seed),
        mc_op("vcl16", FIG10_SRC, BackendKind::Vcl, 16, true, seed),
        mc_op("fig8_vcl25", FIG8_SRC, BackendKind::Vcl, 25, true, seed),
        mc_op("vcl4_full", FIG10_SRC, BackendKind::Vcl, 4, false, seed),
        mc_op("ulfm25", FIG10_SRC, BackendKind::Ulfm, 25, true, seed),
        mc_op("replica9", FIG10_SRC, BackendKind::Replica, 9, true, seed),
    ]
}

/// The 25-rank Fig. 10 grid (~21 k states, ~3 s): too long for a timed
/// pass, so only the traced pass explores it.
fn mc_vcl25(seed: u64) -> Vec<Op> {
    vec![mc_op("vcl25", FIG10_SRC, BackendKind::Vcl, 25, true, seed)]
}

fn fuzz_op(generator_seed: u64, budget: usize) -> Op {
    Op::Fuzz {
        label: format!("campaign gen={generator_seed} budget={budget}"),
        opts: FuzzOptions {
            seed: generator_seed,
            budget,
            ..FuzzOptions::default()
        },
    }
}

fn fuzz_campaign(_seed: u64) -> Vec<Op> {
    FUZZ_GENERATOR_SEEDS
        .into_iter()
        .map(|g| fuzz_op(g, FUZZ_BUDGET))
        .collect()
}

fn telemetry_on(seed: u64) -> Vec<Op> {
    (0..2u64)
        .map(|k| Op::Telemetry {
            label: format!("vcl n49 fig5 X=50 #{k} instrumented"),
            spec: fig5_spec(50, seed.wrapping_add(2000 + k)),
        })
        .collect()
}

/// A miniature with one operation of every kind (class S, 4 and 9 ranks),
/// for the test suite; not listed in `BENCHMARK.json`.
fn quick(seed: u64) -> Vec<Op> {
    let smoke = fault_free_smoke_spec(seed);
    vec![
        Op::Sim {
            label: "vcl n4 S fault-free".to_string(),
            spec: smoke.clone(),
        },
        Op::Sim {
            label: "vcl n9 S fault-free".to_string(),
            spec: ExperimentSpec::fault_free(9, BtClass::S, seed),
        },
        Op::Sim {
            label: "vcl n4 S fig5 X=4".to_string(),
            spec: smoke_spec_for(
                FIG5_SRC,
                "ADVnodes",
                &[("X", 4), ("N", 5)],
                seed,
                DispatcherMode::Historical,
            ),
        },
        Op::Sim {
            label: "ulfm n4 S fault-free".to_string(),
            spec: smoke.clone().with_backend(BackendKind::Ulfm),
        },
        mc_op("vcl4", FIG10_SRC, BackendKind::Vcl, 4, true, seed),
        fuzz_op(FUZZ_GENERATOR_SEEDS[0], 2),
        Op::Telemetry {
            label: "vcl n4 S fault-free instrumented".to_string(),
            spec: smoke,
        },
    ]
}

/// Name of the miniature workload.
pub const QUICK: &str = "quick";

static WORKLOADS: [Workload; 7] = [
    Workload {
        name: "vcl_fault_sweep",
        work_unit: "events",
        why: "Fig. 5 shape at paper scale: recovery, the FAIL runtime and checkpoint traffic all work on top of the message path",
        build: vcl_fault_sweep,
        traced_only: none,
    },
    Workload {
        name: "vcl_scale_ladder",
        work_unit: "events",
        why: "same message path, no recovery or FAIL work, queue deepening from 25 to 196 ranks; a recovery-path change must not move it",
        build: vcl_scale_ladder,
        traced_only: none,
    },
    Workload {
        name: "light_backend_mix",
        work_unit: "events",
        why: "96 short ulfm and replica runs, so per-run set-up (program generation, FAIL compile, classify) dominates instead of the event loop",
        build: light_backend_mix,
        traced_only: none,
    },
    Workload {
        name: "model_check_grid25",
        work_unit: "states",
        why: "the model checker from 4 to 25 ranks, reduced and unreduced, on all three backends; the simulator does nothing here",
        build: model_check_grid25,
        traced_only: mc_vcl25,
    },
    Workload {
        name: "fuzz_campaign",
        work_unit: "candidates",
        why: "two fixed campaigns of tiny generate, compile, lint, 4-rank model-check and smoke-run cycles; core and the analyze lints do most of the work",
        build: fuzz_campaign,
        traced_only: none,
    },
    Workload {
        name: "telemetry_on",
        work_unit: "events",
        why: "the Fig. 5 runs with causal tracing, deep profiling and both JSON writers armed: the instrumented path a fast-path change can slow",
        build: telemetry_on,
        traced_only: none,
    },
    Workload {
        name: QUICK,
        work_unit: "ops",
        why: "miniature with one operation of every kind, for the test suite",
        build: quick,
        traced_only: none,
    },
];

/// The workloads listed in `BENCHMARK.json`, in order.
pub fn listed() -> &'static [Workload] {
    &WORKLOADS[..6]
}

/// Looks a workload up by name (the miniature included).
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
