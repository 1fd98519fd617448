//! Figure-by-figure experiment drivers.
//!
//! Every submodule regenerates one figure of the paper's evaluation: a
//! `Config` (with `paper()` fidelity matching Sec. 5's parameters and a
//! `smoke()` miniature for tests/benches), a `run` function sweeping the
//! experiment grid in parallel, and a `render` function printing the same
//! series the paper plots.

pub mod ablation;
pub mod delay;
pub mod fig11;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig9;
pub mod lbh04;

use failmpi_analyze::Report;
use failmpi_backend::BackendKind;
use failmpi_sim::{SimDuration, SimTime};
use failmpi_mpichv::{DispatcherMode, VclConfig};
use failmpi_workloads::BtClass;
use serde::Serialize;

use crate::cli::Options;
use crate::harness::{ExperimentSpec, InjectionSpec, LintMode};
use crate::stats::PointSummary;
use crate::sweep::{run_all, seeded};

/// What every figure's `Config` shares: the run scale (paper or smoke) and
/// what the `--runs/--threads/--backend/--lint/--expect-freeze` flags
/// choose. Every run of a sweep gets its backend, lint mode and freeze
/// expectation from here — there is no process-wide default.
#[derive(Clone, Debug)]
pub struct Common {
    /// Workload class.
    pub class: BtClass,
    /// Checkpoint wave period, seconds.
    pub wave_secs: u64,
    /// Experiment timeout, seconds.
    pub timeout_s: u64,
    /// Scale the recovery constants down for seconds-scale runs.
    pub miniature: bool,
    /// Runs per point.
    pub runs: usize,
    /// Worker threads (0 = all cores).
    pub threads: usize,
    /// Base seed.
    pub base_seed: u64,
    /// Protocol backend under test.
    pub backend: BackendKind,
    /// Scenario lint gate.
    pub lint: LintMode,
    /// The sweep hunts freezes: the strict lint gate runs scenarios the
    /// model checker statically classifies as freezing.
    pub expect_freeze: bool,
}

impl Common {
    /// The paper's scale: class B, 30 s waves, 1500 s timeout.
    pub fn paper(runs: usize, base_seed: u64) -> Self {
        Common {
            class: BtClass::B,
            wave_secs: 30,
            timeout_s: 1500,
            miniature: false,
            runs,
            threads: 0,
            base_seed,
            backend: BackendKind::Vcl,
            lint: LintMode::Warn,
            expect_freeze: false,
        }
    }

    /// The seconds-scale miniature: class S, 2 s waves, 90 s timeout.
    pub fn smoke(runs: usize, base_seed: u64) -> Self {
        Common {
            class: BtClass::S,
            wave_secs: 2,
            timeout_s: 90,
            miniature: true,
            ..Common::paper(runs, base_seed)
        }
    }

    /// The cluster at one deployment scale.
    pub(crate) fn cluster(&self, n_ranks: u32, n_hosts: usize, mode: DispatcherMode) -> VclConfig {
        let mut cluster = cluster_config(n_ranks, n_hosts, self.wave_secs, mode);
        if self.miniature {
            miniaturize(&mut cluster);
        }
        cluster
    }

    /// One sweep point: `runs` seeded runs (`seed`, `seed + 1`, …) of
    /// `cluster` under `injection`, summarised — or the refusal of a
    /// scenario [`crate::harness::run`] would not run (its lint gate, its
    /// deployment).
    pub(crate) fn point(
        &self,
        cluster: VclConfig,
        injection: Option<InjectionSpec>,
        seed: u64,
    ) -> Result<PointSummary, Report> {
        let injection = injection.map(|inj| {
            let expect = inj.expect_freeze || self.expect_freeze;
            inj.with_lint(self.lint).with_expect_freeze(expect)
        });
        let spec = spec(cluster, self.class.clone(), injection, self.timeout_s, seed)
            .with_backend(self.backend);
        Ok(PointSummary::from_runs(&run_all(&seeded(&spec, self.runs), self.threads)?))
    }

    /// The fault-free point at `seed` next to the same cluster under
    /// `injection` at `seed + 5000`.
    pub(crate) fn pair(
        &self,
        cluster: VclConfig,
        injection: InjectionSpec,
        seed: u64,
    ) -> Result<(PointSummary, PointSummary), Report> {
        let fault_free = self.point(cluster.clone(), None, seed)?;
        Ok((fault_free, self.point(cluster, Some(injection), seed + 5_000)?))
    }
}

/// The Fig. 5(a) injection: one fault every `interval_s` seconds among
/// `n_hosts` machines.
pub(crate) fn fig5_injection(interval_s: u64, n_hosts: usize) -> InjectionSpec {
    InjectionSpec::new(FIG5_SRC, "ADV1", "ADVnodes")
        .with_param("X", interval_s as i64)
        .with_param("N", n_hosts as i64 - 1)
}

/// What running a figure yields: the rendered table and the JSON form of
/// its data (`None` for Table 1, which has none) — or the refusal of a
/// scenario the sweep would not run.
type Rendered = Result<(String, Option<String>), Report>;

/// One entry of [`FIGURES`].
pub struct Figure {
    /// The name `figure <name>` selects (and `results/<name>.*` carries).
    pub name: &'static str,
    /// Runs the figure at the scale and under the overrides `opts` names.
    pub run: fn(&Options) -> Rendered,
}

/// Every table and figure the `figure` binary regenerates.
pub static FIGURES: [Figure; 9] = [
    Figure {
        name: "table1",
        run: |_| Ok((crate::criteria::render(), None)),
    },
    Figure {
        name: "fig5",
        run: |o| {
            let (paper, smoke) = (fig5::Config::paper, fig5::Config::smoke);
            regenerate(o, paper, smoke, |c| &mut c.common, fig5::run, fig5::render)
        },
    },
    Figure {
        name: "fig6",
        run: |o| {
            let (paper, smoke) = (fig6::Config::paper, fig6::Config::smoke);
            regenerate(o, paper, smoke, |c| &mut c.common, fig6::run, fig6::render)
        },
    },
    Figure {
        name: "fig7",
        run: |o| {
            let (paper, smoke) = (fig7::Config::paper, fig7::Config::smoke);
            regenerate(o, paper, smoke, |c| &mut c.common, fig7::run, fig7::render)
        },
    },
    Figure {
        name: "fig9",
        run: |o| {
            let (paper, smoke) = (fig9::Config::paper, fig9::Config::smoke);
            regenerate(o, paper, smoke, |c| &mut c.common, fig9::run, fig9::render)
        },
    },
    Figure {
        name: "fig11",
        run: |o| {
            let (paper, smoke) = (fig11::paper_config, fig11::smoke_config);
            regenerate(o, paper, smoke, |c| &mut c.common, fig11::run, fig11::render)
        },
    },
    Figure {
        name: "ablation",
        run: |o| {
            let (paper, smoke) = (ablation::Config::paper, ablation::Config::smoke);
            regenerate(o, paper, smoke, |c| &mut c.common, ablation::run, ablation::render)
        },
    },
    Figure {
        name: "delay_sweep",
        run: |o| {
            let (paper, smoke) = (delay::Config::paper, delay::Config::smoke);
            regenerate(o, paper, smoke, |c| &mut c.common, delay::run, delay::render)
        },
    },
    Figure {
        name: "lbh04",
        run: |o| {
            let (paper, smoke) = (lbh04::Config::paper, lbh04::Config::smoke);
            regenerate(o, paper, smoke, |c| &mut c.common, lbh04::run, lbh04::render)
        },
    },
];

/// Picks the paper or smoke config, applies the flag overrides to its
/// [`Common`] part, runs the sweep and renders it both ways.
fn regenerate<C, D: Serialize>(
    opts: &Options,
    paper: fn() -> C,
    smoke: fn() -> C,
    common: fn(&mut C) -> &mut Common,
    run: fn(&C) -> Result<D, Report>,
    render: fn(&D) -> String,
) -> Rendered {
    let mut cfg = if opts.smoke { smoke() } else { paper() };
    opts.apply(common(&mut cfg));
    let data = run(&cfg)?;
    let json = serde_json::to_string_pretty(&data).expect("serializable");
    Ok((render(&data), Some(json)))
}

/// The Fig. 5(a) fault-frequency scenario source.
pub const FIG5_SRC: &str = include_str!("../../../core/scenarios/fig5_frequency.fail");
/// The Fig. 7(a) simultaneous-fault scenario source.
pub const FIG7_SRC: &str = include_str!("../../../core/scenarios/fig7_simultaneous.fail");
/// The Fig. 8 synchronized-fault scenario source.
pub const FIG8_SRC: &str = include_str!("../../../core/scenarios/fig8_synchronized.fail");
/// The Fig. 10 state-synchronized scenario source.
pub const FIG10_SRC: &str = include_str!("../../../core/scenarios/fig10_state_sync.fail");
/// The delay-after-checkpoint scenario (the Sec. 6 planned feature).
pub const DELAY_SRC: &str = include_str!("../../../core/scenarios/delay_injection.fail");

/// Builds the paper's cluster configuration at a given scale.
pub(crate) fn cluster_config(
    n_ranks: u32,
    n_hosts: usize,
    wave_secs: u64,
    mode: DispatcherMode,
) -> VclConfig {
    VclConfig {
        n_ranks,
        n_compute_hosts: n_hosts,
        checkpoint_period: SimDuration::from_secs(wave_secs),
        dispatcher: mode,
        ..VclConfig::default()
    }
}

/// Scales the recovery-time constants down for seconds-scale miniatures
/// (class S smoke runs), keeping the same ratios to the workload duration
/// that the paper-scale constants have to a class-B run. The `onload`
/// injection race window (`init_delay_max`) is left untouched — it is
/// micro-scale in both settings.
pub fn miniaturize(cfg: &mut VclConfig) {
    cfg.ssh_stagger = SimDuration::from_millis(20);
    cfg.restart_overhead = SimDuration::from_millis(400);
    cfg.terminate_delay = SimDuration::from_millis(30);
}

/// Builds a spec with the given pieces.
pub fn spec(
    cluster: VclConfig,
    class: BtClass,
    injection: Option<InjectionSpec>,
    timeout_s: u64,
    seed: u64,
) -> ExperimentSpec {
    ExperimentSpec {
        cluster,
        workload: crate::harness::Workload::Bt(class),
        injection,
        timeout: SimTime::from_secs(timeout_s),
        // Scale the silence threshold with the timeout: 1/10th, which is
        // the paper-scale 150 s window at the paper's 1500 s timeout.
        freeze_window: SimDuration::from_secs(timeout_s / 10),
        seed,
        tie_break: failmpi_sim::TieBreak::Fifo,
        backend: BackendKind::Vcl,
    }
}

/// Formats an optional mean±std pair of seconds.
pub(crate) fn fmt_time(mean: Option<f64>, std: Option<f64>) -> String {
    match (mean, std) {
        (Some(m), Some(s)) => format!("{m:8.1} ±{s:6.1}"),
        (Some(m), None) => format!("{m:8.1}        "),
        _ => format!("{:>15}", "—"),
    }
}
