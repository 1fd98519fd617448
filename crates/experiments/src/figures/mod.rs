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

use failmpi_sim::{SimDuration, SimTime};
use failmpi_mpichv::{DispatcherMode, VclConfig};
use failmpi_workloads::BtClass;

use crate::cli::Options;
use crate::harness::ExperimentSpec;

/// The two overridable knobs every figure config shares, so the common
/// binary entry point ([`run_figure_main`]) can apply `--runs`/`--threads`
/// without knowing the concrete config type.
pub trait FigureConfig {
    /// Mutable access to the per-point run count.
    fn runs_mut(&mut self) -> &mut usize;
    /// Mutable access to the worker-thread count.
    fn threads_mut(&mut self) -> &mut usize;
}

/// Implements [`FigureConfig`] for a config struct with public `runs` and
/// `threads` fields.
macro_rules! figure_config {
    ($ty:ty) => {
        impl crate::figures::FigureConfig for $ty {
            fn runs_mut(&mut self) -> &mut usize {
                &mut self.runs
            }
            fn threads_mut(&mut self) -> &mut usize {
                &mut self.threads
            }
        }
    };
}
pub(crate) use figure_config;

/// The shared `main` of every figure binary: parses the common CLI flags,
/// picks the smoke or paper config, applies `--runs`/`--threads`, installs
/// the telemetry sink, runs the sweep, prints the rendered figure, and
/// writes the `--json` / `--metrics` / `--trace-out` / `--profile` outputs. Exits with status 2 on a CLI error, so each binary's `main` is
/// a single call.
pub fn run_figure_main<C: FigureConfig, D: serde::Serialize>(
    pick: impl FnOnce(bool) -> C,
    run: impl FnOnce(&C) -> D,
    render: impl FnOnce(&D) -> String,
) {
    let opts = match Options::parse(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let mut cfg = pick(opts.smoke);
    if let Some(r) = opts.runs {
        *cfg.runs_mut() = r;
    }
    if let Some(t) = opts.threads {
        *cfg.threads_mut() = t;
    }
    opts.telemetry.install();
    let data = run(&cfg);
    print!("{}", render(&data));
    opts.maybe_write_json(&data).expect("write json");
    opts.telemetry.write_all().expect("write telemetry");
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
pub(crate) fn miniaturize(cfg: &mut VclConfig) {
    cfg.ssh_stagger = SimDuration::from_millis(20);
    cfg.restart_overhead = SimDuration::from_millis(400);
    cfg.terminate_delay = SimDuration::from_millis(30);
}

/// Builds a spec with the given pieces.
pub(crate) fn spec(
    cluster: VclConfig,
    class: BtClass,
    injection: Option<crate::harness::InjectionSpec>,
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
        backend: crate::harness::default_backend(),
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
