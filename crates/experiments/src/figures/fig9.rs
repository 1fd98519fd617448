//! Figure 9 — impact of synchronized faults.
//!
//! Two faults per run: the first at a random machine after T seconds, the
//! second targeted at the first communication daemon that respawns in the
//! recovery wave (its machine's second `onload`, per the Fig. 8 scenario).
//! Swept over the four BT scales; the paper finds *some* buggy executions
//! at every scale — the second fault races the daemon's registration with
//! the dispatcher, and only post-registration hits trigger the bug.

use serde::Serialize;

use failmpi_analyze::Report;
use failmpi_mpichv::DispatcherMode;

use super::{fmt_time, Common, FIG8_SRC};
use crate::harness::InjectionSpec;
use crate::stats::PointSummary;

/// Sweep parameters.
#[derive(Clone, Debug)]
pub struct Config {
    /// Run scale and CLI overrides.
    pub common: Common,
    /// Rank counts to sweep.
    pub scales: Vec<u32>,
    /// Spare machines on top of each scale.
    pub spares: usize,
    /// Seconds before the first fault.
    pub first_fault_s: u64,
    /// Dispatcher variant (Historical reproduces the paper).
    pub mode: DispatcherMode,
}

impl Config {
    /// The paper's parameters.
    pub fn paper() -> Self {
        Config {
            common: Common::paper(16, 0x9109),
            scales: vec![25, 36, 49, 64],
            spares: 4,
            first_fault_s: 50,
            mode: DispatcherMode::Historical,
        }
    }

    /// A seconds-scale miniature.
    pub fn smoke() -> Self {
        Config {
            common: Common::smoke(4, 0x9109),
            scales: vec![4, 9],
            spares: 2,
            first_fault_s: 2,
            mode: DispatcherMode::Historical,
        }
    }
}

/// Results at one scale.
#[derive(Clone, Debug, Serialize)]
pub struct Point {
    /// Rank count.
    pub n_ranks: u32,
    /// Fault-free baseline.
    pub fault_free: PointSummary,
    /// Runs with the two synchronized faults.
    pub synchronized: PointSummary,
}

/// The regenerated figure.
#[derive(Clone, Debug, Serialize)]
pub struct Data {
    /// Points in scale order.
    pub points: Vec<Point>,
}

/// The scenario source this figure runs (override point for Fig. 11).
pub(crate) fn run_with_scenario(
    cfg: &Config,
    src: &str,
    adversary: &str,
    machine: &str,
) -> Result<Data, Report> {
    let c = &cfg.common;
    let mut points = Vec::new();
    for (k, &n) in cfg.scales.iter().enumerate() {
        let hosts = n as usize + cfg.spares;
        let inj = InjectionSpec::new(src, adversary, machine)
            .with_param("T", cfg.first_fault_s as i64)
            .with_param("N", hosts as i64 - 1)
            // Freezing the dispatcher is the *point* of the
            // synchronized-fault figures; tell the strict lint gate
            // the statically-predicted freeze is expected.
            .with_expect_freeze(true);
        let (fault_free, synchronized) = c.pair(
            c.cluster(n, hosts, cfg.mode),
            inj,
            c.base_seed + 10_000 * k as u64,
        )?;
        points.push(Point {
            n_ranks: n,
            fault_free,
            synchronized,
        });
    }
    Ok(Data { points })
}

/// Runs the sweep with the Fig. 8 scenario.
pub fn run(cfg: &Config) -> Result<Data, Report> {
    run_with_scenario(cfg, FIG8_SRC, "ADV1", "ADVnodes")
}

/// Renders the figure as the paper's series.
pub fn render(data: &Data) -> String {
    render_titled(data, "Figure 9 — impact of synchronized faults (2 faults)")
}

pub(crate) fn render_titled(data: &Data, title: &str) -> String {
    let mut out = format!(
        "{title}\n\
         ranks   no-fault time (s)    sync-fault time (s)   %non-term   %buggy\n",
    );
    for p in &data.points {
        out.push_str(&format!(
            "BT {:<4} {}  {}    {:>8.1}  {:>7.1}\n",
            p.n_ranks,
            fmt_time(p.fault_free.mean_time_s, p.fault_free.std_time_s),
            fmt_time(p.synchronized.mean_time_s, p.synchronized.std_time_s),
            p.synchronized.pct_non_terminating(),
            p.synchronized.pct_buggy(),
        ));
    }
    out
}
