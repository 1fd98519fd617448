//! Figure 7 — impact of simultaneous faults.
//!
//! BT class B on 49 processes; every 50 s the Fig. 7(a) scenario crashes a
//! burst of X machines (re-picking on negative acknowledgements), X ∈
//! {1..5}, 6 runs per point. The paper observes buggy (frozen-in-recovery)
//! executions appearing around 5 simultaneous faults.

use serde::Serialize;

use failmpi_analyze::Report;
use failmpi_mpichv::DispatcherMode;

use super::{fmt_time, Common, FIG7_SRC};
use crate::harness::InjectionSpec;
use crate::stats::PointSummary;

/// Sweep parameters.
#[derive(Clone, Debug)]
pub struct Config {
    /// Run scale and CLI overrides.
    pub common: Common,
    /// MPI ranks.
    pub n_ranks: u32,
    /// Compute machines.
    pub n_hosts: usize,
    /// Seconds between bursts.
    pub period_s: u64,
    /// Burst sizes to sweep.
    pub bursts: Vec<u32>,
}

impl Config {
    /// The paper's parameters.
    pub fn paper() -> Self {
        Config {
            common: Common::paper(6, 0x7107),
            n_ranks: 49,
            n_hosts: 53,
            period_s: 50,
            bursts: vec![1, 2, 3, 4, 5],
        }
    }

    /// A seconds-scale miniature.
    pub fn smoke() -> Self {
        Config {
            common: Common::smoke(3, 0x7107),
            n_ranks: 4,
            n_hosts: 6,
            period_s: 4,
            bursts: vec![1, 2],
        }
    }
}

/// One burst size of the figure.
#[derive(Clone, Debug, Serialize)]
pub struct Point {
    /// Simultaneous faults per burst.
    pub burst: u32,
    /// Aggregated results.
    pub summary: PointSummary,
}

/// The regenerated figure.
#[derive(Clone, Debug, Serialize)]
pub struct Data {
    /// Burst period, seconds.
    pub period_s: u64,
    /// Points in burst order.
    pub points: Vec<Point>,
}

/// Runs the sweep.
pub fn run(cfg: &Config) -> Result<Data, Report> {
    let c = &cfg.common;
    let mut points = Vec::new();
    for (k, &x) in cfg.bursts.iter().enumerate() {
        let inj = InjectionSpec::new(FIG7_SRC, "ADV1", "ADVnodes")
            .with_param("X", x as i64)
            .with_param("T", cfg.period_s as i64)
            .with_param("N", cfg.n_hosts as i64 - 1);
        let cluster = c.cluster(cfg.n_ranks, cfg.n_hosts, DispatcherMode::Historical);
        let seed = c.base_seed + 10_000 * k as u64 + x as u64;
        points.push(Point {
            burst: x,
            summary: c.point(cluster, Some(inj), seed)?,
        });
    }
    Ok(Data {
        period_s: cfg.period_s,
        points,
    })
}

/// Renders the figure as the paper's series.
pub fn render(data: &Data) -> String {
    let mut out = format!(
        "Figure 7 — impact of simultaneous faults (bursts every {} s)\n\
         burst      exec time (s)      %non-term   %buggy   faults/run\n",
        data.period_s
    );
    for p in &data.points {
        out.push_str(&format!(
            "{:<2} fault{} {}   {:>8.1}  {:>7.1}   {:>8.1}\n",
            p.burst,
            if p.burst == 1 { " " } else { "s" },
            fmt_time(p.summary.mean_time_s, p.summary.std_time_s),
            p.summary.pct_non_terminating(),
            p.summary.pct_buggy(),
            p.summary.mean_faults,
        ));
    }
    out
}
