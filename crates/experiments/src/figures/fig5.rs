//! Figure 5 — impact of fault frequency.
//!
//! BT class B on 49 processes over 53 machines; the Fig. 5(a) scenario
//! injects one fault every X seconds for X ∈ {65, 60, 55, 50, 45, 40},
//! checkpoint waves every 30 s, 1500 s timeout, 6 runs per point. The
//! figure reports mean execution time of terminated runs plus the
//! percentages of non-terminating and buggy runs.

use serde::Serialize;

use failmpi_analyze::Report;
use failmpi_mpichv::DispatcherMode;

use super::{fig5_injection, fmt_time, Common};
use crate::stats::PointSummary;

/// Sweep parameters.
#[derive(Clone, Debug)]
pub struct Config {
    /// Run scale and CLI overrides.
    pub common: Common,
    /// MPI ranks.
    pub n_ranks: u32,
    /// Compute machines (the `G1` group size).
    pub n_hosts: usize,
    /// Fault intervals to sweep, seconds.
    pub intervals_s: Vec<u64>,
}

impl Config {
    /// The paper's parameters.
    pub fn paper() -> Self {
        Config {
            common: Common::paper(6, 0x5105),
            n_ranks: 49,
            n_hosts: 53,
            intervals_s: vec![65, 60, 55, 50, 45, 40],
        }
    }

    /// A seconds-scale miniature with the same shape (class S, 4 ranks).
    pub fn smoke() -> Self {
        Config {
            common: Common::smoke(3, 0x5105),
            n_ranks: 4,
            n_hosts: 6,
            intervals_s: vec![4, 3, 2],
        }
    }
}

/// One x-position of the figure.
#[derive(Clone, Debug, Serialize)]
pub struct Point {
    /// Point label (`no faults` or `every Ns`).
    pub label: String,
    /// Fault interval, if faults are injected.
    pub interval_s: Option<u64>,
    /// Aggregated results.
    pub summary: PointSummary,
}

/// The regenerated figure.
#[derive(Clone, Debug, Serialize)]
pub struct Data {
    /// Workload class name.
    pub class: String,
    /// Rank count.
    pub n_ranks: u32,
    /// Points in sweep order.
    pub points: Vec<Point>,
}

/// Runs the sweep.
pub fn run(cfg: &Config) -> Result<Data, Report> {
    let c = &cfg.common;
    let cluster = c.cluster(cfg.n_ranks, cfg.n_hosts, DispatcherMode::Historical);
    // No-fault baseline.
    let mut points = vec![Point {
        label: "no faults".into(),
        interval_s: None,
        summary: c.point(cluster.clone(), None, c.base_seed)?,
    }];
    // One fault every X seconds.
    for (k, &x) in cfg.intervals_s.iter().enumerate() {
        let inj = fig5_injection(x, cfg.n_hosts);
        let seed = c.base_seed + 1000 * (k as u64 + 1);
        points.push(Point {
            label: format!("every {x} sec"),
            interval_s: Some(x),
            summary: c.point(cluster.clone(), Some(inj), seed)?,
        });
    }
    Ok(Data {
        class: c.class.name.to_string(),
        n_ranks: cfg.n_ranks,
        points,
    })
}

/// Renders the figure as the paper's series.
pub fn render(data: &Data) -> String {
    let mut out = format!(
        "Figure 5 — impact of fault frequency (BT class {}, {} ranks)\n\
         point            exec time (s)      %non-term   %buggy   faults/run\n",
        data.class, data.n_ranks,
    );
    for p in &data.points {
        out.push_str(&format!(
            "{:<14} {}   {:>8.1}  {:>7.1}   {:>8.1}\n",
            p.label,
            fmt_time(p.summary.mean_time_s, p.summary.std_time_s),
            p.summary.pct_non_terminating(),
            p.summary.pct_buggy(),
            p.summary.mean_faults,
        ));
    }
    out
}
