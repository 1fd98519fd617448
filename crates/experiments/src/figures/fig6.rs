//! Figure 6 — impact of scale.
//!
//! BT class B at 25, 36, 49 and 64 processes (BT needs a square count),
//! one fault every 50 seconds, the same number of checkpoint servers at
//! every scale, 5 runs per point. The figure reports the fault-free and
//! faulty execution times per scale plus the outcome percentages — and the
//! paper's analysis highlights the higher per-rank checkpoint-image size at
//! 25 ranks and the growing variance with scale.

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
    /// Rank counts to sweep (perfect squares).
    pub scales: Vec<u32>,
    /// Spare machines added on top of each scale.
    pub spares: usize,
    /// Fault interval, seconds.
    pub interval_s: u64,
}

impl Config {
    /// The paper's parameters.
    pub fn paper() -> Self {
        Config {
            common: Common::paper(5, 0x6106),
            scales: vec![25, 36, 49, 64],
            spares: 4,
            interval_s: 50,
        }
    }

    /// A seconds-scale miniature (classes S at 4 and 9 ranks).
    pub fn smoke() -> Self {
        Config {
            common: Common::smoke(3, 0x6106),
            scales: vec![4, 9],
            spares: 2,
            interval_s: 2,
        }
    }
}

/// Results at one scale.
#[derive(Clone, Debug, Serialize)]
pub struct Point {
    /// Rank count.
    pub n_ranks: u32,
    /// Fault-free runs.
    pub fault_free: PointSummary,
    /// Runs with one fault every `interval_s`.
    pub faulty: PointSummary,
}

/// The regenerated figure.
#[derive(Clone, Debug, Serialize)]
pub struct Data {
    /// Fault interval used for the faulty series.
    pub interval_s: u64,
    /// Points in scale order.
    pub points: Vec<Point>,
}

/// Runs the sweep.
pub fn run(cfg: &Config) -> Result<Data, Report> {
    let c = &cfg.common;
    let mut points = Vec::new();
    for (k, &n) in cfg.scales.iter().enumerate() {
        let hosts = n as usize + cfg.spares;
        let (fault_free, faulty) = c.pair(
            c.cluster(n, hosts, DispatcherMode::Historical),
            fig5_injection(cfg.interval_s, hosts),
            c.base_seed + 10_000 * k as u64,
        )?;
        points.push(Point {
            n_ranks: n,
            fault_free,
            faulty,
        });
    }
    Ok(Data {
        interval_s: cfg.interval_s,
        points,
    })
}

/// Renders the figure as the paper's series.
pub fn render(data: &Data) -> String {
    let mut out = format!(
        "Figure 6 — impact of scale (one fault every {} s)\n\
         ranks   no-fault time (s)    faulty time (s)      %non-term   %buggy\n",
        data.interval_s
    );
    for p in &data.points {
        out.push_str(&format!(
            "BT {:<4} {}  {}   {:>8.1}  {:>7.1}\n",
            p.n_ranks,
            fmt_time(p.fault_free.mean_time_s, p.fault_free.std_time_s),
            fmt_time(p.faulty.mean_time_s, p.faulty.std_time_s),
            p.faulty.pct_non_terminating(),
            p.faulty.pct_buggy(),
        ));
    }
    out
}
