//! The [LBH+04] comparison, regenerated automatically.
//!
//! The paper's conclusion: "we were able to reproduce automatically
//! previous measurements that were done manually, like the impact of fault
//! frequency on the execution time [LBH+04]. This provides the opportunity
//! to evaluate many different implementations at large scales and compare
//! them fairly under the same failure scenarios."
//!
//! [LBH+04] (Lemarinier et al., *Improved message logging versus improved
//! coordinated checkpointing for fault tolerant MPI*, CLUSTER 2004)
//! compared exactly the two protocols this repository implements: Vcl
//! (coordinated checkpointing) and V2 (pessimistic sender-based message
//! logging). This figure sweeps the fault frequency over both under
//! identical FAIL scenarios — the comparison the 2004 paper ran by hand —
//! and regenerates its headline: coordinated checkpointing and logging tie
//! without faults, logging's single-rank restarts win increasingly as the
//! fault frequency rises, and logging keeps completing past the frequency
//! where coordinated checkpointing livelocks.

use serde::Serialize;

use failmpi_analyze::Report;
use failmpi_mpichv::{DispatcherMode, VProtocol};

use super::{fig5_injection, fmt_time, Common};
use crate::stats::PointSummary;

/// Sweep parameters.
#[derive(Clone, Debug)]
pub struct Config {
    /// Run scale and CLI overrides (`wave_secs` is also V2's
    /// self-checkpoint period).
    pub common: Common,
    /// MPI ranks.
    pub n_ranks: u32,
    /// Compute machines.
    pub n_hosts: usize,
    /// Fault intervals to sweep, seconds (`0` = the no-fault baseline).
    pub intervals_s: Vec<u64>,
}

impl Config {
    /// Paper-scale parameters (the 2004 paper also used NAS kernels on a
    /// ~2×10²-node cluster with fault-frequency sweeps).
    pub fn paper() -> Self {
        Config {
            common: Common::paper(5, 0x1bb4),
            n_ranks: 49,
            n_hosts: 53,
            intervals_s: vec![0, 65, 50, 40, 30],
        }
    }

    /// A seconds-scale miniature.
    pub fn smoke() -> Self {
        Config {
            common: Common {
                wave_secs: 1,
                ..Common::smoke(3, 0x1bb4)
            },
            n_ranks: 4,
            n_hosts: 6,
            intervals_s: vec![0, 4, 2],
        }
    }
}

/// One (protocol, interval) cell.
#[derive(Clone, Debug, Serialize)]
pub struct Point {
    /// Protocol name.
    pub protocol: String,
    /// Fault interval (`None` = fault-free).
    pub interval_s: Option<u64>,
    /// Aggregated results.
    pub summary: PointSummary,
}

/// The regenerated comparison.
#[derive(Clone, Debug, Serialize)]
pub struct Data {
    /// Points, grouped by protocol then interval.
    pub points: Vec<Point>,
}

/// Runs the sweep.
pub fn run(cfg: &Config) -> Result<Data, Report> {
    let c = &cfg.common;
    let mut points = Vec::new();
    for (k, proto) in [VProtocol::Vcl, VProtocol::V2].into_iter().enumerate() {
        for (j, &interval) in cfg.intervals_s.iter().enumerate() {
            let mut cluster = c.cluster(cfg.n_ranks, cfg.n_hosts, DispatcherMode::Historical);
            cluster.protocol = proto;
            let inj = (interval > 0).then(|| fig5_injection(interval, cfg.n_hosts));
            let seed = c.base_seed + 50_000 * k as u64 + 1_000 * j as u64;
            points.push(Point {
                protocol: format!("{proto:?}"),
                interval_s: (interval > 0).then_some(interval),
                summary: c.point(cluster, inj, seed)?,
            });
        }
    }
    Ok(Data { points })
}

/// Renders the comparison.
pub fn render(data: &Data) -> String {
    let mut out = String::from(
        "LBH+04 regenerated — coordinated checkpointing (Vcl) vs message logging (V2)\n\
         protocol  faults        exec time (s)      %non-term   faults/run\n",
    );
    for p in &data.points {
        let label = match p.interval_s {
            None => "none".to_string(),
            Some(x) => format!("1/{x}s"),
        };
        out.push_str(&format!(
            "{:<9} {:<12} {}   {:>8.1}   {:>8.1}\n",
            p.protocol,
            label,
            fmt_time(p.summary.mean_time_s, p.summary.std_time_s),
            p.summary.pct_non_terminating(),
            p.summary.mean_faults,
        ));
    }
    out
}
