//! Ablations of the design choices DESIGN.md calls out.
//!
//! 1. **Dispatcher bookkeeping** — the Fig. 10 stress under the historical
//!    dispatcher vs. the fixed one: the bug disappears with the fix (the
//!    paper's conclusion, validated as an experiment).
//! 2. **Checkpoint style** — blocking vs. non-blocking Chandy–Lamport:
//!    fault-free overhead and behaviour under periodic faults.
//! 3. **Checkpoint period** — shorter waves cost more overhead but lose
//!    less work per fault.

use serde::Serialize;

use failmpi_analyze::Report;
use failmpi_sim::SimDuration;
use failmpi_mpichv::{CheckpointStyle, DispatcherMode, VProtocol};

use failmpi_workloads::BtClass;

use super::{fig11, fig5_injection, fmt_time, Common};
use crate::stats::PointSummary;

/// Grid parameters shared by the ablations.
#[derive(Clone, Debug)]
pub struct Config {
    /// Run scale and CLI overrides.
    pub common: Common,
    /// MPI ranks.
    pub n_ranks: u32,
    /// Compute machines.
    pub n_hosts: usize,
    /// Wave periods for the period ablation, seconds.
    pub periods_s: Vec<u64>,
    /// Fault interval for the faulty series, seconds.
    pub interval_s: u64,
}

impl Config {
    /// Paper-scale parameters.
    pub fn paper() -> Self {
        Config {
            common: Common::paper(5, 0xAB1A),
            n_ranks: 49,
            n_hosts: 53,
            periods_s: vec![10, 30, 60],
            interval_s: 50,
        }
    }

    /// A seconds-scale miniature.
    pub fn smoke() -> Self {
        Config {
            common: Common::smoke(3, 0xAB1A),
            n_ranks: 4,
            n_hosts: 6,
            periods_s: vec![1, 2, 4],
            interval_s: 4,
        }
    }
}

/// Dispatcher-mode ablation result.
#[derive(Clone, Debug, Serialize)]
pub struct DispatcherAblation {
    /// Percentage of buggy runs under the historical dispatcher.
    pub historical_pct_buggy: f64,
    /// Percentage of buggy runs under the fixed dispatcher.
    pub fixed_pct_buggy: f64,
    /// Percentage of completed runs under the fixed dispatcher.
    pub fixed_pct_completed: f64,
}

/// Runs the Fig. 10 stress under both dispatcher variants at one scale.
pub fn dispatcher(cfg: &Config) -> Result<DispatcherAblation, Report> {
    let mut base = if cfg.common.class == BtClass::B {
        fig11::paper_config()
    } else {
        fig11::smoke_config()
    };
    base.scales = vec![cfg.n_ranks];
    base.spares = cfg.n_hosts - cfg.n_ranks as usize;
    base.common = Common {
        base_seed: base.common.base_seed,
        ..cfg.common.clone()
    };
    let hist = fig11::run(&base)?;
    let fixed = fig11::run(&fig11::fixed_config(base))?;
    let h = &hist.points[0].synchronized;
    let f = &fixed.points[0].synchronized;
    Ok(DispatcherAblation {
        historical_pct_buggy: h.pct_buggy(),
        fixed_pct_buggy: f.pct_buggy(),
        fixed_pct_completed: 100.0 - f.pct_buggy() - f.pct_non_terminating(),
    })
}

/// Checkpoint-style ablation result.
#[derive(Clone, Debug, Serialize)]
pub struct StylePoint {
    /// Which protocol variant.
    pub style: String,
    /// Fault-free runs.
    pub fault_free: PointSummary,
    /// Runs under periodic faults.
    pub faulty: PointSummary,
}

/// Compares blocking vs. non-blocking checkpointing.
pub fn checkpoint_style(cfg: &Config) -> Result<Vec<StylePoint>, Report> {
    let c = &cfg.common;
    let mut out = Vec::new();
    for (k, style) in [CheckpointStyle::NonBlocking, CheckpointStyle::Blocking]
        .into_iter()
        .enumerate()
    {
        let mut cluster = c.cluster(cfg.n_ranks, cfg.n_hosts, DispatcherMode::Historical);
        cluster.checkpoint_style = style;
        let (fault_free, faulty) = c.pair(
            cluster,
            fig5_injection(cfg.interval_s, cfg.n_hosts),
            c.base_seed + 20_000 * k as u64,
        )?;
        out.push(StylePoint {
            style: format!("{style:?}"),
            fault_free,
            faulty,
        });
    }
    Ok(out)
}

/// Checkpoint-period ablation result.
#[derive(Clone, Debug, Serialize)]
pub struct PeriodPoint {
    /// Wave period, seconds.
    pub period_s: u64,
    /// Fault-free runs (pure checkpoint overhead).
    pub fault_free: PointSummary,
    /// Runs under periodic faults (overhead vs. lost-work trade-off).
    pub faulty: PointSummary,
}

/// Sweeps the checkpoint wave period.
pub fn checkpoint_period(cfg: &Config) -> Result<Vec<PeriodPoint>, Report> {
    let c = &cfg.common;
    let mut out = Vec::new();
    for (k, &period) in cfg.periods_s.iter().enumerate() {
        let mut cluster = c.cluster(cfg.n_ranks, cfg.n_hosts, DispatcherMode::Historical);
        cluster.checkpoint_period = SimDuration::from_secs(period);
        let (fault_free, faulty) = c.pair(
            cluster,
            fig5_injection(cfg.interval_s, cfg.n_hosts),
            c.base_seed + 30_000 * k as u64,
        )?;
        out.push(PeriodPoint {
            period_s: period,
            fault_free,
            faulty,
        });
    }
    Ok(out)
}

/// Protocol-comparison result (the MPICH-V framework's purpose: "evaluate
/// many different implementations … and compare them fairly under the
/// same failure scenarios").
#[derive(Clone, Debug, Serialize)]
pub struct ProtocolPoint {
    /// Which V-protocol.
    pub protocol: String,
    /// Fault interval, if any.
    pub interval_s: Option<u64>,
    /// Aggregated results.
    pub summary: PointSummary,
}

/// Compares the V-protocols under the same failure scenarios — the
/// framework's purpose ("evaluate many different implementations … and
/// compare them fairly"): Vcl (coordinated checkpointing), V2 (pessimistic
/// sender-based message logging, solo restarts) and Vdummy (no fault
/// tolerance). The faulty column reproduces the [LBH+04] comparison the
/// paper says FAIL-MPI can automate: message logging wins as the fault
/// frequency rises, coordinated checkpointing has the lower no-fault
/// overhead profile, and no-fault-tolerance only ever wins when nothing
/// fails.
pub fn protocol(cfg: &Config) -> Result<Vec<ProtocolPoint>, Report> {
    let c = &cfg.common;
    let mut out = Vec::new();
    for (k, proto) in [VProtocol::Vcl, VProtocol::V2, VProtocol::Vdummy]
        .into_iter()
        .enumerate()
    {
        for (j, interval) in [None, Some(cfg.interval_s)].into_iter().enumerate() {
            let mut cluster = c.cluster(cfg.n_ranks, cfg.n_hosts, DispatcherMode::Historical);
            cluster.protocol = proto;
            let inj = interval.map(|x| fig5_injection(x, cfg.n_hosts));
            let seed = c.base_seed + 40_000 * (2 * k + j) as u64;
            out.push(ProtocolPoint {
                protocol: format!("{proto:?}"),
                interval_s: interval,
                summary: c.point(cluster, inj, seed)?,
            });
        }
    }
    Ok(out)
}

/// All four ablations, in rendering (and JSON array) order.
pub type Data = (
    DispatcherAblation,
    Vec<StylePoint>,
    Vec<PeriodPoint>,
    Vec<ProtocolPoint>,
);

/// Runs all four ablations.
pub fn run(cfg: &Config) -> Result<Data, Report> {
    Ok((
        dispatcher(cfg)?,
        checkpoint_style(cfg)?,
        checkpoint_period(cfg)?,
        protocol(cfg)?,
    ))
}

/// Renders all four ablations.
pub fn render((dispatcher, styles, periods, protocols): &Data) -> String {
    let mut out = String::from("Ablation 1 — dispatcher bookkeeping under the Fig. 10 stress\n");
    out.push_str(&format!(
        "historical: {:5.1}% buggy   fixed: {:5.1}% buggy ({:5.1}% completed)\n\n",
        dispatcher.historical_pct_buggy,
        dispatcher.fixed_pct_buggy,
        dispatcher.fixed_pct_completed
    ));
    out.push_str("Ablation 2 — blocking vs non-blocking Chandy–Lamport\n");
    out.push_str("style         no-fault time (s)    faulty time (s)      %non-term\n");
    for s in styles {
        out.push_str(&format!(
            "{:<12} {}  {}   {:>8.1}\n",
            s.style,
            fmt_time(s.fault_free.mean_time_s, s.fault_free.std_time_s),
            fmt_time(s.faulty.mean_time_s, s.faulty.std_time_s),
            s.faulty.pct_non_terminating(),
        ));
    }
    out.push_str("\nAblation 3 — checkpoint wave period\n");
    out.push_str("period   no-fault time (s)    faulty time (s)      %non-term\n");
    for p in periods {
        out.push_str(&format!(
            "{:>4} s  {}  {}   {:>8.1}\n",
            p.period_s,
            fmt_time(p.fault_free.mean_time_s, p.fault_free.std_time_s),
            fmt_time(p.faulty.mean_time_s, p.faulty.std_time_s),
            p.faulty.pct_non_terminating(),
        ));
    }
    out.push_str("\nAblation 4 — V-protocol comparison under identical scenarios (Vcl / V2 / Vdummy)\n");
    out.push_str("protocol  faults        exec time (s)      %non-term\n");
    for p in protocols {
        let label = match p.interval_s {
            None => "none".to_string(),
            Some(x) => format!("1/{x}s"),
        };
        out.push_str(&format!(
            "{:<9} {:<12} {}   {:>8.1}\n",
            p.protocol,
            label,
            fmt_time(p.summary.mean_time_s, p.summary.std_time_s),
            p.summary.pct_non_terminating(),
        ));
    }
    out
}
