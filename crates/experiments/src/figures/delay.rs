//! Beyond the paper: the delay-after-checkpoint experiment its Sec. 6
//! wanted to run.
//!
//! The paper attributes Fig. 6's "apparently chaotic" faulty times to the
//! phase of each fault relative to the last checkpoint wave, and proposes
//! to "precisely measure the date of failure injection as compared to the
//! date of the last checkpoint wave, and measure the impact of this delay
//! on the total execution time" — blocked then on reading the strained
//! program's variables, "a planned feature of FAIL-MPI".
//!
//! This reproduction implements that feature (`probe` variables +
//! `onchange` triggers; see `failmpi-core`) and runs the experiment: one
//! fault injected exactly D seconds after the first wave commit, D swept
//! across the checkpoint period. The expected signal — execution time
//! rising linearly with D (work since the snapshot is lost) and collapsing
//! once D crosses the next commit — is precisely the mechanism behind the
//! paper's Fig. 5 resonance and Fig. 6 variance.

use serde::Serialize;

use failmpi_analyze::Report;
use failmpi_mpichv::DispatcherMode;

use super::{fmt_time, Common, DELAY_SRC};
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
    /// Delays after the wave commit to sweep, seconds.
    pub delays_s: Vec<u64>,
}

impl Config {
    /// Paper-scale parameters: one fault, delays across the 30 s period.
    pub fn paper() -> Self {
        Config {
            common: Common::paper(5, 0xDE1A),
            n_ranks: 49,
            n_hosts: 53,
            delays_s: vec![0, 5, 10, 15, 20, 25],
        }
    }

    /// A seconds-scale miniature.
    pub fn smoke() -> Self {
        Config {
            common: Common::smoke(3, 0xDE1A),
            n_ranks: 4,
            n_hosts: 6,
            delays_s: vec![0, 1],
        }
    }
}

/// One delay value.
#[derive(Clone, Debug, Serialize)]
pub struct Point {
    /// Seconds between the wave commit and the fault.
    pub delay_s: u64,
    /// Aggregated results.
    pub summary: PointSummary,
}

/// The regenerated (new) figure.
#[derive(Clone, Debug, Serialize)]
pub struct Data {
    /// Wave period, for reference.
    pub wave_secs: u64,
    /// The fault-free baseline.
    pub baseline: PointSummary,
    /// Points in delay order.
    pub points: Vec<Point>,
}

/// Runs the sweep.
pub fn run(cfg: &Config) -> Result<Data, Report> {
    let c = &cfg.common;
    let cluster = c.cluster(cfg.n_ranks, cfg.n_hosts, DispatcherMode::Historical);
    let baseline = c.point(cluster.clone(), None, c.base_seed)?;
    let mut points = Vec::new();
    for (k, &d) in cfg.delays_s.iter().enumerate() {
        let inj = InjectionSpec::new(DELAY_SRC, "ADV1", "ADVnodes")
            .with_param("D", d as i64)
            .with_param("N", cfg.n_hosts as i64 - 1);
        let seed = c.base_seed + 1_000 * (k as u64 + 1);
        points.push(Point {
            delay_s: d,
            summary: c.point(cluster.clone(), Some(inj), seed)?,
        });
    }
    Ok(Data {
        wave_secs: c.wave_secs,
        baseline,
        points,
    })
}

/// Renders the sweep.
pub fn render(data: &Data) -> String {
    let mut out = format!(
        "Delay sweep — fault injected D seconds after the first wave commit\n\
         (the paper's Sec. 6 planned measurement; wave period {} s)\n\
         delay        exec time (s)      excess over no-fault (s)\n",
        data.wave_secs
    );
    let base = data.baseline.mean_time_s.unwrap_or(0.0);
    out.push_str(&format!(
        "no fault  {}   {:>10}\n",
        fmt_time(data.baseline.mean_time_s, data.baseline.std_time_s),
        "—"
    ));
    for p in &data.points {
        let excess = p.summary.mean_time_s.map(|t| t - base);
        out.push_str(&format!(
            "D = {:>3}s  {}   {:>10}\n",
            p.delay_s,
            fmt_time(p.summary.mean_time_s, p.summary.std_time_s),
            excess.map_or("—".to_string(), |e| format!("{e:+.1}")),
        ));
    }
    out
}
