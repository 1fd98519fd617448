//! Figure 11 — synchronized faults pinned to the MPI daemon state.
//!
//! Like Fig. 9, but the second fault is injected just *before the
//! recovered daemon calls `localMPI_setCommand`* (Fig. 10 scenario): the
//! daemon is stopped at load, released on the crash order, and halted at a
//! debugger breakpoint — guaranteeing the hit lands after registration.
//! Under the historical dispatcher *every* run freezes; this is how the
//! paper pinpointed the bug.

use failmpi_analyze::Report;
use failmpi_mpichv::DispatcherMode;

use super::fig9::{render_titled, run_with_scenario, Config, Data};
use super::FIG10_SRC;

/// The paper's parameters (same grid as Fig. 9).
pub fn paper_config() -> Config {
    let mut cfg = Config::paper();
    cfg.common.base_seed = 0xB10B;
    cfg
}

/// A seconds-scale miniature.
pub fn smoke_config() -> Config {
    let mut cfg = Config::smoke();
    cfg.common.base_seed = 0xB10B;
    cfg
}

/// A fixed-dispatcher variant (the ablation reference).
pub fn fixed_config(mut cfg: Config) -> Config {
    cfg.mode = DispatcherMode::Fixed;
    cfg
}

/// Runs the sweep with the Fig. 10 scenario.
pub fn run(cfg: &Config) -> Result<Data, Report> {
    run_with_scenario(cfg, FIG10_SRC, "ADV1", "ADVG1")
}

/// Renders the figure as the paper's series.
pub fn render(data: &Data) -> String {
    render_titled(
        data,
        "Figure 11 — synchronized faults depending on MPI state (before localMPI_setCommand)",
    )
}
