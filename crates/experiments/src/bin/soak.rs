//! `soak` — the determinism & schedule-robustness soak driver.
//!
//! Runs a small suite of smoke-scale scenarios, each of which is
//! (1) double-run under the canonical FIFO schedule to detect any
//! nondeterminism, and (2) swept across perturbed same-instant event
//! orderings ([`failmpi_sim::TieBreak::Seeded`]) with the trace
//! invariants validated on every run. The Fig. 10 dispatcher stress runs
//! under both dispatcher variants, asserting the paper's claim across the
//! whole interleaving sample: the historical dispatcher freezes on every
//! schedule, the fixed one on none.
//!
//! Exits 1 on any divergence, invariant violation, or broken
//! classification expectation (2 on a usage error, an unwritable output
//! path or a spec the harness refuses to run), so CI can run it as a smoke
//! gate:
//!
//! ```text
//! cargo run --release -p failmpi-experiments --bin soak -- --runs 25 --json soak.json
//! ```

use std::collections::BTreeMap;
use std::process::ExitCode;

use serde::Serialize;

use failmpi_analyze::cli::{self, Args, Flag};
use failmpi_experiments::robustness::{
    det_run, fault_free_smoke_spec, fig10_stress_spec, perturb,
};
use failmpi_experiments::telemetry::{self, Outputs};
use failmpi_experiments::ExperimentSpec;
use failmpi_mpichv::DispatcherMode;
use failmpi_testkit::check_determinism;

failmpi_experiments::install_alloc_profiler!();

/// What every perturbed run of one scenario must classify as, if pinned.
enum Expect {
    /// Every run must land in this class.
    All(&'static str),
    /// No run may land in this class.
    Never(&'static str),
}

struct Scenario {
    name: &'static str,
    spec: ExperimentSpec,
    expect: Expect,
}

#[derive(Serialize)]
struct ScenarioReport {
    name: String,
    runs: usize,
    divergences: usize,
    invariant_violations: usize,
    distinct_schedules: usize,
    histogram: BTreeMap<String, usize>,
    expectation_met: bool,
}

#[derive(Serialize)]
struct SoakReport {
    runs_per_scenario: usize,
    backend: String,
    base_seed: u64,
    total_runs: usize,
    total_divergences: usize,
    total_invariant_violations: usize,
    passed: bool,
    scenarios: Vec<ScenarioReport>,
}

struct Options {
    runs: usize,
    seed: u64,
    backend: failmpi_backend::BackendKind,
    json: Option<String>,
    telemetry: Outputs,
}

const USAGE: &str = "usage: soak [--runs N] [--seed S] [--backend vcl|ulfm|replica] \
                     [--json PATH] [--metrics PATH] [--trace-out PATH] [--profile PATH]";

const FLAGS: &[Flag] = &[
    Flag::Count("--runs", failmpi_experiments::cli::MAX_RUNS),
    Flag::Value("--seed", "a number"),
    Flag::Value("--backend", "vcl|ulfm|replica"),
    Flag::Value("--json", "a path"),
    telemetry::METRICS_FLAG,
    telemetry::TRACE_OUT_FLAG,
    telemetry::PROFILE_FLAG,
];

fn parse(args: &[String]) -> Result<Options, String> {
    let args = Args::parse(args, FLAGS)?;
    args.none()?;
    Ok(Options {
        runs: args.count("--runs")?.unwrap_or(25),
        seed: args.parsed("--seed")?.unwrap_or(0x50AC),
        backend: args.parsed("--backend")?.unwrap_or(failmpi_backend::BackendKind::Vcl),
        json: args.value("--json").map(str::to_string),
        telemetry: Outputs::from_args(&args),
    })
}

/// Double-runs the canonical (FIFO) schedule; 1 on a divergence, whose
/// first divergent event goes to stderr.
fn divergences(name: &str, spec: &ExperimentSpec) -> Result<usize, failmpi_analyze::Report> {
    Ok(match check_determinism(name, |capture| det_run(spec, capture))? {
        Ok(_) => 0,
        Err(divergence) => {
            eprint!("soak: {divergence}");
            1
        }
    })
}

fn main() -> ExitCode {
    cli::main("soak", USAGE, |args| run(&parse(args)?))
}

fn run(opts: &Options) -> Result<ExitCode, String> {
    // `--trace-out` claims the first run to start — here the first FIFO
    // double-run of the first scenario, which runs before any perturbation
    // sweep, so the captured trace is deterministic.
    opts.telemetry.install();

    // The classification pins are protocol-specific: the Fig. 10 stress
    // freezes every Vcl schedule (the dispatcher bug), completes under
    // ULFM's shrink-and-continue, and flickers under replication (the
    // verdict tracks where the faults land, so only livelock is
    // excluded). Determinism and schedule-robustness are checked
    // identically everywhere.
    use failmpi_backend::BackendKind;
    let fig10_expect = |mode: DispatcherMode| match (opts.backend, mode) {
        (BackendKind::Vcl, DispatcherMode::Historical) => Expect::All("buggy"),
        (BackendKind::Vcl, DispatcherMode::Fixed) => Expect::Never("buggy"),
        (BackendKind::Ulfm, _) => Expect::All("completed"),
        (BackendKind::Replica, _) => Expect::Never("non-terminating"),
    };
    let scenarios = vec![
        Scenario {
            name: "fault-free",
            spec: fault_free_smoke_spec(opts.seed).with_backend(opts.backend),
            expect: Expect::All("completed"),
        },
        Scenario {
            name: "fig10-buggy",
            spec: fig10_stress_spec(DispatcherMode::Historical, opts.seed)
                .with_backend(opts.backend),
            expect: fig10_expect(DispatcherMode::Historical),
        },
        Scenario {
            name: "fig10-fixed",
            spec: fig10_stress_spec(DispatcherMode::Fixed, opts.seed).with_backend(opts.backend),
            expect: fig10_expect(DispatcherMode::Fixed),
        },
    ];

    let mut reports = Vec::new();
    for sc in &scenarios {
        let swept = divergences(sc.name, &sc.spec)
            .and_then(|d| Ok((d, perturb(sc.name, &sc.spec, opts.runs)?)));
        let (divergences, report) = swept.map_err(|refusal| {
            format!("cannot run {}:\n{}", sc.name, refusal.render_human().trim_end())
        })?;
        let violations = report.violations().count();
        let expectation_met = match sc.expect {
            Expect::All(class) => report.count(class) == report.outcomes.len(),
            Expect::Never(class) => report.count(class) == 0,
        };
        println!(
            "{:<12} runs {:>3}  divergences {}  violations {}  schedules {:>3}  {:?}{}",
            sc.name,
            report.outcomes.len(),
            divergences,
            violations,
            report.distinct_schedules,
            report.histogram,
            if expectation_met { "" } else { "  ** EXPECTATION BROKEN **" },
        );
        reports.push(ScenarioReport {
            name: sc.name.to_string(),
            runs: report.outcomes.len(),
            divergences,
            invariant_violations: violations,
            distinct_schedules: report.distinct_schedules,
            histogram: report.histogram,
            expectation_met,
        });
    }

    let total_runs: usize = reports.iter().map(|r| r.runs + 2).sum();
    let total_divergences: usize = reports.iter().map(|r| r.divergences).sum();
    let total_violations: usize = reports.iter().map(|r| r.invariant_violations).sum();
    let passed = total_divergences == 0
        && total_violations == 0
        && reports.iter().all(|r| r.expectation_met);
    let soak = SoakReport {
        runs_per_scenario: opts.runs,
        backend: opts.backend.name().to_string(),
        base_seed: opts.seed,
        total_runs,
        total_divergences,
        total_invariant_violations: total_violations,
        passed,
        scenarios: reports,
    };
    println!(
        "soak: {} runs, {} divergences, {} invariant violations — {}",
        soak.total_runs,
        soak.total_divergences,
        soak.total_invariant_violations,
        if passed { "PASS" } else { "FAIL" },
    );
    if let Some(path) = &opts.json {
        let json = serde_json::to_string_pretty(&soak).expect("serializable");
        std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    opts.telemetry.write_all().map_err(|e| e.to_string())?;
    Ok(if passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
