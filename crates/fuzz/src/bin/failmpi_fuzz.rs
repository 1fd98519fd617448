//! failmpi-fuzz: the coverage-guided FAIL-scenario fuzzing loop.
//!
//! ```text
//! failmpi-fuzz --seed 1 --budget 30                 # one campaign, summary on stdout
//! failmpi-fuzz --seed 1 --corpus out/ --findings f.json
//! failmpi-fuzz --replay tests/fixtures/fuzz        # corpus-replay regression check
//! ```
//!
//! A replay probes like a campaign, so it takes the `--probe-seeds` of the
//! campaign that wrote the corpus (the checked-in one: the default, 2).
//!
//! Exit status: 0 no error-severity findings, 1 error findings (FZ001/
//! FZ002/FZ004), 2 usage or I/O error. Double runs with the same `--seed`
//! and `--budget` produce byte-identical corpus and findings files.

use std::path::PathBuf;
use std::process::ExitCode;

use failmpi_analyze::cli::{self, count, json_format, Args, Flag, COUNT};
use failmpi_fuzz::{
    load_corpus, run_fuzz, run_replay, write_corpus, FuzzConfig, FuzzOptions, FuzzSummary,
};

struct Options {
    seed: u64,
    budget: usize,
    probe_seeds: usize,
    corpus: Option<PathBuf>,
    findings: Option<PathBuf>,
    replay: Option<PathBuf>,
    minimize_family: bool,
    json: bool,
}

const USAGE: &str = "usage: failmpi-fuzz [--seed N] [--budget N] [--probe-seeds N] \
     [--corpus DIR] [--findings FILE] [--replay DIR] [--minimize-family] \
     [--format human|json]";

const FLAGS: &[Flag] = &[
    Flag::Value("--seed", "a number from 0 to 2^64-1"),
    Flag::Value("--budget", COUNT),
    // Every candidate is probed under each seed.
    Flag::Count("--probe-seeds", 1000),
    Flag::Value("--corpus", "a directory"),
    Flag::Value("--findings", "a path"),
    Flag::Value("--replay", "a directory"),
    Flag::Switch("--minimize-family"),
    Flag::Value("--format", "human|json"),
];

fn parse(args: &[String]) -> Result<Options, String> {
    let args = Args::parse(args, FLAGS)?;
    args.none()?;
    let path = |flag| args.value(flag).map(PathBuf::from);
    let opts = Options {
        seed: args.parsed("--seed")?.unwrap_or(1),
        // Zero candidates is no campaign: refused, not reported as a pass.
        budget: args.flag("--budget", count)?.unwrap_or(30),
        probe_seeds: args.count("--probe-seeds")?.unwrap_or(2),
        corpus: path("--corpus"),
        findings: path("--findings"),
        replay: path("--replay"),
        minimize_family: args.switch("--minimize-family"),
        json: args.flag("--format", json_format)?.unwrap_or(false),
    };
    if opts.replay.is_some() {
        // Replay re-checks an existing corpus; it neither regenerates one
        // nor minimizes.
        for (flag, given) in [("--corpus", opts.corpus.is_some()), ("--minimize-family", opts.minimize_family)] {
            if given {
                return Err(format!("--replay cannot be combined with {flag}"));
            }
        }
    }
    Ok(opts)
}

fn print_summary(summary: &FuzzSummary, reports: &[failmpi_analyze::Report], json: bool) {
    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(summary).expect("summary serializes")
        );
    } else {
        for r in reports {
            print!("{}", r.render_human());
        }
        println!(
            "failmpi-fuzz: seed {} budget {} — {} candidate(s), {} accepted, \
             {} error(s), {} warning(s), fig10 family rediscovered: {}",
            summary.seed,
            summary.budget,
            summary.candidates,
            summary.accepted,
            summary.errors,
            summary.warnings,
            summary.fig10_family_rediscovered
        );
    }
}

fn write_findings(path: &PathBuf, reports: &[failmpi_analyze::Report]) -> Result<(), String> {
    let json = serde_json::to_string_pretty(&reports.to_vec()).expect("reports serialize");
    std::fs::write(path, json + "\n")
        .map_err(|e| format!("cannot write `{}`: {e}", path.display()))
}

fn main() -> ExitCode {
    cli::main("failmpi-fuzz", USAGE, |args| run(&parse(args)?))
}

fn run(opts: &Options) -> Result<ExitCode, String> {
    let config = FuzzConfig {
        probe_seeds: (1..=opts.probe_seeds as u64).collect(),
        ..FuzzConfig::default()
    };

    let (summary, reports) = if let Some(dir) = &opts.replay {
        run_replay(&load_corpus(dir)?, &config)
    } else {
        let fuzz_opts = FuzzOptions {
            seed: opts.seed,
            budget: opts.budget,
            config,
            minimize_family: opts.minimize_family,
        };
        let outcome = run_fuzz(&fuzz_opts);
        if let Some(dir) = &opts.corpus {
            write_corpus(dir, &outcome.corpus)
                .map_err(|e| format!("cannot write corpus to `{}`: {e}", dir.display()))?;
        }
        (outcome.summary, outcome.reports)
    };

    if let Some(path) = &opts.findings {
        write_findings(path, &reports)?;
    }
    print_summary(&summary, &reports, opts.json);

    Ok(if summary.errors > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}
