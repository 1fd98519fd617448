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

fn usage_error() -> ExitCode {
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn parse_args() -> Result<Options, ExitCode> {
    let mut opts = Options {
        seed: 1,
        budget: 30,
        probe_seeds: 2,
        corpus: None,
        findings: None,
        replay: None,
        minimize_family: false,
        json: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => opts.seed = n,
                None => return Err(usage_error()),
            },
            "--budget" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => opts.budget = n,
                None => return Err(usage_error()),
            },
            "--probe-seeds" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => opts.probe_seeds = n,
                _ => return Err(usage_error()),
            },
            "--corpus" => match args.next() {
                Some(p) => opts.corpus = Some(PathBuf::from(p)),
                None => return Err(usage_error()),
            },
            "--findings" => match args.next() {
                Some(p) => opts.findings = Some(PathBuf::from(p)),
                None => return Err(usage_error()),
            },
            "--replay" => match args.next() {
                Some(p) => opts.replay = Some(PathBuf::from(p)),
                None => return Err(usage_error()),
            },
            "--minimize-family" => opts.minimize_family = true,
            "--format" => match args.next().as_deref() {
                Some("human") => opts.json = false,
                Some("json") => opts.json = true,
                _ => return Err(usage_error()),
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return Err(ExitCode::SUCCESS);
            }
            _ => return Err(usage_error()),
        }
    }
    if opts.replay.is_some() && (opts.corpus.is_some() || opts.minimize_family) {
        // Replay re-checks an existing corpus; it neither regenerates one
        // nor minimizes.
        return Err(usage_error());
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

fn write_findings(path: &PathBuf, reports: &[failmpi_analyze::Report]) -> Result<(), ExitCode> {
    let json = serde_json::to_string_pretty(&reports.to_vec()).expect("reports serialize");
    std::fs::write(path, json + "\n").map_err(|e| {
        eprintln!("failmpi-fuzz: cannot write `{}`: {e}", path.display());
        ExitCode::from(2)
    })
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(code) => return code,
    };

    let config = FuzzConfig {
        probe_seeds: (1..=opts.probe_seeds as u64).collect(),
        ..FuzzConfig::default()
    };

    let (summary, reports) = if let Some(dir) = &opts.replay {
        let entries = match load_corpus(dir) {
            Ok(e) => e,
            Err(e) => {
                eprintln!("failmpi-fuzz: {e}");
                return ExitCode::from(2);
            }
        };
        run_replay(&entries, &config)
    } else {
        let fuzz_opts = FuzzOptions {
            seed: opts.seed,
            budget: opts.budget,
            config,
            minimize_family: opts.minimize_family,
            ..FuzzOptions::default()
        };
        let outcome = run_fuzz(&fuzz_opts);
        if let Some(dir) = &opts.corpus {
            if let Err(e) = write_corpus(dir, &outcome.corpus) {
                eprintln!("failmpi-fuzz: cannot write corpus to `{}`: {e}", dir.display());
                return ExitCode::from(2);
            }
        }
        (outcome.summary, outcome.reports)
    };

    if let Some(path) = &opts.findings {
        if let Err(code) = write_findings(path, &reports) {
            return code;
        }
    }
    print_summary(&summary, &reports, opts.json);

    if summary.errors > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
