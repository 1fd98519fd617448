//! `figure <name>` — regenerates one table or figure of the paper's
//! evaluation (see [`FIGURES`]) and prints the series the paper plots.
//!
//! ```text
//! cargo run --release -p failmpi-experiments --bin figure -- fig5 --json fig5.json
//! ```
//!
//! This `main` is the only place the figure flags are parsed, the
//! telemetry sink is installed and the outputs are written. Exit status:
//! 0 done, 2 usage error, unwritable output path or a scenario the sweep
//! refuses to run (its diagnostics go to stderr).

use std::process::ExitCode;

use failmpi_experiments::cli::{Options, USAGE};
use failmpi_experiments::figures::FIGURES;

failmpi_experiments::install_alloc_profiler!();

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
    let usage = format!("usage: figure <{}> {USAGE}", names.join("|"));
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{usage}");
        return ExitCode::SUCCESS;
    }
    let named = |n: &String| FIGURES.iter().find(|f| f.name == n.as_str());
    let Some(figure) = args.first().and_then(named) else {
        eprintln!("{usage}");
        return ExitCode::from(2);
    };
    let opts = match Options::parse(args.into_iter().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    opts.telemetry.install();
    let (table, json) = match (figure.run)(&opts) {
        Ok(done) => done,
        Err(report) => {
            eprint!("figure {}: cannot run:\n{}", figure.name, report.render_human());
            return ExitCode::from(2);
        }
    };
    print!("{table}");
    let written = match (&opts.json, json) {
        (Some(path), Some(json)) => {
            std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))
        }
        (Some(_), None) => Err(format!("{} has no JSON form", figure.name)),
        (None, _) => Ok(()),
    };
    if let Err(e) = written.and_then(|()| opts.telemetry.write_all().map_err(|e| e.to_string())) {
        eprintln!("{e}");
        return ExitCode::from(2);
    }
    ExitCode::SUCCESS
}
