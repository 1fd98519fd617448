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

use failmpi_analyze::cli::{self, Args};
use failmpi_experiments::cli::{Options, FLAGS, USAGE};
use failmpi_experiments::figures::FIGURES;

failmpi_experiments::install_alloc_profiler!();

fn main() -> ExitCode {
    let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
    let names = names.join("|");
    let usage = format!("usage: figure <{names}> {USAGE}");
    cli::main("figure", &usage, |args| {
        let args = Args::parse(args, FLAGS)?;
        let [name] = args.exactly(&format!("needs a figure: {names}"))?;
        let figure = FIGURES
            .iter()
            .find(|f| f.name == name)
            .ok_or_else(|| format!("unknown figure `{name}` (one of {names})"))?;
        let opts = Options::from_args(&args)?;
        opts.telemetry.install();
        let (table, json) = (figure.run)(&opts)
            .map_err(|report| format!("cannot run {name}:\n{}", report.render_human().trim_end()))?;
        print!("{table}");
        match (&opts.json, json) {
            (Some(path), Some(json)) => {
                std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))?
            }
            (Some(_), None) => return Err(format!("{name} has no JSON form")),
            (None, _) => {}
        }
        opts.telemetry.write_all().map_err(|e| e.to_string())?;
        Ok(ExitCode::SUCCESS)
    })
}
