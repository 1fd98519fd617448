//! `failmpi-benchmark` — the instrument of record for this repository's
//! performance: six named workloads, end-to-end wall/throughput metrics and
//! an outside-in per-layer budget. See `README.md` beside this crate.
//!
//! The benchmark claims no gain; it is what every later claim is measured
//! with, so a change that claims one may not edit this directory.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod layers;
pub mod metrics;
pub mod pins;
pub mod report;
pub mod run;
pub mod spans;
pub mod stats;
pub mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use run::RunArgs;
use workload::DEFAULT_SEED;

const USAGE: &str = "usage:
  failmpi-benchmark --workload NAME [--seed S] [--seconds T] [--trace 0|1]
                    [--expected-dir DIR] [--update-expected]
  failmpi-benchmark --all [--seed S] [--seconds T] [--trace 0|1] [--out PATH]
                    [--update-expected]
  failmpi-benchmark --selfcheck [--seed S] [--seconds T]
  failmpi-benchmark --compare A.json B.json

--workload runs one workload in this process and prints, last, one JSON line
{correct, attempted, failed, metrics}; --trace 1 prints the per-layer
metrics instead of the end-to-end ones and writes the span file. --all runs
every workload of BENCHMARK.json, a fresh child process each, and writes one
document. --selfcheck makes the --all pass twice and compares the two;
--compare does the same for two documents already written.
exit: 0 ok, 1 an operation failed verification or a metric regressed,
2 usage or I/O error";

/// Name of the binary with the counting allocator, which the traced pass
/// needs for its allocation metrics.
const TRACED_BINARY: &str = "failmpi-benchmark-traced";

struct Options {
    workload: Option<String>,
    all: bool,
    selfcheck: bool,
    compare: Option<(PathBuf, PathBuf)>,
    update_expected: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
    expected_dir: PathBuf,
    out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        all: false,
        selfcheck: false,
        compare: None,
        update_expected: false,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        expected_dir: Path::new(env!("CARGO_MANIFEST_DIR")).join("expected"),
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("`{flag}` needs a value"));
        match flag.as_str() {
            "--workload" => o.workload = Some(value()?.clone()),
            "--all" => o.all = true,
            "--selfcheck" => o.selfcheck = true,
            "--update-expected" => o.update_expected = true,
            "--compare" => o.compare = Some((PathBuf::from(value()?), PathBuf::from(value()?))),
            "--seed" => {
                let v = value()?;
                let parsed = match v.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16).ok(),
                    None => v.parse().ok(),
                };
                o.seed = parsed.ok_or_else(|| format!("`--seed {v}`: not a 64-bit number"))?;
            }
            "--seconds" => {
                let v = value()?;
                o.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0 && *s <= 600.0)
                    .ok_or_else(|| format!("`--seconds {v}`: want a number from 0 to 600"))?;
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("`--trace {v}`: want 0 or 1")),
                }
            }
            "--expected-dir" => o.expected_dir = PathBuf::from(value()?),
            "--out" => o.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let modes = [
        o.workload.is_some(),
        o.all,
        o.selfcheck,
        o.compare.is_some(),
    ];
    if modes.iter().filter(|m| **m).count() != 1 {
        return Err("give exactly one of --workload, --all, --selfcheck, --compare".to_string());
    }
    if o.selfcheck && o.trace {
        return Err("--selfcheck compares the end-to-end pass; drop --trace".to_string());
    }
    if o.update_expected && o.seed != DEFAULT_SEED {
        return Err(format!(
            "pins are taken at the default seed {DEFAULT_SEED:#x}; drop --seed"
        ));
    }
    Ok(o)
}

fn out_dir() -> PathBuf {
    PathBuf::from("target/benchmark")
}

/// Path of the document one `--workload` run leaves for `--all` to collect.
fn run_doc_path(workload: &str, trace: bool) -> PathBuf {
    out_dir().join(format!(
        "{workload}-{}.json",
        if trace { "traced" } else { "e2e" }
    ))
}

/// The traced pass belongs to the sibling binary that counts allocations;
/// any other binary hands the run over to it.
fn hand_over_to_traced(args: &[String]) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    let sibling = exe.with_file_name(TRACED_BINARY);
    let status = Command::new(&sibling).args(args).status().map_err(|e| {
        format!(
            "cannot start `{}`: {e}\n  build it: cargo build --release --manifest-path benchmark/Cargo.toml",
            sibling.display()
        )
    })?;
    Ok(ExitCode::from(status.code().map_or(2, |c| c as u8)))
}

fn one_workload(o: &Options, name: &str) -> Result<ExitCode, String> {
    let workload = workload::find(name).ok_or_else(|| {
        let names: Vec<&str> = workload::listed().iter().map(|w| w.name).collect();
        format!(
            "unknown workload `{name}`; one of {}, {}",
            names.join(", "),
            workload::QUICK
        )
    })?;
    let args = RunArgs {
        workload,
        seed: o.seed,
        seconds: o.seconds,
        trace: o.trace,
        expected_dir: o.expected_dir.clone(),
        out_dir: out_dir(),
    };
    if o.update_expected {
        run::update_expected(&args)?;
        println!("{name}: pins -> {}", args.expected_dir.display());
        return Ok(ExitCode::SUCCESS);
    }
    let result = run::run(&args)?;
    report::print_metrics(name, &result);
    if let Some(failure) = &result.tally.first_failure {
        println!(
            "{name}: {} of {} operations FAILED verification; the first:\n{failure}",
            result.tally.failed, result.tally.attempted
        );
    }
    let doc = report::run_doc(name, o.seed, o.trace, &result);
    report::write_json(&run_doc_path(name, o.trace), &doc)?;
    println!("{}", report::contract_line(&result));
    Ok(if result.tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// Runs every listed workload in a child process of its own, so that set-up
/// time, peak memory and the harness's process-wide caches belong to that
/// workload alone, and collects the children's documents into `path`.
/// Returns whether every workload passed verification.
fn all_workloads(o: &Options, path: &Path) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    let mut docs = Vec::new();
    let mut ok = true;
    for w in workload::listed() {
        let mut child = Command::new(&exe);
        child
            .args(["--workload", w.name, "--seed", &o.seed.to_string()])
            .args(["--seconds", &o.seconds.to_string()])
            .args(["--trace", if o.trace { "1" } else { "0" }])
            .arg("--expected-dir")
            .arg(&o.expected_dir)
            .stdin(Stdio::null());
        if o.update_expected {
            child.arg("--update-expected");
        }
        let status = child
            .status()
            .map_err(|e| format!("cannot start `{}`: {e}", exe.display()))?;
        match status.code() {
            Some(0) => {}
            Some(1) => ok = false,
            _ => return Err(format!("the `{}` run ended with {status}", w.name)),
        }
        if !o.update_expected {
            let doc_path = run_doc_path(w.name, o.trace);
            let doc = std::fs::read_to_string(&doc_path)
                .map_err(|e| format!("cannot read `{}`: {e}", doc_path.display()))?;
            docs.push(format!("\"{}\": {}", w.name, doc.trim_end()));
        }
    }
    if !o.update_expected {
        let all = format!(
            "{{\"seed\": {}, \"trace\": {}, \"workloads\": {{\n{}\n}}}}\n",
            o.seed,
            o.trace,
            docs.join(",\n")
        );
        std::fs::write(path, all).map_err(|e| format!("cannot write `{}`: {e}", path.display()))?;
        println!("every workload -> {}", path.display());
    }
    Ok(ok)
}

fn dispatch(args: &[String], counts_allocations: bool) -> Result<ExitCode, String> {
    let o = parse(args).map_err(|e| format!("{e}\n{USAGE}"))?;
    if o.trace && !counts_allocations && !o.update_expected && o.compare.is_none() {
        return hand_over_to_traced(args);
    }
    let passed = |ok: bool| {
        if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        }
    };
    if let Some(name) = &o.workload {
        one_workload(&o, name)
    } else if o.all {
        let name = if o.trace {
            "benchmark-traced.json"
        } else {
            "benchmark.json"
        };
        let path = o.out.clone().unwrap_or_else(|| out_dir().join(name));
        Ok(passed(all_workloads(&o, &path)?))
    } else if o.selfcheck {
        let (a, b) = (
            out_dir().join("selfcheck-1.json"),
            out_dir().join("selfcheck-2.json"),
        );
        let ok = all_workloads(&o, &a)? & all_workloads(&o, &b)?;
        let regressions = report::compare(&report::read_json(&a)?, &report::read_json(&b)?);
        Ok(passed(ok && regressions == 0))
    } else {
        let (a, b) = o.compare.as_ref().expect("one mode is set");
        Ok(passed(
            report::compare(&report::read_json(a)?, &report::read_json(b)?) == 0,
        ))
    }
}

/// Entry point of both binaries. `counts_allocations` says whether the
/// binary installed the counting allocator the traced pass needs.
pub fn main(counts_allocations: bool) -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args, counts_allocations) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("failmpi-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
