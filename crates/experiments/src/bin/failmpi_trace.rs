//! `failmpi-trace` — read what a run left behind: its causal trace and
//! its run profile.
//!
//! ```text
//! failmpi-trace explain <trace.json>
//! failmpi-trace diff <a.json> <b.json>
//! failmpi-trace slice <trace.json> <node-id> [--out PATH]
//! failmpi-trace filter <trace.json> [--kind K] [--track NAME] [--from S] [--to S]
//! failmpi-trace export <trace.json> [--out PATH]      # Perfetto / chrome://tracing
//! failmpi-trace profile report <profile.json> [--top N] [--by allocs|bytes|events|time]
//! failmpi-trace profile top <profile.json>...
//! failmpi-trace profile flame <profile.json> [--out PATH]
//! ```
//!
//! Trace files come from `--trace-out PATH` and profiles from `--profile
//! PATH` on `figure <name>`, on `soak`, or (traces) on the single-run
//! `trace` binary (see EXPERIMENTS.md). `profile flame` emits
//! collapsed-stack lines for standard flamegraph tooling
//! (`flamegraph.pl`, speedscope, inferno).
//!
//! Exit status: 0 on success and for `--help` (usage on stdout); 2 for a
//! usage error, a file that cannot be read or written, a trace that does
//! not parse or breaks an invariant of the format
//! (`TraceFile::check_invariants`) and a profile that does not parse — a
//! one-line diagnostic on stderr. No subcommand narrates a file it cannot
//! trust.

use std::collections::BTreeMap;
use std::process::ExitCode;

use failmpi_obs::render::{self, SortBy};
use failmpi_obs::RunProfile;
use failmpi_trace::{diff, explain, perfetto, Filter, TraceFile};

const USAGE: &str = "usage: failmpi-trace <explain|diff|slice|filter|export|profile> <file> ...
  explain <trace.json>                      walk the causal chain back from the last
                                            activity and narrate the root cause
  diff <a.json> <b.json>                    first causal divergence between two runs
  slice <trace.json> <node-id> [--out P]    ancestor cone of one node
  filter <trace.json> [--kind K] [--track NAME] [--from SECS] [--to SECS]
  export <trace.json> [--out P]             Chrome trace-event JSON (ui.perfetto.dev)
  profile report <profile.json> [--top N] [--by allocs|bytes|events|time]
                                            attribution tables with per-layer rollups
  profile top <profile.json>...             per-backend comparison of normalized rates
  profile flame <profile.json> [--out P]    collapsed stacks for flamegraph tools";

/// Every flag a subcommand may accept, with what its value must be.
const FLAGS: [(&str, &str); 7] = [
    ("--out", "a path"),
    ("--kind", "an event kind"),
    ("--track", "a track name"),
    ("--from", "a number of seconds from 0 to 1.8e13"),
    ("--to", "a number of seconds from 0 to 1.8e13"),
    ("--top", "a number"),
    ("--by", "allocs|bytes|events|time"),
];

/// One subcommand's arguments: the positionals in order and the value of
/// each flag (the last one given wins).
struct Args<'a> {
    positional: Vec<&'a str>,
    flags: BTreeMap<&'a str, &'a str>,
}

impl<'a> Args<'a> {
    /// Splits `args` for a subcommand that accepts `accepts`. A flag
    /// outside it, or one with no value after it, is a usage error.
    fn parse(args: &'a [String], accepts: &[&str]) -> Result<Args<'a>, String> {
        let mut parsed = Args { positional: Vec::new(), flags: BTreeMap::new() };
        let mut args = args.iter().map(String::as_str);
        while let Some(a) = args.next() {
            if !a.starts_with("--") {
                parsed.positional.push(a);
            } else if !accepts.contains(&a) {
                return Err(format!("unknown argument `{a}`"));
            } else {
                let value = args.next().ok_or_else(|| needs(a))?;
                parsed.flags.insert(a, value);
            }
        }
        Ok(parsed)
    }

    /// Exactly `N` positionals; `what` names them for the diagnostic when
    /// some are missing.
    fn exactly<const N: usize>(&self, cmd: &str, what: &str) -> Result<[&'a str; N], String> {
        if let Some(extra) = self.positional.get(N) {
            return Err(format!("unknown argument `{extra}`"));
        }
        <[&str; N]>::try_from(self.positional.as_slice())
            .map_err(|_| format!("{cmd} needs {what}"))
    }

    /// The value of `flag`, checked by `parse`.
    fn flag<T>(&self, flag: &str, parse: impl Fn(&str) -> Option<T>) -> Result<Option<T>, String> {
        self.flags
            .get(flag)
            .map(|v| parse(v).ok_or_else(|| needs(flag)))
            .transpose()
    }
}

/// The diagnostic for a flag whose value is missing or unusable.
fn needs(flag: &str) -> String {
    let what = FLAGS.iter().find(|(f, _)| *f == flag).map_or("a value", |(_, w)| w);
    format!("{flag} needs {what}")
}

/// Seconds as whole microseconds; `None` for a value no `u64` count of
/// microseconds holds (negative, NaN, infinite or past 2^64 µs).
fn micros(s: &str) -> Option<u64> {
    let us = s.parse::<f64>().ok()? * 1e6;
    (us >= 0.0 && us < u64::MAX as f64).then_some(us as u64)
}

fn load(path: &str) -> Result<TraceFile, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let trace = TraceFile::from_json(&src).map_err(|e| format!("{path}: {e}"))?;
    trace
        .check_invariants()
        .map_err(|e| format!("{path}: not a well-formed trace: {e}"))?;
    Ok(trace)
}

fn load_profile(path: &str) -> Result<RunProfile, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    RunProfile::from_json(&src).map_err(|e| format!("{path}: {e}"))
}

/// Writes `text` to `--out` when given (then says so on stderr with
/// `done`), else prints it.
fn emit(out: Option<&str>, text: &str, done: impl Fn(&str) -> String) -> Result<(), String> {
    match out {
        Some(out) => {
            std::fs::write(out, text).map_err(|e| format!("cannot write {out}: {e}"))?;
            eprintln!("{}", done(out));
        }
        None => print!("{text}"),
    }
    Ok(())
}

fn run(args: &[String]) -> Result<(), String> {
    let short_usage = USAGE.lines().next().unwrap_or(USAGE);
    let cmd = args.first().ok_or(short_usage)?;
    let rest = &args[1..];
    match cmd.as_str() {
        "explain" => {
            let [path] = Args::parse(rest, &[])?.exactly("explain", "a trace path")?;
            print!("{}", explain::render(&load(path)?));
        }
        "diff" => {
            let [a, b] = Args::parse(rest, &[])?.exactly("diff", "two trace paths")?;
            print!("{}", diff::render(&load(a)?, &load(b)?));
        }
        "slice" => {
            let args = Args::parse(rest, &["--out"])?;
            let [path, id] = args.exactly("slice", "a trace path and a node id")?;
            let id: u64 = id.parse().map_err(|e| format!("bad node id: {e}"))?;
            let trace = load(path)?;
            let sliced = failmpi_trace::slice(&trace, id)
                .ok_or(format!("node #{id} not in trace ({} nodes)", trace.nodes.len()))?;
            emit(args.flags.get("--out").copied(), &sliced.to_json(), |out| {
                format!("sliced {} of {} nodes -> {out}", sliced.nodes.len(), trace.nodes.len())
            })?;
        }
        "filter" => {
            let args = Args::parse(rest, &["--kind", "--track", "--from", "--to"])?;
            let [path] = args.exactly("filter", "a trace path")?;
            let f = Filter {
                kind: args.flag("--kind", |v| Some(v.to_string()))?,
                track: args.flag("--track", |v| Some(v.to_string()))?,
                from_us: args.flag("--from", micros)?,
                to_us: args.flag("--to", micros)?,
            };
            let trace = load(path)?;
            for n in failmpi_trace::filter(&trace, &f) {
                let track = trace
                    .tracks
                    .get(n.track as usize)
                    .map(String::as_str)
                    .unwrap_or("?");
                println!(
                    "#{:<6} {:>10.3}s  {:<14} {:<18} {}",
                    n.id,
                    n.t_us as f64 / 1e6,
                    track,
                    n.kind,
                    n.label
                );
            }
        }
        "export" => {
            let args = Args::parse(rest, &["--out"])?;
            let [path] = args.exactly("export", "a trace path")?;
            let json = perfetto::export(&load(path)?);
            emit(args.flags.get("--out").copied(), &json, |out| {
                format!("wrote {out} (load it at ui.perfetto.dev)")
            })?;
        }
        "profile" => profile(rest)?,
        other => return Err(format!("unknown command `{other}` — {short_usage}")),
    }
    Ok(())
}

/// `profile report|top|flame`: the renderings of a `--profile` file.
fn profile(args: &[String]) -> Result<(), String> {
    let cmd = args.first().ok_or("profile needs report|top|flame")?;
    let rest = &args[1..];
    match cmd.as_str() {
        "report" => {
            let args = Args::parse(rest, &["--top", "--by"])?;
            let [path] = args.exactly("report", "a PROFILE path")?;
            let top_n = args.flag("--top", |v| v.parse().ok())?.unwrap_or(15);
            let by = args.flag("--by", SortBy::parse)?.unwrap_or(SortBy::Allocs);
            print!("{}", render::report(&load_profile(path)?, top_n, by));
        }
        "top" => {
            let args = Args::parse(rest, &[])?;
            if args.positional.is_empty() {
                return Err("top needs at least one PROFILE path".to_string());
            }
            let profiles = args
                .positional
                .iter()
                .map(|&p| Ok((p.to_string(), load_profile(p)?)))
                .collect::<Result<Vec<_>, String>>()?;
            print!("{}", render::top(&profiles));
        }
        "flame" => {
            let args = Args::parse(rest, &["--out"])?;
            let [path] = args.exactly("flame", "a PROFILE path")?;
            let collapsed = load_profile(path)?.to_collapsed();
            emit(args.flags.get("--out").copied(), &collapsed, |out| {
                format!("wrote collapsed stacks to {out}")
            })?;
        }
        other => return Err(format!("unknown command `profile {other}` — profile needs report|top|flame")),
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("failmpi-trace: {e}");
            ExitCode::from(2)
        }
    }
}
