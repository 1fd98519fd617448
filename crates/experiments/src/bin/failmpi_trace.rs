//! `failmpi-trace` — run one experiment and read what a run left behind:
//! its execution timeline, its causal trace and its run profile.
//!
//! ```text
//! failmpi-trace timeline <scenario.fail> [--adversary C] [--machines C] [--ranks N]
//!               [--seed S] [--param NAME=VALUE]... [--lifecycle] [--paper]
//!               [--backend vcl|ulfm|replica] [--trace-out PATH]
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
//! `timeline` runs the scenario at smoke scale (class S, 90 s of virtual
//! time; `--paper` picks class B and 1500 s) with causal tracing on, so
//! its failure lines carry their immediate cause; `--trace-out PATH`
//! writes the full happens-before trace the other subcommands read. Trace
//! files also come from `--trace-out PATH` and profiles from `--profile
//! PATH` on `figure <name>` and on `soak` (see EXPERIMENTS.md). `profile
//! flame` emits collapsed-stack lines for standard flamegraph tooling
//! (`flamegraph.pl`, speedscope, inferno).
//!
//! Exit status: 0 on success and for `--help` (usage on stdout); 2 for a
//! usage error, a file that cannot be read or written, a scenario the run
//! cannot use (one that does not compile, classes or parameters it does
//! not declare, a non-square rank count), a trace that does not parse or
//! breaks an invariant of the format (`TraceFile::check_invariants`) and a
//! profile that does not parse — a diagnostic on stderr. No subcommand
//! narrates a file it cannot trust.

use std::process::ExitCode;

use failmpi_analyze::cli::{self, Args, Flag};
use failmpi_backend::BackendKind;
use failmpi_experiments::figures;
use failmpi_experiments::harness::{self, InjectionSpec, Observe};
use failmpi_experiments::timeline::render as render_timeline;
use failmpi_experiments::tracesink::TraceExport;
use failmpi_mpichv::VclConfig;
use failmpi_obs::render::{self, SortBy};
use failmpi_obs::RunProfile;
use failmpi_sim::SimDuration;
use failmpi_trace::{diff, explain, perfetto, Filter, TraceFile};
use failmpi_workloads::BtClass;

failmpi_experiments::install_alloc_profiler!();

const USAGE: &str = "usage: failmpi-trace <timeline|explain|diff|slice|filter|export|profile> <file> ...
  timeline <scenario.fail> [--adversary C] [--machines C] [--ranks N] [--seed S]
           [--param NAME=VALUE]... [--lifecycle] [--paper]
           [--backend vcl|ulfm|replica] [--trace-out P]
                                            run one experiment under the scenario and
                                            print its execution timeline (smoke scale;
                                            --paper: class B, 1500 s)
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

const OUT: Flag = Flag::Value("--out", "a path");
const SECONDS: &str = "a number of seconds from 0 to 1.8e13";

const TIMELINE: &[Flag] = &[
    Flag::Value("--adversary", "a class"),
    Flag::Value("--machines", "a class"),
    Flag::Value("--ranks", "a number"),
    Flag::Value("--seed", "a number"),
    Flag::Value("--param", "NAME=VALUE with an integer VALUE"),
    Flag::Switch("--lifecycle"),
    Flag::Switch("--paper"),
    Flag::Value("--backend", "vcl|ulfm|replica"),
    Flag::Value("--trace-out", "a path"),
];

const FILTER: &[Flag] = &[
    Flag::Value("--kind", "an event kind"),
    Flag::Value("--track", "a track name"),
    Flag::Value("--from", SECONDS),
    Flag::Value("--to", SECONDS),
];

const REPORT: &[Flag] = &[
    Flag::Value("--top", "a number"),
    Flag::Value("--by", "allocs|bytes|events|time"),
];

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
        "timeline" => timeline(rest)?,
        "explain" => {
            let [path] = Args::parse(rest, &[])?.exactly("explain needs a trace path")?;
            print!("{}", explain::render(&load(path)?));
        }
        "diff" => {
            let [a, b] = Args::parse(rest, &[])?.exactly("diff needs two trace paths")?;
            print!("{}", diff::render(&load(a)?, &load(b)?));
        }
        "slice" => {
            let args = Args::parse(rest, &[OUT])?;
            let [path, id] = args.exactly("slice needs a trace path and a node id")?;
            let id: u64 = id.parse().map_err(|e| format!("bad node id: {e}"))?;
            let trace = load(path)?;
            let sliced = failmpi_trace::slice(&trace, id)
                .ok_or(format!("node #{id} not in trace ({} nodes)", trace.nodes.len()))?;
            emit(args.value("--out"), &sliced.to_json(), |out| {
                format!("sliced {} of {} nodes -> {out}", sliced.nodes.len(), trace.nodes.len())
            })?;
        }
        "filter" => {
            let args = Args::parse(rest, FILTER)?;
            let [path] = args.exactly("filter needs a trace path")?;
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
            let args = Args::parse(rest, &[OUT])?;
            let [path] = args.exactly("export needs a trace path")?;
            let json = perfetto::export(&load(path)?);
            emit(args.value("--out"), &json, |out| {
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
            let args = Args::parse(rest, REPORT)?;
            let [path] = args.exactly("report needs a PROFILE path")?;
            let top_n = args.flag("--top", |v| v.parse().ok())?.unwrap_or(15);
            let by = args.flag("--by", SortBy::parse)?.unwrap_or(SortBy::Allocs);
            print!("{}", render::report(&load_profile(path)?, top_n, by));
        }
        "top" => {
            let args = Args::parse(rest, &[])?;
            if args.positional().is_empty() {
                return Err("top needs at least one PROFILE path".to_string());
            }
            let profiles = args
                .positional()
                .iter()
                .map(|&p| Ok((p.to_string(), load_profile(p)?)))
                .collect::<Result<Vec<_>, String>>()?;
            print!("{}", render::top(&profiles));
        }
        "flame" => {
            let args = Args::parse(rest, &[OUT])?;
            let [path] = args.exactly("flame needs a PROFILE path")?;
            let collapsed = load_profile(path)?.to_collapsed();
            emit(args.value("--out"), &collapsed, |out| {
                format!("wrote collapsed stacks to {out}")
            })?;
        }
        other => return Err(format!("unknown command `profile {other}` — profile needs report|top|flame")),
    }
    Ok(())
}

/// `timeline`: one run of the scenario at `path`, its execution timeline
/// and verdict on stdout.
fn timeline(args: &[String]) -> Result<(), String> {
    let args = Args::parse(args, TIMELINE)?;
    let [path] = args.exactly("timeline needs a scenario path")?;
    let ranks: u32 = args.parsed("--ranks")?.unwrap_or(4);
    let seed: u64 = args.parsed("--seed")?.unwrap_or(1);
    let params = args.all("--param", |kv| {
        let (k, v) = kv.split_once('=')?;
        Some((k, v.parse::<i64>().ok()?))
    })?;
    let backend = args.parsed("--backend")?.unwrap_or(BackendKind::Vcl);
    if !failmpi_workloads::bt::is_valid_rank_count(ranks) {
        return Err(format!("--ranks must be a square number (4, 9, 16, ...), got {ranks}"));
    }
    let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;

    let (cluster, class, timeout) = if args.switch("--paper") {
        let c = VclConfig {
            n_ranks: ranks,
            n_compute_hosts: ranks as usize + 4,
            ..VclConfig::default()
        };
        (c, BtClass::B, 1500)
    } else {
        let mut c = VclConfig::small(ranks, SimDuration::from_secs(2));
        figures::miniaturize(&mut c);
        (c, BtClass::S, 90)
    };
    let adversary = args.value("--adversary").unwrap_or("ADV1");
    let machines = args.value("--machines").unwrap_or("ADVnodes");
    let mut inj = InjectionSpec::new(&src, adversary, machines);
    for (k, v) in params {
        inj = inj.with_param(k, v);
    }
    let spec = figures::spec(cluster, class, Some(inj), timeout, seed).with_backend(backend);
    let observe = Observe {
        causal: true,
        ..Observe::default()
    };
    let traced = harness::run(&spec, observe)
        .map_err(|report| format!("cannot run {path}:\n{}", report.render_human().trim_end()))?;
    print!("{}", render_timeline(&traced, args.switch("--lifecycle")));
    let record = &traced.record;
    println!(
        "\nverdict: {:?} ({} faults injected, {} recoveries, {} waves committed)",
        record.outcome, record.faults_injected, record.recoveries, record.waves_committed
    );
    if let Some(out) = args.value("--trace-out") {
        let name = std::path::Path::new(path)
            .file_stem()
            .map_or_else(|| "trace".to_string(), |s| s.to_string_lossy().into_owned());
        TraceExport::of(&name, seed, &traced)
            .write_to(out)
            .map_err(|e| format!("cannot write {out}: {e}"))?;
        eprintln!("trace: wrote causal trace to {out} (inspect with failmpi-trace)");
    }
    Ok(())
}

fn main() -> ExitCode {
    cli::main("failmpi-trace", USAGE, |args| run(args).map(|()| ExitCode::SUCCESS))
}
