//! `failmpi-trace` — query exported causal traces.
//!
//! ```text
//! failmpi-trace explain <trace.json>
//! failmpi-trace diff <a.json> <b.json>
//! failmpi-trace slice <trace.json> <node-id> [--out PATH]
//! failmpi-trace filter <trace.json> [--kind K] [--track NAME] [--from S] [--to S]
//! failmpi-trace export <trace.json> [--out PATH]      # Perfetto / chrome://tracing
//! ```
//!
//! Trace files come from `--trace-out PATH` on `figure <name>`, on
//! `soak`, or on the single-run `trace` binary (see EXPERIMENTS.md).
//!
//! Exit status: 0 on success and for `--help` (usage on stdout); 2 for a
//! usage error, a file that cannot be read or written, and a trace that
//! does not parse or breaks an invariant of the format
//! (`TraceFile::check_invariants`) — no subcommand narrates a file it
//! cannot trust.

use std::process::ExitCode;

use failmpi_trace::{diff, explain, perfetto, Filter, TraceFile};

const USAGE: &str = "usage: failmpi-trace <explain|diff|slice|filter|export> <trace.json> ...
  explain <trace.json>                      walk the causal chain back from the last
                                            activity and narrate the root cause
  diff <a.json> <b.json>                    first causal divergence between two runs
  slice <trace.json> <node-id> [--out P]    ancestor cone of one node
  filter <trace.json> [--kind K] [--track NAME] [--from SECS] [--to SECS]
  export <trace.json> [--out P]             Chrome trace-event JSON (ui.perfetto.dev)";

fn load(path: &str) -> Result<TraceFile, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let trace = TraceFile::from_json(&src).map_err(|e| format!("{path}: {e}"))?;
    trace
        .check_invariants()
        .map_err(|e| format!("{path}: not a well-formed trace: {e}"))?;
    Ok(trace)
}

fn run(args: &[String]) -> Result<(), String> {
    let cmd = args.first().map(String::as_str).ok_or(USAGE)?;
    match cmd {
        "explain" => {
            let path = args.get(1).ok_or(USAGE)?;
            print!("{}", explain::render(&load(path)?));
        }
        "diff" => {
            let (a, b) = (args.get(1).ok_or(USAGE)?, args.get(2).ok_or(USAGE)?);
            print!("{}", diff::render(&load(a)?, &load(b)?));
        }
        "slice" => {
            let path = args.get(1).ok_or(USAGE)?;
            let id: u64 = args
                .get(2)
                .ok_or(USAGE)?
                .parse()
                .map_err(|e| format!("bad node id: {e}"))?;
            let trace = load(path)?;
            let sliced = failmpi_trace::slice(&trace, id)
                .ok_or(format!("node #{id} not in trace ({} nodes)", trace.nodes.len()))?;
            let json = sliced.to_json();
            match flag_value(&args[3..], "--out") {
                Some(out) => {
                    std::fs::write(&out, &json)
                        .map_err(|e| format!("cannot write {out}: {e}"))?;
                    eprintln!(
                        "sliced {} of {} nodes -> {out}",
                        sliced.nodes.len(),
                        trace.nodes.len()
                    );
                }
                None => print!("{json}"),
            }
        }
        "filter" => {
            let path = args.get(1).ok_or(USAGE)?;
            let trace = load(path)?;
            let rest = &args[2..];
            let secs =
                |s: String| -> Result<u64, String> {
                    s.parse::<f64>()
                        .map(|v| (v * 1e6) as u64)
                        .map_err(|e| format!("bad seconds value: {e}"))
                };
            let f = Filter {
                kind: flag_value(rest, "--kind"),
                track: flag_value(rest, "--track"),
                from_us: flag_value(rest, "--from").map(secs).transpose()?,
                to_us: flag_value(rest, "--to").map(secs).transpose()?,
            };
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
            let path = args.get(1).ok_or(USAGE)?;
            let json = perfetto::export(&load(path)?);
            match flag_value(&args[2..], "--out") {
                Some(out) => {
                    std::fs::write(&out, &json)
                        .map_err(|e| format!("cannot write {out}: {e}"))?;
                    eprintln!("wrote {out} (load it at ui.perfetto.dev)");
                }
                None => print!("{json}"),
            }
        }
        _ => return Err(USAGE.to_string()),
    }
    Ok(())
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
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
