//! `failmpi-prof` — analysis CLI for deterministic run profiles.
//!
//! ```text
//! failmpi-prof report PROFILE [--top N] [--by allocs|bytes|events|time]
//! failmpi-prof top PROFILE...
//! failmpi-prof flame PROFILE [--out PATH]
//! ```
//!
//! `PROFILE` files are the JSON written by `figure <name>` or soak
//! under `--profile PATH`. `flame` emits collapsed-stack lines for
//! standard flamegraph tooling (`flamegraph.pl`, speedscope, inferno).

use std::process::ExitCode;

use failmpi_prof::{report, top, RunProfile, SortBy};

fn die(msg: &str) -> ! {
    eprintln!("failmpi-prof: {msg}");
    std::process::exit(2);
}

fn load(path: &str) -> RunProfile {
    let raw = std::fs::read_to_string(path)
        .unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
    RunProfile::from_json(&raw).unwrap_or_else(|e| die(&format!("{path}: {e}")))
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let usage = "usage: failmpi-prof <report|top|flame> ... (see --help per command)";
    let Some(cmd) = args.next() else { die(usage) };
    match cmd.as_str() {
        "report" => {
            let mut path = None;
            let mut top_n = 15usize;
            let mut by = SortBy::Allocs;
            while let Some(a) = args.next() {
                match a.as_str() {
                    "--top" => {
                        top_n = args
                            .next()
                            .and_then(|v| v.parse().ok())
                            .unwrap_or_else(|| die("--top needs a number"))
                    }
                    "--by" => {
                        by = args
                            .next()
                            .as_deref()
                            .and_then(SortBy::parse)
                            .unwrap_or_else(|| die("--by needs allocs|bytes|events|time"))
                    }
                    "--help" | "-h" => die("usage: failmpi-prof report PROFILE [--top N] [--by allocs|bytes|events|time]"),
                    other if path.is_none() && !other.starts_with('-') => {
                        path = Some(other.to_string())
                    }
                    other => die(&format!("unknown argument `{other}`")),
                }
            }
            let path = path.unwrap_or_else(|| die("report needs a PROFILE path"));
            print!("{}", report(&load(&path), top_n, by));
            ExitCode::SUCCESS
        }
        "top" => {
            let paths: Vec<String> = args.filter(|a| {
                if a == "--help" || a == "-h" {
                    die("usage: failmpi-prof top PROFILE...")
                }
                true
            }).collect();
            if paths.is_empty() {
                die("top needs at least one PROFILE path");
            }
            let profiles: Vec<(String, RunProfile)> =
                paths.into_iter().map(|p| (p.clone(), load(&p))).collect();
            print!("{}", top(&profiles));
            ExitCode::SUCCESS
        }
        "flame" => {
            let mut path = None;
            let mut out = None;
            while let Some(a) = args.next() {
                match a.as_str() {
                    "--out" => out = Some(args.next().unwrap_or_else(|| die("--out needs a path"))),
                    "--help" | "-h" => die("usage: failmpi-prof flame PROFILE [--out PATH]"),
                    other if path.is_none() && !other.starts_with('-') => {
                        path = Some(other.to_string())
                    }
                    other => die(&format!("unknown argument `{other}`")),
                }
            }
            let path = path.unwrap_or_else(|| die("flame needs a PROFILE path"));
            let collapsed = load(&path).to_collapsed();
            match out {
                Some(dest) => {
                    std::fs::write(&dest, &collapsed)
                        .unwrap_or_else(|e| die(&format!("cannot write {dest}: {e}")));
                    eprintln!("failmpi-prof: wrote collapsed stacks to {dest}");
                }
                None => print!("{collapsed}"),
            }
            ExitCode::SUCCESS
        }
        "--help" | "-h" => {
            println!("{usage}");
            ExitCode::SUCCESS
        }
        other => die(&format!("unknown command `{other}` — {usage}")),
    }
}
