//! `failc` — the FAIL scenario compiler CLI (the FCI compiler step).
//!
//! Usage: `failc <scenario.fail> [--emit-rust]`
//!
//! Parses and compiles a FAIL scenario, reports diagnostics, and either
//! summarises the compiled automata or emits the generated Rust source.
//! Exit status: 0 on success (and `--help`), 2 for a usage error, an
//! unreadable file or a scenario that does not compile — the contract the
//! other binaries of this package keep.

use failmpi_core::lang::codegen;
use failmpi_core::{compile, Deployment};

failmpi_experiments::install_alloc_profiler!();

fn main() {
    const USAGE: &str = "usage: failc <scenario.fail> [--emit-rust]";
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (path, emit_rust) = match args.as_slice() {
        [h] if h == "--help" || h == "-h" => return println!("{USAGE}"),
        [p] => (p.clone(), false),
        [p, flag] if flag == "--emit-rust" => (p.clone(), true),
        _ => {
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    let src = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("failc: cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    let scenario = match compile(&src) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("failc: {path}: {e}");
            std::process::exit(2);
        }
    };
    if emit_rust {
        print!("{}", codegen::generate(&scenario));
        return;
    }
    println!("scenario: {path}");
    println!(
        "params:   {}",
        scenario
            .param_names
            .iter()
            .zip(&scenario.param_defaults)
            .map(|(n, v)| format!("{n}={v}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!("messages: {}", scenario.messages.join(", "));
    for c in &scenario.classes {
        let transitions: usize = c.nodes.iter().map(|n| n.transitions.len()).sum();
        println!(
            "daemon {} — {} nodes, {} transitions, vars [{}], timers [{}]",
            c.name,
            c.nodes.len(),
            transitions,
            c.var_names.join(", "),
            c.timer_names.join(", "),
        );
    }
    match Deployment::from_suggested(&scenario) {
        Ok(d) if !d.is_empty() => println!("deployment: {} instances", d.len()),
        _ => println!("deployment: none declared (bind programmatically)"),
    }
}
