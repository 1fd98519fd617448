//! `trace` — run one experiment under a FAIL scenario and print its
//! execution timeline (the paper's trace-analysis workflow as a command).
//!
//! ```sh
//! trace <scenario.fail> [--adversary CLASS] [--machines CLASS]
//!       [--ranks N] [--seed S] [--param NAME=VALUE]... [--lifecycle]
//!       [--smoke] [--backend vcl|ulfm|replica] [--trace-out PATH]
//! ```
//!
//! The run always executes with causal tracing on, so timeline failure
//! lines carry their immediate cause; `--trace-out PATH` additionally
//! writes the full happens-before trace for `failmpi-trace`
//! explain/export/diff. Input the run cannot use — an unreadable or
//! non-compiling scenario, classes or parameters it does not declare, a
//! non-square rank count — exits 2 with a diagnostic.

use failmpi_sim::{SimDuration, SimTime};
use failmpi_mpichv::VclConfig;
use failmpi_workloads::BtClass;

use failmpi_experiments::harness::{run, ExperimentSpec, InjectionSpec, Observe, Workload};
use failmpi_experiments::timeline::{render, TimelineOptions};
use failmpi_experiments::tracesink::TraceExport;

failmpi_experiments::install_alloc_profiler!();

fn die(msg: &str) -> ! {
    eprintln!("trace: {msg}");
    std::process::exit(2);
}

const USAGE: &str = "usage: trace <scenario.fail> [--adversary C] [--machines C] [--ranks N] [--seed S] [--param N=V]... [--lifecycle] [--smoke] [--backend vcl|ulfm|replica] [--trace-out PATH]";

fn main() {
    if std::env::args().skip(1).any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return;
    }
    let mut args = std::env::args().skip(1);
    let Some(path) = args.next() else { die(USAGE) };
    let mut adversary = "ADV1".to_string();
    let mut machines = "ADVnodes".to_string();
    let mut ranks = 4u32;
    let mut seed = 1u64;
    let mut params: Vec<(String, i64)> = Vec::new();
    let mut lifecycle = false;
    let mut smoke = true;
    let mut backend = failmpi_backend::BackendKind::Vcl;
    let mut trace_out: Option<String> = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--adversary" => adversary = args.next().unwrap_or_else(|| die("--adversary needs a class")),
            "--machines" => machines = args.next().unwrap_or_else(|| die("--machines needs a class")),
            "--ranks" => {
                ranks = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--ranks needs a number"))
            }
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--seed needs a number"))
            }
            "--param" => {
                let kv = args.next().unwrap_or_else(|| die("--param needs NAME=VALUE"));
                let (k, v) = kv.split_once('=').unwrap_or_else(|| die("--param needs NAME=VALUE"));
                let v: i64 = v.parse().unwrap_or_else(|_| die("--param value must be an integer"));
                params.push((k.to_string(), v));
            }
            "--lifecycle" => lifecycle = true,
            "--smoke" => smoke = true,
            "--paper" => smoke = false,
            "--backend" => {
                backend = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--backend needs vcl|ulfm|replica"))
            }
            "--trace-out" => {
                trace_out =
                    Some(args.next().unwrap_or_else(|| die("--trace-out needs a path")))
            }
            other => die(&format!("unknown flag `{other}`")),
        }
    }
    if !failmpi_workloads::bt::is_valid_rank_count(ranks) {
        die(&format!("--ranks must be a square number (4, 9, 16, ...), got {ranks}"));
    }
    let src = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));

    let (cluster, class, timeout) = if smoke {
        let mut c = VclConfig::small(ranks, SimDuration::from_secs(2));
        c.ssh_stagger = SimDuration::from_millis(20);
        c.restart_overhead = SimDuration::from_millis(400);
        c.terminate_delay = SimDuration::from_millis(30);
        (c, BtClass::S, 90)
    } else {
        let c = VclConfig {
            n_ranks: ranks,
            n_compute_hosts: ranks as usize + 4,
            ..VclConfig::default()
        };
        (c, BtClass::B, 1500)
    };
    let mut inj = InjectionSpec::new(&src, &adversary, &machines);
    inj.backend = backend;
    for (k, v) in &params {
        inj = inj.with_param(k, *v);
    }
    let spec = ExperimentSpec {
        cluster,
        workload: Workload::Bt(class),
        injection: Some(inj),
        timeout: SimTime::from_secs(timeout),
        freeze_window: SimDuration::from_secs(timeout / 10),
        seed,
        tie_break: failmpi_sim::TieBreak::Fifo,
        backend,
    };
    let observe = Observe {
        causal: true,
        ..Observe::default()
    };
    let traced = run(&spec, observe)
        .unwrap_or_else(|report| die(&format!("cannot run {path}:\n{}", report.render_human())));
    print!(
        "{}",
        render(
            &traced,
            TimelineOptions {
                collapse_progress: true,
                lifecycle,
            }
        )
    );
    let record = &traced.record;
    println!(
        "\nverdict: {:?} ({} faults injected, {} recoveries, {} waves committed)",
        record.outcome, record.faults_injected, record.recoveries, record.waves_committed
    );
    if let Some(out) = trace_out {
        let name = std::path::Path::new(&path)
            .file_stem()
            .map_or_else(|| "trace".to_string(), |s| s.to_string_lossy().into_owned());
        TraceExport::of(&name, seed, &traced)
            .write_to(&out)
            .unwrap_or_else(|e| die(&format!("cannot write {out}: {e}")));
        eprintln!("trace: wrote causal trace to {out} (inspect with failmpi-trace)");
    }
}
