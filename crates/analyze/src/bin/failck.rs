//! failck: one static-analysis gate, four input surfaces — FAIL
//! scenarios (FA codes), MPI op-programs (FB), the cross-layer model
//! checker (FC), fuzz findings artifacts (FZ), and the workspace's own
//! Rust source (SD/SU determinism & unsafe-discipline lints).
//!
//! Exit status is one matrix across every mode: 0 clean, 1 findings at
//! the failing severity, 2 usage or I/O error. `--help` prints the
//! usage and exits 0; only malformed invocations exit 2.
//!
//! `--findings` applies the same exit-code matrix to a `failmpi-fuzz`
//! findings artifact (an array of reports carrying FZ-coded diagnostics):
//! a malformed or empty-shaped file exits 2 rather than 0, so a CI gate
//! grepping the output can never pass vacuously.
//!
//! `--src` runs the `failmpi-srclint` determinism/unsafe rules over
//! `.rs` files or directories (default: the current directory), one
//! report per file, skipping `target/`, `vendor/`, fixtures, goldens
//! and corpora. Findings are suppressible only by an inline
//! `// srclint: allow(CODE): <reason>` pragma; a reasonless allow is
//! itself a finding (SP001).
//!
//! `--compile FILE` is the FAIL compiler step on its own: it prints a
//! summary of the compiled automata. A scenario that does not compile is
//! the FA000 finding `failck FILE` reports for it (exit 1).

use std::process::ExitCode;

use failmpi_analyze::cli::{self, count, json_format, Args, Flag, COUNT};
use failmpi_analyze::{
    analyze_programs, builtin, check_source, check_src_paths, compile_error_diag,
    model_check_source, read_findings, BackendKind, CodeCount, FindingsError, ModelCheckConfig,
    Report, SrcLintConfig,
};
use failmpi_core::{compile, Deployment, Scenario};
use serde::Serialize;

struct Options {
    files: Vec<String>,
    builtin: bool,
    json: bool,
    strict: bool,
    model_check: bool,
    budget: Option<usize>,
    findings: Option<String>,
    compile: Option<String>,
    src: bool,
    reduce: bool,
    threads: Option<usize>,
    ranks: Option<usize>,
    hosts: Option<usize>,
    backend: BackendKind,
}

const USAGE: &str = "usage: failck [FILES...] [--builtin] [--format human|json] [--strict]
              [--model-check] [--backend vcl|ulfm|replica] [--budget N]
              [--reduce] [--threads N] [--ranks N] [--hosts N]
              [--findings FILE] [--src [PATH...]] [--compile FILE]

modes (one exit-code matrix: 0 clean, 1 findings, 2 usage/I-O error):
  FILES...            lint FAIL scenario sources (FA codes)
  --builtin           lint every bundled scenario and op-program (FA/FB)
  --model-check       also explore the scenario x protocol product (FC)
  --findings FILE     gate a failmpi-fuzz findings artifact (FZ)
  --src [PATH...]     lint the workspace's own Rust source (SD/SU);
                      PATHs are .rs files or directories, default `.`
  --compile FILE      compile one scenario (the FCI compiler step) and
                      summarise its automata. A scenario that does not
                      compile is an FA000 finding (1)

examples:
  failck scenario.fail other.fail        # human-readable findings
  failck scenario.fail --format json     # machine-readable (CI artifact)
  failck --builtin --strict              # warnings also fail the run
  failck fig.fail --model-check --backend ulfm
  failck fig.fail --model-check --reduce --ranks 25 --threads 4
  failck --findings findings.json        # gate a fuzz findings file
  failck --src .                         # determinism lints, whole tree
  failck --src crates/mpichv --strict --format json
  failck --compile fig.fail              # the compiled automata";

const FLAGS: &[Flag] = &[
    Flag::Switch("--builtin"),
    Flag::Switch("--src"),
    Flag::Switch("--strict"),
    Flag::Switch("--model-check"),
    Flag::Switch("--reduce"),
    Flag::Value("--budget", COUNT),
    // One OS thread per worker per frontier layer.
    Flag::Count("--threads", 256),
    Flag::Value("--ranks", COUNT),
    Flag::Value("--hosts", COUNT),
    Flag::Value("--backend", "vcl|ulfm|replica"),
    Flag::Value("--findings", "a path"),
    Flag::Value("--compile", "a path"),
    Flag::Value("--format", "human|json"),
];

fn parse(args: &[String]) -> Result<Options, String> {
    let args = Args::parse(args, FLAGS)?;
    let mut opts = Options {
        files: args.positional().iter().map(|f| f.to_string()).collect(),
        builtin: args.switch("--builtin"),
        json: args.flag("--format", json_format)?.unwrap_or(false),
        strict: args.switch("--strict"),
        model_check: args.switch("--model-check"),
        budget: args.flag("--budget", count)?,
        findings: args.value("--findings").map(str::to_string),
        compile: args.value("--compile").map(str::to_string),
        src: args.switch("--src"),
        reduce: args.switch("--reduce"),
        threads: args.count("--threads")?,
        ranks: args.flag("--ranks", count)?,
        hosts: args.flag("--hosts", count)?,
        backend: args.parsed("--backend")?.unwrap_or(BackendKind::Vcl),
    };
    // A standalone mode answers one question with its exit code: mixing it
    // with another mode or with lint inputs would make one exit code answer
    // two. `--src`'s positionals are its own paths, not scenarios.
    let standalone = [
        ("--findings", opts.findings.is_some()),
        ("--compile", opts.compile.is_some()),
        ("--src", opts.src),
    ];
    if let Some(&(mode, _)) = standalone.iter().find(|(_, on)| *on) {
        let scenario_inputs = [("--builtin", opts.builtin), ("--model-check", opts.model_check)];
        let flag = standalone.iter().chain(&scenario_inputs).find(|&&(m, on)| on && m != mode);
        let file = opts.files.first().filter(|_| mode != "--src");
        if let Some(other) = flag.map(|(m, _)| m.to_string()).or(file.map(|f| format!("`{f}`"))) {
            return Err(format!("{mode} is a standalone mode: drop {other}"));
        }
    } else if opts.files.is_empty() && !opts.builtin {
        return Err("nothing to check: give FILES, --builtin, --findings, --src or --compile".into());
    }
    if opts.src && opts.files.is_empty() {
        opts.files.push(".".to_string());
    }
    if let (Some(r), Some(h)) = (opts.ranks, opts.hosts) {
        // The deployment needs at least one machine per rank.
        if h < r {
            return Err(format!("--hosts {h} is fewer than --ranks {r}: each rank needs a machine"));
        }
    }
    Ok(opts)
}

/// Lints `src`, optionally appending the model checker's FC findings and
/// exploration summary.
fn check_one(subject: String, src: &str, opts: &Options) -> Report {
    let mut diags = check_source(src);
    let mut model = None;
    if opts.model_check {
        let mut cfg = ModelCheckConfig {
            backend: opts.backend,
            ..Default::default()
        };
        if let Some(b) = opts.budget {
            cfg.budget = b;
        }
        if let Some(r) = opts.ranks {
            cfg.n_ranks = r;
            // Default deployment shape: one spare machine, like the
            // 2-rank/3-host default, unless --hosts pins it.
            cfg.n_hosts = opts.hosts.unwrap_or(r + 1);
        } else if let Some(h) = opts.hosts {
            cfg.n_hosts = h;
        }
        cfg.reduce = opts.reduce;
        cfg.threads = opts.threads.unwrap_or(1);
        let r = model_check_source(src, &cfg);
        diags.extend(r.diagnostics);
        model = Some(r.summary);
    }
    let report = Report::new(subject, diags);
    match model {
        Some(m) => report.with_model(m),
        None => report,
    }
}

/// The findings gate's machine-readable summary (`--format json`): CI
/// greps this — not the input file — so a diagnostic code only appears
/// here after failck has actually validated the artifact's shape.
#[derive(Serialize)]
struct FindingsGate {
    findings_file: String,
    reports: usize,
    errors: usize,
    warnings: usize,
    by_code: Vec<CodeCount>,
}

/// Gates a `failmpi-fuzz` findings artifact through the standard exit-code
/// matrix. Exit 2 on unreadable/unparseable/misshapen input, 1 when any
/// error-severity finding is present (or any finding at all under
/// `--strict`), 0 when the well-formed file is clean.
fn findings_mode(path: &str, json: bool, strict: bool) -> Result<ExitCode, String> {
    let f = read_findings(&read(path)?).map_err(|e| match e {
        FindingsError::NotJson(e) => format!("`{path}` is not valid JSON: {e}"),
        FindingsError::Misshapen(what) => format!("`{path}` is not a findings file: {what}"),
    })?;

    let (errors, warnings) = (f.errors, f.warnings);
    if json {
        let gate = FindingsGate {
            findings_file: path.to_string(),
            reports: f.reports,
            errors,
            warnings,
            by_code: f.by_code,
        };
        println!(
            "{}",
            serde_json::to_string_pretty(&gate).expect("gate serializes")
        );
    } else {
        for line in &f.lines {
            println!("{line}");
        }
        println!(
            "failck: {} finding report(s), {errors} error(s), {warnings} warning(s)",
            f.reports
        );
    }

    Ok(if errors > 0 || (strict && warnings > 0) {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

/// The text of `path`; a path that cannot be read as text is a usage error.
fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))
}

/// `--compile` of a scenario that compiles: a summary of its automata.
fn print_compiled(path: &str, scenario: &Scenario) {
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
    match Deployment::from_suggested(scenario) {
        Ok(d) if !d.is_empty() => println!("deployment: {} instances", d.len()),
        _ => println!("deployment: none declared (bind programmatically)"),
    }
}

fn main() -> ExitCode {
    cli::main("failck", USAGE, |args| run(&parse(args)?))
}

fn run(opts: &Options) -> Result<ExitCode, String> {
    if let Some(path) = &opts.findings {
        return findings_mode(path, opts.json, opts.strict);
    }

    let mut reports: Vec<Report> = Vec::new();
    if let Some(path) = &opts.compile {
        // A scenario that does not compile is reported as `failck FILE`
        // reports it: an FA000 finding, rendered below.
        match compile(&read(path)?) {
            Ok(scenario) => {
                print_compiled(path, &scenario);
                return Ok(ExitCode::SUCCESS);
            }
            Err(e) => reports.push(Report::new(path.clone(), vec![compile_error_diag(&e)])),
        }
    } else if opts.src {
        reports = check_src_paths(&opts.files, &SrcLintConfig::default())?;
    } else {
        for path in &opts.files {
            reports.push(check_one(path.clone(), &read(path)?, opts));
        }
    }
    if opts.builtin {
        for (name, src) in builtin::BUILTIN_SCENARIOS {
            reports.push(check_one(format!("builtin:{name}"), src, opts));
        }
        for (label, programs) in builtin::builtin_programs() {
            reports.push(Report::new(
                format!("builtin:{label}"),
                analyze_programs(&programs),
            ));
        }
    }

    // A deployment the model checker cannot represent is a bad
    // `--ranks`/`--hosts`/`--backend` combination, not a finding about the
    // scenario: usage error, nothing rendered.
    let unmodellable = reports
        .iter()
        .find_map(|r| Some((r, r.diagnostics.iter().find(|d| d.code == "FC000")?)));
    if let Some((r, d)) = unmodellable {
        return Err(format!("{}: {}", r.subject, d.message));
    }

    if opts.json {
        println!(
            "{}",
            serde_json::to_string_pretty(&reports).expect("reports serialize")
        );
    } else {
        let mut clean = 0usize;
        for r in &reports {
            if r.diagnostics.is_empty() && r.model.is_none() {
                clean += 1;
            } else {
                print!("{}", r.render_human());
            }
        }
        let errors: usize = reports.iter().map(Report::error_count).sum();
        let warnings: usize = reports.iter().map(Report::warning_count).sum();
        println!(
            "failck: {} artifact(s) checked, {clean} clean, {errors} error(s), \
             {warnings} warning(s)",
            reports.len()
        );
    }

    let failing = reports.iter().any(|r| {
        // Info-level findings (FC007 reduction stats) never gate.
        r.has_errors() || (opts.strict && r.has_gating_findings())
    });
    Ok(if failing {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}
