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

use std::process::ExitCode;

use failmpi_analyze::{
    analyze_programs, builtin, check_source, check_src_paths, model_check_source, read_findings,
    BackendKind, CodeCount, FindingsError, ModelCheckConfig, Report, SrcLintConfig,
};
use serde::Serialize;

struct Options {
    files: Vec<String>,
    builtin: bool,
    json: bool,
    strict: bool,
    model_check: bool,
    budget: Option<usize>,
    findings: Option<String>,
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
              [--findings FILE] [--src [PATH...]]

modes (one exit-code matrix: 0 clean, 1 findings, 2 usage/I-O error):
  FILES...            lint FAIL scenario sources (FA codes)
  --builtin           lint every bundled scenario and op-program (FA/FB)
  --model-check       also explore the scenario x protocol product (FC)
  --findings FILE     gate a failmpi-fuzz findings artifact (FZ)
  --src [PATH...]     lint the workspace's own Rust source (SD/SU);
                      PATHs are .rs files or directories, default `.`

examples:
  failck scenario.fail other.fail        # human-readable findings
  failck scenario.fail --format json     # machine-readable (CI artifact)
  failck --builtin --strict              # warnings also fail the run
  failck fig.fail --model-check --backend ulfm
  failck fig.fail --model-check --reduce --ranks 25 --threads 4
  failck --findings findings.json        # gate a fuzz findings file
  failck --src .                         # determinism lints, whole tree
  failck --src crates/mpichv --strict --format json";

fn usage_error() -> ExitCode {
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn parse_args() -> Result<Options, ExitCode> {
    let mut opts = Options {
        files: Vec::new(),
        builtin: false,
        json: false,
        strict: false,
        model_check: false,
        budget: None,
        findings: None,
        src: false,
        reduce: false,
        threads: None,
        ranks: None,
        hosts: None,
        backend: BackendKind::Vcl,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--builtin" => opts.builtin = true,
            "--src" => opts.src = true,
            "--strict" => opts.strict = true,
            "--model-check" => opts.model_check = true,
            "--reduce" => opts.reduce = true,
            "--budget" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => opts.budget = Some(n),
                _ => return Err(usage_error()),
            },
            "--threads" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => opts.threads = Some(n),
                _ => return Err(usage_error()),
            },
            "--backend" => match args.next().and_then(|v| v.parse().ok()) {
                Some(k) => opts.backend = k,
                None => return Err(usage_error()),
            },
            "--ranks" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => opts.ranks = Some(n),
                _ => return Err(usage_error()),
            },
            "--hosts" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => opts.hosts = Some(n),
                _ => return Err(usage_error()),
            },
            "--findings" => match args.next() {
                Some(p) => opts.findings = Some(p),
                None => return Err(usage_error()),
            },
            "--format" => match args.next().as_deref() {
                Some("human") => opts.json = false,
                Some("json") => opts.json = true,
                _ => return Err(usage_error()),
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return Err(ExitCode::SUCCESS);
            }
            f if !f.starts_with('-') => opts.files.push(f.to_string()),
            _ => return Err(usage_error()),
        }
    }
    if opts.findings.is_some() {
        // Findings gating is a standalone mode: mixing it with lint
        // inputs would make one exit code answer two questions.
        if !opts.files.is_empty() || opts.builtin || opts.model_check || opts.src {
            return Err(usage_error());
        }
    } else if opts.src {
        // Source lints are standalone too: the positional arguments are
        // .rs files/directories, not scenarios, and the scenario-specific
        // flags have no meaning over Rust source.
        if opts.builtin || opts.model_check {
            return Err(usage_error());
        }
        if opts.files.is_empty() {
            opts.files.push(".".to_string());
        }
    } else if opts.files.is_empty() && !opts.builtin {
        return Err(usage_error());
    }
    if let (Some(r), Some(h)) = (opts.ranks, opts.hosts) {
        // The deployment needs at least one machine per rank.
        if h < r {
            return Err(usage_error());
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
fn findings_mode(path: &str, json: bool, strict: bool) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("failck: cannot read `{path}`: {e}");
            return ExitCode::from(2);
        }
    };
    let f = match read_findings(&text) {
        Ok(f) => f,
        Err(FindingsError::NotJson(e)) => {
            eprintln!("failck: `{path}` is not valid JSON: {e}");
            return ExitCode::from(2);
        }
        Err(FindingsError::Misshapen(what)) => {
            eprintln!("failck: `{path}` is not a findings file: {what}");
            return ExitCode::from(2);
        }
    };

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

    if errors > 0 || (strict && warnings > 0) {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(code) => return code,
    };
    if let Some(path) = &opts.findings {
        return findings_mode(path, opts.json, opts.strict);
    }

    let mut reports: Vec<Report> = Vec::new();
    if opts.src {
        match check_src_paths(&opts.files, &SrcLintConfig::default()) {
            Ok(r) => reports = r,
            Err(e) => {
                eprintln!("failck: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if !opts.src {
        for path in &opts.files {
            let src = match std::fs::read_to_string(path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("failck: cannot read `{path}`: {e}");
                    return ExitCode::from(2);
                }
            };
            reports.push(check_one(path.clone(), &src, &opts));
        }
    }
    if opts.builtin {
        for (name, src) in builtin::BUILTIN_SCENARIOS {
            reports.push(check_one(format!("builtin:{name}"), src, &opts));
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
        eprintln!("failck: {}: {}", r.subject, d.message);
        return ExitCode::from(2);
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
    if failing {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
