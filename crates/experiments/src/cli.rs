//! Minimal argument handling shared by the figure binaries.

use failmpi_backend::BackendKind;

use crate::harness::{set_default_backend, set_default_expect_freeze, set_default_lint_mode, LintMode};

/// Options common to every figure binary.
#[derive(Clone, Debug, Default)]
pub struct Options {
    /// Run the seconds-scale smoke configuration instead of paper scale.
    pub smoke: bool,
    /// Override the per-point run count.
    pub runs: Option<usize>,
    /// Override the worker-thread count.
    pub threads: Option<usize>,
    /// Write the figure data as JSON to this path.
    pub json: Option<String>,
    /// Where `--metrics`, `--trace-out` and `--profile` write.
    pub telemetry: crate::telemetry::Outputs,
    /// Scenario lint gate (`--lint off|warn|strict`); also installed as
    /// the process-wide default so every spec the binary builds picks it
    /// up.
    pub lint: Option<LintMode>,
    /// Declare that the sweep hunts freezes: with `--lint strict`, run
    /// scenarios the model checker statically classifies as freezing
    /// instead of refusing them. Also installed as the process-wide
    /// default (see [`crate::harness::set_default_expect_freeze`]).
    pub expect_freeze: bool,
    /// Protocol backend under test (`--backend vcl|ulfm|replica`); also
    /// installed as the process-wide default so every spec the binary
    /// builds picks it up (see [`crate::harness::set_default_backend`]).
    pub backend: Option<BackendKind>,
}

impl Options {
    /// Parses `args` (without the program name). Returns `Err(usage)` on
    /// unknown flags.
    pub fn parse(args: impl Iterator<Item = String>) -> Result<Options, String> {
        let mut o = Options::default();
        let mut args = args.peekable();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--smoke" => o.smoke = true,
                "--runs" => {
                    o.runs = Some(
                        args.next()
                            .and_then(|v| v.parse().ok())
                            .ok_or("--runs needs a number")?,
                    )
                }
                "--threads" => {
                    o.threads = Some(
                        args.next()
                            .and_then(|v| v.parse().ok())
                            .ok_or("--threads needs a number")?,
                    )
                }
                "--json" => o.json = Some(args.next().ok_or("--json needs a path")?),
                flag if o.telemetry.parse_flag(flag, &mut args)? => {}
                "--lint" => {
                    let mode = args
                        .next()
                        .as_deref()
                        .and_then(LintMode::parse)
                        .ok_or("--lint needs off|warn|strict")?;
                    set_default_lint_mode(mode);
                    o.lint = Some(mode);
                }
                "--expect-freeze" => {
                    set_default_expect_freeze(true);
                    o.expect_freeze = true;
                }
                "--backend" => {
                    let kind: BackendKind = args
                        .next()
                        .ok_or("--backend needs vcl|ulfm|replica")?
                        .parse()
                        .map_err(|_| "--backend needs vcl|ulfm|replica")?;
                    set_default_backend(kind);
                    o.backend = Some(kind);
                }
                "--help" | "-h" => {
                    return Err("usage: [--smoke] [--runs N] [--threads N] [--json PATH] \
                                [--metrics PATH] [--trace-out PATH] [--profile PATH] \
                                [--lint off|warn|strict] [--expect-freeze] \
                                [--backend vcl|ulfm|replica]"
                        .to_string())
                }
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        Ok(o)
    }

    /// Writes `data` as JSON if `--json` was given.
    pub fn maybe_write_json<T: serde::Serialize>(&self, data: &T) -> std::io::Result<()> {
        if let Some(path) = &self.json {
            let json = serde_json::to_string_pretty(data).expect("serializable");
            std::fs::write(path, json)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        Options::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_flags() {
        let o = parse(&[
            "--smoke", "--runs", "3", "--threads", "2", "--json", "x.json", "--metrics",
            "m.json", "--trace-out", "t.json", "--profile", "p.json",
        ])
        .unwrap();
        assert!(o.smoke);
        assert_eq!(o.runs, Some(3));
        assert_eq!(o.threads, Some(2));
        assert_eq!(o.json.as_deref(), Some("x.json"));
        assert_eq!(o.telemetry.metrics.as_deref(), Some("m.json"));
        assert_eq!(o.telemetry.trace_out.as_deref(), Some("t.json"));
        assert_eq!(o.telemetry.profile.as_deref(), Some("p.json"));
    }

    #[test]
    fn rejects_unknown() {
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--runs"]).is_err());
        assert!(parse(&["--runs", "abc"]).is_err());
        assert!(parse(&["--metrics"]).is_err());
        assert!(parse(&["--trace-out"]).is_err());
        assert!(parse(&["--profile"]).is_err());
    }

    #[test]
    fn empty_is_default() {
        let o = parse(&[]).unwrap();
        assert!(!o.smoke);
        assert_eq!(o.runs, None);
        assert_eq!(o.lint, None);
    }

    #[test]
    fn lint_flag_sets_process_default() {
        use crate::harness::{default_lint_mode, LintMode};
        let before = default_lint_mode();
        let o = parse(&["--lint", "strict"]).unwrap();
        assert_eq!(o.lint, Some(LintMode::Strict));
        assert_eq!(default_lint_mode(), LintMode::Strict);
        crate::harness::set_default_lint_mode(before);
        assert!(parse(&["--lint", "bogus"]).is_err());
        assert!(parse(&["--lint"]).is_err());
    }

    #[test]
    fn backend_flag_sets_process_default() {
        use crate::harness::default_backend;
        let before = default_backend();
        assert_eq!(parse(&[]).unwrap().backend, None);
        let o = parse(&["--backend", "ulfm"]).unwrap();
        assert_eq!(o.backend, Some(BackendKind::Ulfm));
        assert_eq!(default_backend(), BackendKind::Ulfm);
        crate::harness::set_default_backend(before);
        assert!(parse(&["--backend", "bogus"]).is_err());
        assert!(parse(&["--backend"]).is_err());
    }

    #[test]
    fn expect_freeze_flag_sets_process_default() {
        use crate::harness::default_expect_freeze;
        assert!(!parse(&[]).unwrap().expect_freeze);
        let o = parse(&["--expect-freeze"]).unwrap();
        assert!(o.expect_freeze);
        assert!(default_expect_freeze());
        crate::harness::set_default_expect_freeze(false);
    }
}
