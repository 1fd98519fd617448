//! Argument handling of the `figure` binary.

use failmpi_analyze::cli::{Args, Flag};
use failmpi_backend::BackendKind;

use crate::figures::Common;
use crate::harness::LintMode;
use crate::telemetry::{self, Outputs};

/// The flags every figure takes.
pub const USAGE: &str = "[--smoke] [--runs N] [--threads N] [--json PATH] \
                         [--metrics PATH] [--trace-out PATH] [--profile PATH] \
                         [--lint off|warn|strict] [--expect-freeze] \
                         [--backend vcl|ulfm|replica]";

/// The most runs per point `figure --runs` and `soak --runs` take: each
/// run's spec is held in memory before the sweep starts.
pub const MAX_RUNS: usize = 10_000;

/// What each of the [`USAGE`] flags takes.
pub const FLAGS: &[Flag] = &[
    Flag::Switch("--smoke"),
    Flag::Count("--runs", MAX_RUNS),
    // One OS thread per worker: the ceiling `failck --threads` has.
    Flag::Count("--threads", 256),
    Flag::Value("--json", "a path"),
    telemetry::METRICS_FLAG,
    telemetry::TRACE_OUT_FLAG,
    telemetry::PROFILE_FLAG,
    Flag::Value("--lint", "off|warn|strict"),
    Flag::Switch("--expect-freeze"),
    Flag::Value("--backend", "vcl|ulfm|replica"),
];

/// Options common to every figure.
#[derive(Clone, Debug, Default)]
pub struct Options {
    /// Run the seconds-scale smoke configuration instead of paper scale.
    pub smoke: bool,
    /// Override the per-point run count.
    pub runs: Option<usize>,
    /// Override the worker-thread count (unset: all cores).
    pub threads: Option<usize>,
    /// Write the figure data as JSON to this path.
    pub json: Option<String>,
    /// Where `--metrics`, `--trace-out` and `--profile` write.
    pub telemetry: Outputs,
    /// Scenario lint gate (`--lint off|warn|strict`).
    pub lint: Option<LintMode>,
    /// Declare that the sweep hunts freezes: with `--lint strict`, run
    /// scenarios the model checker statically classifies as freezing
    /// instead of refusing them.
    pub expect_freeze: bool,
    /// Protocol backend under test (`--backend vcl|ulfm|replica`).
    pub backend: Option<BackendKind>,
}

impl Options {
    /// Reads the figure flags from `args`, split against [`FLAGS`] (the
    /// positionals are the caller's). Touches nothing outside the returned
    /// value.
    pub fn from_args(args: &Args) -> Result<Options, String> {
        Ok(Options {
            smoke: args.switch("--smoke"),
            runs: args.count("--runs")?,
            threads: args.count("--threads")?,
            json: args.value("--json").map(str::to_string),
            telemetry: Outputs::from_args(args),
            lint: args.flag("--lint", LintMode::parse)?,
            expect_freeze: args.switch("--expect-freeze"),
            backend: args.parsed("--backend")?,
        })
    }

    /// Overrides `common` with what the flags chose.
    pub fn apply(&self, common: &mut Common) {
        common.runs = self.runs.unwrap_or(common.runs);
        common.threads = self.threads.unwrap_or(common.threads);
        common.backend = self.backend.unwrap_or(common.backend);
        common.lint = self.lint.unwrap_or(common.lint);
        common.expect_freeze |= self.expect_freeze;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        Options::from_args(&Args::parse(&args, FLAGS)?)
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
        assert!(parse(&["--runs", "0"]).is_err());
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

    /// The flags travel in the returned value only: specs built after a
    /// parse still get the constants.
    #[test]
    fn parse_is_pure() {
        use crate::harness::{ExperimentSpec, InjectionSpec};
        let o = parse(&["--lint", "strict", "--backend", "ulfm", "--expect-freeze"]).unwrap();
        assert_eq!(o.lint, Some(LintMode::Strict));
        assert_eq!(o.backend, Some(BackendKind::Ulfm));
        assert!(o.expect_freeze);
        let inj = InjectionSpec::new(crate::figures::FIG5_SRC, "ADV1", "ADVnodes");
        assert_eq!(inj.lint, LintMode::Warn);
        assert!(!inj.expect_freeze);
        assert_eq!(inj.backend, BackendKind::Vcl);
        let spec = ExperimentSpec::fault_free(4, failmpi_workloads::BtClass::S, 1);
        assert_eq!(spec.backend, BackendKind::Vcl);

        let mut common = Common::smoke(3, 1);
        o.apply(&mut common);
        assert_eq!(common.lint, LintMode::Strict);
        assert_eq!(common.backend, BackendKind::Ulfm);
        assert!(common.expect_freeze);
        assert_eq!(common.runs, 3);

        let bad: [&[&str]; 4] =
            [&["--lint", "bogus"], &["--lint"], &["--backend", "bogus"], &["--backend"]];
        for args in bad {
            assert!(parse(args).is_err(), "{args:?}");
        }
    }
}
