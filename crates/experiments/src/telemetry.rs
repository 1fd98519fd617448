//! The one telemetry sink behind `--metrics`, `--profile` and
//! `--trace-out`: a binary [`Outputs::install`]s it before the first
//! experiment, [`crate::harness::run`] asks what each run `owed` it and
//! `submit`s that, and the binary [`Outputs::write_all`]s after the last
//! run. Until then a run costs one atomic load here.
//!
//! The written files are byte-identical across same-seed re-runs of a
//! binary, whatever the worker-thread interleaving:
//!
//! - `--metrics` keeps every run's [`MetricsSnapshot`], ordered by
//!   serialized form at write time, plus their element-wise aggregate;
//! - `--profile` runs every experiment under a `failmpi_obs::prof`
//!   context and merges the [`RunProfile`]s commutatively (a binary that
//!   somehow mixes backends gets `"backend": "mixed"`, which
//!   `failmpi-trace profile` surfaces rather than hides);
//! - `--trace-out` claims exactly **one** run — causal traces are
//!   megabytes each — the first to start after the install, and only that
//!   run pays for causal tracing. With `--runs 1 --threads 1` the pick is
//!   deterministic; in a parallel sweep it is whichever run the thread
//!   pool starts first.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard};

use failmpi_analyze::cli::{Args, Flag};
use failmpi_obs::{MetricsSnapshot, RunProfile, SCHEMA_VERSION};
use serde::Serialize;

use crate::tracesink::TraceExport;

const METRICS: u8 = 1;
const PROFILE: u8 = 2;
/// Set while the trace slot is armed and unclaimed.
const TRACE: u8 = 4;

/// What one run has to hand the sink (nothing until a binary installs it).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Owed {
    pub metrics: bool,
    /// The run must execute under a `failmpi_obs::prof` context.
    pub profile: bool,
    /// The run must execute with causal tracing on.
    pub trace: bool,
}

#[derive(Default)]
struct Collected {
    runs: Vec<MetricsSnapshot>,
    profile: Option<RunProfile>,
    trace: Option<TraceExport>,
}

pub(crate) struct Sink {
    armed: AtomicU8,
    collected: Mutex<Collected>,
}

/// The process-wide sink.
pub(crate) static SINK: Sink = Sink::new();

impl Sink {
    const fn new() -> Sink {
        let collected = Collected {
            runs: Vec::new(),
            profile: None,
            trace: None,
        };
        Sink {
            armed: AtomicU8::new(0),
            collected: Mutex::new(collected),
        }
    }

    fn collected(&self) -> MutexGuard<'_, Collected> {
        self.collected.lock().expect("telemetry sink lock")
    }

    /// Arms the sink for `bits`, dropping anything collected earlier.
    fn install(&self, bits: u8) {
        *self.collected() = Collected::default();
        self.armed.store(bits, Ordering::Release);
    }

    /// What the next run to start owes. Only the harness calls this, once
    /// per run.
    pub(crate) fn owed(&self) -> Owed {
        let bits = self.armed.load(Ordering::Acquire);
        Owed {
            metrics: bits & METRICS != 0,
            profile: bits & PROFILE != 0,
            // Clearing the bit is the claim: exactly one caller sees it set.
            trace: bits & TRACE != 0
                && self.armed.fetch_and(!TRACE, Ordering::AcqRel) & TRACE != 0,
        }
    }

    /// Takes what [`Sink::owed`] asked of this run.
    pub(crate) fn submit(
        &self,
        owed: Owed,
        metrics: &MetricsSnapshot,
        profile: Option<&RunProfile>,
        trace: Option<TraceExport>,
    ) {
        if owed == Owed::default() {
            return;
        }
        let metrics = owed.metrics.then(|| metrics.clone());
        let mut c = self.collected();
        c.runs.extend(metrics);
        if let Some(p) = profile.filter(|_| owed.profile) {
            match c.profile.as_mut() {
                Some(agg) => agg.merge(p),
                None => c.profile = Some(p.clone()),
            }
        }
        if owed.trace {
            c.trace = trace;
        }
    }

    /// What was collected: the run count and the `--metrics` document, the
    /// `--trace-out` one still to be rendered (it is the large one: it is
    /// moved out, not copied, and goes to its file node by node), the
    /// `--profile` one (`None` when no run contributed).
    fn render(&self) -> (usize, String, Option<TraceExport>, Option<String>) {
        #[derive(Serialize)]
        struct MetricsDoc {
            schema_version: u32,
            runs: Vec<MetricsSnapshot>,
            /// Element-wise merge of every run (sweep-level aggregate).
            aggregate: MetricsSnapshot,
        }
        let mut c = self.collected();
        let mut runs = c.runs.clone();
        // Canonical order: sweeps run records on worker threads, so arrival
        // order is schedule-dependent; the serialized form is not.
        runs.sort_by_cached_key(MetricsSnapshot::to_json);
        let mut aggregate = MetricsSnapshot::new();
        for r in &runs {
            aggregate.merge(r);
        }
        let n = runs.len();
        let doc = MetricsDoc {
            schema_version: SCHEMA_VERSION,
            runs,
            aggregate,
        };
        let mut metrics = serde_json::to_string_pretty(&doc).expect("serializable");
        metrics.push('\n');
        let trace = c.trace.take();
        let profile = c.profile.as_ref().map(RunProfile::to_pretty_json);
        (n, metrics, trace, profile)
    }
}

/// Where a binary's telemetry goes: the paths given to `--metrics`,
/// `--trace-out` and `--profile`.
#[derive(Clone, Debug, Default)]
pub struct Outputs {
    /// Per-run metric snapshots plus their aggregate.
    pub metrics: Option<String>,
    /// The first run's happens-before trace, as `failmpi-trace` JSON.
    pub trace_out: Option<String>,
    /// The merged deterministic [`RunProfile`] of every run.
    pub profile: Option<String>,
}

/// The telemetry flags, for the flag table of a binary that takes them.
pub const METRICS_FLAG: Flag = Flag::Value("--metrics", "a path");
/// See [`METRICS_FLAG`].
pub const TRACE_OUT_FLAG: Flag = Flag::Value("--trace-out", "a path");
/// See [`METRICS_FLAG`].
pub const PROFILE_FLAG: Flag = Flag::Value("--profile", "a path");

impl Outputs {
    /// The paths `args` gives the telemetry flags.
    pub fn from_args(args: &Args) -> Outputs {
        let path = |flag| args.value(flag).map(str::to_string);
        Outputs {
            metrics: path("--metrics"),
            trace_out: path("--trace-out"),
            profile: path("--profile"),
        }
    }

    /// Arms the process-wide sink for every path given. Call before
    /// running any experiment.
    pub fn install(&self) {
        let bit = |path: &Option<String>, bit: u8| if path.is_some() { bit } else { 0 };
        let bits =
            bit(&self.metrics, METRICS) | bit(&self.profile, PROFILE) | bit(&self.trace_out, TRACE);
        if bits != 0 {
            SINK.install(bits);
        }
    }

    /// Writes every file asked for and reports each on stderr. Call after
    /// the last experiment finished.
    pub fn write_all(&self) -> std::io::Result<()> {
        let (n, metrics, trace, profile) = SINK.render();
        let snapshots = format!("{n} run snapshots");
        let files = [
            ("metrics", &self.metrics, Some(Doc::Text(metrics)), snapshots.as_str(), ""),
            ("trace", &self.trace_out, trace.map(|t| Doc::Trace(Box::new(t))), "causal trace", " (inspect with failmpi-trace)"),
            ("profile", &self.profile, profile.map(Doc::Text), "merged run profile", " (inspect with failmpi-trace profile)"),
        ];
        for (kind, path, doc, what, hint) in files {
            let Some(path) = path else { continue };
            let Some(doc) = doc else {
                eprintln!("{kind}: no run executed, {path} not written");
                continue;
            };
            doc.write_to(path)?;
            eprintln!("{kind}: wrote {what} to {path}{hint}");
        }
        Ok(())
    }
}

/// One document [`Outputs::write_all`] writes: rendered already, or the
/// trace, which is rendered as it is written.
enum Doc {
    Text(String),
    Trace(Box<TraceExport>),
}

impl Doc {
    /// An error names the path: `cannot write <path>: <error>`.
    fn write_to(&self, path: &str) -> std::io::Result<()> {
        let written = match self {
            Doc::Text(doc) => std::fs::write(path, doc),
            Doc::Trace(trace) => trace.write_to(path),
        };
        written.map_err(|e| std::io::Error::new(e.kind(), format!("cannot write {path}: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feeds `sink` one run per value of `order`, as the harness would.
    fn feed(sink: &Sink, order: [u64; 2]) {
        for x in order {
            let owed = sink.owed();
            let mut snap = MetricsSnapshot::new();
            snap.set_counter("x", x);
            let mut prof = RunProfile::new();
            prof.backend = "vcl".to_string();
            prof.runs = 1;
            prof.events = x;
            let trace = TraceExport {
                frame: failmpi_trace::TraceFile {
                    seed: x,
                    ..Default::default()
                },
                log: failmpi_sim::CausalLog::disabled(),
            };
            sink.submit(owed, &snap, Some(&prof), owed.trace.then_some(trace));
        }
    }

    // On a private `Sink`: the process-wide one is shared with every other
    // unit test of this crate that runs an experiment.
    #[test]
    fn sink_drops_until_installed_then_collects_order_independently() {
        let sink = Sink::new();
        assert_eq!(sink.owed(), Owed::default());
        feed(&sink, [2, 5]); // not installed: dropped
        assert!(matches!(sink.render(), (0, _, None, None)));

        sink.install(METRICS | PROFILE | TRACE);
        feed(&sink, [5, 2]);
        let (n, metrics, trace, profile) = sink.render();
        assert!(!sink.owed().trace, "the trace slot is claimed once");
        // Reversed submission order yields the identical documents, except
        // that the first run to ask gets the trace slot.
        sink.install(METRICS | PROFILE | TRACE);
        feed(&sink, [2, 5]);
        let again = sink.render();
        assert_eq!((again.0, &again.1, &again.3), (n, &metrics, &profile));
        let seed_of = |t: Option<TraceExport>| t.map(|t| t.frame.seed);
        assert_eq!((seed_of(trace), seed_of(again.2)), (Some(5), Some(2)));

        assert_eq!(n, 2);
        let v = serde_json::from_str(&metrics).expect("valid json");
        assert_eq!(v["runs"].as_array().map(Vec::len), Some(2));
        assert_eq!(v["aggregate"]["counters"]["x"].as_u64(), Some(7));
        assert_eq!(v["schema_version"].as_u64(), Some(u64::from(SCHEMA_VERSION)));
        let p = RunProfile::from_json(&profile.expect("aggregate")).expect("parses");
        assert_eq!((p.runs, p.events, p.backend.as_str()), (2, 7, "vcl"));
    }
}
