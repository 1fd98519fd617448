//! One run of one workload: the end-to-end pass or the traced pass.
//!
//! Closed loop, one client, one thread. A run sets the workload up (builds
//! its operations from the seed and makes one untimed warm-up pass, whose
//! results are verified and become the reference every later pass must
//! reproduce), then makes timed passes for the requested time.
//!
//! `wall_s` is the undisturbed time of one pass: the sum, over the
//! operations, of each operation's fastest time in any pass. On the shared
//! two-core VMs this runs on, host noise is one-sided and comes in phases
//! of several seconds that slow memory-bound runs by 40 %, so the median
//! pass of a 10 s window moves by ±15 % between runs of the same binary
//! while the per-operation floor moves by ±3 %. The median pass and the
//! spread of the passes are printed beside it; no tail percentile is,
//! because fewer than ten passes lie beyond any.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::layers;
use crate::metrics::{LayerValues, END_TO_END};
use crate::pins::{self, Expected, Tally};
use crate::spans::Spans;
use crate::stats::Summary;
use crate::workload::{Op, OpResult, Workload};

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: u32 = 3;
/// Fewest timed passes of a run.
const MIN_PASSES: usize = 3;

/// What to run.
pub struct RunArgs {
    /// The workload.
    pub workload: &'static Workload,
    /// Seed the operations are generated from.
    pub seed: u64,
    /// Seconds of timed samples.
    pub seconds: f64,
    /// Traced pass (per-layer metrics) instead of the end-to-end pass.
    pub trace: bool,
    /// Directory of the pin files.
    pub expected_dir: PathBuf,
    /// Directory the result document and the span file go to.
    pub out_dir: PathBuf,
}

/// One printed metric.
pub struct Measured {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The reported value.
    pub value: f64,
    /// How far the value is resolved: a difference between two runs smaller
    /// than this is not a change the benchmark can tell from noise.
    pub resolution: f64,
    /// How the value came about, for the human reader.
    pub note: String,
}

/// Outcome of a run.
pub struct RunResult {
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Every metric of the pass, in table order.
    pub metrics: Vec<Measured>,
}

/// One pass over the work list: every operation's result and time.
fn pass(ops: &[Op], spans: &mut Spans, sample: u32) -> (Vec<OpResult>, Vec<Duration>) {
    ops.iter()
        .zip(0u32..)
        .map(|(op, i)| {
            spans.set_ids(sample, i);
            // srclint: allow(SD002): the benchmark measures host time by design
            let start = Instant::now();
            let result = op.run(spans);
            (result, start.elapsed())
        })
        .unzip()
}

/// Per-operation times of the timed passes.
#[derive(Default)]
struct PassTimes {
    /// `by_op[i]` holds operation `i`'s seconds, one entry per pass.
    by_op: Vec<Vec<f64>>,
}

impl PassTimes {
    /// Adds one pass.
    fn push(&mut self, times: &[Duration]) {
        self.by_op.resize(times.len(), Vec::new());
        for (op, t) in self.by_op.iter_mut().zip(times) {
            op.push(t.as_secs_f64());
        }
    }

    /// Passes recorded.
    fn passes(&self) -> usize {
        self.by_op.first().map_or(0, Vec::len)
    }

    /// Whole-pass seconds, one entry per pass.
    fn walls(&self) -> Vec<f64> {
        (0..self.passes())
            .map(|p| self.by_op.iter().map(|op| op[p]).sum())
            .collect()
    }

    /// Sum over the operations of each one's `k`-th fastest time.
    fn floor(&self, k: usize) -> f64 {
        self.by_op
            .iter()
            .map(|op| {
                let mut sorted = op.clone();
                sorted.sort_by(f64::total_cmp);
                sorted[k.min(sorted.len() - 1)]
            })
            .sum()
    }

    /// Prints each operation's fastest and median time (work lists of up to
    /// 16 operations; longer ones would drown the report).
    fn print_ops(&self, ops: &[Op]) {
        if ops.len() > 16 {
            return;
        }
        for (op, times) in ops.iter().zip(&self.by_op) {
            let s = Summary::of(times).expect("at least one pass");
            println!(
                "  [{}] fastest {:.6} s, median {:.6} s",
                op.label(),
                s.min,
                s.median
            );
        }
    }

    /// The undisturbed time of one pass, and how far it is resolved: the
    /// gap to the same sum over each operation's second-fastest time.
    fn undisturbed(&self) -> (f64, f64) {
        let floor = self.floor(0);
        (floor, self.floor(1) - floor)
    }
}

/// Builds the operations and makes the warm-up pass: `(ops, results, time)`.
fn set_up(args: &RunArgs, spans: &mut Spans, sample: u32) -> (Vec<Op>, Vec<OpResult>, f64) {
    // srclint: allow(SD002): the benchmark measures host time by design
    let start = Instant::now();
    let ops = args.workload.ops(args.seed);
    let (results, _) = pass(&ops, spans, sample);
    (ops, results, start.elapsed().as_secs_f64())
}

fn end_to_end(args: &RunArgs, expected: &Expected) -> RunResult {
    let mut spans = Spans::new(false);
    let mut tally = Tally::default();
    let mut setups = Vec::new();
    let (ops, reference, first) = set_up(args, &mut spans, 0);
    tally.check_pass(args.seed, &ops, &reference, None, Some(expected));
    setups.push(first);
    for i in 1..SETUPS {
        let (again, results, secs) = set_up(args, &mut spans, i);
        tally.check_pass(args.seed, &again, &results, Some(&reference), None);
        setups.push(secs);
    }

    let mut times = PassTimes::default();
    // srclint: allow(SD002): the benchmark measures host time by design
    let timed = Instant::now();
    while times.passes() < MIN_PASSES || timed.elapsed().as_secs_f64() < args.seconds {
        let (results, op_times) = pass(&ops, &mut spans, SETUPS + times.passes() as u32);
        tally.check_pass(args.seed, &ops, &results, Some(&reference), None);
        times.push(&op_times);
    }

    times.print_ops(&ops);
    let (wall, resolution) = times.undisturbed();
    let passes = Summary::of(&times.walls()).expect("at least one pass");
    let work = reference.iter().map(|r| r.work).sum::<u64>() as f64;
    let setup = Summary::of(&setups).expect("at least one set-up");
    let rss_mb = failmpi_obs::peak_rss_bytes().map_or(0.0, |b| b as f64 / (1024.0 * 1024.0));
    let values = [
        (
            wall,
            resolution,
            format!(
                "{} passes: median {:.6} min {:.6} max {:.6} iqr {:.1} %",
                passes.n,
                passes.median,
                passes.min,
                passes.max,
                100.0 * passes.iqr_share()
            ),
        ),
        (
            work / wall,
            work / wall - work / (wall + resolution),
            format!("{work} {} per pass", args.workload.work_unit),
        ),
        (
            setup.median,
            setup.iqr(),
            format!("median of {} set-ups, first {first:.6}", setup.n),
        ),
        (rss_mb, 0.0, "VmHWM at exit".to_string()),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|((def, _), (value, resolution, note))| Measured {
            name: def.name,
            unit: def.unit,
            value,
            resolution,
            note,
        })
        .collect();
    RunResult { tally, metrics }
}

fn traced(args: &RunArgs, expected: &Expected) -> Result<RunResult, String> {
    let mut spans = Spans::new(false);
    let mut tally = Tally::default();
    let mut values = LayerValues::default();
    let (ops, reference, first_setup) = set_up(args, &mut spans, 0);
    tally.check_pass(args.seed, &ops, &reference, None, Some(expected));

    // The same passes with the recorder off and on, interleaved, for half
    // the time; the other half goes to the probes and the decomposition.
    let (mut plain, mut recorded) = (PassTimes::default(), PassTimes::default());
    // srclint: allow(SD002): the benchmark measures host time by design
    let timed = Instant::now();
    while recorded.passes() < 2 || timed.elapsed().as_secs_f64() < args.seconds / 2.0 {
        for recording in [false, true] {
            spans.set_recording(recording);
            let sample = 1 + (plain.passes() + recorded.passes()) as u32;
            let (results, op_times) = pass(&ops, &mut spans, sample);
            tally.check_pass(args.seed, &ops, &results, Some(&reference), None);
            if recording { &mut recorded } else { &mut plain }.push(&op_times);
        }
    }
    let spread = Summary::of(&plain.walls()).expect("two passes at least");
    values.set(
        "bench.trace_overhead_ratio",
        recorded.undisturbed().0 / plain.undisturbed().0,
    );
    values.set("bench.sample_iqr_share", spread.iqr_share());
    values.set("bench.first_setup_s", first_setup);

    spans.set_recording(true);
    layers::probes(&mut spans, args.seed, &mut values);
    let mut all = ops;
    all.extend(args.workload.traced_only_ops(args.seed));
    layers::decompose(&mut spans, &all, &mut values, &mut tally);

    let path = args
        .out_dir
        .join(format!("trace-{}.json", args.workload.name));
    std::fs::write(&path, spans.to_json(args.workload.name))
        .map_err(|e| format!("cannot write `{}`: {e}", path.display()))?;
    println!("{} spans -> {}", spans.spans().len(), path.display());

    let metrics = values
        .iter()
        .map(|(def, value)| Measured {
            name: def.name,
            unit: def.unit,
            value,
            resolution: 0.0,
            note: String::new(),
        })
        .collect();
    Ok(RunResult { tally, metrics })
}

/// Runs the pass `args` asks for. `Err` is an I/O problem, not a failed
/// operation.
pub fn run(args: &RunArgs) -> Result<RunResult, String> {
    let expected = pins::load(&args.expected_dir, args.workload.name)?;
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("cannot create `{}`: {e}", args.out_dir.display()))?;
    if args.trace {
        traced(args, &expected)
    } else {
        Ok(end_to_end(args, &expected))
    }
}

/// Regenerates the workload's pin file from one default-seed pass.
pub fn update_expected(args: &RunArgs) -> Result<(), String> {
    let (ops, results, _) = set_up(args, &mut Spans::new(false), 0);
    pins::store(&args.expected_dir, args.workload.name, &ops, &results)
}
