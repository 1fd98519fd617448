//! Result documents, and the comparison of two of them.

use std::collections::BTreeMap;
use std::path::Path;

use serde::Serialize;
use serde_json::Value;

use crate::metrics::END_TO_END;
use crate::run::RunResult;

/// One metric of a result document.
#[derive(Serialize)]
pub struct MetricDoc {
    /// Reported value.
    pub value: f64,
    /// Unit.
    pub unit: String,
    /// A difference between two runs smaller than this is noise.
    pub resolution: f64,
    /// How the value came about.
    pub note: String,
}

/// One run of one workload.
#[derive(Serialize)]
pub struct RunDoc {
    /// Workload name.
    pub workload: String,
    /// Seed.
    pub seed: u64,
    /// Whether this was the traced pass.
    pub trace: bool,
    /// `std::thread::available_parallelism` of the machine.
    pub nproc: usize,
    /// No operation failed.
    pub correct: bool,
    /// Operations executed.
    pub attempted: u64,
    /// Operations that failed verification.
    pub failed: u64,
    /// Metrics by name.
    pub metrics: BTreeMap<String, MetricDoc>,
}

/// Packs a run into its document.
pub fn run_doc(workload: &str, seed: u64, trace: bool, result: &RunResult) -> RunDoc {
    let metrics = result
        .metrics
        .iter()
        .map(|m| {
            let doc = MetricDoc {
                value: m.value,
                unit: m.unit.to_string(),
                resolution: m.resolution,
                note: m.note.clone(),
            };
            (m.name.to_string(), doc)
        })
        .collect();
    RunDoc {
        workload: workload.to_string(),
        seed,
        trace,
        nproc: std::thread::available_parallelism().map_or(1, usize::from),
        correct: result.tally.failed == 0,
        attempted: result.tally.attempted,
        failed: result.tally.failed,
        metrics,
    }
}

/// Prints every metric as `workload metric value unit`, with how it came
/// about where that is on record.
pub fn print_metrics(workload: &str, result: &RunResult) {
    for m in &result.metrics {
        let note = if m.note.is_empty() {
            String::new()
        } else {
            format!("  (±{:.6}; {})", m.resolution, m.note)
        };
        println!("{workload} {} {:.6} {}{note}", m.name, m.value, m.unit);
    }
}

/// The contract's result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each value with all its digits.
pub fn contract_line(result: &RunResult) -> String {
    let metrics: Vec<String> = result
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.tally.failed == 0,
        result.tally.attempted.max(1),
        result.tally.failed,
        metrics.join(", ")
    )
}

/// Writes `doc` as pretty JSON.
pub fn write_json<T: Serialize>(path: &Path, doc: &T) -> Result<(), String> {
    let json = serde_json::to_string_pretty(doc).expect("document serializes");
    std::fs::write(path, json + "\n").map_err(|e| format!("cannot write `{}`: {e}", path.display()))
}

/// Reads a JSON document.
pub fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read `{}`: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("`{}`: {e}", path.display()))
}

/// How one metric moved between two runs.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Change {
    /// Worse by more than the bound, and by more than either run resolves.
    Regression,
    /// The difference is smaller than the larger of the two runs'
    /// resolutions: not a change this benchmark can tell from noise.
    Unresolved,
    /// Worse, but within the bound.
    WithinBound,
    /// Better.
    Better,
}

/// Judges `b` against `a`: `worse` is the relative amount by which `b` is
/// worse than `a` (negative when better).
pub fn judge(
    a: f64,
    res_a: f64,
    b: f64,
    res_b: f64,
    lower_is_better: bool,
    bound: f64,
) -> (f64, Change) {
    let worse = if a == 0.0 {
        0.0
    } else if lower_is_better {
        (b - a) / a
    } else {
        (a - b) / a
    };
    let change = if (b - a).abs() < res_a.max(res_b) {
        Change::Unresolved
    } else if worse > bound {
        Change::Regression
    } else if worse > 0.0 {
        Change::WithinBound
    } else {
        Change::Better
    };
    (worse, change)
}

fn metric_of(doc: &Value, workload: &str, metric: &str) -> Option<(f64, f64)> {
    let m = doc
        .get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(metric)?;
    Some((m.get("value")?.as_f64()?, m.get("resolution")?.as_f64()?))
}

/// Prints, per workload and end-to-end metric, both values, how much worse
/// the second is, the bound and the verdict. Returns the regressions.
pub fn compare(a: &Value, b: &Value) -> usize {
    let mut regressions = 0;
    println!(
        "{:<20} {:<12} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "first", "second", "worse", "bound"
    );
    let Some(workloads) = a.get("workloads").and_then(Value::as_object) else {
        return 0;
    };
    for name in workloads.keys() {
        for (def, bound) in &END_TO_END {
            let (Some((va, ia)), Some((vb, ib))) =
                (metric_of(a, name, def.name), metric_of(b, name, def.name))
            else {
                continue;
            };
            let (worse, change) = judge(va, ia, vb, ib, def.better == "lower", *bound);
            let verdict = match change {
                Change::Regression => {
                    regressions += 1;
                    "FAIL regression"
                }
                Change::Unresolved => "PASS unresolved (below the runs' resolution)",
                Change::WithinBound => "PASS within bound",
                Change::Better => "PASS better",
            };
            println!(
                "{name:<20} {:<12} {va:>14.6} {vb:>14.6} {:>8.1}% {:>6.0}%  {verdict}",
                def.name,
                100.0 * worse,
                100.0 * bound
            );
        }
    }
    regressions
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_difference_below_either_resolution_is_unresolved() {
        assert_eq!(judge(1.0, 0.3, 1.2, 0.0, true, 0.1).1, Change::Unresolved);
        assert_eq!(judge(1.0, 0.0, 1.2, 0.3, true, 0.1).1, Change::Unresolved);
    }

    #[test]
    fn direction_and_bound_decide_the_rest() {
        assert_eq!(
            judge(1.0, 0.01, 1.2, 0.01, true, 0.1),
            (0.19999999999999996, Change::Regression)
        );
        assert_eq!(
            judge(1.0, 0.01, 1.05, 0.01, true, 0.1).1,
            Change::WithinBound
        );
        assert_eq!(judge(1.0, 0.01, 0.8, 0.01, true, 0.1).1, Change::Better);
        assert_eq!(
            judge(100.0, 1.0, 80.0, 1.0, false, 0.1).1,
            Change::Regression
        );
        assert_eq!(judge(100.0, 1.0, 120.0, 1.0, false, 0.1).1, Change::Better);
    }
}
