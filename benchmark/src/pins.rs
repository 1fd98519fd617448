//! Verification pins: what every operation of a workload must reproduce.
//!
//! `expected/<workload>.json` holds, for the default seed, one line per
//! operation with everything that must repeat exactly (schedule
//! fingerprint, event count, outcome class and end time for a run;
//! verdict, state counts, digest and witness length for an exploration;
//! the summary for a campaign). Under any other seed the timed samples
//! must still reproduce the warm-up sample, and seedless operations must
//! still match the file.

use std::path::Path;

use serde::Serialize;

use crate::workload::{Op, OpResult, DEFAULT_SEED};

/// The pinned results of one workload.
pub struct Expected {
    /// `(label, pin)` per operation, in work-list order.
    pub ops: Vec<(String, String)>,
}

#[derive(Serialize)]
struct PinRow {
    label: String,
    pin: String,
}

#[derive(Serialize)]
struct PinFile {
    workload: String,
    seed: u64,
    ops: Vec<PinRow>,
}

/// Reads `dir/<workload>.json`.
pub fn load(dir: &Path, workload: &str) -> Result<Expected, String> {
    let path = dir.join(format!("{workload}.json"));
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read pins `{}`: {e}", path.display()))?;
    let doc = serde_json::from_str(&text).map_err(|e| format!("`{}`: {e}", path.display()))?;
    let malformed = || format!("`{}`: not a pin file", path.display());
    let ops = doc
        .get("ops")
        .and_then(|v| v.as_array())
        .ok_or_else(malformed)?
        .iter()
        .map(|row| {
            let field = |k| row.get(k).and_then(|v| v.as_str()).map(str::to_string);
            field("label").zip(field("pin"))
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(malformed)?;
    Ok(Expected { ops })
}

/// Writes `dir/<workload>.json` from a default-seed pass.
pub fn store(dir: &Path, workload: &str, ops: &[Op], results: &[OpResult]) -> Result<(), String> {
    let file = PinFile {
        workload: workload.to_string(),
        seed: DEFAULT_SEED,
        ops: ops
            .iter()
            .zip(results)
            .map(|(op, r)| PinRow {
                label: op.label().to_string(),
                pin: r.pin.clone(),
            })
            .collect(),
    };
    let path = dir.join(format!("{workload}.json"));
    let json = serde_json::to_string_pretty(&file).expect("pins serialize");
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, json + "\n"))
        .map_err(|e| format!("cannot write pins `{}`: {e}", path.display()))
}

/// Running tally of operations attempted and failed.
#[derive(Default)]
pub struct Tally {
    /// Operations executed.
    pub attempted: u64,
    /// Operations whose result failed verification.
    pub failed: u64,
    /// The first failure, ready to print.
    pub first_failure: Option<String>,
}

impl Tally {
    /// Counts one failed operation, keeping the first message.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(message);
    }

    /// Checks one pass: every result against its own defects, against the
    /// warm-up pass it must reproduce, and against the pin file where that
    /// applies (`expected` is consulted for every operation when
    /// `seed` is the default, for seedless operations otherwise).
    pub fn check_pass(
        &mut self,
        seed: u64,
        ops: &[Op],
        results: &[OpResult],
        reference: Option<&[OpResult]>,
        expected: Option<&Expected>,
    ) {
        if let Some(exp) = expected {
            if exp.ops.len() != ops.len() {
                self.fail(format!(
                    "pin file holds {} operations, the workload {}",
                    exp.ops.len(),
                    ops.len()
                ));
            }
        }
        for (i, (op, got)) in ops.iter().zip(results).enumerate() {
            self.attempted += 1;
            let pinned = expected
                .filter(|_| seed == DEFAULT_SEED || op.seedless())
                .and_then(|e| e.ops.get(i));
            let problem = if let Some(defect) = &got.defect {
                Some(defect.clone())
            } else if let Some(want) = reference.map(|r| &r[i]).filter(|w| w.pin != got.pin) {
                Some(format!(
                    "not reproducible\n  warm-up {}\n  got     {}",
                    want.pin, got.pin
                ))
            } else if let Some((label, pin)) =
                pinned.filter(|(l, p)| l != op.label() || *p != got.pin)
            {
                Some(format!(
                    "differs from its pin\n  expected [{label}] {pin}\n  got      {}",
                    got.pin
                ))
            } else {
                None
            };
            if let Some(problem) = problem {
                self.fail(format!("operation {i} [{}]: {problem}", op.label()));
            }
        }
    }
}
