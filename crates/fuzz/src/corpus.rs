//! On-disk corpus format and the replay regression check.
//!
//! A corpus directory holds one `.fail` file per entry plus a
//! `corpus.json` manifest pinning every entry's static verdicts (both
//! dispatcher modes) and per-seed dynamic outcome classes. Replay
//! re-evaluates each entry and reports any drift from the pinned values
//! as FZ004 errors — the regression contract of the checked-in corpus.
//!
//! Verdicts are pinned as *strings*, never raw hashes: outcome classes
//! and verdict names are semantic and portable, while state digests and
//! schedule fingerprints are only stable within one build.

use std::collections::BTreeSet;
use std::path::{Component, Path};

use failmpi_analyze::{Diagnostic, Severity};
use serde::Serialize;
use serde_json::Value;

use crate::gen::Candidate;
use crate::oracle::{evaluate, Evaluation, FuzzConfig};

/// One manifest entry.
#[derive(Clone, Debug, Serialize)]
pub struct CorpusEntry {
    /// Candidate name (also the stem of its `.fail` file).
    pub name: String,
    /// The `.fail` file, relative to the corpus directory.
    pub file: String,
    /// How the generator produced it.
    pub origin: String,
    /// Daemon class deployed per compute machine.
    pub machine_class: String,
    /// Smoke-scale parameter overrides.
    pub params: Vec<(String, i64)>,
    /// Pinned static verdict, historical dispatcher.
    pub static_historical: String,
    /// Pinned static verdict, fixed dispatcher.
    pub static_fixed: String,
    /// Pinned `(seed, outcome class)` probes, historical dispatcher.
    pub dynamic_historical: Vec<(u64, String)>,
    /// Pinned `(seed, outcome class)` probes, fixed dispatcher.
    pub dynamic_fixed: Vec<(u64, String)>,
    /// Pinned static verdict of the ULFM abstract model. Empty in
    /// manifests written before the backend axis existed; replay skips
    /// empty pins.
    pub static_ulfm: String,
    /// Pinned `(seed, outcome class)` probes through the ULFM runtime.
    pub dynamic_ulfm: Vec<(u64, String)>,
    /// Pinned static verdict of the replication abstract model (empty =
    /// unpinned, as for `static_ulfm`).
    pub static_replica: String,
    /// Pinned `(seed, outcome class)` probes through the replication
    /// runtime.
    pub dynamic_replica: Vec<(u64, String)>,
    /// The behavioural novelty key that earned the slot (documentation;
    /// digests inside are build-specific and not re-checked on replay).
    pub coverage_key: String,
}

/// The manifest file name inside a corpus directory.
pub const MANIFEST: &str = "corpus.json";

/// Builds a manifest entry from a candidate and its evaluation.
pub fn entry_of(cand: &Candidate, ev: &Evaluation, coverage_key: &str) -> CorpusEntry {
    let dyn_pin = |runs: &[crate::oracle::DynRun]| -> Vec<(u64, String)> {
        runs.iter()
            .map(|r| (r.seed, r.class.to_string()))
            .collect()
    };
    let backend = |kind: failmpi_backend::BackendKind| {
        ev.backends
            .iter()
            .find(|b| b.backend == kind)
            .map(|b| (b.summary.verdict.to_string(), dyn_pin(&b.dynamic)))
            .unwrap_or_default()
    };
    let (static_ulfm, dynamic_ulfm) = backend(failmpi_backend::BackendKind::Ulfm);
    let (static_replica, dynamic_replica) = backend(failmpi_backend::BackendKind::Replica);
    CorpusEntry {
        name: cand.name.clone(),
        file: format!("{}.fail", cand.name),
        origin: cand.origin.clone(),
        machine_class: cand.machine_class.clone(),
        params: cand.params.clone(),
        static_historical: ev.static_h.verdict.to_string(),
        static_fixed: ev.static_f.verdict.to_string(),
        dynamic_historical: dyn_pin(&ev.dynamic_h),
        dynamic_fixed: dyn_pin(&ev.dynamic_f),
        static_ulfm,
        dynamic_ulfm,
        static_replica,
        dynamic_replica,
        coverage_key: coverage_key.to_string(),
    }
}

/// Writes `entries` (manifest rows paired with their sources) into `dir`.
pub fn write_corpus(
    dir: &Path,
    entries: &[(CorpusEntry, String)],
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for (entry, source) in entries {
        std::fs::write(dir.join(&entry.file), source)?;
    }
    let manifest: Vec<&CorpusEntry> = entries.iter().map(|(e, _)| e).collect();
    let json = serde_json::to_string_pretty(&manifest).expect("manifest serializes");
    std::fs::write(dir.join(MANIFEST), json + "\n")
}

fn str_field(v: &Value, key: &str, ctx: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("{ctx}: missing string field `{key}`"))
}

/// Like [`str_field`] but tolerant of the field being absent — manifests
/// written before the backend axis carry no per-backend pins.
fn opt_str_field(v: &Value, key: &str, ctx: &str) -> Result<String, String> {
    match v.get(key) {
        None => Ok(String::new()),
        Some(f) => f
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| format!("{ctx}: non-string field `{key}`")),
    }
}

/// Like [`pin_list`] but tolerant of the field being absent.
fn opt_pin_list(v: &Value, key: &str, ctx: &str) -> Result<Vec<(u64, String)>, String> {
    if v.get(key).is_none() {
        return Ok(Vec::new());
    }
    pin_list(v, key, ctx)
}

fn pin_list(v: &Value, key: &str, ctx: &str) -> Result<Vec<(u64, String)>, String> {
    let arr = v
        .get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{ctx}: missing array field `{key}`"))?;
    arr.iter()
        .map(|pair| {
            let seed = pair[0]
                .as_u64()
                .ok_or_else(|| format!("{ctx}: bad seed in `{key}`"))?;
            let class = pair[1]
                .as_str()
                .ok_or_else(|| format!("{ctx}: bad class in `{key}`"))?;
            Ok((seed, class.to_string()))
        })
        .collect()
}

/// Loads a corpus directory: manifest rows paired with their sources.
pub fn load_corpus(dir: &Path) -> Result<Vec<(CorpusEntry, String)>, String> {
    let manifest_path = dir.join(MANIFEST);
    let text = std::fs::read_to_string(&manifest_path)
        .map_err(|e| format!("cannot read {}: {e}", manifest_path.display()))?;
    let doc = serde_json::from_str(&text).map_err(|e| format!("{MANIFEST}: {e}"))?;
    let rows = doc
        .as_array()
        .ok_or_else(|| format!("{MANIFEST}: expected a JSON array"))?;
    let mut out = Vec::new();
    for row in rows {
        let name = str_field(row, "name", MANIFEST)?;
        let ctx = format!("{MANIFEST}[{name}]");
        let file = str_field(row, "file", &ctx)?;
        // The manifest is outside input: an entry names a file of its own
        // directory, never a path out of it.
        if !Path::new(&file).components().eq([Component::Normal(file.as_ref())]) {
            return Err(format!("{ctx}: `file` must be a bare file name, got {file:?}"));
        }
        let params = row
            .get("params")
            .and_then(Value::as_array)
            .ok_or_else(|| format!("{ctx}: missing `params`"))?
            .iter()
            .map(|pair| {
                let k = pair[0]
                    .as_str()
                    .ok_or_else(|| format!("{ctx}: bad param name"))?;
                let v = pair[1]
                    .as_i64()
                    .ok_or_else(|| format!("{ctx}: bad param value"))?;
                Ok((k.to_string(), v))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let entry = CorpusEntry {
            name: name.clone(),
            file: file.clone(),
            origin: str_field(row, "origin", &ctx)?,
            machine_class: str_field(row, "machine_class", &ctx)?,
            params,
            static_historical: str_field(row, "static_historical", &ctx)?,
            static_fixed: str_field(row, "static_fixed", &ctx)?,
            dynamic_historical: pin_list(row, "dynamic_historical", &ctx)?,
            dynamic_fixed: pin_list(row, "dynamic_fixed", &ctx)?,
            static_ulfm: opt_str_field(row, "static_ulfm", &ctx)?,
            dynamic_ulfm: opt_pin_list(row, "dynamic_ulfm", &ctx)?,
            static_replica: opt_str_field(row, "static_replica", &ctx)?,
            dynamic_replica: opt_pin_list(row, "dynamic_replica", &ctx)?,
            coverage_key: str_field(row, "coverage_key", &ctx)?,
        };
        let src_path = dir.join(&file);
        let source = std::fs::read_to_string(&src_path)
            .map_err(|e| format!("cannot read {}: {e}", src_path.display()))?;
        out.push((entry, source));
    }
    Ok(out)
}

/// The candidate a manifest entry replays as.
pub fn candidate_of(entry: &CorpusEntry, source: &str) -> Candidate {
    Candidate {
        name: entry.name.clone(),
        source: source.to_string(),
        machine_class: entry.machine_class.clone(),
        params: entry.params.clone(),
        origin: entry.origin.clone(),
    }
}

/// Re-evaluates one corpus entry against its pins, with the probe seeds
/// the entry was pinned under. Returns FZ004 diagnostics for every drift,
/// or the harness's own diagnostics for an entry it refuses to run.
pub fn replay_entry(entry: &CorpusEntry, source: &str, cfg: &FuzzConfig) -> Vec<Diagnostic> {
    let seeds: Vec<u64> = entry.dynamic_historical.iter().map(|(s, _)| *s).collect();
    let cfg = FuzzConfig {
        probe_seeds: seeds,
        ..cfg.clone()
    };
    let ev = match evaluate(&candidate_of(entry, source), &cfg) {
        Ok(ev) => ev,
        Err(refusal) => return refusal.diagnostics,
    };

    let mut out = Vec::new();
    let mut drift = |what: String| {
        out.push(Diagnostic::new(
            Severity::Error,
            "FZ004",
            0,
            format!("corpus replay drift: {what}"),
            "a pinned verdict changed — either a regression in the \
             simulator/model checker, or the corpus manifest needs \
             regenerating after an intentional behaviour change",
        ));
    };

    if ev.static_h.verdict.to_string() != entry.static_historical {
        drift(format!(
            "static verdict (historical) is {}, pinned {}",
            ev.static_h.verdict, entry.static_historical
        ));
    }
    if ev.static_f.verdict.to_string() != entry.static_fixed {
        drift(format!(
            "static verdict (fixed) is {}, pinned {}",
            ev.static_f.verdict, entry.static_fixed
        ));
    }
    for (pins, runs, mode) in [
        (&entry.dynamic_historical, &ev.dynamic_h, "historical"),
        (&entry.dynamic_fixed, &ev.dynamic_f, "fixed"),
    ] {
        for ((seed, pinned), run) in pins.iter().zip(runs) {
            if *pinned != run.class {
                drift(format!(
                    "dynamic class ({mode}, seed {seed}) is {}, pinned {pinned}",
                    run.class
                ));
            }
        }
    }

    // The per-backend pins, when the manifest carries them (empty pins
    // mean a pre-backend manifest; nothing to check).
    for be in &ev.backends {
        let (static_pin, dyn_pins) = match be.backend {
            failmpi_backend::BackendKind::Ulfm => (&entry.static_ulfm, &entry.dynamic_ulfm),
            failmpi_backend::BackendKind::Replica => {
                (&entry.static_replica, &entry.dynamic_replica)
            }
            failmpi_backend::BackendKind::Vcl => continue,
        };
        if !static_pin.is_empty() && be.summary.verdict.to_string() != *static_pin {
            drift(format!(
                "static verdict ({}) is {}, pinned {static_pin}",
                be.backend.name(),
                be.summary.verdict
            ));
        }
        for ((seed, pinned), run) in dyn_pins.iter().zip(&be.dynamic) {
            if *pinned != run.class {
                drift(format!(
                    "dynamic class ({}, seed {seed}) is {}, pinned {pinned}",
                    be.backend.name(),
                    run.class
                ));
            }
        }
    }
    out
}

/// Freeze fingerprints of every corpus entry, recomputed by replaying the
/// entries — the fuzzer's known-freeze set. (Fingerprints are not stored
/// in the manifest because they are build-specific.)
pub fn known_freeze_fingerprints(
    entries: &[(CorpusEntry, String)],
    cfg: &FuzzConfig,
) -> BTreeSet<u64> {
    let mut out = BTreeSet::new();
    for (entry, source) in entries {
        let seeds: Vec<u64> = entry.dynamic_historical.iter().map(|(s, _)| *s).collect();
        let cfg = FuzzConfig {
            probe_seeds: seeds,
            ..cfg.clone()
        };
        // An entry the harness refuses froze nothing; `replay_entry`
        // reports the refusal.
        if let Ok(ev) = evaluate(&candidate_of(entry, source), &cfg) {
            out.extend(ev.freeze_fingerprints());
        }
    }
    out
}
