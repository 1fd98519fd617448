//! On-disk corpus format and the replay regression check.
//!
//! A corpus directory holds one `.fail` file per entry plus a
//! `corpus.json` manifest pinning, per view of [`VIEWS`], every entry's
//! static verdict and per-seed dynamic outcome classes. Replay
//! re-evaluates each entry and reports any drift from the pinned values
//! as FZ004 errors — the regression contract of the checked-in corpus.
//!
//! Verdicts are pinned as *strings*, never raw hashes: outcome classes
//! and verdict names are semantic and portable, while state digests and
//! schedule fingerprints are only stable within one build.

use std::path::{Component, Path};

use failmpi_analyze::{Diagnostic, Report, Severity};
use serde::Serialize;
use serde_json::Value;

use crate::gen::Candidate;
use crate::oracle::{evaluate, Evaluation, FuzzConfig, Role, View, VIEWS};

/// One view's pins.
#[derive(Clone, Debug)]
pub struct Pins {
    /// Pinned static verdict (manifest field `static_<view>`).
    pub verdict: String,
    /// Pinned `(seed, outcome class)` probes (manifest field
    /// `dynamic_<view>`).
    pub probes: Vec<(u64, String)>,
}

/// One manifest entry.
#[derive(Clone, Debug)]
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
    /// One entry per [`VIEWS`] row, in table order.
    pub pins: Vec<Pins>,
    /// The behavioural novelty key that earned the slot (documentation;
    /// digests inside are build-specific and not re-checked on replay).
    pub coverage_key: String,
}

impl CorpusEntry {
    /// The pins of the view named `name`. Panics on a name not in
    /// [`VIEWS`].
    pub fn view(&self, name: &str) -> &Pins {
        let at = VIEWS.iter().position(|v| v.name == name);
        &self.pins[at.unwrap_or_else(|| panic!("no view named {name}"))]
    }
}

/// A view's two manifest fields.
fn fields(view: &View) -> [String; 2] {
    [format!("static_{}", view.name), format!("dynamic_{}", view.name)]
}

impl Serialize for CorpusEntry {
    fn serialize_json(&self, out: &mut String) {
        let mut members: Vec<(String, &dyn Serialize)> = vec![
            ("name".into(), &self.name),
            ("file".into(), &self.file),
            ("origin".into(), &self.origin),
            ("machine_class".into(), &self.machine_class),
            ("params".into(), &self.params),
        ];
        // The manifest's member order predates the view table: the
        // contract views' verdicts, then their probes, then each other
        // view's pair.
        let (contract, others): (Vec<_>, Vec<_>) =
            VIEWS.iter().zip(&self.pins).partition(|(v, _)| v.role == Role::Contract);
        for (view, pins) in &contract {
            let [verdict, _] = fields(view);
            members.push((verdict, &pins.verdict));
        }
        for (view, pins) in &contract {
            let [_, probes] = fields(view);
            members.push((probes, &pins.probes));
        }
        for (view, pins) in &others {
            let [verdict, probes] = fields(view);
            members.push((verdict, &pins.verdict));
            members.push((probes, &pins.probes));
        }
        members.push(("coverage_key".into(), &self.coverage_key));
        out.push('{');
        for (k, (key, value)) in members.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            serde::write_json_str(out, key);
            out.push(':');
            value.serialize_json(out);
        }
        out.push('}');
    }
}

/// The manifest file name inside a corpus directory.
pub const MANIFEST: &str = "corpus.json";

/// Builds a manifest entry from a candidate and its evaluation.
pub fn entry_of(cand: &Candidate, ev: &Evaluation, coverage_key: &str) -> CorpusEntry {
    CorpusEntry {
        name: cand.name.clone(),
        file: format!("{}.fail", cand.name),
        origin: cand.origin.clone(),
        machine_class: cand.machine_class.clone(),
        params: cand.params.clone(),
        pins: ev
            .views
            .iter()
            .map(|v| Pins {
                verdict: v.summary.verdict.to_string(),
                probes: v.dynamic.iter().map(|r| (r.seed, r.class.to_string())).collect(),
            })
            .collect(),
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

fn pin_list(v: &Value, key: &str, ctx: &str) -> Result<Vec<(u64, String)>, String> {
    let arr = v
        .get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{ctx}: missing array field `{key}`"))?;
    arr.iter()
        .map(|pair| {
            let seed = pair[0].as_u64().ok_or_else(|| format!("{ctx}: bad seed in `{key}`"))?;
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
                let v = pair[1].as_i64().ok_or_else(|| format!("{ctx}: bad param value"))?;
                Ok((k.to_string(), v))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let entry = CorpusEntry {
            name: name.clone(),
            file: file.clone(),
            origin: str_field(row, "origin", &ctx)?,
            machine_class: str_field(row, "machine_class", &ctx)?,
            params,
            pins: VIEWS
                .iter()
                .map(|view| {
                    let [verdict, probes] = fields(view);
                    Ok(Pins {
                        verdict: str_field(row, &verdict, &ctx)?,
                        probes: pin_list(row, &probes, &ctx)?,
                    })
                })
                .collect::<Result<_, String>>()?,
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

/// Re-evaluates one corpus entry under `cfg`, the oracle configuration of
/// the campaign that pinned it (probe seeds, escalation ladder and all),
/// and compares every pin with what the evaluation records. A probe list
/// drifts when a class, a seed or the number of probes differs, so a
/// changed escalation ladder is caught too. Returns FZ004 diagnostics for
/// every drift, or the harness's own diagnostics for an entry it refuses to
/// run.
pub fn replay_entry(entry: &CorpusEntry, source: &str, cfg: &FuzzConfig) -> Vec<Diagnostic> {
    drift(entry, evaluate(&candidate_of(entry, source), cfg))
}

/// [`replay_entry`]'s comparison, over an evaluation already made.
pub(crate) fn drift(entry: &CorpusEntry, ev: Result<Evaluation, Report>) -> Vec<Diagnostic> {
    let ev = match ev {
        Ok(ev) => ev,
        Err(refusal) => return refusal.diagnostics,
    };
    let views = || ev.views.iter().zip(&entry.pins);
    let mut drift = Vec::new();
    for (v, pins) in views() {
        if v.summary.verdict.to_string() != pins.verdict {
            drift.push(format!(
                "static verdict ({}) is {}, pinned {}",
                v.view.name, v.summary.verdict, pins.verdict
            ));
        }
    }
    for (v, pins) in views() {
        let ran: Vec<(u64, &str)> = v.dynamic.iter().map(|r| (r.seed, r.class)).collect();
        let pinned: Vec<(u64, &str)> = pins.probes.iter().map(|(s, c)| (*s, c.as_str())).collect();
        if ran != pinned {
            drift.push(format!(
                "dynamic probes ({}) are [{}], pinned [{}]",
                v.view.name,
                probe_note(&ran),
                probe_note(&pinned)
            ));
        }
    }
    drift
        .into_iter()
        .map(|what| {
            Diagnostic::new(
                Severity::Error,
                "FZ004",
                0,
                format!("corpus replay drift: {what}"),
                "a pinned verdict changed — either a regression in the \
                 simulator/model checker, or the corpus manifest needs \
                 regenerating after an intentional behaviour change",
            )
        })
        .collect()
}

/// `seed:class` pairs, space-separated.
fn probe_note(probes: &[(u64, &str)]) -> String {
    probes
        .iter()
        .map(|(seed, class)| format!("{seed}:{class}"))
        .collect::<Vec<_>>()
        .join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every field with a valid value, and whether it is a string (else a
    /// list of pairs).
    const FIELDS: [(&str, &str, bool); 14] = [
        ("name", r#""e1""#, true),
        ("file", r#""e1.fail""#, true),
        ("origin", r#""test""#, true),
        ("machine_class", r#""ADVnodes""#, true),
        ("params", r#"[["X", 4], ["N", -2]]"#, false),
        ("static_historical", r#""survives""#, true),
        ("static_fixed", r#""survives""#, true),
        ("dynamic_historical", r#"[[1, "a"], [2, "b"]]"#, false),
        ("dynamic_fixed", r#"[[1, "completed"]]"#, false),
        ("static_ulfm", r#""survives""#, true),
        ("dynamic_ulfm", r#"[[1, "completed"]]"#, false),
        ("static_replica", r#""freezes""#, true),
        ("dynamic_replica", r#"[[1, "buggy"]]"#, false),
        ("coverage_key", r#""k""#, true),
    ];

    /// Values of the wrong type for a string field, and for a list of
    /// `[seed, class]` / `[name, value]` pairs.
    const NOT_A_STRING: [&str; 5] = ["7", "null", "true", "[]", "{}"];
    const NOT_PAIRS: [&str; 8] = [
        r#""x""#,
        "7",
        "null",
        "{}",
        "[7]",
        "[[1]]",
        r#"[["a", "b"]]"#,
        r#"[[-1, "c"]]"#,
    ];

    /// Numbers a seed (`u64`) or a parameter (`i64`) cannot hold.
    const TOO_BIG: [&str; 6] = [
        "18446744073709551616",
        "1e20",
        "-1e19",
        "123456789012345678901234567890",
        "1e999",
        "2.5",
    ];

    /// A one-entry manifest over `e1.fail` with `field` set to `value`, or
    /// left out when `value` is `None`, and every other field valid.
    fn manifest(field: &str, value: Option<&str>) -> String {
        let members: Vec<String> = FIELDS
            .iter()
            .filter_map(|&(name, valid, _)| {
                let v = if name == field { value? } else { valid };
                Some(format!("{name:?}: {v}"))
            })
            .collect();
        format!("[{{{}}}]", members.join(", "))
    }

    /// The manifest with `field` set to `value` (and the rest valid).
    fn manifest_with(field: &str, value: &str) -> String {
        manifest(field, Some(value))
    }

    /// This process' corpus directory for the test tagged `tag`.
    fn dir(tag: &str) -> std::path::PathBuf {
        let name = format!("failmpi-corpus-{tag}-{}", std::process::id());
        std::env::temp_dir().join(name)
    }

    /// Loads `manifest` from the corpus directory of `tag`, next to a
    /// valid `e1.fail`, and counts the entries.
    fn load(tag: &str, manifest: &[u8]) -> Result<usize, String> {
        let dir = dir(tag);
        std::fs::create_dir_all(&dir).expect("tmpdir");
        std::fs::write(dir.join("e1.fail"), "daemon A { node 1: }").expect("source");
        std::fs::write(dir.join(MANIFEST), manifest).expect("manifest");
        load_corpus(&dir).map(|entries| entries.len())
    }

    #[test]
    fn the_template_loads_and_each_field_is_read() {
        let ok = manifest_with("", "");
        assert_eq!(load("template", ok.as_bytes()), Ok(1));
        let (entry, _) = load_corpus(&dir("template")).expect("loads").remove(0);
        assert_eq!(entry.params, [("X".to_string(), 4), ("N".to_string(), -2)]);
        assert_eq!(entry.view("historical").probes, [(1, "a".into()), (2, "b".into())]);
        assert_eq!(entry.view("replica").verdict, "freezes");
        // Written back member for member, in the manifest's order.
        let written = serde_json::to_string(&[&entry]).expect("serializes");
        assert_eq!(written, ok.replace(' ', ""));
        let big_seed = manifest_with("dynamic_fixed", r#"[[9007199254740992, "a"]]"#);
        assert_eq!(load("big-seed", big_seed.as_bytes()), Ok(1));
    }

    #[test]
    fn a_missing_field_is_refused_naming_it() {
        for (name, _, _) in FIELDS {
            let result = load("missing", manifest(name, None).as_bytes());
            let err = result.expect_err(name);
            assert!(err.contains(&format!("`{name}`")), "{name}: {err}");
        }
    }

    proptest::proptest! {
        #[test]
        fn arbitrary_bytes_are_refused_without_unwinding(
            bytes in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..600),
        ) {
            proptest::prop_assert!(load("bytes", &bytes).is_err());
        }

        #[test]
        fn a_truncated_manifest_is_refused(cut: usize) {
            let doc = manifest_with("", "");
            proptest::prop_assert!(load("cut", &doc.as_bytes()[..cut % doc.len()]).is_err());
        }

        #[test]
        fn a_field_of_the_wrong_type_is_refused(field in 0..FIELDS.len(), pick: usize) {
            let (name, _, is_string) = FIELDS[field];
            let wrong = if is_string {
                NOT_A_STRING[pick % NOT_A_STRING.len()]
            } else {
                NOT_PAIRS[pick % NOT_PAIRS.len()]
            };
            let result = load("types", manifest_with(name, wrong).as_bytes());
            proptest::prop_assert!(result.is_err(), "{} = {}: {:?}", name, wrong, result);
        }

        #[test]
        fn a_seed_or_param_out_of_range_is_refused(
            field in proptest::sample::select(vec![
                "params", "dynamic_historical", "dynamic_fixed", "dynamic_ulfm", "dynamic_replica",
            ]),
            pick in 0..TOO_BIG.len(),
        ) {
            let pair = if field == "params" {
                format!(r#"[["X", {}]]"#, TOO_BIG[pick])
            } else {
                format!(r#"[[{}, "completed"]]"#, TOO_BIG[pick])
            };
            let result = load("range", manifest_with(field, &pair).as_bytes());
            proptest::prop_assert!(result.is_err(), "{} = {}: {:?}", field, pair, result);
        }
    }
}
