//! The reader behind `failck --findings`: a `failmpi-fuzz` findings
//! artifact (a JSON array of reports carrying FZ-coded diagnostics) parsed,
//! checked for shape and counted. The binary keeps the file I/O, the
//! rendering and the exit codes.
//!
//! A file that is not JSON, or not shaped like a findings artifact, is an
//! [`FindingsError`], never a clean result: a CI gate grepping the output
//! can never pass vacuously. No input unwinds the reader; the properties
//! in this module's tests hold it to that.

use std::collections::BTreeMap;

use serde::Serialize;
use serde_json::Value;

/// One `(code, severity)` bucket of a findings file.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct CodeCount {
    /// The diagnostic code (`FZ001`, …).
    pub code: String,
    /// `error`, `warning` or `info`.
    pub severity: String,
    /// How many diagnostics carry both.
    pub count: usize,
}

/// What a well-formed findings file holds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Findings {
    /// Reports in the file.
    pub reports: usize,
    /// Error-severity diagnostics.
    pub errors: usize,
    /// Warning-severity diagnostics.
    pub warnings: usize,
    /// Diagnostics per `(code, severity)`, in that order.
    pub by_code: Vec<CodeCount>,
    /// One `subject: severity[code]: message` line per diagnostic, in file
    /// order.
    pub lines: Vec<String>,
}

/// Why a text is not a findings file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FindingsError {
    /// The text does not parse as JSON; the parser's message.
    NotJson(String),
    /// The JSON is not shaped like a findings artifact; what is wrong.
    Misshapen(String),
}

/// Parses, shape-checks and counts the findings artifact `text`.
pub fn read_findings(text: &str) -> Result<Findings, FindingsError> {
    let shape = |what: &str| FindingsError::Misshapen(what.to_string());
    let doc = serde_json::from_str(text).map_err(|e| FindingsError::NotJson(e.to_string()))?;
    let reports = doc.as_array().ok_or_else(|| shape("expected a JSON array of reports"))?;

    let (mut errors, mut warnings) = (0usize, 0usize);
    let mut by_code: BTreeMap<(String, String), usize> = BTreeMap::new();
    let mut lines = Vec::new();
    for r in reports {
        let subject = (r.get("subject").and_then(Value::as_str))
            .ok_or_else(|| shape("report without a string `subject`"))?;
        let diags = (r.get("diagnostics").and_then(Value::as_array))
            .ok_or_else(|| shape("report without a `diagnostics` array"))?;
        for d in diags {
            let field = |key: &str| d.get(key).and_then(Value::as_str);
            let (Some(severity), Some(code), Some(message)) =
                (field("severity"), field("code"), field("message"))
            else {
                return Err(shape("diagnostic missing severity/code/message"));
            };
            match severity {
                "error" => errors += 1,
                "warning" => warnings += 1,
                "info" => {}
                other => return Err(shape(&format!("unknown severity `{other}`"))),
            }
            *by_code.entry((code.to_string(), severity.to_string())).or_insert(0) += 1;
            lines.push(format!("{subject}: {severity}[{code}]: {message}"));
        }
    }
    Ok(Findings {
        reports: reports.len(),
        errors,
        warnings,
        by_code: by_code
            .into_iter()
            .map(|((code, severity), count)| CodeCount { code, severity, count })
            .collect(),
        lines,
    })
}

#[cfg(test)]
mod tests {
    //! No input unwinds the reader, and whatever it accepts is counted
    //! consistently: arbitrary bytes, generated JSON trees over the
    //! artifact's own vocabulary, and byte mutations of the fixtures.

    use proptest::prelude::*;

    use super::*;

    const FIXTURES: [&str; 4] = [
        include_str!("../fixtures/findings_clean.json"),
        include_str!("../fixtures/findings_fz.json"),
        include_str!("../fixtures/findings_misshapen.json"),
        include_str!("../fixtures/findings_warning_only.json"),
    ];

    /// Reads `text`; an accepted file's counts must agree with each other.
    fn check(text: &str) -> Result<(), TestCaseError> {
        if let Ok(f) = read_findings(text) {
            let counted: usize = f.by_code.iter().map(|c| c.count).sum();
            prop_assert_eq!(counted, f.lines.len());
            prop_assert!(f.errors + f.warnings <= f.lines.len());
            prop_assert!(f.reports > 0 || f.lines.is_empty());
        }
        Ok(())
    }

    /// A JSON value drawn by `next`, at most `depth` levels deep: objects
    /// mostly keyed by the artifact's own field names, strings mostly its
    /// severities, so generated trees reach every shape check.
    fn tree(next: &mut impl FnMut(usize) -> usize, depth: usize) -> String {
        const KEYS: [&str; 7] =
            ["subject", "diagnostics", "severity", "code", "message", "line", "x"];
        const WORDS: [&str; 6] = ["error", "warning", "info", "FZ001", "fatal", ""];
        let kinds = if depth == 0 { 4 } else { 6 };
        match next(kinds) {
            0 => ["null", "true", "0", "-1.5e3"][next(4)].to_string(),
            1 | 2 => format!("\"{}\"", WORDS[next(WORDS.len())]),
            3 => next(1000).to_string(),
            4 => {
                let items: Vec<String> = (0..next(4)).map(|_| tree(next, depth - 1)).collect();
                format!("[{}]", items.join(", "))
            }
            _ => {
                let members: Vec<String> = (0..next(6))
                    .map(|_| format!("\"{}\": {}", KEYS[next(KEYS.len())], tree(next, depth - 1)))
                    .collect();
                format!("{{{}}}", members.join(", "))
            }
        }
    }

    proptest! {
        #[test]
        fn arbitrary_bytes_never_panic_the_reader(
            bytes in proptest::collection::vec(any::<u8>(), 0..400),
        ) {
            check(&String::from_utf8_lossy(&bytes))?;
        }

        #[test]
        fn generated_json_trees_never_panic_the_reader(seed in any::<u64>(), depth in 0usize..5) {
            let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
            let mut next = move |n: usize| {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                (rng >> 33) as usize % n.max(1)
            };
            let doc = tree(&mut next, depth);
            check(&doc)?;
            check(&format!("[{doc}]"))?;
        }

        #[test]
        fn mutated_fixtures_never_panic_the_reader(
            which in 0usize..4,
            edits in proptest::collection::vec((any::<usize>(), any::<u8>(), 0u8..3), 1..6),
        ) {
            let mut bytes = FIXTURES[which].as_bytes().to_vec();
            for (at, byte, op) in edits {
                let at = at % (bytes.len() + 1);
                match op {
                    0 => bytes.insert(at, byte),
                    1 if at < bytes.len() => bytes[at] = byte,
                    _ if at < bytes.len() => {
                        bytes.remove(at);
                    }
                    _ => bytes.push(byte),
                }
            }
            check(&String::from_utf8_lossy(&bytes))?;
        }
    }
}
