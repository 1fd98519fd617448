//! Every `crates/…` path the top-level documents cite exists in the
//! tree, so moving or deleting a file cannot leave a reader following a
//! stale reference. A `*` in a path component matches any run of
//! characters and must match at least one entry.

use std::path::{Path, PathBuf};

const DOCS: [&str; 4] = ["README.md", "DESIGN.md", "ROADMAP.md", "EXPERIMENTS.md"];

/// The `crates/…` paths cited in `text`, with sentence punctuation
/// trimmed. A path that continues another one (`../crates/x`) or names
/// no file (`crates/`, `crates/…`) is not a citation.
fn cited_paths(text: &str) -> Vec<&str> {
    let is_path_char = |c: char| c.is_ascii_alphanumeric() || "_./*-".contains(c);
    let mut paths = Vec::new();
    for (start, _) in text.match_indices("crates/") {
        let before = text[..start].chars().next_back();
        if before.is_some_and(|c| c.is_ascii_alphanumeric() || "./_-".contains(c)) {
            continue;
        }
        let len = text[start..].find(|c| !is_path_char(c)).unwrap_or(text.len() - start);
        let path = text[start..start + len].trim_end_matches(['.', ',']);
        if path.trim_end_matches('/') != "crates" && !text[start + len..].starts_with('…') {
            paths.push(path);
        }
    }
    paths
}

/// Whether `name` matches `pattern`, where `*` matches any run of
/// characters.
fn matches(pattern: &str, name: &str) -> bool {
    match pattern.split_once('*') {
        None => pattern == name,
        Some((head, tail)) => {
            name.starts_with(head)
                && (head.len()..=name.len())
                    .any(|i| name.is_char_boundary(i) && matches(tail, &name[i..]))
        }
    }
}

/// The entries under `root` that the `/`-separated `pattern` names.
fn expand(root: &Path, pattern: &str) -> Vec<PathBuf> {
    let mut found = vec![root.to_path_buf()];
    for component in pattern.split('/').filter(|c| !c.is_empty()) {
        found = found
            .iter()
            .flat_map(|dir| -> Vec<PathBuf> {
                if !component.contains('*') {
                    let next = dir.join(component);
                    return if next.exists() { vec![next] } else { vec![] };
                }
                let Ok(entries) = std::fs::read_dir(dir) else { return vec![] };
                entries
                    .filter_map(Result::ok)
                    .filter(|e| matches(component, &e.file_name().to_string_lossy()))
                    .map(|e| e.path())
                    .collect()
            })
            .collect();
    }
    found
}

#[test]
fn every_cited_crates_path_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut stale = Vec::new();
    let mut checked = 0;
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc)).expect("doc readable");
        for path in cited_paths(&text) {
            checked += 1;
            if expand(root, path).is_empty() {
                stale.push(format!("{doc}: {path}"));
            }
        }
    }
    assert!(checked > 20, "only {checked} citations found: the scan is broken");
    assert!(stale.is_empty(), "cited paths that do not exist:\n{}", stale.join("\n"));
}

#[test]
fn the_scan_reads_citations_as_written() {
    let text = "see crates/core/scenarios/*.fail, crates/obs. Not ../crates/x, \
                crates/ or crates/…; `crates/trace/src/lib.rs`";
    assert_eq!(
        cited_paths(text),
        ["crates/core/scenarios/*.fail", "crates/obs", "crates/trace/src/lib.rs"]
    );
    assert!(matches("fc00*.fail", "fc001_x.fail"));
    assert!(!matches("fc00*.fail", "fc001_x.json"));
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    assert!(expand(root, "crates/does-not-exist").is_empty());
    assert!(!expand(root, "crates/*/src").is_empty());
}
