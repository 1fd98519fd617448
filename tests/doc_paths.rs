//! Every `crates/…` path and every binary the documents cite exists in
//! the tree, so moving, renaming or deleting a file or binary cannot leave
//! a reader following a stale reference. A `*` in a path component
//! matches any run of characters and must match at least one entry.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// The documents a reader follows to build, run and understand the repo.
const DOCS: [&str; 6] = [
    "README.md",
    "DESIGN.md",
    "ROADMAP.md",
    "EXPERIMENTS.md",
    "results/README.md",
    "ci/run.sh",
];

/// [`DOCS`] plus the Markdown notes kept in hidden top-level directories
/// beside tool configuration (how to build and drive the binaries); `.git`
/// and build directories (a cargo `CACHEDIR.TAG`) are not read.
fn docs(root: &Path) -> Vec<PathBuf> {
    let mut docs: Vec<PathBuf> = DOCS.iter().map(|d| root.join(d)).collect();
    let mut dirs: Vec<PathBuf> = std::fs::read_dir(root)
        .expect("repo root readable")
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().starts_with('.') && e.file_name() != ".git")
        .map(|e| e.path())
        .filter(|dir| !dir.join("CACHEDIR.TAG").exists())
        .collect();
    while let Some(dir) = dirs.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else { continue };
        for path in entries.filter_map(Result::ok).map(|e| e.path()) {
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|x| x == "md") {
                docs.push(path);
            }
        }
    }
    docs
}

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

/// The binaries cited as `target/release/<name>` or `--bin <name>`.
fn cited_binaries(text: &str) -> Vec<&str> {
    let mut names = Vec::new();
    for prefix in ["target/release/", "--bin "] {
        for (start, _) in text.match_indices(prefix) {
            let rest = &text[start + prefix.len()..];
            let len = rest.find(|c: char| !c.is_ascii_alphanumeric() && !"_-".contains(c));
            let name = &rest[..len.unwrap_or(rest.len())];
            if !name.is_empty() {
                names.push(name);
            }
        }
    }
    names
}

/// The workspace's binaries: one per `crates/*/src/bin/*.rs`, named by the
/// `[[bin]]` table that points at the file, else by its stem.
fn binaries(root: &Path) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for krate in expand(root, "crates/*") {
        let Ok(files) = std::fs::read_dir(krate.join("src/bin")) else { continue };
        let manifest = std::fs::read_to_string(krate.join("Cargo.toml")).expect("manifest");
        let renamed: BTreeMap<&str, &str> = manifest
            .split("[[bin]]")
            .skip(1)
            .filter_map(|table| {
                let field = |key: &str| {
                    table.lines().find_map(|l| l.strip_prefix(key)).map(|v| v.trim().trim_matches('"'))
                };
                Some((field("path = ")?, field("name = ")?))
            })
            .collect();
        for file in files.filter_map(Result::ok).map(|e| e.path()) {
            let stem = file.file_stem().expect("file name").to_string_lossy().into_owned();
            let path = format!("src/bin/{}", file.file_name().expect("file name").to_string_lossy());
            names.insert(renamed.get(path.as_str()).map_or(stem, |name| name.to_string()));
        }
    }
    names
}

#[test]
fn every_cited_crates_path_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut stale = Vec::new();
    let mut checked = 0;
    for doc in docs(root) {
        let text = std::fs::read_to_string(&doc).expect("doc readable");
        for path in cited_paths(&text) {
            checked += 1;
            if expand(root, path).is_empty() {
                stale.push(format!("{}: {path}", doc.display()));
            }
        }
    }
    assert!(checked > 20, "only {checked} citations found: the scan is broken");
    assert!(stale.is_empty(), "cited paths that do not exist:\n{}", stale.join("\n"));
}

#[test]
fn every_cited_binary_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let binaries = binaries(root);
    assert!(binaries.contains("failmpi-trace"), "the scan is broken: {binaries:?}");
    let mut stale = Vec::new();
    let mut checked = 0;
    for doc in docs(root) {
        let text = std::fs::read_to_string(&doc).expect("doc readable");
        for name in cited_binaries(&text) {
            checked += 1;
            if !binaries.contains(name) {
                stale.push(format!("{}: {name}", doc.display()));
            }
        }
    }
    assert!(checked > 20, "only {checked} citations found: the scan is broken");
    assert!(stale.is_empty(), "cited binaries that do not exist:\n{}", stale.join("\n"));
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
    let text = "`target/release/figure fig5`, `--bin failmpi-trace --`, target/release/ alone";
    assert_eq!(cited_binaries(text), ["figure", "failmpi-trace"]);
}
