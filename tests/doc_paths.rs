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

/// The open items of a ROADMAP text, by number, each with the sub-item
/// labels it defines: `A` for a lettered part, `Aa` for a sub-item of
/// one, `a` for a sub-item of an item without parts. An item opens a line
/// with `N. `; a label opens a line (after indentation and bold markers)
/// with `(x)`. Only the "Open items" section counts.
fn roadmap_items(text: &str) -> BTreeMap<u32, BTreeSet<String>> {
    let open = text.split("\n## Open items").nth(1).unwrap_or("");
    let open = open.split("\n## ").next().unwrap_or("");
    let mut items: BTreeMap<u32, BTreeSet<String>> = BTreeMap::new();
    let (mut item, mut part) = (None, None);
    for line in open.lines() {
        if let Some(n) = line.split_once(". ").and_then(|(n, _)| n.parse::<u32>().ok()) {
            (item, part) = (Some(n), None);
            items.entry(n).or_default();
            continue;
        }
        let label = line.trim_start().trim_start_matches('*').strip_prefix('(');
        let mut label = label.and_then(|l| l.split_once(')')).map_or("", |(l, _)| l).chars();
        let (Some(n), Some(c), None) = (item, label.next(), label.next()) else { continue };
        let key = if c.is_ascii_uppercase() {
            part = Some(c);
            c.to_string()
        } else if c.is_ascii_lowercase() {
            part.map_or(c.to_string(), |p| format!("{p}{c}"))
        } else {
            continue;
        };
        items.entry(n).or_default().insert(key);
    }
    items
}

/// The ROADMAP citations in `text` — `ROADMAP item N`, `ROADMAP N(X)`,
/// `ROADMAP N(X)(y)`, across a line break or a comment marker — as
/// (the citation as written, item number, sub-item labels in
/// [`roadmap_items`]' form). A letter range `(a–b)` names both ends.
fn roadmap_citations(text: &str) -> Vec<(&str, u32, Vec<String>)> {
    let gap = |c: char| c.is_whitespace() || c == '/' || c == '!';
    let mut found = Vec::new();
    for (start, _) in text.match_indices("ROADMAP") {
        let rest = text[start + "ROADMAP".len()..].trim_start_matches(gap);
        let rest = rest.strip_prefix("item").map_or(rest, |r| r.trim_start_matches(gap));
        let digits = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
        let Ok(number) = rest[..digits].parse::<u32>() else { continue };
        let mut tail = &rest[digits..];
        let mut groups: Vec<Vec<char>> = Vec::new();
        while let Some((inner, after)) = tail.strip_prefix('(').and_then(|t| t.split_once(')')) {
            let letters: Vec<char> = inner.chars().filter(|c| !"–-,".contains(*c)).collect();
            if letters.is_empty() || !letters.iter().all(char::is_ascii_alphabetic) {
                break;
            }
            groups.push(letters);
            tail = after;
        }
        let keys = match &groups[..] {
            [] => Vec::new(),
            [one] => one.iter().map(char::to_string).collect(),
            [part, sub, ..] => part
                .iter()
                .flat_map(|p| sub.iter().map(move |s| format!("{p}{s}")))
                .chain(part.iter().map(char::to_string))
                .collect(),
        };
        let end = text.len() - tail.len();
        found.push((&text[start..end], number, keys));
    }
    found
}

/// Every `.rs` file under `dir`, build directories skipped.
fn rust_sources(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut dirs = vec![dir.to_path_buf()];
    while let Some(dir) = dirs.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else { continue };
        for path in entries.filter_map(Result::ok).map(|e| e.path()) {
            if path.is_dir() && !path.join("CACHEDIR.TAG").exists() {
                dirs.push(path);
            } else if path.extension().is_some_and(|x| x == "rs") {
                files.push(path);
            }
        }
    }
    files
}

#[test]
fn every_roadmap_citation_names_an_open_item() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let roadmap = std::fs::read_to_string(root.join("ROADMAP.md")).expect("ROADMAP readable");
    let items = roadmap_items(&roadmap);
    let scanned = items.len() > 10 && items.get(&2).is_some_and(|l| l.contains("Ac"));
    assert!(scanned, "the ROADMAP scan is broken: {items:?}");
    let mut stale = Vec::new();
    let mut checked = 0;
    for file in docs(root).into_iter().chain(rust_sources(&root.join("crates"))) {
        let text = std::fs::read_to_string(&file).expect("file readable");
        for (cited, number, keys) in roadmap_citations(&text) {
            checked += 1;
            let labels = items.get(&number);
            if !labels.is_some_and(|l| keys.iter().all(|k| l.contains(k))) {
                stale.push(format!("{}: {cited}", file.display()));
            }
        }
    }
    assert!(checked > 8, "only {checked} citations found: the scan is broken");
    assert!(stale.is_empty(), "citations of no open ROADMAP item:\n{}", stale.join("\n"));
}

#[test]
fn the_roadmap_scan_reads_items_and_labels_as_written() {
    let roadmap = "# ROADMAP\n## Open items\n\
                   2. **Speed.**\n   **(A) Checker.**\n   (a) **Symmetry.**\n   \
                   (c) **Cost.** Done: (b), not a label.\n   **(B) Events.**\n   (a) **Layout.**\n\
                   5. **Robustness.**\n   **(a) No panic.**\n   (faults, steps) is prose.\n\
                   ## Recent\n13. **Retired.**\n   (a) **Gone.**\n";
    let items = roadmap_items(roadmap);
    let labels = |n: u32| items[&n].iter().map(String::as_str).collect::<Vec<_>>();
    assert_eq!(items.keys().copied().collect::<Vec<_>>(), [2, 5]);
    assert_eq!(labels(2), ["A", "Aa", "Ac", "B", "Ba"]);
    assert_eq!(labels(5), ["a"]);

    let text = "ROADMAP item 2(B) and ROADMAP 2(A)(a–c)), ROADMAP\n  //! item 13's, \
                ROADMAP 5(a); ROADMAP (no number), ROADMAP 2(A)(b).";
    let cited: Vec<(&str, u32, Vec<String>)> = roadmap_citations(text);
    let keys = |i: usize| cited[i].2.iter().map(String::as_str).collect::<Vec<_>>();
    assert_eq!(
        cited.iter().map(|c| (c.0, c.1)).collect::<Vec<_>>(),
        [
            ("ROADMAP item 2(B)", 2),
            ("ROADMAP 2(A)(a–c)", 2),
            ("ROADMAP\n  //! item 13", 13),
            ("ROADMAP 5(a)", 5),
            ("ROADMAP 2(A)(b)", 2),
        ]
    );
    assert_eq!(keys(1), ["Aa", "Ac", "A"]);
    let open = |i: usize| {
        items.get(&cited[i].1).is_some_and(|l| cited[i].2.iter().all(|k| l.contains(k)))
    };
    assert_eq!((0..cited.len()).map(open).collect::<Vec<_>>(), [true, true, false, true, false]);
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
