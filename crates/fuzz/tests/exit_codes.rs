//! Exit-code contract of the `failmpi-fuzz` binary, driven through the
//! compiled executable: 0 on a clean campaign or drift-free replay, 1 when
//! error-severity findings (FZ001/FZ002/FZ004) surface, 2 on usage or I/O
//! errors — and never a vacuous pass on malformed input.

use std::path::PathBuf;
use std::process::Command;

fn fuzz() -> Command {
    Command::new(env!("CARGO_BIN_EXE_failmpi-fuzz"))
}

fn code(out: &std::process::Output) -> i32 {
    out.status.code().expect("exit code")
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("failmpi-fuzz-test-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmpdir");
    dir
}

#[test]
fn help_exits_zero() {
    // Wherever it appears, a bad flag before it included.
    for args in [&["--help"][..], &["--bogus", "-h"]] {
        let out = fuzz().args(args).output().expect("runs");
        assert_eq!(code(&out), 0, "{args:?}");
        assert!(String::from_utf8_lossy(&out.stdout).contains("usage:"));
    }
}

#[test]
fn usage_errors_exit_two() {
    // Unknown flag, flags missing their values, bad format, zero probe
    // seeds, a zero budget (no campaign, not a vacuous pass), and the
    // replay/corpus conflict all land on exit 2, naming the argument.
    for (args, needle) in [
        (vec!["--bogus"], "unknown argument `--bogus`"),
        (vec!["extra"], "unknown argument `extra`"),
        (vec!["--seed"], "--seed needs a number"),
        (vec!["--budget", "many"], "--budget needs a number >= 1"),
        (vec!["--budget", "0"], "--budget needs a number >= 1"),
        (vec!["--format", "xml"], "--format needs human|json"),
        (vec!["--probe-seeds", "0"], "--probe-seeds needs a number >= 1"),
        // Every candidate is probed under each seed, all of them listed up
        // front: past the ceiling is refused, not allocated.
        (vec!["--probe-seeds", "18446744073709551615"], "--probe-seeds needs a number >= 1 and <= 1000"),
        (vec!["--probe-seeds", "1001"], "--probe-seeds needs a number >= 1 and <= 1000"),
        (vec!["--replay", "x", "--corpus", "y"], "--replay cannot be combined with --corpus"),
        (vec!["--replay", "x", "--minimize-family"], "--replay cannot be combined with --minimize-family"),
    ] {
        let out = fuzz().args(&args).output().expect("runs");
        assert_eq!(code(&out), 2, "args {args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.starts_with("failmpi-fuzz: "), "{args:?}: {stderr}");
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed a summary");
    }
}

#[test]
fn replay_of_a_missing_or_broken_corpus_exits_two() {
    let out = fuzz()
        .args(["--replay", "/nonexistent/fuzz-corpus"])
        .output()
        .expect("runs");
    assert_eq!(code(&out), 2);

    // A directory whose manifest is not JSON must refuse, not pass.
    let dir = scratch("broken-manifest");
    std::fs::write(dir.join("corpus.json"), "daemon A { node 1: }").expect("write");
    let out = fuzz().arg("--replay").arg(&dir).output().expect("runs");
    assert_eq!(code(&out), 2, "{out:?}");
}

#[test]
fn clean_campaign_exits_zero_and_is_deterministic() {
    let dir_a = scratch("campaign-a");
    let dir_b = scratch("campaign-b");
    let mut stdouts = Vec::new();
    for dir in [&dir_a, &dir_b] {
        let out = fuzz()
            .args(["--seed", "1", "--budget", "3", "--format", "json"])
            .arg("--corpus")
            .arg(dir.join("corpus"))
            .arg("--findings")
            .arg(dir.join("findings.json"))
            .output()
            .expect("runs");
        assert_eq!(code(&out), 0, "{out:?}");
        stdouts.push(String::from_utf8(out.stdout).expect("utf8"));
    }
    assert!(stdouts[0].contains("\"fig10_family_rediscovered\""));
    // Double-run determinism, down to the bytes of every artifact.
    assert_eq!(stdouts[0], stdouts[1]);
    assert_eq!(
        std::fs::read(dir_a.join("findings.json")).expect("findings a"),
        std::fs::read(dir_b.join("findings.json")).expect("findings b"),
    );
    let manifest_a = std::fs::read(dir_a.join("corpus/corpus.json")).expect("manifest a");
    assert_eq!(
        manifest_a,
        std::fs::read(dir_b.join("corpus/corpus.json")).expect("manifest b"),
    );

    // The freshly written corpus replays with zero drift...
    let out = fuzz()
        .arg("--replay")
        .arg(dir_a.join("corpus"))
        .output()
        .expect("runs");
    assert_eq!(code(&out), 0, "{out:?}");

    // ...and a corrupted pin is caught as FZ004 with exit 1 — the drift
    // path is exercised, never vacuous.
    let manifest = String::from_utf8(manifest_a).expect("utf8");
    assert!(manifest.contains("\"freezes\""), "{manifest}");
    let tampered = manifest.replacen("\"freezes\"", "\"survives\"", 1);
    std::fs::write(dir_a.join("corpus/corpus.json"), tampered).expect("write");
    let out = fuzz()
        .arg("--replay")
        .arg(dir_a.join("corpus"))
        .output()
        .expect("runs");
    assert_eq!(code(&out), 1, "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("FZ004"));
}

/// Malformed flags, unwritable outputs and hostile corpus manifests: every
/// row is exit 2 with a one-line diagnostic — never a panic, a signal, or
/// a file read from outside the corpus directory.
#[test]
fn malformed_input_exits_two_and_never_panics() {
    // A one-entry manifest whose source file is `file` and whose one
    // parameter is `x`.
    let manifest = |file: &str, x: &str| {
        format!(
            r#"[{{"name": "e1", "file": "{file}", "origin": "test", "machine_class": "ADVnodes",
                "params": [["X", {x}]], "static_historical": "survives", "static_fixed": "survives",
                "dynamic_historical": [[1, "completed"]], "dynamic_fixed": [[1, "completed"]],
                "static_ulfm": "survives", "dynamic_ulfm": [[1, "completed"]],
                "static_replica": "survives", "dynamic_replica": [[1, "completed"]],
                "coverage_key": "k"}}]"#
        )
    };
    // One corpus directory per manifest under test.
    let corpus = |tag: &str, manifest: &[u8]| {
        let dir = scratch(tag);
        std::fs::write(dir.join("corpus.json"), manifest).expect("write");
        dir.to_str().expect("utf8 path").to_string()
    };
    let good = manifest("e1.fail", "4");
    let truncated = corpus("m-truncated", &good.as_bytes()[..good.len() / 2]);
    let empty_object = corpus("m-object", b"{}");
    let numbers = corpus("m-numbers", b"[1, 2, 3]");
    let binary = corpus("m-binary", &(0..=255u8).cycle().take(1024).collect::<Vec<u8>>());
    let deep = corpus("m-deep", &[b'['; 50_000]);
    let missing_source = corpus("m-missing", good.as_bytes());
    let huge = corpus("m-huge", manifest("e1.fail", "123456789012345678901234567890").as_bytes());
    let infinite = corpus("m-infinite", manifest("e1.fail", "1e999").as_bytes());
    let parent = corpus("m-parent", manifest("../m-parent/corpus.json", "4").as_bytes());
    let absolute = corpus("m-absolute", manifest("/etc/passwd", "4").as_bytes());
    let dotdot = corpus("m-dotdot", manifest("..", "4").as_bytes());
    let not_a_dir = format!("{parent}/corpus.json");
    // (arguments, stderr needle)
    let cases: [(Vec<&str>, &str); 27] = [
        (vec!["--seed", "x"], "--seed needs a number"),
        (vec!["--seed", "-1"], "--seed needs a number"),
        (vec!["--seed", "99999999999999999999999"], "--seed needs a number"),
        (vec!["--budget"], "--budget needs a number >= 1"),
        (vec!["--budget", "1e3"], "--budget needs a number >= 1"),
        (vec!["--probe-seeds"], "--probe-seeds needs a number >= 1"),
        (vec!["--probe-seeds", "99999999999999999999"], "--probe-seeds needs a number >= 1"),
        (vec!["--corpus"], "--corpus needs a directory"),
        (vec!["--findings"], "--findings needs a path"),
        (vec!["--replay"], "--replay needs a directory"),
        (vec!["--format"], "--format needs human|json"),
        (vec!["--budget", "1", "--findings", "/nonexistent/dir/f.json"], "cannot write"),
        (vec!["--budget", "1", "--corpus", "/proc/nonexistent/corpus"], "cannot write corpus"),
        (vec!["--replay", &not_a_dir], "cannot read"),
        (vec!["--replay", &truncated], "corpus.json: json error"),
        (vec!["--replay", &empty_object], "expected a JSON array"),
        (vec!["--replay", &numbers], "corpus.json: missing string field `name`"),
        (vec!["--replay", &binary], "cannot read"),
        // 50 000 unclosed brackets used to overflow the JSON reader's stack.
        (vec!["--replay", &deep], "nesting deeper than 128"),
        (vec!["--replay", &missing_source], "cannot read"),
        // A parameter no `i64` holds is refused, not saturated.
        (vec!["--replay", &huge], "corpus.json[e1]: bad param value"),
        (vec!["--replay", &infinite], "corpus.json[e1]: bad param value"),
        // A manifest may only name files of its own directory.
        (vec!["--replay", &parent], "corpus.json[e1]: `file` must be a bare file name"),
        (vec!["--replay", &absolute], "`file` must be a bare file name, got \"/etc/passwd\""),
        (vec!["--replay", &dotdot], "`file` must be a bare file name"),
        (vec!["--replay", &parent, "--format", "json"], "bare file name"),
        (vec!["--replay", &absolute, "--probe-seeds", "1"], "bare file name"),
    ];
    for (args, needle) in cases {
        let out = fuzz().args(&args).output().expect("runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(stderr.starts_with("failmpi-fuzz: "), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked at") && !stderr.contains("overflowed its stack"));
    }
}
