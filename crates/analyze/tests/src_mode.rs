//! `failck --src`: the source-lint surface through the real binary.
//!
//! Covers the exit-code matrix (0 clean / 1 findings / 2 usage), the
//! workspace self-clean gate, and byte-identical `--format json` output
//! across repeated runs — the same determinism contract the lints
//! themselves enforce.

use std::path::PathBuf;
use std::process::Command;

fn failck(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_failck"))
        .args(args)
        .output()
        .expect("failck runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// A seeded-defect fixture from the srclint crate's own test corpus.
fn fixture(name: &str) -> String {
    let p = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../srclint/tests/fixtures")
        .join(name);
    assert!(p.exists(), "missing fixture {name}");
    p.to_str().unwrap().to_string()
}

fn workspace_root() -> String {
    let p = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    p.to_str().unwrap().to_string()
}

#[test]
fn seeded_defects_exit_one() {
    for bad in [
        "sd002_bad.rs",
        "sd003_bad.rs",
        "su001_bad.rs",
        // Crate-shaped: SU003 keys off a real `src/lib.rs` path, so these
        // fixtures live as directories; the conditional forbid is a defect
        // too because the fixture crate is not on the whitelist.
        "su003_bad/src/lib.rs",
        "su003_conditional/src/lib.rs",
    ] {
        let (code, stdout, _) = failck(&["--src", &fixture(bad)]);
        assert_eq!(code, Some(1), "{bad} must fail the gate");
        assert!(stdout.contains("error["), "{bad}: {stdout}");
    }
}

#[test]
fn clean_twins_exit_zero() {
    for ok in ["sd002_clean.rs", "sd003_clean.rs", "su001_clean.rs", "su003_clean/src/lib.rs"] {
        let (code, _, _) = failck(&["--src", "--strict", &fixture(ok)]);
        assert_eq!(code, Some(0), "{ok} must pass the gate");
    }
}

#[test]
fn warning_codes_gate_only_under_strict() {
    // SD004 is a warning: advisory normally, failing under --strict.
    let f = fixture("sd004_bad.rs");
    assert_eq!(failck(&["--src", &f]).0, Some(0));
    assert_eq!(failck(&["--src", "--strict", &f]).0, Some(1));
}

#[test]
fn usage_and_io_errors_exit_two() {
    for (args, needle) in [
        // --src is standalone: scenario modes make no sense over Rust source.
        (&["--src", "--builtin"][..], "--src is a standalone mode: drop --builtin"),
        (&["--src", "--model-check", "."], "--src is a standalone mode: drop --model-check"),
        // A path that does not exist is an I/O error, not a vacuous pass.
        (&["--src", "/nonexistent/nope"], "cannot scan `/nonexistent/nope`"),
    ] {
        let (code, stdout, stderr) = failck(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with("failck: ") && stderr.contains(needle), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(stdout.is_empty(), "{args:?}: {stdout}");
    }
}

#[test]
fn workspace_is_self_clean() {
    // The gate the CI job runs: every allow pragma in the tree carries a
    // reason and no rule fires, even at warning severity.
    let (code, stdout, stderr) = failck(&["--src", "--strict", &workspace_root()]);
    assert_eq!(code, Some(0), "workspace not lint-clean:\n{stdout}{stderr}");
    assert!(stdout.contains("0 error(s), 0 warning(s)"), "{stdout}");
}

#[test]
fn json_output_is_byte_identical_across_runs() {
    let f = fixture("sd001_bad.rs");
    let (c1, first, _) = failck(&["--src", &f, "--format", "json"]);
    let (c2, second, _) = failck(&["--src", &f, "--format", "json"]);
    assert_eq!(c1, c2);
    assert_eq!(first, second, "json report must be run-to-run stable");
    assert!(first.contains("\"SD001\""));
}

#[test]
fn defaulted_path_scans_cwd() {
    // `failck --src` with no positional arguments means `.` — run from
    // the srclint fixture dir so the scan is small and has findings.
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../srclint/tests/fixtures");
    let out = Command::new(env!("CARGO_BIN_EXE_failck"))
        .args(["--src", "--strict"])
        .current_dir(&dir)
        .output()
        .expect("failck runs");
    assert_eq!(out.status.code(), Some(1));
}
