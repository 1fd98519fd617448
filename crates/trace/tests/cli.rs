//! The exit-status contract of the `failmpi-trace` binary, driven through
//! the compiled executable: `--help` is usage on stdout and exit 0; a usage
//! error, a file that cannot be read or parsed, and a trace that breaks an
//! invariant of the format are a diagnostic on stderr and exit 2 — the same
//! contract `figure`, `soak`, `trace` and `failmpi-prof` keep.

use std::process::Command;

/// A file that parses and used to be explained as "verdict: frozen … the
/// MPICH-Vcl dispatcher bug the paper isolated": its only node has a
/// dangling cause and sits on a track the file does not declare, and its
/// failure mark is anchored to a node that is not there.
const CORRUPT: &str = r#"{"schema_version": 1, "name": "x", "seed": 1,
  "outcome": "buggy (frozen)", "end_micros": 90000000, "tracks": [],
  "nodes": [{"id": 0, "cause": 5, "t_us": 10, "seq": 0, "kind": "net.closed",
             "label": "net.closed pid3 (PeerDied)", "track": 9}],
  "marks": [{"node": 77, "t_us": 10, "kind": "failure_detected", "label": "f",
             "rank": 0, "epoch": 1, "wave": null, "during_recovery": true}]}"#;

/// Well-formed but for the mark's anchor.
const DANGLING_MARK: &str = r#"{"schema_version": 1, "name": "x", "seed": 1,
  "outcome": "completed", "end_micros": 1, "tracks": ["a"],
  "nodes": [{"id": 0, "cause": null, "t_us": 0, "seq": 0, "kind": "k",
             "label": "l", "track": 0}],
  "marks": [{"node": 77, "t_us": 0, "kind": "job_complete", "label": "done",
             "rank": null, "epoch": null, "wave": null, "during_recovery": false}]}"#;

#[test]
fn exit_codes() {
    let dir = std::env::temp_dir().join("failmpi-trace-cli-test");
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let file = |name: &str, body: &str| {
        let path = dir.join(name);
        std::fs::write(&path, body).expect("write");
        path.to_str().expect("utf8 path").to_string()
    };
    let corrupt = file("corrupt.json", CORRUPT);
    let dangling_mark = file("dangling-mark.json", DANGLING_MARK);
    let not_json = file("not-json.json", "{ this is not JSON");
    let sound = file("sound.json", &DANGLING_MARK.replace("77", "0"));
    // Track 2^32: a truncating cast would read it as track 0.
    let wide_track = DANGLING_MARK
        .replace("77", "0")
        .replace("\"track\": 0", "\"track\": 4294967296");
    let wide_track = file("wide-track.json", &wide_track);
    let usage = "usage: failmpi-trace <explain|";
    // (arguments, exit code, needle, needle is on stdout)
    let cases: [(Vec<&str>, i32, &str, bool); 14] = [
        (vec!["--help"], 0, usage, true),
        (vec!["explain", "-h"], 0, usage, true),
        (vec![], 2, usage, false),
        (vec!["frobnicate", &sound], 2, usage, false),
        (vec!["explain"], 2, usage, false),
        (vec!["slice", &sound, "zero"], 2, "bad node id", false),
        (
            vec!["explain", "/nonexistent/t.json"],
            2,
            "cannot read /nonexistent/t.json: ",
            false,
        ),
        (vec!["export", &not_json], 2, "invalid JSON", false),
        (
            vec!["explain", &corrupt],
            2,
            "node 0 is on track 9 of 0",
            false,
        ),
        (
            vec!["diff", &sound, &corrupt],
            2,
            "node 0 is on track 9 of 0",
            false,
        ),
        (
            vec!["filter", &dangling_mark],
            2,
            "mark 0 anchored to missing node 77",
            false,
        ),
        (
            vec!["export", &sound, "--out", "/nonexistent/p.json"],
            2,
            "cannot write /nonexistent/p.json: ",
            false,
        ),
        (vec!["explain", &sound], 0, "verdict: ", true),
        (
            vec!["export", &wide_track],
            2,
            "node track must be an integer below 2^32",
            false,
        ),
    ];
    for (args, code, needle, on_stdout) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_failmpi-trace"))
            .args(&args)
            .output()
            .expect("failmpi-trace runs");
        let stdout = String::from_utf8(out.stdout).expect("utf8");
        let stderr = String::from_utf8(out.stderr).expect("utf8");
        assert_eq!(out.status.code(), Some(code), "{args:?}: {stderr}");
        let stream = if on_stdout { &stdout } else { &stderr };
        assert!(stream.contains(needle), "{args:?}: {stdout}\n{stderr}");
        assert!(!stderr.contains("panicked at"), "{args:?}: {stderr}");
        if code != 0 {
            assert!(
                stdout.is_empty(),
                "{args:?} narrated what it refused: {stdout}"
            );
        }
    }
}

/// A slice written by `slice --out` is a file every other subcommand
/// loads: its ids are gapped, which the loader's check allows.
#[test]
fn a_written_slice_loads() {
    let dir = std::env::temp_dir().join("failmpi-trace-cli-test");
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let full = dir.join("chain.json");
    let node = |id: u64, cause: &str| {
        format!(
            r#"{{"id": {id}, "cause": {cause}, "t_us": {id}, "seq": {id}, "kind": "k", "label": "n{id}", "track": 0}}"#
        )
    };
    let nodes = [node(0, "null"), node(1, "null"), node(2, "0")].join(", ");
    let doc = format!(
        r#"{{"schema_version": 1, "name": "c", "seed": 1, "outcome": "completed", "end_micros": 2,
            "tracks": ["a"], "nodes": [{nodes}], "marks": []}}"#
    );
    std::fs::write(&full, doc).expect("write");
    let sliced = dir.join("chain-slice.json");
    let run = |args: &[&std::ffi::OsStr]| {
        Command::new(env!("CARGO_BIN_EXE_failmpi-trace"))
            .args(args)
            .output()
            .expect("failmpi-trace runs")
    };
    let out = run(&[
        "slice".as_ref(),
        full.as_ref(),
        "2".as_ref(),
        "--out".as_ref(),
        sliced.as_ref(),
    ]);
    assert!(out.status.success(), "{out:?}");
    let out = run(&["filter".as_ref(), sliced.as_ref()]);
    assert!(out.status.success(), "{out:?}");
    let listed = String::from_utf8(out.stdout).expect("utf8");
    assert_eq!(listed.lines().count(), 2, "{listed}");
    assert!(
        listed.contains("n0") && listed.contains("n2") && !listed.contains("n1"),
        "{listed}"
    );
}
