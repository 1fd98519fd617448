//! The exit-status contract of the `failmpi-trace` binary, driven through
//! the compiled executable, for the one run `timeline` makes and both
//! files a run leaves behind — the causal trace (`--trace-out`) and the
//! run profile (`--profile`). `--help` is usage on stdout and exit 0,
//! wherever it appears; a usage error, a file that cannot be read, parsed
//! or written, and a trace that breaks an invariant of the format are a
//! one-line diagnostic on stderr, nothing on stdout, and exit 2 — never a
//! panic or a signal, whatever the bytes. The same contract every binary
//! of the workspace keeps.

use std::process::Command;

use failmpi_obs::{HistogramSnapshot, RunProfile};
use failmpi_trace::TraceFile;

/// A file that parses and used to be explained as "verdict: frozen … the
/// MPICH-Vcl dispatcher bug the paper isolated": its only node has a
/// dangling cause and sits on a track the file does not declare, and its
/// failure mark is anchored to a node that is not there.
const CORRUPT: &str = r#"{"schema_version": 2, "name": "x", "seed": 1,
  "outcome": "buggy (frozen)", "end_micros": 90000000, "tracks": [],
  "nodes": [{"id": 0, "cause": 5, "t_us": 10, "seq": 0, "digest": 1, "kind": "net.closed",
             "label": "net.closed pid3 (PeerDied)", "track": 9}],
  "marks": [{"node": 77, "t_us": 10, "kind": "failure_detected", "label": "f",
             "rank": 0, "epoch": 1, "wave": null, "during_recovery": true}]}"#;

/// Well-formed but for the mark's anchor.
const DANGLING_MARK: &str = r#"{"schema_version": 2, "name": "x", "seed": 1,
  "outcome": "completed", "end_micros": 1, "tracks": ["a"],
  "nodes": [{"id": 0, "cause": null, "t_us": 0, "seq": 0, "digest": 1, "kind": "k",
             "label": "l", "track": 0}],
  "marks": [{"node": 77, "t_us": 0, "kind": "job_complete", "label": "done",
             "rank": null, "epoch": null, "wave": null, "during_recovery": false}]}"#;

fn scratch() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("failmpi-trace-cli-test");
    std::fs::create_dir_all(&dir).expect("tmpdir");
    dir
}

/// Writes `bytes` to `name` in the scratch directory; returns its path.
fn file(name: &str, bytes: &[u8]) -> String {
    let path = scratch().join(name);
    std::fs::write(&path, bytes).expect("write");
    path.to_str().expect("utf8 path").to_string()
}

/// A scenario of the paper, by file stem.
fn scenario(name: &str) -> String {
    format!("{}/../core/scenarios/{name}.fail", env!("CARGO_MANIFEST_DIR"))
}

fn failmpi_trace(args: &[impl AsRef<std::ffi::OsStr>]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_failmpi-trace"))
        .args(args)
        .output()
        .expect("failmpi-trace runs")
}

#[test]
fn every_row_exits_0_or_2_with_a_diagnostic_and_never_panics() {
    let corrupt = file("corrupt.json", CORRUPT.as_bytes());
    let dangling_mark = file("dangling-mark.json", DANGLING_MARK.as_bytes());
    let not_json = file("not-json.json", b"{ this is not JSON");
    let sound = file("sound.json", DANGLING_MARK.replace("77", "0").as_bytes());
    // Track 2^32: a truncating cast would read it as track 0.
    let wide_track = DANGLING_MARK
        .replace("77", "0")
        .replace("\"track\": 0", "\"track\": 4294967296");
    let wide_track = file("wide-track.json", wide_track.as_bytes());
    let good = file("good.json", RunProfile::new().to_pretty_json().as_bytes());
    let missing = "/nonexistent/dir/x.json";
    let dir = scratch();
    let dir = dir.to_str().expect("utf8 path");
    let usage = "usage: failmpi-trace <timeline|explain|";
    let from = "--from needs a number of seconds from 0 to 1.8e13";
    let fig5 = scenario("fig5_frequency");
    let square = "--ranks must be a square number (4, 9, 16, ...), got";
    // (arguments, exit code, needle, needle is on stdout)
    let mut cases: Vec<(Vec<&str>, i32, &str, bool)> = vec![
        (vec!["--help"], 0, usage, true),
        (vec!["explain", "-h"], 0, usage, true),
        (vec!["profile", "--help"], 0, "profile report <profile.json>", true),
        (vec!["profile", "report", "--help"], 0, usage, true),
        (vec!["profile", "top", "--help"], 0, usage, true),
        (vec!["profile", "flame", "-h"], 0, usage, true),
        (vec![], 2, usage, false),
        (vec!["frobnicate", &sound], 2, usage, false),
        (vec!["frobnicate"], 2, "unknown command `frobnicate`", false),
        (vec!["explain"], 2, "explain needs a trace path", false),
        (vec!["slice", &sound, "zero"], 2, "bad node id", false),
        (vec!["explain", "/nonexistent/t.json"], 2, "cannot read /nonexistent/t.json: ", false),
        (vec!["export", &not_json], 2, "invalid JSON", false),
        (vec!["explain", &corrupt], 2, "node 0 is on track 9 of 0", false),
        (vec!["diff", &sound, &corrupt], 2, "node 0 is on track 9 of 0", false),
        (vec!["filter", &dangling_mark], 2, "mark 0 anchored to missing node 77", false),
        (vec!["export", &sound, "--out", "/nonexistent/p.json"], 2, "cannot write /nonexistent/p.json: ", false),
        (vec!["explain", &sound], 0, "verdict: ", true),
        (vec!["export", &wide_track], 2, "node track must be an integer below 2^32", false),
        // Arguments come from outside: a flag without its value, a flag
        // the command does not take, and seconds no `u64` of microseconds
        // holds are refused, not read as stdout, ignored, 0 or u64::MAX.
        (vec!["export", &sound, "--out"], 2, "--out needs a path", false),
        (vec!["slice", &sound, "0", "--out"], 2, "--out needs a path", false),
        (vec!["export", &sound, "--ouy", "p.json"], 2, "unknown argument `--ouy`", false),
        (vec!["filter", &sound, "--kindd", "x"], 2, "unknown argument `--kindd`", false),
        (vec!["explain", &sound, &sound], 2, "unknown argument", false),
        (vec!["filter", &sound, "--from", "nan"], 2, from, false),
        (vec!["filter", &sound, "--from", "-3"], 2, from, false),
        (vec!["filter", &sound, "--to", "inf"], 2, "--to needs a number of seconds", false),
        (vec!["filter", &sound, "--to", "1e300"], 2, "--to needs a number of seconds", false),
        (vec!["filter", &sound, "--from", "0", "--to", "1.5"], 0, "#0 ", true),
        // One run's timeline.
        (vec!["timeline", "--help"], 0, usage, true),
        (vec!["timeline", "x.fail", "--seed", "3", "-h"], 0, usage, true),
        (vec!["timeline"], 2, "timeline needs a scenario path", false),
        (vec!["timeline", "/nonexistent/x.fail"], 2, "cannot read /nonexistent/x.fail: ", false),
        (vec!["timeline", &fig5, &fig5], 2, "unknown argument", false),
        (vec!["timeline", &fig5, "--ranks", "6"], 2, square, false),
        // `--paper` is a flag of its own: the rank check still answers.
        (vec!["timeline", &fig5, "--paper", "--ranks", "6"], 2, square, false),
        // A rank count whose rounded square root squares past u32::MAX.
        (vec!["timeline", &fig5, "--ranks", "4294967295"], 2, square, false),
        (vec!["timeline", &fig5, "--ranks", "4294967296"], 2, "--ranks needs a number", false),
        (vec!["timeline", &fig5, "--smoke"], 2, "unknown argument `--smoke`", false),
        (vec!["timeline", &fig5, "--param", "N"], 2, "--param needs NAME=VALUE", false),
        (vec!["timeline", &fig5, "--param", "N=x"], 2, "--param needs NAME=VALUE", false),
        (vec!["timeline", &fig5, "--backend", "mpich"], 2, "--backend needs vcl|ulfm|replica", false),
        (vec!["timeline", &fig5, "--trace-out"], 2, "--trace-out needs a path", false),
        // Profiles.
        (vec!["profile"], 2, "profile needs report|top|flame", false),
        (vec!["profile", "frobnicate"], 2, "unknown command `profile frobnicate`", false),
        // The regression gate went with its baseline file.
        (vec!["profile", "diff", &good, &good], 2, "unknown command `profile diff`", false),
        (vec!["profile", "report", &good], 0, "profile: backend=", true),
        (vec!["profile", "report", &good, "--top", "0"], 0, "event kinds (top 0)", true),
        (vec!["profile", "report"], 2, "needs a PROFILE path", false),
        (vec!["profile", "report", &good, "--top"], 2, "--top needs a number", false),
        (vec!["profile", "report", &good, "--top", "many"], 2, "--top needs a number", false),
        (vec!["profile", "report", &good, "--top", "-1"], 2, "--top needs a number", false),
        (vec!["profile", "report", &good, "--top", "99999999999999999999999"], 2, "--top needs a number", false),
        (vec!["profile", "report", &good, "--by"], 2, "--by needs allocs|bytes|events|time", false),
        (vec!["profile", "report", &good, "--by", "speed"], 2, "--by needs", false),
        (vec!["profile", "report", &good, "--bogus"], 2, "unknown argument `--bogus`", false),
        (vec!["profile", "report", &good, &good], 2, "unknown argument", false),
        (vec!["profile", "report", missing], 2, "cannot read /nonexistent/dir/x.json", false),
        (vec!["profile", "report", dir], 2, "cannot read", false),
        (vec!["profile", "top"], 2, "at least one PROFILE", false),
        (vec!["profile", "top", &good, &good], 0, "burst p99", true),
        (vec!["profile", "top", &good, missing], 2, "cannot read", false),
        (vec!["profile", "top", &good, "--out", "x"], 2, "unknown argument `--out`", false),
        (vec!["profile", "flame"], 2, "needs a PROFILE path", false),
        (vec!["profile", "flame", &good], 0, "", true),
        (vec!["profile", "flame", &good, "--out"], 2, "--out needs a path", false),
        (vec!["profile", "flame", &good, "--out", missing], 2, "cannot write /nonexistent/dir/x.json", false),
    ];
    let malformed = malformed_profiles();
    for (path, code, needle) in &malformed {
        for cmd in ["report", "top", "flame"] {
            cases.push((vec!["profile", cmd, path], *code, needle, false));
        }
    }
    for (args, code, needle, on_stdout) in cases {
        let out = failmpi_trace(&args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(code), "{args:?}: {stderr}");
        let stream = if on_stdout { &stdout } else { &stderr };
        assert!(stream.contains(needle), "{args:?}: {stdout}\n{stderr}");
        assert!(!stderr.contains("panicked at") && !stderr.contains("overflowed its stack"));
        if code != 0 {
            assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
            assert!(stderr.starts_with("failmpi-trace: "), "{args:?}: {stderr}");
            assert!(stdout.is_empty(), "{args:?} narrated what it refused: {stdout}");
        }
    }
}

/// Profiles a damaged or hostile file may be, with the exit status and
/// stderr needle each `profile` command answers them with.
fn malformed_profiles() -> Vec<(String, i32, &'static str)> {
    let good = RunProfile::new().to_pretty_json();
    let huge = good.replacen("\"events\": 0", "\"events\": 123456789012345678901234567890", 1);
    assert_ne!(huge, good, "the profile spells its event count as expected");
    let wide_schema = good.replacen("\"schema_version\": 1", "\"schema_version\": 4294967297", 1);
    assert_ne!(wide_schema, good, "the profile spells its schema as expected");
    // A bucket index no `u64` sample has; shifting by it overflows.
    let mut wide = RunProfile::new();
    wide.queue.burst = HistogramSnapshot {
        count: 1,
        buckets: vec![(70, 1)],
        ..HistogramSnapshot::default()
    };
    let wide = wide.to_pretty_json();
    let rows: [(&str, Vec<u8>, i32, &str); 10] = [
        ("truncated.json", good.as_bytes()[..good.len() / 2].to_vec(), 2, "invalid JSON"),
        ("empty-object.json", b"{}".to_vec(), 2, "schema_version"),
        ("array-rooted.json", b"[1, 2, 3]".to_vec(), 2, "not a JSON object"),
        // Past 2^64: refused, not saturated to `u64::MAX`.
        ("huge-number.json", huge.into_bytes(), 2, "non-integer field `events`"),
        ("negative.json", good.replacen("\"events\": 0", "\"events\": -5", 1).into_bytes(), 2, "non-integer field `events`"),
        ("infinite.json", good.replacen("\"events\": 0", "\"events\": 1e999", 1).into_bytes(), 2, "non-integer field `events`"),
        ("binary.json", (0..=255u8).cycle().take(1024).collect(), 2, "cannot read"),
        // 50 000 unclosed brackets used to overflow the JSON reader's stack.
        ("deep.json", vec![b'['; 50_000], 2, "nesting deeper than 128"),
        // 2^32 + 1: a truncating cast would read it as schema 1.
        ("wide-schema.json", wide_schema.into_bytes(), 2, "unsupported profile schema 4294967297"),
        ("wide-bucket.json", wide.into_bytes(), 2, "histogram bucket index 70 is above 64"),
    ];
    rows.into_iter()
        .map(|(name, bytes, code, needle)| (file(name, &bytes), code, needle))
        .collect()
}

/// A slice written by `slice --out` is a file every other subcommand
/// loads: its ids are gapped, which the loader's check allows.
#[test]
fn a_written_slice_loads() {
    let node = |id: u64, cause: &str| {
        format!(
            r#"{{"id": {id}, "cause": {cause}, "t_us": {id}, "seq": {id}, "digest": {id}, "kind": "k", "label": "n{id}", "track": 0}}"#
        )
    };
    let nodes = [node(0, "null"), node(1, "null"), node(2, "0")].join(", ");
    let doc = format!(
        r#"{{"schema_version": 2, "name": "c", "seed": 1, "outcome": "completed", "end_micros": 2,
            "tracks": ["a"], "nodes": [{nodes}], "marks": []}}"#
    );
    let full = file("chain.json", doc.as_bytes());
    let sliced = scratch().join("chain-slice.json");
    let sliced = sliced.to_str().expect("utf8 path");
    let out = failmpi_trace(&["slice", &full, "2", "--out", sliced]);
    assert!(out.status.success(), "{out:?}");
    let out = failmpi_trace(&["filter", sliced]);
    assert!(out.status.success(), "{out:?}");
    let listed = String::from_utf8(out.stdout).expect("utf8");
    assert_eq!(listed.lines().count(), 2, "{listed}");
    assert!(
        listed.contains("n0") && listed.contains("n2") && !listed.contains("n1"),
        "{listed}"
    );
}

/// Input `timeline` cannot run is a diagnostic and exit status 2, never a
/// panic: a scenario that does not compile, a machine class the scenario
/// does not declare, a random group index that can leave the machines
/// deployed, a square rank count whose deployment has more machines than
/// a network holds, on the Vcl and on a light backend. (The other
/// rank-count rows are in the table above.)
#[test]
fn timeline_rejects_what_it_cannot_run_without_panicking() {
    let garbage = file("garbage.fail", "daemon { this is not FAIL \u{0} }".as_bytes());
    let fig5 = scenario("fig5_frequency");
    let too_many = "error[FB000]: workload does not deploy: 65541 machines exceed the network's 65536";
    let fig10 = std::fs::read_to_string(scenario("fig10_state_sync")).expect("fig10 scenario");
    let misspelled = fig10.replace("before(localMPI_setCommand)", "before(localMPI_setCommnd)");
    assert_ne!(misspelled, fig10);
    let misspelled = file("fig10_misspelled.fail", misspelled.as_bytes());
    let fig10_args = ["--machines", "ADVG1", "--param", "T=2", "--param", "N=5"];
    let cases: [(&[&str], &str); 6] = [
        (&[&garbage], "FA000"),
        (
            &[&fig5, "--param", "N=99", "--param", "X=2", "--ranks", "4"],
            "daemon `ADV1`, line 12: index range [0, 99] into group `G1` leaves its 6 deployed",
        ),
        (&[&fig5, "--machines", "NoSuchClass"], "unknown daemon `NoSuchClass`"),
        (&[&fig5, "--ranks", "65536"], too_many),
        (&[&fig5, "--ranks", "65536", "--backend", "ulfm"], too_many),
        // A breakpoint no backend raises would never be armed: refused.
        (
            &[&[&misspelled[..]], &fig10_args[..]].concat(),
            "error[FA011]: scenario does not deploy: `before(localMPI_setCommnd)` \
             names no instrumentable function (known: localMPI_setCommand)",
        ),
    ];
    for (args, needle) in cases {
        let out = failmpi_trace(&[&["timeline"], args].concat());
        let err = String::from_utf8(out.stderr).expect("utf8");
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.starts_with("failmpi-trace: cannot run "), "{args:?}: {err}");
        assert!(err.contains(needle), "{args:?}: {err}");
        assert!(!err.contains("panicked at"), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

/// A FAIL timer whose delay in seconds leaves virtual time (past `u64`
/// microseconds) saturates to "never": the run completes with nothing
/// injected. Unsaturated, the first delay overflows a debug build and the
/// second wraps to a 0.448 s timer in a release build.
#[test]
fn timeline_saturates_an_unrepresentable_timer_delay() {
    let fig5 = scenario("fig5_frequency");
    for x in ["X=20000000000000", "X=18446744073710"] {
        let out = failmpi_trace(&["timeline", &fig5, "--ranks", "4", "--param", "N=5", "--param", x]);
        let stdout = String::from_utf8(out.stdout).expect("utf8");
        let stderr = String::from_utf8(out.stderr).expect("utf8");
        assert_eq!(out.status.code(), Some(0), "{x}: {stdout}{stderr}");
        assert!(!stderr.contains("panicked at"), "{x}: {stderr}");
        assert!(stdout.contains("(0 faults injected"), "{x}: {stdout}");
    }
}

/// `timeline --backend` runs the scenario on the light runtimes and renders
/// their lifecycle trace; the written trace carries the backend's lanes and
/// is one every other subcommand loads.
#[test]
fn timeline_runs_every_backend() {
    let fig5 = scenario("fig5_frequency");
    for backend in ["vcl", "ulfm", "replica"] {
        let path = scratch().join(format!("timeline-{backend}.json"));
        let path = path.to_str().expect("utf8 path");
        let args = ["timeline", &fig5, "--param", "X=4", "--param", "N=5", "--backend", backend];
        let out = failmpi_trace(&[&args[..], &["--trace-out", path]].concat());
        assert!(out.status.success(), "{backend}: {out:?}");
        let stdout = String::from_utf8(out.stdout).expect("utf8");
        assert!(stdout.contains("run start     epoch 0"), "{backend}: {stdout}");
        assert!(stdout.contains("verdict: "), "{backend}: {stdout}");
        let src = std::fs::read_to_string(path).expect("trace written");
        let trace = TraceFile::from_json(&src).expect("trace loads");
        trace.check_invariants().expect("trace is well-formed");
        assert_eq!(trace.tracks.last().map(String::as_str), Some("fail-mpi"), "{backend}");
        assert!(failmpi_trace(&["explain", path]).status.success(), "{backend}");
    }
}
