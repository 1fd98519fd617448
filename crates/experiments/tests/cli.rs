//! Integration tests for the `figure` and `soak` binaries, driven through
//! the compiled executables. (`failmpi-trace`'s rows, `timeline` included,
//! are in `failmpi_trace_cli.rs`; `failck --compile`'s in the analyze
//! crate's `exit_codes.rs`.)

use std::process::Command;

fn figure() -> Command {
    Command::new(env!("CARGO_BIN_EXE_figure"))
}

#[test]
fn fig5_binary_smoke_runs_and_writes_json() {
    let dir = std::env::temp_dir().join("failmpi-cli-test");
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let json = dir.join("fig5.json");
    let out = figure()
        .args(["fig5", "--smoke", "--runs", "1", "--json"])
        .arg(&json)
        .output()
        .expect("fig5 runs");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("Figure 5"), "{stdout}");
    let data: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&json).expect("json written"))
            .expect("valid json");
    assert!(data["points"].as_array().expect("points").len() >= 2);
}

/// `--trace-out` claims a run on the light backends too (the sink claim
/// lives in the one generic driver), and what it writes is what
/// `failmpi-trace export` loads: a valid trace with the backend's lanes.
#[test]
fn fig5_trace_out_captures_a_light_backend_run() {
    let dir = std::env::temp_dir().join("failmpi-cli-test");
    std::fs::create_dir_all(&dir).expect("tmpdir");
    for backend in ["ulfm", "replica"] {
        let path = dir.join(format!("trace-{backend}.json"));
        let _ = std::fs::remove_file(&path);
        let out = figure()
            .args(["fig5", "--smoke", "--runs", "1", "--backend", backend, "--trace-out"])
            .arg(&path)
            .output()
            .expect("fig5 runs");
        assert!(out.status.success(), "{backend}: {out:?}");
        let src = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{backend}: no trace written ({e}): {out:?}"));
        let trace = failmpi_trace::TraceFile::from_json(&src).expect("trace loads");
        trace.check_invariants().expect("trace is well-formed");
        assert!(!trace.nodes.is_empty() && !trace.marks.is_empty(), "{backend}");
        assert_eq!(trace.tracks[0], format!("{backend}-runtime"));
        assert!(failmpi_trace::perfetto::export(&trace).contains("traceEvents"));
    }
}

/// The exit-status contract of the `figure` entry point and `soak`: 0 for
/// `--help` (usage on stdout), 2 for a usage error — one stderr line,
/// `<bin>: `, naming the offending argument — a scenario the sweep's lint
/// gate refuses, or an output path that cannot be written, reported as
/// `cannot write <path>: <error>` after the sweep, never by unwinding.
#[test]
fn figure_and_soak_exit_codes() {
    let figure_exe = env!("CARGO_BIN_EXE_figure");
    let soak_exe = env!("CARGO_BIN_EXE_soak");
    let fig5 = ["fig5", "--smoke", "--runs", "1"];
    let soak = ["--runs", "1"];
    let missing = "/nonexistent/out.json";
    let cannot_write = "cannot write /nonexistent/out.json: ";
    let strict = ["--lint", "strict", "--backend"];
    let runs_zero = "--runs needs a number >= 1";
    let runs_ceiling = "--runs needs a number >= 1 and <= 10000";
    let u64_max = "18446744073709551615";
    let figures = "table1|fig5|";
    // (binary, arguments, exit code, needle, needle is on stdout)
    let cases: [(&str, Vec<&str>, i32, &str, bool); 28] = [
        (figure_exe, [&fig5[..], &strict, &["ulfm"]].concat(), 2, "error[FC003]", false),
        (figure_exe, [&fig5[..], &strict, &["replica"]].concat(), 2, "error[FC003]", false),
        (figure_exe, [&fig5[..], &["--json", missing]].concat(), 2, cannot_write, false),
        (figure_exe, [&fig5[..], &["--metrics", missing]].concat(), 2, cannot_write, false),
        (figure_exe, [&fig5[..], &["--trace-out", missing]].concat(), 2, cannot_write, false),
        (figure_exe, [&fig5[..], &["--profile", missing]].concat(), 2, cannot_write, false),
        (figure_exe, vec!["--help"], 0, "usage: figure <table1|fig5|", true),
        (figure_exe, vec!["fig11", "--help"], 0, "usage: figure <table1|fig5|", true),
        (figure_exe, vec!["fig11", "--frobnicate", "-h"], 0, "usage: figure <table1|fig5|", true),
        (figure_exe, vec![], 2, figures, false),
        (figure_exe, vec!["fig12"], 2, "unknown figure `fig12`", false),
        (figure_exe, vec!["fig5", "fig6"], 2, "unknown argument `fig6`", false),
        (figure_exe, vec!["fig11", "--frobnicate"], 2, "unknown argument `--frobnicate`", false),
        (figure_exe, vec!["table1", "--bogus"], 2, "unknown argument `--bogus`", false),
        (figure_exe, vec!["fig5", "--lint"], 2, "--lint needs off|warn|strict", false),
        // Zero runs is no experiment: refused, not reported as an empty
        // table or a soak `PASS`.
        (figure_exe, vec!["fig5", "--smoke", "--runs", "0"], 2, runs_zero, false),
        (soak_exe, vec!["--runs", "0"], 2, runs_zero, false),
        // Every run's spec or seed is held at once: a count past the
        // ceiling is refused before anything is allocated for it.
        (figure_exe, vec!["fig5", "--smoke", "--threads", "1", "--runs", u64_max], 2, runs_ceiling, false),
        (figure_exe, vec!["fig5", "--smoke", "--runs", "10001"], 2, runs_ceiling, false),
        (soak_exe, vec!["--runs", u64_max], 2, runs_ceiling, false),
        (soak_exe, vec!["--runs", "10001"], 2, runs_ceiling, false),
        (soak_exe, vec!["--bogus"], 2, "unknown argument `--bogus`", false),
        (soak_exe, vec!["extra"], 2, "unknown argument `extra`", false),
        (soak_exe, vec!["--seed", "-1"], 2, "--seed needs a number", false),
        (soak_exe, vec!["--backend", "mpich"], 2, "--backend needs vcl|ulfm|replica", false),
        (soak_exe, vec!["--help"], 0, "usage: soak ", true),
        (soak_exe, [&soak[..], &["--json", missing]].concat(), 2, cannot_write, false),
        (soak_exe, [&soak[..], &["--metrics", missing]].concat(), 2, cannot_write, false),
    ];
    for (exe, args, code, needle, on_stdout) in cases {
        let out = Command::new(exe).args(&args).output().expect("binary runs");
        let stdout = String::from_utf8(out.stdout).expect("utf8");
        let stderr = String::from_utf8(out.stderr).expect("utf8");
        assert_eq!(out.status.code(), Some(code), "{args:?}: {stderr}");
        let stream = if on_stdout { &stdout } else { &stderr };
        assert!(stream.contains(needle), "{args:?}: {stdout}\n{stderr}");
        assert!(!stderr.contains("panicked at"), "{args:?}: {stderr}");
        if code == 2 {
            // One line that says why, after the binary's name; only a
            // refused scenario's report follows it.
            let bin = if exe == figure_exe { "figure: " } else { "soak: " };
            assert!(stderr.starts_with(bin), "{args:?}: {stderr}");
            let refused = needle == "error[FC003]";
            assert!(refused || stderr.lines().count() == 1, "{args:?}: {stderr}");
        }
    }
}
