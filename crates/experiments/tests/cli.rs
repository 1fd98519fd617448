//! Integration tests for the CLI binaries (`failc`, `trace`, `soak` and
//! the `figure` entry point's argument handling), driven through the
//! compiled executables.

use std::process::Command;

fn failc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_failc"))
}

fn figure() -> Command {
    Command::new(env!("CARGO_BIN_EXE_figure"))
}

#[test]
fn failc_compiles_the_paper_scenarios() {
    for name in [
        "fig4_generic_nodes",
        "fig5_frequency",
        "fig7_simultaneous",
        "fig8_synchronized",
        "fig10_state_sync",
    ] {
        let path = format!(
            "{}/../core/scenarios/{name}.fail",
            env!("CARGO_MANIFEST_DIR")
        );
        let out = failc().arg(&path).output().expect("failc runs");
        assert!(out.status.success(), "{name}: {out:?}");
        let stdout = String::from_utf8(out.stdout).expect("utf8");
        assert!(stdout.contains("daemon"), "{name}: {stdout}");
        assert!(stdout.contains("messages:"), "{name}: {stdout}");
    }
}

#[test]
fn failc_emits_rust() {
    let path = format!(
        "{}/../core/scenarios/fig10_state_sync.fail",
        env!("CARGO_MANIFEST_DIR")
    );
    let out = failc()
        .arg(&path)
        .arg("--emit-rust")
        .output()
        .expect("failc runs");
    assert!(out.status.success());
    let code = String::from_utf8(out.stdout).expect("utf8");
    assert!(code.contains("pub fn build_scenario() -> Scenario"));
    assert!(code.contains("Guard::Before(\"localMPI_setCommand\""));
}

#[test]
fn failc_reports_compile_errors_with_position() {
    let dir = std::env::temp_dir().join("failmpi-cli-test");
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let bad = dir.join("bad.fail");
    std::fs::write(&bad, "daemon A { node 1: ?x -> goto 7; }").expect("write");
    let out = failc().arg(&bad).output().expect("failc runs");
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).expect("utf8");
    assert!(err.contains("unknown node 7"), "{err}");
    assert!(err.contains("line 1"), "{err}");
}

#[test]
fn failc_usage_on_bad_args() {
    let out = failc().output().expect("failc runs");
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).expect("utf8");
    assert!(err.contains("usage"), "{err}");
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

/// Input the `trace` binary cannot run is a diagnostic and exit status 2,
/// never a panic: a scenario that does not compile, a machine class the
/// scenario does not declare, a rank count BT has no grid for, a random
/// group index that can leave the machines deployed.
#[test]
fn trace_binary_rejects_bad_input_without_panicking() {
    let dir = std::env::temp_dir().join("failmpi-cli-test");
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let garbage = dir.join("garbage.fail");
    std::fs::write(&garbage, "daemon { this is not FAIL \u{0} }").expect("write");
    let garbage = garbage.to_str().expect("utf8 path");
    let fig5 = format!(
        "{}/../core/scenarios/fig5_frequency.fail",
        env!("CARGO_MANIFEST_DIR")
    );
    let cases: [(&[&str], &str); 4] = [
        (&[garbage], "FA000"),
        (
            &[&fig5, "--param", "N=99", "--param", "X=2", "--ranks", "4"],
            "daemon `ADV1`, line 12: index range [0, 99] into group `G1` leaves its 6 deployed",
        ),
        (&[&fig5, "--machines", "NoSuchClass"], "unknown daemon `NoSuchClass`"),
        (&[&fig5, "--ranks", "6"], "--ranks must be a square number"),
    ];
    for (args, needle) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_trace"))
            .args(args)
            .output()
            .expect("trace runs");
        let err = String::from_utf8(out.stderr).expect("utf8");
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains(needle), "{args:?}: {err}");
        assert!(!err.contains("panicked at"), "{args:?}: {err}");
    }
}

/// A FAIL timer whose delay in seconds leaves virtual time (past `u64`
/// microseconds) saturates to "never": the run completes with nothing
/// injected. Unsaturated, the first delay overflows a debug build and the
/// second wraps to a 0.448 s timer in a release build.
#[test]
fn trace_binary_saturates_an_unrepresentable_timer_delay() {
    let fig5 = format!(
        "{}/../core/scenarios/fig5_frequency.fail",
        env!("CARGO_MANIFEST_DIR")
    );
    for x in ["X=20000000000000", "X=18446744073710"] {
        let out = Command::new(env!("CARGO_BIN_EXE_trace"))
            .args([&fig5, "--smoke", "--ranks", "4", "--param", "N=5", "--param", x])
            .output()
            .expect("trace runs");
        let stdout = String::from_utf8(out.stdout).expect("utf8");
        let stderr = String::from_utf8(out.stderr).expect("utf8");
        assert_eq!(out.status.code(), Some(0), "{x}: {stdout}{stderr}");
        assert!(!stderr.contains("panicked at"), "{x}: {stderr}");
        assert!(stdout.contains("(0 faults injected"), "{x}: {stdout}");
    }
}

/// `trace --backend` runs the scenario on the light runtimes and renders
/// their lifecycle trace; the written trace carries the backend's lanes.
#[test]
fn trace_binary_runs_every_backend() {
    let dir = std::env::temp_dir().join("failmpi-cli-test");
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let fig5 = format!(
        "{}/../core/scenarios/fig5_frequency.fail",
        env!("CARGO_MANIFEST_DIR")
    );
    for backend in ["vcl", "ulfm", "replica"] {
        let path = dir.join(format!("trace-bin-{backend}.json"));
        let out = Command::new(env!("CARGO_BIN_EXE_trace"))
            .args([&fig5, "--param", "X=4", "--param", "N=5", "--backend", backend])
            .arg("--trace-out")
            .arg(&path)
            .output()
            .expect("trace runs");
        assert!(out.status.success(), "{backend}: {out:?}");
        let stdout = String::from_utf8(out.stdout).expect("utf8");
        assert!(stdout.contains("run start     epoch 0"), "{backend}: {stdout}");
        assert!(stdout.contains("verdict: "), "{backend}: {stdout}");
        let src = std::fs::read_to_string(&path).expect("trace written");
        let trace = failmpi_trace::TraceFile::from_json(&src).expect("trace loads");
        trace.check_invariants().expect("trace is well-formed");
        assert_eq!(trace.tracks.last().map(String::as_str), Some("fail-mpi"), "{backend}");
    }
}

/// The exit-status contract of the `figure` entry point, `soak` and
/// `trace`: 0 for `--help` (usage on stdout), 2 for a usage error, a
/// scenario the sweep's lint gate refuses, or an output path that cannot
/// be written — reported as `cannot write <path>: <error>` after the
/// sweep, never by unwinding. (`failmpi-trace`'s rows are in
/// `failmpi_trace_cli.rs`.)
#[test]
fn figure_and_soak_exit_codes() {
    let figure_exe = env!("CARGO_BIN_EXE_figure");
    let soak_exe = env!("CARGO_BIN_EXE_soak");
    let fig5 = ["fig5", "--smoke", "--runs", "1"];
    let missing = "/nonexistent/out.json";
    let cannot_write = "cannot write /nonexistent/out.json: ";
    // (binary, arguments, exit code, needle, needle is on stdout)
    let trace_exe = env!("CARGO_BIN_EXE_trace");
    let strict = ["--lint", "strict", "--backend"];
    let runs_zero = "--runs needs a number >= 1";
    let cases: [(&str, Vec<&str>, i32, &str, bool); 20] = [
        (figure_exe, [&fig5[..], &strict, &["ulfm"]].concat(), 2, "error[FC003]", false),
        (figure_exe, [&fig5[..], &strict, &["replica"]].concat(), 2, "error[FC003]", false),
        (figure_exe, [&fig5[..], &["--json", missing]].concat(), 2, cannot_write, false),
        (figure_exe, [&fig5[..], &["--metrics", missing]].concat(), 2, cannot_write, false),
        (figure_exe, [&fig5[..], &["--trace-out", missing]].concat(), 2, cannot_write, false),
        (figure_exe, [&fig5[..], &["--profile", missing]].concat(), 2, cannot_write, false),
        (figure_exe, vec!["--help"], 0, "usage: figure <table1|fig5|", true),
        (figure_exe, vec!["fig11", "--help"], 0, "usage: figure <table1|fig5|", true),
        (figure_exe, vec![], 2, "usage: figure <table1|fig5|", false),
        (figure_exe, vec!["fig12"], 2, "usage: figure <table1|fig5|", false),
        (figure_exe, vec!["fig11", "--frobnicate"], 2, "unknown flag `--frobnicate`", false),
        (figure_exe, vec!["table1", "--bogus"], 2, "unknown flag `--bogus`", false),
        // Zero runs is no experiment: refused, not reported as an empty
        // table or a soak `PASS`.
        (figure_exe, vec!["fig5", "--smoke", "--runs", "0"], 2, runs_zero, false),
        (soak_exe, vec!["--runs", "0"], 2, runs_zero, false),
        (soak_exe, vec!["--bogus"], 2, "unknown flag `--bogus`", false),
        (soak_exe, vec!["--help"], 0, "usage: soak ", true),
        (trace_exe, vec!["--help"], 0, "usage: trace <scenario.fail> ", true),
        (trace_exe, vec!["x.fail", "--seed", "3", "-h"], 0, "usage: trace <scenario.fail> ", true),
        (trace_exe, vec![], 2, "usage: trace <scenario.fail> ", false),
        (trace_exe, vec!["/nonexistent/x.fail"], 2, "cannot read /nonexistent/x.fail: ", false),
    ];
    for (exe, args, code, needle, on_stdout) in cases {
        let out = Command::new(exe).args(&args).output().expect("binary runs");
        let stdout = String::from_utf8(out.stdout).expect("utf8");
        let stderr = String::from_utf8(out.stderr).expect("utf8");
        assert_eq!(out.status.code(), Some(code), "{args:?}: {stderr}");
        let stream = if on_stdout { &stdout } else { &stderr };
        assert!(stream.contains(needle), "{args:?}: {stdout}\n{stderr}");
        assert!(!stderr.contains("panicked at"), "{args:?}: {stderr}");
    }
}

/// `failc` keeps the same contract on whatever it is handed: 0 for a
/// compiled scenario or `--help`, 2 with a one-line diagnostic for a usage
/// error, an unreadable path or a scenario that does not compile — binary
/// garbage and hostile nesting included — and never a panic or a signal.
#[test]
fn failc_exit_codes_on_malformed_input() {
    let dir = std::env::temp_dir().join("failmpi-cli-test");
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let file = |name: &str, bytes: &[u8]| {
        let path = dir.join(name);
        std::fs::write(&path, bytes).expect("write");
        path.to_str().expect("utf8 path").to_string()
    };
    let fig5 = format!("{}/../core/scenarios/fig5_frequency.fail", env!("CARGO_MANIFEST_DIR"));
    let binary = file("failc-binary.fail", &(0..=255u8).cycle().take(1024).collect::<Vec<u8>>());
    let nul = file("failc-nul.fail", b"daemon A { node 1: \0 ?x -> goto 1; }");
    let empty = file("failc-empty.fail", b"");
    let truncated = file("failc-truncated.fail", b"daemon A { node 1: ?x -> goto");
    let huge = file("failc-huge.fail", b"param X = 99999999999999999999999999;");
    let parens = file("failc-parens.fail", format!("\nparam X = {}1;", "(".repeat(20_000)).as_bytes());
    let minuses = file("failc-minuses.fail", format!("param X = {}1;", "-".repeat(100_000)).as_bytes());
    let dir_path = dir.to_str().expect("utf8 path");
    // (arguments, exit status, needle, needle is on stdout)
    let cases: [(Vec<&str>, i32, &str, bool); 16] = [
        (vec![&fig5], 0, "daemon ADV1", true),
        (vec!["--help"], 0, "usage: failc <scenario.fail>", true),
        (vec!["-h"], 0, "usage: failc <scenario.fail>", true),
        (vec![], 2, "usage: failc <scenario.fail>", false),
        (vec![&fig5, "--emit-c"], 2, "usage: failc", false),
        (vec![&fig5, "--emit-rust", "extra"], 2, "usage: failc", false),
        (vec!["--emit-rust"], 2, "cannot read --emit-rust", false),
        (vec!["/nonexistent/x.fail"], 2, "cannot read /nonexistent/x.fail: ", false),
        (vec![dir_path], 2, "cannot read", false),
        (vec![&binary], 2, "cannot read", false),
        (vec![&nul], 2, "line 1", false),
        (vec![&empty], 0, "deployment: none declared", true),
        (vec![&truncated, "--emit-rust"], 2, "line 1", false),
        (vec![&huge], 2, "line 1", false),
        // Both used to abort with `stack overflow` (SIGABRT).
        (vec![&parens], 2, "line 2: expression too deep", false),
        (vec![&minuses], 2, "line 1: expression too deep", false),
    ];
    for (args, code, needle, on_stdout) in cases {
        let out = failc().args(&args).output().expect("failc runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(code), "{args:?}: {stderr}");
        let stream = if on_stdout { &stdout } else { &stderr };
        assert!(stream.contains(needle), "{args:?}: {stdout}\n{stderr}");
        assert!(code == 0 || stderr.lines().count() == 1, "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked at") && !stderr.contains("overflowed its stack"));
    }
}
