//! The failck exit-code matrix: 0 = clean (or help), 1 = findings at the
//! failing severity, 2 = usage/parse error — consistent across output
//! formats and with `--model-check`.

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

fn fixture(name: &str) -> String {
    let p = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures").join(name);
    p.to_str().unwrap().to_string()
}

fn scenario(name: &str) -> String {
    let p = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../core/scenarios")
        .join(name);
    p.to_str().unwrap().to_string()
}

#[test]
fn help_exits_zero() {
    // Wherever it appears, a bad flag before it included.
    for args in [&["--help"][..], &["-h"], &["--frobnicate", "--help"], &["--budget", "-h"]] {
        let (code, stdout, _) = failck(args);
        assert_eq!(code, Some(0), "{args:?} is not an error");
        assert!(stdout.contains("usage:"));
    }
}

#[test]
fn usage_errors_exit_two() {
    // No input at all.
    assert_eq!(failck(&[]).0, Some(2));
    // Unknown flag.
    assert_eq!(failck(&["--frobnicate"]).0, Some(2));
    // --format needs a valid value.
    assert_eq!(failck(&[&scenario("fig5_frequency.fail"), "--format", "xml"]).0, Some(2));
    // --budget needs a number.
    assert_eq!(failck(&[&scenario("fig5_frequency.fail"), "--budget", "lots"]).0, Some(2));
    // Unreadable file.
    assert_eq!(failck(&["/nonexistent/nope.fail"]).0, Some(2));
}

#[test]
fn clean_scenario_exits_zero_in_both_formats() {
    let f = scenario("fig5_frequency.fail");
    assert_eq!(failck(&[&f]).0, Some(0));
    assert_eq!(failck(&[&f, "--format", "json"]).0, Some(0));
    assert_eq!(failck(&[&f, "--strict"]).0, Some(0));
}

#[test]
fn errors_exit_one_in_both_formats() {
    let f = fixture("broken.fail");
    assert_eq!(failck(&[&f]).0, Some(1));
    assert_eq!(failck(&[&f, "--format", "json"]).0, Some(1));
}

/// A `before(name)` no backend raises is an FA012 error under every output
/// mode, not a breakpoint silently never armed; the paper's spelling is
/// clean.
#[test]
fn misspelled_breakpoint_is_an_error_finding() {
    let fig10 = scenario("fig10_state_sync.fail");
    let src = std::fs::read_to_string(&fig10).expect("fig10 scenario");
    let misspelled = src.replace("before(localMPI_setCommand)", "before(localMPI_setCommnd)");
    assert_ne!(misspelled, src);
    let dir = std::env::temp_dir().join("failck-breakpoint-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("fig10_misspelled.fail");
    std::fs::write(&path, misspelled).expect("write");
    let bad = path.to_str().unwrap();
    for args in [&[bad][..], &[bad, "--strict"], &[bad, "--format", "json"]] {
        let (code, stdout, stderr) = failck(args);
        assert_eq!(code, Some(1), "{args:?}: {stdout}{stderr}");
        assert!(stdout.contains("FA012"), "{args:?}: {stdout}");
        assert!(stdout.contains("localMPI_setCommnd"), "{args:?}: {stdout}");
    }
    for args in [&[&fig10[..]][..], &[&fig10, "--strict"], &[&fig10, "--format", "json"]] {
        let (code, stdout, _) = failck(args);
        assert_eq!(code, Some(0), "{args:?}: {stdout}");
        assert!(!stdout.contains("FA012"), "{args:?}: {stdout}");
    }
}

#[test]
fn warnings_fail_only_under_strict() {
    // The FC001 fixture's unreachable nodes draw FA001 warnings but no
    // errors: clean exit normally, failing under --strict.
    let f = fixture("fc001_unreachable_halt.fail");
    assert_eq!(failck(&[&f]).0, Some(0));
    assert_eq!(failck(&[&f, "--format", "json"]).0, Some(0));
    assert_eq!(failck(&[&f, "--strict"]).0, Some(1));
    assert_eq!(failck(&[&f, "--strict", "--format", "json"]).0, Some(1));
}

#[test]
fn model_check_freeze_is_an_error_finding() {
    let fig10 = scenario("fig10_state_sync.fail");
    let (code, stdout, _) = failck(&[&fig10, "--model-check"]);
    assert_eq!(code, Some(1), "a reachable freeze fails the lint");
    assert!(stdout.contains("FC003"));
    assert!(stdout.contains("minimal witness"));

    let (code, stdout, _) = failck(&[&fig10, "--model-check", "--format", "json"]);
    assert_eq!(code, Some(1));
    assert!(stdout.contains("\"FC003\""));
    assert!(stdout.contains("\"verdict\": \"freezes\""));
}

#[test]
fn model_check_surviving_scenario_exits_zero() {
    let fig5 = scenario("fig5_frequency.fail");
    let (code, stdout, _) = failck(&[&fig5, "--model-check", "--format", "json"]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("\"verdict\": \"survives\""));
}

#[test]
fn findings_gate_applies_the_exit_code_matrix() {
    // Clean (well-formed, zero diagnostics) passes in both formats.
    let clean = fixture("findings_clean.json");
    assert_eq!(failck(&["--findings", &clean]).0, Some(0));
    assert_eq!(failck(&["--findings", &clean, "--format", "json"]).0, Some(0));

    // An FZ error-severity finding fails, and the code shows up in the
    // *validated* output of both formats — the CI grep target.
    let fz = fixture("findings_fz.json");
    let (code, stdout, _) = failck(&["--findings", &fz]);
    assert_eq!(code, Some(1));
    assert!(stdout.contains("error[FZ001]"));
    let (code, stdout, _) = failck(&["--findings", &fz, "--format", "json"]);
    assert_eq!(code, Some(1));
    assert!(stdout.contains("\"FZ001\""));
    assert!(stdout.contains("\"errors\": 1"));
    assert!(stdout.contains("\"warnings\": 1"));

    // Warning-only findings (e.g. a known-family rediscovery) fail only
    // under --strict, like lint warnings.
    let warn = fixture("findings_warning_only.json");
    assert_eq!(failck(&["--findings", &warn]).0, Some(0));
    assert_eq!(failck(&["--findings", &warn, "--strict"]).0, Some(1));
}

#[test]
fn findings_gate_never_passes_vacuously() {
    // Unreadable, unparseable, or misshapen findings are usage errors
    // (exit 2), never a silent pass.
    assert_eq!(failck(&["--findings", "/nonexistent/findings.json"]).0, Some(2));
    assert_eq!(failck(&["--findings", &fixture("broken.fail")]).0, Some(2));
    assert_eq!(failck(&["--findings", &fixture("findings_misshapen.json")]).0, Some(2));
    // --findings is standalone: mixing it with lint inputs is a usage error.
    assert_eq!(failck(&["--findings"]).0, Some(2));
    assert_eq!(
        failck(&["--findings", &fixture("findings_clean.json"), "--builtin"]).0,
        Some(2)
    );
    assert_eq!(
        failck(&[
            &scenario("fig5_frequency.fail"),
            "--findings",
            &fixture("findings_clean.json"),
        ])
        .0,
        Some(2)
    );
}

#[test]
fn model_check_json_carries_the_state_digest() {
    // The fuzzer's static coverage signal rides the same JSON the CI
    // artifact uses; a surviving scenario still reports a nonzero digest.
    let fig5 = scenario("fig5_frequency.fail");
    let (code, stdout, _) = failck(&[&fig5, "--model-check", "--format", "json"]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("\"state_digest\""));
    assert!(!stdout.contains("\"state_digest\": 0"));
}

#[test]
fn budget_starved_model_check_is_unknown_not_fatal() {
    let fig10 = scenario("fig10_state_sync.fail");
    let (code, stdout, _) =
        failck(&[&fig10, "--model-check", "--budget", "20", "--format", "json"]);
    // FC006 is a warning: without --strict the run is not failing.
    assert_eq!(code, Some(0));
    assert!(stdout.contains("\"FC006\""));
    assert!(stdout.contains("\"verdict\": \"unknown\""));
}

#[test]
fn unmodellable_deployment_is_a_usage_error_not_a_panic() {
    // Each of these used to unwind from an `assert!` in the abstract
    // model's constructor (exit 101) or explore with wrapped one-byte ids.
    let fig10 = scenario("fig10_state_sync.fail");
    let cases: [(&[&str], &str); 5] = [
        // More machines than a state's u8 host ids can name.
        (&["--ranks", "300"], "301 machines"),
        // Fewer machines than ranks (default 2 ranks).
        (&["--hosts", "1"], "at least as many machines"),
        // 255 machines fit, their 255 group members plus P1 do not.
        (&["--ranks", "200", "--hosts", "255"], "256 FAIL instances"),
        // The replica unit space (130 primaries + 130 replicas).
        (&["--backend", "replica", "--ranks", "130", "--hosts", "260"], "limit of 255"),
        (&["--backend", "ulfm", "--reduce", "--ranks", "256"], "257 machines"),
    ];
    for (flags, needle) in cases {
        for format in [&[][..], &["--format", "json"][..]] {
            let mut args = vec![fig10.as_str(), "--model-check"];
            args.extend_from_slice(flags);
            args.extend_from_slice(format);
            let (code, stdout, stderr) = failck(&args);
            assert_eq!(code, Some(2), "{flags:?}: {stderr}");
            assert!(stderr.contains(needle), "{flags:?}: {stderr}");
            assert!(stdout.is_empty(), "{flags:?} rendered a report: {stdout}");
        }
    }
    // The largest deployment of this scenario inside the limit still runs.
    let (code, stdout, _) =
        failck(&[&fig10, "--model-check", "--ranks", "253", "--budget", "3", "--format", "json"]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("\"verdict\": \"unknown\""));
}

/// Malformed flags, paths and artifacts: every row exits 0, 1 or 2 by the
/// matrix above — a scenario that does not compile is an FA000 *finding*
/// (1), everything failck cannot even read or parse is a usage error (2) —
/// with a diagnostic, and never by a panic or a signal.
#[test]
fn malformed_input_never_panics() {
    let dir = std::env::temp_dir().join("failck-malformed-test");
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let file = |name: &str, bytes: &[u8]| {
        let path = dir.join(name);
        std::fs::write(&path, bytes).expect("write");
        path.to_str().expect("utf8 path").to_string()
    };
    let fig10 = scenario("fig10_state_sync.fail");
    let good = std::fs::read_to_string(fixture("findings_fz.json")).expect("fixture");
    let binary = file("binary.fail", &(0..=255u8).cycle().take(1024).collect::<Vec<u8>>());
    let truncated_fail = file("truncated.fail", b"daemon A { node 1: ?x -> goto");
    let parens = file("parens.fail", format!("\nparam X = {}1;", "(".repeat(20_000)).as_bytes());
    let minuses = file("minuses.fail", format!("param X = {}1;", "-".repeat(100_000)).as_bytes());
    let truncated = file("truncated.json", &good.as_bytes()[..good.len() / 2]);
    let empty_object = file("empty-object.json", b"{}");
    let array_of_numbers = file("numbers.json", b"[1, 2, 3]");
    let huge = good.replace("\"line\": 0", "\"line\": 123456789012345678901234567890");
    let huge = file("huge-number.json", huge.as_bytes());
    let infinite = file("infinite.json", good.replace("\"line\": 0", "\"line\": 1e999").as_bytes());
    let deep = file("deep.json", &[b'['; 50_000]);
    let dir_path = dir.to_str().expect("utf8 path");
    let mc = [fig10.as_str(), "--model-check"];
    let count = |flag: &str| format!("{flag} needs a number >= 1");
    let (budget, threads, ranks, hosts) = (count("--budget"), count("--threads"), count("--ranks"), count("--hosts"));
    // (arguments, exit status, needle on stderr — or on stdout for findings)
    let cases: Vec<(Vec<&str>, i32, &str)> = vec![
        // Flags missing their values, non-numeric and overflowing numbers.
        (vec![&fig10, "--format"], 2, "--format needs human|json"),
        (vec![&fig10, "--backend"], 2, "--backend needs vcl|ulfm|replica"),
        (vec![&fig10, "--backend", "mpich"], 2, "--backend needs vcl|ulfm|replica"),
        (vec![&fig10, "--budget"], 2, &budget),
        (vec![&fig10, "--budget", "-1"], 2, &budget),
        (vec![&fig10, "--budget", "99999999999999999999999"], 2, &budget),
        ([&mc[..], &["--budget", "0"]].concat(), 2, &budget),
        (vec![&fig10, "--threads"], 2, &threads),
        (vec![&fig10, "--threads", "x"], 2, &threads),
        ([&mc[..], &["--threads", "0"]].concat(), 2, &threads),
        // One OS thread per worker: past the ceiling is refused before a
        // worker is set up.
        ([&mc[..], &["--threads", "18446744073709551615"]].concat(), 2, "--threads needs a number >= 1 and <= 256"),
        ([&mc[..], &["--threads", "257"]].concat(), 2, "--threads needs a number >= 1 and <= 256"),
        ([&mc[..], &["--ranks"]].concat(), 2, &ranks),
        ([&mc[..], &["--ranks", "0"]].concat(), 2, &ranks),
        ([&mc[..], &["--ranks", "4", "--hosts", "1"]].concat(), 2, "--hosts 1 is fewer than --ranks 4"),
        ([&mc[..], &["--hosts", "99999999999999999999"]].concat(), 2, &hosts),
        (vec!["--findings"], 2, "--findings needs a path"),
        (vec![&fig10, "--frobnicate"], 2, "unknown argument `--frobnicate`"),
        (vec![], 2, "nothing to check"),
        (vec!["--findings", &fig10, "--src"], 2, "--findings is a standalone mode: drop --src"),
        // Paths that cannot be read as what they are given as.
        (vec!["/nonexistent/x.fail"], 2, "cannot read"),
        (vec![dir_path], 2, "cannot read"),
        (vec![&binary], 2, "cannot read"),
        (vec!["--findings", dir_path], 2, "cannot read"),
        (vec!["--findings", &binary], 2, "cannot read"),
        (vec!["--src", "/nonexistent/dir"], 2, "cannot scan"),
        (vec!["--src", &binary], 2, "cannot read"),
        // Scenarios that do not compile are findings, hostile nesting too
        // (both nesting rows used to abort with `stack overflow`).
        (vec![&truncated_fail], 1, "error[FA000]"),
        (vec![&parens], 1, "parens.fail:2: error[FA000]: scenario does not compile: expression too deep"),
        (vec![&minuses, "--format", "json"], 1, "expression too deep"),
        // Findings artifacts: truncated, wrong shape, numbers no field
        // holds, and the 50 000-bracket file that overflowed the reader.
        (vec!["--findings", &truncated], 2, "is not valid JSON"),
        (vec!["--findings", &empty_object], 2, "is not a findings file"),
        (vec!["--findings", &array_of_numbers], 2, "is not a findings file"),
        (vec!["--findings", &huge], 1, "error[FZ001]"),
        (vec!["--findings", &infinite], 1, "error[FZ001]"),
        (vec!["--findings", &deep], 2, "nesting deeper than 128"),
    ];
    for (args, code, needle) in cases {
        let (got, stdout, stderr) = failck(&args);
        assert_eq!(got, Some(code), "{args:?}: {stderr}");
        let stream = if code == 1 { &stdout } else { &stderr };
        assert!(stream.contains(needle), "{args:?}: {stdout}\n{stderr}");
        assert!(!stderr.contains("panicked at") && !stderr.contains("overflowed its stack"));
        if code == 2 {
            assert_one_line(&args, &stdout, &stderr);
        }
    }
}

/// A usage or I/O error is one stderr line, `failck: <diagnostic>`, and
/// nothing on stdout.
fn assert_one_line(args: &[&str], stdout: &str, stderr: &str) {
    assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    assert!(stderr.starts_with("failck: "), "{args:?}: {stderr}");
    assert!(stdout.is_empty(), "{args:?}: {stdout}");
}

/// `failck --compile` is the FAIL compiler step (the FCI compiler): each
/// paper scenario compiles to a summary of its automata.
#[test]
fn compile_summarises_the_paper_scenarios() {
    for name in [
        "fig4_generic_nodes",
        "fig5_frequency",
        "fig7_simultaneous",
        "fig8_synchronized",
        "fig10_state_sync",
    ] {
        let (code, stdout, stderr) = failck(&["--compile", &scenario(&format!("{name}.fail"))]);
        assert_eq!(code, Some(0), "{name}: {stderr}");
        assert!(stdout.contains("daemon"), "{name}: {stdout}");
        assert!(stdout.contains("messages:"), "{name}: {stdout}");
    }
}

/// A scenario that does not compile is the FA000 finding `failck FILE`
/// reports for it, byte for byte: exit 1, the position on stdout.
#[test]
fn compile_reports_compile_errors_as_fa000_with_position() {
    let dir = std::env::temp_dir().join("failck-compile-test");
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let bad = dir.join("bad.fail");
    std::fs::write(&bad, "daemon A { node 1: ?x -> goto 7; }").expect("write");
    let bad = bad.to_str().expect("utf8 path");
    let (code, stdout, stderr) = failck(&["--compile", bad]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stdout.contains("bad.fail:1: error[FA000]"), "{stdout}");
    assert!(stdout.contains("unknown node 7"), "{stdout}");
    assert_eq!((code, stdout, stderr), failck(&[bad]));
}

#[test]
fn compile_needs_its_file() {
    let (code, stdout, stderr) = failck(&["--compile"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("--compile needs a path"), "{stderr}");
    assert_one_line(&["--compile"], &stdout, &stderr);
}

/// `failck --compile` keeps the exit-code matrix on whatever it is handed:
/// 0 for a compiled scenario or `--help`, 1 with an FA000 finding and its
/// line for a scenario that does not compile — binary garbage and hostile
/// nesting included — and 2 with a one-line diagnostic for a usage error
/// or an unreadable path; never a panic or a signal.
#[test]
fn compile_exit_codes_on_malformed_input() {
    let dir = std::env::temp_dir().join("failck-compile-test");
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let file = |name: &str, bytes: &[u8]| {
        let path = dir.join(name);
        std::fs::write(&path, bytes).expect("write");
        path.to_str().expect("utf8 path").to_string()
    };
    let fig5 = scenario("fig5_frequency.fail");
    let binary = file("binary.fail", &(0..=255u8).cycle().take(1024).collect::<Vec<u8>>());
    let nul = file("nul.fail", b"daemon A { node 1: \0 ?x -> goto 1; }");
    let empty = file("empty.fail", b"");
    let truncated = file("truncated.fail", b"daemon A { node 1: ?x -> goto");
    let huge = file("huge.fail", b"param X = 99999999999999999999999999;");
    let parens = file("parens.fail", format!("\nparam X = {}1;", "(".repeat(20_000)).as_bytes());
    let minuses = file("minuses.fail", format!("param X = {}1;", "-".repeat(100_000)).as_bytes());
    let dir_path = dir.to_str().expect("utf8 path");
    let too_deep = "error[FA000]: scenario does not compile: expression too deep";
    // (arguments after `--compile`, exit status, needle on stdout for 0
    // and 1, on stderr for 2)
    let cases: [(Vec<&str>, i32, &str); 16] = [
        (vec![&fig5], 0, "daemon ADV1"),
        (vec!["--help"], 0, "usage: failck "),
        (vec![&fig5, "-h"], 0, "--compile FILE"),
        (vec![&fig5, "--emit-c"], 2, "unknown argument `--emit-c`"),
        (vec![&fig5, "extra"], 2, "--compile is a standalone mode: drop `extra`"),
        (vec![&fig5, "--model-check"], 2, "--compile is a standalone mode: drop --model-check"),
        (vec!["--reduce"], 2, "cannot read `--reduce`"),
        (vec!["/nonexistent/x.fail"], 2, "cannot read `/nonexistent/x.fail`: "),
        (vec![dir_path], 2, "cannot read"),
        (vec![&binary], 2, "cannot read"),
        (vec![&nul], 1, "nul.fail:1: error[FA000]"),
        (vec![&empty], 0, "deployment: none declared"),
        (vec![&truncated], 1, "truncated.fail:1: error[FA000]"),
        (vec![&huge], 1, "huge.fail:1: error[FA000]"),
        // Both used to abort with `stack overflow` (SIGABRT).
        (vec![&parens], 1, &format!("parens.fail:2: {too_deep}")),
        (vec![&minuses], 1, &format!("minuses.fail:1: {too_deep}")),
    ];
    for (rest, code, needle) in cases {
        let args = [&["--compile"], &rest[..]].concat();
        let (got, stdout, stderr) = failck(&args);
        assert_eq!(got, Some(code), "{args:?}: {stderr}");
        let stream = if code == 2 { &stderr } else { &stdout };
        assert!(stream.contains(needle), "{args:?}: {stdout}\n{stderr}");
        assert!(!stderr.contains("panicked at") && !stderr.contains("overflowed its stack"));
        match code {
            2 => assert_one_line(&args, &stdout, &stderr),
            _ => assert!(stderr.is_empty(), "{args:?}: {stderr}"),
        }
    }
}
