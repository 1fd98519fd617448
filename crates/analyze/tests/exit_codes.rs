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
    for flag in ["--help", "-h"] {
        let (code, stdout, _) = failck(&[flag]);
        assert_eq!(code, Some(0), "{flag} is not an error");
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
