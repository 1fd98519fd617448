//! The exit-status contract of `failmpi-prof`, driven through the compiled
//! executable: 0 for a rendered profile (and top-level `--help`), 2 for a
//! usage error or any profile or output path it cannot use — a one-line
//! diagnostic on stderr, never a panic or a signal, whatever the bytes.

use std::path::PathBuf;
use std::process::Command;

use failmpi_obs::HistogramSnapshot;
use failmpi_prof::RunProfile;

/// A scratch directory holding one well-formed profile and the malformed
/// files of the table; returns a closure from file name to path.
fn files() -> impl Fn(&str) -> String {
    let dir = std::env::temp_dir().join("failmpi-prof-cli-test");
    std::fs::create_dir_all(&dir).expect("tmpdir");
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
    let texts: [(&str, &[u8]); 11] = [
        ("good.json", good.as_bytes()),
        ("truncated.json", &good.as_bytes()[..good.len() / 2]),
        ("empty-object.json", b"{}"),
        ("array-rooted.json", b"[1, 2, 3]"),
        ("huge-number.json", huge.as_bytes()),
        ("negative.json", &good.replacen("\"events\": 0", "\"events\": -5", 1).into_bytes()),
        ("infinite.json", &good.replacen("\"events\": 0", "\"events\": 1e999", 1).into_bytes()),
        ("binary.json", &(0..=255u8).cycle().take(1024).collect::<Vec<u8>>()),
        ("deep.json", &[b'['; 50_000]),
        ("wide-schema.json", wide_schema.as_bytes()),
        ("wide-bucket.json", wide.as_bytes()),
    ];
    for (name, bytes) in texts {
        std::fs::write(dir.join(name), bytes).expect("write");
    }
    move |name| -> String {
        let path: PathBuf = dir.join(name);
        path.to_str().expect("utf8 path").to_string()
    }
}

#[test]
fn every_row_exits_0_or_2_with_a_diagnostic_and_never_panics() {
    let f = files();
    let (good, missing) = (f("good.json"), "/nonexistent/dir/x.json".to_string());
    let dir = f("");
    // (arguments, exit status, stderr needle)
    let mut cases: Vec<(Vec<&str>, i32, &str)> = vec![
        (vec![], 2, "usage: failmpi-prof <report|top|flame>"),
        (vec!["--help"], 0, ""),
        (vec!["frobnicate"], 2, "unknown command `frobnicate`"),
        // The regression gate went with its baseline file.
        (vec!["diff", &good, &good], 2, "unknown command `diff`"),
        (vec!["report", &good], 0, ""),
        (vec!["report", &good, "--top", "0"], 0, ""),
        (vec!["report"], 2, "needs a PROFILE path"),
        (vec!["report", &good, "--top"], 2, "--top needs a number"),
        (vec!["report", &good, "--top", "many"], 2, "--top needs a number"),
        (vec!["report", &good, "--top", "-1"], 2, "--top needs a number"),
        (vec!["report", &good, "--top", "99999999999999999999999"], 2, "--top needs a number"),
        (vec!["report", &good, "--by"], 2, "--by needs allocs|bytes|events|time"),
        (vec!["report", &good, "--by", "speed"], 2, "--by needs"),
        (vec!["report", &good, "--bogus"], 2, "unknown argument `--bogus`"),
        (vec!["report", &good, &good], 2, "unknown argument"),
        (vec!["report", &missing], 2, "cannot read /nonexistent/dir/x.json"),
        (vec!["report", &dir], 2, "cannot read"),
        (vec!["top"], 2, "at least one PROFILE"),
        (vec!["top", &good, &good], 0, ""),
        (vec!["top", &good, &missing], 2, "cannot read"),
        (vec!["flame"], 2, "needs a PROFILE path"),
        (vec!["flame", &good], 0, ""),
        (vec!["flame", &good, "--out"], 2, "--out needs a path"),
        (vec!["flame", &good, "--out", &missing], 2, "cannot write /nonexistent/dir/x.json"),
    ];
    let malformed = [
        ("truncated.json", 2, "invalid JSON"),
        ("empty-object.json", 2, "schema_version"),
        ("array-rooted.json", 2, "not a JSON object"),
        ("huge-number.json", 0, ""), // saturates; nothing indexes by it
        ("negative.json", 2, "non-integer field `events`"),
        ("infinite.json", 2, "non-integer field `events`"),
        ("binary.json", 2, "cannot read"),
        // 50 000 unclosed brackets used to overflow the JSON reader's stack.
        ("deep.json", 2, "nesting deeper than 128"),
        // 2^32 + 1: a truncating cast would read it as schema 1.
        ("wide-schema.json", 2, "unsupported profile schema 4294967297"),
        ("wide-bucket.json", 2, "histogram bucket index 70 is above 64"),
    ];
    let malformed: Vec<(String, i32, &str)> =
        malformed.iter().map(|&(name, code, needle)| (f(name), code, needle)).collect();
    for (path, code, needle) in &malformed {
        for cmd in ["report", "top", "flame"] {
            cases.push((vec![cmd, path], *code, needle));
        }
    }
    for (args, code, needle) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_failmpi-prof"))
            .args(&args)
            .output()
            .expect("failmpi-prof runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(code), "{args:?}: {stderr}");
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
        assert!(code == 0 || stderr.lines().count() == 1, "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked at") && !stderr.contains("overflowed its stack"));
    }
}
