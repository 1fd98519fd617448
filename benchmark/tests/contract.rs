//! The benchmark against its own contract: `BENCHMARK.json` and the metric
//! tables list the same names, and the binary prints exactly those, on a
//! miniature workload that runs the whole pipeline in seconds.
//!
//! Run with `cargo test --release`: the miniature's traced pass takes the
//! layer probes, which are sized for an optimised build.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use failmpi_benchmark::metrics::{END_TO_END, PER_LAYER};
use failmpi_benchmark::workload;
use serde_json::Value;

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json at the root"))
        .expect("valid JSON")
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
}

fn field<'a>(row: &'a Value, key: &str) -> &'a str {
    row.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("`{key}` missing in {row:?}"))
}

#[test]
fn benchmark_json_lists_the_workloads_of_the_binary() {
    let doc = benchmark_json();
    let listed: Vec<(&str, &str)> = doc["workloads"]
        .as_array()
        .expect("workloads")
        .iter()
        .map(|w| (field(w, "name"), field(w, "why")))
        .collect();
    let built: Vec<(&str, &str)> = workload::listed().iter().map(|w| (w.name, w.why)).collect();
    assert_eq!(listed, built);
    for (name, why) in listed {
        assert!(well_formed(name), "{name}");
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "{name}: why is one line of at most 200"
        );
    }
    assert!(workload::find(workload::QUICK).is_some());
    assert!(!doc["workloads"]
        .as_array()
        .unwrap()
        .iter()
        .any(|w| field(w, "name") == workload::QUICK));
}

#[test]
fn benchmark_json_lists_the_metrics_of_the_tables() {
    let doc = benchmark_json();
    let listed: Vec<(String, String, String, Option<f64>)> = ["end_to_end", "per_layer"]
        .into_iter()
        .flat_map(|key| doc[key].as_array().expect("metric list").iter())
        .map(|m| {
            (
                field(m, "name").to_string(),
                field(m, "unit").to_string(),
                field(m, "better").to_string(),
                m.get("bound").and_then(Value::as_f64),
            )
        })
        .collect();
    let tables: Vec<(String, String, String, Option<f64>)> = END_TO_END
        .iter()
        .map(|(d, bound)| (d, Some(*bound)))
        .chain(PER_LAYER.iter().map(|d| (d, None)))
        .map(|(d, bound)| {
            (
                d.name.to_string(),
                d.unit.to_string(),
                d.better.to_string(),
                bound,
            )
        })
        .collect();
    assert_eq!(listed, tables);
    let names: BTreeSet<&str> = tables.iter().map(|t| t.0.as_str()).collect();
    assert_eq!(names.len(), tables.len(), "a name is used once");
    for (name, unit, better, bound) in &tables {
        assert!(well_formed(name), "{name}");
        assert!(
            unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        );
        assert!(better == "lower" || better == "higher");
        assert!(bound.is_none_or(|b| b > 0.0 && b <= 0.25));
    }
    assert!(PER_LAYER.len() <= 128);
    assert!(END_TO_END
        .iter()
        .any(|(d, _)| (d.name, d.unit, d.better) == ("setup_s", "s", "lower")));
    assert_eq!(doc["paths"].as_array().unwrap().len(), 1);
    assert_eq!(doc["paths"][0].as_str(), Some("benchmark"));
}

fn benchmark(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_failmpi-benchmark"))
        .args(args)
        .output()
        .expect("the binary starts")
}

/// The last line of standard output, parsed.
fn result_line(out: &Output) -> Value {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("some output");
    serde_json::from_str(last).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {last}"))
}

fn metric_names(result: &Value) -> BTreeSet<String> {
    result["metrics"]
        .as_object()
        .expect("metrics")
        .keys()
        .cloned()
        .collect()
}

#[test]
fn the_miniature_prints_every_end_to_end_metric_and_passes() {
    let out = benchmark(&["--workload", "quick", "--seconds", "0", "--trace", "0"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let result = result_line(&out);
    let keys: BTreeSet<&str> = result
        .as_object()
        .unwrap()
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(
        keys,
        BTreeSet::from(["attempted", "correct", "failed", "metrics"])
    );
    assert_eq!(result["correct"].as_bool(), Some(true));
    assert_eq!(result["failed"].as_u64(), Some(0));
    assert!(result["attempted"].as_u64().unwrap() >= 7);
    let want: BTreeSet<String> = END_TO_END.iter().map(|(d, _)| d.name.to_string()).collect();
    assert_eq!(metric_names(&result), want);
    for (def, _) in &END_TO_END {
        let m = &result["metrics"][def.name];
        assert!(
            m["value"].as_f64().unwrap() > 0.0,
            "{} is never 0",
            def.name
        );
        assert_eq!(m["unit"].as_str(), Some(def.unit));
    }
}

#[test]
fn the_miniature_traced_prints_every_per_layer_metric_and_writes_its_spans() {
    let out = benchmark(&["--workload", "quick", "--seconds", "0", "--trace", "1"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let result = result_line(&out);
    let want: BTreeSet<String> = PER_LAYER.iter().map(|d| d.name.to_string()).collect();
    assert_eq!(metric_names(&result), want);
    assert_eq!(result["correct"].as_bool(), Some(true));
    let value = |name: &str| result["metrics"][name]["value"].as_f64().unwrap();
    // One layer from each kind of measurement did real work.
    for name in [
        "sim.events",
        "sim.queue_hold_ns.d512",
        "mpichv.handler_count.net_delivered",
        "mpichv.dispatch_ns_per_event",
        "core.compile_us",
        "ulfm.events",
        "obs.causal_nodes",
        "obs.allocs_per_event",
        "fuzz.candidates",
        "bench.trace_overhead_ratio",
    ] {
        assert!(value(name) > 0.0, "{name} reads {}", value(name));
    }
    let spans = std::fs::read_to_string("target/benchmark/trace-quick.json").expect("span file");
    let spans = serde_json::from_str(&spans).expect("span file is JSON");
    assert!(spans["spans"].as_array().unwrap().len() > 10);
}

#[test]
fn a_wrong_pin_fails_the_run_and_names_the_operation() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("wrong-pins");
    std::fs::create_dir_all(&dir).unwrap();
    let good = Path::new(env!("CARGO_MANIFEST_DIR")).join("expected/quick.json");
    let text = std::fs::read_to_string(good).unwrap();
    assert!(text.contains("class=completed"));
    std::fs::write(
        dir.join("quick.json"),
        text.replacen("class=completed", "class=buggy", 1),
    )
    .unwrap();
    let out = benchmark(&[
        "--workload",
        "quick",
        "--seconds",
        "0",
        "--expected-dir",
        dir.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1));
    let result = result_line(&out);
    assert_eq!(result["correct"].as_bool(), Some(false));
    assert!(result["failed"].as_u64().unwrap() > 0);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("[vcl n4 S fault-free]") && stdout.contains("expected"),
        "{stdout}"
    );
}

#[test]
fn bad_input_exits_2_with_a_diagnostic_and_no_result() {
    for args in [
        &["--workload", "no_such_workload"][..],
        &["--frobnicate"],
        &["--workload", "quick", "--seed", "x"],
        &["--workload", "quick", "--trace", "2"],
        &["--workload", "quick", "--expected-dir", "/nonexistent"],
        &["--compare", "/nonexistent/a.json", "/nonexistent/b.json"],
        &[],
    ] {
        let out = benchmark(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).starts_with("failmpi-benchmark: "),
            "{args:?}"
        );
    }
}
