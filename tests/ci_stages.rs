//! CI is one script. `.github/workflows/ci.yml` is a matrix over the
//! stages `ci/run.sh` defines and runs no build or test command itself,
//! so what CI runs is what `bash ci/run.sh <stage>` runs locally. Every
//! stage runs in CI exactly once: listed in the matrix, or run by a stage
//! that is — no gate is dropped and none is paid for twice.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

fn read(path: &str) -> String {
    std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join(path))
        .unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Each `stage_<name>() {` function of the script, with the stages its
/// body runs.
fn script_stages(script: &str) -> BTreeMap<&str, BTreeSet<&str>> {
    let mut stages = BTreeMap::new();
    let mut current = None;
    for line in script.lines() {
        if let Some(name) = line
            .strip_prefix("stage_")
            .and_then(|l| l.strip_suffix("() {"))
        {
            stages.insert(name, BTreeSet::new());
            current = Some(name);
        } else if line == "}" {
            current = None;
        } else if let Some(stage) = current {
            for (at, _) in line.match_indices("stage_") {
                let rest = &line[at + "stage_".len()..];
                let end = rest.find(|c: char| !c.is_ascii_alphanumeric() && c != '_');
                stages
                    .get_mut(stage)
                    .expect("inserted")
                    .insert(&rest[..end.unwrap_or(rest.len())]);
            }
        }
    }
    stages
}

/// The workflow matrix's `stage` values, `stage: [a, b c]` lists and
/// `- stage: d` include entries alike.
fn matrix_entries(workflow: &str) -> Vec<&str> {
    let mut entries = Vec::new();
    for line in workflow.lines() {
        let line = line.trim_start();
        let line = line.strip_prefix("- ").unwrap_or(line);
        let Some(value) = line.strip_prefix("stage: ") else {
            continue;
        };
        match value.strip_prefix('[').and_then(|v| v.strip_suffix(']')) {
            Some(list) => entries.extend(list.split(',').map(str::trim)),
            None => entries.push(value.trim()),
        }
    }
    entries
}

/// The workflow's `run:` commands.
fn run_commands(workflow: &str) -> Vec<&str> {
    workflow
        .lines()
        .filter_map(|l| {
            l.trim_start()
                .strip_prefix("- ")
                .unwrap_or(l.trim_start())
                .strip_prefix("run: ")
        })
        .map(str::trim)
        .collect()
}

#[test]
fn every_stage_runs_in_ci_exactly_once() {
    let script = read("ci/run.sh");
    let stages = script_stages(&script);
    let workflow = read(".github/workflows/ci.yml");
    let entries = matrix_entries(&workflow);
    assert!(
        stages.len() > 1 && entries.len() > 1,
        "scan is broken: {stages:?} {entries:?}"
    );

    let unique: BTreeSet<&str> = entries.iter().copied().collect();
    assert_eq!(
        unique.len(),
        entries.len(),
        "a matrix entry is listed twice: {entries:?}"
    );
    let listed: BTreeSet<&str> = entries
        .iter()
        .map(|e| e.split(' ').next().unwrap_or(e))
        .collect();
    for stage in &listed {
        assert!(
            stages.contains_key(stage),
            "the matrix lists `{stage}`, which ci/run.sh lacks"
        );
    }
    for stage in stages.keys() {
        let runs = usize::from(listed.contains(stage))
            + listed
                .iter()
                .filter(|m| stages.get(*m).is_some_and(|c| c.contains(stage)))
                .count();
        assert_eq!(runs, 1, "stage `{stage}` runs {runs} times in CI");
    }
}

#[test]
fn the_workflow_runs_nothing_but_the_script() {
    let workflow = read(".github/workflows/ci.yml");
    let commands = run_commands(&workflow);
    assert!(
        commands.contains(&"bash ci/run.sh ${{ matrix.stage }}"),
        "{commands:?}"
    );
    for command in commands {
        assert!(
            command != "|" && command != ">",
            "multi-line `run:` block: keep commands in ci/run.sh"
        );
        assert!(
            !command.contains("cargo") && !command.contains("target/"),
            "the workflow runs `{command}` itself: move it into a ci/run.sh stage"
        );
    }
}

#[test]
fn the_scans_read_the_shapes_they_are_given() {
    let script = "stage_a() {\n    stage_b x\n}\n\nstage_b() {\n    echo\n}\nstage=$1\n";
    let stages = script_stages(script);
    assert_eq!(stages["a"], BTreeSet::from(["b"]));
    assert!(stages["b"].is_empty());
    let workflow = "  matrix:\n    stage: [a, b x]\n    include:\n      - stage: c\n";
    assert_eq!(matrix_entries(workflow), ["a", "b x", "c"]);
    let steps = "      - run: bash x\n      - name: y\n        run: |\n";
    assert_eq!(run_commands(steps), ["bash x", "|"]);
}
