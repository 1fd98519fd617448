//! Root-cause explanation: walk the happens-before chain backward from
//! the last semantic activity of a run and narrate it.
//!
//! This is the automated version of what the paper's authors did by hand:
//! starting from a frozen run's last sign of life, follow causality
//! backward until the injected fault, and recognize the MPICH-Vcl
//! dispatcher-bug pattern — a fault hitting an *already-recovered* process
//! while the recovery wave it rode in on is still active, leaving a stale
//! dispatcher entry and no further relaunch.

use std::fmt::Write;

use crate::model::{Mark, Node, TraceFile};

/// Longest chain printed in full; longer chains elide the middle.
const MAX_CHAIN: usize = 16;

/// The structured result of an explanation.
pub struct Explanation {
    /// The semantic mark the walk started from (the run's last relevant
    /// activity), when one exists.
    pub origin: Option<Mark>,
    /// The causal chain, walked backward: most recent event first, root
    /// (external stimulus — the injected fault's timer) last.
    pub chain: Vec<Node>,
    /// `true` when the trace matches the dispatcher-bug pattern.
    pub dispatcher_bug: bool,
}

/// Picks the walk origin: the last bug-window failure if any, else the
/// last detected failure, else the last anchored semantic mark.
fn origin_mark(trace: &TraceFile) -> Option<&Mark> {
    trace
        .marks
        .iter()
        .rev()
        .find(|m| m.during_recovery && m.node.is_some())
        .or_else(|| {
            trace
                .marks
                .iter()
                .rev()
                .find(|m| m.kind == "failure_detected" && m.node.is_some())
        })
        .or_else(|| trace.marks.iter().rev().find(|m| m.node.is_some()))
}

/// Walks the chain and classifies the ending. See [`render`] for the
/// human-facing narration.
pub fn explain(trace: &TraceFile) -> Explanation {
    let origin = origin_mark(trace);
    let chain: Vec<Node> = match origin.and_then(|m| m.node) {
        Some(id) => trace
            .chain_to_root(id)
            .into_iter()
            .rev() // most recent first: we walk *backward*
            .cloned()
            .collect(),
        None => Vec::new(),
    };
    let dispatcher_bug = origin.is_some_and(|m| m.during_recovery)
        && !trace.outcome.contains("completed");
    Explanation {
        origin: origin.cloned(),
        chain,
        dispatcher_bug,
    }
}

fn fmt_node(trace: &TraceFile, n: &Node) -> String {
    let track = trace
        .tracks
        .get(n.track as usize)
        .map_or("?", String::as_str);
    format!(
        "#{:<6} {:>10.3}s  {:<14} {:<18} {}",
        n.id,
        n.t_us as f64 / 1e6,
        track,
        n.kind,
        n.label
    )
}

/// Renders the full human-facing explanation of `trace`.
pub fn render(trace: &TraceFile) -> String {
    let ex = explain(trace);
    let mut out = String::new();
    writeln!(
        out,
        "run: {} (seed {}) — outcome: {}",
        trace.name, trace.seed, trace.outcome
    )
    .unwrap();
    let Some(origin) = &ex.origin else {
        writeln!(out, "no anchored semantic activity — nothing to explain").unwrap();
        writeln!(
            out,
            "(re-run with causal tracing on: --trace-out PATH on any figure binary)"
        )
        .unwrap();
        return out;
    };
    writeln!(
        out,
        "last relevant activity: {} at {:.3}s",
        origin.label,
        origin.t_us as f64 / 1e6
    )
    .unwrap();
    writeln!(out, "\ncausal chain (walking backward to the root):").unwrap();
    if ex.chain.len() <= MAX_CHAIN {
        for n in &ex.chain {
            writeln!(out, "  {}", fmt_node(trace, n)).unwrap();
        }
    } else {
        let head = MAX_CHAIN / 2;
        let tail = MAX_CHAIN - head;
        for n in &ex.chain[..head] {
            writeln!(out, "  {}", fmt_node(trace, n)).unwrap();
        }
        writeln!(out, "  … {} events elided …", ex.chain.len() - MAX_CHAIN).unwrap();
        for n in &ex.chain[ex.chain.len() - tail..] {
            writeln!(out, "  {}", fmt_node(trace, n)).unwrap();
        }
    }
    if let Some(root) = ex.chain.last() {
        writeln!(
            out,
            "root: external stimulus {} — the injected fault's origin",
            root.label
        )
        .unwrap();
    }

    if ex.dispatcher_bug {
        out.push_str(&narrate_dispatcher_bug(trace, origin));
    } else if trace.outcome.contains("completed") {
        writeln!(out, "\nverdict: run completed — no root cause to chase.").unwrap();
    } else {
        writeln!(
            out,
            "\nverdict: run did not complete, but no failure was detected during an \
             active recovery (not the dispatcher-bug pattern)."
        )
        .unwrap();
    }
    out
}

/// Narrates the paper's dispatcher-bug isolation story from the marks:
/// fault → recovery wave → second fault on an already-recovered rank →
/// stale dispatcher entry → freeze.
fn narrate_dispatcher_bug(trace: &TraceFile, bug: &Mark) -> String {
    let mut out = String::new();
    let secs = |t_us: u64| t_us as f64 / 1e6;
    // The recovery wave that was still active when the bug-window failure
    // hit: the last recovery started at or before it.
    let wave = trace
        .marks
        .iter()
        .rev()
        .find(|m| m.kind == "recovery_started" && m.t_us <= bug.t_us);
    // The original fault that triggered that recovery wave.
    let first_fault = wave.and_then(|w| {
        trace
            .marks
            .iter()
            .rev()
            .find(|m| m.kind == "failure_detected" && !m.during_recovery && m.t_us <= w.t_us)
    });
    // Evidence the victim rank had already been recovered: its relaunch
    // inside the active recovery epoch, before the second fault hit it.
    let relaunch = bug.rank.and_then(|r| {
        trace.marks.iter().rev().find(|m| {
            m.kind == "daemon_spawned"
                && m.rank == Some(r)
                && m.epoch == bug.epoch
                && m.t_us <= bug.t_us
        })
    });

    writeln!(out, "\ndiagnosis (the paper's dispatcher-bug pattern):").unwrap();
    if let Some(f) = first_fault {
        writeln!(
            out,
            "  1. injected fault: {} at {:.3}s",
            f.label,
            secs(f.t_us)
        )
        .unwrap();
    } else {
        writeln!(out, "  1. an injected fault killed a rank").unwrap();
    }
    if let Some(w) = wave {
        writeln!(
            out,
            "  2. recovery wave: {} at {:.3}s — the dispatcher relaunched every rank",
            w.label,
            secs(w.t_us)
        )
        .unwrap();
    } else {
        writeln!(out, "  2. the dispatcher started a recovery wave").unwrap();
    }
    if let Some(r) = relaunch {
        writeln!(
            out,
            "  3. already recovered: {} at {:.3}s",
            r.label,
            secs(r.t_us)
        )
        .unwrap();
    }
    writeln!(
        out,
        "  4. second fault during the still-active recovery wave: {} at {:.3}s",
        bug.label,
        secs(bug.t_us)
    )
    .unwrap();
    writeln!(
        out,
        "  5. the dispatcher absorbed the closure into a stale dispatcher entry \
         (rank marked stopped, never relaunched) — no recovery followed."
    )
    .unwrap();
    writeln!(
        out,
        "\nverdict: frozen at {:.3}s. A fault on an already-recovered process during \
         an active recovery wave left a stale dispatcher entry: the MPICH-Vcl \
         dispatcher bug the paper isolated.",
        secs(trace.end_micros)
    )
    .unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Node;

    fn mark(node: u64, t_us: u64, kind: &str, label: &str) -> Mark {
        Mark {
            node: Some(node),
            t_us,
            kind: kind.to_string(),
            label: label.to_string(),
            rank: None,
            epoch: None,
            wave: None,
            during_recovery: false,
        }
    }

    fn bug_trace() -> TraceFile {
        let mut nodes = Vec::new();
        for i in 0..5u64 {
            nodes.push(Node {
                id: i,
                cause: i.checked_sub(1),
                t_us: i * 1000,
                seq: i,
                digest: 0,
                kind: "k".to_string(),
                label: format!("ev{i}"),
                track: 0,
            });
        }
        let mut bug = mark(4, 4000, "failure_detected", "FAILURE rank 0 epoch 1");
        bug.during_recovery = true;
        bug.rank = Some(0);
        bug.epoch = Some(1);
        let mut spawn = mark(2, 2000, "daemon_spawned", "spawn rank 0 epoch 1");
        spawn.rank = Some(0);
        spawn.epoch = Some(1);
        TraceFile {
            name: "t".to_string(),
            seed: 2,
            outcome: "buggy (frozen)".to_string(),
            end_micros: 90_000_000,
            tracks: vec!["dispatcher".to_string()],
            nodes,
            marks: vec![
                mark(0, 0, "failure_detected", "failure rank 1 epoch 0"),
                mark(1, 1000, "recovery_started", "recovery -> epoch 1"),
                spawn,
                bug,
            ],
        }
    }

    #[test]
    fn explains_the_dispatcher_bug_pattern() {
        let text = render(&bug_trace());
        assert!(text.contains("fault"), "{text}");
        assert!(text.contains("recovery wave"), "{text}");
        assert!(text.contains("stale dispatcher entry"), "{text}");
        assert!(text.contains("already recovered"), "{text}");
        assert!(text.contains("frozen"), "{text}");
    }

    #[test]
    fn chain_walks_backward_to_root() {
        let ex = explain(&bug_trace());
        assert!(ex.dispatcher_bug);
        let ids: Vec<u64> = ex.chain.iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![4, 3, 2, 1, 0], "most recent first, root last");
    }

    #[test]
    fn completed_run_has_no_bug_verdict() {
        let mut t = bug_trace();
        t.outcome = "completed".to_string();
        let text = render(&t);
        assert!(!text.contains("stale dispatcher entry"), "{text}");
        assert!(text.contains("no root cause"), "{text}");
    }

    #[test]
    fn long_chains_elide_the_middle() {
        let mut t = bug_trace();
        t.nodes = (0..100u64)
            .map(|i| Node {
                id: i,
                cause: i.checked_sub(1),
                t_us: i,
                seq: i,
                digest: 0,
                kind: "k".to_string(),
                label: format!("ev{i}"),
                track: 0,
            })
            .collect();
        t.marks = vec![{
            let mut m = mark(99, 99, "failure_detected", "f");
            m.during_recovery = true;
            m
        }];
        let text = render(&t);
        assert!(text.contains("events elided"), "{text}");
    }
}
