//! First-causal-divergence comparison of two traces — the workspace's one
//! divergence finder.
//!
//! Compare two traces node by node in handling order and report the first
//! node whose identity, payload digest *or cause edge* differs — the first
//! point where the two runs' schedules or happens-before DAGs disagree,
//! with the shared causal history leading up to it. `failmpi-trace diff`
//! prints [`render`]'s report for two files, and the double-run
//! determinism harness (`failmpi_experiments::robustness`) prints the same
//! report for two same-seed runs whose fingerprints differ.

use std::fmt::Write;

use crate::model::{Node, TraceFile};

/// Context nodes printed before the divergence point.
const CONTEXT: usize = 3;

/// A located divergence.
pub struct Divergence {
    /// Index (= node id) of the first differing node.
    pub index: usize,
    /// The node in the first trace, if it has one at `index`.
    pub a: Option<Node>,
    /// The node in the second trace, if it has one at `index`.
    pub b: Option<Node>,
}

fn node_identity(n: &Node) -> (u64, u64, u32, &str, &str, u32, Option<u64>) {
    (n.t_us, n.seq, n.digest, &n.kind, &n.label, n.track, n.cause)
}

/// Finds the first causal divergence, if any.
pub fn first_divergence(a: &TraceFile, b: &TraceFile) -> Option<Divergence> {
    let shared = a.nodes.len().min(b.nodes.len());
    for i in 0..shared {
        if node_identity(&a.nodes[i]) != node_identity(&b.nodes[i]) {
            return Some(Divergence {
                index: i,
                a: Some(a.nodes[i].clone()),
                b: Some(b.nodes[i].clone()),
            });
        }
    }
    if a.nodes.len() != b.nodes.len() {
        return Some(Divergence {
            index: shared,
            a: a.nodes.get(shared).cloned(),
            b: b.nodes.get(shared).cloned(),
        });
    }
    None
}

fn describe(n: &Option<Node>) -> String {
    match n {
        Some(n) => format!(
            "{:>10.3}s seq {:<6} [track {}] {:<18} {} (cause: {}, digest {:08x})",
            n.t_us as f64 / 1e6,
            n.seq,
            n.track,
            n.kind,
            n.label,
            n.cause.map_or("none".to_string(), |c| format!("#{c}")),
            n.digest,
        ),
        None => "(run ended — no event at this position)".to_string(),
    }
}

/// Renders a human-facing divergence report.
pub fn render(a: &TraceFile, b: &TraceFile) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "comparing: {} (seed {}) vs {} (seed {})",
        a.name, a.seed, b.name, b.seed
    )
    .unwrap();
    let Some(div) = first_divergence(a, b) else {
        writeln!(
            out,
            "no causal divergence: {} nodes identical \
             (kind, label, time, seq, digest, track, cause)",
            a.nodes.len()
        )
        .unwrap();
        return out;
    };
    writeln!(out, "first causal divergence at node #{}", div.index).unwrap();
    let start = div.index.saturating_sub(CONTEXT);
    if start < div.index {
        writeln!(out, "shared causal history:").unwrap();
        for n in &a.nodes[start..div.index] {
            writeln!(out, "  = {}", describe(&Some(n.clone()))).unwrap();
        }
    }
    writeln!(out, "  a {}", describe(&div.a)).unwrap();
    writeln!(out, "  b {}", describe(&div.b)).unwrap();
    // Where each side's diverging event came from (its causal parent) —
    // usually the actual point of interest.
    for (tag, trace, node) in [("a", a, &div.a), ("b", b, &div.b)] {
        if let Some(cause) = node.as_ref().and_then(|n| n.cause) {
            if let Some(cn) = trace.node(cause) {
                writeln!(out, "  {tag}'s cause: {}", describe(&Some(cn.clone()))).unwrap();
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(labels: &[&str]) -> TraceFile {
        TraceFile {
            name: "t".to_string(),
            nodes: labels
                .iter()
                .enumerate()
                .map(|(i, l)| Node {
                    id: i as u64,
                    cause: (i as u64).checked_sub(1),
                    t_us: i as u64 * 10,
                    seq: i as u64,
                    digest: i as u32,
                    kind: "k".to_string(),
                    label: l.to_string(),
                    track: 0,
                })
                .collect(),
            ..TraceFile::default()
        }
    }

    #[test]
    fn identical_traces_have_no_divergence() {
        let a = trace(&["x", "y", "z"]);
        assert!(first_divergence(&a, &a.clone()).is_none());
        assert!(render(&a, &a).contains("no causal divergence"));
    }

    #[test]
    fn label_difference_is_found() {
        let a = trace(&["x", "y", "z"]);
        let b = trace(&["x", "q", "z"]);
        let d = first_divergence(&a, &b).expect("diverges");
        assert_eq!(d.index, 1);
        assert!(render(&a, &b).contains("first causal divergence at node #1"));
    }

    #[test]
    fn cause_difference_is_found_even_with_same_labels() {
        let a = trace(&["x", "y", "z"]);
        let mut b = a.clone();
        b.nodes[2].cause = Some(0);
        let d = first_divergence(&a, &b).expect("diverges");
        assert_eq!(d.index, 2);
    }

    #[test]
    fn a_payload_difference_is_found_by_its_digest() {
        let a = trace(&["x", "y", "z"]);
        let mut b = a.clone();
        b.nodes[1].digest ^= 1;
        let d = first_divergence(&a, &b).expect("diverges");
        assert_eq!(d.index, 1);
        let report = render(&a, &b);
        assert!(report.contains("digest 00000001"), "{report}");
        assert!(report.contains("digest 00000000"), "{report}");
    }

    #[test]
    fn length_difference_diverges_at_the_end() {
        let a = trace(&["x", "y"]);
        let b = trace(&["x", "y", "z"]);
        let d = first_divergence(&a, &b).expect("diverges");
        assert_eq!(d.index, 2);
        assert!(d.a.is_none());
        assert!(d.b.is_some());
    }
}
