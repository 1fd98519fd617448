//! Slicing and filtering a causal trace.
//!
//! `slice` extracts the *ancestor cone* of one node — exactly the events
//! that can have influenced it, the standard dynamic-slicing move for
//! shrinking a multi-thousand-event run down to the part that matters.
//! `filter` is the flat companion: select nodes by kind, track or time
//! window for quick grepping.

use std::collections::BTreeSet;

use crate::model::{Node, TraceFile};

/// The ancestor cone of `id`: the node itself plus everything reachable
/// backward over cause edges, as a new trace (marks anchored inside the
/// cone are kept). Node ids keep their original values, so they remain
/// valid coordinates into the full trace: a slice's ids increase without
/// being dense, and it holds every other invariant of the full trace (a
/// cone contains the cause of each of its nodes).
pub fn slice(trace: &TraceFile, id: u64) -> Option<TraceFile> {
    trace.node(id)?;
    let mut keep = BTreeSet::new();
    let mut stack = vec![id];
    while let Some(cur) = stack.pop() {
        if !keep.insert(cur) {
            continue;
        }
        if let Some(c) = trace.node(cur).and_then(|n| n.cause) {
            stack.push(c);
        }
    }
    Some(TraceFile {
        name: format!("{}#slice-{id}", trace.name),
        seed: trace.seed,
        outcome: trace.outcome.clone(),
        end_micros: trace.end_micros,
        tracks: trace.tracks.clone(),
        nodes: trace
            .nodes
            .iter()
            .filter(|n| keep.contains(&n.id))
            .cloned()
            .collect(),
        marks: trace
            .marks
            .iter()
            .filter(|m| m.node.is_some_and(|n| keep.contains(&n)))
            .cloned()
            .collect(),
    })
}

/// Node selection criteria for [`filter`]. Empty criteria select all.
#[derive(Clone, Debug, Default)]
pub struct Filter {
    /// Keep nodes whose kind contains this substring.
    pub kind: Option<String>,
    /// Keep nodes on the track with this exact name.
    pub track: Option<String>,
    /// Keep nodes at or after this instant (microseconds).
    pub from_us: Option<u64>,
    /// Keep nodes at or before this instant (microseconds).
    pub to_us: Option<u64>,
}

impl Filter {
    fn matches(&self, trace: &TraceFile, n: &Node) -> bool {
        if let Some(k) = &self.kind {
            if !n.kind.contains(k.as_str()) {
                return false;
            }
        }
        if let Some(t) = &self.track {
            if trace.tracks.get(n.track as usize).map(String::as_str) != Some(t.as_str()) {
                return false;
            }
        }
        if self.from_us.is_some_and(|f| n.t_us < f) {
            return false;
        }
        if self.to_us.is_some_and(|t| n.t_us > t) {
            return false;
        }
        true
    }
}

/// Selects nodes matching `f`, in handling order.
pub fn filter<'a>(trace: &'a TraceFile, f: &Filter) -> Vec<&'a Node> {
    trace.nodes.iter().filter(|n| f.matches(trace, n)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Mark;

    fn diamond() -> TraceFile {
        // 0 -> 1 -> 3, 0 -> 2 (2 is off the cone of 3)
        let node = |id: u64, cause: Option<u64>, kind: &str, track: u32| Node {
            id,
            cause,
            t_us: id * 10,
            seq: id,
            kind: kind.to_string(),
            label: format!("ev{id}"),
            track,
        };
        TraceFile {
            name: "d".to_string(),
            tracks: vec!["a".to_string(), "b".to_string()],
            nodes: vec![
                node(0, None, "boot", 0),
                node(1, Some(0), "net.delivered", 1),
                node(2, Some(0), "sched_tick", 0),
                node(3, Some(1), "net.closed", 1),
            ],
            marks: vec![
                Mark {
                    node: Some(3),
                    t_us: 30,
                    kind: "failure_detected".to_string(),
                    label: "f".to_string(),
                    rank: None,
                    epoch: None,
                    wave: None,
                    during_recovery: false,
                },
                Mark {
                    node: Some(2),
                    t_us: 20,
                    kind: "wave_started".to_string(),
                    label: "w".to_string(),
                    rank: None,
                    epoch: None,
                    wave: None,
                    during_recovery: false,
                },
            ],
            ..TraceFile::default()
        }
    }

    #[test]
    fn slice_keeps_exactly_the_ancestor_cone() {
        let t = diamond();
        let s = slice(&t, 3).expect("node exists");
        let ids: Vec<u64> = s.nodes.iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![0, 1, 3]);
        // Only the mark anchored inside the cone survives.
        assert_eq!(s.marks.len(), 1);
        assert_eq!(s.marks[0].kind, "failure_detected");
        // A slice is a file the other subcommands load: it keeps the
        // invariants, and its gapped ids still resolve.
        s.check_invariants().expect("a slice is well-formed");
        assert_eq!(s.node(3).map(|n| n.cause), Some(Some(1)));
        assert!(s.node(2).is_none());
    }

    #[test]
    fn slice_of_missing_node_is_none() {
        assert!(slice(&diamond(), 99).is_none());
    }

    #[test]
    fn filter_by_kind_track_and_time() {
        let t = diamond();
        let by_kind = filter(
            &t,
            &Filter {
                kind: Some("net.".to_string()),
                ..Filter::default()
            },
        );
        assert_eq!(by_kind.len(), 2);
        let by_track = filter(
            &t,
            &Filter {
                track: Some("a".to_string()),
                ..Filter::default()
            },
        );
        assert_eq!(by_track.len(), 2);
        let by_window = filter(
            &t,
            &Filter {
                from_us: Some(10),
                to_us: Some(20),
                ..Filter::default()
            },
        );
        assert_eq!(by_window.len(), 2);
    }
}
