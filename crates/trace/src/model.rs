//! The on-disk causal-trace model.
//!
//! A [`TraceFile`] is the serialized happens-before DAG of one run: the
//! engine-level [`Node`]s (every handled event, each with a `cause` edge to
//! the event that scheduled it) plus the semantic [`Mark`]s (MPICH-Vcl
//! lifecycle records — failures, recoveries, waves — each anchored to the
//! node it was emitted under). Serialization is hand-rolled with a fixed
//! field order so same-seed runs export byte-identical JSON (the
//! determinism property the testkit checks).

use failmpi_sim::CausalLog;

/// Version tag of the trace-file schema (`schema_version` field).
pub const SCHEMA_VERSION: u64 = 1;

/// One engine event in the happens-before DAG.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Node {
    /// Handling-order id (dense, 0-based).
    pub id: u64,
    /// Id of the event that scheduled this one; `None` for external
    /// stimulus (boot launches, the injected fault timers).
    pub cause: Option<u64>,
    /// Virtual time, microseconds.
    pub t_us: u64,
    /// Queue sequence number (push order).
    pub seq: u64,
    /// Static event kind (e.g. `net.delivered`, `fail_timer`).
    pub kind: String,
    /// Human-readable one-liner.
    pub label: String,
    /// Display lane (index into [`TraceFile::tracks`]).
    pub track: u32,
}

/// One semantic (MPICH-Vcl) record, anchored into the DAG.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Mark {
    /// The node this record was emitted under, if causal anchoring was on.
    pub node: Option<u64>,
    /// Virtual time, microseconds.
    pub t_us: u64,
    /// Stable kind string (e.g. `failure_detected`, `recovery_started`,
    /// `wave_committed` — see the experiments-side conversion).
    pub kind: String,
    /// Human-readable one-liner.
    pub label: String,
    /// Rank involved, where meaningful.
    pub rank: Option<i64>,
    /// Execution epoch involved, where meaningful.
    pub epoch: Option<i64>,
    /// Checkpoint wave involved, where meaningful.
    pub wave: Option<i64>,
    /// `true` on a failure detected while a recovery was still active —
    /// the paper's dispatcher-bug window.
    pub during_recovery: bool,
}

/// A complete exported causal trace of one run.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct TraceFile {
    /// Run name (scenario or figure id).
    pub name: String,
    /// Experiment seed.
    pub seed: u64,
    /// Classifier verdict string (`completed`, `buggy (frozen)`, …).
    pub outcome: String,
    /// Virtual end instant of the run, microseconds.
    pub end_micros: u64,
    /// Display-lane names; [`Node::track`] indexes this.
    pub tracks: Vec<String>,
    /// Every handled engine event, in handling order.
    pub nodes: Vec<Node>,
    /// Semantic lifecycle records, in record order.
    pub marks: Vec<Mark>,
}

impl TraceFile {
    /// Builds the node list from an engine [`CausalLog`] (marks and
    /// metadata are filled in by the caller, who knows the semantic layer).
    pub fn from_causal(log: &CausalLog) -> TraceFile {
        let nodes = log
            .nodes()
            .iter()
            .map(|n| Node {
                id: n.id.0,
                cause: n.cause.map(|c| c.0),
                t_us: n.at.as_micros(),
                seq: n.seq,
                kind: n.kind.to_string(),
                label: n.label.clone(),
                track: n.track,
            })
            .collect();
        TraceFile {
            nodes,
            ..TraceFile::default()
        }
    }

    /// Looks a node up by id (dense fast path, verified).
    pub fn node(&self, id: u64) -> Option<&Node> {
        match self.nodes.get(id as usize) {
            Some(n) if n.id == id => Some(n),
            _ => self.nodes.iter().find(|n| n.id == id),
        }
    }

    /// Walks cause edges from `id` (inclusive) back to a root, returning
    /// the chain root-first.
    pub fn chain_to_root(&self, id: u64) -> Vec<&Node> {
        let mut chain = Vec::new();
        let mut cursor = self.node(id);
        while let Some(n) = cursor {
            chain.push(n);
            cursor = n.cause.and_then(|c| self.node(c));
        }
        chain.reverse();
        chain
    }

    /// Structural happens-before invariants (mirrors
    /// `CausalLog::check_invariants` on the serialized form).
    pub fn check_invariants(&self) -> Result<(), String> {
        for (i, n) in self.nodes.iter().enumerate() {
            if n.id != i as u64 {
                return Err(format!("node {i} has non-dense id {}", n.id));
            }
            if let Some(c) = n.cause {
                if c >= n.id {
                    return Err(format!("node {} has forward/self cause {c}", n.id));
                }
                let Some(cn) = self.node(c) else {
                    return Err(format!("node {} has dangling cause {c}", n.id));
                };
                if cn.t_us > n.t_us {
                    return Err(format!(
                        "edge {c} -> {} goes backward in virtual time",
                        n.id
                    ));
                }
            }
        }
        for (i, m) in self.marks.iter().enumerate() {
            if let Some(anchor) = m.node {
                if self.node(anchor).is_none() {
                    return Err(format!("mark {i} anchored to missing node {anchor}"));
                }
            }
        }
        Ok(())
    }

    /// Serializes with a fixed field order: byte-identical for identical
    /// traces, whatever produced them.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256 + self.nodes.len() * 96);
        s.push_str("{\n");
        s.push_str(&format!("  \"schema_version\": {SCHEMA_VERSION},\n"));
        s.push_str(&format!("  \"name\": {},\n", escape(&self.name)));
        s.push_str(&format!("  \"seed\": {},\n", self.seed));
        s.push_str(&format!("  \"outcome\": {},\n", escape(&self.outcome)));
        s.push_str(&format!("  \"end_micros\": {},\n", self.end_micros));
        s.push_str("  \"tracks\": [");
        for (i, t) in self.tracks.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&escape(t));
        }
        s.push_str("],\n  \"nodes\": [\n");
        for (i, n) in self.nodes.iter().enumerate() {
            let cause = match n.cause {
                Some(c) => c.to_string(),
                None => "null".to_string(),
            };
            s.push_str(&format!(
                "    {{\"id\": {}, \"cause\": {}, \"t_us\": {}, \"seq\": {}, \
                 \"kind\": {}, \"label\": {}, \"track\": {}}}{}\n",
                n.id,
                cause,
                n.t_us,
                n.seq,
                escape(&n.kind),
                escape(&n.label),
                n.track,
                if i + 1 < self.nodes.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n  \"marks\": [\n");
        for (i, m) in self.marks.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"node\": {}, \"t_us\": {}, \"kind\": {}, \"label\": {}, \
                 \"rank\": {}, \"epoch\": {}, \"wave\": {}, \"during_recovery\": {}}}{}\n",
                opt_num(m.node.map(|v| v as i64)),
                m.t_us,
                escape(&m.kind),
                escape(&m.label),
                opt_num(m.rank),
                opt_num(m.epoch),
                opt_num(m.wave),
                m.during_recovery,
                if i + 1 < self.marks.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Parses a trace file previously written by [`TraceFile::to_json`].
    pub fn from_json(src: &str) -> Result<TraceFile, String> {
        let v = serde_json::from_str(src).map_err(|e| format!("invalid JSON: {e:?}"))?;
        let version = v
            .get("schema_version")
            .and_then(|x| x.as_u64())
            .ok_or("missing schema_version")?;
        if version != SCHEMA_VERSION {
            return Err(format!(
                "unsupported trace schema_version {version} (expected {SCHEMA_VERSION})"
            ));
        }
        let str_of = |key: &str| {
            v.get(key)
                .and_then(|x| x.as_str())
                .map(str::to_string)
                .ok_or(format!("missing string field {key}"))
        };
        let mut tf = TraceFile {
            name: str_of("name")?,
            seed: v.get("seed").and_then(|x| x.as_u64()).ok_or("missing seed")?,
            outcome: str_of("outcome")?,
            end_micros: v
                .get("end_micros")
                .and_then(|x| x.as_u64())
                .ok_or("missing end_micros")?,
            ..TraceFile::default()
        };
        for t in v
            .get("tracks")
            .and_then(|x| x.as_array())
            .ok_or("missing tracks")?
        {
            tf.tracks
                .push(t.as_str().ok_or("non-string track")?.to_string());
        }
        for n in v
            .get("nodes")
            .and_then(|x| x.as_array())
            .ok_or("missing nodes")?
        {
            tf.nodes.push(Node {
                id: n.get("id").and_then(|x| x.as_u64()).ok_or("node id")?,
                cause: n.get("cause").and_then(|x| x.as_u64()),
                t_us: n.get("t_us").and_then(|x| x.as_u64()).ok_or("node t_us")?,
                seq: n.get("seq").and_then(|x| x.as_u64()).ok_or("node seq")?,
                kind: n
                    .get("kind")
                    .and_then(|x| x.as_str())
                    .ok_or("node kind")?
                    .to_string(),
                label: n
                    .get("label")
                    .and_then(|x| x.as_str())
                    .ok_or("node label")?
                    .to_string(),
                track: n.get("track").and_then(|x| x.as_u64()).ok_or("node track")? as u32,
            });
        }
        for m in v
            .get("marks")
            .and_then(|x| x.as_array())
            .ok_or("missing marks")?
        {
            tf.marks.push(Mark {
                node: m.get("node").and_then(|x| x.as_u64()),
                t_us: m.get("t_us").and_then(|x| x.as_u64()).ok_or("mark t_us")?,
                kind: m
                    .get("kind")
                    .and_then(|x| x.as_str())
                    .ok_or("mark kind")?
                    .to_string(),
                label: m
                    .get("label")
                    .and_then(|x| x.as_str())
                    .ok_or("mark label")?
                    .to_string(),
                rank: m.get("rank").and_then(|x| x.as_i64()),
                epoch: m.get("epoch").and_then(|x| x.as_i64()),
                wave: m.get("wave").and_then(|x| x.as_i64()),
                during_recovery: m
                    .get("during_recovery")
                    .and_then(|x| x.as_bool())
                    .unwrap_or(false),
            });
        }
        Ok(tf)
    }
}

fn opt_num(v: Option<i64>) -> String {
    match v {
        Some(n) => n.to_string(),
        None => "null".to_string(),
    }
}

/// JSON string escaping (control characters, quotes, backslashes) by the
/// workspace's one escaper, `serde::write_json_str`.
pub fn escape(s: &str) -> String {
    serde_json::to_string(s).expect("a string always serializes")
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample() -> TraceFile {
        TraceFile {
            name: "sample".to_string(),
            seed: 7,
            outcome: "buggy (frozen)".to_string(),
            end_micros: 90_000_000,
            tracks: vec!["dispatcher".to_string(), "rank-0".to_string()],
            nodes: vec![
                Node {
                    id: 0,
                    cause: None,
                    t_us: 0,
                    seq: 0,
                    kind: "fail_timer".to_string(),
                    label: "fail-timer i0 t0".to_string(),
                    track: 1,
                },
                Node {
                    id: 1,
                    cause: Some(0),
                    t_us: 100,
                    seq: 1,
                    kind: "net.closed".to_string(),
                    label: "net.closed pid3 (PeerDied)".to_string(),
                    track: 0,
                },
            ],
            marks: vec![Mark {
                node: Some(1),
                t_us: 100,
                kind: "failure_detected".to_string(),
                label: "failure rank 0 epoch 1".to_string(),
                rank: Some(0),
                epoch: Some(1),
                wave: None,
                during_recovery: true,
            }],
        }
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        let tf = sample();
        let json = tf.to_json();
        let back = TraceFile::from_json(&json).expect("parses");
        assert_eq!(back, tf);
        // Re-serialization is byte-identical (determinism contract).
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn invariants_hold_on_sample() {
        sample().check_invariants().expect("sample is well-formed");
    }

    #[test]
    fn invariants_reject_dangling_mark() {
        let mut tf = sample();
        tf.marks[0].node = Some(99);
        assert!(tf.check_invariants().is_err());
    }

    #[test]
    fn chain_to_root_on_file() {
        let tf = sample();
        let chain = tf.chain_to_root(1);
        assert_eq!(chain.len(), 2);
        assert_eq!(chain[0].id, 0);
        assert_eq!(chain[0].cause, None);
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let json = sample().to_json().replace(
            "\"schema_version\": 1",
            "\"schema_version\": 99",
        );
        assert!(TraceFile::from_json(&json).is_err());
    }
}
