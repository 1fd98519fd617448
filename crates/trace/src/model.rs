//! The on-disk causal-trace model.
//!
//! A [`TraceFile`] is the serialized happens-before DAG of one run: the
//! engine-level [`Node`]s (every handled event, each with a `cause` edge to
//! the event that scheduled it) plus the semantic [`Mark`]s (MPICH-Vcl
//! lifecycle records — failures, recoveries, waves — each anchored to the
//! node it was emitted under). Serialization is hand-rolled with a fixed
//! field order so same-seed runs export byte-identical JSON (the
//! determinism property the testkit checks).

use std::borrow::Borrow;
use std::io;

use failmpi_sim::CausalNode;

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

impl From<CausalNode> for Node {
    fn from(n: CausalNode) -> Node {
        Node {
            id: n.id.0,
            cause: n.cause.map(|c| c.0),
            t_us: n.at.as_micros(),
            seq: n.seq,
            kind: n.kind.to_string(),
            label: n.label,
            track: n.track,
        }
    }
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
    /// Looks a node up by id: by position in a full trace, whose ids are
    /// dense, by bisection in a slice, whose ids are merely increasing
    /// (see [`TraceFile::check_invariants`]).
    pub fn node(&self, id: u64) -> Option<&Node> {
        match self.nodes.get(id as usize) {
            Some(n) if n.id == id => Some(n),
            _ => {
                let at = self.nodes.binary_search_by_key(&id, |n| n.id).ok()?;
                Some(&self.nodes[at])
            }
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
    /// `CausalLog::check_invariants` on the serialized form): ids strictly
    /// increasing (dense in a full trace; a slice keeps the full trace's
    /// ids), every cause an earlier node of this file at an
    /// equal-or-earlier instant, every track a lane of
    /// [`TraceFile::tracks`], every mark anchored to a node of this file.
    /// The first violation is the error. Every reader of a file from
    /// outside the process runs this before believing it.
    pub fn check_invariants(&self) -> Result<(), String> {
        // Ids first: looking a cause up bisects them.
        if let Some(w) = self.nodes.windows(2).find(|w| w[1].id <= w[0].id) {
            return Err(format!(
                "node {} follows node {}: ids must increase",
                w[1].id, w[0].id
            ));
        }
        for n in &self.nodes {
            if n.track as usize >= self.tracks.len() {
                return Err(format!(
                    "node {} is on track {} of {}",
                    n.id,
                    n.track,
                    self.tracks.len()
                ));
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
        let mut doc = Vec::with_capacity(256 + self.nodes.len() * 96);
        self.write_json(&mut doc).expect("writing to memory");
        String::from_utf8(doc).expect("the writer emits UTF-8")
    }

    /// Writes what [`TraceFile::to_json`] returns.
    pub fn write_json(&self, w: &mut impl io::Write) -> io::Result<()> {
        self.write_json_with_nodes(w, self.nodes.iter())
    }

    /// [`TraceFile::write_json`] with `nodes` standing in for
    /// [`TraceFile::nodes`], so a trace too large to hold twice goes out
    /// node by node from wherever it is stored.
    pub fn write_json_with_nodes<N: Borrow<Node>>(
        &self,
        w: &mut impl io::Write,
        nodes: impl Iterator<Item = N>,
    ) -> io::Result<()> {
        writeln!(w, "{{")?;
        writeln!(w, "  \"schema_version\": {SCHEMA_VERSION},")?;
        writeln!(w, "  \"name\": {},", escape(&self.name))?;
        writeln!(w, "  \"seed\": {},", self.seed)?;
        writeln!(w, "  \"outcome\": {},", escape(&self.outcome))?;
        writeln!(w, "  \"end_micros\": {},", self.end_micros)?;
        let tracks: Vec<String> = self.tracks.iter().map(|t| escape(t)).collect();
        writeln!(w, "  \"tracks\": [{}],", tracks.join(", "))?;
        writeln!(w, "  \"nodes\": [")?;
        // Each element ends the line of the one before it, so the last one
        // is known without counting.
        let mut separator = "";
        for n in nodes {
            let n = n.borrow();
            write!(
                w,
                "{separator}    {{\"id\": {}, \"cause\": {}, \"t_us\": {}, \"seq\": {}, \
                 \"kind\": {}, \"label\": {}, \"track\": {}}}",
                n.id,
                opt_num(n.cause),
                n.t_us,
                n.seq,
                escape(&n.kind),
                escape(&n.label),
                n.track,
            )?;
            separator = ",\n";
        }
        let end_of_list = |separator: &str| if separator.is_empty() { "" } else { "\n" };
        write!(w, "{}  ],\n  \"marks\": [\n", end_of_list(separator))?;
        let mut separator = "";
        for m in &self.marks {
            write!(
                w,
                "{separator}    {{\"node\": {}, \"t_us\": {}, \"kind\": {}, \"label\": {}, \
                 \"rank\": {}, \"epoch\": {}, \"wave\": {}, \"during_recovery\": {}}}",
                opt_num(m.node),
                m.t_us,
                escape(&m.kind),
                escape(&m.label),
                opt_num(m.rank),
                opt_num(m.epoch),
                opt_num(m.wave),
                m.during_recovery,
            )?;
            separator = ",\n";
        }
        write!(w, "{}  ]\n}}\n", end_of_list(separator))
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
                track: n
                    .get("track")
                    .and_then(|x| x.as_u64())
                    .and_then(|t| u32::try_from(t).ok())
                    .ok_or("node track must be an integer below 2^32")?,
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

fn opt_num(v: Option<impl std::fmt::Display>) -> String {
    v.map_or_else(|| "null".to_string(), |n| n.to_string())
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

    /// Values a damaged or hostile file may hold where a number belongs.
    const WILD: [&str; 12] = [
        "18446744073709551615",
        "18446744073709551616",
        "123456789012345678901234567890",
        "4294967296",
        "1e999",
        "-1",
        "0.5",
        "\"7\"",
        "null",
        "true",
        "[]",
        "{\"a\": 1}",
    ];

    /// `doc` with its `nth` number (modulo how many it has) replaced by
    /// `with`.
    fn replace_number(doc: &str, nth: usize, with: &str) -> String {
        let mut runs = Vec::new();
        for (i, c) in doc.char_indices() {
            match runs.last_mut() {
                Some((_, end)) if *end == i && c.is_ascii_digit() => *end += 1,
                _ if c.is_ascii_digit() => runs.push((i, i + 1)),
                _ => {}
            }
        }
        let (start, end) = runs[nth % runs.len()];
        format!("{}{with}{}", &doc[..start], &doc[end..])
    }

    /// What every subcommand does with a file before believing it.
    fn load(text: &str) {
        if let Ok(tf) = TraceFile::from_json(text) {
            let _ = tf.check_invariants();
        }
    }

    proptest::proptest! {
        #[test]
        fn arbitrary_bytes_never_panic_the_reader(
            bytes in proptest::collection::vec(proptest::any::<u8>(), 0..600),
        ) {
            load(&String::from_utf8_lossy(&bytes));
        }

        #[test]
        fn one_wild_field_never_panics_the_reader(
            nth in proptest::any::<usize>(),
            wild in 0..WILD.len(),
            cut in proptest::any::<usize>(),
        ) {
            let doc = sample().to_json();
            load(&replace_number(&doc, nth, WILD[wild]));
            load(&doc[..cut % doc.len()]);
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
    fn invariants_name_the_first_violation() {
        type Breakage = fn(&mut TraceFile);
        let broken: [(Breakage, &str); 6] = [
            (|t| t.marks[0].node = Some(99), "mark 0 anchored to missing node 99"),
            (|t| t.nodes[1].cause = Some(5), "node 1 has forward/self cause 5"),
            (|t| t.nodes[1].id = 7, "mark 0 anchored to missing node 1"),
            (|t| t.nodes[1].id = 0, "node 0 follows node 0: ids must increase"),
            (|t| t.nodes[1].track = 9, "node 1 is on track 9 of 2"),
            (|t| t.nodes[0].t_us = 101, "edge 0 -> 1 goes backward in virtual time"),
        ];
        for (breakage, message) in broken {
            let mut tf = sample();
            breakage(&mut tf);
            assert_eq!(tf.check_invariants(), Err(message.to_string()));
        }
        // A cause that is earlier but absent: only a gapped file has one.
        let mut tf = sample();
        tf.nodes[0].id = 3;
        tf.nodes[1].id = 9;
        tf.nodes[1].cause = Some(2);
        assert_eq!(tf.check_invariants(), Err("node 9 has dangling cause 2".to_string()));
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
    fn a_seed_past_u64_is_refused_not_saturated() {
        let json = sample().to_json();
        let wide = json.replace("\"seed\": 7,", "\"seed\": 1e20,");
        assert_ne!(wide, json);
        assert_eq!(TraceFile::from_json(&wide), Err("missing seed".to_string()));
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
