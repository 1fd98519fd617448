//! Chrome trace-event (Perfetto-loadable) export.
//!
//! Emits the standard `{"traceEvents": [...]}` JSON array: one `ph:"X"`
//! slice per engine event on its component's thread lane, `ph:"s"/"f"`
//! flow arrows for every *cross-lane* cause edge (the cross-node causality
//! the paper chased through the dispatcher), and `ph:"i"` instants for the
//! semantic MPICH-Vcl marks. Open the output at `ui.perfetto.dev` or
//! `chrome://tracing`.
//!
//! Output is hand-built with a fixed field order, so identical traces
//! export byte-identical files.

use crate::model::{escape, TraceFile};

/// Nominal slice duration in microseconds. Engine events are
/// instantaneous in virtual time; a 1 µs slice keeps them visible and
/// gives flow arrows something to bind to.
const SLICE_DUR_US: u64 = 1;

/// Renders `trace` as Chrome trace-event JSON.
pub fn export(trace: &TraceFile) -> String {
    let mut out = String::with_capacity(256 + trace.nodes.len() * 160);
    out.push_str("{\"traceEvents\": [\n");
    let mut first = true;
    let mut push = |out: &mut String, line: String| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str("  ");
        out.push_str(&line);
    };

    // Process + thread naming metadata: one process (the simulation), one
    // named thread lane per track.
    push(
        &mut out,
        format!(
            "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, \
             \"args\": {{\"name\": {}}}}}",
            escape(&format!("failmpi {} (seed {})", trace.name, trace.seed))
        ),
    );
    for (i, t) in trace.tracks.iter().enumerate() {
        push(
            &mut out,
            format!(
                "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": {i}, \
                 \"args\": {{\"name\": {}}}}}",
                escape(t)
            ),
        );
    }

    for n in &trace.nodes {
        push(
            &mut out,
            format!(
                "{{\"name\": {}, \"cat\": {}, \"ph\": \"X\", \"ts\": {}, \"dur\": {SLICE_DUR_US}, \
                 \"pid\": 1, \"tid\": {}, \"args\": {{\"id\": {}, \"cause\": {}}}}}",
                escape(&n.label),
                escape(&n.kind),
                n.t_us,
                n.track,
                n.id,
                match n.cause {
                    Some(c) => c.to_string(),
                    None => "null".to_string(),
                }
            ),
        );
        // Flow arrow for each cross-lane cause edge: start at the cause's
        // slice, finish at this one. The edge id is the child's node id
        // (unique — each node has at most one cause).
        if let Some(cause) = n.cause {
            if let Some(cn) = trace.node(cause) {
                if cn.track != n.track {
                    push(
                        &mut out,
                        format!(
                            "{{\"name\": \"cause\", \"cat\": \"flow\", \"ph\": \"s\", \
                             \"id\": {}, \"ts\": {}, \"pid\": 1, \"tid\": {}}}",
                            n.id, cn.t_us, cn.track
                        ),
                    );
                    push(
                        &mut out,
                        format!(
                            "{{\"name\": \"cause\", \"cat\": \"flow\", \"ph\": \"f\", \
                             \"bp\": \"e\", \"id\": {}, \"ts\": {}, \"pid\": 1, \"tid\": {}}}",
                            n.id, n.t_us, n.track
                        ),
                    );
                }
            }
        }
    }

    for m in &trace.marks {
        let tid = m
            .node
            .and_then(|id| trace.node(id))
            .map_or(0, |n| n.track);
        push(
            &mut out,
            format!(
                "{{\"name\": {}, \"cat\": {}, \"ph\": \"i\", \"s\": \"t\", \"ts\": {}, \
                 \"pid\": 1, \"tid\": {tid}}}",
                escape(&m.label),
                escape(&m.kind),
                m.t_us
            ),
        );
    }

    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Mark, Node};

    fn sample() -> TraceFile {
        TraceFile {
            name: "x".to_string(),
            seed: 1,
            outcome: "completed".to_string(),
            end_micros: 10,
            tracks: vec!["a".to_string(), "b".to_string()],
            nodes: vec![
                Node {
                    id: 0,
                    cause: None,
                    t_us: 0,
                    seq: 0,
                    digest: 0,
                    kind: "k".to_string(),
                    label: "l0".to_string(),
                    track: 0,
                },
                Node {
                    id: 1,
                    cause: Some(0),
                    t_us: 5,
                    seq: 1,
                    digest: 0,
                    kind: "k".to_string(),
                    label: "l1".to_string(),
                    track: 1,
                },
                Node {
                    id: 2,
                    cause: Some(1),
                    t_us: 6,
                    seq: 2,
                    digest: 0,
                    kind: "k".to_string(),
                    label: "l2".to_string(),
                    track: 1,
                },
            ],
            marks: vec![Mark {
                node: Some(1),
                t_us: 5,
                kind: "m".to_string(),
                label: "mark".to_string(),
                rank: None,
                epoch: None,
                wave: None,
                during_recovery: false,
            }],
        }
    }

    #[test]
    fn export_is_valid_json_with_flows_for_cross_lane_edges_only() {
        let json = export(&sample());
        let v = serde_json::from_str(&json).expect("valid JSON");
        let evs = v
            .get("traceEvents")
            .and_then(|x| x.as_array())
            .expect("array");
        // 1 process + 2 thread metadata, 3 slices, 1 flow pair (0->1 is
        // cross-lane; 1->2 is same-lane), 1 instant.
        assert_eq!(evs.len(), 1 + 2 + 3 + 2 + 1);
        let flows: Vec<_> = evs
            .iter()
            .filter(|e| e.get("cat").and_then(|c| c.as_str()) == Some("flow"))
            .collect();
        assert_eq!(flows.len(), 2);
        assert_eq!(flows[0].get("ph").and_then(|p| p.as_str()), Some("s"));
        assert_eq!(flows[1].get("ph").and_then(|p| p.as_str()), Some("f"));
    }

    #[test]
    fn export_is_deterministic() {
        assert_eq!(export(&sample()), export(&sample()));
    }
}
