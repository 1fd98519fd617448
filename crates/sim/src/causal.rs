//! Happens-before (causal) event tracing.
//!
//! While an engine runs with causal tracing enabled, every handled event
//! becomes one node of a happens-before DAG that remembers *which event
//! scheduled it* ([`CausalNode::cause`]): acyclic by construction, because
//! an event's cause has always been popped (handled) before the event
//! itself was even pushed, so cause ids are strictly smaller than the ids
//! of the events they schedule and never point forward in virtual time.
//!
//! The log is strictly opt-in. When disabled (the default), the engine
//! still threads cause ids through the queue — a single `u64` copied per
//! push — but records nothing. When enabled it stores one packed, `Copy`
//! record per event: a [`Label`] (format code plus three integers) in
//! place of the label's text, an index in place of the kind string. Text
//! exists only in what a reader asks for: [`CausalLog::nodes`],
//! [`CausalLog::node`] and [`CausalLog::chain_to_root`] materialise
//! [`CausalNode`]s through the renderer the model handed the log.

use crate::time::SimTime;

/// Identity of one handled event: its position in handling order (0-based).
///
/// Dense and strictly increasing over a run, which makes it both a stable
/// cross-run coordinate for same-seed comparisons and a direct index into
/// the [`CausalLog`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(pub u64);

impl std::fmt::Display for EventId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// An event's one-line description before it is text: which of its
/// vocabulary's formats applies, and the numbers to put in it. The
/// default, code 0 with zero arguments, is what a model that does not
/// describe its events gives (see [`crate::Model::describe`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Label {
    /// Format code, private to the vocabulary that packed it. Nested
    /// vocabularies (a network event inside a cluster event inside a
    /// harness event) share the code space by convention: each wrapper's
    /// renderer forwards the codes it does not own.
    pub code: u16,
    /// The format's arguments, unused ones zero.
    pub args: [u32; 3],
}

impl Label {
    /// A label of format `code`.
    pub fn new(code: u16, args: [u32; 3]) -> Label {
        Label { code, args }
    }
}

/// Everything the engine's instruments ask of one handled event, answered
/// once per event by [`crate::Model::describe`]: the journal renders its
/// `label`, the wall and deep profiles bin it under its `kind`, and the
/// causal log stores all three.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EventDesc {
    /// Short stable kind (profiling bucket, causal-node kind).
    pub kind: &'static str,
    /// The one-line description, packed.
    pub label: Label,
    /// Display track (vnode / service lane) of the causal node.
    pub track: u32,
}

impl Default for EventDesc {
    /// What a model that describes nothing gives: kind `"event"`, the
    /// empty label, track 0.
    fn default() -> Self {
        EventDesc {
            kind: "event",
            label: Label::default(),
            track: 0,
        }
    }
}

/// An event vocabulary whose one-line descriptions pack into [`Label`]s.
/// The text of every description is spelled once, in [`PackLabel::render`].
pub trait PackLabel {
    /// This event's description, packed.
    fn pack(&self) -> Label;

    /// The text of a label [`PackLabel::pack`] produced.
    fn render(label: Label) -> String;
}

/// One node of the happens-before DAG: a handled event plus the edge back
/// to the event that scheduled it. A view materialised on read; the log
/// itself stores packed records.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CausalNode {
    /// This event's identity (handling order).
    pub id: EventId,
    /// The event that scheduled this one, or `None` for external stimulus
    /// (initial events injected before the run, e.g. boot or fault timers).
    pub cause: Option<EventId>,
    /// Virtual instant the event ran at.
    pub at: SimTime,
    /// Queue sequence number (push order; tie-break input).
    pub seq: u64,
    /// Static event-kind label ([`EventDesc::kind`]).
    pub kind: &'static str,
    /// Human-readable description: [`EventDesc::label`], rendered by
    /// [`crate::Model::render_label`].
    pub label: String,
    /// Display track (vnode / service lane) the event belongs to
    /// ([`EventDesc::track`]).
    pub track: u32,
}

/// `Record::cause` of an externally scheduled event.
const NO_CAUSE: u32 = u32::MAX;

/// What the log stores per event. The event's id is the log's first id
/// plus the record's position.
#[derive(Clone, Copy, Debug)]
struct Record {
    at: SimTime,
    seq: u64,
    cause: u32,
    args: [u32; 3],
    track: u16,
    kind: u16,
    code: u16,
}

/// Records per chunk of a [`Records`] store (640 KB of them).
const CHUNK: usize = 1 << 14;

/// The log's append-only record store: fixed-size chunks, so that growing
/// never moves what is already stored. A million-record `Vec` doubles its
/// way through twice its final size in copies — measured at 22 of the 28
/// ns a push cost.
#[derive(Clone, Debug, Default)]
struct Records {
    /// Every chunk but the last is full.
    chunks: Vec<Vec<Record>>,
}

impl Records {
    fn push(&mut self, record: Record) {
        match self.chunks.last_mut() {
            Some(last) if last.len() < CHUNK => last.push(record),
            _ => {
                let mut chunk = Vec::with_capacity(CHUNK);
                chunk.push(record);
                self.chunks.push(chunk);
            }
        }
    }

    fn len(&self) -> usize {
        match self.chunks.split_last() {
            Some((last, full)) => full.len() * CHUNK + last.len(),
            None => 0,
        }
    }

    fn get(&self, index: usize) -> Option<&Record> {
        self.chunks.get(index / CHUNK)?.get(index % CHUNK)
    }

    fn iter(&self) -> impl Iterator<Item = &Record> + '_ {
        self.chunks.iter().flatten()
    }
}

/// The engine-side happens-before log. Off by default; see
/// [`crate::Engine::enable_causal_trace`].
#[derive(Clone, Debug)]
pub struct CausalLog {
    records: Records,
    /// Id of `records[0]`: the events the engine had handled when this log
    /// began (0 unless tracing was enabled, or the log taken, mid-run).
    first: u64,
    /// The distinct kind strings seen, indexed by `Record::kind`.
    kinds: Vec<&'static str>,
    render: fn(Label) -> String,
    enabled: bool,
}

impl Default for CausalLog {
    fn default() -> Self {
        CausalLog::disabled()
    }
}

/// Narrows an event id for storage. Checked: a log never holds 2^32 − 1
/// records (they would take 170 GB), so an id that does not fit is a
/// corrupted one.
fn narrow_id(id: EventId) -> u32 {
    match u32::try_from(id.0) {
        Ok(narrow) if narrow != NO_CAUSE => narrow,
        _ => panic!("event id {id} does not fit the causal log's 32-bit ids"),
    }
}

impl CausalLog {
    /// Creates a disabled (no-op) log.
    pub fn disabled() -> Self {
        CausalLog {
            enabled: false,
            ..CausalLog::enabled(|_| String::new())
        }
    }

    /// Creates an enabled, empty log whose packed labels `render` turns
    /// back into text.
    pub fn enabled(render: fn(Label) -> String) -> Self {
        CausalLog {
            records: Records::default(),
            first: 0,
            kinds: Vec::new(),
            render,
            enabled: true,
        }
    }

    /// This log, beginning at event `first` of its run.
    pub(crate) fn starting_at(mut self, first: EventId) -> Self {
        self.first = first.0;
        self
    }

    /// Whether nodes are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn id_at(&self, index: usize) -> EventId {
        EventId(self.first + index as u64)
    }

    /// Appends the next handled event, which gets the next id, as its
    /// model described it.
    pub(crate) fn push(&mut self, cause: Option<EventId>, at: SimTime, seq: u64, desc: EventDesc) {
        // The id this record gets must itself be storable as a cause.
        narrow_id(self.id_at(self.records.len()));
        let kind = self.kind_index(desc.kind);
        self.records.push(Record {
            at,
            seq,
            cause: cause.map_or(NO_CAUSE, narrow_id),
            args: desc.label.args,
            track: u16::try_from(desc.track).expect("more than 65 535 display tracks"),
            kind,
            code: desc.label.code,
        });
    }

    /// Interns `kind` (see [`failmpi_obs::literal`]: models pass the same
    /// few literals every time).
    fn kind_index(&mut self, kind: &'static str) -> u16 {
        let known = failmpi_obs::literal::position(self.kinds.iter().copied(), kind);
        let index = known.unwrap_or_else(|| {
            self.kinds.push(kind);
            self.kinds.len() - 1
        });
        u16::try_from(index).expect("more than 65 535 event kinds")
    }

    fn view(&self, index: usize, r: &Record) -> CausalNode {
        CausalNode {
            id: self.id_at(index),
            cause: (r.cause != NO_CAUSE).then_some(EventId(u64::from(r.cause))),
            at: r.at,
            seq: r.seq,
            kind: self.kinds[usize::from(r.kind)],
            label: (self.render)(Label::new(r.code, r.args)),
            track: u32::from(r.track),
        }
    }

    /// All recorded nodes, in handling order (= id order), each rendered
    /// as it is yielded.
    pub fn nodes(&self) -> impl Iterator<Item = CausalNode> + '_ {
        self.records
            .iter()
            .enumerate()
            .map(|(i, r)| self.view(i, r))
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when no nodes were recorded.
    pub fn is_empty(&self) -> bool {
        self.records.len() == 0
    }

    /// Looks a node up by id (ids are dense, so this is an index).
    pub fn node(&self, id: EventId) -> Option<CausalNode> {
        let index = usize::try_from(id.0.checked_sub(self.first)?).ok()?;
        Some(self.view(index, self.records.get(index)?))
    }

    /// Walks the causal chain backward from `id` (inclusive) to a root
    /// (an externally scheduled event with no cause), returning nodes in
    /// cause-first order.
    pub fn chain_to_root(&self, id: EventId) -> Vec<CausalNode> {
        let mut chain = Vec::new();
        let mut cursor = self.node(id);
        while let Some(n) = cursor {
            cursor = n.cause.and_then(|c| self.node(c));
            chain.push(n);
        }
        chain.reverse();
        chain
    }

    /// Structural invariants of a well-formed happens-before log: every
    /// cause edge pointing to a strictly earlier-handled, recorded event at
    /// an equal-or-earlier virtual instant (ids are dense by construction).
    /// Returns the first violation as a human-readable message.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (i, r) in self.records.iter().enumerate() {
            if r.cause == NO_CAUSE {
                continue;
            }
            let (id, c) = (self.id_at(i), EventId(u64::from(r.cause)));
            if c >= id {
                return Err(format!("node {id} has forward/self cause {c}"));
            }
            let Some(cause_index) = c.0.checked_sub(self.first) else {
                return Err(format!("node {id} has dangling cause {c}"));
            };
            let cause_at = self
                .records
                .get(cause_index as usize)
                .expect("an earlier id of this log")
                .at;
            if cause_at > r.at {
                return Err(format!(
                    "edge {c} -> {id} goes backward in virtual time ({} > {})",
                    cause_at.as_micros(),
                    r.at.as_micros()
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy vocabulary: code 1 is `n<arg0>`, code 2 `odd <arg0>`, and
    /// the default label is empty.
    fn render(l: Label) -> String {
        match l.code {
            0 => String::new(),
            1 => format!("n{}", l.args[0]),
            2 => format!("odd {}", l.args[0]),
            code => panic!("no format {code}"),
        }
    }

    fn desc(kind: &'static str, label: Label, track: u32) -> EventDesc {
        EventDesc { kind, label, track }
    }

    fn push(log: &mut CausalLog, cause: Option<u64>, at_s: u64) {
        let id = log.len() as u32;
        log.push(
            cause.map(EventId),
            SimTime::from_secs(at_s),
            u64::from(id),
            desc("k", Label::new(1, [id, 0, 0]), 0),
        );
    }

    #[test]
    fn disabled_by_default() {
        let log = CausalLog::default();
        assert!(!log.is_enabled());
        assert!(log.is_empty());
    }

    #[test]
    fn a_record_stays_within_48_bytes() {
        assert!(std::mem::size_of::<Record>() <= 48);
    }

    #[test]
    fn chain_walks_to_root() {
        let mut log = CausalLog::enabled(render);
        push(&mut log, None, 1);
        push(&mut log, Some(0), 2);
        push(&mut log, Some(1), 2);
        push(&mut log, None, 5);
        let chain = log.chain_to_root(EventId(2));
        let ids: Vec<u64> = chain.iter().map(|n| n.id.0).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        assert!(log.check_invariants().is_ok());
        assert!(log.node(EventId(4)).is_none());
    }

    #[test]
    fn nodes_render_on_read() {
        let mut log = CausalLog::enabled(render);
        push(&mut log, None, 1);
        push(&mut log, Some(0), 3);
        let labels: Vec<String> = log.nodes().map(|n| n.label).collect();
        assert_eq!(labels, ["n0", "n1"]);
        let n = log.node(EventId(1)).expect("recorded");
        assert_eq!(
            (n.id, n.cause, n.at, n.seq, n.kind, n.track),
            (
                EventId(1),
                Some(EventId(0)),
                SimTime::from_secs(3),
                1,
                "k",
                0
            )
        );
    }

    #[test]
    fn records_keep_their_order_across_chunks() {
        let mut log = CausalLog::enabled(render);
        let n = 2 * CHUNK + 3;
        for _ in 0..n {
            push(&mut log, None, 1);
        }
        assert_eq!(log.len(), n);
        assert_eq!(log.nodes().count(), n);
        assert!(log.nodes().enumerate().all(|(i, n)| n.id.0 == i as u64 && n.seq == i as u64));
        for at in [0, CHUNK - 1, CHUNK, 2 * CHUNK, n - 1] {
            let node = log.node(EventId(at as u64)).expect("recorded");
            assert_eq!(node.label, format!("n{at}"));
        }
        assert!(log.node(EventId(n as u64)).is_none());
    }

    #[test]
    fn every_format_renders_through_the_one_renderer() {
        let mut log = CausalLog::enabled(render);
        let at = SimTime::ZERO;
        log.push(None, at, 0, desc("a", Label::new(2, [3, 0, 0]), 7));
        log.push(None, at, 1, desc("b", Label::new(1, [9, 0, 0]), 7));
        log.push(None, at, 2, desc("a", Label::default(), 7));
        let seen: Vec<(&str, String)> = log.nodes().map(|n| (n.kind, n.label)).collect();
        let expected = [("a", "odd 3"), ("b", "n9"), ("a", "")].map(|(k, l)| (k, l.to_string()));
        assert_eq!(seen, expected);
    }

    #[test]
    fn equal_kinds_at_different_addresses_share_an_index() {
        let mut log = CausalLog::enabled(render);
        let elsewhere: &'static str = String::from("k").leak();
        push(&mut log, None, 1);
        log.push(None, SimTime::from_secs(1), 1, desc(elsewhere, Label::default(), 0));
        assert_eq!(log.kinds, ["k"]);
        assert!(log.nodes().all(|n| n.kind == "k"));
    }

    #[test]
    fn ids_narrow_checked() {
        assert_eq!(narrow_id(EventId(0)), 0);
        assert_eq!(narrow_id(EventId(u64::from(u32::MAX) - 1)), u32::MAX - 1);
        for too_wide in [u64::from(u32::MAX), 1 << 32, u64::MAX] {
            let caught = std::panic::catch_unwind(|| narrow_id(EventId(too_wide)));
            assert!(caught.is_err(), "{too_wide} narrowed");
        }
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn a_cause_that_does_not_fit_is_refused() {
        let mut log = CausalLog::enabled(render);
        push(&mut log, Some(1 << 40), 1);
    }

    #[test]
    fn a_log_begun_mid_run_keeps_the_engine_ids() {
        let mut log = CausalLog::enabled(render).starting_at(EventId(10));
        push(&mut log, None, 1);
        push(&mut log, Some(10), 2);
        assert_eq!(
            log.node(EventId(11)).and_then(|n| n.cause),
            Some(EventId(10))
        );
        assert!(log.node(EventId(1)).is_none());
        assert!(log.check_invariants().is_ok());
        push(&mut log, Some(3), 2);
        let err = log.check_invariants().unwrap_err();
        assert!(err.contains("dangling cause #3"), "{err}");
    }

    #[test]
    fn invariants_catch_forward_edges() {
        let mut log = CausalLog::enabled(render);
        push(&mut log, None, 1);
        push(&mut log, Some(1), 2);
        assert!(log.check_invariants().is_err());
    }

    #[test]
    fn invariants_catch_time_travel() {
        let mut log = CausalLog::enabled(render);
        push(&mut log, None, 9);
        push(&mut log, Some(0), 3);
        let err = log.check_invariants().unwrap_err();
        assert!(err.contains("backward in virtual time"), "{err}");
    }
}
