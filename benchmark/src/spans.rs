//! The benchmark's own span recorder.
//!
//! Spans are opened by the benchmark around its calls into each layer's
//! public functions; nothing inside the program is instrumented. They are
//! kept in memory and written out once, when the traced pass ends. The
//! end-to-end pass runs the same code with recording off, so the only
//! difference between the passes is the push onto the span vector.

use std::time::{Duration, Instant};

use serde::Serialize;

/// One timed call.
#[derive(Clone, Debug, Serialize)]
pub struct Span {
    /// `<layer>.<function>`, the layer being the crate name.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Sample (pass over the work list) the span belongs to.
    pub sample: u32,
    /// Operation within the sample.
    pub op: u32,
}

/// In-memory span log.
pub struct Spans {
    origin: Instant,
    recording: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    sample: u32,
    op: u32,
}

impl Spans {
    /// A recorder; with `recording` off, [`Spans::time`] only measures.
    pub fn new(recording: bool) -> Spans {
        Spans {
            // srclint: allow(SD002): the benchmark measures host time by design
            origin: Instant::now(),
            recording,
            spans: Vec::new(),
            open: Vec::new(),
            sample: 0,
            op: 0,
        }
    }

    /// Turns recording on or off (between samples, never inside a span).
    pub fn set_recording(&mut self, recording: bool) {
        debug_assert!(self.open.is_empty());
        self.recording = recording;
    }

    /// Stamps the sample and operation ids onto spans opened from now on.
    pub fn set_ids(&mut self, sample: u32, op: u32) {
        self.sample = sample;
        self.op = op;
    }

    /// Runs `f` as a span named `name`, returning its result and duration.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Spans) -> R,
    ) -> (R, Duration) {
        let slot = self.recording.then(|| {
            self.spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent: self.open.last().copied(),
                sample: self.sample,
                op: self.op,
            });
            let idx = self.spans.len() - 1;
            self.open.push(idx);
            idx
        });
        // srclint: allow(SD002): the benchmark measures host time by design
        let start = Instant::now();
        let result = f(self);
        let elapsed = start.elapsed();
        if let Some(idx) = slot {
            self.open.pop();
            let start_ns = nanos(start.duration_since(self.origin));
            self.spans[idx].start_ns = start_ns;
            self.spans[idx].end_ns = start_ns + nanos(elapsed);
        }
        (result, elapsed)
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The span log as one JSON document.
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = String::from("{\"workload\":");
        serde::write_json_str(&mut out, workload);
        out.push_str(",\"spans\":");
        self.spans.serialize_json(&mut out);
        out.push('}');
        out
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_sets_parents_and_children_lie_inside_them() {
        let mut sp = Spans::new(true);
        sp.set_ids(2, 5);
        sp.time("a.outer", |sp| {
            sp.time("b.inner", |_| std::thread::sleep(Duration::from_millis(2)));
        });
        let spans = sp.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].parent, spans[1].parent), (None, Some(0)));
        assert_eq!((spans[1].sample, spans[1].op), (2, 5));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(spans[1].end_ns - spans[1].start_ns >= 2_000_000);
        assert!(sp.to_json("w").contains("\"b.inner\""));
    }

    #[test]
    fn a_recorder_that_is_off_measures_but_keeps_nothing() {
        let mut sp = Spans::new(false);
        let (v, d) = sp.time("a.x", |_| 7);
        assert_eq!(v, 7);
        assert!(d.as_nanos() > 0);
        assert!(sp.spans().is_empty());
    }
}
