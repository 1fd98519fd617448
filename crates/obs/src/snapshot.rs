//! The schema-versioned, deterministic metrics snapshot.

use std::collections::BTreeMap;

use serde::Serialize;

use crate::histogram::{Histogram, HistogramSnapshot};

/// Version of the snapshot JSON schema. Bump when renaming or removing
/// keys; adding keys is backwards-compatible and needs no bump.
///
/// v2: snapshots carry the active protocol `backend` tag, and merging
/// snapshots from two different backends is rejected.
///
/// v3: every backend reports its lifecycle under one `lifecycle.*` key
/// set (15 counters, 3 histograms) plus `net.traffic.*`. Vcl's
/// `mpichv.X` lifecycle keys became `lifecycle.X`, and `mpichv.max_epoch`
/// and `mpichv.faults_injected` are gone (duplicates of
/// `lifecycle.recoveries_started` and `harness.faults_injected`). ULFM's
/// and replication's `*.faults_detected`, `*.max_progress`,
/// `ulfm.recoveries` and `replica.promotions` became
/// `lifecycle.failures_detected`, `lifecycle.max_progress` and
/// `lifecycle.recoveries_started`; `*.epoch` is gone.
pub const SCHEMA_VERSION: u32 = 3;

/// One run's deterministic metrics: named counters and named virtual-time
/// histograms.
///
/// **Determinism contract:** everything in a snapshot must be a function
/// of the simulated schedule alone — event counts, virtual durations,
/// byte totals. Wall-clock rates, handler timings and RSS live in the
/// separate profiling path (see [`crate::WallProfile`]) precisely so that
/// two same-seed runs serialize to byte-identical JSON. `BTreeMap` keys
/// give a canonical ordering regardless of insertion order.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct MetricsSnapshot {
    /// The snapshot schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Protocol backend the run executed under (`""` when untagged).
    /// Guards sweep aggregation: snapshots from different backends
    /// measure different protocols and must not be silently merged.
    pub backend: String,
    /// Monotonic counters by dotted name (`layer.metric`).
    pub counters: BTreeMap<String, u64>,
    /// Histograms by dotted name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Default for MetricsSnapshot {
    fn default() -> MetricsSnapshot {
        MetricsSnapshot::new()
    }
}

impl MetricsSnapshot {
    /// An empty snapshot at the current schema version.
    pub fn new() -> MetricsSnapshot {
        MetricsSnapshot {
            schema_version: SCHEMA_VERSION,
            backend: String::new(),
            counters: BTreeMap::new(),
            histograms: BTreeMap::new(),
        }
    }

    /// Tags the snapshot with the protocol backend it measures.
    pub fn set_backend(&mut self, backend: &str) {
        self.backend = backend.to_string();
    }

    /// Sets counter `name` to `value` (zeros are kept: a schema's key set
    /// should not depend on what happened in the run).
    pub fn set_counter(&mut self, name: &str, value: u64) {
        self.counters.insert(name.to_string(), value);
    }

    /// The value of counter `name`, `0` when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Stores the snapshot of histogram `name`.
    pub fn set_histogram(&mut self, name: &str, h: &Histogram) {
        self.histograms.insert(name.to_string(), h.snapshot());
    }

    /// The stored snapshot of histogram `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Folds another snapshot in: counters add, histograms merge. The
    /// operation is commutative and associative, so a sweep aggregate is
    /// independent of worker-thread completion order.
    ///
    /// # Panics
    ///
    /// Panics when the two snapshots carry different non-empty backend
    /// tags — aggregating across protocols is a measurement bug, never a
    /// thing to paper over. Use [`MetricsSnapshot::try_merge`] to handle
    /// the mismatch instead.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        self.try_merge(other).expect("mixed-backend metrics merge");
    }

    /// [`MetricsSnapshot::merge`] that reports a mixed-backend pair as
    /// `Err` instead of panicking; `self` is unchanged on error. An empty
    /// tag (untagged snapshot) merges with anything and adopts the other
    /// side's tag.
    pub fn try_merge(&mut self, other: &MetricsSnapshot) -> Result<(), String> {
        if !self.backend.is_empty()
            && !other.backend.is_empty()
            && self.backend != other.backend
        {
            return Err(format!(
                "refusing to merge metrics from backend `{}` into aggregate for `{}`",
                other.backend, self.backend
            ));
        }
        if self.backend.is_empty() {
            self.backend = other.backend.clone();
        }
        for (name, value) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += value;
        }
        for (name, h) in &other.histograms {
            self.histograms
                .entry(name.clone())
                .or_default()
                .merge(h);
        }
        Ok(())
    }

    /// Compact JSON encoding (canonical: `BTreeMap` ordering, no
    /// whitespace) — the byte string determinism tests compare.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("snapshot serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insertion_order_does_not_change_json() {
        let mut a = MetricsSnapshot::new();
        a.set_counter("b.x", 1);
        a.set_counter("a.y", 2);
        let mut b = MetricsSnapshot::new();
        b.set_counter("a.y", 2);
        b.set_counter("b.x", 1);
        assert_eq!(a.to_json(), b.to_json());
        assert!(a.to_json().contains("\"schema_version\":3"));
        assert!(a.to_json().contains("\"backend\":\"\""));
    }

    #[test]
    fn backend_tags_gate_merging() {
        let mut vcl = MetricsSnapshot::new();
        vcl.set_backend("vcl");
        vcl.set_counter("n", 1);
        let mut ulfm = MetricsSnapshot::new();
        ulfm.set_backend("ulfm");
        ulfm.set_counter("n", 10);

        // Untagged absorbs a tag; same tag merges.
        let mut agg = MetricsSnapshot::new();
        agg.try_merge(&vcl).unwrap();
        assert_eq!(agg.backend, "vcl");
        agg.try_merge(&vcl).unwrap();
        assert_eq!(agg.counter("n"), 2);

        // Cross-backend is rejected and leaves the aggregate unchanged.
        let err = agg.try_merge(&ulfm).unwrap_err();
        assert!(err.contains("ulfm"), "{err}");
        assert_eq!(agg.counter("n"), 2);
    }

    #[test]
    fn merge_is_commutative() {
        let mut h1 = Histogram::new();
        h1.record(7);
        let mut h2 = Histogram::new();
        h2.record(900);
        let mut a = MetricsSnapshot::new();
        a.set_counter("n", 2);
        a.set_histogram("d", &h1);
        let mut b = MetricsSnapshot::new();
        b.set_counter("n", 3);
        b.set_counter("m", 1);
        b.set_histogram("d", &h2);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.counter("n"), 5);
        assert_eq!(ab.counter("m"), 1);
        assert_eq!(ab.histogram("d").unwrap().count, 2);
    }

    #[test]
    fn counter_accessors() {
        let mut s = MetricsSnapshot::new();
        assert_eq!(s.counter("missing"), 0);
        s.set_counter("x", 0);
        assert_eq!(s.counter("x"), 0);
        s.set_counter("x", 4);
        assert_eq!(s.counter("x"), 4);
        assert!(s.to_json().contains("\"x\":4"));
    }
}
