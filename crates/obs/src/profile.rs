//! Schema-versioned deterministic run profiles.
//!
//! A [`RunProfile`] is the serializable output of the [`crate::prof`]
//! context: per-event-kind allocation attribution, the payload-copy
//! ledger, event-queue telemetry, and the hierarchical span tree in
//! collapsed-stack form. Everything in it is derived from the simulated
//! schedule plus (optionally) the counting allocator — **no wall-clock
//! fields**, same discipline as [`crate::MetricsSnapshot`] — so two
//! same-seed runs of the same binary produce byte-identical JSON.
//!
//! Profiles merge commutatively (sweep aggregation), serialize to
//! canonical JSON via `BTreeMap` ordering, and export the span tree as
//! collapsed-stack lines (`path;to;frame COUNT`) for standard flamegraph
//! tooling.

use std::collections::BTreeMap;

use serde::Serialize;

use crate::histogram::HistogramSnapshot;

/// Version stamp of the [`RunProfile`] JSON schema.
pub const PROFILE_SCHEMA_VERSION: u32 = 1;

/// Allocation attribution for one engine event kind.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize)]
pub struct AllocBin {
    /// Events of this kind dispatched.
    pub events: u64,
    /// Heap allocations performed while handling them (0 without the
    /// `alloc-profile` counting allocator).
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub bytes: u64,
}

/// Payload-copy ledger entry for one layer boundary ("hop").
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize)]
pub struct CopyBin {
    /// Payloads copied across this hop.
    pub count: u64,
    /// Payload bytes copied across this hop.
    pub bytes: u64,
}

/// One node of the span tree, keyed by its collapsed path
/// (`"net.delivered;dispatcher"`).
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize)]
pub struct SpanBin {
    /// Times this exact path was entered.
    pub count: u64,
    /// Exclusive allocations (children's charges subtracted).
    pub allocs: u64,
    /// Exclusive bytes requested.
    pub bytes: u64,
}

/// [`crate::prof`]'s view of the engine's event queue.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize)]
pub struct QueueTelemetry {
    /// Events pushed.
    pub pushes: u64,
    /// Events popped.
    pub pops: u64,
    /// Histogram of same-instant burst lengths (consecutive pops sharing
    /// one virtual timestamp) — the number that decides heap vs calendar
    /// queue.
    pub burst: HistogramSnapshot,
    /// Histogram of queue depth sampled after every push.
    pub depth: HistogramSnapshot,
    /// Depth-over-virtual-time series: `(log2 bucket of pop time in µs,
    /// max depth observed in that bucket)`, ascending.
    pub depth_series: Vec<(u32, u64)>,
}

impl QueueTelemetry {
    /// Folds another queue view in (histograms merge, series takes the
    /// per-bucket max).
    pub fn merge(&mut self, other: &QueueTelemetry) {
        self.pushes += other.pushes;
        self.pops += other.pops;
        self.burst.merge(&other.burst);
        self.depth.merge(&other.depth);
        for &(idx, d) in &other.depth_series {
            match self.depth_series.binary_search_by_key(&idx, |&(i, _)| i) {
                Ok(pos) => self.depth_series[pos].1 = self.depth_series[pos].1.max(d),
                Err(pos) => self.depth_series.insert(pos, (idx, d)),
            }
        }
    }
}

/// Deterministic profile of one run (or a merged sweep of runs).
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize)]
pub struct RunProfile {
    /// [`PROFILE_SCHEMA_VERSION`].
    pub schema_version: u32,
    /// Protocol backend the run(s) executed under; `"mixed"` after a
    /// cross-backend merge.
    pub backend: String,
    /// Runs merged into this profile.
    pub runs: u64,
    /// Engine events dispatched.
    pub events: u64,
    /// Per-event-kind allocation attribution.
    pub alloc: BTreeMap<String, AllocBin>,
    /// Payload-copy ledger per layer boundary.
    pub copies: BTreeMap<String, CopyBin>,
    /// Event-queue telemetry.
    pub queue: QueueTelemetry,
    /// Span tree keyed by collapsed path.
    pub spans: BTreeMap<String, SpanBin>,
}

impl RunProfile {
    /// An empty profile (schema stamped, everything else zero).
    pub fn new() -> RunProfile {
        RunProfile {
            schema_version: PROFILE_SCHEMA_VERSION,
            ..RunProfile::default()
        }
    }

    /// Total allocations across all event kinds (saturating, like every
    /// total over a file's numbers).
    pub fn total_allocs(&self) -> u64 {
        saturating_sum(self.alloc.values().map(|b| b.allocs))
    }

    /// Total allocated bytes across all event kinds.
    pub fn total_alloc_bytes(&self) -> u64 {
        saturating_sum(self.alloc.values().map(|b| b.bytes))
    }

    /// Total payload bytes copied across all hops.
    pub fn total_copied_bytes(&self) -> u64 {
        saturating_sum(self.copies.values().map(|b| b.bytes))
    }

    /// Folds another profile in. Commutative, so sweep aggregation does
    /// not depend on completion order. Backends must agree: merging two
    /// different non-empty backend tags yields `"mixed"`, which callers
    /// that forbid cross-backend aggregation can reject.
    pub fn merge(&mut self, other: &RunProfile) {
        if self.backend.is_empty() {
            self.backend = other.backend.clone();
        } else if !other.backend.is_empty() && other.backend != self.backend {
            self.backend = "mixed".to_string();
        }
        self.runs += other.runs;
        self.events += other.events;
        for (k, b) in &other.alloc {
            let e = self.alloc.entry(k.clone()).or_default();
            e.events += b.events;
            e.allocs += b.allocs;
            e.bytes += b.bytes;
        }
        for (k, b) in &other.copies {
            let e = self.copies.entry(k.clone()).or_default();
            e.count += b.count;
            e.bytes += b.bytes;
        }
        self.queue.merge(&other.queue);
        for (k, b) in &other.spans {
            let e = self.spans.entry(k.clone()).or_default();
            e.count += b.count;
            e.allocs += b.allocs;
            e.bytes += b.bytes;
        }
    }

    /// Canonical compact JSON (`BTreeMap` ordering, no wall-clock
    /// fields → byte-identical across same-seed runs of one binary).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("RunProfile is serializable")
    }

    /// Pretty-printed JSON with a trailing newline, for `--profile PATH`
    /// files.
    pub fn to_pretty_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).expect("RunProfile is serializable");
        s.push('\n');
        s
    }

    /// The span tree as collapsed-stack lines (`a;b;c COUNT`, one per
    /// path, sorted) — the input format of standard flamegraph tools.
    /// Weights are span entry counts, so the output is deterministic even
    /// without the counting allocator.
    pub fn to_collapsed(&self) -> String {
        let mut out = String::new();
        for (path, bin) in &self.spans {
            out.push_str(path);
            out.push(' ');
            out.push_str(&bin.count.to_string());
            out.push('\n');
        }
        out
    }

    /// Parses a profile back from its JSON form (compact or pretty).
    /// Unknown fields are ignored; missing required fields are errors.
    pub fn from_json(s: &str) -> Result<RunProfile, String> {
        let v = serde_json::from_str(s).map_err(|e| format!("invalid JSON: {e}"))?;
        let obj = v.as_object().ok_or("profile is not a JSON object")?;
        let get_u64 = |value: &serde_json::Value, name: &str| -> Result<u64, String> {
            value
                .get(name)
                .and_then(|x| x.as_u64())
                .ok_or_else(|| format!("missing or non-integer field `{name}`"))
        };
        let mut p = RunProfile::new();
        let schema = get_u64(&v, "schema_version")?;
        if schema != u64::from(PROFILE_SCHEMA_VERSION) {
            return Err(format!(
                "unsupported profile schema {schema} (expected {PROFILE_SCHEMA_VERSION})"
            ));
        }
        p.backend = obj
            .get("backend")
            .and_then(|x| x.as_str())
            .ok_or("missing field `backend`")?
            .to_string();
        p.runs = get_u64(&v, "runs")?;
        p.events = get_u64(&v, "events")?;
        let map_of = |name: &str| -> Result<BTreeMap<String, serde_json::Value>, String> {
            v.get(name)
                .and_then(|x| x.as_object().cloned())
                .ok_or_else(|| format!("missing object field `{name}`"))
        };
        for (k, b) in map_of("alloc")? {
            p.alloc.insert(
                k,
                AllocBin {
                    events: get_u64(&b, "events")?,
                    allocs: get_u64(&b, "allocs")?,
                    bytes: get_u64(&b, "bytes")?,
                },
            );
        }
        for (k, b) in map_of("copies")? {
            p.copies.insert(
                k,
                CopyBin {
                    count: get_u64(&b, "count")?,
                    bytes: get_u64(&b, "bytes")?,
                },
            );
        }
        let q = v.get("queue").ok_or("missing object field `queue`")?;
        p.queue.pushes = get_u64(q, "pushes")?;
        p.queue.pops = get_u64(q, "pops")?;
        p.queue.burst = parse_histogram(q.get("burst").ok_or("missing `queue.burst`")?)?;
        p.queue.depth = parse_histogram(q.get("depth").ok_or("missing `queue.depth`")?)?;
        p.queue.depth_series =
            parse_pairs(q.get("depth_series").ok_or("missing `queue.depth_series`")?)?;
        for (k, b) in map_of("spans")? {
            p.spans.insert(
                k,
                SpanBin {
                    count: get_u64(&b, "count")?,
                    allocs: get_u64(&b, "allocs")?,
                    bytes: get_u64(&b, "bytes")?,
                },
            );
        }
        Ok(p)
    }
}

/// Sum of `values`, saturating at `u64::MAX`.
fn saturating_sum(values: impl Iterator<Item = u64>) -> u64 {
    values.fold(0, u64::saturating_add)
}

fn parse_histogram(v: &serde_json::Value) -> Result<HistogramSnapshot, String> {
    let get = |name: &str| -> Result<u64, String> {
        v.get(name)
            .and_then(|x| x.as_u64())
            .ok_or_else(|| format!("missing histogram field `{name}`"))
    };
    let buckets = parse_pairs(v.get("buckets").ok_or("missing histogram field `buckets`")?)?;
    // Bucket 0 holds zeros, bucket `i` the samples with `i` significant
    // bits: a `u64` has no bucket above 64.
    if let Some(&(idx, _)) = buckets.iter().find(|&&(idx, _)| idx > 64) {
        return Err(format!("histogram bucket index {idx} is above 64"));
    }
    Ok(HistogramSnapshot {
        count: get("count")?,
        sum: get("sum")?,
        min: get("min")?,
        max: get("max")?,
        buckets,
    })
}

fn parse_pairs(v: &serde_json::Value) -> Result<Vec<(u32, u64)>, String> {
    let arr = v.as_array().ok_or("expected an array of pairs")?;
    let mut out = Vec::with_capacity(arr.len());
    for item in arr {
        let pair = item.as_array().filter(|a| a.len() == 2).ok_or("expected [index, value] pairs")?;
        let idx = pair[0].as_u64().ok_or("pair index must be an integer")?;
        let idx = u32::try_from(idx).map_err(|_| format!("pair index {idx} is out of range"))?;
        let val = pair[1].as_u64().ok_or("pair value must be an integer")?;
        out.push((idx, val));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::Histogram;

    fn sample() -> RunProfile {
        let mut p = RunProfile::new();
        p.backend = "vcl".to_string();
        p.runs = 1;
        p.events = 10;
        p.alloc.insert(
            "net.delivered".to_string(),
            AllocBin { events: 7, allocs: 3, bytes: 96 },
        );
        p.copies.insert("net.enqueue".to_string(), CopyBin { count: 5, bytes: 4000 });
        p.queue.pushes = 11;
        p.queue.pops = 10;
        let mut h = Histogram::new();
        h.record(1);
        h.record(3);
        p.queue.burst = h.snapshot();
        p.queue.depth = h.snapshot();
        p.queue.depth_series = vec![(4, 7), (9, 3)];
        p.spans.insert("net.delivered;dispatcher".to_string(), SpanBin {
            count: 4,
            allocs: 1,
            bytes: 32,
        });
        p
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        let p = sample();
        assert_eq!(RunProfile::from_json(&p.to_json()).unwrap(), p);
        assert_eq!(RunProfile::from_json(&p.to_pretty_json()).unwrap(), p);
    }

    #[test]
    fn from_json_rejects_wrong_schema() {
        let bad = sample().to_json().replace("\"schema_version\":1", "\"schema_version\":99");
        assert!(RunProfile::from_json(&bad).unwrap_err().contains("schema"));
        assert!(RunProfile::from_json("not json").is_err());
        assert!(RunProfile::from_json("{}").is_err());
    }

    #[test]
    fn a_count_past_u64_is_refused_not_saturated() {
        let json = sample().to_json();
        let wide = json.replace("\"runs\":1,", "\"runs\":1e20,");
        assert_ne!(wide, json);
        let err = RunProfile::from_json(&wide).unwrap_err();
        assert_eq!(err, "missing or non-integer field `runs`");
    }

    #[test]
    fn merge_is_commutative() {
        let a = sample();
        let mut b = sample();
        b.backend = "vcl".to_string();
        b.copies.insert("mpi.recv".to_string(), CopyBin { count: 1, bytes: 8 });
        b.queue.depth_series = vec![(4, 2), (12, 9)];
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.runs, 2);
        assert_eq!(ab.queue.depth_series, vec![(4, 7), (9, 3), (12, 9)]);
        assert_eq!(ab.backend, "vcl");
    }

    #[test]
    fn cross_backend_merge_is_tagged_mixed() {
        let mut a = sample();
        let mut b = sample();
        b.backend = "ulfm".to_string();
        a.merge(&b);
        assert_eq!(a.backend, "mixed");
        // Empty absorbs any tag without going mixed.
        let mut empty = RunProfile::new();
        empty.merge(&sample());
        assert_eq!(empty.backend, "vcl");
    }

    #[test]
    fn collapsed_output_lists_paths_with_counts() {
        let mut p = sample();
        p.spans.insert("net.delivered".to_string(), SpanBin { count: 9, allocs: 0, bytes: 0 });
        assert_eq!(
            p.to_collapsed(),
            "net.delivered 9\nnet.delivered;dispatcher 4\n"
        );
    }

    #[test]
    fn totals_sum_over_bins() {
        let p = sample();
        assert_eq!(p.total_allocs(), 3);
        assert_eq!(p.total_alloc_bytes(), 96);
        assert_eq!(p.total_copied_bytes(), 4000);
    }
}
