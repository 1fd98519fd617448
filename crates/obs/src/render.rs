//! Human-readable renderings of a [`RunProfile`].
//!
//! * [`report`] — top-N attribution tables (allocations per event kind,
//!   payload copies per hop, queue telemetry, span tree) with per-layer
//!   rollups. Every event kind maps to a named layer
//!   ([`layer_of_kind`]), so attribution coverage is explicit.
//! * [`top`] — per-backend comparison of normalized rates
//!   (allocs/event, bytes-copied/event, burst percentiles) across
//!   vcl/ulfm/replica profiles.
//! * [`RunProfile::to_collapsed`] — collapsed-stack lines for standard
//!   flamegraph tooling.
//!
//! `failmpi-trace profile report|top|flame` prints these.

use std::fmt::Write as _;

use crate::RunProfile;

/// The named layer an engine event kind belongs to. Dotted kinds take
/// their prefix (`net.delivered` → `net`), FAIL-side injection events go
/// to `fail`, and everything else is a protocol-backend lifecycle event
/// (`cluster`). Total by construction: every kind lands in a named
/// layer, which is what makes the report's attribution percentage
/// meaningful rather than vacuous.
pub fn layer_of_kind(kind: &str) -> &str {
    if let Some((prefix, _)) = kind.split_once('.') {
        return prefix;
    }
    if kind.starts_with("fail") {
        return "fail";
    }
    "cluster"
}

/// Sort key for attribution tables.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SortBy {
    /// Allocation count (needs an `alloc-profile` build to be non-zero).
    Allocs,
    /// Allocated bytes.
    Bytes,
    /// Event count — the deterministic stand-in for time (wall-clock
    /// timings deliberately live in the benchmark, not in profiles).
    Events,
}

impl SortBy {
    /// Parses `allocs|bytes|events` (plus `time` as an alias for
    /// `events`, since virtual-time cost per kind is proportional to its
    /// event count in the profile's model).
    pub fn parse(s: &str) -> Option<SortBy> {
        match s {
            "allocs" => Some(SortBy::Allocs),
            "bytes" => Some(SortBy::Bytes),
            "events" | "time" => Some(SortBy::Events),
            _ => None,
        }
    }
}

fn per_event(total: u64, events: u64) -> String {
    if events == 0 {
        "-".to_string()
    } else {
        format!("{:.1}", total as f64 / events as f64)
    }
}

/// Renders the human-readable attribution report: totals, the top-`top_n`
/// event kinds by `by`, per-layer rollups for allocations and copies,
/// queue telemetry, and the heaviest span paths.
pub fn report(p: &RunProfile, top_n: usize, by: SortBy) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "profile: backend={} runs={} events={}",
        p.backend, p.runs, p.events
    );
    let _ = writeln!(
        out,
        "totals:  allocs={} alloc_bytes={} copied_bytes={}",
        p.total_allocs(),
        p.total_alloc_bytes(),
        p.total_copied_bytes()
    );
    if p.total_allocs() == 0 {
        let _ = writeln!(
            out,
            "note: allocation counters are zero — rebuild the profiled binary \
             with --features alloc-profile for allocation attribution"
        );
    }

    // Per-kind allocation attribution.
    let mut kinds: Vec<_> = p.alloc.iter().collect();
    kinds.sort_by_key(|(name, b)| {
        let key = match by {
            SortBy::Allocs => b.allocs,
            SortBy::Bytes => b.bytes,
            SortBy::Events => b.events,
        };
        (std::cmp::Reverse(key), (*name).clone())
    });
    let _ = writeln!(out, "\nevent kinds (top {top_n}):");
    let _ = writeln!(
        out,
        "  {:<24} {:>8} {:>10} {:>12} {:>12} {:<8}",
        "kind", "events", "allocs", "bytes", "allocs/ev", "layer"
    );
    for (name, b) in kinds.iter().take(top_n) {
        let _ = writeln!(
            out,
            "  {:<24} {:>8} {:>10} {:>12} {:>12} {:<8}",
            name,
            b.events,
            b.allocs,
            b.bytes,
            per_event(b.allocs, b.events),
            layer_of_kind(name)
        );
    }

    // Layer rollup over allocations; attribution is total by
    // construction, but compute it honestly from the bins. Sums saturate,
    // like the profile's own totals: a file may hold any `u64`.
    let mut layers: std::collections::BTreeMap<&str, (u64, u64, u64)> = Default::default();
    for (name, b) in &p.alloc {
        let e = layers.entry(layer_of_kind(name)).or_default();
        e.0 = e.0.saturating_add(b.events);
        e.1 = e.1.saturating_add(b.allocs);
        e.2 = e.2.saturating_add(b.bytes);
    }
    let attributed_allocs = layers.values().fold(0u64, |t, v| t.saturating_add(v.1));
    let attributed_bytes = layers.values().fold(0u64, |t, v| t.saturating_add(v.2));
    let pct = |part: u64, whole: u64| {
        if whole == 0 {
            100.0
        } else {
            100.0 * part as f64 / whole as f64
        }
    };
    let _ = writeln!(out, "\nallocation by layer:");
    for (layer, (events, allocs, bytes)) in &layers {
        let _ = writeln!(
            out,
            "  {:<10} events={:<9} allocs={:<11} bytes={}",
            layer, events, allocs, bytes
        );
    }
    let _ = writeln!(
        out,
        "  attributed: {:.1}% of allocs, {:.1}% of alloc bytes",
        pct(attributed_allocs, p.total_allocs()),
        pct(attributed_bytes, p.total_alloc_bytes())
    );

    // Copy ledger with per-layer rollup.
    let _ = writeln!(out, "\npayload copies by hop:");
    let mut copy_layers: std::collections::BTreeMap<&str, u64> = Default::default();
    for (hop, b) in &p.copies {
        let _ = writeln!(out, "  {:<18} count={:<9} bytes={}", hop, b.count, b.bytes);
        let e = copy_layers.entry(layer_of_kind(hop)).or_default();
        *e = e.saturating_add(b.bytes);
    }
    let attributed_copy = copy_layers.values().fold(0u64, |t, &v| t.saturating_add(v));
    let _ = writeln!(out, "copied bytes by layer:");
    for (layer, bytes) in &copy_layers {
        let _ = writeln!(out, "  {:<10} bytes={}", layer, bytes);
    }
    let _ = writeln!(
        out,
        "  attributed: {:.1}% of copied bytes",
        pct(attributed_copy, p.total_copied_bytes())
    );

    // Queue telemetry.
    let q = &p.queue;
    let _ = writeln!(out, "\nqueue: pushes={} pops={}", q.pushes, q.pops);
    let _ = writeln!(
        out,
        "  same-instant bursts: count={} p50<={} p99<={} max={}",
        q.burst.count,
        q.burst.quantile_upper_bound(0.5),
        q.burst.quantile_upper_bound(0.99),
        q.burst.max
    );
    let _ = writeln!(
        out,
        "  depth after push:    p50<={} p99<={} max={}",
        q.depth.quantile_upper_bound(0.5),
        q.depth.quantile_upper_bound(0.99),
        q.depth.max
    );
    if !q.depth_series.is_empty() {
        let _ = writeln!(out, "  max depth by virtual-time bucket (log2 µs):");
        for (bucket, depth) in &q.depth_series {
            let _ = writeln!(out, "    t<2^{:<2} depth={}", bucket, depth);
        }
    }

    // Heaviest span paths.
    let mut spans: Vec<_> = p.spans.iter().collect();
    spans.sort_by_key(|(path, b)| (std::cmp::Reverse(b.count), (*path).clone()));
    if !spans.is_empty() {
        let _ = writeln!(out, "\nspans (top {top_n} by count):");
        for (path, b) in spans.iter().take(top_n) {
            let _ = writeln!(
                out,
                "  {:<40} count={:<9} allocs={:<9} bytes={}",
                path, b.count, b.allocs, b.bytes
            );
        }
    }
    out
}

/// Renders the per-backend comparison table across several profiles
/// (typically one per backend: vcl, ulfm, replica).
pub fn top(profiles: &[(String, RunProfile)]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<24} {:<8} {:>6} {:>10} {:>11} {:>13} {:>14} {:>10} {:>10}",
        "file", "backend", "runs", "events", "allocs/ev", "bytes/ev", "copied/ev", "burst p50", "burst p99"
    );
    for (name, p) in profiles {
        let _ = writeln!(
            out,
            "{:<24} {:<8} {:>6} {:>10} {:>11} {:>13} {:>14} {:>10} {:>10}",
            name,
            p.backend,
            p.runs,
            p.events,
            per_event(p.total_allocs(), p.events),
            per_event(p.total_alloc_bytes(), p.events),
            per_event(p.total_copied_bytes(), p.events),
            p.queue.burst.quantile_upper_bound(0.5),
            p.queue.burst.quantile_upper_bound(0.99),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AllocBin, CopyBin, SpanBin};

    fn sample() -> RunProfile {
        let mut p = RunProfile::new();
        p.backend = "vcl".to_string();
        p.runs = 1;
        p.events = 100;
        p.alloc.insert("net.delivered".into(), AllocBin { events: 60, allocs: 120, bytes: 4800 });
        p.alloc.insert("compute_done".into(), AllocBin { events: 30, allocs: 30, bytes: 960 });
        p.alloc.insert("fail_timer".into(), AllocBin { events: 10, allocs: 5, bytes: 80 });
        p.copies.insert("net.enqueue".into(), CopyBin { count: 50, bytes: 200_000 });
        p.copies.insert("mpi.recv".into(), CopyBin { count: 40, bytes: 160_000 });
        p.queue.pushes = 101;
        p.queue.pops = 100;
        p.spans.insert("net.delivered;daemon".into(), SpanBin { count: 40, allocs: 0, bytes: 0 });
        p
    }

    #[test]
    fn layers_are_total() {
        assert_eq!(layer_of_kind("net.delivered"), "net");
        assert_eq!(layer_of_kind("mpichv.dispatch"), "mpichv");
        assert_eq!(layer_of_kind("fail_timer"), "fail");
        assert_eq!(layer_of_kind("fail_msg"), "fail");
        assert_eq!(layer_of_kind("compute_done"), "cluster");
        assert_eq!(layer_of_kind("ulfm.agree"), "ulfm");
    }

    #[test]
    fn report_attributes_everything() {
        let r = report(&sample(), 10, SortBy::Allocs);
        assert!(r.contains("backend=vcl"), "{r}");
        assert!(r.contains("attributed: 100.0% of allocs"), "{r}");
        assert!(r.contains("attributed: 100.0% of copied bytes"), "{r}");
        assert!(r.contains("net.delivered"), "{r}");
        // Sorted by allocs: net.delivered (120) first.
        let net = r.find("net.delivered").unwrap();
        let compute = r.find("compute_done").unwrap();
        assert!(net < compute, "{r}");
    }

    #[test]
    fn sort_by_parses_time_alias() {
        assert_eq!(SortBy::parse("time"), Some(SortBy::Events));
        assert_eq!(SortBy::parse("allocs"), Some(SortBy::Allocs));
        assert_eq!(SortBy::parse("bogus"), None);
    }

    /// Values a damaged or hostile file may hold where a number belongs.
    const WILD: [&str; 13] = [
        "18446744073709551615",
        "18446744073709551616",
        "123456789012345678901234567890",
        "4294967297",
        "1e999",
        "-1",
        "0.5",
        "70",
        "\"7\"",
        "null",
        "[]",
        "[[70, 1]]",
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

    /// What the CLI does with a file: parse, then render every way.
    fn load_and_render(text: &str) {
        if let Ok(p) = RunProfile::from_json(text) {
            for by in [SortBy::Allocs, SortBy::Bytes, SortBy::Events] {
                report(&p, 3, by);
            }
            top(&[("p".to_string(), p.clone())]);
            p.to_collapsed();
        }
    }

    fn rich_sample() -> String {
        let mut p = sample();
        let mut h = crate::Histogram::new();
        for v in [0, 1, 1000, u64::MAX] {
            h.record(v);
        }
        p.queue.burst = h.snapshot();
        p.queue.depth = h.snapshot();
        p.queue.depth_series = vec![(3, 4), (9, 1)];
        p.to_pretty_json()
    }

    proptest::proptest! {
        #[test]
        fn arbitrary_bytes_never_panic_the_reader(
            bytes in proptest::collection::vec(proptest::any::<u8>(), 0..600),
        ) {
            load_and_render(&String::from_utf8_lossy(&bytes));
        }

        #[test]
        fn one_wild_field_never_panics_the_reader_or_the_renderers(
            nth in proptest::any::<usize>(),
            wild in 0..WILD.len(),
            cut in proptest::any::<usize>(),
        ) {
            let doc = rich_sample();
            load_and_render(&replace_number(&doc, nth, WILD[wild]));
            load_and_render(&doc[..cut % doc.len()]);
        }
    }

    #[test]
    fn top_normalizes_per_event() {
        let mut ulfm = sample();
        ulfm.backend = "ulfm".to_string();
        let t = top(&[("a.json".to_string(), sample()), ("b.json".to_string(), ulfm)]);
        assert!(t.contains("vcl"), "{t}");
        assert!(t.contains("ulfm"), "{t}");
        // copied/ev for the sample: 360000/100 = 3600.0
        assert!(t.contains("3600.0"), "{t}");
    }
}
