//! The thread-local deterministic profiling context.
//!
//! One simulation run executes on one thread, so the whole context is
//! thread-local state with no locking: [`start_run`] installs a fresh
//! context, instrumented layers charge into it through free functions,
//! and [`finish_run`] drains it into a [`RunProfile`]. When no context is
//! active every entry point is a single thread-local flag check —
//! the same zero-cost-when-disabled discipline as
//! [`crate::WallProfile`] — so un-profiled runs (the default, including
//! every determinism test) pay one predictable branch per call site.
//!
//! Four tracks:
//!
//! * **Events** — [`event`] returns a guard scoped around one engine
//!   handler dispatch; on drop it attributes the allocation delta (from
//!   [`crate::alloc_counters`]) to the event kind and closes the root
//!   span frame.
//! * **Spans** — [`span`] pushes a named frame under the current one.
//!   Frames form a tree interned per parent, so the steady-state cost of
//!   entering a known path is a probe of the parent's few children — no
//!   allocation, which matters because span bookkeeping runs *inside* the
//!   allocation deltas it is attributing. Exclusive attribution: a
//!   frame's charge is its own delta minus its children's.
//! * **Copies** — [`copy`] bumps the per-hop payload-copy ledger.
//! * **Queue** — [`queue_push`]/[`queue_pop`] feed push/pop counts, the
//!   depth histogram, the same-instant burst-length histogram, and the
//!   depth-over-virtual-time series.
//!
//! Everything recorded is schedule-deterministic; allocation counts are
//! additionally zero unless the binary installed
//! [`CountingAlloc`](crate::alloc) (`alloc-profile` feature).
//!
//! Every name a call site passes is a string literal, the same one every
//! time, and a run uses a few dozen of them. So the per-name tables are
//! short vectors probed by the literal's *address*
//! ([`crate::literal::position`]), with content equality as the fallback
//! that keeps equal names from different addresses in one bin; names are
//! ordered only when [`finish_run`] builds the [`RunProfile`], whose maps
//! sort them.

use std::cell::{Cell, RefCell};

use crate::alloc::alloc_counters;
use crate::histogram::Histogram;
use crate::literal;
use crate::profile::{AllocBin, CopyBin, RunProfile, SpanBin};

thread_local! {
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static CTX: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

/// Sentinel parent index for root span nodes.
const NO_PARENT: usize = usize::MAX;

/// A per-name ledger in first-seen order.
#[derive(Default)]
struct Ledger<B>(Vec<(&'static str, B)>);

impl<B: Default> Ledger<B> {
    fn bin(&mut self, name: &'static str) -> &mut B {
        let at = literal::position(self.0.iter().map(|e| e.0), name).unwrap_or_else(|| {
            self.0.push((name, B::default()));
            self.0.len() - 1
        });
        &mut self.0[at].1
    }
}

/// One interned node of the span tree.
struct Node {
    name: &'static str,
    parent: usize,
    /// Nodes interned under this one, in first-entered order.
    children: Vec<usize>,
    bin: SpanBin,
}

/// The depth-over-virtual-time series: max depth seen per time bucket —
/// one per bit length of a `u64` timestamp, 0 to 64 — `None` for a bucket
/// never popped in.
struct DepthSeries([Option<u64>; 65]);

impl Default for DepthSeries {
    fn default() -> Self {
        DepthSeries([None; 65])
    }
}

/// One live frame of the span stack.
struct Frame {
    node: usize,
    allocs_at_push: u64,
    bytes_at_push: u64,
    child_allocs: u64,
    child_bytes: u64,
}

#[derive(Default)]
struct Ctx {
    backend: String,
    events: u64,
    alloc: Ledger<AllocBin>,
    copies: Ledger<CopyBin>,
    pushes: u64,
    pops: u64,
    burst: Histogram,
    depth: Histogram,
    depth_series: DepthSeries,
    /// Virtual timestamp (µs) of the burst being accumulated, or
    /// `u64::MAX` when none is open.
    burst_at: u64,
    burst_len: u64,
    nodes: Vec<Node>,
    /// The span tree's root nodes (`Node::children` of no parent).
    roots: Vec<usize>,
    stack: Vec<Frame>,
}

impl Ctx {
    fn push_frame(&mut self, name: &'static str) {
        let parent = self.stack.last().map_or(NO_PARENT, |f| f.node);
        let siblings = match self.nodes.get(parent) {
            Some(p) => &p.children,
            None => &self.roots,
        };
        let known = literal::position(siblings.iter().map(|&i| self.nodes[i].name), name)
            .map(|at| siblings[at]);
        let node = known.unwrap_or_else(|| {
            let idx = self.nodes.len();
            self.nodes.push(Node {
                name,
                parent,
                children: Vec::new(),
                bin: SpanBin::default(),
            });
            match self.nodes.get_mut(parent) {
                Some(p) => p.children.push(idx),
                None => self.roots.push(idx),
            }
            idx
        });
        self.nodes[node].bin.count += 1;
        let (a, b) = alloc_counters();
        self.stack.push(Frame {
            node,
            allocs_at_push: a,
            bytes_at_push: b,
            child_allocs: 0,
            child_bytes: 0,
        });
    }

    fn pop_frame(&mut self) {
        let Some(f) = self.stack.pop() else { return };
        let (a, b) = alloc_counters();
        let incl_allocs = a.wrapping_sub(f.allocs_at_push);
        let incl_bytes = b.wrapping_sub(f.bytes_at_push);
        let bin = &mut self.nodes[f.node].bin;
        bin.allocs += incl_allocs.saturating_sub(f.child_allocs);
        bin.bytes += incl_bytes.saturating_sub(f.child_bytes);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_allocs += incl_allocs;
            parent.child_bytes += incl_bytes;
        }
    }

    fn flush_burst(&mut self) {
        if self.burst_len > 0 {
            self.burst.record(self.burst_len);
            self.burst_len = 0;
        }
        self.burst_at = u64::MAX;
    }

    fn into_profile(mut self) -> RunProfile {
        self.flush_burst();
        let mut p = RunProfile::new();
        p.backend = self.backend;
        p.runs = 1;
        p.events = self.events;
        for (k, b) in self.alloc.0 {
            p.alloc.insert(k.to_string(), b);
        }
        for (k, b) in self.copies.0 {
            p.copies.insert(k.to_string(), b);
        }
        p.queue.pushes = self.pushes;
        p.queue.pops = self.pops;
        p.queue.burst = self.burst.snapshot();
        p.queue.depth = self.depth.snapshot();
        p.queue.depth_series = (0u32..)
            .zip(self.depth_series.0)
            .filter_map(|(bucket, depth)| Some((bucket, depth?)))
            .collect();
        // Reconstruct collapsed paths from the interned tree. Parents
        // always precede children in `nodes` (interned on first push), so
        // one forward pass resolves every path.
        let mut paths: Vec<String> = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let path = if node.parent == NO_PARENT {
                node.name.to_string()
            } else {
                format!("{};{}", paths[node.parent], node.name)
            };
            paths.push(path);
        }
        for (node, path) in self.nodes.into_iter().zip(paths) {
            let e = p.spans.entry(path).or_default();
            e.count += node.bin.count;
            e.allocs += node.bin.allocs;
            e.bytes += node.bin.bytes;
        }
        p
    }
}

/// Whether a profiling context is active on this thread. Instrumented
/// call sites use this (or call the charge functions directly, which
/// check it themselves) — one thread-local read when profiling is off.
#[inline]
pub fn is_enabled() -> bool {
    ACTIVE.try_with(Cell::get).unwrap_or(false)
}

/// Installs a fresh profiling context on this thread, tagged with the
/// protocol backend name. Any previous context is discarded.
pub fn start_run(backend: &str) {
    CTX.with(|c| {
        *c.borrow_mut() = Some(Ctx {
            backend: backend.to_string(),
            burst_at: u64::MAX,
            ..Ctx::default()
        });
    });
    ACTIVE.with(|a| a.set(true));
}

/// Tears down this thread's profiling context and returns its profile,
/// or `None` if none was active.
pub fn finish_run() -> Option<RunProfile> {
    ACTIVE.with(|a| a.set(false));
    CTX.with(|c| c.borrow_mut().take()).map(Ctx::into_profile)
}

/// Guard for one engine event dispatch; created by [`event`]. On drop it
/// charges the allocation delta to the event kind and closes the root
/// span frame opened for the event.
pub struct EventGuard {
    kind: &'static str,
    allocs_at_start: u64,
    bytes_at_start: u64,
}

/// Opens an event scope for one handler dispatch of `kind`. Returns
/// `None` when profiling is off. The returned guard must be dropped
/// after the handler (and any scheduling it triggers) completes.
#[inline]
pub fn event(kind: &'static str) -> Option<EventGuard> {
    if !is_enabled() {
        return None;
    }
    let (a, b) = alloc_counters();
    with_ctx(|ctx| ctx.push_frame(kind));
    Some(EventGuard { kind, allocs_at_start: a, bytes_at_start: b })
}

impl Drop for EventGuard {
    fn drop(&mut self) {
        let (a, b) = alloc_counters();
        let allocs = a.wrapping_sub(self.allocs_at_start);
        let bytes = b.wrapping_sub(self.bytes_at_start);
        let kind = self.kind;
        with_ctx(|ctx| {
            ctx.events += 1;
            let bin = ctx.alloc.bin(kind);
            bin.events += 1;
            bin.allocs += allocs;
            bin.bytes += bytes;
            ctx.pop_frame();
        });
    }
}

/// Guard for one hierarchical span; created by [`span`]. Closes the
/// frame on drop.
pub struct SpanGuard {
    live: bool,
}

/// Opens a named span under the current frame. A no-op guard when
/// profiling is off.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !is_enabled() {
        return SpanGuard { live: false };
    }
    with_ctx(|ctx| ctx.push_frame(name));
    SpanGuard { live: true }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.live {
            with_ctx(|ctx| ctx.pop_frame());
        }
    }
}

/// Charges `bytes` payload bytes copied across layer boundary `hop`.
#[inline]
pub fn copy(hop: &'static str, bytes: u64) {
    if !is_enabled() {
        return;
    }
    with_ctx(|ctx| {
        let bin = ctx.copies.bin(hop);
        bin.count += 1;
        bin.bytes += bytes;
    });
}

/// Records one event-queue push; `depth` is the queue depth after the
/// push.
#[inline]
pub fn queue_push(depth: u64) {
    if !is_enabled() {
        return;
    }
    with_ctx(|ctx| {
        ctx.pushes += 1;
        ctx.depth.record(depth);
    });
}

/// Records one event-queue pop at virtual time `at_micros`; `depth` is
/// the queue depth after the pop. Consecutive pops sharing a timestamp
/// form one burst; a timestamp change closes the open burst into the
/// burst-length histogram.
#[inline]
pub fn queue_pop(at_micros: u64, depth: u64) {
    if !is_enabled() {
        return;
    }
    with_ctx(|ctx| {
        ctx.pops += 1;
        if at_micros == ctx.burst_at {
            ctx.burst_len += 1;
        } else {
            if ctx.burst_len > 0 {
                ctx.burst.record(ctx.burst_len);
            }
            ctx.burst_at = at_micros;
            ctx.burst_len = 1;
        }
        let bucket = (u64::BITS - at_micros.leading_zeros()) as usize;
        let slot = &mut ctx.depth_series.0[bucket];
        *slot = Some(slot.map_or(depth, |seen| seen.max(depth)));
    });
}

#[inline]
fn with_ctx(f: impl FnOnce(&mut Ctx)) {
    let _ = CTX.try_with(|c| {
        if let Some(ctx) = c.borrow_mut().as_mut() {
            f(ctx);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_context_is_inert() {
        assert!(!is_enabled());
        assert!(event("net.delivered").is_none());
        let _s = span("noop");
        copy("net.enqueue", 100);
        queue_push(1);
        queue_pop(5, 0);
        assert!(finish_run().is_none());
    }

    #[test]
    fn event_and_copy_and_queue_tracks_record() {
        start_run("vcl");
        assert!(is_enabled());
        {
            let _e = event("net.delivered").unwrap();
            copy("net.enqueue", 4096);
            copy("net.enqueue", 4096);
            queue_push(3);
        }
        {
            let _e = event("compute_done").unwrap();
        }
        // Three pops at t=10, one at t=11 → bursts of 3 and (after
        // flush) 1.
        queue_pop(10, 2);
        queue_pop(10, 1);
        queue_pop(10, 0);
        queue_pop(11, 0);
        let p = finish_run().unwrap();
        assert!(!is_enabled());
        assert_eq!(p.backend, "vcl");
        assert_eq!(p.runs, 1);
        assert_eq!(p.events, 2);
        assert_eq!(p.alloc["net.delivered"].events, 1);
        assert_eq!(p.alloc["compute_done"].events, 1);
        assert_eq!(p.copies["net.enqueue"].count, 2);
        assert_eq!(p.copies["net.enqueue"].bytes, 8192);
        assert_eq!(p.queue.pushes, 1);
        assert_eq!(p.queue.pops, 4);
        assert_eq!(p.queue.burst.count, 2);
        assert_eq!(p.queue.burst.max, 3);
        assert_eq!(p.queue.depth.count, 1);
        // t=10 and t=11 share log2 bucket 4; max depth after pop is 2.
        assert_eq!(p.queue.depth_series, vec![(4, 2)]);
    }

    #[test]
    fn spans_nest_and_collapse_with_exclusive_attribution() {
        start_run("vcl");
        {
            let _e = event("net.delivered").unwrap();
            crate::alloc::charge_for_test(2, 64);
            {
                let _s = span("dispatcher");
                crate::alloc::charge_for_test(5, 100);
                {
                    let _t = span("on_msg");
                    crate::alloc::charge_for_test(1, 8);
                }
            }
        }
        {
            let _e = event("net.delivered").unwrap();
            let _s = span("dispatcher");
        }
        let p = finish_run().unwrap();
        let spans = &p.spans;
        assert_eq!(spans["net.delivered"].count, 2);
        assert_eq!(spans["net.delivered;dispatcher"].count, 2);
        assert_eq!(spans["net.delivered;dispatcher;on_msg"].count, 1);
        // Exclusive charges: leaf keeps its own, parents subtract
        // children.
        assert_eq!(spans["net.delivered;dispatcher;on_msg"].allocs, 1);
        assert_eq!(spans["net.delivered;dispatcher"].allocs, 5);
        assert_eq!(spans["net.delivered"].allocs, 2);
        assert_eq!(p.alloc["net.delivered"].allocs, 8);
        assert_eq!(p.alloc["net.delivered"].bytes, 172);
        // Collapsed output carries the same tree.
        let collapsed = p.to_collapsed();
        assert!(collapsed.contains("net.delivered;dispatcher;on_msg 1\n"));
    }

    #[test]
    fn equal_names_share_a_bin_whatever_their_address() {
        let elsewhere = |name: &str| -> &'static str { String::from(name).leak() };
        assert!(!std::ptr::eq("net.enqueue".as_ptr(), elsewhere("net.enqueue").as_ptr()));
        start_run("vcl");
        for kind in ["net.delivered", elsewhere("net.delivered")] {
            let _e = event(kind).unwrap();
            let _s = span(elsewhere("daemon"));
            copy("net.enqueue", 1);
            copy(elsewhere("net.enqueue"), 2);
        }
        let p = finish_run().unwrap();
        assert_eq!(p.alloc.len(), 1);
        assert_eq!(p.alloc["net.delivered"].events, 2);
        assert_eq!(p.copies.len(), 1);
        assert_eq!((p.copies["net.enqueue"].count, p.copies["net.enqueue"].bytes), (4, 6));
        assert_eq!(p.spans.len(), 2);
        assert_eq!(p.spans["net.delivered;daemon"].count, 2);
    }

    #[test]
    fn the_profile_is_ordered_by_name_not_by_first_use() {
        let run = |kinds: [&'static str; 3]| {
            start_run("vcl");
            for kind in kinds {
                let _e = event(kind).unwrap();
                let _s = span(kind);
                copy(kind, 1);
            }
            // Buckets 4 (t = 8), 0 (t = 0) and 64, the last one.
            queue_pop(8, 3);
            queue_pop(0, 0);
            queue_pop(u64::MAX, 7);
            finish_run().unwrap()
        };
        let p = run(["zeta", "alpha", "mid"]);
        for names in [
            p.alloc.keys().collect::<Vec<_>>(),
            p.copies.keys().collect(),
        ] {
            assert_eq!(names, ["alpha", "mid", "zeta"]);
        }
        let spans: Vec<_> = p.spans.keys().collect();
        assert_eq!(
            spans,
            ["alpha", "alpha;alpha", "mid", "mid;mid", "zeta", "zeta;zeta"]
        );
        assert_eq!(p.queue.depth_series, vec![(0, 0), (4, 3), (64, 7)]);
        assert_eq!(
            p.to_pretty_json(),
            run(["mid", "zeta", "alpha"]).to_pretty_json()
        );
    }

    #[test]
    fn start_run_discards_previous_context() {
        start_run("vcl");
        copy("net.enqueue", 1);
        start_run("ulfm");
        let p = finish_run().unwrap();
        assert_eq!(p.backend, "ulfm");
        assert!(p.copies.is_empty());
    }
}
