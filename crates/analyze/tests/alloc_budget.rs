//! An allocation ceiling on state expansion and a memory ceiling on the
//! interned store. The six `model_check_grid25` shapes run on one thread
//! under the counting allocator, and the heap allocations each makes per
//! explored state — compile, set-up, search, witness and report included
//! — must stay under the ceiling in [`GRID25`]. A temporary that is
//! allocated per successor again instead of reusing the worker's
//! expansion scratch, or a slot table that is copied instead of shared,
//! crosses it. The peak of live heap bytes during each run, per interned
//! state, must stay under the memory ceiling: the store's layout before
//! equal instance values were kept once (a fresh instance allocation per
//! changed instance per state) crosses that on every shape but `ulfm25`.

use failmpi_analyze::{model_check_source, BackendKind, ModelCheckConfig};
use failmpi_obs::{alloc_counters, peak_live_bytes, reset_peak_live_bytes};

#[global_allocator]
static ALLOC: failmpi_obs::PeakAlloc = failmpi_obs::PeakAlloc;

const FIG10: &str = include_str!("../../core/scenarios/fig10_state_sync.fail");
const FIG8: &str = include_str!("../../core/scenarios/fig8_synchronized.fail");

/// `(label, source, backend, ranks, reduce, allocations, bytes)`: the
/// benchmark's shapes (`T=2, N=5`, one spare machine, permute seed 7 when
/// reduced), the most allocations per explored state each may make and
/// the most peak live heap bytes per interned state it may hold, each as
/// `(release, debug)`.
///
/// Each allocation ceiling is 1.5× the count measured when states began
/// to hold 4-byte handles into one instance table instead of an `Arc`
/// per instance: 23.8, 32.0, 68.6, 12.1, 54.3 and 13.4. With debug
/// assertions every successor is canonicalised a second time from
/// scratch and every structural commutation is probed, so a debug build
/// has ceilings of its own: 1.5× 57.9, 85.3, 143.3, 12.1, 116.6 and 42.0.
///
/// Each memory ceiling is 1.2× the peak live bytes per interned state
/// measured at the same change: 377, 454, 679, 354, 1057 and 447 (debug:
/// 378, 454, 696, 354, 1114 and 447).
///
/// How the two figures came down, per shape, release (debug where it
/// differs):
///
/// - before per-worker scratch buffers: 132, 193, 418, 38, 289 and 91
///   allocations;
/// - per-worker scratch, shared slot tables: 30.1, 41.5, 82.5, 13.4,
///   64.6 and 18.8 allocations (66.4, 99.3, 161.5, 13.4, 132.6, 51.5);
///   546, 673, 923, 493, 1254 and 573 bytes;
/// - one `Arc` per distinct instance value, permutations in one arena:
///   28.4, 39.7, 81.4, 13.4, 63.8 and 17.9 allocations (64.7, 97.5,
///   160.4, 13.4, 131.8, 50.6); 421, 527, 798, 380, 1188 and 480 bytes
///   (422, 527, 815, 380, 1261, 481);
/// - a 4-byte handle per instance into one table of values: the figures
///   above.
type Shape = (&'static str, &'static str, BackendKind, usize, bool, (f64, f64), (f64, f64));
const GRID25: [Shape; 6] = [
    ("vcl9", FIG10, BackendKind::Vcl, 9, true, (35.7, 86.9), (453.0, 454.0)),
    ("vcl16", FIG10, BackendKind::Vcl, 16, true, (48.0, 128.0), (545.0, 545.0)),
    ("fig8_vcl25", FIG8, BackendKind::Vcl, 25, true, (102.9, 215.0), (815.0, 836.0)),
    ("vcl4_full", FIG10, BackendKind::Vcl, 4, false, (18.2, 18.2), (425.0, 425.0)),
    ("ulfm25", FIG10, BackendKind::Ulfm, 25, true, (81.5, 174.9), (1269.0, 1337.0)),
    ("replica9", FIG10, BackendKind::Replica, 9, true, (20.1, 63.0), (537.0, 537.0)),
];

/// Both ceilings in one test: the live-byte peak is process-wide, so no
/// other test of this binary may run alongside.
#[test]
fn grid25_allocations_per_state_stay_under_the_ceiling() {
    let pick = |(release, debug): (f64, f64)| if cfg!(debug_assertions) { debug } else { release };
    let mut over = Vec::new();
    for (label, src, backend, n_ranks, reduce, allocs, bytes) in GRID25 {
        let cfg = ModelCheckConfig {
            backend,
            n_ranks,
            n_hosts: n_ranks + 1,
            params: vec![("T".to_string(), 2), ("N".to_string(), 5)],
            reduce,
            threads: 1,
            permute_seed: reduce.then_some(7),
            ..ModelCheckConfig::default()
        };
        let (before, _) = alloc_counters();
        let base = reset_peak_live_bytes();
        let summary = model_check_source(src, &cfg).summary;
        let peak = peak_live_bytes() - base;
        let (after, _) = alloc_counters();
        let per_state = (after - before) as f64 / summary.explored as f64;
        let bytes_per_state = peak as f64 / summary.interned as f64;
        eprintln!(
            "{label}: {} allocations, {per_state:.1} per explored state; \
             {peak} peak live bytes, {bytes_per_state:.0} per interned state",
            after - before
        );
        let (ceiling, bytes_ceiling) = (pick(allocs), pick(bytes));
        if per_state > ceiling {
            over.push(format!("{label}: {per_state:.1} allocations > {ceiling}"));
        }
        if bytes_per_state > bytes_ceiling {
            over.push(format!("{label}: {bytes_per_state:.0} bytes > {bytes_ceiling}"));
        }
    }
    assert!(over.is_empty(), "per-state cost over the ceiling: {over:?}");
}
