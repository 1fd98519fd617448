//! An allocation ceiling on state expansion. The six `model_check_grid25`
//! shapes run on one thread under the counting allocator, and the heap
//! allocations each makes per explored state — compile, set-up, search,
//! witness and report included — must stay under the ceiling in
//! [`GRID25`]. A temporary that is allocated per successor again instead
//! of reusing the worker's expansion scratch, or a slot table that is
//! copied instead of shared, crosses it.

use failmpi_analyze::{model_check_source, BackendKind, ModelCheckConfig};
use failmpi_obs::alloc_counters;

#[global_allocator]
static ALLOC: failmpi_obs::CountingAlloc = failmpi_obs::CountingAlloc;

const FIG10: &str = include_str!("../../core/scenarios/fig10_state_sync.fail");
const FIG8: &str = include_str!("../../core/scenarios/fig8_synchronized.fail");

/// `(label, source, backend, ranks, reduce, ceiling, debug ceiling)`:
/// the benchmark's shapes (`T=2, N=5`, one spare machine, permute seed 7
/// when reduced) and the most allocations per explored state each may
/// make. Each ceiling is 1.5× the count measured when expansion moved to
/// per-worker scratch buffers and shared slot tables: 30.1, 41.5, 82.5,
/// 13.4, 64.6 and 18.8 (before that change: 132, 193, 418, 38, 289 and
/// 91). With debug assertions every successor is canonicalised a second
/// time from scratch and every structural commutation is probed, so a
/// debug build has ceilings of its own: 1.5× 66.4, 99.3, 161.5, 13.4,
/// 132.6 and 51.5.
const GRID25: [(&str, &str, BackendKind, usize, bool, f64, f64); 6] = [
    ("vcl9", FIG10, BackendKind::Vcl, 9, true, 45.0, 100.0),
    ("vcl16", FIG10, BackendKind::Vcl, 16, true, 62.0, 149.0),
    ("fig8_vcl25", FIG8, BackendKind::Vcl, 25, true, 124.0, 242.0),
    ("vcl4_full", FIG10, BackendKind::Vcl, 4, false, 20.0, 20.0),
    ("ulfm25", FIG10, BackendKind::Ulfm, 25, true, 97.0, 199.0),
    ("replica9", FIG10, BackendKind::Replica, 9, true, 28.0, 77.0),
];

#[test]
fn grid25_allocations_per_state_stay_under_the_ceiling() {
    let mut over = Vec::new();
    for (label, src, backend, n_ranks, reduce, ceiling, debug_ceiling) in GRID25 {
        let ceiling = if cfg!(debug_assertions) { debug_ceiling } else { ceiling };
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
        let explored = model_check_source(src, &cfg).summary.explored;
        let (after, _) = alloc_counters();
        let per_state = (after - before) as f64 / explored as f64;
        eprintln!("{label}: {} allocations, {per_state:.1} per explored state", after - before);
        if per_state > ceiling {
            over.push(format!("{label}: {per_state:.1} > {ceiling}"));
        }
    }
    assert!(over.is_empty(), "allocations per explored state over the ceiling: {over:?}");
}
