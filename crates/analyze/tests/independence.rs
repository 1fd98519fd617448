//! `AbstractModel::independent` held to every twin. The ample filter
//! trusts it to skip the engine for rank-step pairs, so the claim is
//! checked here against the models' own `apply`: each twin is walked
//! through seeded random enabled steps and faults, and in every visited
//! state every pair of enabled steps the model calls independent must be
//! symmetric in the claim, keep each other enabled, and reach equal
//! states with the same events (as multisets) in either order.

use std::fmt::Debug;

use failmpi_backend::vocab::AbstractModel;
use failmpi_backend::{AbstractEvent, AbstractStep};
use failmpi_mpichv::{AbstractVcl, DispatcherMode};
use failmpi_replica::AbstractReplica;
use failmpi_sim::SimRng;
use failmpi_ulfm::AbstractUlfm;

/// Walks per twin and steps per walk.
const WALKS: u64 = 24;
const STEPS: usize = 160;

/// Every step enabled in `m`: the protocol's own, a fault on each live
/// unit, and the wave steps where the model opens or commits one.
fn enabled<M: AbstractModel>(m: &M) -> Vec<AbstractStep> {
    let mut out: Vec<AbstractStep> = m.protocol_steps().collect();
    let live = (0..m.n_units()).filter(|&u| m.unit_live(u));
    out.extend(live.map(|u| AbstractStep::Fault(u as u8)));
    if m.all_running() && m.wave_startable() {
        out.push(AbstractStep::WaveStart);
    }
    if m.wave_committable() {
        out.push(AbstractStep::WaveCommit);
    }
    out
}

/// `m` after `first` then `second`, with every event both emitted, or
/// `None` when `second` is not enabled after `first`.
fn both<M: AbstractModel + Clone>(
    m: &M,
    first: AbstractStep,
    second: AbstractStep,
) -> Option<(M, Vec<AbstractEvent>)> {
    let mut m = m.clone();
    let mut events = Vec::new();
    m.apply(first, &mut events);
    if !enabled(&m).contains(&second) {
        return None;
    }
    m.apply(second, &mut events);
    Some((m, events))
}

/// Whether `a` and `b` hold the same events, counted with multiplicity.
fn same_multiset(a: &[AbstractEvent], mut b: Vec<AbstractEvent>) -> bool {
    a.len() == b.len()
        && a.iter().all(|e| match b.iter().position(|x| x == e) {
            Some(i) => {
                b.swap_remove(i);
                true
            }
            None => false,
        })
}

/// Checks every independent pair of `m`'s enabled steps; returns how many
/// pairs the model vouched for.
fn check_pairs<M: AbstractModel + Clone + PartialEq + Debug>(m: &M) -> usize {
    let steps = enabled(m);
    let mut vouched = 0;
    for &a in &steps {
        for &b in &steps {
            if !m.independent(a, b) {
                continue;
            }
            vouched += 1;
            assert!(m.independent(b, a), "{a:?} × {b:?} is not symmetric in {m:?}");
            let ab = both(m, a, b);
            let ba = both(m, b, a);
            let (Some((ab, ab_events)), Some((ba, ba_events))) = (ab, ba) else {
                panic!("{a:?} × {b:?}: one disables the other in {m:?}");
            };
            assert_eq!(ab, ba, "{a:?} × {b:?} diverge from {m:?}");
            assert!(
                same_multiset(&ab_events, ba_events.clone()),
                "{a:?} × {b:?} emit {ab_events:?} against {ba_events:?} from {m:?}"
            );
        }
    }
    vouched
}

/// Seeded random walks from `fresh()`; faults are one pick in eight so
/// the walks climb the ladder between them. A walk with nothing enabled
/// (every unit dead) starts again.
fn walk<M: AbstractModel + Clone + PartialEq + Debug>(name: &str, fresh: impl Fn() -> M) {
    let mut vouched = 0;
    for seed in 0..WALKS {
        let mut rng = SimRng::new(0x1DE9 ^ seed);
        let mut m = fresh();
        for _ in 0..STEPS {
            vouched += check_pairs(&m);
            let steps = enabled(&m);
            let (faults, rest): (Vec<_>, Vec<_>) =
                steps.iter().partition(|s| matches!(s, AbstractStep::Fault(_)));
            let pool = if rest.is_empty() || (!faults.is_empty() && rng.chance(0.125)) {
                faults
            } else {
                rest
            };
            match rng.pick(&pool) {
                Some(&step) => m.apply(step, &mut Vec::new()),
                None => m = fresh(),
            }
        }
    }
    assert!(vouched >= 100, "{name}: only {vouched} independent pairs visited");
}

#[test]
fn independent_steps_commute_in_every_twin() {
    for mode in [DispatcherMode::Historical, DispatcherMode::Fixed] {
        walk(&format!("vcl {mode:?}"), || AbstractVcl::new(mode, 4, 6));
    }
    walk("ulfm", || AbstractUlfm::new(4, 5));
    // Partial replication (replicas for ranks 0 and 1) and full.
    walk("replica 3/5", || AbstractReplica::new(3, 5));
    walk("replica 2/4", || AbstractReplica::new(2, 4));
}
