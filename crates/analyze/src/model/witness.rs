//! Witness reconstruction: the one path from the parent table to the
//! schedule a user reads.
//!
//! The search stores structural moves, in the canonical frame of each
//! parent when reducing. [`Explorer::witness`] transports them into the
//! concrete frame — composing each edge's permutation onto the initial
//! one — and replays them from the true initial state, so labels and
//! notes name the machines and ranks of an actual run and are rendered
//! only here. Without reduction every permutation is the identity and the
//! replay retraces the stored tree edge for edge.

use std::fmt::Write as _;

use failmpi_backend::vocab::AbstractModel;

use super::moves::Scratch;
use super::search::Explorer;
use super::state::{MoveKind, ProdState, SiteLog};
use super::Witness;

/// One step of a concrete schedule: the move, the faults its branch
/// injects, and the branch's index among [`super::engine::Ctx::apply_move`]'s
/// results.
type PathStep = (MoveKind, u32, usize);

impl Explorer<'_> {
    /// Whether `s` satisfies either freeze predicate the exploration
    /// stops on: a lost rank in the protocol model, or no enabled step
    /// short of the all-running state.
    fn frozen(&self, s: &ProdState, scr: &mut Scratch) -> bool {
        if s.proto.lost_rank().is_some() {
            return true;
        }
        self.ctx.moves(s, &mut scr.moves);
        scr.moves.is_empty() && !s.proto.all_running()
    }

    /// Replays `path` concretely from the initial state. Succeeds only
    /// when every move is still enabled in order and its recorded branch
    /// still exists with the recorded fault count. Every branch
    /// `apply_move` returns is a real successor, so any successful replay
    /// is a valid full-graph path; the caller's frozen-end check decides
    /// whether it is a witness. Returns the final state, and renders the
    /// step labels into `labels` when given.
    fn replay(
        &self,
        path: &[PathStep],
        scr: &mut Scratch,
        mut labels: Option<&mut Vec<String>>,
    ) -> Option<ProdState> {
        let mut u = self.init_raw.clone();
        for (m, faults, branch) in path {
            self.ctx.moves(&u, &mut scr.moves);
            if !scr.moves.contains(m) {
                return None;
            }
            scr.micros.clear();
            self.ctx.apply_move(&u, m, &mut SiteLog::new(), &mut scr.drive, &mut scr.micros);
            let micro = scr.micros.drain(..).nth(*branch)?;
            if micro.faults != *faults {
                return None;
            }
            if let Some(labels) = labels.as_deref_mut() {
                let mut label = self.ctx.label_of(&u, m);
                if !micro.notes.is_empty() {
                    let _ = write!(label, " [{}]", micro.notes.join("; "));
                }
                labels.push(label);
            }
            u = micro.st;
        }
        Some(u)
    }

    /// The stored tree path to `id` as a concrete schedule. `sigma` maps
    /// the canonical frame of the state being left to the concrete frame;
    /// each edge's raw→canonical permutation composes in. Where several
    /// branches of a move reach the expected state, the one with the
    /// smallest notes is the one the expansion's dedup kept.
    fn concrete_path(&self, id: u32, scr: &mut Scratch) -> Vec<PathStep> {
        let mut chain = vec![id];
        let mut cur = id;
        while let Some(edge) = &self.parent[cur as usize] {
            cur = edge.parent;
            chain.push(cur);
        }
        chain.reverse();

        let mut sigma = self.init_perm.invert();
        let mut u = self.init_raw.clone();
        let mut path = Vec::with_capacity(chain.len() - 1);
        for &nid in &chain[1..] {
            let edge = self.parent[nid as usize].as_ref().expect("tree edge");
            let cm = sigma.apply_move(&self.ctx, &edge.kind);
            if let Some(pi) = self.edge_perm(edge) {
                sigma = pi.invert().then(&sigma);
            }
            let expected = sigma.apply_state(&self.ctx, &self.states[nid as usize]);
            let micros = &mut scr.micros;
            micros.clear();
            self.ctx.apply_move(&u, &cm, &mut SiteLog::new(), &mut scr.drive, micros);
            let branch = (0..micros.len())
                .filter(|&b| micros[b].st == expected && micros[b].faults == edge.faults)
                .min_by_key(|&b| &micros[b].notes)
                .unwrap_or_else(|| {
                    panic!(
                        "witness replay diverged at `{}`: the canonical-frame edge has no \
                         concrete counterpart (a canonicalization bug)",
                        self.ctx.label_of(&u, &cm)
                    )
                });
            path.push((cm, edge.faults, branch));
            u = expected;
        }
        path
    }

    /// Greedily deletes zero-fault steps from a schedule, keeping a
    /// deletion only when the remaining schedule still replays
    /// unambiguously and still ends frozen. The ample-set filter forces
    /// commuting moves early, which can leave steps in the reduced-graph
    /// witness that the unreduced minimal schedule would have left
    /// pending at the freeze; this strips them again. The result is a
    /// valid full-graph path, so its (faults, steps) cost never undercuts
    /// the true minimum.
    fn minimize(&self, mut path: Vec<PathStep>, scr: &mut Scratch) -> Vec<PathStep> {
        loop {
            let mut improved = false;
            let mut i = 0;
            while i < path.len() {
                if path[i].1 == 0 {
                    let mut trial = path.clone();
                    trial.remove(i);
                    if self.replay(&trial, scr, None).is_some_and(|end| self.frozen(&end, scr)) {
                        path = trial;
                        improved = true;
                        continue;
                    }
                }
                i += 1;
            }
            if !improved {
                return path;
            }
        }
    }

    /// The minimal fault schedule reaching freeze state `id`, and the
    /// concrete state it ends in. Only a reduced search can have padded
    /// the stored path (see [`Self::minimize`]), so only it is minimized.
    /// The replays share one scratch of their own.
    pub(super) fn witness(&self, id: u32) -> (Witness, ProdState) {
        let mut scr = Scratch::default();
        let mut path = self.concrete_path(id, &mut scr);
        if self.ctx.cfg.reduce {
            path = self.minimize(path, &mut scr);
        }
        let mut steps = Vec::with_capacity(path.len());
        let end = self.replay(&path, &mut scr, Some(&mut steps)).expect("a concrete path replays");
        debug_assert!(self.frozen(&end, &mut scr));
        (Witness { steps, faults: self.dist[id as usize].0 as usize }, end)
    }
}

#[cfg(test)]
mod tests {
    use failmpi_backend::BackendKind;
    use failmpi_core::compile;

    use super::super::ModelCheckConfig;
    use super::*;
    use crate::builtin::BUILTIN_SCENARIOS;

    /// The one witness path, on every builtin × backend freeze at 4 ranks,
    /// unreduced and reduced: the replayed schedule ends in a state the
    /// freeze predicate holds in, costs the faults the search found it at,
    /// is the stored tree path itself without reduction and never longer
    /// than it with — and both modes agree on the `(faults, steps)` cost,
    /// the observable `tests/reduction.rs` compares from outside.
    #[test]
    fn every_freeze_replays_to_a_frozen_state_at_the_search_cost() {
        let mut freezes = 0;
        for (name, src) in BUILTIN_SCENARIOS {
            let sc = compile(src).expect("builtin compiles");
            if sc.suggested.groups.is_empty() {
                continue;
            }
            for backend in BackendKind::all() {
                let mut costs = Vec::new();
                for reduce in [false, true] {
                    let (n_ranks, n_hosts, budget) = (4, 6, 20_000);
                    let cfg = ModelCheckConfig {
                        backend,
                        n_ranks,
                        n_hosts,
                        budget,
                        reduce,
                        ..ModelCheckConfig::default()
                    };
                    let mut ex = Explorer::new(&sc, &cfg, &[]);
                    ex.run();
                    let Some((id, _)) = ex.freeze.clone() else {
                        continue; // survives, or too big to say unreduced
                    };
                    let (witness, end) = ex.witness(id);
                    let at = format!("{name} under {backend}, reduce={reduce}");
                    let frozen = ex.frozen(&end, &mut Scratch::default());
                    assert!(frozen, "{at}: the replay does not end frozen");
                    let (faults, depth) = ex.dist[id as usize];
                    assert_eq!(witness.faults, faults as usize, "{at}");
                    if reduce {
                        assert!(witness.steps.len() <= depth as usize, "{at}");
                    } else {
                        assert_eq!(witness.steps.len(), depth as usize, "{at}");
                    }
                    costs.push((witness.faults, witness.steps.len()));
                    freezes += 1;
                }
                if let [full, reduced] = costs[..] {
                    assert_eq!(full, reduced, "{name} under {backend}");
                }
            }
        }
        assert!(freezes >= 16, "only {freezes} freezes replayed");
    }
}
