//! Product moves: which are enabled ([`Ctx::moves`]), how they read
//! ([`Ctx::label_of`]), what they do ([`Ctx::apply_move`]), and one full
//! state expansion ([`Ctx::expand`]) in a worker's [`Scratch`] — the
//! surface [`super::por`], [`super::canon`], [`super::frontier`] and the
//! witness replay call.

use std::fmt::Write as _;

use failmpi_backend::vocab::AbstractModel;
use failmpi_core::lang::compile::Guard;
use failmpi_mpichv::AbstractStep;

use super::canon::{self, CanonScratch};
use super::engine::{AIn, Ctx, DriveScratch, Pend};
use super::por::{self, PorScratch};
use super::state::{Expansion, Micro, MoveKind, ProdState, SiteLog, Succ};

impl Ctx<'_> {
    /// Whether any controller suspends the process of `rank` (a
    /// `stop`-suspended process neither registers nor acks commands).
    fn rank_suspended(&self, s: &ProdState, rank: usize) -> bool {
        let h = s.proto.unit(rank).host as usize;
        self.controllers[h]
            .iter()
            .any(|&c| s.insts[c].ctl.controlled && s.insts[c].ctl.suspended)
    }

    /// The first controller holding an armed breakpoint over `rank`'s
    /// process (its current node arms one and the process is attached) —
    /// it intercepts the rank's ready step.
    pub(crate) fn breakpoint_holder(&self, s: &ProdState, rank: usize) -> Option<usize> {
        let h = s.proto.unit(rank).host as usize;
        self.controllers[h]
            .iter()
            .copied()
            .find(|&c| s.insts[c].ctl.controlled && self.breakpoint_armed(c, s.insts[c].node))
    }

    /// Whether instance `i`'s node `node` arms a `before(...)` breakpoint
    /// — the part of an automaton's state that `breakpoint_holder` reads,
    /// so the ample filter can prove a node change invisible to rank moves.
    pub(crate) fn breakpoint_armed(&self, i: usize, node: u16) -> bool {
        self.class_of(i).nodes[node as usize]
            .transitions
            .iter()
            .any(|t| matches!(t.guard, Guard::Before(_)))
    }

    /// Every enabled product move of `s`, in canonical enumeration order,
    /// into `out`, which is cleared first.
    pub(crate) fn moves(&self, s: &ProdState, out: &mut Vec<MoveKind>) {
        out.clear();

        // Fast: message deliveries (multiset duplicates collapse).
        let mut seen_msg = None;
        for &m in &s.msgs {
            if seen_msg == Some(m) {
                continue;
            }
            seen_msg = Some(m);
            out.push(MoveKind::Deliver { from: m.0, to: m.1, msg: m.2 });
        }

        // Fast: register / ready (they race the FAIL plane).
        for step in s.proto.protocol_steps() {
            match step {
                AbstractStep::Register(r) if !self.rank_suspended(s, r as usize) => {
                    out.push(MoveKind::Register(r));
                }
                AbstractStep::Ready(r) => {
                    if self.rank_suspended(s, r as usize) {
                        continue;
                    }
                    match self.breakpoint_holder(s, r as usize) {
                        Some(c) => out.push(MoveKind::Breakpoint { rank: r, holder: c }),
                        None => out.push(MoveKind::Ready(r)),
                    }
                }
                _ => {}
            }
        }

        // Slow: spawns and stop-closures only run on a silent FAIL plane.
        if s.msgs.is_empty() {
            for step in s.proto.protocol_steps() {
                match step {
                    AbstractStep::Spawn(r) => out.push(MoveKind::Spawn(r)),
                    AbstractStep::StopClosure(r) => out.push(MoveKind::StopClosure(r)),
                    _ => {}
                }
            }
        }

        // Quiescent: scenario timers and checkpoint waves.
        if s.msgs.is_empty() && s.proto.all_running() {
            for (inst, ist) in s.insts.iter().enumerate() {
                for (slot, armed) in ist.ctl.armed.iter().enumerate() {
                    if *armed {
                        out.push(MoveKind::Timer { inst, slot });
                    }
                }
            }
            if s.proto.wave_startable() {
                out.push(MoveKind::WaveStart);
            }
            if s.proto.wave_committable() {
                out.push(MoveKind::WaveCommit);
            }
        }
    }

    /// The human-readable step label of `m` taken from `s`.
    pub(crate) fn label_of(&self, s: &ProdState, m: &MoveKind) -> String {
        let mut out = String::new();
        self.write_label(s, m, &mut out);
        out
    }

    /// Appends [`Ctx::label_of`] to `out`.
    fn write_label(&self, s: &ProdState, m: &MoveKind, out: &mut String) {
        let name = |i: usize| self.deployment.name(i);
        let _ = match *m {
            MoveKind::Deliver { from, to, msg } => write!(
                out,
                "deliver {} {} -> {}",
                self.sc.messages[msg as usize],
                name(from as usize),
                name(to as usize)
            ),
            MoveKind::Register(r) => {
                out.push_str("register ");
                s.proto.unit_desc(r as usize, out);
                Ok(())
            }
            MoveKind::Ready(r) => {
                out.push_str("ready ");
                s.proto.unit_desc(r as usize, out);
                Ok(())
            }
            MoveKind::Breakpoint { rank, holder } => {
                out.push_str("breakpoint before set-command: ");
                s.proto.unit_desc(rank as usize, out);
                write!(out, " held by {}", name(holder))
            }
            MoveKind::Spawn(r) => {
                out.push_str("spawn ");
                s.proto.unit_desc(r as usize, out);
                write!(out, " on host {}", s.proto.unit(r as usize).host)
            }
            MoveKind::StopClosure(r) => write!(out, "stop-closure rank {r}"),
            MoveKind::Timer { inst, slot } => {
                write!(out, "timer {} at {}", self.class_of(inst).timer_names[slot], name(inst))
            }
            MoveKind::WaveStart => write!(out, "checkpoint wave starts"),
            MoveKind::WaveCommit => write!(out, "checkpoint wave commits"),
        };
    }

    /// Applies one enabled move, appending its settled micro-branches to
    /// `out`. `m` must come from [`Ctx::moves`] on `s` (or be transported
    /// there by a permutation): the protocol steps assert enabledness.
    pub(crate) fn apply_move(
        &self,
        s: &ProdState,
        m: &MoveKind,
        log: &mut SiteLog,
        scr: &mut DriveScratch,
        out: &mut Vec<Micro>,
    ) {
        if let MoveKind::Breakpoint { rank, holder } = *m {
            return self.breakpoint_step(s, rank, holder, log, scr, out);
        }
        let mut s2 = s.clone();
        let mut q = scr.queue();
        // A move starts at the protocol (a step is applied and its events
        // queued) or at an automaton (an input is queued).
        if let Some(step) = m.protocol_step() {
            self.proto_step(&mut s2, step, &mut q, &mut scr.evs);
        } else if let MoveKind::Deliver { from, to, msg } = *m {
            let i = s2
                .msgs
                .iter()
                .position(|x| *x == (from, to, msg))
                .expect("delivered message in flight");
            s2.msgs.remove(i);
            let input = AIn::Msg(from as usize, msg as usize);
            q.push_back(Pend::In { inst: to as usize, input });
        } else if let MoveKind::Timer { inst, slot } = *m {
            q.push_back(Pend::In { inst, input: AIn::Timer(slot, ()) });
        }
        self.drive(s2, q, Vec::new(), log, scr, out)
    }

    /// One full expansion, in the worker's `scr`: every branch of every
    /// enabled move, then (reduce mode) the ample filter and orbit
    /// canonicalization, then the scramble hook and the canonical
    /// sort/dedup that makes generation order immaterial. The sort is on
    /// `(label, state, faults, notes)` and the dedup on `(label, state,
    /// faults)`: where branches of one move converge, the survivor carries
    /// the smallest notes — which is the branch the witness replay picks.
    /// Each move's label is rendered once, into `scr`; a successor's
    /// [`Succ::label`] reads it there until `scr` expands another state.
    pub(crate) fn expand(&self, s: &ProdState, scr: &mut Scratch) -> Expansion {
        let mut log = SiteLog::new();
        scr.labels.clear();
        self.moves(s, &mut scr.moves);
        // Every move settles in at least one branch.
        let mut succs = Vec::with_capacity(scr.moves.len());
        for m in &scr.moves {
            let start = scr.labels.len() as u32;
            self.write_label(s, m, &mut scr.labels);
            let label = (start, scr.labels.len() as u32);
            self.apply_move(s, m, &mut log, &mut scr.drive, &mut scr.micros);
            let branch = |micro| Succ { label, kind: *m, micro, perm: None };
            succs.extend(scr.micros.drain(..).map(branch));
        }
        let mut perms = Vec::new();
        let mut por_pruned = 0;
        let mut orbit_hits = 0;
        if self.cfg.reduce {
            let before = succs.len();
            por::ample_filter(self, s, &mut succs, &mut scr.por, &mut scr.drive);
            let kept = succs.len();
            por_pruned = before - kept;
            // `s` is interned, so it is a canonical representative.
            for succ in &mut succs {
                let canon = &mut scr.canon;
                canon::canonical_perm_from(self, s, &succ.micro.st, canon);
                debug_assert_eq!(canon.perm, canon::canonical_perm(self, &succ.micro.st));
                if !canon.perm.is_identity() {
                    if perms.is_empty() {
                        let row = canon.perm.hosts.len() + canon.perm.ranks.len();
                        perms.reserve_exact(kept * row);
                    }
                    succ.perm = Some(perms.len() as u32);
                    canon.perm.write_flat(&mut perms);
                    if canon.perm.relabel(self, &mut succ.micro.st, &mut canon.relabel) {
                        orbit_hits += 1;
                    }
                }
            }
        }

        // Scramble (test hook), then the canonical sort that must undo it.
        if let Some(seed) = self.cfg.scramble {
            let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
            for i in (1..succs.len()).rev() {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                succs.swap(i, (rng as usize) % (i + 1));
            }
        }
        let label = |x: &Succ| scr.label(x);
        succs.sort_by(|a, b| {
            (label(a), &a.micro.st, a.micro.faults, &a.micro.notes)
                .cmp(&(label(b), &b.micro.st, b.micro.faults, &b.micro.notes))
        });
        succs.dedup_by(|a, b| {
            label(a) == label(b) && a.micro.st == b.micro.st && a.micro.faults == b.micro.faults
        });
        Expansion { succs, perms, log, por_pruned, orbit_hits }
    }
}

/// Everything one frontier worker reuses from one expansion to the next:
/// the enabled moves, the rendered labels, the settled branches of the
/// move being applied, and the buffers of settling, the ample filter and
/// canonicalisation. Each is cleared, never freed, between uses.
#[derive(Default)]
pub(crate) struct Scratch {
    pub(crate) moves: Vec<MoveKind>,
    /// The labels of the last expansion's moves, back to back.
    labels: String,
    pub(crate) micros: Vec<Micro>,
    pub(crate) drive: DriveScratch,
    canon: CanonScratch,
    por: PorScratch,
}

impl Scratch {
    /// The label of `succ`, a successor of the last state this scratch
    /// expanded.
    pub(crate) fn label(&self, succ: &Succ) -> &str {
        &self.labels[succ.label.0 as usize..succ.label.1 as usize]
    }
}

#[cfg(test)]
mod tests {
    //! A worker's scratch carries nothing from one expansion into the
    //! next: expanding a state in a scratch that has expanded other states
    //! — of the same exploration or of another backend's — yields what a
    //! fresh scratch yields.

    use std::sync::OnceLock;

    use failmpi_backend::BackendKind;
    use failmpi_core::compile;
    use failmpi_core::lang::compile::Scenario;
    use proptest::prelude::*;
    use proptest::test_runner::Config;

    use super::super::canon::Perm;
    use super::super::search::Explorer;
    use super::super::ModelCheckConfig;
    use super::*;

    const FIG10: &str = include_str!("../../../core/scenarios/fig10_state_sync.fail");
    const FIG8: &str = include_str!("../../../core/scenarios/fig8_synchronized.fail");

    /// The `model_check_grid25` shapes: `(source, backend, ranks, reduce)`.
    const GRID25: [(&str, BackendKind, usize, bool); 6] = [
        (FIG10, BackendKind::Vcl, 9, true),
        (FIG10, BackendKind::Vcl, 16, true),
        (FIG8, BackendKind::Vcl, 25, true),
        (FIG10, BackendKind::Vcl, 4, false),
        (FIG10, BackendKind::Ulfm, 25, true),
        (FIG10, BackendKind::Replica, 9, true),
    ];

    /// A shape's compiled scenario, its configuration (budget-bounded, so
    /// the sample is the exploration's first states), and the states that
    /// bounded exploration interned.
    struct Shape {
        sc: Scenario,
        cfg: ModelCheckConfig,
        states: Vec<ProdState>,
    }

    fn shape(k: usize) -> &'static Shape {
        static SHAPES: [OnceLock<Shape>; 6] = [const { OnceLock::new() }; 6];
        SHAPES[k].get_or_init(|| {
            let (src, backend, n_ranks, reduce) = GRID25[k];
            let sc = compile(src).expect("builtin compiles");
            let cfg = ModelCheckConfig {
                backend,
                n_ranks,
                n_hosts: n_ranks + 1,
                budget: 120,
                params: vec![("T".to_string(), 2), ("N".to_string(), 5)],
                reduce,
                permute_seed: reduce.then_some(7),
                ..ModelCheckConfig::default()
            };
            let states = {
                let mut ex = Explorer::new(&sc, &cfg, &[]);
                ex.run();
                ex.states().to_vec()
            };
            Shape { sc, cfg, states }
        })
    }

    /// One successor as observed: label, move, state, faults, notes and
    /// permutation.
    type Seen = (String, MoveKind, ProdState, u32, Vec<String>, Option<Perm>);

    /// Everything an expansion produced, read while its scratch still
    /// holds the labels.
    fn observe(ctx: &Ctx, exp: Expansion, scr: &Scratch) -> (Vec<Seen>, SiteLog, usize, usize) {
        let (n_hosts, n_units) = (ctx.cfg.n_hosts, ctx.cfg.n_units());
        let succs = (exp.succs.iter())
            .map(|x| {
                let row = |at: u32| &exp.perms[at as usize..];
                let perm = x.perm.map(|at| Perm::from_flat(row(at), n_hosts, n_units));
                let m = &x.micro;
                (scr.label(x).to_string(), x.kind, m.st.clone(), m.faults, m.notes.clone(), perm)
            })
            .collect();
        (succs, exp.log, exp.por_pruned, exp.orbit_hits)
    }

    proptest! {
        #![proptest_config(Config::with_cases(12))]

        /// Up to 24 sampled states of one shape, each expanded in a fresh
        /// scratch and then all in one shared scratch, in a shuffled
        /// order, every one after a state of another shape.
        #[test]
        fn a_reused_scratch_leaks_nothing(
            which in 0usize..GRID25.len(),
            other in 1usize..GRID25.len(),
            picks in proptest::collection::vec(any::<usize>(), 1..24),
            seed in any::<u64>(),
        ) {
            let (a, b) = (shape(which), shape((which + other) % GRID25.len()));
            let ex_a = Explorer::new(&a.sc, &a.cfg, &[]);
            let ex_b = Explorer::new(&b.sc, &b.cfg, &[]);
            let fresh: Vec<_> = (picks.iter())
                .map(|p| {
                    let mut scr = Scratch::default();
                    let exp = ex_a.ctx.expand(&a.states[p % a.states.len()], &mut scr);
                    observe(&ex_a.ctx, exp, &scr)
                })
                .collect();

            let mut order: Vec<usize> = (0..picks.len()).collect();
            let mut rng = seed.max(1);
            for i in (1..order.len()).rev() {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                order.swap(i, (rng as usize) % (i + 1));
            }
            let mut shared = Scratch::default();
            for (k, &i) in order.iter().enumerate() {
                let noise = &b.states[(picks[i] ^ k) % b.states.len()];
                ex_b.ctx.expand(noise, &mut shared);
                let exp = ex_a.ctx.expand(&a.states[picks[i] % a.states.len()], &mut shared);
                let seen = observe(&ex_a.ctx, exp, &shared);
                prop_assert!(seen == fresh[i], "state {} of shape {}", picks[i], which);
            }
        }
    }
}
