//! Product moves: which are enabled ([`Ctx::moves`]), how they read
//! ([`Ctx::label_of`]), what they do ([`Ctx::apply_move`]), and one full
//! state expansion ([`Ctx::expand`]) — the surface [`super::por`],
//! [`super::canon`], [`super::frontier`] and the witness replay call.

use std::collections::VecDeque;

use failmpi_backend::vocab::AbstractModel;
use failmpi_core::lang::compile::Guard;
use failmpi_mpichv::AbstractStep;

use super::engine::{AIn, Ctx, Pend};
use super::state::{Expansion, Micro, MoveKind, ProdState, SiteLog, Succ};
use super::{canon, por};

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

    /// Every enabled product move of `s`, in canonical enumeration order.
    pub(crate) fn moves(&self, s: &ProdState) -> Vec<MoveKind> {
        let mut out = Vec::new();

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
        out
    }

    /// The human-readable step label of `m` taken from `s`.
    pub(crate) fn label_of(&self, s: &ProdState, m: &MoveKind) -> String {
        match m {
            MoveKind::Deliver { from, to, msg } => format!(
                "deliver {} {} -> {}",
                self.sc.messages[*msg as usize],
                self.deployment.name(*from as usize),
                self.deployment.name(*to as usize)
            ),
            MoveKind::Register(r) => format!("register {}", s.proto.unit_desc(*r as usize)),
            MoveKind::Ready(r) => format!("ready {}", s.proto.unit_desc(*r as usize)),
            MoveKind::Breakpoint { rank, holder } => format!(
                "breakpoint before set-command: {} held by {}",
                s.proto.unit_desc(*rank as usize),
                self.deployment.name(*holder)
            ),
            MoveKind::Spawn(r) => format!(
                "spawn {} on host {}",
                s.proto.unit_desc(*r as usize),
                s.proto.unit(*r as usize).host
            ),
            MoveKind::StopClosure(r) => format!("stop-closure rank {r}"),
            MoveKind::Timer { inst, slot } => format!(
                "timer {} at {}",
                self.class_of(*inst).timer_names[*slot],
                self.deployment.name(*inst)
            ),
            MoveKind::WaveStart => "checkpoint wave starts".to_string(),
            MoveKind::WaveCommit => "checkpoint wave commits".to_string(),
        }
    }

    /// Applies one enabled move, returning its settled micro-branches.
    /// `m` must come from [`Ctx::moves`] on `s` (or be transported there
    /// by a permutation): the protocol steps assert enabledness.
    pub(crate) fn apply_move(&self, s: &ProdState, m: &MoveKind, log: &mut SiteLog) -> Vec<Micro> {
        if let MoveKind::Breakpoint { rank, holder } = *m {
            return self.breakpoint_step(s, rank, holder, log);
        }
        let mut s2 = s.clone();
        let mut q = VecDeque::new();
        // A move starts at the protocol (a step is applied and its events
        // queued) or at an automaton (an input is queued).
        if let Some(step) = m.protocol_step() {
            self.proto_step(&mut s2, step, &mut q);
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
        self.drive(s2, q, Vec::new(), log)
    }

    /// One full expansion: every branch of every enabled move, then
    /// (reduce mode) the ample filter and orbit canonicalization, then the
    /// scramble hook and the canonical sort/dedup that makes generation
    /// order immaterial. The sort is on `(label, state, faults, notes)`
    /// and the dedup on `(label, state, faults)`: where branches of one
    /// move converge, the survivor carries the smallest notes — which is
    /// the branch the witness replay picks.
    pub(crate) fn expand(&self, s: &ProdState) -> Expansion {
        let mut log = SiteLog::new();
        let mut succs = Vec::new();
        for m in self.moves(s) {
            let label = self.label_of(s, &m);
            for micro in self.apply_move(s, &m, &mut log) {
                succs.push(Succ { label: label.clone(), kind: m.clone(), micro, perm: None });
            }
        }
        let mut por_pruned = 0;
        let mut orbit_hits = 0;
        if self.cfg.reduce {
            let before = succs.len();
            succs = por::ample_filter(self, s, succs);
            por_pruned = before - succs.len();
            // `s` is interned, so it is a canonical representative.
            for succ in &mut succs {
                let perm = canon::canonical_perm_from(self, s, &succ.micro.st);
                debug_assert_eq!(perm, canon::canonical_perm(self, &succ.micro.st));
                if !perm.is_identity() {
                    let rep = perm.apply_state(self, &succ.micro.st);
                    if rep != succ.micro.st {
                        orbit_hits += 1;
                    }
                    succ.micro.st = rep;
                    succ.perm = Some(perm);
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
        succs.sort_by(|a, b| {
            (&a.label, &a.micro.st, a.micro.faults, &a.micro.notes)
                .cmp(&(&b.label, &b.micro.st, b.micro.faults, &b.micro.notes))
        });
        succs.dedup_by(|a, b| {
            a.label == b.label && a.micro.st == b.micro.st && a.micro.faults == b.micro.faults
        });
        Expansion { succs, log, por_pruned, orbit_hits }
    }
}
