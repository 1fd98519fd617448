//! Partial-order reduction over commuting product moves.
//!
//! The product's state explosion at grid scale comes from interleavings
//! of steps that do not interact: FAIL-plane message deliveries that only
//! advance the receiving automaton's internal node, and per-rank protocol
//! steps (register/ready) of *different* ranks racing each other. When
//! one such step α provably commutes with every other enabled branch, any
//! schedule from the state is a permutation of an α-first schedule
//! reaching the same states, and expanding α alone (an ample set of size
//! one) preserves:
//!
//! * **verdicts** — the freeze predicate is `AbstractVcl::lost_rank`;
//!   ample candidates are required to leave it untouched (pure deliveries
//!   never write the Vcl, rank steps must preserve `lost_rank`
//!   exactly), so a pruned interleaving cannot hide a freeze that the
//!   α-first reordering lacks;
//! * **termination of the postponement** (the classic "ignoring problem")
//!   — structurally: pure deliveries strictly shrink the in-flight
//!   multiset, and register/ready steps strictly advance a rank's
//!   monotone boot/recovery phase, so no cycle exists among pruned
//!   states and a postponed move is taken within finitely many steps;
//! * **minimal witness cost** — forcing the ample move first can insert
//!   steps the unreduced minimal witness would have left pending at the
//!   freeze, so a witness found through the reduced graph is replayed and
//!   greedily stripped of removable zero-fault steps
//!   (`Explorer::witness`); the stripped schedule is still a
//!   valid full-graph path, so its (faults, steps) cost can never drop
//!   below the true minimum.
//!
//! The conditions are deliberately conservative: the candidate must be
//! deterministic (exactly one settled branch) and *invisible* — no
//! faults, no notes, no change to the freeze predicate, no change to any
//! instance's controlled/suspended flags or its armed breakpoint status
//! (the two things rank-move enabledness reads). Commutation with each
//! other enabled kind (branching kinds included, branch by branch) is
//! decided in one of two ways:
//!
//! * **structurally**, for a `Register`/`Ready` candidate against a
//!   `Spawn`, `Register`, `Ready` or `StopClosure` of a unit on another
//!   machine that the protocol vouches for
//!   ([`AbstractModel::independent`]) and whose branches all settled
//!   without a fault or a note — nearly all of the pairs at grid scale
//!   (`vouched`); a debug build fires the engine on these too and asserts
//!   that it agrees;
//! * **by probing** everything else, deliveries included: the engine is
//!   fired in both orders and the end states compared, with enabledness
//!   re-checked on the probe states.
//!
//! Known theoretical gap: pairwise commutation is checked against
//! *enabled* moves only, not against moves a pruned path could enable
//! later. The reduce-vs-full equivalence suite over all runnable builtins
//! and FC fixtures (`tests/reduction.rs`) is the arbiter: if a future
//! scenario shape exploits the gap, a case there fails and these
//! conditions must be tightened until it passes again.

use std::ops::Range;

use failmpi_backend::vocab::AbstractModel;

use super::engine::{Ctx, DriveScratch};
use super::state::{Micro, MoveKind, ProdState, SiteLog, Succ, Vals};

/// The ample filter's buffers, kept by a worker from one expansion to the
/// next: the menu's kinds as runs of successors, the enabled moves after
/// each successor (computed on first use: a candidate's own menu is read
/// once per other kind and a branch's once per candidate), and the two
/// probe orders' branches.
#[derive(Default)]
pub(crate) struct PorScratch {
    groups: Vec<(usize, usize)>,
    menu_ready: Vec<bool>,
    menus: Vec<Vec<MoveKind>>,
    after_alpha: Vec<Micro>,
    after_beta: Vec<Micro>,
}

/// What the commutation checks of one expansion read and reuse.
struct Probe<'a, 'c> {
    ctx: &'a Ctx<'c>,
    succs: &'a [Succ],
    por: &'a mut PorScratch,
    drive: &'a mut DriveScratch,
}

impl Probe<'_, '_> {
    /// Whether `kind` is enabled after branch `k`.
    fn enables(&mut self, k: usize, kind: &MoveKind) -> bool {
        if !self.por.menu_ready[k] {
            let vals = self.ctx.vals(&self.drive.pending);
            self.ctx.moves(vals, &self.succs[k].micro.st, &mut self.por.menus[k]);
            self.por.menu_ready[k] = true;
        }
        self.por.menus[k].contains(kind)
    }
}

/// Narrows `succs` to the successors to actually expand: all of them, or
/// — when the ample conditions hold — only the single branch of the first
/// qualifying candidate move.
pub(crate) fn ample_filter(
    ctx: &Ctx,
    s: &ProdState,
    succs: &mut Vec<Succ>,
    por: &mut PorScratch,
    drive: &mut DriveScratch,
) {
    if succs.len() < 2 {
        return;
    }
    // Group the menu by kind, in enumeration order: each move's branches
    // are one run. A kind with several branches (a breakpoint's
    // halt/release race, a wave fault's victim choice) cannot anchor the
    // ample set, but it does not forbid one: a deterministic candidate may
    // still commute with it branchwise. Groups are index ranges of
    // `succs`.
    por.groups.clear();
    for (k, sc) in succs.iter().enumerate() {
        match por.groups.last_mut() {
            Some(g) if succs[g.0].kind == sc.kind => g.1 = k + 1,
            _ => por.groups.push((k, k + 1)),
        }
    }
    debug_assert!(
        (por.groups.iter().enumerate())
            .all(|(i, g)| por.groups[..i].iter().all(|h| succs[h.0].kind != succs[g.0].kind)),
        "one run per enabled move"
    );
    if por.groups.len() < 2 {
        return;
    }
    por.menu_ready.clear();
    por.menu_ready.resize(succs.len(), false);
    if por.menus.len() < succs.len() {
        por.menus.resize_with(succs.len(), Vec::new);
    }
    let groups = std::mem::take(&mut por.groups);
    let mut probe = Probe { ctx, succs, por, drive };
    // The first single-branch invisible candidate that commutes with
    // every other enabled kind anchors the ample set. Forcing it first
    // can insert steps a minimal freeze path would have left pending —
    // the witness minimization replay in `Explorer::witness`
    // strips those again, so the reported (faults, steps) cost still
    // matches the unreduced exploration.
    let ample = groups.iter().find(|g| {
        g.1 - g.0 == 1
            && candidate(ctx, ctx.vals(&probe.drive.pending), s, &succs[g.0])
            && groups
                .iter()
                .filter(|g2| g2.0 != g.0)
                .all(|&(b0, b1)| commutes_kind(&mut probe, s, g.0, b0..b1))
    });
    let ample = ample.map(|g| g.0);
    probe.por.groups = groups;
    if let Some(k) = ample {
        succs.swap(0, k);
        succs.truncate(1);
    }
}

/// Whether `succ` may anchor an ample set: an invisible move whose
/// effects cannot influence the freeze predicate or any other move's
/// enabledness.
fn candidate(ctx: &Ctx, vals: Vals, s: &ProdState, succ: &Succ) -> bool {
    match succ.kind {
        MoveKind::Deliver { from, to, msg } => {
            // Exactly one in-flight message targets the receiver: a second
            // one (now or later) could observe the receiver's node change.
            s.msgs.iter().filter(|m| m.1 == to).count() == 1
                && pure_delivery(s, succ, (from, to, msg))
                && invisible(ctx, vals, s, &succ.micro.st)
        }
        MoveKind::Register(r) | MoveKind::Ready(r) => {
            let m = &succ.micro;
            // The rank's own Vcl slot advances; everything the verdict or
            // another move could read must stay put: no faults, no sends,
            // no freeze-predicate change, no flag/breakpoint changes. A
            // registration additionally must not walk straight into an
            // armed breakpoint — that would put a kill branch in play
            // that the pre-move state lacked.
            m.faults == 0
                && m.notes.is_empty()
                && m.st.msgs == s.msgs
                && m.st.proto.lost_rank() == s.proto.lost_rank()
                && invisible(ctx, vals, s, &m.st)
                && ctx.breakpoint_holder(vals, &m.st, r as usize).is_none()
        }
        _ => false,
    }
}

/// A delivery branch that changed nothing but the receiving automaton's
/// internal state: no faults, no notes, no sends, Vcl untouched.
fn pure_delivery(s: &ProdState, succ: &Succ, triple: (u8, u8, u8)) -> bool {
    let m = &succ.micro;
    if m.faults != 0 || !m.notes.is_empty() || m.st.proto != s.proto {
        return false;
    }
    // msgs must be exactly s.msgs minus the delivered triple (no sends).
    let Some(i) = s.msgs.iter().position(|x| *x == triple) else {
        return false;
    };
    let (before, after) = (&s.msgs[..i], &s.msgs[i + 1..]);
    m.st.msgs.len() == before.len() + after.len()
        && m.st.msgs[..i] == *before
        && m.st.msgs[i..] == *after
}

/// Whether the step from `s` to `s2` left every instance's
/// process-visible surface alone: controlled/suspended flags (read by
/// `rank_suspended`) and the armed-breakpoint status of its current node
/// (read by `breakpoint_holder`). Internal node changes are fine.
fn invisible(ctx: &Ctx, vals: Vals, s: &ProdState, s2: &ProdState) -> bool {
    s.insts.iter().zip(&s2.insts).enumerate().all(|(i, (&a, &b))| {
        let (a, b) = (&vals[a], &vals[b]);
        a.ctl.controlled == b.ctl.controlled
            && a.ctl.suspended == b.ctl.suspended
            && (a.node == b.node
                || ctx.breakpoint_armed(i, a.node) == ctx.breakpoint_armed(i, b.node))
    })
}

/// Branchwise commutation of the single-branch candidate `alpha` with
/// the (possibly branching) kind whose menu branches are `betas`: the
/// kind stays enabled after `alpha` with the same branch profile (count,
/// faults, notes, in order), `alpha` stays enabled and pure from every
/// branch, and both orders converge branch by branch. Decided from the
/// protocol where it vouches for the pair, by firing both orders
/// otherwise.
fn commutes_kind(probe: &mut Probe, s: &ProdState, alpha_at: usize, betas: Range<usize>) -> bool {
    if vouched(probe.succs, s, alpha_at, betas.clone()) {
        debug_assert!(
            probed(probe, alpha_at, betas.clone()),
            "structural commutation the probe refutes: {:?} × {:?}",
            probe.succs[alpha_at].kind,
            probe.succs[betas.start].kind
        );
        return true;
    }
    probed(probe, alpha_at, betas)
}

/// Whether the pair commutes without firing the engine: the candidate is
/// `Register(u)`/`Ready(u)` and changed nothing but the protocol, the
/// other kind is a protocol step of a unit `v` on another machine that
/// the model calls independent of it, and every branch of that kind
/// settled with no fault and no note. The candidate then feeds no
/// automaton and is enabled by the controllers of `u`'s machine alone;
/// the other step's lifecycle hook reaches only the controllers of `v`'s
/// machine, and without a fault or a note none of them halted. So both
/// orders fire the same automaton inputs on the same instance states,
/// and the protocol's own commutation does the rest.
fn vouched(succs: &[Succ], s: &ProdState, alpha_at: usize, betas: Range<usize>) -> bool {
    let alpha = &succs[alpha_at];
    let beta = &succs[betas.start].kind;
    // A candidate with a protocol step is a `Register` or a `Ready`.
    let (Some(a), Some(b)) = (alpha.kind.protocol_step(), beta.protocol_step()) else {
        return false;
    };
    let (Some(u), Some(v)) = (a.boot_unit(), b.boot_unit()) else {
        return false;
    };
    let host = |u: u8| s.proto.unit(u as usize).host;
    host(u) != host(v)
        && s.proto.independent(a, b)
        && alpha.micro.st.insts == s.insts
        && succs[betas].iter().all(|b| b.micro.faults == 0 && b.micro.notes.is_empty())
}

/// [`commutes_kind`] by firing the engine in both orders.
fn probed(probe: &mut Probe, alpha_at: usize, betas: Range<usize>) -> bool {
    let ctx = probe.ctx;
    let succs = probe.succs;
    let alpha = &succs[alpha_at];
    let beta_kind = &succs[betas.start].kind;
    // Enabledness must survive the other move — `apply_move` is only
    // defined for enabled moves, so probe the menus first.
    if !probe.enables(alpha_at, beta_kind) {
        return false;
    }
    // The probe states are never interned; their halt logs are discarded
    // (the branches were already proven not to halt from `s`).
    let mut log = SiteLog::new();
    let mut after_alpha = std::mem::take(&mut probe.por.after_alpha);
    let mut ba = std::mem::take(&mut probe.por.after_beta);
    ctx.apply_move(&alpha.micro.st, beta_kind, &mut log, probe.drive, &mut after_alpha);
    let commutes = after_alpha.len() == betas.len()
        && betas.zip(&after_alpha).all(|(b_at, ab)| {
            let b = &succs[b_at];
            if ab.faults != b.micro.faults || ab.notes != b.micro.notes {
                return false;
            }
            if !probe.enables(b_at, &alpha.kind) {
                return false;
            }
            ba.clear();
            ctx.apply_move(&b.micro.st, &alpha.kind, &mut log, probe.drive, &mut ba);
            let [y] = ba.as_slice() else {
                return false;
            };
            y.faults == 0 && y.notes.is_empty() && y.st == ab.st
        });
    after_alpha.clear();
    ba.clear();
    probe.por.after_alpha = after_alpha;
    probe.por.after_beta = ba;
    commutes
}
