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

use std::cell::OnceCell;

use failmpi_backend::vocab::AbstractModel;

use super::engine::Ctx;
use super::state::{MoveKind, ProdState, SiteLog, Succ};

/// The enabled moves of each menu branch's end state, computed on first
/// use: a candidate's own menu is read once per other kind and a branch's
/// once per candidate, so each is worth keeping for the whole expansion.
struct Menus<'a> {
    ctx: &'a Ctx<'a>,
    succs: &'a [Succ],
    after: Vec<OnceCell<Vec<MoveKind>>>,
}

impl Menus<'_> {
    /// Whether `kind` is enabled after branch `k`.
    fn enables(&self, k: usize, kind: &MoveKind) -> bool {
        self.after[k]
            .get_or_init(|| self.ctx.moves(&self.succs[k].micro.st))
            .contains(kind)
    }
}

/// Returns the successor list to actually expand: either `succs`
/// unchanged, or — when the ample conditions hold — only the single
/// branch of the first qualifying candidate move.
pub(crate) fn ample_filter(ctx: &Ctx, s: &ProdState, mut succs: Vec<Succ>) -> Vec<Succ> {
    if succs.len() < 2 {
        return succs;
    }
    // Group the menu by kind, in enumeration order. A kind with several
    // branches (a breakpoint's halt/release race, a wave fault's victim
    // choice) cannot anchor the ample set, but it does not forbid one:
    // a deterministic candidate may still commute with it branchwise.
    // Groups hold branch indices into `succs`.
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (k, sc) in succs.iter().enumerate() {
        match groups.iter_mut().find(|g| succs[g[0]].kind == sc.kind) {
            Some(g) => g.push(k),
            None => groups.push(vec![k]),
        }
    }
    if groups.len() < 2 {
        return succs;
    }
    let menus = Menus {
        ctx,
        succs: &succs,
        after: succs.iter().map(|_| OnceCell::new()).collect(),
    };
    // The first single-branch invisible candidate that commutes with
    // every other enabled kind anchors the ample set. Forcing it first
    // can insert steps a minimal freeze path would have left pending —
    // the witness minimization replay in `Explorer::witness`
    // strips those again, so the reported (faults, steps) cost still
    // matches the unreduced exploration.
    let ample = groups.iter().find(|g| {
        g.len() == 1
            && candidate(ctx, s, &succs[g[0]])
            && groups
                .iter()
                .filter(|g2| g2[0] != g[0])
                .all(|g2| commutes_kind(&menus, s, g[0], g2))
    });
    match ample.map(|g| g[0]) {
        Some(k) => vec![succs.swap_remove(k)],
        None => succs,
    }
}

/// Whether `succ` may anchor an ample set: an invisible move whose
/// effects cannot influence the freeze predicate or any other move's
/// enabledness.
fn candidate(ctx: &Ctx, s: &ProdState, succ: &Succ) -> bool {
    match succ.kind {
        MoveKind::Deliver { from, to, msg } => {
            // Exactly one in-flight message targets the receiver: a second
            // one (now or later) could observe the receiver's node change.
            s.msgs.iter().filter(|m| m.1 == to).count() == 1
                && pure_delivery(s, succ, (from, to, msg))
                && invisible(ctx, s, &succ.micro.st)
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
                && invisible(ctx, s, &m.st)
                && ctx.breakpoint_holder(&m.st, r as usize).is_none()
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
    let mut expect = s.msgs.clone();
    let Some(i) = expect.iter().position(|x| *x == triple) else {
        return false;
    };
    expect.remove(i);
    m.st.msgs == expect
}

/// Whether the step from `s` to `s2` left every instance's
/// process-visible surface alone: controlled/suspended flags (read by
/// `rank_suspended`) and the armed-breakpoint status of its current node
/// (read by `breakpoint_holder`). Internal node changes are fine.
fn invisible(ctx: &Ctx, s: &ProdState, s2: &ProdState) -> bool {
    s.insts.iter().zip(&s2.insts).enumerate().all(|(i, (a, b))| {
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
fn commutes_kind(menus: &Menus, s: &ProdState, alpha_at: usize, betas: &[usize]) -> bool {
    if vouched(menus, s, alpha_at, betas) {
        debug_assert!(
            probed(menus, alpha_at, betas),
            "structural commutation the probe refutes: {:?} × {:?}",
            menus.succs[alpha_at].kind,
            menus.succs[betas[0]].kind
        );
        return true;
    }
    probed(menus, alpha_at, betas)
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
fn vouched(menus: &Menus, s: &ProdState, alpha_at: usize, betas: &[usize]) -> bool {
    let alpha = &menus.succs[alpha_at];
    let beta = &menus.succs[betas[0]].kind;
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
        && betas.iter().all(|&k| {
            let m = &menus.succs[k].micro;
            m.faults == 0 && m.notes.is_empty()
        })
}

/// [`commutes_kind`] by firing the engine in both orders.
fn probed(menus: &Menus, alpha_at: usize, betas: &[usize]) -> bool {
    let ctx = menus.ctx;
    let alpha = &menus.succs[alpha_at];
    let beta_kind = &menus.succs[betas[0]].kind;
    // Enabledness must survive the other move — `apply_move` is only
    // defined for enabled moves, so probe the menus first.
    if !menus.enables(alpha_at, beta_kind) {
        return false;
    }
    // The probe states are never interned; their halt logs are discarded
    // (the branches were already proven not to halt from `s`).
    let mut scratch = SiteLog::new();
    let after_alpha = ctx.apply_move(&alpha.micro.st, beta_kind, &mut scratch);
    if after_alpha.len() != betas.len() {
        return false;
    }
    betas.iter().zip(&after_alpha).all(|(&b_at, ab)| {
        let b = &menus.succs[b_at];
        if ab.faults != b.micro.faults || ab.notes != b.micro.notes {
            return false;
        }
        if !menus.enables(b_at, &alpha.kind) {
            return false;
        }
        let ba = ctx.apply_move(&b.micro.st, &alpha.kind, &mut scratch);
        let [y] = ba.as_slice() else {
            return false;
        };
        y.faults == 0 && y.notes.is_empty() && y.st == ab.st
    })
}
