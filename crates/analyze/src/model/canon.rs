//! Machine/rank symmetry: the orbit relation, the static symmetry
//! profile, and the canonical-representative map used to intern one state
//! per orbit.
//!
//! ## The orbit relation
//!
//! The deployment is one group member per machine plus the abstract Vcl's
//! rank table, so a product state has two independent label spaces:
//!
//! * **machine ids** — a member's instance index encodes its machine
//!   (`n_suggested + g * n_hosts + h`), the Vcl stores a host per rank and
//!   a free-host list, and in-flight/inbox message endpoints name member
//!   instances. Machines that no send expression can statically single
//!   out are interchangeable: relabelling them commutes with every
//!   firing rule (automata are per-class, the protocol treats hosts as
//!   opaque — see `AbstractVcl::relabel`).
//! * **rank ids** — ranks appear only in the Vcl table and in the
//!   op-program communication skeleton. When the skeleton is empty or
//!   complete, rank ids are interchangeable the same way.
//!
//! Two states are in the same orbit iff some [`Perm`] maps one onto the
//! other. Interning only the canonical representative shrinks the
//! reachable set by up to the orbit size (`(n_hosts - pinned)! × n_ranks!`
//! in the fully symmetric case) without losing any verdict: a freeze is
//! reachable from a state iff it is reachable from every orbit member, at
//! identical (faults, steps) cost.
//!
//! ## Soundness gate: the symmetry profile
//!
//! [`profile_of`] decides, per scenario, which labels are actually
//! opaque. A machine is **pinned** (excluded from permutation) when any
//! `Send` to a group indexes it through an expression with a known
//! constant range; if a group index is *sometimes* a runtime-known value
//! that the range analysis cannot bound, machine symmetry is switched off
//! entirely. The "never known" proof is a fixpoint over variable
//! definitions (`maybe_known`): the builtins' `FAIL_RANDOM(0, N)` indices
//! stay `Top` forever, so their fan-out is host-uniform and symmetric.
//! Rank symmetry requires the comm skeleton to be empty or complete.
//! Everything here over-approximates asymmetry: a wrongly-pinned host only
//! costs reduction, never correctness.

use std::cmp::Ordering;

use failmpi_backend::vocab::AbstractModel;
use failmpi_backend::BackendKind;
use failmpi_core::fire::Machine;
use failmpi_core::lang::compile::{Action, Class, Dest, Expr, Scenario};
use failmpi_mpichv::AbstractPhase;

use super::engine::Ctx;
use super::state::{Inst, InstState, MoveKind, ProdState};
use super::ModelCheckConfig;

/// A product-state relabelling: `hosts[h]` is machine `h`'s new id,
/// `ranks[r]` is rank `r`'s new id. Suggested (machine-less) instances
/// are fixed points by construction.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct Perm {
    pub(crate) hosts: Vec<u8>,
    pub(crate) ranks: Vec<u8>,
}

/// What [`Perm::relabel`] works in: the instances by their new place,
/// and the in-flight messages as they were.
#[derive(Default)]
pub(crate) struct Relabel {
    insts: Vec<Option<Inst>>,
    msgs: Vec<(u8, u8, u8)>,
}

/// `(group, machine)` of a group member — instance
/// `n_suggested + group * n_hosts + machine` — or `None` for a suggested
/// (machine-less) instance.
fn member_of(ctx: &Ctx, i: usize) -> Option<(usize, usize)> {
    let k = i.checked_sub(ctx.n_suggested)?;
    Some((k / ctx.cfg.n_hosts, k % ctx.cfg.n_hosts))
}

impl Perm {
    pub(crate) fn identity(n_hosts: usize, n_ranks: usize) -> Perm {
        Perm {
            hosts: (0..n_hosts as u8).collect(),
            ranks: (0..n_ranks as u8).collect(),
        }
    }

    pub(crate) fn is_identity(&self) -> bool {
        self.hosts.iter().enumerate().all(|(i, &v)| v as usize == i)
            && self.ranks.iter().enumerate().all(|(i, &v)| v as usize == i)
    }

    /// `self` as one row: the machine labels, then the unit slots.
    pub(crate) fn write_flat(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.hosts);
        out.extend_from_slice(&self.ranks);
    }

    /// The permutation [`Perm::write_flat`] wrote at the start of `row`.
    pub(crate) fn from_flat(row: &[u8], n_hosts: usize, n_units: usize) -> Perm {
        Perm {
            hosts: row[..n_hosts].to_vec(),
            ranks: row[n_hosts..n_hosts + n_units].to_vec(),
        }
    }

    pub(crate) fn invert(&self) -> Perm {
        let mut hosts = vec![0u8; self.hosts.len()];
        for (i, &v) in self.hosts.iter().enumerate() {
            hosts[v as usize] = i as u8;
        }
        let mut ranks = vec![0u8; self.ranks.len()];
        for (i, &v) in self.ranks.iter().enumerate() {
            ranks[v as usize] = i as u8;
        }
        Perm { hosts, ranks }
    }

    /// `self` then `other`: `(self.then(other))[x] = other[self[x]]`.
    pub(crate) fn then(&self, other: &Perm) -> Perm {
        Perm {
            hosts: self.hosts.iter().map(|&h| other.hosts[h as usize]).collect(),
            ranks: self.ranks.iter().map(|&r| other.ranks[r as usize]).collect(),
        }
    }

    /// Where instance `i` lands: suggested instances are fixed, a group
    /// member follows its machine.
    pub(crate) fn map_inst(&self, ctx: &Ctx, i: usize) -> usize {
        match member_of(ctx, i) {
            None => i,
            Some((g, h)) => ctx.n_suggested + g * ctx.cfg.n_hosts + self.hosts[h] as usize,
        }
    }

    /// The relabelled product state.
    pub(crate) fn apply_state(&self, ctx: &Ctx, s: &ProdState) -> ProdState {
        let mut out = s.clone();
        self.relabel(ctx, &mut out, &mut Relabel::default());
        out
    }

    /// Relabels `s` in place, working in `buf`; returns whether that
    /// changed it. An instance keeps its allocation unless its inbox names
    /// a sender the relabelling moves, and a protocol table the
    /// relabelling leaves as it is stays shared.
    pub(crate) fn relabel(&self, ctx: &Ctx, s: &mut ProdState, buf: &mut Relabel) -> bool {
        let sender_moves = |e: &(u8, u8)| self.moves_sender(ctx, e);
        let mut changed = (s.insts.iter().enumerate())
            .any(|(i, inst)| !self.relabels_to(ctx, inst, &s.insts[self.map_inst(ctx, i)]));
        buf.insts.clear();
        buf.insts.resize_with(s.insts.len(), || None);
        for (i, inst) in s.insts.drain(..).enumerate() {
            let inst = if inst.inbox.iter().any(sender_moves) {
                let mut st = InstState::clone(&inst);
                for e in &mut st.inbox {
                    e.0 = self.map_inst(ctx, e.0 as usize) as u8;
                }
                Inst::new(st)
            } else {
                inst
            };
            buf.insts[self.map_inst(ctx, i)] = Some(inst);
        }
        s.insts.extend(buf.insts.drain(..).map(|i| i.expect("a permutation fills every place")));

        buf.msgs.clear();
        buf.msgs.extend_from_slice(&s.msgs);
        for (from, to, _) in &mut s.msgs {
            *from = self.map_inst(ctx, *from as usize) as u8;
            *to = self.map_inst(ctx, *to as usize) as u8;
        }
        s.msgs.sort_unstable();
        changed |= s.msgs != buf.msgs;

        let proto = s.proto.relabel(&self.hosts, &self.ranks);
        changed |= proto != s.proto;
        s.proto = proto;
        changed
    }

    /// Whether the relabelling moves the sender of inbox entry `e`.
    fn moves_sender(&self, ctx: &Ctx, e: &(u8, u8)) -> bool {
        self.map_inst(ctx, e.0 as usize) != e.0 as usize
    }

    /// Whether relabelling instance `a` yields `b`.
    fn relabels_to(&self, ctx: &Ctx, a: &Inst, b: &Inst) -> bool {
        if !a.inbox.iter().any(|e| self.moves_sender(ctx, e)) {
            return a == b;
        }
        let Machine { node, vars, inbox, ctl } = &**a;
        let relabelled = |&(from, msg): &(u8, u8)| (self.map_inst(ctx, from as usize) as u8, msg);
        *node == b.node
            && *vars == b.vars
            && *ctl == b.ctl
            && inbox.len() == b.inbox.len()
            && inbox.iter().map(relabelled).eq(b.inbox.iter().copied())
    }

    /// The same structural move in the relabelled frame.
    pub(crate) fn apply_move(&self, ctx: &Ctx, m: &MoveKind) -> MoveKind {
        match m {
            MoveKind::Deliver { from, to, msg } => MoveKind::Deliver {
                from: self.map_inst(ctx, *from as usize) as u8,
                to: self.map_inst(ctx, *to as usize) as u8,
                msg: *msg,
            },
            MoveKind::Register(r) => MoveKind::Register(self.ranks[*r as usize]),
            MoveKind::Ready(r) => MoveKind::Ready(self.ranks[*r as usize]),
            MoveKind::Breakpoint { rank, holder } => MoveKind::Breakpoint {
                rank: self.ranks[*rank as usize],
                holder: self.map_inst(ctx, *holder),
            },
            MoveKind::Spawn(r) => MoveKind::Spawn(self.ranks[*r as usize]),
            MoveKind::StopClosure(r) => MoveKind::StopClosure(self.ranks[*r as usize]),
            MoveKind::Timer { inst, slot } => MoveKind::Timer {
                inst: self.map_inst(ctx, *inst),
                slot: *slot,
            },
            MoveKind::WaveStart => MoveKind::WaveStart,
            MoveKind::WaveCommit => MoveKind::WaveCommit,
        }
    }
}

/// What the scenario's text allows the reducer to permute.
#[derive(Clone, Debug)]
pub(crate) struct SymmetryProfile {
    /// Machines may be relabelled (the ones in `movable`).
    pub(crate) host_sym: bool,
    /// The machines a permutation may move, ascending: those no send can
    /// statically single out. Empty when machine symmetry is off or fewer
    /// than two remain — every machine is then a fixed point.
    pub(crate) movable: Vec<usize>,
    /// Rank ids may be relabelled.
    pub(crate) rank_sym: bool,
}

/// Computes the symmetry a scenario (plus op-program skeleton) admits.
pub(crate) fn profile_of(
    sc: &Scenario,
    params: &[i64],
    cfg: &ModelCheckConfig,
    comm_peers: &[Vec<u32>],
) -> SymmetryProfile {
    let n_hosts = cfg.n_hosts;
    let mut pinned = vec![false; n_hosts];
    let mut host_sym = true;
    let mks: Vec<Vec<bool>> = sc.classes.iter().map(|c| class_maybe_known(c, params)).collect();
    for (c, class) in sc.classes.iter().enumerate() {
        for node in &class.nodes {
            for tr in &node.transitions {
                for a in &tr.actions {
                    let Action::Send { dest: Dest::Group(_, idx), .. } = a else {
                        continue;
                    };
                    match idx.const_range(params) {
                        Some((l, h)) => {
                            let lo = l.max(0);
                            let hi = h.min(n_hosts as i64 - 1);
                            if lo <= 0 && hi >= n_hosts as i64 - 1 {
                                // Whole-group fan-out: host-uniform.
                            } else {
                                for p in lo..=hi.max(lo - 1) {
                                    pinned[p as usize] = true;
                                }
                            }
                        }
                        None => {
                            // Unbounded index: symmetric only if it can
                            // never evaluate to a Known host id (then the
                            // send always fans out to the whole group).
                            if expr_maybe_known(idx, &mks[c], params) {
                                host_sym = false;
                            }
                        }
                    }
                }
            }
        }
    }

    // Replica slots are not interchangeable with primary slots (the unit
    // space is heterogeneous), so rank symmetry only applies to the
    // rank-per-unit backends.
    let rank_sym = cfg.backend != BackendKind::Replica
        && cfg.n_ranks >= 2
        && (comm_peers.is_empty()
            || (comm_peers.len() >= cfg.n_ranks
                && (0..cfg.n_ranks).all(|r| comm_peers[r].len() == cfg.n_ranks - 1)));

    let mut movable: Vec<usize> = (0..n_hosts).filter(|&h| host_sym && !pinned[h]).collect();
    if movable.len() < 2 {
        movable.clear();
    }
    SymmetryProfile { host_sym, movable, rank_sym }
}

/// Fixpoint over a class's variable definitions: `true` means the slot
/// might ever hold a [`VarVal::Known`] value in some reachable state.
fn class_maybe_known(class: &Class, params: &[i64]) -> Vec<bool> {
    let n = class.var_names.len();
    let mut mk = vec![false; n];
    // Initial values: slots the class never initializes start Known(0);
    // initialized slots start at their init expression's abstraction.
    let mut covered = vec![false; n];
    for (slot, _) in &class.var_init {
        covered[*slot] = true;
    }
    if let Some(node0) = class.nodes.first() {
        for (slot, _) in &node0.always {
            covered[*slot] = true;
        }
    }
    for (i, c) in covered.iter().enumerate() {
        if !c {
            mk[i] = true;
        }
    }
    // Probes write Known values directly.
    for (_, slot) in &class.probes {
        mk[*slot] = true;
    }
    loop {
        let mut changed = false;
        let visit = |slot: usize, e: &Expr, mk: &mut Vec<bool>| {
            if !mk[slot] && expr_maybe_known(e, mk, params) {
                mk[slot] = true;
                true
            } else {
                false
            }
        };
        for (slot, e) in &class.var_init {
            changed |= visit(*slot, e, &mut mk);
        }
        for node in &class.nodes {
            for (slot, e) in &node.always {
                changed |= visit(*slot, e, &mut mk);
            }
            for tr in &node.transitions {
                for a in &tr.actions {
                    if let Action::Assign(slot, e) = a {
                        changed |= visit(*slot, e, &mut mk);
                    }
                }
            }
        }
        if !changed {
            return mk;
        }
    }
}

/// Whether `e` can evaluate to [`VarVal::Known`] under `mk`'s slot facts
/// (mirrors the abstract domain's `eval` Known-propagation, over-approximated).
fn expr_maybe_known(e: &Expr, mk: &[bool], params: &[i64]) -> bool {
    if e.fold_const(params).is_some() {
        return true;
    }
    match e {
        Expr::Int(_) | Expr::Param(_) => true,
        Expr::Var(i) => mk[*i],
        Expr::Rand(..) => matches!(e.const_range(params), Some((l, h)) if l == h),
        Expr::Bin(_, a, b) => {
            expr_maybe_known(a, mk, params) && expr_maybe_known(b, mk, params)
        }
        Expr::Neg(a) => expr_maybe_known(a, mk, params),
    }
}

// ---------------------------------------------------------------------------
// Canonicalization
// ---------------------------------------------------------------------------
//
// Machines are ordered by everything observable about them in the state,
// with other-machine identities abstracted away so the order is invariant
// under permutations of the *other* unpinned machines. Imperfect
// tie-breaking is sound — it only merges fewer orbits. The comparison is
// lexicographic over, in this order:
//
// 1. per group, the member's (node, vars, abstracted inbox, armed,
//    controlled, suspended) — inbox senders become (tag, id-or-group,
//    same-machine, msg) tuples;
// 2. the protocol's view: the sorted (phase, incarnation) pairs hosted on
//    the machine, then its spare-FIFO position (none sorts first);
// 3. the sorted in-flight messages touching the machine, endpoints
//    abstracted the same way;
// 4. the unit ids hosted here — only when ranks are NOT symmetric (when
//    they are, rank identity is erased by the rank pass instead).
//
// The order is part of the checker's observable behaviour: it picks the
// orbit representative, so it decides which states are interned and what
// the digest reads. `tests::HostKey` materialises the same key per machine
// with a derived `Ord` and holds the comparator to it.

/// How instance `i` reads from machine `h`: `(0, i)` for a suggested
/// instance, `(1, group)` for `h`'s own member, `(2, group)` for another
/// machine's.
fn endpoint_code(ctx: &Ctx, i: usize, h: usize) -> (u8, u8) {
    match member_of(ctx, i) {
        None => (0, i as u8),
        Some((g, at)) if at == h => (1, g as u8),
        Some((g, _)) => (2, g as u8),
    }
}

/// Rows grouped by machine: sorted by `(machine, row)`, so machine `h`'s
/// rows are one sorted run.
struct ByHost<T> {
    rows: Vec<(u8, T)>,
    /// `start[h]..start[h + 1]` is machine `h`'s run.
    start: Vec<u32>,
}

impl<T> Default for ByHost<T> {
    fn default() -> ByHost<T> {
        ByHost { rows: Vec::new(), start: Vec::new() }
    }
}

impl<T: Ord + Copy> ByHost<T> {
    /// Sorts the rows pushed since the last `clear` into runs.
    fn index(&mut self, n_hosts: usize) {
        self.rows.sort_unstable();
        self.start.clear();
        self.start.resize(n_hosts + 1, 0);
        for &(h, _) in &self.rows {
            self.start[h as usize + 1] += 1;
        }
        for h in 0..n_hosts {
            self.start[h + 1] += self.start[h];
        }
    }

    fn run(&self, h: usize) -> impl Iterator<Item = T> + '_ {
        self.rows[self.start[h] as usize..self.start[h + 1] as usize]
            .iter()
            .map(|&(_, row)| row)
    }
}

/// The per-machine views of one state that the machine order compares
/// (items 2–4 above), rebuilt in place for each state that needs them.
#[derive(Default)]
struct HostTables {
    hosted: ByHost<(AbstractPhase, u8)>,
    /// Position in the protocol's spare-machine FIFO, by machine.
    spare_pos: Vec<Option<usize>>,
    msgs: ByHost<(u8, u8, u8, u8, u8)>,
    /// Hosted unit ids; empty under rank symmetry.
    units: ByHost<u8>,
}

impl HostTables {
    fn fill(&mut self, ctx: &Ctx, s: &ProdState) {
        let n_hosts = ctx.cfg.n_hosts;
        self.spare_pos.clear();
        self.spare_pos.resize(n_hosts, None);
        for (pos, &h) in s.proto.spare_hosts().iter().enumerate().rev() {
            self.spare_pos[h as usize] = Some(pos);
        }
        self.msgs.rows.clear();
        for &(f, t, m) in &s.msgs {
            let from_at = member_of(ctx, f as usize).map(|(_, h)| h);
            let to_at = member_of(ctx, t as usize).map(|(_, h)| h);
            for h in [from_at, to_at.filter(|_| to_at != from_at)].into_iter().flatten() {
                let fc = endpoint_code(ctx, f as usize, h);
                let tc = endpoint_code(ctx, t as usize, h);
                self.msgs.rows.push((h as u8, (fc.0, fc.1, tc.0, tc.1, m)));
            }
        }
        self.msgs.index(n_hosts);
        let slots = s.proto.slots();
        self.hosted.rows.clear();
        self.hosted.rows.extend(slots.iter().map(|r| (r.host, (r.phase, r.incarnation))));
        self.hosted.index(n_hosts);
        self.units.rows.clear();
        if !ctx.profile.rank_sym {
            self.units.rows.extend(slots.iter().enumerate().map(|(u, r)| (r.host, u as u8)));
        }
        self.units.index(n_hosts);
    }
}

/// The inbox of machine `h`'s member `st` with senders abstracted:
/// `(tag, id-or-group, same-machine, msg)` per entry, in FIFO order.
fn inbox_codes<'a>(
    ctx: &'a Ctx,
    st: &'a InstState,
    h: usize,
) -> impl Iterator<Item = (u8, u8, u8, u8)> + 'a {
    st.inbox.iter().map(move |&(from, msg)| {
        let (tag, idx) = endpoint_code(ctx, from as usize, h);
        (tag, idx, u8::from(tag == 1), msg)
    })
}

/// Machine `a` against machine `b` in state `s` — the order documented at
/// the top of this section, over borrowed data.
fn cmp_machines(ctx: &Ctx, s: &ProdState, t: &HostTables, a: usize, b: usize) -> Ordering {
    for g in 0..ctx.n_groups {
        let base = ctx.n_suggested + g * ctx.cfg.n_hosts;
        let (x, y): (&InstState, &InstState) = (&s.insts[base + a], &s.insts[base + b]);
        let ord = x
            .node
            .cmp(&y.node)
            .then_with(|| x.vars.cmp(&y.vars))
            .then_with(|| inbox_codes(ctx, x, a).cmp(inbox_codes(ctx, y, b)))
            .then_with(|| x.ctl.cmp(&y.ctl));
        if ord != Ordering::Equal {
            return ord;
        }
    }
    t.hosted
        .run(a)
        .cmp(t.hosted.run(b))
        .then_with(|| t.spare_pos[a].cmp(&t.spare_pos[b]))
        .then_with(|| t.msgs.run(a).cmp(t.msgs.run(b)))
        .then_with(|| t.units.run(a).cmp(t.units.run(b)))
}

/// Everything canonicalisation builds for one state and drops before the
/// next, kept by a worker from one successor to the next; the result is
/// [`CanonScratch::perm`].
#[derive(Default)]
pub(crate) struct CanonScratch {
    tables: HostTables,
    /// Movable machines in canonical order, then those to re-place.
    order: Vec<usize>,
    moved: Vec<usize>,
    /// By machine: whether the move touched it.
    hit: Vec<bool>,
    /// By machine: its position in the parent's and the successor's spare
    /// FIFO.
    was_at: Vec<Option<usize>>,
    is_at: Vec<Option<usize>>,
    /// Unit slots keyed for the rank sort.
    keyed: Vec<((AbstractPhase, u8, u8), usize)>,
    /// The permutation last computed.
    pub(crate) perm: Perm,
    /// The buffers of [`Perm::relabel`].
    pub(crate) relabel: Relabel,
}

/// Puts the movable machines of `s` in canonical order, in `scr.order`;
/// ties keep machine-id order.
fn machine_order(ctx: &Ctx, s: &ProdState, scr: &mut CanonScratch) {
    scr.order.clear();
    scr.order.extend_from_slice(&ctx.profile.movable);
    if !scr.order.is_empty() {
        scr.tables.fill(ctx, s);
        let tables = &scr.tables;
        scr.order.sort_by(|&a, &b| cmp_machines(ctx, s, tables, a, b).then(a.cmp(&b)));
    }
}

/// The permutation that maps `s` onto its canonical orbit representative.
/// Movable machines are put in [`machine_order`] and renamed to the
/// movable labels in ascending order; rank slots are then sorted by
/// (phase, relabelled host, incarnation). Any deterministic sort yields a
/// sound representative — it is some member of the orbit — and determinism
/// makes the interned set canonical.
pub(crate) fn canonical_perm(ctx: &Ctx, s: &ProdState) -> Perm {
    let mut scr = CanonScratch::default();
    full_perm(ctx, s, &mut scr);
    scr.perm
}

/// [`canonical_perm`] into `scr.perm`.
fn full_perm(ctx: &Ctx, s: &ProdState, scr: &mut CanonScratch) {
    machine_order(ctx, s, scr);
    perm_of(ctx, s, &scr.order, ctx.profile.rank_sym, &mut scr.perm, &mut scr.keyed);
}

/// Marks in `scr.hit` the machines `s`'s key may differ on from
/// `parent`'s: a group member that is not the parent's allocation, a unit
/// slot that changed (its old and its new host), a spare-FIFO membership
/// that changed, an in-flight message added or removed (both endpoints'
/// machines). Returns whether any unit slot changed, or `None` when the
/// spare machines both states keep change relative order, or a changed
/// FIFO lists a machine twice: the parent's order then no longer orders
/// them.
fn touched(ctx: &Ctx, parent: &ProdState, s: &ProdState, scr: &mut CanonScratch) -> Option<bool> {
    let n_hosts = ctx.cfg.n_hosts;
    let hit = &mut scr.hit;
    hit.clear();
    hit.resize(n_hosts, false);
    let mut mark = |i: u8| {
        if let Some((_, h)) = member_of(ctx, i as usize) {
            hit[h] = true;
        }
    };

    for (i, (a, b)) in parent.insts.iter().zip(&s.insts).enumerate().skip(ctx.n_suggested) {
        if !a.same(b) {
            mark(i as u8);
        }
    }

    // One merge walk over the two sorted multisets.
    let (was, is) = (&parent.msgs, &s.msgs);
    let (mut i, mut j) = (0, 0);
    loop {
        let (from, to, _) = match (was.get(i), is.get(j)) {
            (None, None) => break,
            (Some(a), Some(b)) if a == b => {
                i += 1;
                j += 1;
                continue;
            }
            (Some(a), Some(b)) if b < a => {
                j += 1;
                *b
            }
            (Some(a), _) => {
                i += 1;
                *a
            }
            (None, Some(b)) => {
                j += 1;
                *b
            }
        };
        mark(from);
        mark(to);
    }

    let mut slots = false;
    for (a, b) in parent.proto.slots().iter().zip(s.proto.slots()) {
        if a != b {
            hit[a.host as usize] = true;
            hit[b.host as usize] = true;
            slots = true;
        }
    }

    let (before, after) = (parent.proto.spare_hosts(), s.proto.spare_hosts());
    if before != after {
        let positions = |fifo: &[u8], pos: &mut Vec<Option<usize>>| {
            pos.clear();
            pos.resize(n_hosts, None);
            fifo.iter().enumerate().all(|(p, &h)| pos[h as usize].replace(p).is_none())
        };
        if !positions(before, &mut scr.was_at) || !positions(after, &mut scr.is_at) {
            return None;
        }
        let mut last = None;
        for &h in after {
            match scr.was_at[h as usize] {
                Some(p) if last > Some(p) => return None,
                Some(p) => last = Some(p),
                None => hit[h as usize] = true,
            }
        }
        for &h in before {
            if scr.is_at[h as usize].is_none() {
                hit[h as usize] = true;
            }
        }
    }
    Some(slots)
}

/// [`canonical_perm`] of `s`, a successor of the canonical representative
/// `parent`, into `scr.perm`, at a cost proportional to what the move
/// changed. The parent's movable machines are in canonical order by
/// construction (ascending ids: it is its own representative). A machine
/// the move did not touch keeps its key, and the spare machines both keep
/// only shift position together, so the untouched ones stay in the
/// parent's order; each touched one is inserted by binary search under
/// the same strict order. The rank sort is skipped where it cannot move
/// anything: the machines kept their labels and no unit slot changed.
pub(crate) fn canonical_perm_from(
    ctx: &Ctx,
    parent: &ProdState,
    s: &ProdState,
    scr: &mut CanonScratch,
) {
    let Some(slots) = touched(ctx, parent, s, scr) else {
        return full_perm(ctx, s, scr);
    };
    let movable = &ctx.profile.movable;
    scr.order.clear();
    scr.moved.clear();
    for &h in movable {
        if scr.hit[h] {
            scr.moved.push(h);
        } else {
            scr.order.push(h);
        }
    }
    if !scr.moved.is_empty() {
        scr.tables.fill(ctx, s);
        for &h in &scr.moved {
            let at = scr.order.partition_point(|&x| {
                cmp_machines(ctx, s, &scr.tables, x, h).then(x.cmp(&h)) == Ordering::Less
            });
            scr.order.insert(at, h);
        }
    }
    let rank_sort = ctx.profile.rank_sym && (slots || scr.order != *movable);
    perm_of(ctx, s, &scr.order, rank_sort, &mut scr.perm, &mut scr.keyed);
}

/// Writes into `perm` the permutation that renames the movable machines of
/// `s`, listed in `order`, to the movable labels in ascending order, and —
/// with `rank_sort` — sorts the rank slots by (phase, relabelled host,
/// incarnation), keyed in `keyed`. Without it the rank map is the
/// identity.
fn perm_of(
    ctx: &Ctx,
    s: &ProdState,
    order: &[usize],
    rank_sort: bool,
    perm: &mut Perm,
    keyed: &mut Vec<((AbstractPhase, u8, u8), usize)>,
) {
    let n_units = ctx.cfg.n_units();
    let host_map = &mut perm.hosts;
    host_map.clear();
    host_map.extend(0..ctx.cfg.n_hosts as u8);
    for (h, label) in order.iter().zip(&ctx.profile.movable) {
        host_map[*h] = *label as u8;
    }

    let rank_map = &mut perm.ranks;
    rank_map.clear();
    rank_map.extend(0..n_units as u8);
    if rank_sort {
        keyed.clear();
        keyed.extend((0..n_units).map(|r| {
            let rk = s.proto.unit(r);
            ((rk.phase, host_map[rk.host as usize], rk.incarnation), r)
        }));
        keyed.sort_unstable();
        for (new_id, (_, r)) in keyed.iter().enumerate() {
            rank_map[*r] = new_id as u8;
        }
    }
}

/// The canonical orbit representative of `s` and the permutation that maps
/// `s` onto it.
pub(crate) fn canonicalize(ctx: &Ctx, s: &ProdState) -> (ProdState, Perm) {
    let perm = canonical_perm(ctx, s);
    if perm.is_identity() {
        (s.clone(), perm)
    } else {
        (perm.apply_state(ctx, s), perm)
    }
}

/// Test hook behind [`ModelCheckConfig::permute_seed`]: a seeded shuffle of
/// the symmetric label spaces. The result is a genuine orbit member of
/// whatever state it is applied to, so with `--reduce` the verdict and the
/// witness (faults, steps) cost must not change — the canonicalization
/// property test's lever.
pub(crate) fn seeded_perm(ctx: &Ctx, seed: u64) -> Perm {
    let mut perm = Perm::identity(ctx.cfg.n_hosts, ctx.cfg.n_units());
    let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let movable = &ctx.profile.movable;
    let mut order = movable.clone();
    for i in (1..order.len()).rev() {
        order.swap(i, (next() as usize) % (i + 1));
    }
    for (h, label) in order.iter().zip(movable) {
        perm.hosts[*h] = *label as u8;
    }
    if ctx.profile.rank_sym && ctx.cfg.n_units() > 1 {
        let mut order: Vec<usize> = (0..ctx.cfg.n_units()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, (next() as usize) % (i + 1));
        }
        for (slot, &r) in order.iter().enumerate() {
            perm.ranks[r] = slot as u8;
        }
    }
    perm
}

#[cfg(test)]
mod tests {
    //! The canonical form on real states: a bounded unreduced exploration
    //! of each backend supplies raw (uncanonicalised) states with
    //! messages in flight, queued inboxes and recoveries under way.

    use std::sync::OnceLock;

    use failmpi_core::compile;
    use proptest::prelude::*;
    use proptest::test_runner::Config;

    use failmpi_backend::AbstractRank;

    use super::super::engine::DriveScratch;
    use super::super::search::Explorer;
    use super::super::state::{insert_msg, SiteLog, VarVal};
    use super::super::world::AbstractWorld;
    use super::*;

    const SOURCES: [&str; 3] = [
        include_str!("../../../core/scenarios/fig10_state_sync.fail"),
        include_str!("../../../core/scenarios/fig8_synchronized.fail"),
        TIMED_NODES_SRC,
    ];

    /// The builtins' machine daemons own no timer and at most one
    /// variable; this one arms a different timer in each node and counts,
    /// so members differ in every field the machine order reads.
    const TIMED_NODES_SRC: &str = "\
param N = 5;
daemon ADV1 {
  node 1:
    always int ran = FAIL_RANDOM(0, N);
    timer g = 4;
    g -> !crash(G1[ran]), goto 2;
  node 2:
    always int ran = FAIL_RANDOM(0, N);
    ?ok -> goto 1;
    ?no -> !crash(G1[ran]), goto 2;
}
daemon ADVnodes {
  int seen = 0;
  node 1:
    timer idle = 3;
    onload -> continue, goto 2;
    idle -> seen = seen + 1, goto 1;
    ?crash -> !no(P1), goto 1;
  node 2:
    timer busy = 7;
    onexit -> goto 1;
    onerror -> goto 1;
    busy -> seen = 0, goto 2;
    ?crash -> !ok(P1), halt, goto 1;
}
instance P1 = ADV1;
group G1[6] = ADVnodes;
";
    const BACKENDS: [BackendKind; 3] = [BackendKind::Vcl, BackendKind::Ulfm, BackendKind::Replica];

    /// One group member's state inside a [`HostKey`]: (node, vars,
    /// abstracted inbox, armed, controlled, suspended).
    type MemberKey = (u16, Vec<VarVal>, Vec<(u8, u8, u8, u8)>, Vec<bool>, bool, bool);

    /// The machine sort key, materialised: what [`cmp_machines`] compares,
    /// as owned data with the derived (field-order, lexicographic) `Ord`
    /// that defined the canonical machine order before the comparator
    /// replaced it. Built from the backend crates' own `host_key` and a
    /// per-machine scan, sharing no table with the comparator.
    #[derive(PartialEq, Eq, PartialOrd, Ord)]
    struct HostKey {
        members: Vec<MemberKey>,
        proto: (Vec<(AbstractPhase, u8)>, Option<usize>),
        msgs: Vec<(u8, u8, u8, u8, u8)>,
        ranks: Vec<u8>,
    }

    fn host_key(ctx: &Ctx, s: &ProdState, h: usize) -> HostKey {
        let members = (0..ctx.n_groups)
            .map(|g| {
                let st = &s.insts[ctx.n_suggested + g * ctx.cfg.n_hosts + h];
                (
                    st.node,
                    st.vars.clone(),
                    inbox_codes(ctx, st, h).collect(),
                    st.ctl.armed.clone(),
                    st.ctl.controlled,
                    st.ctl.suspended,
                )
            })
            .collect();
        let mut msgs: Vec<(u8, u8, u8, u8, u8)> = Vec::new();
        for &(f, t, m) in &s.msgs {
            let fc = endpoint_code(ctx, f as usize, h);
            let tc = endpoint_code(ctx, t as usize, h);
            if fc.0 == 1 || tc.0 == 1 {
                msgs.push((fc.0, fc.1, tc.0, tc.1, m));
            }
        }
        msgs.sort_unstable();
        let ranks = if ctx.profile.rank_sym {
            Vec::new()
        } else {
            (0..s.proto.n_units())
                .filter(|&r| s.proto.unit(r).host as usize == h)
                .map(|r| r as u8)
                .collect()
        };
        HostKey { members, proto: s.proto.host_key(h as u8), msgs, ranks }
    }

    /// Runs `check` on the context and one state, picked by `pick`, of a
    /// bounded exploration of source `which` under `backend`. Each
    /// exploration runs once per process; its states are kept.
    fn with_sampled_state(
        which: usize,
        backend: usize,
        pick: usize,
        check: impl FnOnce(&Ctx, &ProdState) -> Result<(), TestCaseError>,
    ) -> Result<(), TestCaseError> {
        static SAMPLES: [[OnceLock<Vec<ProdState>>; 3]; 3] =
            [const { [const { OnceLock::new() }; 3] }; 3];
        let sc = compile(SOURCES[which]).expect("builtin compiles");
        let cfg = ModelCheckConfig {
            backend: BACKENDS[backend],
            n_ranks: 4,
            n_hosts: 6,
            budget: 2_000,
            ..ModelCheckConfig::default()
        };
        let states = SAMPLES[which][backend].get_or_init(|| {
            let mut ex = Explorer::new(&sc, &cfg, &[]);
            ex.run();
            ex.states().to_vec()
        });
        let ex = Explorer::new(&sc, &cfg, &[]);
        check(&ex.ctx, &states[pick % states.len()])
    }

    /// `s` with the in-flight multiset and — each with even odds — the
    /// group members' vars, inboxes, timers and process flags overwritten
    /// from small domains; a field left alone is levelled to the first
    /// member's instead. The result need not be reachable: the machine
    /// order is defined on any state, and levelled fields make machines
    /// tie on their leading ones.
    fn scrambled(ctx: &Ctx, s: &ProdState, seed: u64) -> ProdState {
        let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
        let mut below = move |n: usize| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng >> 33) as usize % n
        };
        let n_insts = s.insts.len();
        let [vars, inbox, armed, flags] = [(); 4].map(|()| below(2) == 0);
        let mut out = s.clone();
        for i in ctx.n_suggested..n_insts {
            let first = &s.insts[i - (i - ctx.n_suggested) % ctx.cfg.n_hosts];
            let mut st = InstState::clone(first);
            if vars {
                for v in &mut st.vars {
                    *v = [VarVal::Known(0), VarVal::Known(1), VarVal::Top][below(3)];
                }
            }
            if inbox {
                st.inbox = (0..below(3)).map(|_| (below(n_insts) as u8, below(2) as u8)).collect();
            }
            if armed {
                for a in &mut st.ctl.armed {
                    *a = below(2) == 0;
                }
            }
            if flags {
                st.ctl.controlled = below(2) == 0;
                st.ctl.suspended = below(2) == 0;
            }
            out.insts[i] = Inst::new(st);
        }
        out.msgs = (0..below(6))
            .map(|_| (below(n_insts) as u8, below(n_insts) as u8, below(2) as u8))
            .collect();
        out.msgs.sort_unstable();
        out
    }

    /// Every unit slot of `w`, writable.
    fn slots_mut(w: &mut AbstractWorld) -> &mut [AbstractRank] {
        match w {
            AbstractWorld::Vcl(v) => v.ranks.make_mut(),
            AbstractWorld::Ulfm(u) => u.ranks.make_mut(),
            AbstractWorld::Replica(r) => r.units.make_mut(),
        }
    }

    /// `(what, parent, successor)` pairs, each parent a representative,
    /// that force every branch of [`canonical_perm_from`]: a move that
    /// touches nothing; a message added between two machines, and one
    /// removed; a unit moved to another machine; and, under Vcl, a spare
    /// FIFO only popped (no fallback) or reordered (the fallback). The
    /// successors need not be reachable.
    fn hand_built(
        ctx: &Ctx,
        rep: &ProdState,
        seed: u64,
    ) -> Vec<(&'static str, ProdState, ProdState)> {
        let n_hosts = ctx.cfg.n_hosts;
        let (a, b) = (seed as usize % n_hosts, (seed >> 8) as usize % n_hosts);
        let member = |h: usize| (ctx.n_suggested + h) as u8;
        let mut out = vec![("nothing", rep.clone(), rep.clone())];

        let mut added = rep.clone();
        insert_msg(&mut added.msgs, (member(a), member(b), 0));
        let (holding, _) = canonicalize(ctx, &added);
        let mut removed = holding.clone();
        removed.msgs.remove((seed >> 16) as usize % removed.msgs.len());
        out.push(("message added", rep.clone(), added));
        out.push(("message removed", holding, removed));

        let mut moved = rep.clone();
        let slots = slots_mut(&mut moved.proto);
        let u = (seed >> 24) as usize % slots.len();
        slots[u].host = b as u8;
        out.push(("unit moved", rep.clone(), moved));

        if let AbstractWorld::Vcl(v) = &rep.proto {
            let spare = |edit: fn(&mut Vec<u8>)| {
                let mut s = rep.clone();
                if let AbstractWorld::Vcl(w) = &mut s.proto {
                    let mut fifo = w.free_hosts.to_vec();
                    edit(&mut fifo);
                    w.free_hosts = fifo.into_iter().collect();
                }
                s
            };
            if !v.free_hosts.is_empty() {
                out.push(("spare popped", rep.clone(), spare(|f| {
                    f.remove(0);
                })));
            }
            if v.free_hosts.len() >= 2 {
                out.push(("spares reordered", rep.clone(), spare(|f| f.swap(0, 1))));
            }
        }
        out
    }

    proptest! {
        #![proptest_config(Config::with_cases(96))]

        /// Every member of an orbit has the same representative.
        #[test]
        fn representative_is_orbit_invariant(
            which in 0usize..3,
            backend in 0usize..3,
            pick in any::<usize>(),
            seed in any::<u64>(),
        ) {
            with_sampled_state(which, backend, pick, |ctx, s| {
                let moved = seeded_perm(ctx, seed).apply_state(ctx, s);
                prop_assert_eq!(canonicalize(ctx, &moved).0, canonicalize(ctx, s).0);
                Ok(())
            })?;
        }

        /// A representative is its own representative.
        #[test]
        fn representative_is_a_fixed_point(
            which in 0usize..3,
            backend in 0usize..3,
            pick in any::<usize>(),
        ) {
            with_sampled_state(which, backend, pick, |ctx, s| {
                let (rep, _) = canonicalize(ctx, s);
                let (again, perm) = canonicalize(ctx, &rep);
                prop_assert!(perm.is_identity(), "{:?}", perm);
                prop_assert_eq!(again, rep);
                Ok(())
            })?;
        }

        /// The permutation inherited from a representative parent is the
        /// full one: on every successor of the representative, and on
        /// hand-built successors that each force one branch.
        #[test]
        fn incremental_perm_is_the_full_perm(
            which in 0usize..3,
            backend in 0usize..3,
            pick in any::<usize>(),
            seed in any::<u64>(),
        ) {
            with_sampled_state(which, backend, pick, |ctx, s| {
                let (rep, _) = canonicalize(ctx, s);
                let mut scr = CanonScratch::default();
                let (mut moves, mut micros) = (Vec::new(), Vec::new());
                ctx.moves(&rep, &mut moves);
                for m in &moves {
                    let (log, drive) = (&mut SiteLog::new(), &mut DriveScratch::default());
                    ctx.apply_move(&rep, m, log, drive, &mut micros);
                    for micro in micros.drain(..) {
                        let st = &micro.st;
                        canonical_perm_from(ctx, &rep, st, &mut scr);
                        prop_assert_eq!(&scr.perm, &canonical_perm(ctx, st));
                    }
                }
                for (what, parent, succ) in hand_built(ctx, &rep, seed) {
                    let t = touched(ctx, &parent, &succ, &mut scr);
                    match what {
                        "spares reordered" => prop_assert!(t.is_none(), "{}", what),
                        "nothing" => prop_assert!(
                            t == Some(false) && !scr.hit.contains(&true),
                            "{}", what
                        ),
                        _ => prop_assert!(t.is_some(), "{}", what),
                    }
                    canonical_perm_from(ctx, &parent, &succ, &mut scr);
                    prop_assert_eq!(&scr.perm, &canonical_perm(ctx, &succ), "{}", what);
                }
                Ok(())
            })?;
        }

        /// The comparator orders machines exactly as the materialised
        /// keys' derived `Ord` does — on raw states, on relabelled ones,
        /// and on scrambled ones, where near-ties push the comparison
        /// into every field.
        #[test]
        fn comparator_order_is_the_host_key_order(
            which in 0usize..3,
            backend in 0usize..3,
            pick in any::<usize>(),
            seed in any::<u64>(),
        ) {
            with_sampled_state(which, backend, pick, |ctx, s| {
                let moved = seeded_perm(ctx, seed).apply_state(ctx, s);
                for s in [s.clone(), scrambled(ctx, &moved, seed), moved] {
                    let mut keyed: Vec<(HostKey, usize)> = ctx
                        .profile
                        .movable
                        .iter()
                        .map(|&h| (host_key(ctx, &s, h), h))
                        .collect();
                    let mut tables = HostTables::default();
                    tables.fill(ctx, &s);
                    for (key, h) in &keyed {
                        let tabled = (
                            (tables.hosted.run(*h).collect(), tables.spare_pos[*h]),
                            tables.msgs.run(*h).collect(),
                            tables.units.run(*h).collect(),
                        );
                        prop_assert_eq!(tabled, (key.proto.clone(), key.msgs.clone(), key.ranks.clone()));
                    }
                    for (ka, a) in &keyed {
                        for (kb, b) in &keyed {
                            prop_assert_eq!(
                                cmp_machines(ctx, &s, &tables, *a, *b),
                                ka.cmp(kb),
                                "machines {} and {}", a, b
                            );
                        }
                    }
                    keyed.sort();
                    let by_key: Vec<usize> = keyed.into_iter().map(|(_, h)| h).collect();
                    let mut scr = CanonScratch::default();
                    machine_order(ctx, &s, &mut scr);
                    prop_assert_eq!(scr.order, by_key);
                }
                Ok(())
            })?;
        }
    }
}
