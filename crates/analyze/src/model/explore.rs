//! The product explorer: abstract state types, the pure per-instance
//! firing engine ([`Ctx`]), canonical move enumeration ([`MoveKind`]), and
//! the deterministic lowest-(faults, steps, insertion) worklist.
//!
//! The firing engine is immutable-`self` so frontier workers can share it
//! across threads: the one historical mutation (halt-site bookkeeping for
//! FC001/FC005) is threaded out as a [`SiteLog`] and applied by the
//! sequential merge, which keeps flag state identical to the old in-line
//! mutation because the flags are monotone.

use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

use failmpi_backend::vocab::AbstractModel;
use failmpi_core::lang::compile::{Action, Dest, Expr, Guard, Scenario};
use failmpi_mpi::{Op, Program};
use failmpi_mpichv::{AbstractEvent, AbstractStep};

use crate::diag::{Diagnostic, Severity};

use super::canon::{self, Perm, SymmetryProfile};
use super::world::AbstractWorld;
use super::{frontier, por};
use super::{Fnv1a, ModelCheckConfig, ModelCheckResult, ModelSummary, StaticVerdict, Witness};

/// Magnitude cap for abstract variable values: a counter that strays past
/// this saturates to [`VarVal::Top`], keeping the state space finite.
const VAR_CAP: i64 = 64;

/// Abstract class-variable value.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) enum VarVal {
    /// Exactly this value.
    Known(i64),
    /// Any value (random picks, saturated counters).
    Top,
}

/// Stores a value, saturating big magnitudes to `Top` so counters cannot
/// unfold the state space.
fn store(v: VarVal) -> VarVal {
    match v {
        VarVal::Known(x) if x.abs() > VAR_CAP => VarVal::Top,
        other => other,
    }
}

/// Abstract state of one FAIL daemon instance (mirrors
/// `failmpi_core::runtime`'s per-instance state field by field, with
/// timer generations replaced by a per-node armed set).
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct InstState {
    pub(crate) node: u16,
    pub(crate) vars: Vec<VarVal>,
    /// FIFO of undelivered-but-received messages `(from, msg)`.
    pub(crate) inbox: Vec<(u8, u8)>,
    /// Timer slots armed by the current node entry.
    pub(crate) armed: Vec<bool>,
    /// Whether a live process is attached (the `onload`…`onexit` window).
    pub(crate) controlled: bool,
    /// Whether the attached process is `stop`-suspended.
    pub(crate) suspended: bool,
}

/// One instance's state as a [`ProdState`] carries it: immutable and
/// shared. A product step changes one instance (a fault cascade, a few),
/// so a successor shares every other instance with its parent, and
/// cloning, comparing or relabelling a state costs what changed rather
/// than the deployment size.
///
/// `Eq`/`Ord` answer from pointer identity when they can and fall back to
/// the content; `Hash` forwards to the content. The derived ordering and
/// hash stream of [`ProdState`] are therefore exactly those of a plain
/// `Vec<InstState>` — they are frozen, because successor order fixes
/// interning order and the FNV state digest is a persisted coverage key.
#[derive(Clone, Debug)]
pub(crate) struct Inst(Arc<InstState>);

impl Inst {
    pub(crate) fn new(st: InstState) -> Inst {
        Inst(Arc::new(st))
    }
}

impl Deref for Inst {
    type Target = InstState;
    fn deref(&self) -> &InstState {
        &self.0
    }
}

impl PartialEq for Inst {
    fn eq(&self, other: &Inst) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || *self.0 == *other.0
    }
}

impl Eq for Inst {}

impl Ord for Inst {
    fn cmp(&self, other: &Inst) -> Ordering {
        if Arc::ptr_eq(&self.0, &other.0) {
            Ordering::Equal
        } else {
            self.0.cmp(&other.0)
        }
    }
}

impl PartialOrd for Inst {
    fn partial_cmp(&self, other: &Inst) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Hash for Inst {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}

/// One product state: every FAIL instance, the in-flight message multiset,
/// and the abstract Vcl protocol state.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct ProdState {
    pub(crate) insts: Vec<Inst>,
    /// Sorted multiset of in-flight FAIL messages `(from, to, msg)` —
    /// deliveries race, so order is not part of the state.
    pub(crate) msgs: Vec<(u8, u8, u8)>,
    pub(crate) proto: AbstractWorld,
}

/// An automaton input, mirroring `FailInput` minus process identities.
#[derive(Clone, Debug)]
enum AIn {
    OnLoad,
    OnExit,
    OnError,
    Msg { from: usize, msg: usize },
    Timer(usize),
    Breakpoint,
    Probe { slot: usize, value: i64 },
}

/// Deferred consequence inside one product step.
#[derive(Clone, Debug)]
enum Pend {
    In { inst: usize, input: AIn },
    Fault(u8),
}

/// World-visible side effects of one instance firing.
#[derive(Clone, Debug, Default)]
struct Effects {
    /// `(from, to, msg)` sends, in emission order.
    sends: Vec<(usize, usize, usize)>,
    /// A `halt` executed while a process was controlled.
    halted: bool,
    stop: bool,
    cont: bool,
}

impl Effects {
    fn merge(&mut self, other: Effects) {
        self.sends.extend(other.sends);
        self.halted |= other.halted;
        self.stop |= other.stop;
        self.cont |= other.cont;
    }
}

/// One branch of a step application: the state it leads to, the faults it
/// injected, and human-readable annotations for the witness.
#[derive(Clone, Debug)]
pub(crate) struct Micro {
    pub(crate) st: ProdState,
    pub(crate) faults: u32,
    pub(crate) notes: Vec<String>,
}

/// Halt-site flags recorded while firing (`(site index, stale)`); the
/// sequential merge ORs them into the explorer's [`HaltSite`] table. The
/// flags are monotone, so apply order is immaterial.
pub(crate) type SiteLog = Vec<(usize, bool)>;

pub(crate) struct HaltSite {
    pub(crate) class: usize,
    pub(crate) line: u32,
    pub(crate) executed: bool,
    pub(crate) stale: bool,
}

/// One enabled product step, structurally. Instance and rank identities
/// are frame-relative: [`Perm::apply_move`] transports a move between a
/// state and its orbit representative.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum MoveKind {
    Deliver { from: u8, to: u8, msg: u8 },
    Register(u8),
    Ready(u8),
    Breakpoint { rank: u8, holder: usize },
    Spawn(u8),
    StopClosure(u8),
    Timer { inst: usize, slot: usize },
    WaveStart,
    WaveCommit,
}

/// One labelled successor branch.
#[derive(Clone, Debug)]
pub(crate) struct Succ {
    pub(crate) label: String,
    pub(crate) kind: MoveKind,
    pub(crate) micro: Micro,
    /// Raw-frame → canonical-frame permutation (reduce mode only).
    pub(crate) perm: Option<Perm>,
}

/// Everything one state expansion produced, computed purely so frontier
/// workers can run it in parallel.
pub(crate) struct Expansion {
    pub(crate) succs: Vec<Succ>,
    pub(crate) log: SiteLog,
    pub(crate) por_pruned: usize,
    pub(crate) orbit_hits: usize,
}

// ---------------------------------------------------------------------------
// The immutable exploration context
// ---------------------------------------------------------------------------

/// Everything successor generation reads: the compiled scenario, the
/// deployment binding, and the symmetry profile. Shared read-only across
/// frontier worker threads.
pub(crate) struct Ctx<'a> {
    pub(crate) sc: &'a Scenario,
    pub(crate) cfg: &'a ModelCheckConfig,
    pub(crate) params: Vec<i64>,
    /// Instance class indices; suggested instances first, then one group
    /// member per host for every suggested group.
    pub(crate) inst_class: Vec<usize>,
    pub(crate) inst_names: Vec<String>,
    /// `Some(h)` when the instance controls machine `h`.
    pub(crate) inst_host: Vec<Option<u8>>,
    /// Controllers of each host, in instance order.
    pub(crate) controllers: Vec<Vec<usize>>,
    pub(crate) by_name: HashMap<String, usize>,
    pub(crate) groups: HashMap<String, Vec<usize>>,
    /// Ranks each rank transitively exchanges messages with (op-program
    /// communication skeleton), used to phrase the freeze diagnosis.
    pub(crate) comm_peers: Vec<Vec<u32>>,
    pub(crate) halt_sites: HashMap<(usize, usize, usize), usize>,
    pub(crate) n_suggested: usize,
    pub(crate) n_groups: usize,
    pub(crate) profile: SymmetryProfile,
}

impl<'a> Ctx<'a> {
    // -- abstract expression evaluation ------------------------------------

    fn eval(&self, e: &Expr, vars: &[VarVal]) -> VarVal {
        if let Some(v) = e.fold_const(&self.params) {
            return VarVal::Known(v);
        }
        match e {
            Expr::Int(n) => VarVal::Known(*n),
            Expr::Var(i) => vars[*i],
            Expr::Param(i) => VarVal::Known(self.params[*i]),
            Expr::Rand(..) => match e.const_range(&self.params) {
                Some((l, h)) if l == h => VarVal::Known(l),
                _ => VarVal::Top,
            },
            Expr::Bin(op, a, b) => match (self.eval(a, vars), self.eval(b, vars)) {
                (VarVal::Known(x), VarVal::Known(y)) => {
                    VarVal::Known(failmpi_core::lang::compile::apply_bin(*op, x, y))
                }
                _ => VarVal::Top,
            },
            Expr::Neg(a) => match self.eval(a, vars) {
                VarVal::Known(x) => VarVal::Known(x.wrapping_neg()),
                VarVal::Top => VarVal::Top,
            },
        }
    }

    /// Tri-state condition: `Some(b)` when decidable, `None` when the
    /// abstraction cannot tell (both branches are then explored).
    fn cond3(&self, e: &Expr, vars: &[VarVal]) -> Option<bool> {
        match self.eval(e, vars) {
            VarVal::Known(v) => Some(v != 0),
            VarVal::Top => None,
        }
    }

    /// All conditions of a transition, three-valued.
    fn conds3(&self, conds: &[Expr], vars: &[VarVal]) -> Option<bool> {
        let mut maybe = false;
        for c in conds {
            match self.cond3(c, vars) {
                Some(false) => return Some(false),
                Some(true) => {}
                None => maybe = true,
            }
        }
        if maybe {
            None
        } else {
            Some(true)
        }
    }

    /// The group members a `G[idx]` destination can resolve to. Constant
    /// and interval-bounded indices narrow the set; opaque ones fan out
    /// to the whole group (see [`Expr::const_range`]).
    fn dest_members(&self, members: &[usize], idx: &Expr, vars: &[VarVal]) -> Vec<usize> {
        match self.eval(idx, vars) {
            VarVal::Known(k) => usize::try_from(k)
                .ok()
                .filter(|k| *k < members.len())
                .map(|k| vec![members[k]])
                .unwrap_or_default(),
            VarVal::Top => match idx.const_range(&self.params) {
                Some((l, h)) => {
                    let lo = l.max(0) as usize;
                    let hi = (h.min(members.len() as i64 - 1)).max(-1);
                    if hi < 0 {
                        Vec::new()
                    } else {
                        members[lo.min(members.len())..=hi as usize].to_vec()
                    }
                }
                None => members.to_vec(),
            },
        }
    }

    // -- the per-instance firing engine ------------------------------------
    //
    // Mirrors `FailRuntime::{feed, try_fire, fire, enter_node,
    // drain_inbox}` over abstract values. Every function returns the set
    // of branch outcomes (undecidable conditions and random group indices
    // branch). Halt-site flags go into `log`.

    fn class_of(&self, inst: usize) -> &failmpi_core::lang::compile::Class {
        &self.sc.classes[self.inst_class[inst]]
    }

    fn enter_node(
        &self,
        inst: usize,
        mut st: InstState,
        node: usize,
        log: &mut SiteLog,
    ) -> Vec<(InstState, Effects)> {
        st.node = node as u16;
        let nd = &self.class_of(inst).nodes[node];
        for (slot, e) in &nd.always {
            let v = store(self.eval(e, &st.vars));
            st.vars[*slot] = v;
        }
        st.armed.iter_mut().for_each(|a| *a = false);
        for (t, _) in &nd.timers {
            st.armed[*t] = true;
        }
        self.drain_from(inst, st, 0, 0, log)
    }

    /// Scans the FIFO for the first consumable message starting at message
    /// `mi0`, transition `ti0`; `Maybe` conditions split the scan.
    fn drain_from(
        &self,
        inst: usize,
        st: InstState,
        mi0: usize,
        ti0: usize,
        log: &mut SiteLog,
    ) -> Vec<(InstState, Effects)> {
        let node_idx = st.node as usize;
        let class = self.inst_class[inst];
        let n_trans = self.sc.classes[class].nodes[node_idx].transitions.len();
        for mi in mi0..st.inbox.len() {
            let (from, msg) = st.inbox[mi];
            let t_start = if mi == mi0 { ti0 } else { 0 };
            for t in t_start..n_trans {
                let tr = &self.sc.classes[class].nodes[node_idx].transitions[t];
                if !matches!(tr.guard, Guard::Recv(m) if m == msg as usize) {
                    continue;
                }
                match self.conds3(&tr.conds, &st.vars) {
                    Some(false) => continue,
                    Some(true) => {
                        let mut consumed = st.clone();
                        consumed.inbox.remove(mi);
                        return self.chain_fire(inst, consumed, node_idx, t, Some(from as usize), log);
                    }
                    None => {
                        // Branch: the conditions hold (fire) or they do
                        // not (keep scanning past this transition).
                        let mut out = Vec::new();
                        let mut consumed = st.clone();
                        consumed.inbox.remove(mi);
                        out.extend(self.chain_fire(
                            inst,
                            consumed,
                            node_idx,
                            t,
                            Some(from as usize),
                            log,
                        ));
                        out.extend(self.drain_from(inst, st, mi, t + 1, log));
                        return dedup_fire(out);
                    }
                }
            }
        }
        vec![(st, Effects::default())]
    }

    /// Fires transition `(node, t)` and re-drains the inbox when the
    /// transition moved to a new node (`enter_node` does the drain).
    fn chain_fire(
        &self,
        inst: usize,
        st: InstState,
        node: usize,
        t: usize,
        sender: Option<usize>,
        log: &mut SiteLog,
    ) -> Vec<(InstState, Effects)> {
        let class = self.inst_class[inst];
        let actions = &self.sc.classes[class].nodes[node].transitions[t].actions;
        let site = self.halt_sites.get(&(class, node, t)).copied();
        self.run_actions(inst, st, actions, sender, site, log)
    }

    /// Executes a transition's actions in order. Branches on opaque group
    /// indices; applies `Goto` last exactly like `FailRuntime::fire`.
    fn run_actions(
        &self,
        inst: usize,
        st: InstState,
        actions: &[Action],
        sender: Option<usize>,
        site: Option<usize>,
        log: &mut SiteLog,
    ) -> Vec<(InstState, Effects)> {
        // Work items: (state so far, effects so far, next action index,
        // pending goto).
        let mut work = vec![(st, Effects::default(), 0usize, None::<usize>)];
        let mut done = Vec::new();
        while let Some((mut s, mut eff, i, goto)) = work.pop() {
            if i == actions.len() {
                done.push((s, eff, goto));
                continue;
            }
            match &actions[i] {
                Action::Send { msg, dest } => {
                    let targets: Vec<usize> = match dest {
                        Dest::Instance(name) => {
                            self.by_name.get(name).copied().into_iter().collect()
                        }
                        Dest::Group(name, idx) => match self.groups.get(name) {
                            Some(members) => self.dest_members(members, idx, &s.vars),
                            None => Vec::new(),
                        },
                        Dest::Sender => sender.into_iter().collect(),
                    };
                    if targets.len() <= 1 {
                        if let Some(to) = targets.first() {
                            eff.sends.push((inst, *to, *msg));
                        }
                        work.push((s, eff, i + 1, goto));
                    } else {
                        for to in targets {
                            let mut e2 = eff.clone();
                            e2.sends.push((inst, to, *msg));
                            work.push((s.clone(), e2, i + 1, goto));
                        }
                    }
                }
                Action::Goto(n) => {
                    work.push((s, eff, i + 1, Some(*n)));
                }
                Action::Halt => {
                    if let Some(siteidx) = site {
                        log.push((siteidx, !s.controlled));
                    }
                    if s.controlled {
                        s.controlled = false;
                        s.suspended = false;
                        eff.halted = true;
                    }
                    work.push((s, eff, i + 1, goto));
                }
                Action::Stop => {
                    if s.controlled {
                        s.suspended = true;
                        eff.stop = true;
                    }
                    work.push((s, eff, i + 1, goto));
                }
                Action::Continue => {
                    if s.controlled {
                        s.suspended = false;
                        eff.cont = true;
                    }
                    work.push((s, eff, i + 1, goto));
                }
                Action::Assign(slot, e) => {
                    let v = store(self.eval(e, &s.vars));
                    s.vars[*slot] = v;
                    work.push((s, eff, i + 1, goto));
                }
            }
        }
        let mut out = Vec::new();
        for (s, eff, goto) in done {
            match goto {
                Some(n) => {
                    for (s2, e2) in self.enter_node(inst, s, n, log) {
                        let mut merged = eff.clone();
                        merged.merge(e2);
                        out.push((s2, merged));
                    }
                }
                None => out.push((s, eff)),
            }
        }
        dedup_fire(out)
    }

    /// `FailRuntime::try_fire`: first transition whose guard matches and
    /// whose conditions hold. Returns branch outcomes plus whether each
    /// branch actually fired.
    fn try_fire(
        &self,
        inst: usize,
        st: InstState,
        pred: impl Fn(&Guard) -> bool,
        sender: Option<usize>,
        log: &mut SiteLog,
    ) -> Vec<(InstState, Effects, bool)> {
        self.try_fire_from(inst, st, &pred, sender, 0, log)
    }

    fn try_fire_from(
        &self,
        inst: usize,
        st: InstState,
        pred: &impl Fn(&Guard) -> bool,
        sender: Option<usize>,
        t0: usize,
        log: &mut SiteLog,
    ) -> Vec<(InstState, Effects, bool)> {
        let node = st.node as usize;
        let class = self.inst_class[inst];
        let n_trans = self.sc.classes[class].nodes[node].transitions.len();
        for t in t0..n_trans {
            let tr = &self.sc.classes[class].nodes[node].transitions[t];
            if !pred(&tr.guard) {
                continue;
            }
            match self.conds3(&tr.conds, &st.vars) {
                Some(false) => continue,
                Some(true) => {
                    return self
                        .chain_fire(inst, st, node, t, sender, log)
                        .into_iter()
                        .map(|(s, e)| (s, e, true))
                        .collect();
                }
                None => {
                    let mut out: Vec<(InstState, Effects, bool)> = self
                        .chain_fire(inst, st.clone(), node, t, sender, log)
                        .into_iter()
                        .map(|(s, e)| (s, e, true))
                        .collect();
                    out.extend(self.try_fire_from(inst, st, pred, sender, t + 1, log));
                    return out;
                }
            }
        }
        vec![(st, Effects::default(), false)]
    }

    /// `FailRuntime::feed` for one abstract input.
    fn feed(
        &self,
        inst: usize,
        st: InstState,
        input: &AIn,
        log: &mut SiteLog,
    ) -> Vec<(InstState, Effects, bool)> {
        match input {
            AIn::Msg { from, msg } => {
                let mut s = st;
                s.inbox.push((*from as u8, *msg as u8));
                self.drain_from(inst, s, 0, 0, log)
                    .into_iter()
                    .map(|(s, e)| (s, e, true))
                    .collect()
            }
            AIn::OnLoad => {
                let mut s = st;
                s.controlled = true;
                s.suspended = false;
                self.try_fire(inst, s, |g| matches!(g, Guard::OnLoad), None, log)
            }
            AIn::OnExit | AIn::OnError => {
                let mut s = st;
                if !s.controlled {
                    return vec![(s, Effects::default(), false)]; // stale
                }
                s.controlled = false;
                s.suspended = false;
                let want_exit = matches!(input, AIn::OnExit);
                self.try_fire(
                    inst,
                    s,
                    move |g| {
                        if want_exit {
                            matches!(g, Guard::OnExit)
                        } else {
                            matches!(g, Guard::OnError)
                        }
                    },
                    None,
                    log,
                )
            }
            AIn::Timer(t) => {
                let mut s = st;
                if !s.armed[*t] {
                    return vec![(s, Effects::default(), false)];
                }
                s.armed[*t] = false;
                let t = *t;
                self.try_fire(inst, s, move |g| matches!(g, Guard::Timer(x) if *x == t), None, log)
            }
            AIn::Breakpoint => self.try_fire(inst, st, |g| matches!(g, Guard::Before(_)), None, log),
            AIn::Probe { slot, value } => {
                let mut s = st;
                let old = s.vars[*slot];
                s.vars[*slot] = VarVal::Known(*value);
                if old == VarVal::Known(*value) {
                    return vec![(s, Effects::default(), false)];
                }
                let slot = *slot;
                self.try_fire(inst, s, move |g| matches!(g, Guard::Change(p) if *p == slot), None, log)
            }
        }
    }

    // -- world-level step application --------------------------------------

    /// Processes a queue of pending consequences to completion, branching
    /// as the automata branch. Returns the settled micro-states.
    fn drive(
        &self,
        st: ProdState,
        queue: VecDeque<Pend>,
        faults: u32,
        notes: Vec<String>,
        log: &mut SiteLog,
    ) -> Vec<Micro> {
        let mut out = Vec::new();
        let mut work = vec![(st, queue, faults, notes)];
        while let Some((mut s, mut q, f, mut notes)) = work.pop() {
            let Some(p) = q.pop_front() else {
                out.push(Micro { st: s, faults: f, notes });
                continue;
            };
            match p {
                Pend::Fault(r) => {
                    if !s.proto.unit_live(r as usize) {
                        // The process died between the halt decision and
                        // this point (cascaded recovery) — nothing to kill.
                        work.push((s, q, f, notes));
                        continue;
                    }
                    let mut evs = Vec::new();
                    let phase = s.proto.unit(r as usize).phase;
                    let during = s.proto.recovery_active();
                    let desc = s.proto.unit_desc(r as usize);
                    s.proto.apply(AbstractStep::Fault(r), &mut evs);
                    notes.push(format!(
                        "fault kills {desc} ({}{})",
                        phase_name(phase),
                        if during { ", during recovery" } else { "" }
                    ));
                    for e in &evs {
                        if let AbstractEvent::RankLost { rank } = e {
                            notes.push(s.proto.lost_note(*rank));
                        }
                    }
                    self.enqueue_events(&mut q, &evs);
                    work.push((s, q, f + 1, notes));
                }
                Pend::In { inst, input } => {
                    let branches = self.feed(inst, InstState::clone(&s.insts[inst]), &input, log);
                    // The last branch takes the state; only a genuine
                    // fork pays for a copy.
                    let n_branches = branches.len();
                    let mut rest = Some((s, q, notes));
                    for (k, (ist2, eff, _)) in branches.into_iter().enumerate() {
                        let (mut s2, mut q2, mut notes2) = if k + 1 == n_branches {
                            rest.take().expect("taken once, by the last branch")
                        } else {
                            rest.clone().expect("present until the last branch")
                        };
                        if *s2.insts[inst] != ist2 {
                            s2.insts[inst] = Inst::new(ist2);
                        }
                        for (from, to, msg) in &eff.sends {
                            insert_msg(&mut s2.msgs, (*from as u8, *to as u8, *msg as u8));
                        }
                        if eff.halted {
                            match self.inst_host[inst].and_then(|h| s2.proto.live_rank_on_host(h)) {
                                Some(r) => q2.push_back(Pend::Fault(r)),
                                None => notes2.push(format!(
                                    "halt from {} found no live process",
                                    self.inst_names[inst]
                                )),
                            }
                        }
                        work.push((s2, q2, f, notes2));
                    }
                }
            }
        }
        dedup_micro(out)
    }

    /// Maps abstract Vcl events onto automaton inputs, honoring the
    /// dynamic runtime's routing (lifecycle hooks to the host's
    /// controllers, committed-wave / epoch updates to probe subscribers).
    fn enqueue_events(&self, q: &mut VecDeque<Pend>, evs: &[AbstractEvent]) {
        for e in evs {
            match e {
                AbstractEvent::OnLoad { host } => {
                    for &c in &self.controllers[*host as usize] {
                        q.push_back(Pend::In { inst: c, input: AIn::OnLoad });
                    }
                }
                AbstractEvent::OnExit { host } => {
                    for &c in &self.controllers[*host as usize] {
                        q.push_back(Pend::In { inst: c, input: AIn::OnExit });
                    }
                }
                AbstractEvent::OnError { host } => {
                    for &c in &self.controllers[*host as usize] {
                        q.push_back(Pend::In { inst: c, input: AIn::OnError });
                    }
                }
                AbstractEvent::CommittedWave(v) => self.enqueue_probe(q, "committed_wave", *v),
                AbstractEvent::EpochBumped(v) => self.enqueue_probe(q, "epoch", *v),
                AbstractEvent::FailureDetected { .. } | AbstractEvent::RankLost { .. } => {}
            }
        }
    }

    fn enqueue_probe(&self, q: &mut VecDeque<Pend>, name: &str, value: u8) {
        for inst in 0..self.inst_class.len() {
            let class = &self.sc.classes[self.inst_class[inst]];
            if let Some((_, slot)) = class.probes.iter().find(|(n, _)| n == name) {
                q.push_back(Pend::In {
                    inst,
                    input: AIn::Probe { slot: *slot, value: value as i64 },
                });
            }
        }
    }

    // -- successor generation ----------------------------------------------

    /// Whether any controller suspends the process of `rank` (a
    /// `stop`-suspended process neither registers nor acks commands).
    fn rank_suspended(&self, s: &ProdState, rank: usize) -> bool {
        let h = s.proto.unit(rank).host as usize;
        self.controllers[h]
            .iter()
            .any(|&c| s.insts[c].controlled && s.insts[c].suspended)
    }

    /// The first controller holding an armed breakpoint over `rank`'s
    /// process (current node has a `before(...)` guard and the process is
    /// attached) — it intercepts the rank's ready step.
    pub(crate) fn breakpoint_holder(&self, s: &ProdState, rank: usize) -> Option<usize> {
        let h = s.proto.unit(rank).host as usize;
        self.controllers[h].iter().copied().find(|&c| {
            if !s.insts[c].controlled {
                return false;
            }
            let class = &self.sc.classes[self.inst_class[c]];
            class.nodes[s.insts[c].node as usize]
                .transitions
                .iter()
                .any(|t| matches!(t.guard, Guard::Before(_)))
        })
    }

    /// Whether instance `i`'s node `node` arms a `before(...)` breakpoint
    /// — the part of an automaton's state that `breakpoint_holder` reads,
    /// so the ample filter can prove a node change invisible to rank moves.
    pub(crate) fn breakpoint_armed(&self, i: usize, node: u16) -> bool {
        let class = &self.sc.classes[self.inst_class[i]];
        class.nodes[node as usize]
            .transitions
            .iter()
            .any(|t| matches!(t.guard, Guard::Before(_)))
    }

    /// Every enabled product move of `s`, in canonical enumeration order
    /// (the order the pre-refactor `successors` generated them in).
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
                for (slot, armed) in ist.armed.iter().enumerate() {
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
                self.inst_names[*from as usize],
                self.inst_names[*to as usize]
            ),
            MoveKind::Register(r) => format!("register {}", s.proto.unit_desc(*r as usize)),
            MoveKind::Ready(r) => format!("ready {}", s.proto.unit_desc(*r as usize)),
            MoveKind::Breakpoint { rank, holder } => format!(
                "breakpoint before set-command: {} held by {}",
                s.proto.unit_desc(*rank as usize),
                self.inst_names[*holder]
            ),
            MoveKind::Spawn(r) => format!(
                "spawn {} on host {}",
                s.proto.unit_desc(*r as usize),
                s.proto.unit(*r as usize).host
            ),
            MoveKind::StopClosure(r) => format!("stop-closure rank {r}"),
            MoveKind::Timer { inst, slot } => format!(
                "timer {} at {}",
                self.sc.classes[self.inst_class[*inst]].timer_names[*slot],
                self.inst_names[*inst]
            ),
            MoveKind::WaveStart => "checkpoint wave starts".to_string(),
            MoveKind::WaveCommit => "checkpoint wave commits".to_string(),
        }
    }

    /// Applies one enabled move, returning its settled micro-branches.
    /// `m` must come from [`Ctx::moves`] on `s` (or be transported there
    /// by a permutation): the protocol steps assert enabledness.
    pub(crate) fn apply_move(&self, s: &ProdState, m: &MoveKind, log: &mut SiteLog) -> Vec<Micro> {
        match m {
            MoveKind::Deliver { from, to, msg } => {
                let mut s2 = s.clone();
                let i = s2
                    .msgs
                    .iter()
                    .position(|x| *x == (*from, *to, *msg))
                    .expect("delivered message in flight");
                s2.msgs.remove(i);
                let q = VecDeque::from([Pend::In {
                    inst: *to as usize,
                    input: AIn::Msg { from: *from as usize, msg: *msg as usize },
                }]);
                self.drive(s2, q, 0, Vec::new(), log)
            }
            MoveKind::Register(r) | MoveKind::Ready(r) => {
                let step = match m {
                    MoveKind::Register(_) => AbstractStep::Register(*r),
                    _ => AbstractStep::Ready(*r),
                };
                let mut s2 = s.clone();
                let mut evs = Vec::new();
                s2.proto.apply(step, &mut evs);
                let mut q = VecDeque::new();
                self.enqueue_events(&mut q, &evs);
                self.drive(s2, q, 0, Vec::new(), log)
            }
            MoveKind::Breakpoint { rank: r, holder: c } => {
                // The controller's debugger holds the process just before
                // `localMPI_setCommand`; the scenario decides whether the
                // call proceeds.
                let mut out = Vec::new();
                let branches = self.feed(*c, InstState::clone(&s.insts[*c]), &AIn::Breakpoint, log);
                for (ist2, eff, _) in branches {
                    let mut s2 = s.clone();
                    s2.insts[*c] = Inst::new(ist2);
                    let mut q = VecDeque::new();
                    let mut notes = Vec::new();
                    for (from, to, msg) in &eff.sends {
                        insert_msg(&mut s2.msgs, (*from as u8, *to as u8, *msg as u8));
                    }
                    if eff.halted {
                        // Killed at the breakpoint: the rank dies
                        // registered, before acking the command.
                        q.push_back(Pend::Fault(*r));
                    } else {
                        // Released: the call completes.
                        let mut evs = Vec::new();
                        s2.proto.apply(AbstractStep::Ready(*r), &mut evs);
                        self.enqueue_events(&mut q, &evs);
                        notes.push("released".to_string());
                    }
                    out.extend(self.drive(s2, q, 0, notes, log));
                }
                out
            }
            MoveKind::Spawn(r) | MoveKind::StopClosure(r) => {
                let step = match m {
                    MoveKind::Spawn(_) => AbstractStep::Spawn(*r),
                    _ => AbstractStep::StopClosure(*r),
                };
                let mut s2 = s.clone();
                let mut evs = Vec::new();
                s2.proto.apply(step, &mut evs);
                let mut q = VecDeque::new();
                self.enqueue_events(&mut q, &evs);
                self.drive(s2, q, 0, Vec::new(), log)
            }
            MoveKind::Timer { inst, slot } => {
                let q = VecDeque::from([Pend::In { inst: *inst, input: AIn::Timer(*slot) }]);
                self.drive(s.clone(), q, 0, Vec::new(), log)
            }
            MoveKind::WaveStart => {
                let mut s2 = s.clone();
                let mut evs = Vec::new();
                s2.proto.apply(AbstractStep::WaveStart, &mut evs);
                vec![Micro { st: s2, faults: 0, notes: Vec::new() }]
            }
            MoveKind::WaveCommit => {
                let mut s2 = s.clone();
                let mut evs = Vec::new();
                s2.proto.apply(AbstractStep::WaveCommit, &mut evs);
                let mut q = VecDeque::new();
                self.enqueue_events(&mut q, &evs);
                self.drive(s2, q, 0, Vec::new(), log)
            }
        }
    }

    /// All successor branches of `s` in enumeration order, before
    /// reduction, scramble, and the canonical sort.
    pub(crate) fn successors_raw(&self, s: &ProdState, log: &mut SiteLog) -> Vec<Succ> {
        let mut out = Vec::new();
        for m in self.moves(s) {
            let label = self.label_of(s, &m);
            for micro in self.apply_move(s, &m, log) {
                out.push(Succ { label: label.clone(), kind: m.clone(), micro, perm: None });
            }
        }
        out
    }

    /// One full expansion: raw successors, then (reduce mode) the ample
    /// filter and orbit canonicalization, then the scramble hook and the
    /// canonical sort/dedup that makes generation order immaterial.
    pub(crate) fn expand(&self, s: &ProdState) -> Expansion {
        let mut log = SiteLog::new();
        let mut succs = self.successors_raw(s, &mut log);
        let mut por_pruned = 0;
        let mut orbit_hits = 0;
        if self.cfg.reduce {
            let before = succs.len();
            succs = por::ample_filter(self, s, succs);
            por_pruned = before - succs.len();
            for succ in &mut succs {
                let perm = canon::canonical_perm(self, &succ.micro.st);
                if !perm.is_identity() {
                    let rep = perm.apply_state(self, &succ.micro.st);
                    if rep != succ.micro.st {
                        orbit_hits += 1;
                    }
                    succ.micro.st = rep;
                }
                succ.perm = Some(perm);
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

// ---------------------------------------------------------------------------
// The explorer
// ---------------------------------------------------------------------------

pub(crate) struct Explorer<'a> {
    pub(crate) ctx: Ctx<'a>,
    sites: Vec<HaltSite>,

    // Exploration graph.
    states: Vec<ProdState>,
    /// Interning index: a state's 64-bit [`StateHasher`] value → the
    /// newest id carrying it. A state is hashed once, never copied into a
    /// key, and growing the map moves `(u64, u32)` pairs.
    index: HashMap<u64, u32, BuildHasherDefault<PassThrough>>,
    /// The next-older id with the same hash value (`NO_ID` ends the
    /// chain). A hash match is only a candidate: [`Self::intern`] confirms
    /// every one with full state equality.
    same_hash: Vec<u32>,
    /// ANDed onto every hash value; all ones outside the collision test.
    hash_mask: u64,
    dist: Vec<(u32, u32)>,
    parent: Vec<Option<(u32, String)>>,
    /// Reduce mode: the structural move and raw→canonical permutation
    /// behind each parent edge, for concrete witness replay.
    parent_move: Vec<Option<(MoveKind, Perm, u32)>>,
    edges: Vec<Vec<(u32, bool)>>,
    expanded: Vec<bool>,
    all_running: Vec<bool>,
    /// Cost-layered worklist: `(faults, steps)` → state ids in insertion
    /// order. Replaces the old binary heap with identical pop order —
    /// every successor lands strictly deeper than the layer being
    /// processed, so a layer is closed the moment it starts.
    buckets: BTreeMap<(u32, u32), Vec<u32>>,
    n_expanded: usize,
    freeze: Option<(u32, String)>,
    budget_hit: bool,

    /// Raw (pre-canonicalization) initial state and its canonicalizing
    /// permutation, for witness replay.
    init_raw: Option<ProdState>,
    init_perm: Perm,
    orbit_hits: usize,
    por_pruned: usize,
}

impl<'a> Explorer<'a> {
    pub(crate) fn new(sc: &'a Scenario, cfg: &'a ModelCheckConfig, programs: &[Arc<Program>]) -> Self {
        // Resolve parameters: defaults, then overrides; `N` tracks the
        // model's machine count unless the caller pinned it.
        let mut params = sc.param_defaults.clone();
        for (i, name) in sc.param_names.iter().enumerate() {
            if name == "N" && !cfg.params.iter().any(|(n, _)| n == "N") {
                params[i] = cfg.n_hosts as i64 - 1;
            }
        }
        for (name, v) in &cfg.params {
            if let Some(i) = sc.param_names.iter().position(|n| n == name) {
                params[i] = *v;
            }
        }

        let mut inst_class = Vec::new();
        let mut inst_names = Vec::new();
        let mut inst_host = Vec::new();
        let mut by_name = HashMap::new();
        let mut groups = HashMap::new();
        for (name, class) in &sc.suggested.instances {
            by_name.insert(name.clone(), inst_class.len());
            inst_names.push(name.clone());
            inst_class.push(*class);
            inst_host.push(None);
        }
        let n_suggested = inst_class.len();
        let mut controllers = vec![Vec::new(); cfg.n_hosts];
        for (gname, _, class) in &sc.suggested.groups {
            // One member per machine, the harness's deployment shape; the
            // declared size is paper scale and is overridden here.
            let mut members = Vec::new();
            for (h, ctl) in controllers.iter_mut().enumerate() {
                let idx = inst_class.len();
                inst_names.push(format!("{gname}[{h}]"));
                inst_class.push(*class);
                inst_host.push(Some(h as u8));
                ctl.push(idx);
                members.push(idx);
            }
            groups.insert(gname.clone(), members);
        }

        let mut sites = Vec::new();
        let mut halt_sites = HashMap::new();
        for (c, class) in sc.classes.iter().enumerate() {
            for (n, node) in class.nodes.iter().enumerate() {
                for (t, tr) in node.transitions.iter().enumerate() {
                    if tr.actions.iter().any(|a| matches!(a, Action::Halt)) {
                        halt_sites.insert((c, n, t), sites.len());
                        sites.push(HaltSite {
                            class: c,
                            line: tr.line,
                            executed: false,
                            stale: false,
                        });
                    }
                }
            }
        }

        let comm_peers = comm_closure(programs, cfg.n_ranks);
        let profile = canon::profile_of(sc, &params, cfg, &comm_peers);

        let ctx = Ctx {
            sc,
            cfg,
            params,
            inst_class,
            inst_names,
            inst_host,
            controllers,
            by_name,
            groups,
            comm_peers,
            halt_sites,
            n_suggested,
            n_groups: sc.suggested.groups.len(),
            profile,
        };
        Explorer {
            ctx,
            sites,
            states: Vec::new(),
            index: HashMap::default(),
            same_hash: Vec::new(),
            hash_mask: u64::MAX,
            dist: Vec::new(),
            parent: Vec::new(),
            parent_move: Vec::new(),
            edges: Vec::new(),
            expanded: Vec::new(),
            all_running: Vec::new(),
            buckets: BTreeMap::new(),
            n_expanded: 0,
            freeze: None,
            budget_hit: false,
            init_raw: None,
            init_perm: Perm::identity(cfg.n_hosts, cfg.n_units()),
            orbit_hits: 0,
            por_pruned: 0,
        }
    }

    fn initial(&mut self) -> ProdState {
        let ctx = &self.ctx;
        let mut insts = Vec::new();
        let mut log = SiteLog::new();
        for i in 0..ctx.inst_class.len() {
            let class = &ctx.sc.classes[ctx.inst_class[i]];
            let mut st = InstState {
                node: 0,
                vars: vec![VarVal::Known(0); class.var_names.len()],
                inbox: Vec::new(),
                armed: vec![false; class.timer_names.len()],
                controlled: false,
                suspended: false,
            };
            for (slot, e) in &class.var_init {
                let v = store(ctx.eval(e, &st.vars));
                st.vars[*slot] = v;
            }
            // Node-0 entry (always vars, timers); builtins' initial nodes
            // have no consumable inbox, so this never branches.
            let entered = ctx.enter_node(i, st, 0, &mut log);
            insts.push(Inst::new(entered.into_iter().next().expect("initial entry").0));
        }
        let mut s = ProdState {
            insts,
            msgs: Vec::new(),
            proto: AbstractWorld::new(ctx.cfg),
        };
        for (site, stale) in log {
            self.sites[site].executed = true;
            if stale {
                self.sites[site].stale = true;
            }
        }
        // Test hook: start from a seeded point of the initial state's
        // machine orbit. Canonicalization must erase the difference.
        if let Some(seed) = ctx.cfg.permute_seed {
            let pi = canon::seeded_perm(ctx, seed);
            s = pi.apply_state(ctx, &s);
        }
        s
    }

    /// Test hook: an explorer whose interning hash is constant, so every
    /// lookup walks one chain holding every state and only the equality
    /// confirmation tells them apart.
    #[cfg(test)]
    pub(crate) fn with_colliding_hash(
        sc: &'a Scenario,
        cfg: &'a ModelCheckConfig,
        programs: &[Arc<Program>],
    ) -> Self {
        Explorer { hash_mask: 0, ..Explorer::new(sc, cfg, programs) }
    }

    /// Test hook: every interned state, in discovery order.
    #[cfg(test)]
    pub(crate) fn states(&self) -> &[ProdState] {
        &self.states
    }

    fn intern(&mut self, s: ProdState) -> u32 {
        let mut h = StateHasher::default();
        s.hash(&mut h);
        let hash = h.finish() & self.hash_mask;
        let head = self.index.get(&hash).copied().unwrap_or(NO_ID);
        let mut at = head;
        while at != NO_ID {
            if self.states[at as usize] == s {
                return at;
            }
            at = self.same_hash[at as usize];
        }
        let id = self.states.len() as u32;
        self.all_running.push(s.proto.all_running());
        self.index.insert(hash, id);
        self.same_hash.push(head);
        self.states.push(s);
        self.dist.push((u32::MAX, u32::MAX));
        self.parent.push(None);
        self.parent_move.push(None);
        self.edges.push(Vec::new());
        self.expanded.push(false);
        id
    }

    /// Puts the unprocessed tail of an interrupted layer back — including
    /// stale entries — so frontier accounting sees exactly what the old
    /// heap would still hold at the same stop point.
    fn requeue(&mut self, cost: (u32, u32), tail: &[u32]) {
        if !tail.is_empty() {
            // Successors always cost strictly more than the layer being
            // processed, so no new entries can have landed at `cost`.
            self.buckets.entry(cost).or_default().extend_from_slice(tail);
        }
    }

    /// Whether any worklist entry remains, stale or not — the exact
    /// equivalent of the old heap's `!heap.is_empty()` budget condition
    /// (the heap kept superseded entries until popped).
    fn worklist_pending(&self, tail: &[u32]) -> bool {
        !tail.is_empty() || self.buckets.values().any(|b| !b.is_empty())
    }

    pub(crate) fn run(&mut self) {
        let raw = self.initial();
        let (root, p0) = if self.ctx.cfg.reduce {
            canon::canonicalize(&self.ctx, &raw)
        } else {
            (raw.clone(), Perm::identity(self.ctx.cfg.n_hosts, self.ctx.cfg.n_units()))
        };
        self.init_raw = Some(raw);
        self.init_perm = p0;
        let id = self.intern(root);
        self.dist[id as usize] = (0, 0);
        self.buckets.insert((0, 0), vec![id]);

        let threads = self.ctx.cfg.threads.max(1);
        while let Some((&cost, _)) = self.buckets.iter().next() {
            let layer = self.buckets.remove(&cost).expect("bucket");
            // Every successor of this layer costs strictly more (steps+1),
            // so expansion can neither add to the layer nor change which
            // of its entries are stale: the valid set is fixed the moment
            // the layer starts and is safe to expand in parallel. The
            // stale ones (already expanded via an equal-cost duplicate
            // push) are skipped below exactly like heap pop-skips.
            let fresh = |ex: &Self, id: u32| {
                !ex.expanded[id as usize] && cost <= ex.dist[id as usize]
            };
            let todo: Vec<u32> = layer.iter().copied().filter(|&id| fresh(self, id)).collect();
            let exps = frontier::expand_layer(&self.ctx, &self.states, &todo, threads);
            let mut exp_it = exps.into_iter();
            let (f, steps) = cost;
            for (k, &id) in layer.iter().enumerate() {
                if !fresh(self, id) {
                    continue; // heap pop-skip: does not count as expansion
                }
                let exp = exp_it.next().expect("expansion for fresh entry");
                self.expanded[id as usize] = true;
                self.n_expanded += 1;

                if self.states[id as usize].proto.lost_rank().is_some() {
                    // Freeze found: stop before applying this state's halt
                    // log — its (speculative) successors are never taken.
                    let why = self.states[id as usize].proto.freeze_reason();
                    self.freeze = Some((id, why.to_string()));
                    self.requeue(cost, &layer[k + 1..]);
                    return;
                }
                for (site, stale) in exp.log {
                    self.sites[site].executed = true;
                    if stale {
                        self.sites[site].stale = true;
                    }
                }
                self.orbit_hits += exp.orbit_hits;
                self.por_pruned += exp.por_pruned;
                if exp.succs.is_empty() && !self.states[id as usize].proto.all_running() {
                    self.freeze = Some((
                        id,
                        "no enabled step short of the all-running state".to_string(),
                    ));
                    self.requeue(cost, &layer[k + 1..]);
                    return;
                }
                for succ in exp.succs {
                    let full_label = if succ.micro.notes.is_empty() {
                        succ.label
                    } else {
                        format!("{} [{}]", succ.label, succ.micro.notes.join("; "))
                    };
                    let nid = self.intern(succ.micro.st);
                    self.edges[id as usize].push((nid, succ.micro.faults > 0));
                    let cand = (f + succ.micro.faults, steps + 1);
                    if cand < self.dist[nid as usize] {
                        self.dist[nid as usize] = cand;
                        self.parent[nid as usize] = Some((id, full_label));
                        if let Some(perm) = succ.perm {
                            self.parent_move[nid as usize] =
                                Some((succ.kind, perm, succ.micro.faults));
                        }
                        self.buckets.entry(cand).or_default().push(nid);
                    }
                }
                if self.n_expanded >= self.ctx.cfg.budget && self.worklist_pending(&layer[k + 1..])
                {
                    self.budget_hit = true;
                    self.requeue(cost, &layer[k + 1..]);
                    return;
                }
            }
        }
    }

    /// The stored (canonical-frame) witness path to `id`.
    fn witness_to(&self, id: u32) -> Witness {
        let mut steps = Vec::new();
        let mut cur = id;
        while let Some((p, label)) = &self.parent[cur as usize] {
            steps.push(label.clone());
            cur = *p;
        }
        steps.reverse();
        Witness { steps, faults: self.dist[id as usize].0 as usize }
    }

    /// Whether `s` satisfies either freeze predicate the exploration
    /// stops on: a lost rank in the Vcl, or no enabled step short of the
    /// all-running state.
    fn frozen(&self, s: &ProdState) -> bool {
        s.proto.lost_rank().is_some()
            || (self.ctx.moves(s).is_empty() && !s.proto.all_running())
    }

    /// Replays `moves` — `(move, recorded faults, recorded branch
    /// index)` triples — concretely from `init`. Succeeds only when
    /// every move is still enabled in order and its recorded branch
    /// still exists with the recorded fault count. Every branch
    /// `apply_move` returns is a real successor, so any successful
    /// replay is a valid full-graph path; the caller's frozen-end check
    /// decides whether it is a witness. Returns the rendered step
    /// labels and the final state.
    fn replay_exact(
        &self,
        init: &ProdState,
        moves: &[(MoveKind, u32, usize)],
    ) -> Option<(Vec<String>, ProdState)> {
        let mut u = init.clone();
        let mut labels = Vec::with_capacity(moves.len());
        for (m, faults, branch) in moves {
            if !self.ctx.moves(&u).contains(m) {
                return None;
            }
            let label = self.ctx.label_of(&u, m);
            let mut scratch = SiteLog::new();
            let micros = self.ctx.apply_move(&u, m, &mut scratch);
            let micro = micros.into_iter().nth(*branch)?;
            if micro.faults != *faults {
                return None;
            }
            labels.push(if micro.notes.is_empty() {
                label
            } else {
                format!("{label} [{}]", micro.notes.join("; "))
            });
            u = micro.st;
        }
        Some((labels, u))
    }

    /// Greedily deletes zero-fault steps from a replayed witness
    /// schedule, keeping a deletion only when the remaining schedule
    /// still replays unambiguously and still ends frozen. The ample-set
    /// filter forces commuting moves early, which can leave steps in the
    /// reduced-graph witness that the unreduced minimal schedule would
    /// have left pending at the freeze; this strips them again. The
    /// result is a valid full-graph path, so its (faults, steps) cost
    /// never undercuts the true minimum.
    fn minimize_moves(
        &self,
        init: &ProdState,
        mut moves: Vec<(MoveKind, u32, usize)>,
    ) -> Vec<(MoveKind, u32, usize)> {
        loop {
            let mut improved = false;
            let mut i = 0;
            while i < moves.len() {
                if moves[i].1 == 0 {
                    let mut trial = moves.clone();
                    trial.remove(i);
                    if let Some((_, end)) = self.replay_exact(init, &trial) {
                        if self.frozen(&end) {
                            moves = trial;
                            improved = true;
                            continue;
                        }
                    }
                }
                i += 1;
            }
            if !improved {
                return moves;
            }
        }
    }

    /// Reduce mode: replays the canonical-frame path concretely from the
    /// true initial state, transporting each stored move through the
    /// accumulated permutation, so labels and notes name the machines and
    /// ranks of an actual run, then strips ample-forced steps via
    /// [`Self::minimize_moves`]. Returns the witness plus the concrete
    /// freeze state the (minimized) replay lands in.
    fn witness_replayed(&self, id: u32) -> (Witness, ProdState) {
        let mut chain = vec![id];
        let mut cur = id;
        while let Some((p, _)) = &self.parent[cur as usize] {
            chain.push(*p);
            cur = *p;
        }
        chain.reverse();

        // sigma_k maps the canonical frame of chain[k] to the concrete
        // frame; each edge's raw→canonical perm composes in.
        let mut sigma = self.init_perm.invert();
        let init = sigma.apply_state(&self.ctx, &self.states[chain[0] as usize]);
        let mut u = init.clone();
        let mut steps = Vec::new();
        let mut moves: Vec<(MoveKind, u32, usize)> = Vec::new();
        let mut clean = true;
        for &cid in chain.iter().skip(1) {
            let nid = cid as usize;
            let Some((kind, pi, faults)) = &self.parent_move[nid] else {
                // Root edge bookkeeping missing (cannot happen in reduce
                // mode); fall back to the stored label.
                steps.push(self.parent[nid].as_ref().expect("parent edge").1.clone());
                clean = false;
                continue;
            };
            let sigma_next = pi.invert().then(&sigma);
            let expected = sigma_next.apply_state(&self.ctx, &self.states[nid]);
            let cm = sigma.apply_move(&self.ctx, kind);
            let label = self.ctx.label_of(&u, &cm);
            let mut scratch = SiteLog::new();
            let micros = self.ctx.apply_move(&u, &cm, &mut scratch);
            match micros
                .iter()
                .position(|m| m.st == expected && m.faults == *faults)
            {
                Some(branch) => {
                    let m = &micros[branch];
                    if m.notes.is_empty() {
                        steps.push(label);
                    } else {
                        steps.push(format!("{label} [{}]", m.notes.join("; ")));
                    }
                    moves.push((cm, *faults, branch));
                }
                None => {
                    // Replay diverged (a canonicalization bug would land
                    // here) — keep the canonical-frame label rather than
                    // fabricate one.
                    steps.push(self.parent[nid].as_ref().expect("parent edge").1.clone());
                    clean = false;
                }
            }
            u = expected;
            sigma = sigma_next;
        }
        let faults = self.dist[id as usize].0 as usize;
        if clean {
            let minimized = self.minimize_moves(&init, moves);
            if let Some((labels, end)) = self.replay_exact(&init, &minimized) {
                if self.frozen(&end) {
                    return (Witness { steps: labels, faults }, end);
                }
            }
        }
        (Witness { steps, faults }, u)
    }

    pub(crate) fn finish(self) -> ModelCheckResult {
        let mut diagnostics = Vec::new();
        let frontier_ids: std::collections::HashSet<u32> = self
            .buckets
            .values()
            .flatten()
            .copied()
            .filter(|&id| !self.expanded[id as usize])
            .collect();
        let frontier = frontier_ids.len();

        let witness_and_state: Option<(Witness, Option<ProdState>)> =
            self.freeze.as_ref().map(|(id, _)| {
                if self.ctx.cfg.reduce {
                    let (w, final_state) = self.witness_replayed(*id);
                    (w, Some(final_state))
                } else {
                    (self.witness_to(*id), None)
                }
            });

        let verdict = if let Some((id, why)) = &self.freeze {
            let (witness, final_state) = witness_and_state.as_ref().expect("freeze witness");
            // Phrase the blocked-ranks diagnosis in the concrete frame the
            // replayed witness ends in, not the orbit representative's.
            let blocked = match final_state {
                Some(st) => self.blocked_ranks_of(st),
                None => self.blocked_ranks_of(&self.states[*id as usize]),
            };
            diagnostics.push(Diagnostic::new(
                Severity::Error,
                "FC003",
                0,
                format!(
                    "reachable freeze state ({why}) under the {} backend \
                     after {} fault(s) in {} step(s){blocked}",
                    self.ctx.cfg.backend.name(),
                    witness.faults,
                    witness.steps.len()
                ),
                "the scenario can wedge the dispatcher's recovery \
                 bookkeeping; run the witness schedule through the dynamic \
                 simulator (or pass --expect-freeze to sweep it anyway)",
            ));
            StaticVerdict::Freezes
        } else if self.budget_hit {
            diagnostics.push(Diagnostic::new(
                Severity::Warning,
                "FC006",
                0,
                format!(
                    "exploration budget exceeded: {} state(s) expanded, \
                     {frontier} frontier state(s) unexplored — verdict unknown{}",
                    self.n_expanded,
                    self.stall_summary()
                ),
                "raise --budget to finish the exploration, or simplify the \
                 scenario's unbounded counters",
            ));
            StaticVerdict::Unknown
        } else {
            StaticVerdict::Survives
        };

        if verdict == StaticVerdict::Survives {
            // FC001 — halts that no explored path ever executed.
            for site in &self.sites {
                if !site.executed {
                    diagnostics.push(Diagnostic::new(
                        Severity::Warning,
                        "FC001",
                        site.line,
                        format!(
                            "`halt` in daemon {} is never executed on any \
                             reachable schedule",
                            self.ctx.sc.classes[site.class].name
                        ),
                        "the fault injection is statically unreachable; the \
                         scenario strains nothing",
                    ));
                }
            }
            // FC004 — fault/relaunch cycles that never pass all-running.
            for line in self.livelock_sccs() {
                diagnostics.push(line);
            }
        }
        // FC005 — halts observed with no controlled process.
        for site in &self.sites {
            if site.stale {
                diagnostics.push(Diagnostic::new(
                    Severity::Warning,
                    "FC005",
                    site.line,
                    format!(
                        "`halt` in daemon {} can execute with no controlled \
                         process (the target incarnation is already dead)",
                        self.ctx.sc.classes[site.class].name
                    ),
                    "guard the halt behind an onload-reached node or answer \
                     the order with `no` when the machine is empty",
                ));
            }
        }
        // FC002 — every fault provably lands before the first commit.
        if let Some(d) = self.fc002() {
            diagnostics.push(d);
        }
        // FC007 — reduction statistics (info): how much work the orbit
        // and ample reductions saved, and whether symmetry applied at all.
        if self.ctx.cfg.reduce {
            diagnostics.push(Diagnostic::new(
                Severity::Info,
                "FC007",
                0,
                format!(
                    "reduction ({} backend): {} canonical state(s) interned, \
                     {} orbit merge(s), {} commuting step(s) pruned; machine \
                     symmetry {}, rank symmetry {}",
                    self.ctx.cfg.backend.name(),
                    self.states.len(),
                    self.orbit_hits,
                    self.por_pruned,
                    if self.ctx.profile.host_sym { "on" } else { "off" },
                    if self.ctx.profile.rank_sym { "on" } else { "off" },
                ),
                "informational — compare against an unreduced run to gauge \
                 the reduction factor",
            ));
        }

        let state_digest = {
            let mut h = Fnv1a::new();
            for st in &self.states {
                st.hash(&mut h);
            }
            h.finish()
        };

        ModelCheckResult {
            summary: ModelSummary {
                verdict,
                explored: self.n_expanded,
                frontier,
                reduced: self.ctx.cfg.reduce,
                interned: self.states.len(),
                orbit_hits: self.orbit_hits,
                por_pruned: self.por_pruned,
                state_digest,
                witness: witness_and_state.map(|(w, _)| w),
            },
            diagnostics,
        }
    }

    /// FC006 detail: where a budget-exhausted exploration stalled — the
    /// cheapest pending cost layers and their pending-state counts.
    fn stall_summary(&self) -> String {
        let mut layers: Vec<((u32, u32), usize)> = Vec::new();
        for (&cost, bucket) in &self.buckets {
            let pending = bucket.iter().filter(|&&id| !self.expanded[id as usize]).count();
            if pending > 0 {
                layers.push((cost, pending));
            }
        }
        if layers.is_empty() {
            return String::new();
        }
        let shown: Vec<String> = layers
            .iter()
            .take(3)
            .map(|((fa, st), n)| format!("{n} at ({fa} fault(s), {st} step(s))"))
            .collect();
        let more = if layers.len() > 3 {
            format!(" and {} deeper layer(s)", layers.len() - 3)
        } else {
            String::new()
        };
        format!(
            "; stalled with {} pending across cost layers: {}{more}",
            layers.iter().map(|(_, n)| n).sum::<usize>(),
            shown.join(", ")
        )
    }

    /// For the FC003 message: which surviving ranks the op-program
    /// communication skeleton says will block on the lost rank.
    fn blocked_ranks_of(&self, s: &ProdState) -> String {
        let Some(lost) = s.proto.lost_rank() else {
            return String::new();
        };
        if self.ctx.comm_peers.is_empty() {
            return format!("; rank {lost} is permanently lost");
        }
        let blocked: Vec<String> = (0..self.ctx.cfg.n_ranks)
            .filter(|r| *r != lost as usize)
            .filter(|r| self.ctx.comm_peers[*r].contains(&(lost as u32)))
            .map(|r| r.to_string())
            .collect();
        if blocked.is_empty() {
            format!("; rank {lost} is permanently lost")
        } else {
            format!(
                "; rank {lost} is permanently lost and rank(s) {} block on \
                 it through the op-program communication graph",
                blocked.join(", ")
            )
        }
    }

    /// FC002: the purely timing-based argument — a scenario whose every
    /// timer is a compile-time constant shorter than the checkpoint period
    /// injects all of its (timer-driven) faults before any wave can
    /// commit, so every restart replays from scratch.
    fn fc002(&self) -> Option<Diagnostic> {
        let mut has_halt = false;
        let mut max_delay: Option<(i64, u32)> = None;
        for class in &self.ctx.sc.classes {
            if !class.probes.is_empty() {
                return None; // probe-driven scenarios time off live state
            }
            for node in &class.nodes {
                for tr in &node.transitions {
                    if tr.actions.iter().any(|a| matches!(a, Action::Halt)) {
                        has_halt = true;
                    }
                }
                for (_, e) in &node.timers {
                    let (_, hi) = e.const_range(&self.ctx.params)?;
                    if max_delay.is_none_or(|(m, _)| hi > m) {
                        max_delay = Some((hi, node.line));
                    }
                }
            }
        }
        let (delay, line) = max_delay?;
        if !has_halt || delay >= self.ctx.cfg.wave_period_secs {
            return None;
        }
        Some(Diagnostic::new(
            Severity::Warning,
            "FC002",
            line,
            format!(
                "every timer delay is at most {delay} s — shorter than the \
                 {} s checkpoint period, so all timer-driven faults land \
                 before the first wave can commit",
                self.ctx.cfg.wave_period_secs
            ),
            "the scenario never exercises restart-from-checkpoint; lengthen \
             the timer past the checkpoint period",
        ))
    }

    /// FC004: strongly connected components of the explored graph that
    /// contain a fault edge but no all-running state — the system keeps
    /// faulting and relaunching without ever restarting the computation.
    fn livelock_sccs(&self) -> Vec<Diagnostic> {
        let n = self.states.len();
        // Iterative Tarjan.
        let mut index_of = vec![u32::MAX; n];
        let mut low = vec![0u32; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<u32> = Vec::new();
        let mut next_index = 0u32;
        let mut sccs: Vec<Vec<u32>> = Vec::new();
        let mut call: Vec<(u32, usize)> = Vec::new();
        for root in 0..n as u32 {
            if index_of[root as usize] != u32::MAX {
                continue;
            }
            call.push((root, 0));
            index_of[root as usize] = next_index;
            low[root as usize] = next_index;
            next_index += 1;
            stack.push(root);
            on_stack[root as usize] = true;
            while let Some((v, ei)) = call.pop() {
                if ei < self.edges[v as usize].len() {
                    call.push((v, ei + 1));
                    let (w, _) = self.edges[v as usize][ei];
                    if index_of[w as usize] == u32::MAX {
                        index_of[w as usize] = next_index;
                        low[w as usize] = next_index;
                        next_index += 1;
                        stack.push(w);
                        on_stack[w as usize] = true;
                        call.push((w, 0));
                    } else if on_stack[w as usize] {
                        low[v as usize] = low[v as usize].min(index_of[w as usize]);
                    }
                } else {
                    if low[v as usize] == index_of[v as usize] {
                        let mut scc = Vec::new();
                        loop {
                            let w = stack.pop().expect("tarjan stack");
                            on_stack[w as usize] = false;
                            scc.push(w);
                            if w == v {
                                break;
                            }
                        }
                        sccs.push(scc);
                    }
                    if let Some((u, _)) = call.last() {
                        let lu = low[*u as usize].min(low[v as usize]);
                        low[*u as usize] = lu;
                    }
                }
            }
        }
        let mut out = Vec::new();
        for scc in &sccs {
            if scc.len() < 2 && {
                let v = scc[0];
                !self.edges[v as usize].iter().any(|(w, _)| *w == v)
            } {
                continue; // trivial SCC, no self-loop
            }
            let members: std::collections::HashSet<u32> = scc.iter().copied().collect();
            let has_fault = scc.iter().any(|&v| {
                self.edges[v as usize]
                    .iter()
                    .any(|(w, fault)| *fault && members.contains(w))
            });
            let runs = scc.iter().any(|&v| self.all_running[v as usize]);
            if has_fault && !runs {
                out.push(Diagnostic::new(
                    Severity::Warning,
                    "FC004",
                    0,
                    format!(
                        "fault/relaunch livelock: a cycle of {} state(s) \
                         keeps killing and relaunching daemons without ever \
                         reaching the all-running state",
                        scc.len()
                    ),
                    "the scenario can starve the run of progress without \
                     freezing it; bound the fault rate or add a terminal \
                     node",
                ));
                break; // one finding describes the pathology
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

/// "No state": ends a [`Explorer::same_hash`] chain.
const NO_ID: u32 = u32::MAX;

/// The interning hash: one multiply-rotate round per field the derived
/// `Hash` writes, whatever its width, and an avalanche at the end. It only
/// has to spread states over buckets — equality is confirmed on the states
/// themselves — and it is neither persisted nor printed, unlike the pinned
/// [`Fnv1a`] digest.
#[derive(Default)]
struct StateHasher(u64);

impl StateHasher {
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for StateHasher {
    fn finish(&self) -> u64 {
        // The map takes bucket bits from one end of the value and tag
        // bits from the other; fold so both ends depend on every round.
        let mut h = self.0;
        h ^= h >> 32;
        h = h.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^ (h >> 29)
    }
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }
    fn write_u8(&mut self, v: u8) {
        self.mix(u64::from(v));
    }
    fn write_u16(&mut self, v: u16) {
        self.mix(u64::from(v));
    }
    fn write_u32(&mut self, v: u32) {
        self.mix(u64::from(v));
    }
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }
}

/// Hasher of the interning index's keys, which already are hash values.
#[derive(Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, _: &[u8]) {
        unreachable!("the interning index is keyed by u64 only");
    }
    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
}

fn phase_name(p: failmpi_mpichv::AbstractPhase) -> &'static str {
    use failmpi_mpichv::AbstractPhase as P;
    match p {
        P::Launched => "launched",
        P::Booted => "booted, unregistered",
        P::Registered => "registered",
        P::Ready => "ready",
        P::Running => "running",
        P::Stopping => "stopping",
        P::Lost => "lost",
        P::Done => "done",
    }
}

pub(crate) fn insert_msg(msgs: &mut Vec<(u8, u8, u8)>, m: (u8, u8, u8)) {
    let pos = msgs.partition_point(|x| *x <= m);
    msgs.insert(pos, m);
}

fn dedup_fire(mut v: Vec<(InstState, Effects)>) -> Vec<(InstState, Effects)> {
    // Keep deterministic order while dropping exact state duplicates with
    // identical effects (branches that converged).
    let mut out: Vec<(InstState, Effects)> = Vec::new();
    v.reverse();
    while let Some((s, e)) = v.pop() {
        if !out
            .iter()
            .any(|(s2, e2)| *s2 == s && e2.sends == e.sends && e2.halted == e.halted)
        {
            out.push((s, e));
        }
    }
    out
}

fn dedup_micro(mut v: Vec<Micro>) -> Vec<Micro> {
    v.sort_by(|a, b| (&a.st, a.faults, &a.notes).cmp(&(&b.st, b.faults, &b.notes)));
    v.dedup_by(|a, b| a.st == b.st && a.faults == b.faults);
    v
}

/// Transitive closure of "exchanges messages with" over the op-programs —
/// the communication skeleton leg of the product.
fn comm_closure(programs: &[Arc<Program>], n_ranks: usize) -> Vec<Vec<u32>> {
    if programs.is_empty() {
        return Vec::new();
    }
    let n = programs.len().min(n_ranks.max(programs.len()));
    let mut adj = vec![std::collections::HashSet::new(); n];
    for (rank, p) in programs.iter().enumerate() {
        for op in p.ops() {
            let peer = match op {
                Op::Send { to, .. } => Some(to.0 as usize),
                Op::Recv { from, .. } => Some(from.0 as usize),
                _ => None,
            };
            if let Some(peer) = peer {
                if peer < n && peer != rank {
                    adj[rank].insert(peer as u32);
                    adj[peer].insert(rank as u32);
                }
            }
        }
    }
    // Floyd-Warshall style closure (n is tiny).
    let mut changed = true;
    while changed {
        changed = false;
        for a in 0..n {
            let via: Vec<u32> = adj[a].iter().copied().collect();
            for &b in &via {
                let more: Vec<u32> = adj[b as usize]
                    .iter()
                    .copied()
                    .filter(|&c| c as usize != a && !adj[a].contains(&c))
                    .collect();
                if !more.is_empty() {
                    changed = true;
                    adj[a].extend(more);
                }
            }
        }
    }
    adj.into_iter()
        .map(|s| {
            let mut v: Vec<u32> = s.into_iter().collect();
            v.sort_unstable();
            v
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use failmpi_core::compile;

    use super::*;

    /// With every state hashing to the same value the index degenerates
    /// to one chain, and interning is exact only because a hash match is
    /// confirmed by comparing the states. Reduced and unreduced, the
    /// result must be the normal run's in every field.
    #[test]
    fn interning_is_exact_when_every_hash_collides() {
        let sc = compile(include_str!("../../../core/scenarios/fig10_state_sync.fail"))
            .expect("builtin compiles");
        for reduce in [false, true] {
            let cfg = ModelCheckConfig { reduce, ..ModelCheckConfig::default() };
            let mut normal = Explorer::new(&sc, &cfg, &[]);
            let mut colliding = Explorer::with_colliding_hash(&sc, &cfg, &[]);
            normal.run();
            colliding.run();
            assert!(normal.index.len() > 100, "distinct hashes in the normal run");
            assert_eq!(colliding.index.len(), 1, "one bucket in the colliding run");
            let (normal, colliding) = (normal.finish(), colliding.finish());
            assert_eq!(colliding.summary, normal.summary, "reduce={reduce}");
            assert_eq!(
                format!("{:?}", colliding.diagnostics),
                format!("{:?}", normal.diagnostics)
            );
        }
    }
}
