//! The abstract FAIL firing engine: the exploration context ([`Ctx`]) and
//! the pure per-instance semantics that mirror
//! `FailRuntime::{feed, try_fire, fire, enter_node, drain_inbox}` over
//! abstract values, up to [`Ctx::drive`], which settles one product step.
//!
//! Every function returns the set of branch outcomes: undecidable
//! conditions and opaque group indices branch. The engine is
//! immutable-`self` so frontier workers can share it across threads; the
//! one mutation firing wants (halt-site bookkeeping for FC001/FC005) is
//! threaded out as a [`SiteLog`] and applied by the sequential merge.

use std::collections::{HashMap, VecDeque};

use failmpi_backend::vocab::AbstractModel;
use failmpi_core::lang::compile::{Action, Class, Dest, Expr, Guard, Scenario};
use failmpi_mpichv::{AbstractEvent, AbstractStep};

use super::canon::SymmetryProfile;
use super::state::{insert_msg, store, Inst, InstState, Micro, ProdState, SiteLog, VarVal};
use super::ModelCheckConfig;

/// An automaton input, mirroring `FailInput` minus process identities.
#[derive(Clone, Copy, Debug)]
pub(crate) enum AIn {
    OnLoad,
    OnExit,
    OnError,
    Msg { from: usize, msg: usize },
    Timer(usize),
    Breakpoint,
    Probe { slot: usize, value: i64 },
}

/// What a firing scan matches guards against: the trigger an input raises,
/// or the inbox entry at a FIFO position.
#[derive(Clone, Copy)]
enum Trigger {
    OnLoad,
    OnExit,
    OnError,
    Timer(usize),
    Breakpoint,
    Change(usize),
    Inbox(usize),
}

impl Trigger {
    fn matches(self, st: &InstState, g: &Guard) -> bool {
        match (self, g) {
            (Trigger::OnLoad, Guard::OnLoad)
            | (Trigger::OnExit, Guard::OnExit)
            | (Trigger::OnError, Guard::OnError)
            | (Trigger::Breakpoint, Guard::Before(_)) => true,
            (Trigger::Timer(a), Guard::Timer(b)) | (Trigger::Change(a), Guard::Change(b)) => a == *b,
            (Trigger::Inbox(at), Guard::Recv(m)) => {
                st.inbox.get(at).is_some_and(|e| e.1 as usize == *m)
            }
            _ => false,
        }
    }
}

/// Deferred consequence inside one product step.
#[derive(Clone, Debug)]
pub(crate) enum Pend {
    In { inst: usize, input: AIn },
    Fault(u8),
}

/// World-visible side effects of one instance firing.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct Effects {
    /// `(from, to, msg)` sends, in emission order.
    pub(crate) sends: Vec<(usize, usize, usize)>,
    /// A `halt` executed while a process was controlled.
    pub(crate) halted: bool,
}

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

impl Ctx<'_> {
    // -- abstract expression evaluation ------------------------------------

    pub(crate) fn eval(&self, e: &Expr, vars: &[VarVal]) -> VarVal {
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

    /// All conditions of a transition, three-valued: `Some(b)` when
    /// decidable, `None` when the abstraction cannot tell (both branches
    /// are then explored).
    fn conds3(&self, conds: &[Expr], vars: &[VarVal]) -> Option<bool> {
        let mut maybe = false;
        for c in conds {
            match self.eval(c, vars) {
                VarVal::Known(0) => return Some(false),
                VarVal::Known(_) => {}
                VarVal::Top => maybe = true,
            }
        }
        if maybe {
            None
        } else {
            Some(true)
        }
    }

    /// The group members a `G[idx]` destination can resolve to. A known
    /// index names one member — none when it is out of range, where the
    /// runtime drops the send too (`FailRuntime::fire`); an
    /// interval-bounded one narrows the set and an opaque one fans out to
    /// the whole group (see [`Expr::const_range`]).
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

    pub(crate) fn class_of(&self, inst: usize) -> &Class {
        &self.sc.classes[self.inst_class[inst]]
    }

    /// `FailRuntime::enter_node`: `always` variables, the node's timers,
    /// then the inbox re-scan.
    pub(crate) fn enter_node(
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
        self.try_fire_from(inst, st, Trigger::Inbox(0), 0, log)
    }

    /// `FailRuntime::try_fire` and `drain_inbox` as one scan: the first
    /// transition at or after `t0` whose guard matches `trigger` and whose
    /// conditions hold fires; undecidable conditions branch into "fires"
    /// and "the scan goes on". An inbox scan that fires nothing for its
    /// entry moves to the next one — the first consumable message wins.
    fn try_fire_from(
        &self,
        inst: usize,
        st: InstState,
        trigger: Trigger,
        t0: usize,
        log: &mut SiteLog,
    ) -> Vec<(InstState, Effects)> {
        let node = st.node as usize;
        let transitions = &self.class_of(inst).nodes[node].transitions;
        for (t, tr) in transitions.iter().enumerate().skip(t0) {
            if !trigger.matches(&st, &tr.guard) {
                continue;
            }
            match self.conds3(&tr.conds, &st.vars) {
                Some(false) => continue,
                Some(true) => return self.chain_fire(inst, st, trigger, node, t, log),
                None => {
                    let mut out = self.chain_fire(inst, st.clone(), trigger, node, t, log);
                    out.extend(self.try_fire_from(inst, st, trigger, t + 1, log));
                    return dedup_fire(out);
                }
            }
        }
        match trigger {
            Trigger::Inbox(at) if at + 1 < st.inbox.len() => {
                self.try_fire_from(inst, st, Trigger::Inbox(at + 1), 0, log)
            }
            _ => vec![(st, Effects::default())],
        }
    }

    /// Fires transition `(node, t)`; an inbox scan consumes its entry and
    /// names the sender. A transition that moved to a new node re-drains
    /// the inbox there (`enter_node` does).
    fn chain_fire(
        &self,
        inst: usize,
        mut st: InstState,
        trigger: Trigger,
        node: usize,
        t: usize,
        log: &mut SiteLog,
    ) -> Vec<(InstState, Effects)> {
        let sender = match trigger {
            Trigger::Inbox(at) => Some(st.inbox.remove(at).0 as usize),
            _ => None,
        };
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
        while let Some((mut s, mut eff, i, mut goto)) = work.pop() {
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
                    if let [.., last] = targets[..] {
                        for &to in &targets[..targets.len() - 1] {
                            let mut e2 = eff.clone();
                            e2.sends.push((inst, to, *msg));
                            work.push((s.clone(), e2, i + 1, goto));
                        }
                        eff.sends.push((inst, last, *msg));
                    }
                }
                Action::Goto(n) => goto = Some(*n),
                Action::Halt => {
                    if let Some(siteidx) = site {
                        log.push((siteidx, !s.controlled));
                    }
                    if s.controlled {
                        s.controlled = false;
                        s.suspended = false;
                        eff.halted = true;
                    }
                }
                Action::Stop if s.controlled => s.suspended = true,
                Action::Continue if s.controlled => s.suspended = false,
                Action::Stop | Action::Continue => {}
                Action::Assign(slot, e) => {
                    let v = store(self.eval(e, &s.vars));
                    s.vars[*slot] = v;
                }
            }
            work.push((s, eff, i + 1, goto));
        }
        let mut out = Vec::new();
        for (s, eff, goto) in done {
            // A new node re-scans the inbox on entry, and so does a
            // consumed message that left the node alone:
            // `FailRuntime::drain_inbox` keeps firing until nothing matches.
            let settled = match goto {
                Some(n) => self.enter_node(inst, s, n, log),
                None if sender.is_some() => self.try_fire_from(inst, s, Trigger::Inbox(0), 0, log),
                None => vec![(s, Effects::default())],
            };
            for (s2, e2) in settled {
                let mut merged = eff.clone();
                merged.sends.extend(e2.sends);
                merged.halted |= e2.halted;
                out.push((s2, merged));
            }
        }
        dedup_fire(out)
    }

    /// `FailRuntime::feed` for one abstract input.
    fn feed(
        &self,
        inst: usize,
        mut s: InstState,
        input: AIn,
        log: &mut SiteLog,
    ) -> Vec<(InstState, Effects)> {
        let trigger = match input {
            AIn::Msg { from, msg } => {
                s.inbox.push((from as u8, msg as u8));
                Trigger::Inbox(0)
            }
            AIn::OnLoad => {
                s.controlled = true;
                s.suspended = false;
                Trigger::OnLoad
            }
            AIn::OnExit | AIn::OnError => {
                if !s.controlled {
                    return vec![(s, Effects::default())]; // stale
                }
                s.controlled = false;
                s.suspended = false;
                if matches!(input, AIn::OnExit) {
                    Trigger::OnExit
                } else {
                    Trigger::OnError
                }
            }
            AIn::Timer(t) => {
                if !std::mem::take(&mut s.armed[t]) {
                    return vec![(s, Effects::default())];
                }
                Trigger::Timer(t)
            }
            AIn::Breakpoint => Trigger::Breakpoint,
            AIn::Probe { slot, value } => {
                let new = VarVal::Known(value);
                if std::mem::replace(&mut s.vars[slot], new) == new {
                    return vec![(s, Effects::default())];
                }
                Trigger::Change(slot)
            }
        };
        self.try_fire_from(inst, s, trigger, 0, log)
    }

    // -- world-level step application --------------------------------------

    /// Applies one protocol step to `s` and queues the automaton inputs
    /// its events raise; returns the events.
    pub(crate) fn proto_step(
        &self,
        s: &mut ProdState,
        step: AbstractStep,
        q: &mut VecDeque<Pend>,
    ) -> Vec<AbstractEvent> {
        let mut evs = Vec::new();
        s.proto.apply(step, &mut evs);
        self.enqueue_events(q, &evs);
        evs
    }

    /// The breakpoint step: `holder`'s debugger holds `rank`'s process
    /// just before `localMPI_setCommand`; the scenario decides whether the
    /// call proceeds.
    pub(crate) fn breakpoint_step(
        &self,
        s: &ProdState,
        rank: u8,
        holder: usize,
        log: &mut SiteLog,
    ) -> Vec<Micro> {
        let mut out = Vec::new();
        for (ist2, eff) in self.feed(holder, InstState::clone(&s.insts[holder]), AIn::Breakpoint, log) {
            let mut s2 = s.clone();
            s2.insts[holder] = Inst::new(ist2);
            for (from, to, msg) in &eff.sends {
                insert_msg(&mut s2.msgs, (*from as u8, *to as u8, *msg as u8));
            }
            let mut q = VecDeque::new();
            let mut notes = Vec::new();
            if eff.halted {
                // Killed at the breakpoint: the rank dies registered,
                // before acking the command.
                q.push_back(Pend::Fault(rank));
            } else {
                // Released: the call completes.
                self.proto_step(&mut s2, AbstractStep::Ready(rank), &mut q);
                notes.push("released".to_string());
            }
            out.extend(self.drive(s2, q, notes, log));
        }
        out
    }

    /// Processes a queue of pending consequences to completion, branching
    /// as the automata branch. Returns the settled micro-states.
    pub(crate) fn drive(
        &self,
        st: ProdState,
        queue: VecDeque<Pend>,
        notes: Vec<String>,
        log: &mut SiteLog,
    ) -> Vec<Micro> {
        let mut out = Vec::new();
        let mut work = vec![(st, queue, 0u32, notes)];
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
                    let phase = s.proto.unit(r as usize).phase;
                    let during = s.proto.recovery_active();
                    let desc = s.proto.unit_desc(r as usize);
                    let evs = self.proto_step(&mut s, AbstractStep::Fault(r), &mut q);
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
                    work.push((s, q, f + 1, notes));
                }
                Pend::In { inst, input } => {
                    let branches = self.feed(inst, InstState::clone(&s.insts[inst]), input, log);
                    // The last branch takes the state; only a genuine
                    // fork pays for a copy.
                    let n_branches = branches.len();
                    let mut rest = Some((s, q, notes));
                    for (k, (ist2, eff)) in branches.into_iter().enumerate() {
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
        out.sort_by(|a, b| (&a.st, a.faults, &a.notes).cmp(&(&b.st, b.faults, &b.notes)));
        out.dedup_by(|a, b| a.st == b.st && a.faults == b.faults);
        out
    }

    /// Maps abstract protocol events onto automaton inputs, honoring the
    /// dynamic runtime's routing (lifecycle hooks to the host's
    /// controllers, committed-wave / epoch updates to probe subscribers).
    fn enqueue_events(&self, q: &mut VecDeque<Pend>, evs: &[AbstractEvent]) {
        for e in evs {
            let (host, input) = match e {
                AbstractEvent::OnLoad { host } => (host, AIn::OnLoad),
                AbstractEvent::OnExit { host } => (host, AIn::OnExit),
                AbstractEvent::OnError { host } => (host, AIn::OnError),
                AbstractEvent::CommittedWave(v) => {
                    self.enqueue_probe(q, "committed_wave", *v);
                    continue;
                }
                AbstractEvent::EpochBumped(v) => {
                    self.enqueue_probe(q, "epoch", *v);
                    continue;
                }
                AbstractEvent::FailureDetected { .. } | AbstractEvent::RankLost { .. } => continue,
            };
            for &inst in &self.controllers[*host as usize] {
                q.push_back(Pend::In { inst, input });
            }
        }
    }

    fn enqueue_probe(&self, q: &mut VecDeque<Pend>, name: &str, value: u8) {
        for inst in 0..self.inst_class.len() {
            if let Some((_, slot)) = self.class_of(inst).probes.iter().find(|(n, _)| n == name) {
                q.push_back(Pend::In {
                    inst,
                    input: AIn::Probe { slot: *slot, value: value as i64 },
                });
            }
        }
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

/// Drops branches that converged on the same state with the same effects,
/// keeping the first of each in order.
fn dedup_fire(v: Vec<(InstState, Effects)>) -> Vec<(InstState, Effects)> {
    let mut out: Vec<(InstState, Effects)> = Vec::new();
    for b in v {
        if !out.contains(&b) {
            out.push(b);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    //! The abstract engine against the runtime it mirrors. Under
    //! parameters that make every `FAIL_RANDOM` range a point (`N = 0`)
    //! and keep counters inside `VAR_CAP` the abstraction is exact: no
    //! value is `Top`, so no scan branches, and [`Ctx::feed`] must then be
    //! [`FailRuntime::feed`] input for input.

    use std::collections::BTreeMap;

    use failmpi_core::{compile, Deployment, FailAction, FailInput, FailRuntime};
    use failmpi_sim::SimRng;
    use proptest::prelude::*;
    use proptest::test_runner::Config;

    use super::super::search::Explorer;
    use super::*;
    use crate::builtin::BUILTIN_SCENARIOS;

    const N_HOSTS: usize = 3;

    /// Beside the builtins, two shapes none of them has. An index known
    /// at run time only that walks out of the group: both sides drop the
    /// send and carry on. A receive without `goto` (`?arm`) that makes a
    /// queued message consumable (`?hit` waits for `armed`): both sides
    /// re-scan the inbox and consume it in the same step.
    const EXTRA_SRC: &str = "\
daemon Walker {
  int next = 1;
  int armed = 0;
  node 1:
    ?step -> !hit(G1[next]), next = next + 1, goto 1;
    ?hit && armed == 1 -> !step(FAIL_SENDER), armed = 0, goto 1;
    ?arm -> armed = 1;
}
daemon Echo { node 1: ?hit -> !step(P1), !hit(P1), !arm(P1), goto 1; }
instance P1 = Walker;
group G1[3] = Echo;
";

    /// The concrete side plus the world a runtime assumes around it: one
    /// pending expiry per armed timer slot, and which controlled
    /// processes a `stop` holds suspended.
    struct Concrete {
        rt: FailRuntime,
        rng: SimRng,
        pending: BTreeMap<(usize, usize), u64>,
        suspended: Vec<bool>,
        next_proc: u64,
    }

    impl Concrete {
        /// Applies `acts` to the world; returns the `(from, to, msg)`
        /// sends and whether a process was killed.
        fn absorb(&mut self, inst: usize, acts: Vec<FailAction>) -> (Vec<(usize, usize, usize)>, bool) {
            let mut sends = Vec::new();
            let mut halted = false;
            for a in acts {
                match a {
                    FailAction::SendMsg { from, to, msg } => sends.push((from, to, msg)),
                    FailAction::ArmTimer { instance, timer, gen, .. } => {
                        self.pending.insert((instance, timer), gen);
                    }
                    FailAction::Halt { .. } => {
                        halted = true;
                        self.suspended[inst] = false;
                    }
                    FailAction::Stop { .. } => self.suspended[inst] = true,
                    FailAction::Continue { .. } => self.suspended[inst] = false,
                    _ => {} // breakpoint plumbing: not part of the abstract state
                }
            }
            (sends, halted)
        }

        /// The inbox of `inst`, read off the runtime's derived `Debug`
        /// rendering (the field is private, and rightly so).
        fn inbox(&self, inst: usize) -> String {
            let text = format!("{:?}", self.rt);
            let entry = text.split("inbox: ").nth(inst + 1).expect("one inbox per instance");
            entry.split(", entry_gen").next().expect("field order").to_string()
        }
    }

    /// Feeds one generated input to both sides and holds every observable
    /// of the fed instance against its twin.
    fn step(ctx: &Ctx, abs: &mut [InstState], con: &mut Concrete, pick: (usize, usize, usize, usize)) {
        let (inst, kind, a, b) = (pick.0 % abs.len(), pick.1, pick.2, pick.3);
        let class = ctx.class_of(inst);
        let controlled = con.rt.controlled(inst);
        let (ain, cin) = match kind {
            0 => {
                con.next_proc += 1;
                con.suspended[inst] = false;
                (AIn::OnLoad, FailInput::OnLoad { instance: inst, proc: con.next_proc })
            }
            1 | 2 => {
                // The live process's own event, or a stale one when none is.
                let proc = controlled.unwrap_or(0);
                con.suspended[inst] = false;
                if kind == 1 {
                    (AIn::OnExit, FailInput::OnExit { instance: inst, proc })
                } else {
                    (AIn::OnError, FailInput::OnError { instance: inst, proc })
                }
            }
            3 => {
                let (from, msg) = (a % abs.len(), b % ctx.sc.messages.len());
                (AIn::Msg { from, msg }, FailInput::Msg { from, to: inst, msg })
            }
            4 => {
                // An expiry the world owes this instance, if any.
                let owed: Vec<(usize, usize)> =
                    con.pending.keys().copied().filter(|k| k.0 == inst).collect();
                let Some(&key) = owed.get(a % owed.len().max(1)) else { return };
                let gen = con.pending.remove(&key).expect("owed");
                (AIn::Timer(key.1), FailInput::Timer { instance: inst, timer: key.1, gen })
            }
            5 => {
                // The product raises a breakpoint only at a controller
                // whose process is attached.
                let Some(proc) = controlled else { return };
                let func = "localMPI_setCommand".to_string();
                (AIn::Breakpoint, FailInput::Breakpoint { instance: inst, proc, func })
            }
            _ => {
                let Some(&(_, slot)) = class.probes.get(a % class.probes.len().max(1)) else {
                    return;
                };
                let value = (b % 4) as i64;
                (AIn::Probe { slot, value }, FailInput::Probe { instance: inst, probe: slot, value })
            }
        };
        let mut branches = ctx.feed(inst, abs[inst].clone(), ain, &mut SiteLog::new());
        assert_eq!(branches.len(), 1, "{ain:?} branched in the exact regime");
        let (st, eff) = branches.pop().expect("one branch");
        let acts = con.rt.feed(cin.clone(), &mut con.rng);
        let (sends, halted) = con.absorb(inst, acts);

        let at = format!("{} after {cin:?}", ctx.inst_names[inst]);
        assert_eq!((eff.sends, eff.halted), (sends, halted), "effects of {at}");
        assert_eq!(class.nodes[st.node as usize].label, con.rt.current_node_label(inst), "node of {at}");
        for (name, v) in class.var_names.iter().zip(&st.vars) {
            assert_eq!(*v, VarVal::Known(con.rt.var(inst, name).expect("declared")), "{name} of {at}");
        }
        let inbox: Vec<(usize, usize)> = st.inbox.iter().map(|e| (e.0 as usize, e.1 as usize)).collect();
        assert_eq!(format!("{inbox:?}"), con.inbox(inst), "inbox of {at}");
        assert_eq!(st.controlled, con.rt.controlled(inst).is_some(), "controlled of {at}");
        assert_eq!(st.suspended, con.suspended[inst], "suspended of {at}");
        // An armed slot is one the world still owes an expiry for; the
        // runtime's generations additionally void the superseded ones,
        // which both sides then ignore alike (checked when delivered).
        for (slot, armed) in st.armed.iter().enumerate() {
            assert!(!armed || con.pending.contains_key(&(inst, slot)), "timer {slot} of {at}");
        }
        abs[inst] = st;
    }

    proptest! {
        #![proptest_config(Config::with_cases(48))]

        #[test]
        fn feed_agrees_with_the_runtime_where_the_abstraction_is_exact(
            which in 0usize..=BUILTIN_SCENARIOS.len(),
            inputs in proptest::collection::vec(
                (any::<usize>(), 0usize..7, any::<usize>(), any::<usize>()),
                1..48,
            ),
        ) {
            let src = BUILTIN_SCENARIOS.get(which).map_or(EXTRA_SRC, |b| b.1);
            let sc = compile(src).expect("compiles");
            if sc.suggested.groups.is_empty() {
                return Ok(()); // Fig. 4 is a class library; Fig. 5 deploys its class
            }
            let params = vec![("N".to_string(), 0)];
            let cfg = ModelCheckConfig { n_hosts: N_HOSTS, params, ..ModelCheckConfig::default() };
            let ex = Explorer::new(&sc, &cfg, &[]);
            let mut abs: Vec<InstState> =
                ex.init_raw.insts.iter().map(|i| InstState::clone(i)).collect();

            // The same deployment, concretely: suggested instances, then
            // one member per machine of every group.
            let mut deployment = Deployment::new();
            for (i, name) in ex.ctx.inst_names.iter().enumerate() {
                deployment.add_instance(name, &ex.ctx.class_of(i).name).expect("fresh");
            }
            for (name, ..) in &sc.suggested.groups {
                deployment.add_group(name, ex.ctx.groups[name].clone()).expect("fresh");
            }
            let n = sc.param_names.iter().any(|p| p == "N").then_some(("N", 0));
            let rt = FailRuntime::new(&sc, deployment, n.as_slice()).expect("deploys");
            let mut con = Concrete {
                rt,
                rng: SimRng::new(which as u64),
                pending: BTreeMap::new(),
                suspended: vec![false; abs.len()],
                next_proc: 0,
            };
            let armed = con.rt.start(&mut con.rng);
            con.absorb(0, armed);

            // After the generated inputs, three rounds of every message
            // to every instance: a floor under what each case reaches
            // (`EXTRA_SRC`'s index is out of range from the third `step`, and
            // its `hit` is queued before its `arm` arrives).
            let n = abs.len();
            let rounds = (0..3 * n * sc.messages.len()).map(|k| (k, 3, 0, k / n));
            for pick in inputs.into_iter().chain(rounds) {
                step(&ex.ctx, &mut abs, &mut con, pick);
            }
            // Deliver what the world still owes: a latent disagreement
            // about which timers are live shows here.
            while let Some(&(inst, _)) = con.pending.keys().next() {
                step(&ex.ctx, &mut abs, &mut con, (inst, 4, 0, 0));
            }
        }
    }
}
