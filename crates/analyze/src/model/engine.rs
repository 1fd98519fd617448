//! The abstract FAIL engine: the exploration context ([`Ctx`]), the
//! abstract value domain the firing core of [`failmpi_core::fire`] runs
//! over, and the product-level step code up to [`Ctx::drive`], which
//! settles one product step.
//!
//! The core leaves to the domain what the abstraction cannot decide: an
//! unknown condition or a group index with several candidate members is a
//! decision point. [`Ctx::outcomes`] runs the core once, recording the arity
//! of every decision, then re-runs it from the pre-input state along each
//! other choice path, depth first. The engine is immutable-`self` so
//! frontier workers can share it across threads; the one mutation firing
//! wants (halt-site bookkeeping for FC001/FC005) is threaded out as a
//! [`SiteLog`] and applied by the sequential merge. What settling a step
//! only needs while it runs — the work stack, the queues, the protocol
//! events, the choice path, the leaves — lives in the worker's
//! [`DriveScratch`] and is cleared, not freed, between steps.

use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::ops::Range;

use failmpi_backend::vocab::AbstractModel;
use failmpi_core::fire::{Domain, Fire, Input, Machine};
use failmpi_core::lang::compile::{apply_bin, Class, Expr, Scenario};
use failmpi_core::Deployment;
use failmpi_mpichv::{AbstractEvent, AbstractStep};

use super::canon::SymmetryProfile;
use super::state::{
    insert_msg, Control, InstState, InstTable, Micro, ProdState, SiteLog, Vals, VarVal, VAR_CAP,
};
use super::ModelCheckConfig;

/// An automaton input: the core's, minus process identities and timer
/// generations.
pub(crate) type AIn = Input<'static, (), ()>;

/// Deferred consequence inside one product step.
#[derive(Clone, Debug)]
pub(crate) enum Pend {
    In { inst: usize, input: AIn },
    Fault(u8),
}

/// One outcome of feeding an instance: its state after, and its
/// world-visible effects — the `(from, to, msg)` sends it emitted, in
/// order, as a range of its [`Firing::sends`], and whether a `halt`
/// executed while a process was controlled.
struct Leaf {
    st: InstState,
    sends: Range<usize>,
    halted: bool,
}

/// A choice path through the core's decision points: `(choice, arity)`
/// per decision, in the order the core met them.
type Path = Vec<(usize, usize)>;

/// A product state being settled: the state, its pending consequences,
/// the faults injected so far, and the witness notes.
type WorkItem = (ProdState, VecDeque<Pend>, u32, Vec<String>);

/// What [`Ctx::outcomes`] works in: the choice path, the sends of every
/// leaf, and the leaves past the first.
#[derive(Default)]
struct Firing {
    path: Path,
    sends: Vec<(u8, u8, u8)>,
    forks: Vec<Leaf>,
}

impl Firing {
    /// Whether two leaves of this firing are the same outcome.
    fn same(&self, a: &Leaf, b: &Leaf) -> bool {
        a.halted == b.halted
            && self.sends[a.sends.clone()] == self.sends[b.sends.clone()]
            && a.st == b.st
    }
}

/// The buffers settling a product step reuses, one set per worker: all
/// of them are empty between two calls of [`Ctx::drive`].
#[derive(Default)]
pub(crate) struct DriveScratch {
    /// Work items being settled.
    work: Vec<WorkItem>,
    /// Emptied queues, handed to the next work item.
    queues: Vec<VecDeque<Pend>>,
    /// The events of the protocol step being applied.
    pub(crate) evs: Vec<AbstractEvent>,
    /// The firing of the automaton input being settled.
    firing: Firing,
    /// The breakpoint holder's firing, which outlives the settling of its
    /// leaves.
    held: Firing,
    /// The instance values this worker's states hold that the explorer's
    /// table lacks (see [`InstTable::intern_pending`]); [`Ctx::expand`]
    /// hands them on in its [`super::state::Expansion`], leaving it empty.
    pub(crate) pending: InstTable,
}

impl DriveScratch {
    /// An empty queue: a spent one when there is one.
    pub(crate) fn queue(&mut self) -> VecDeque<Pend> {
        self.queues.pop().unwrap_or_default()
    }
}

/// Everything successor generation reads: the compiled scenario, the
/// deployment binding, the symmetry profile and the instance table.
/// Shared read-only across frontier worker threads; only the search,
/// between layers, adds to the table.
pub(crate) struct Ctx<'a> {
    pub(crate) sc: &'a Scenario,
    pub(crate) cfg: &'a ModelCheckConfig,
    pub(crate) params: Vec<i64>,
    /// Suggested instances first, then one group member per host for
    /// every suggested group.
    pub(crate) deployment: Deployment,
    /// Instance class indices, in deployment order.
    pub(crate) inst_class: Vec<usize>,
    /// `Some(h)` when the instance controls machine `h`.
    pub(crate) inst_host: Vec<Option<u8>>,
    /// Controllers of each host, in instance order.
    pub(crate) controllers: Vec<Vec<usize>>,
    /// Ranks each rank transitively exchanges messages with (op-program
    /// communication skeleton), used to phrase the freeze diagnosis.
    pub(crate) comm_peers: Vec<Vec<u32>>,
    pub(crate) halt_sites: HashMap<(usize, usize, usize), usize>,
    pub(crate) n_suggested: usize,
    pub(crate) n_groups: usize,
    pub(crate) profile: SymmetryProfile,
    /// Every instance value an interned state holds, once.
    pub(crate) table: InstTable,
}

/// The checker's domain over one instance, along one choice path.
struct Abs<'e, 'a> {
    ctx: &'e Ctx<'a>,
    inst: usize,
    /// Where the sends go, `(from, to, msg)` in emission order.
    sends: &'e mut Vec<(u8, u8, u8)>,
    /// A `halt` executed while a process was controlled.
    halted: bool,
    log: &'e mut SiteLog,
    /// The decisions of the path; one past its end takes option 0 and is
    /// appended.
    path: &'e mut Path,
    depth: usize,
}

impl Domain for Abs<'_, '_> {
    type Val = VarVal;
    type Node = u16;
    type Id = u8;
    type Control = Control;
    type Proc = ();
    type Tick = ();

    /// `Top` wherever a random draw or a `Top` operand enters;
    /// constant-folded under the parameters first.
    fn eval(&mut self, e: &Expr, vars: &[VarVal]) -> VarVal {
        let params = &self.ctx.params;
        if let Some(v) = e.fold_const(params) {
            return VarVal::Known(v);
        }
        match e {
            Expr::Int(n) => VarVal::Known(*n),
            Expr::Var(i) => vars[*i],
            Expr::Param(i) => VarVal::Known(params[*i]),
            Expr::Rand(..) => match e.const_range(params) {
                Some((l, h)) if l == h => VarVal::Known(l),
                _ => VarVal::Top,
            },
            Expr::Bin(op, a, b) => match (self.eval(a, vars), self.eval(b, vars)) {
                (VarVal::Known(x), VarVal::Known(y)) => VarVal::Known(apply_bin(*op, x, y)),
                _ => VarVal::Top,
            },
            Expr::Neg(a) => match self.eval(a, vars) {
                VarVal::Known(x) => VarVal::Known(x.wrapping_neg()),
                VarVal::Top => VarVal::Top,
            },
        }
    }

    /// Saturates big magnitudes to `Top`, so counters cannot unfold the
    /// state space.
    fn store(v: VarVal) -> VarVal {
        match v {
            VarVal::Known(x) if x.abs() > VAR_CAP => VarVal::Top,
            other => other,
        }
    }

    fn truth(v: VarVal) -> Option<bool> {
        match v {
            VarVal::Known(x) => Some(x != 0),
            VarVal::Top => None,
        }
    }

    /// A known index is a point; an opaque one is bounded by its
    /// [`Expr::const_range`] when it has one and spans the group otherwise.
    fn index(&mut self, idx: &Expr, vars: &[VarVal]) -> (i64, i64) {
        match self.eval(idx, vars) {
            VarVal::Known(k) => (k, k),
            VarVal::Top => idx.const_range(&self.ctx.params).unwrap_or((0, i64::MAX)),
        }
    }

    fn choose(&mut self, arity: usize) -> usize {
        if self.depth == self.path.len() {
            self.path.push((0, arity));
        }
        let (k, n) = self.path[self.depth];
        debug_assert_eq!(n, arity, "a replayed prefix meets the same decisions");
        self.depth += 1;
        k
    }

    fn send(&mut self, to: usize, msg: usize) {
        self.sends.push((self.inst as u8, to as u8, msg as u8));
    }

    fn control(ctl: &mut Control, proc: Option<()>) {
        ctl.controlled = proc.is_some();
        ctl.suspended = false;
    }

    fn controls(ctl: &Control, (): ()) -> bool {
        ctl.controlled
    }

    fn halt(&mut self, ctl: &mut Control, (node, t): (usize, usize)) {
        let class = self.ctx.inst_class[self.inst];
        if let Some(&site) = self.ctx.halt_sites.get(&(class, node, t)) {
            self.log.push((site, !ctl.controlled));
        }
        if ctl.controlled {
            ctl.controlled = false;
            ctl.suspended = false;
            self.halted = true;
        }
    }

    fn suspend(&mut self, ctl: &mut Control, on: bool) {
        if ctl.controlled {
            ctl.suspended = on;
        }
    }

    fn arm(&mut self, ctl: &mut Control, _vars: &[VarVal], timers: &[(usize, Expr)]) {
        ctl.armed.iter_mut().for_each(|a| *a = false);
        for (t, _) in timers {
            ctl.armed[*t] = true;
        }
    }

    fn expire(ctl: &mut Control, timer: usize, (): ()) -> bool {
        std::mem::take(&mut ctl.armed[timer])
    }
}

/// Advances `path` to the next choice path, depth first: the deepest
/// decision with an option left takes it, and the decisions below it are
/// dropped. `false` once every path has run.
fn next_path(path: &mut Path) -> bool {
    while let Some((k, n)) = path.pop() {
        if k + 1 < n {
            path.push((k + 1, n));
            return true;
        }
    }
    false
}

impl Ctx<'_> {
    pub(crate) fn class_of(&self, inst: usize) -> &Class {
        &self.sc.classes[self.inst_class[inst]]
    }

    /// Resolves the handles of the table and of `pending`.
    pub(crate) fn vals<'s>(&'s self, pending: &'s InstTable) -> Vals<'s> {
        self.table.vals(pending.values())
    }

    /// Sets instance `inst` of `s` to `st`; its handle changes only when
    /// its value does.
    fn put(&self, pending: &mut InstTable, s: &mut ProdState, inst: usize, st: InstState) {
        if self.vals(pending)[s.insts[inst]] != st {
            s.insts[inst] = self.table.intern_pending(pending, st);
        }
    }

    /// The firing core over instance `inst`, along choice path `path`,
    /// sending into `sends`.
    fn fire<'e>(
        &'e self,
        inst: usize,
        log: &'e mut SiteLog,
        path: &'e mut Path,
        sends: &'e mut Vec<(u8, u8, u8)>,
    ) -> Fire<'e, Abs<'e, 'e>> {
        let dom = Abs { ctx: self, inst, sends, halted: false, log, path, depth: 0 };
        Fire { class: self.class_of(inst), deployment: &self.deployment, dom }
    }

    /// Instance `inst` started: variables initialised, node 0 entered.
    /// Its inbox is empty, so start fires nothing: it neither decides nor
    /// halts.
    pub(crate) fn start(&self, inst: usize) -> InstState {
        let class = self.class_of(inst);
        let armed = vec![false; class.timer_names.len()];
        let mut m = Machine::new(class, Control { armed, controlled: false, suspended: false });
        self.fire(inst, &mut SiteLog::new(), &mut Vec::new(), &mut Vec::new()).start(&mut m);
        m
    }

    /// Every outcome of feeding `input` to instance `inst` in state `st`:
    /// the leaf of the first choice path, returned, and the other leaves,
    /// duplicates dropped, in `f.forks` when the core met a decision
    /// point. Every leaf's sends are in `f.sends`.
    fn outcomes(
        &self,
        inst: usize,
        st: &InstState,
        input: AIn,
        log: &mut SiteLog,
        f: &mut Firing,
    ) -> Leaf {
        f.path.clear();
        f.sends.clear();
        f.forks.clear();
        let mut run = |f: &mut Firing| {
            let mut m = st.clone();
            let start = f.sends.len();
            let mut fire = self.fire(inst, log, &mut f.path, &mut f.sends);
            fire.feed(&mut m, input);
            let halted = fire.dom.halted;
            Leaf { st: m, sends: start..f.sends.len(), halted }
        };
        let first = run(f);
        while next_path(&mut f.path) {
            let leaf = run(f);
            if f.same(&leaf, &first) || f.forks.iter().any(|k| f.same(k, &leaf)) {
                f.sends.truncate(leaf.sends.start);
            } else {
                f.forks.push(leaf);
            }
        }
        first
    }

    // -- world-level step application --------------------------------------

    /// Applies one protocol step to `s` and queues the automaton inputs
    /// its events raise; leaves the events in `evs`.
    pub(crate) fn proto_step(
        &self,
        s: &mut ProdState,
        step: AbstractStep,
        q: &mut VecDeque<Pend>,
        evs: &mut Vec<AbstractEvent>,
    ) {
        evs.clear();
        s.proto.apply(step, evs);
        self.enqueue_events(q, evs);
    }

    /// The breakpoint step: `holder`'s debugger holds `rank`'s process
    /// just before `localMPI_setCommand`; the scenario decides whether the
    /// call proceeds. Appends the settled branches of each of the holder's
    /// outcomes to `out`, each outcome's sorted on its own.
    pub(crate) fn breakpoint_step(
        &self,
        s: &ProdState,
        rank: u8,
        holder: usize,
        log: &mut SiteLog,
        scr: &mut DriveScratch,
        out: &mut Vec<Micro>,
    ) {
        let input = AIn::Breakpoint((), None);
        let st = &self.vals(&scr.pending)[s.insts[holder]];
        let first = self.outcomes(holder, st, input, log, &mut scr.held);
        // Settling a leaf fires other automata, so the holder's firing
        // leaves the scratch until its leaves are settled.
        let mut held = std::mem::take(&mut scr.held);
        for leaf in std::iter::once(first).chain(held.forks.drain(..)) {
            let mut s2 = s.clone();
            self.put(&mut scr.pending, &mut s2, holder, leaf.st);
            for &m in &held.sends[leaf.sends] {
                insert_msg(&mut s2.msgs, m);
            }
            let mut q = scr.queue();
            let mut notes = Vec::new();
            if leaf.halted {
                // Killed at the breakpoint: the rank dies registered,
                // before acking the command.
                q.push_back(Pend::Fault(rank));
            } else {
                // Released: the call completes.
                self.proto_step(&mut s2, AbstractStep::Ready(rank), &mut q, &mut scr.evs);
                notes.push("released".to_string());
            }
            self.drive(s2, q, notes, log, scr, out);
        }
        scr.held = held;
    }

    /// Processes a queue of pending consequences to completion, branching
    /// as the automata branch. Appends the settled micro-states to `out`,
    /// sorted and deduplicated among themselves.
    pub(crate) fn drive(
        &self,
        st: ProdState,
        queue: VecDeque<Pend>,
        notes: Vec<String>,
        log: &mut SiteLog,
        scr: &mut DriveScratch,
        out: &mut Vec<Micro>,
    ) {
        let start = out.len();
        scr.work.push((st, queue, 0u32, notes));
        while let Some((mut s, mut q, f, mut notes)) = scr.work.pop() {
            let Some(p) = q.pop_front() else {
                out.push(Micro { st: s, faults: f, notes });
                scr.queues.push(q);
                continue;
            };
            match p {
                Pend::Fault(r) => {
                    if !s.proto.unit_live(r as usize) {
                        // The process died between the halt decision and
                        // this point (cascaded recovery) — nothing to kill.
                        scr.work.push((s, q, f, notes));
                        continue;
                    }
                    let phase = s.proto.unit(r as usize).phase;
                    let during = s.proto.recovery_active();
                    let mut note = String::from("fault kills ");
                    s.proto.unit_desc(r as usize, &mut note);
                    let during = if during { ", during recovery" } else { "" };
                    let _ = write!(note, " ({}{during})", phase_name(phase));
                    notes.push(note);
                    self.proto_step(&mut s, AbstractStep::Fault(r), &mut q, &mut scr.evs);
                    for e in &scr.evs {
                        if let AbstractEvent::RankLost { rank } = e {
                            notes.push(s.proto.lost_note(*rank));
                        }
                    }
                    scr.work.push((s, q, f + 1, notes));
                }
                Pend::In { inst, input } => {
                    // Only a genuine fork pays for a copy of the state.
                    let st = &self.vals(&scr.pending)[s.insts[inst]];
                    let first = self.outcomes(inst, st, input, log, &mut scr.firing);
                    let sends = &scr.firing.sends;
                    for leaf in scr.firing.forks.drain(..) {
                        let mut q2 = scr.queues.pop().unwrap_or_default();
                        q2.extend(q.iter().cloned());
                        let item = (s.clone(), q2, f, notes.clone());
                        scr.work.push(self.absorb(&mut scr.pending, inst, leaf, sends, item));
                    }
                    let item = self.absorb(&mut scr.pending, inst, first, sends, (s, q, f, notes));
                    scr.work.push(item);
                }
            }
        }
        // Sort what this call settled and drop, as `Vec::dedup_by` would,
        // each branch that repeats the last one kept.
        let vals = self.vals(&scr.pending);
        out[start..].sort_by(|a, b| {
            (a.st.cmp_values(&b.st, vals))
                .then(a.faults.cmp(&b.faults))
                .then_with(|| a.notes.cmp(&b.notes))
        });
        let mut kept = start;
        for k in start..out.len() {
            let last = kept.checked_sub(1).filter(|&j| j >= start).map(|j| &out[j]);
            if !last.is_some_and(|l| l.st == out[k].st && l.faults == out[k].faults) {
                out.swap(kept, k);
                kept += 1;
            }
        }
        out.truncate(kept);
    }

    /// Work item `(s, q, faults, notes)` with instance `inst` settled in
    /// `leaf`, whose sends are in `sends`: its value replaced (a new value
    /// interned through `pending`), its sends
    /// in flight, and a halt queued as a fault on the rank its machine
    /// hosts.
    fn absorb(
        &self,
        pending: &mut InstTable,
        inst: usize,
        leaf: Leaf,
        sends: &[(u8, u8, u8)],
        item: WorkItem,
    ) -> WorkItem {
        let (mut s, mut q, f, mut notes) = item;
        self.put(pending, &mut s, inst, leaf.st);
        for &m in &sends[leaf.sends] {
            insert_msg(&mut s.msgs, m);
        }
        if leaf.halted {
            match self.inst_host[inst].and_then(|h| s.proto.live_rank_on_host(h)) {
                Some(r) => q.push_back(Pend::Fault(r)),
                None => notes.push(format!(
                    "halt from {} found no live process",
                    self.deployment.name(inst)
                )),
            }
        }
        (s, q, f, notes)
    }

    /// Maps abstract protocol events onto automaton inputs, honoring the
    /// dynamic runtime's routing (lifecycle hooks to the host's
    /// controllers, committed-wave / epoch updates to probe subscribers).
    fn enqueue_events(&self, q: &mut VecDeque<Pend>, evs: &[AbstractEvent]) {
        for e in evs {
            let (host, input) = match e {
                AbstractEvent::OnLoad { host } => (host, AIn::OnLoad(())),
                AbstractEvent::OnExit { host } => (host, AIn::OnExit(())),
                AbstractEvent::OnError { host } => (host, AIn::OnError(())),
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
                    input: AIn::Probe(*slot, value as i64),
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

#[cfg(test)]
mod tests {
    //! The abstract domain against the concrete one, input for input.
    //! Both run the one firing core, so what this holds is the domains:
    //! abstract evaluation, the decision points, and what each side makes
    //! of lifecycle events, process actions and timers.
    //!
    //! Under parameters that make every `FAIL_RANDOM` range a point
    //! (`N = 0`) and keep counters inside `VAR_CAP` the abstraction is
    //! exact: no value is `Top`, nothing forks, and [`Ctx::outcomes`]' one
    //! leaf must be [`FailRuntime::feed`]'s step. With `N ≥ 1` random picks
    //! are `Top`, conditions on them fork and group sends fan out; the
    //! abstraction must then over-approximate: some leaf matches the
    //! runtime's step, every `Known` variable included, and that leaf is
    //! the next abstract state.

    use std::collections::BTreeMap;

    use failmpi_core::{compile, FailAction, FailInput, FailRuntime};
    use failmpi_sim::SimRng;
    use proptest::prelude::*;
    use proptest::test_runner::Config;

    use super::super::search::Explorer;
    use super::*;
    use crate::builtin::BUILTIN_SCENARIOS;

    const N_HOSTS: usize = 3;

    /// Beside the builtins, three shapes none of them has. An index known
    /// at run time only that walks out of the group: both sides drop the
    /// send and carry on. A receive without `goto` (`?arm`) that makes a
    /// queued message consumable (`?hit` waits for `armed`): both sides
    /// re-scan the inbox and consume it in the same step. A condition on
    /// a random pick (`?flip`): with `N ≥ 1` it is undecidable, and only
    /// the leaf that lets the scan go on covers the runtime's tails.
    const EXTRA_SRC: &str = "\
param N = 0;
daemon Walker {
  int next = 1;
  int armed = 0;
  node 1:
    always int coin = FAIL_RANDOM(0, N);
    ?step -> !hit(G1[next]), next = next + 1, goto 1;
    ?hit && armed == 1 -> !step(FAIL_SENDER), armed = 0, goto 1;
    ?arm -> armed = 1;
    ?flip && coin == 0 -> !heads(G1[coin]), goto 1;
    ?flip -> !tails(FAIL_SENDER), goto 1;
}
daemon Echo { node 1: ?hit -> !step(P1), !hit(P1), !arm(P1), !flip(P1), goto 1; }
instance P1 = Walker;
group G1[3] = Echo;
";

    /// One generated input: `(instance, kind, a, b)`, see [`step`].
    type Pick = (usize, usize, usize, usize);

    /// A runtime step as the abstract side sees it: the `(from, to, msg)`
    /// sends, and whether a process was killed.
    type Step = (Vec<(usize, usize, usize)>, bool);

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
        fn absorb(&mut self, inst: usize, acts: Vec<FailAction>) -> Step {
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

        /// The first observable of `inst` on which `leaf` disagrees with
        /// the runtime's step `ran`, if any. Off the exact regime, a `Top`
        /// variable agrees with every value.
        fn disagreement(
            &self,
            inst: usize,
            leaf: &(InstState, Step),
            ran: &Step,
            exact: bool,
        ) -> Option<String> {
            let (st, eff) = leaf;
            let m = self.rt.machine(inst);
            let inbox: Vec<(usize, usize)> =
                st.inbox.iter().map(|e| (e.0 as usize, e.1 as usize)).collect();
            let var = (st.vars.iter().zip(&m.vars).enumerate())
                .find(|(_, (v, c))| **v != VarVal::Known(**c) && (exact || **v != VarVal::Top));
            // An armed slot is one the world still owes an expiry for; the
            // runtime's generations additionally void the superseded ones,
            // which both sides then ignore alike (checked when delivered).
            let timer = (st.ctl.armed.iter().enumerate())
                .find(|(slot, armed)| **armed && !self.pending.contains_key(&(inst, *slot)));
            let checks = [
                (eff != ran).then(|| "effects".to_string()),
                (st.node as usize != m.node).then(|| "node".to_string()),
                var.map(|(slot, (v, c))| format!("variable {slot} ({v:?} vs {c})")),
                (inbox != m.inbox).then(|| format!("inbox ({inbox:?} vs {:?})", m.inbox)),
                (st.ctl.controlled != self.rt.controlled(inst).is_some())
                    .then(|| "controlled".to_string()),
                (st.ctl.suspended != self.suspended[inst]).then(|| "suspended".to_string()),
                timer.map(|(slot, _)| format!("timer {slot}")),
            ];
            checks.into_iter().flatten().next()
        }
    }

    /// Feeds one generated input to both sides; a leaf of the abstract
    /// step must agree with the concrete one, and becomes the instance's
    /// next abstract state.
    fn step(ctx: &Ctx, abs: &mut [InstState], con: &mut Concrete, pick: Pick, exact: bool) {
        let (inst, kind, a, b) = (pick.0 % abs.len(), pick.1, pick.2, pick.3);
        let class = ctx.class_of(inst);
        let controlled = con.rt.controlled(inst);
        let (ain, cin) = match kind {
            0 => {
                con.next_proc += 1;
                con.suspended[inst] = false;
                (AIn::OnLoad(()), FailInput::OnLoad { instance: inst, proc: con.next_proc })
            }
            1 | 2 => {
                // The live process's own event, or a stale one when none is.
                let proc = controlled.unwrap_or(0);
                con.suspended[inst] = false;
                if kind == 1 {
                    (AIn::OnExit(()), FailInput::OnExit { instance: inst, proc })
                } else {
                    (AIn::OnError(()), FailInput::OnError { instance: inst, proc })
                }
            }
            3 => {
                let (from, msg) = (a % abs.len(), b % ctx.sc.messages.len());
                (AIn::Msg(from, msg), FailInput::Msg { from, to: inst, msg })
            }
            4 => {
                // An expiry the world owes this instance, if any.
                let owed: Vec<(usize, usize)> =
                    con.pending.keys().copied().filter(|k| k.0 == inst).collect();
                let Some(&key) = owed.get(a % owed.len().max(1)) else { return };
                let gen = con.pending.remove(&key).expect("owed");
                (AIn::Timer(key.1, ()), FailInput::Timer { instance: inst, timer: key.1, gen })
            }
            5 => {
                // The product raises a breakpoint only at a controller
                // whose process is attached.
                let Some(proc) = controlled else { return };
                let func = failmpi_backend::InstrumentedFn::LocalMpiSetCommand.name().to_string();
                (AIn::Breakpoint((), None), FailInput::Breakpoint { instance: inst, proc, func })
            }
            _ => {
                let Some(&(_, slot)) = class.probes.get(a % class.probes.len().max(1)) else {
                    return;
                };
                let value = (b % 4) as i64;
                (AIn::Probe(slot, value), FailInput::Probe { instance: inst, probe: slot, value })
            }
        };
        let mut f = Firing::default();
        let first = ctx.outcomes(inst, &abs[inst], ain, &mut SiteLog::new(), &mut f);
        assert!(!exact || f.forks.is_empty(), "{ain:?} forked in the exact regime");
        let acts = con.rt.feed(cin.clone(), &mut con.rng);
        let concrete = con.absorb(inst, acts);

        let widen = |l: Leaf| {
            let widen = |&(a, b, c): &(u8, u8, u8)| (a as usize, b as usize, c as usize);
            let sends = f.sends[l.sends].iter().map(widen);
            (l.st, (sends.collect(), l.halted))
        };
        let mut leaves: Vec<(InstState, Step)> =
            std::iter::once(first).chain(f.forks.drain(..)).map(widen).collect();
        let why: Vec<Option<String>> =
            leaves.iter().map(|l| con.disagreement(inst, l, &concrete, exact)).collect();
        match why.iter().position(Option::is_none) {
            Some(k) => abs[inst] = leaves.swap_remove(k).0,
            None => panic!(
                "no abstract leaf of {} after {cin:?} matches the runtime: {why:?}",
                ctx.deployment.name(inst)
            ),
        }
    }

    /// One differential case: builtin `which` (`EXTRA_SRC` past the
    /// builtins) with `N = n`, the concrete side drawing from `seed`.
    fn differential(which: usize, n: i64, seed: u64, inputs: Vec<Pick>) {
        let src = BUILTIN_SCENARIOS.get(which).map_or(EXTRA_SRC, |b| b.1);
        let sc = compile(src).expect("compiles");
        if sc.suggested.groups.is_empty() {
            return; // Fig. 4 is a class library; Fig. 5 deploys its class
        }
        let params = vec![("N".to_string(), n)];
        let cfg = ModelCheckConfig { n_hosts: N_HOSTS, params, ..ModelCheckConfig::default() };
        let ex = Explorer::new(&sc, &cfg, &[]);
        let vals = ex.ctx.table.vals(&[]);
        let mut abs: Vec<InstState> = ex.init_raw.insts.iter().map(|&i| vals[i].clone()).collect();

        // The same deployment, concretely.
        let n_param = sc.param_names.iter().any(|p| p == "N").then_some(("N", n));
        let deployment = ex.ctx.deployment.clone();
        let rt = FailRuntime::new(&sc, deployment, n_param.as_slice()).expect("deploys");
        let mut con = Concrete {
            rt,
            rng: SimRng::new(seed),
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
        let exact = n == 0;
        let insts = abs.len();
        let rounds = (0..3 * insts * sc.messages.len()).map(|k| (k, 3, 0, k / insts));
        for pick in inputs.into_iter().chain(rounds) {
            step(&ex.ctx, &mut abs, &mut con, pick, exact);
        }
        // Deliver what the world still owes: a latent disagreement
        // about which timers are live shows here.
        while let Some(&(inst, _)) = con.pending.keys().next() {
            step(&ex.ctx, &mut abs, &mut con, (inst, 4, 0, 0), exact);
        }
    }

    fn inputs() -> impl Strategy<Value = Vec<Pick>> {
        let pick = (any::<usize>(), 0usize..7, any::<usize>(), any::<usize>());
        proptest::collection::vec(pick, 1..48)
    }

    proptest! {
        #![proptest_config(Config::with_cases(48))]

        #[test]
        fn feed_agrees_with_the_runtime_where_the_abstraction_is_exact(
            which in 0usize..=BUILTIN_SCENARIOS.len(),
            inputs in inputs(),
        ) {
            differential(which, 0, which as u64, inputs);
        }

        #[test]
        fn feed_over_approximates_the_runtime_where_it_forks(
            which in 0usize..=BUILTIN_SCENARIOS.len(),
            n in 1i64..N_HOSTS as i64,
            seed in any::<u64>(),
            inputs in inputs(),
        ) {
            differential(which, n, seed, inputs);
        }
    }
}
