//! The FAIL firing semantics, written once.
//!
//! Where a fault lands depends on how the scenario's state machines fire:
//! the first matching transition in order, the FIFO inbox re-scanned after
//! every consumed message, `goto` applied after every other action,
//! `always` variables and timers evaluated on node entry. [`Fire`] is the
//! one implementation of those rules, generic over a [`Domain`] that
//! supplies values and what an instance does to its world.
//! [`crate::FailRuntime`] fires over `i64`s and random draws, decides every
//! value and runs once per input. The model checker in `failmpi-analyze`
//! fires over abstract values: a condition or a group index it cannot
//! decide is a decision point ([`Domain::choose`]), and it finds every
//! outcome of an input by re-running the core along each choice path.

use crate::lang::compile::{Action, Class, Dest, Expr, Guard, Node};
use crate::runtime::Deployment;

/// An index in the width a domain stores it: the runtime keeps `usize`,
/// the model checker packs node, instance and message ids.
pub trait Slot: Copy {
    /// Index `i` in this width (truncated: a packing domain bounds its id
    /// space before it fires anything).
    fn of(i: usize) -> Self;
    /// The index as a `usize`.
    fn get(self) -> usize;
}

macro_rules! slot {
    ($($t:ty),*) => {$(
        impl Slot for $t {
            fn of(i: usize) -> Self { i as $t }
            fn get(self) -> usize { self as usize }
        }
    )*};
}
slot!(u8, u16, usize);

/// One automaton instance as the core fires it. The derived order and
/// hash run over the fields in declaration order.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Machine<V, N, I, C> {
    /// The current node: an index into the class's nodes, not a label.
    pub node: N,
    /// Class variables by slot.
    pub vars: Vec<V>,
    /// Received, not yet consumed messages `(from, msg)`, oldest first.
    pub inbox: Vec<(I, I)>,
    /// The domain's part: the controlled process and the armed timers.
    pub ctl: C,
}

impl<V: Copy + From<i64>, N: Slot, I, C> Machine<V, N, I, C> {
    /// An unstarted instance of `class`: node 0, every variable 0.
    pub fn new(class: &Class, ctl: C) -> Self {
        let vars = vec![V::from(0); class.var_names.len()];
        Machine {
            node: N::of(0),
            vars,
            inbox: Vec::new(),
            ctl,
        }
    }
}

/// The machine domain `D` fires.
pub type MachineOf<D> =
    Machine<<D as Domain>::Val, <D as Domain>::Node, <D as Domain>::Id, <D as Domain>::Control>;

/// One input to one instance, carrying process handles `P` and timer
/// armings `T`.
#[derive(Clone, Copy, Debug)]
pub enum Input<'a, P, T> {
    /// A process registered with the instance's machine (`onload`).
    OnLoad(P),
    /// The controlled process exited normally (`onexit`).
    OnExit(P),
    /// The controlled process died abnormally (`onerror`).
    OnError(P),
    /// FAIL message `(from, msg)` arrived: sender instance, message slot.
    Msg(usize, usize),
    /// Timer `(slot, tick)` expired, `tick` naming the arming.
    Timer(usize, T),
    /// The controlled process is held at a breakpoint before calling a
    /// function: `(process, function)`, where `None` stands for any.
    Breakpoint(P, Option<&'a str>),
    /// The host wrote `(slot, value)` to a probe variable.
    Probe(usize, i64),
}

/// What the core fires over: the values, and the world one instance acts
/// on.
pub trait Domain {
    /// A variable's value; a literal converts into one.
    type Val: Copy + PartialEq + From<i64>;
    /// The width of [`Machine::node`].
    type Node: Slot;
    /// The width of the ids in [`Machine::inbox`].
    type Id: Slot;
    /// [`Machine::ctl`].
    type Control;
    /// A process handle.
    type Proc: Copy;
    /// What an expiry carries to tell a live arming from a voided one.
    type Tick: Copy;

    /// Evaluates `e` over `vars`.
    fn eval(&mut self, e: &Expr, vars: &[Self::Val]) -> Self::Val;
    /// What a variable holds once `v` is stored in it.
    fn store(v: Self::Val) -> Self::Val {
        v
    }
    /// Whether `v` holds as a condition; `None` when the domain cannot tell.
    fn truth(v: Self::Val) -> Option<bool>;
    /// The interval `[lo, hi]` group index `idx` lies in.
    fn index(&mut self, idx: &Expr, vars: &[Self::Val]) -> (i64, i64);
    /// One of `arity` (≥ 2) options at a decision point. A domain that
    /// decides every value never gets here; the default takes the first.
    fn choose(&mut self, _arity: usize) -> usize {
        0
    }
    /// The instance sends `msg` to instance `to`.
    fn send(&mut self, to: usize, msg: usize);
    /// The instance now controls `proc`, or nothing.
    fn control(ctl: &mut Self::Control, proc: Option<Self::Proc>);
    /// Whether the instance controls `proc`.
    fn controls(ctl: &Self::Control, proc: Self::Proc) -> bool;
    /// `halt`, executed by transition `(node, transition)`.
    fn halt(&mut self, ctl: &mut Self::Control, site: (usize, usize));
    /// `stop` (`on`) or `continue` (`!on`).
    fn suspend(&mut self, ctl: &mut Self::Control, on: bool);
    /// Node entry arms `timers` (`(slot, delay)`), voiding earlier armings.
    fn arm(&mut self, ctl: &mut Self::Control, vars: &[Self::Val], timers: &[(usize, Expr)]);
    /// Whether an expiry of `timer` carrying `tick` is live (it is spent).
    fn expire(ctl: &mut Self::Control, timer: usize, tick: Self::Tick) -> bool;
    /// The post-fire hook: after every transition and node entry, and
    /// after an `onload` that fired nothing, with the instance in `node`.
    fn settled(&mut self, _ctl: &mut Self::Control, _node: &Node) {}
}

/// Whether guard `g` fires on `input`. `None` scans the inbox, `msg`
/// being the message of the entry under scan.
fn fires<P, T>(input: Option<Input<'_, P, T>>, g: &Guard, msg: Option<usize>) -> bool {
    match (input, g) {
        (None, Guard::Recv(m)) => msg == Some(*m),
        (Some(Input::OnLoad(_)), Guard::OnLoad)
        | (Some(Input::OnExit(_)), Guard::OnExit)
        | (Some(Input::OnError(_)), Guard::OnError) => true,
        (Some(Input::Timer(a, _)), Guard::Timer(b))
        | (Some(Input::Probe(a, _)), Guard::Change(b)) => a == *b,
        (Some(Input::Breakpoint(_, f)), Guard::Before(g)) => f.is_none_or(|f| f == g),
        _ => false,
    }
}

/// The firing semantics of one instance.
pub struct Fire<'s, D> {
    /// The instance's class.
    pub class: &'s Class,
    /// What the instance's sends resolve through.
    pub deployment: &'s Deployment,
    /// The domain it fires over.
    pub dom: D,
}

impl<D: Domain> Fire<'_, D> {
    /// Instance start: daemon-level variables, then entry to node 0.
    pub fn start(&mut self, m: &mut MachineOf<D>) {
        for (slot, e) in &self.class.var_init {
            m.vars[*slot] = D::store(self.dom.eval(e, &m.vars));
        }
        self.enter(m, 0);
        self.run(m, None);
    }

    /// Feeds one input to `m`; returns whether a transition fired. Stale
    /// inputs fire nothing: a lifecycle event or breakpoint of a process
    /// `m` does not control, the expiry of a voided timer, a probe write
    /// that left the value as it was.
    pub fn feed(&mut self, m: &mut MachineOf<D>, input: Input<'_, D::Proc, D::Tick>) -> bool {
        match input {
            Input::Msg(from, msg) => m.inbox.push((D::Id::of(from), D::Id::of(msg))),
            Input::OnLoad(proc) => D::control(&mut m.ctl, Some(proc)),
            Input::OnExit(proc) | Input::OnError(proc) if D::controls(&m.ctl, proc) => {
                D::control(&mut m.ctl, None)
            }
            Input::Breakpoint(proc, _) if D::controls(&m.ctl, proc) => {}
            Input::Timer(timer, tick) if D::expire(&mut m.ctl, timer, tick) => {}
            Input::Probe(slot, value) => {
                let new = D::Val::from(value);
                if std::mem::replace(&mut m.vars[slot], new) == new {
                    return false;
                }
            }
            _ => return false,
        }
        let fired = self.run(m, (!matches!(input, Input::Msg(..))).then_some(input));
        if !fired && matches!(input, Input::OnLoad(_)) {
            // The node may want its breakpoints on the new process.
            let class = self.class;
            self.dom.settled(&mut m.ctl, &class.nodes[m.node.get()]);
        }
        fired
    }

    /// Fires what `input` selects (`None`: the inbox) and keeps firing:
    /// after a `goto` or a consumed message the inbox is re-scanned, until
    /// nothing in it is consumable. Returns whether anything fired.
    fn run(
        &mut self,
        m: &mut MachineOf<D>,
        mut input: Option<Input<'_, D::Proc, D::Tick>>,
    ) -> bool {
        let mut fired = false;
        while let Some((at, t)) = self.select(m, input) {
            fired = true;
            let sender = input.is_none().then(|| m.inbox.remove(at).0.get());
            if !self.fire(m, t, sender) && sender.is_none() {
                break;
            }
            input = None;
        }
        fired
    }

    /// The transition `input` fires, as `(inbox entry, transition)`: the
    /// first in order whose guard matches and whose conditions hold, over
    /// the inbox entries oldest first — the first consumable message wins.
    fn select(
        &mut self,
        m: &MachineOf<D>,
        input: Option<Input<'_, D::Proc, D::Tick>>,
    ) -> Option<(usize, usize)> {
        let class = self.class;
        let node = &class.nodes[m.node.get()];
        let entries = if input.is_none() { m.inbox.len() } else { 1 };
        for at in 0..entries {
            let msg = m.inbox.get(at).map(|e| e.1.get());
            for (t, tr) in node.transitions.iter().enumerate() {
                if fires(input, &tr.guard, msg) && self.holds(&tr.conds, &m.vars) {
                    return Some((at, t));
                }
            }
        }
        None
    }

    /// Whether all of a transition's conditions hold. None false but some
    /// undecided is a decision point: option 0 fires, option 1 scans on.
    fn holds(&mut self, conds: &[Expr], vars: &[D::Val]) -> bool {
        let mut unknown = false;
        for c in conds {
            match D::truth(self.dom.eval(c, vars)) {
                Some(false) => return false,
                Some(true) => {}
                None => unknown = true,
            }
        }
        !unknown || self.dom.choose(2) == 0
    }

    /// The actions of transition `t` of the current node in order, `goto`
    /// last, then node entry or the post-fire hook. `sender` is the
    /// consumed message's. Returns whether a node was entered.
    fn fire(&mut self, m: &mut MachineOf<D>, t: usize, sender: Option<usize>) -> bool {
        let (class, deployment) = (self.class, self.deployment);
        let n = m.node.get();
        let mut next = None;
        for a in &class.nodes[n].transitions[t].actions {
            match a {
                Action::Send { msg, dest } => {
                    let to = match dest {
                        Dest::Instance(name) => deployment.instance_index(name),
                        Dest::Group(name, idx) => deployment
                            .group(name)
                            .and_then(|g| self.member(g, idx, &m.vars)),
                        Dest::Sender => sender,
                    };
                    if let Some(to) = to {
                        self.dom.send(to, *msg);
                    }
                }
                Action::Goto(node) => next = Some(*node),
                Action::Halt => self.dom.halt(&mut m.ctl, (n, t)),
                Action::Stop => self.dom.suspend(&mut m.ctl, true),
                Action::Continue => self.dom.suspend(&mut m.ctl, false),
                Action::Assign(slot, e) => m.vars[*slot] = D::store(self.dom.eval(e, &m.vars)),
            }
        }
        match next {
            Some(node) => self.enter(m, node),
            None => self.dom.settled(&mut m.ctl, &class.nodes[n]),
        }
        next.is_some()
    }

    /// The member of `group` that index `idx` names. Outside the group it
    /// names nobody and the send is dropped; several candidates are a
    /// decision point, option `k` being the `k`-th.
    fn member(&mut self, group: &[usize], idx: &Expr, vars: &[D::Val]) -> Option<usize> {
        let (lo, hi) = self.dom.index(idx, vars);
        let len = group.len() as i64;
        let start = lo.clamp(0, len);
        let k = match hi.saturating_add(1).clamp(start, len) - start {
            0 => return None,
            1 => 0,
            n => self.dom.choose(n as usize),
        };
        Some(group[start as usize + k])
    }

    /// Node entry: `always` variables, the timers, the post-fire hook. The
    /// inbox drain that follows is the caller's.
    fn enter(&mut self, m: &mut MachineOf<D>, node: usize) {
        let class = self.class;
        let nd = &class.nodes[node];
        m.node = D::Node::of(node);
        for (slot, e) in &nd.always {
            m.vars[*slot] = D::store(self.dom.eval(e, &m.vars));
        }
        self.dom.arm(&mut m.ctl, &m.vars, &nd.timers);
        self.dom.settled(&mut m.ctl, nd);
    }
}
