//! The FAIL-MPI injection runtime: executes one automaton instance per
//! machine (plus free-standing coordinators) and drives the system under
//! test through abstract actions.
//!
//! The runtime is host-agnostic: it never touches a network or a process
//! table. The embedding world feeds it [`FailInput`]s and must apply every
//! returned [`FailAction`]; `failmpi-experiments` provides the binding to
//! the simulated MPICH-Vcl cluster.

use std::fmt;
use std::sync::Arc;

use failmpi_sim::{SimDuration, SimRng};

use crate::fire::{Domain, Fire, Input, Machine};
use crate::lang::compile::{Action, Class, Dest, Expr, Guard, Node, Scenario};

/// An error building a runtime.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RuntimeError(pub String);

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for RuntimeError {}

/// Maps daemon instances to the world: named instances (the paper's `P1`)
/// and groups (the paper's `G1`, one member per cluster machine).
#[derive(Clone, Debug, Default)]
pub struct Deployment {
    names: Vec<String>,
    classes: Vec<String>,
    groups: Vec<(String, Vec<usize>)>,
}

impl Deployment {
    /// An empty deployment.
    pub fn new() -> Self {
        Deployment::default()
    }

    /// Adds a daemon instance of `class`; returns its index.
    pub fn add_instance(&mut self, name: &str, class: &str) -> Result<usize, RuntimeError> {
        if self.names.iter().any(|n| n == name) {
            return Err(RuntimeError(format!("duplicate instance `{name}`")));
        }
        self.names.push(name.to_string());
        self.classes.push(class.to_string());
        Ok(self.names.len() - 1)
    }

    /// Registers `members` (instance indices) as group `name`.
    pub fn add_group(&mut self, name: &str, members: Vec<usize>) -> Result<(), RuntimeError> {
        if self.groups.iter().any(|(n, _)| n == name) {
            return Err(RuntimeError(format!("duplicate group `{name}`")));
        }
        for &m in &members {
            if m >= self.names.len() {
                return Err(RuntimeError(format!(
                    "group `{name}` references unknown instance #{m}"
                )));
            }
        }
        self.groups.push((name.to_string(), members));
        Ok(())
    }

    /// Builds a deployment from the scenario's `instance` / `group` sugar.
    /// Group members are named `NAME[i]`.
    pub fn from_suggested(scenario: &Scenario) -> Result<Self, RuntimeError> {
        let mut d = Deployment::new();
        for (name, class_idx) in &scenario.suggested.instances {
            d.add_instance(name, &scenario.classes[*class_idx].name)?;
        }
        for (name, len, class_idx) in &scenario.suggested.groups {
            let class = &scenario.classes[*class_idx].name;
            let mut members = Vec::new();
            for i in 0..*len {
                members.push(d.add_instance(&format!("{name}[{i}]"), class)?);
            }
            d.add_group(name, members)?;
        }
        Ok(d)
    }

    /// Number of instances.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// `true` when no instances exist.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Name of instance `instance`.
    pub fn name(&self, instance: usize) -> &str {
        &self.names[instance]
    }

    /// Index of the named instance.
    pub fn instance_index(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }

    /// Members of the named group.
    pub fn group(&self, name: &str) -> Option<&[usize]> {
        self.groups
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, m)| m.as_slice())
    }
}

/// Inputs the embedding world feeds to the runtime.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FailInput {
    /// A previously armed timer fired. Stale generations are ignored.
    Timer {
        /// Instance whose timer fired.
        instance: usize,
        /// Timer slot within the class.
        timer: usize,
        /// Node-entry generation the timer was armed in.
        gen: u64,
    },
    /// A FAIL message arrived (the world delivers [`FailAction::SendMsg`]
    /// back here, after whatever latency it models).
    Msg {
        /// Sender instance.
        from: usize,
        /// Recipient instance.
        to: usize,
        /// Message slot.
        msg: usize,
    },
    /// A process registered with this machine's daemon (`onload`).
    OnLoad {
        /// The machine's instance.
        instance: usize,
        /// Opaque process handle.
        proc: u64,
    },
    /// The controlled process exited normally (`onexit`).
    OnExit {
        /// The machine's instance.
        instance: usize,
        /// Opaque process handle.
        proc: u64,
    },
    /// The controlled process died abnormally (`onerror`).
    OnError {
        /// The machine's instance.
        instance: usize,
        /// Opaque process handle.
        proc: u64,
    },
    /// The controlled process hit an armed breakpoint and is held.
    Breakpoint {
        /// The machine's instance.
        instance: usize,
        /// Opaque process handle.
        proc: u64,
        /// Function name (matched against `before(...)` guards).
        func: String,
    },
    /// The host updated a `probe` variable (the paper's Sec. 6 planned
    /// feature: reading internal state of the strained application).
    /// Fires `onchange(probe)` transitions when the value actually changed.
    Probe {
        /// The observing instance.
        instance: usize,
        /// Probe slot (see [`FailRuntime::probe_slot`]).
        probe: usize,
        /// New value.
        value: i64,
    },
}

/// Actions the embedding world must apply.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FailAction {
    /// Deliver `msg` from one daemon to another (after transport latency),
    /// then feed it back as [`FailInput::Msg`].
    SendMsg {
        /// Sender instance.
        from: usize,
        /// Recipient instance.
        to: usize,
        /// Message slot.
        msg: usize,
    },
    /// Schedule [`FailInput::Timer`] after `delay`.
    ArmTimer {
        /// Owning instance.
        instance: usize,
        /// Timer slot.
        timer: usize,
        /// Generation to echo back.
        gen: u64,
        /// Delay until expiry.
        delay: SimDuration,
    },
    /// Kill the process (crash injection).
    Halt {
        /// Opaque process handle.
        proc: u64,
    },
    /// Suspend the process (SIGSTOP).
    Stop {
        /// Opaque process handle.
        proc: u64,
    },
    /// Resume the process (SIGCONT / release a hold).
    Continue {
        /// Opaque process handle.
        proc: u64,
    },
    /// Arm a debugger breakpoint.
    ArmBreakpoint {
        /// Opaque process handle.
        proc: u64,
        /// Function to intercept.
        func: String,
    },
    /// Remove every breakpoint on the process.
    DisarmBreakpoints {
        /// Opaque process handle.
        proc: u64,
    },
    /// Let a process held at a breakpoint proceed.
    ReleaseBreakpoint {
        /// Opaque process handle.
        proc: u64,
    },
}

/// The runtime's part of an instance ([`Machine::ctl`]): the controlled
/// process, whether its breakpoints are armed, and the node-entry
/// generation its timers carry.
#[derive(Clone, Debug, Default)]
pub struct Control {
    gen: u64,
    controlled: Option<u64>,
    armed: bool,
}

/// One runtime instance.
type Inst = Machine<i64, usize, usize, Control>;

/// The runtime's domain: concrete values, random draws, and the actions
/// the world must apply.
struct Run<'r> {
    inst: usize,
    params: &'r [i64],
    rng: &'r mut SimRng,
    out: Vec<FailAction>,
}

impl Domain for Run<'_> {
    type Val = i64;
    type Node = usize;
    type Id = usize;
    type Control = Control;
    type Proc = u64;
    type Tick = u64;

    fn eval(&mut self, e: &Expr, vars: &[i64]) -> i64 {
        e.eval(vars, self.params, self.rng)
    }

    fn truth(v: i64) -> Option<bool> {
        Some(v != 0)
    }

    fn index(&mut self, idx: &Expr, vars: &[i64]) -> (i64, i64) {
        let k = self.eval(idx, vars);
        (k, k)
    }

    fn send(&mut self, to: usize, msg: usize) {
        self.out.push(FailAction::SendMsg { from: self.inst, to, msg });
    }

    fn control(ctl: &mut Control, proc: Option<u64>) {
        ctl.controlled = proc;
        ctl.armed = false;
    }

    fn controls(ctl: &Control, proc: u64) -> bool {
        ctl.controlled == Some(proc)
    }

    fn halt(&mut self, ctl: &mut Control, _site: (usize, usize)) {
        if let Some(proc) = ctl.controlled.take() {
            if std::mem::take(&mut ctl.armed) {
                self.out.push(FailAction::DisarmBreakpoints { proc });
            }
            self.out.push(FailAction::Halt { proc });
        }
    }

    fn suspend(&mut self, ctl: &mut Control, on: bool) {
        if let Some(proc) = ctl.controlled {
            self.out.push(if on { FailAction::Stop { proc } } else { FailAction::Continue { proc } });
        }
    }

    fn arm(&mut self, ctl: &mut Control, vars: &[i64], timers: &[(usize, Expr)]) {
        ctl.gen += 1;
        for (timer, e) in timers {
            let secs = self.eval(e, vars).max(0);
            self.out.push(FailAction::ArmTimer {
                instance: self.inst,
                timer: *timer,
                gen: ctl.gen,
                delay: SimDuration::from_secs(secs as u64),
            });
        }
    }

    fn expire(ctl: &mut Control, _timer: usize, gen: u64) -> bool {
        gen == ctl.gen
    }

    /// Arms/disarms debugger breakpoints so they match the node's
    /// `before(...)` guards and the controlled process.
    fn settled(&mut self, ctl: &mut Control, node: &Node) {
        let funcs = node.transitions.iter().filter_map(|t| match &t.guard {
            Guard::Before(f) => Some(f),
            _ => None,
        });
        let want = ctl.controlled.filter(|_| funcs.clone().next().is_some());
        match (ctl.armed, want) {
            (false, Some(proc)) => {
                for f in funcs {
                    self.out.push(FailAction::ArmBreakpoint { proc, func: f.clone() });
                }
                ctl.armed = true;
            }
            (true, None) => {
                if let Some(proc) = ctl.controlled {
                    self.out.push(FailAction::DisarmBreakpoints { proc });
                }
                ctl.armed = false;
            }
            _ => {}
        }
    }
}

/// The value range of group index `e` in `class`, when it is known without
/// running: the expression's own [`Expr::const_range`], or — for a plain
/// variable, the builtins' `always int ran = FAIL_RANDOM(0, N)` — the hull
/// of the 0 it starts at and everything the class ever stores in it.
fn index_range(class: &Class, e: &Expr, params: &[i64]) -> Option<(i64, i64)> {
    let Expr::Var(slot) = e else {
        return e.const_range(params);
    };
    if class.probes.iter().any(|(_, s)| s == slot) {
        return None; // host-written
    }
    let assigns = class.nodes.iter().flat_map(|n| &n.transitions).flat_map(|t| &t.actions);
    let stores = (class.var_init.iter())
        .chain(class.nodes.iter().flat_map(|n| &n.always))
        .map(|(s, def)| (s, def))
        .chain(assigns.filter_map(|a| match a {
            Action::Assign(s, def) => Some((s, def)),
            _ => None,
        }));
    let mut hull = (0, 0);
    for (_, def) in stores.filter(|(s, _)| *s == slot) {
        let (lo, hi) = def.const_range(params)?;
        hull = (hull.0.min(lo), hull.1.max(hi));
    }
    Some(hull)
}

/// The executing scenario: one state-machine instance per deployment slot.
#[derive(Debug)]
pub struct FailRuntime {
    scenario: Arc<Scenario>,
    params: Vec<i64>,
    deployment: Deployment,
    instance_class: Vec<usize>,
    instances: Vec<Inst>,
}

impl FailRuntime {
    /// Builds a runtime for `scenario` under `deployment`, overriding the
    /// listed parameters (the paper's meta-variables `X`, `N`, …).
    pub fn new(
        scenario: &Scenario,
        deployment: Deployment,
        param_overrides: &[(&str, i64)],
    ) -> Result<Self, RuntimeError> {
        let mut params = scenario.param_defaults.clone();
        for (name, value) in param_overrides {
            match scenario.param_names.iter().position(|p| p == name) {
                Some(i) => params[i] = *value,
                None => return Err(RuntimeError(format!("unknown param `{name}`"))),
            }
        }
        let mut instance_class = Vec::new();
        for (name, class) in deployment.names.iter().zip(&deployment.classes) {
            match scenario.class_id(class) {
                Some(ci) => instance_class.push(ci),
                None => {
                    return Err(RuntimeError(format!(
                        "instance `{name}`: unknown daemon `{class}`"
                    )))
                }
            }
        }
        for name in &scenario.referenced_instances {
            if deployment.instance_index(name).is_none() {
                return Err(RuntimeError(format!(
                    "scenario sends to unbound instance `{name}`"
                )));
            }
        }
        for name in &scenario.referenced_groups {
            if deployment.group(name).is_none() {
                return Err(RuntimeError(format!(
                    "scenario sends to unbound group `{name}`"
                )));
            }
        }
        // Under these parameters, every group index whose range is known
        // without running must fit the group as deployed. The declared
        // `group G[len]` and the default parameters, which the FA010 lint
        // reads, are neither.
        let mut deployed_classes = instance_class.clone();
        deployed_classes.sort_unstable();
        deployed_classes.dedup();
        for ci in deployed_classes {
            let class = &scenario.classes[ci];
            for t in class.nodes.iter().flat_map(|n| &n.transitions) {
                for a in &t.actions {
                    let Action::Send { dest: Dest::Group(name, idx), .. } = a else {
                        continue;
                    };
                    let len = deployment.group(name).expect("bound, checked above").len();
                    match index_range(class, idx, &params) {
                        Some((lo, hi)) if lo < 0 || hi >= len as i64 => {
                            return Err(RuntimeError(format!(
                                "daemon `{}`, line {}: index range [{lo}, {hi}] into group \
                                 `{name}` leaves its {len} deployed member(s)",
                                class.name, t.line
                            )))
                        }
                        _ => {}
                    }
                }
            }
        }
        let instances = instance_class
            .iter()
            .map(|&ci| Inst::new(&scenario.classes[ci], Control::default()))
            .collect();
        Ok(FailRuntime {
            scenario: Arc::new(scenario.clone()),
            params,
            deployment,
            instance_class,
            instances,
        })
    }

    /// The compiled scenario.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// The deployment map.
    pub fn deployment(&self) -> &Deployment {
        &self.deployment
    }

    /// Number of instances.
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// `true` when no instances exist.
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }

    /// The numeric label of the node `instance` currently sits in.
    pub fn current_node_label(&self, instance: usize) -> i64 {
        let class = &self.scenario.classes[self.instance_class[instance]];
        class.nodes[self.instances[instance].node].label
    }

    /// The process controlled by `instance`, if any.
    pub fn controlled(&self, instance: usize) -> Option<u64> {
        self.instances[instance].ctl.controlled
    }

    /// `instance` as the firing core holds it: node, variables, inbox.
    pub fn machine(&self, instance: usize) -> &Machine<i64, usize, usize, Control> {
        &self.instances[instance]
    }

    /// The variable slot behind a declared probe of `instance`'s class.
    pub fn probe_slot(&self, instance: usize, name: &str) -> Option<usize> {
        let class = &self.scenario.classes[self.instance_class[instance]];
        class
            .probes
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, slot)| slot)
    }

    /// Current value of a variable (tests/diagnostics).
    pub fn var(&self, instance: usize, name: &str) -> Option<i64> {
        let slot = self.scenario.classes[self.instance_class[instance]]
            .var_names
            .iter()
            .position(|v| v == name)?;
        Some(self.instances[instance].vars[slot])
    }

    /// Initializes every instance: daemon-level variables, the initial
    /// node's `always` declarations and timers. Returns the arming actions.
    pub fn start(&mut self, rng: &mut SimRng) -> Vec<FailAction> {
        let mut out = Vec::new();
        for (i, m) in self.instances.iter_mut().enumerate() {
            let class = &self.scenario.classes[self.instance_class[i]];
            let run = Run { inst: i, params: &self.params, rng: &mut *rng, out };
            let mut fire = Fire { class, deployment: &self.deployment, dom: run };
            fire.start(m);
            out = fire.dom.out;
        }
        out
    }

    /// Attaches to an *already running* process by its identifier — the
    /// second FAIL-MPI extension of paper Sec. 4: "it is possible to attach
    /// to a process that is already running, so that processes that were
    /// not created from a command line argument (such as those obtained by
    /// fork system calls) can also be used in the FAIL-MPI framework. This
    /// requires simply to register with the FAIL-MPI daemon using the
    /// process identifier as an argument."
    ///
    /// Attachment is observationally identical to a launch registration:
    /// it raises the instance's `onload` trigger and takes control of the
    /// process.
    pub fn attach(&mut self, instance: usize, proc: u64, rng: &mut SimRng) -> Vec<FailAction> {
        self.feed(FailInput::OnLoad { instance, proc }, rng)
    }

    /// Feeds one input; returns the actions it provoked.
    pub fn feed(&mut self, input: FailInput, rng: &mut SimRng) -> Vec<FailAction> {
        let (i, fed) = match &input {
            FailInput::Timer { instance, timer, gen } => (*instance, Input::Timer(*timer, *gen)),
            FailInput::Msg { from, to, msg } => (*to, Input::Msg(*from, *msg)),
            FailInput::OnLoad { instance, proc } => (*instance, Input::OnLoad(*proc)),
            FailInput::OnExit { instance, proc } => (*instance, Input::OnExit(*proc)),
            FailInput::OnError { instance, proc } => (*instance, Input::OnError(*proc)),
            FailInput::Breakpoint { instance, proc, func } => {
                (*instance, Input::Breakpoint(*proc, Some(func)))
            }
            FailInput::Probe { instance, probe, value } => (*instance, Input::Probe(*probe, *value)),
        };
        let class = &self.scenario.classes[self.instance_class[i]];
        let run = Run { inst: i, params: &self.params, rng, out: Vec::new() };
        let mut fire = Fire { class, deployment: &self.deployment, dom: run };
        let m = &mut self.instances[i];
        let fired = fire.feed(m, fed);
        let mut out = fire.dom.out;
        if let FailInput::Breakpoint { proc, .. } = input {
            // Unless the transition killed the process (halt), the held
            // process must proceed — a debugger never leaves it hanging.
            if m.ctl.controlled == Some(proc) || !fired {
                out.push(FailAction::ReleaseBreakpoint { proc });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::compile::compile;

    const FIG4: &str = r#"
        daemon ADV2 {
          node 1:
            onload -> continue, goto 2;
            ?crash -> !no(P1), goto 1;
          node 2:
            onexit -> goto 1;
            onerror -> goto 1;
            onload -> continue, goto 2;
            ?crash -> !ok(P1), halt, goto 1;
        }
        daemon Sink { node 1: ?never -> goto 1; }
        instance P1 = Sink;
        group G1[2] = ADV2;
    "#;

    fn rt(src: &str, overrides: &[(&str, i64)]) -> FailRuntime {
        let s = compile(src).unwrap();
        let d = Deployment::from_suggested(&s).unwrap();
        FailRuntime::new(&s, d, overrides).unwrap()
    }

    #[test]
    fn fig4_no_process_answers_no() {
        let mut r = rt(FIG4, &[]);
        let mut rng = SimRng::new(1);
        r.start(&mut rng);
        let g10 = r.deployment().instance_index("G1[0]").unwrap();
        let p1 = r.deployment().instance_index("P1").unwrap();
        let crash = r.scenario().message_id("crash").unwrap();
        let no = r.scenario().message_id("no").unwrap();
        let acts = r.feed(
            FailInput::Msg {
                from: p1,
                to: g10,
                msg: crash,
            },
            &mut rng,
        );
        assert_eq!(
            acts,
            vec![FailAction::SendMsg {
                from: g10,
                to: p1,
                msg: no
            }]
        );
        assert_eq!(r.current_node_label(g10), 1);
    }

    #[test]
    fn fig4_loaded_process_is_halted_on_crash() {
        let mut r = rt(FIG4, &[]);
        let mut rng = SimRng::new(1);
        r.start(&mut rng);
        let g10 = r.deployment().instance_index("G1[0]").unwrap();
        let p1 = r.deployment().instance_index("P1").unwrap();
        let crash = r.scenario().message_id("crash").unwrap();
        let ok = r.scenario().message_id("ok").unwrap();

        let acts = r.feed(
            FailInput::OnLoad {
                instance: g10,
                proc: 77,
            },
            &mut rng,
        );
        // `continue` on the freshly loaded process, then goto 2.
        assert!(acts.contains(&FailAction::Continue { proc: 77 }));
        assert_eq!(r.current_node_label(g10), 2);
        assert_eq!(r.controlled(g10), Some(77));

        let acts = r.feed(
            FailInput::Msg {
                from: p1,
                to: g10,
                msg: crash,
            },
            &mut rng,
        );
        assert_eq!(
            acts,
            vec![
                FailAction::SendMsg {
                    from: g10,
                    to: p1,
                    msg: ok
                },
                FailAction::Halt { proc: 77 },
            ]
        );
        assert_eq!(r.current_node_label(g10), 1);
        assert_eq!(r.controlled(g10), None);
    }

    #[test]
    fn fig4_exit_and_error_return_to_waiting() {
        let mut r = rt(FIG4, &[]);
        let mut rng = SimRng::new(1);
        r.start(&mut rng);
        let g = r.deployment().instance_index("G1[1]").unwrap();
        r.feed(
            FailInput::OnLoad {
                instance: g,
                proc: 5,
            },
            &mut rng,
        );
        assert_eq!(r.current_node_label(g), 2);
        r.feed(
            FailInput::OnExit {
                instance: g,
                proc: 5,
            },
            &mut rng,
        );
        assert_eq!(r.current_node_label(g), 1);
        assert_eq!(r.controlled(g), None);
        // Reload and die abnormally.
        r.feed(
            FailInput::OnLoad {
                instance: g,
                proc: 6,
            },
            &mut rng,
        );
        r.feed(
            FailInput::OnError {
                instance: g,
                proc: 6,
            },
            &mut rng,
        );
        assert_eq!(r.current_node_label(g), 1);
    }

    const ADV1: &str = r#"
        param X = 50;
        param N = 1;
        daemon ADV1 {
          node 1:
            always int ran = FAIL_RANDOM(0, N);
            timer g_timer = X;
            g_timer -> !crash(G1[ran]), goto 2;
          node 2:
            always int ran = FAIL_RANDOM(0, N);
            ?ok -> goto 1;
            ?no -> !crash(G1[ran]), goto 2;
        }
        daemon Node { node 1: ?crash -> !no(P1), goto 1; }
        instance P1 = ADV1;
        group G1[2] = Node;
    "#;

    #[test]
    fn adv1_timer_cycle() {
        let mut r = rt(ADV1, &[("X", 7)]);
        let mut rng = SimRng::new(3);
        let acts = r.start(&mut rng);
        // P1's timer armed with the overridden delay.
        let arm = acts
            .iter()
            .find_map(|a| match a {
                FailAction::ArmTimer { instance, gen, delay, .. } => {
                    Some((*instance, *gen, *delay))
                }
                _ => None,
            })
            .expect("timer armed");
        assert_eq!(arm.2, SimDuration::from_secs(7));
        let p1 = r.deployment().instance_index("P1").unwrap();
        assert_eq!(arm.0, p1);

        // Fire the timer: P1 sends crash to a random G1 member, enters 2.
        let acts = r.feed(
            FailInput::Timer {
                instance: p1,
                timer: 0,
                gen: arm.1,
            },
            &mut rng,
        );
        let crash = r.scenario().message_id("crash").unwrap();
        assert!(matches!(
            acts[0],
            FailAction::SendMsg { from, msg, .. } if from == p1 && msg == crash
        ));
        assert_eq!(r.current_node_label(p1), 2);

        // `no` answer: immediately re-crash another member, stay in 2.
        let no = r.scenario().message_id("no").unwrap();
        let acts = r.feed(
            FailInput::Msg {
                from: 1,
                to: p1,
                msg: no,
            },
            &mut rng,
        );
        assert!(matches!(acts[0], FailAction::SendMsg { msg, .. } if msg == crash));
        assert_eq!(r.current_node_label(p1), 2);

        // `ok`: back to node 1, which re-arms the timer with a new gen.
        let ok = r.scenario().message_id("ok").unwrap();
        let acts = r.feed(
            FailInput::Msg {
                from: 1,
                to: p1,
                msg: ok,
            },
            &mut rng,
        );
        assert!(acts.iter().any(|a| matches!(
            a,
            FailAction::ArmTimer { gen, .. } if *gen > arm.1
        )));
        assert_eq!(r.current_node_label(p1), 1);
    }

    #[test]
    fn stale_timer_generation_is_ignored() {
        let mut r = rt(ADV1, &[]);
        let mut rng = SimRng::new(3);
        let acts = r.start(&mut rng);
        let p1 = r.deployment().instance_index("P1").unwrap();
        let gen = acts
            .iter()
            .find_map(|a| match a {
                FailAction::ArmTimer { gen, .. } => Some(*gen),
                _ => None,
            })
            .unwrap();
        // An obsolete generation does nothing.
        let acts = r.feed(
            FailInput::Timer {
                instance: p1,
                timer: 0,
                gen: gen + 10,
            },
            &mut rng,
        );
        assert!(acts.is_empty());
        assert_eq!(r.current_node_label(p1), 1);
    }

    #[test]
    fn guard_conditions_select_transitions() {
        let src = r#"
            daemon A {
              int nb = 2;
              node 1:
                ?go && nb > 1 -> nb = nb - 1, goto 1;
                ?go && nb <= 1 -> !done(P), goto 2;
              node 2:
                ?never -> goto 2;
            }
            daemon Sink { node 1: ?x -> goto 1; }
            instance P = Sink;
            instance A1 = A;
        "#;
        let mut r = rt(src, &[]);
        let mut rng = SimRng::new(1);
        r.start(&mut rng);
        let a = r.deployment().instance_index("A1").unwrap();
        let go = r.scenario().message_id("go").unwrap();
        assert_eq!(r.var(a, "nb"), Some(2));
        let acts = r.feed(FailInput::Msg { from: 0, to: a, msg: go }, &mut rng);
        assert!(acts.is_empty());
        assert_eq!(r.var(a, "nb"), Some(1));
        let acts = r.feed(FailInput::Msg { from: 0, to: a, msg: go }, &mut rng);
        assert_eq!(acts.len(), 1);
        assert_eq!(r.current_node_label(a), 2);
    }

    #[test]
    fn unmatched_messages_queue_until_the_node_changes() {
        let src = r#"
            daemon A {
              node 1:
                ?first -> goto 2;
              node 2:
                ?second -> !done(P), goto 2;
            }
            daemon Sink { node 1: ?x -> goto 1; }
            instance P = Sink;
            instance A1 = A;
        "#;
        let mut r = rt(src, &[]);
        let mut rng = SimRng::new(1);
        r.start(&mut rng);
        let a = r.deployment().instance_index("A1").unwrap();
        let first = r.scenario().message_id("first").unwrap();
        let second = r.scenario().message_id("second").unwrap();
        // `second` arrives early: node 1 cannot consume it.
        let acts = r.feed(FailInput::Msg { from: 0, to: a, msg: second }, &mut rng);
        assert!(acts.is_empty());
        // `first` moves to node 2, whose entry re-scan consumes the queued
        // `second`.
        let acts = r.feed(FailInput::Msg { from: 0, to: a, msg: first }, &mut rng);
        assert_eq!(acts.len(), 1);
        assert!(matches!(acts[0], FailAction::SendMsg { .. }));
    }

    #[test]
    fn breakpoint_guard_arms_fires_and_halts() {
        let src = r#"
            daemon G {
              node 1:
                onload -> continue, goto 2;
              node 2:
                ?crash -> !ok(P), continue, goto 3;
              node 3:
                before(localMPI_setCommand) -> halt, goto 4;
              node 4:
                onload -> continue, goto 4;
            }
            daemon Sink { node 1: ?x -> goto 1; }
            instance P = Sink;
            instance g0 = G;
        "#;
        let mut r = rt(src, &[]);
        let mut rng = SimRng::new(1);
        r.start(&mut rng);
        let g = r.deployment().instance_index("g0").unwrap();
        let crash = r.scenario().message_id("crash").unwrap();
        r.feed(FailInput::OnLoad { instance: g, proc: 9 }, &mut rng);
        let acts = r.feed(FailInput::Msg { from: 0, to: g, msg: crash }, &mut rng);
        // Entering node 3 arms the breakpoint on the controlled process.
        assert!(acts.contains(&FailAction::ArmBreakpoint {
            proc: 9,
            func: "localMPI_setCommand".into()
        }));
        let acts = r.feed(
            FailInput::Breakpoint {
                instance: g,
                proc: 9,
                func: "localMPI_setCommand".into(),
            },
            &mut rng,
        );
        assert!(acts.contains(&FailAction::Halt { proc: 9 }));
        // Halted: no release (the process is gone).
        assert!(!acts.iter().any(|a| matches!(a, FailAction::ReleaseBreakpoint { .. })));
        assert_eq!(r.current_node_label(g), 4);
    }

    #[test]
    fn unmatched_breakpoint_releases_the_process() {
        let src = r#"
            daemon G {
              node 1:
                onload -> stop, goto 2;
              node 2:
                ?never -> goto 2;
            }
            daemon Sink { node 1: ?x -> goto 1; }
            instance P = Sink;
            instance g0 = G;
        "#;
        let mut r = rt(src, &[]);
        let mut rng = SimRng::new(1);
        r.start(&mut rng);
        let g = r.deployment().instance_index("g0").unwrap();
        let acts = r.feed(FailInput::OnLoad { instance: g, proc: 4 }, &mut rng);
        assert!(acts.contains(&FailAction::Stop { proc: 4 }));
        // A breakpoint hit with no matching guard must not hang the app.
        let acts = r.feed(
            FailInput::Breakpoint {
                instance: g,
                proc: 4,
                func: "anything".into(),
            },
            &mut rng,
        );
        assert_eq!(acts, vec![FailAction::ReleaseBreakpoint { proc: 4 }]);
    }

    #[test]
    fn unbound_references_rejected_at_build() {
        let s = compile("daemon A { node 1: ?x -> !m(P9), goto 1; }").unwrap();
        let d = Deployment::new();
        let e = FailRuntime::new(&s, d, &[]).unwrap_err();
        assert!(e.0.contains("unbound instance `P9`"), "{e}");
    }

    #[test]
    fn unknown_param_override_rejected() {
        let s = compile("param X = 1; daemon A { node 1: ?x -> goto 1; }").unwrap();
        let d = Deployment::new();
        let e = FailRuntime::new(&s, d, &[("Y", 2)]).unwrap_err();
        assert!(e.0.contains("unknown param"), "{e}");
    }
}
