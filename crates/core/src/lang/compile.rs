//! The FAIL compiler: resolves names and produces an executable scenario.
//!
//! This is the moral equivalent of the FCI compiler (paper Sec. 2.2), which
//! turned FAIL scenarios into C++ automata sources; here the output is a
//! [`Scenario`] value interpreted by [`crate::FailRuntime`].

use std::collections::HashMap;
use std::fmt;

use failmpi_sim::SimRng;

use super::ast::{ActionAst, DestAst, ExprAst, GuardAst, ScenarioAst};
use super::parser::{parse, ParseError};

pub use super::ast::BinOp;

/// A compile-time error with source position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompileError {
    /// Human-readable message.
    pub message: String,
    /// 1-based line (0 when unknown).
    pub line: u32,
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for CompileError {}

impl From<ParseError> for CompileError {
    fn from(e: ParseError) -> Self {
        CompileError {
            message: e.message,
            line: e.line,
        }
    }
}

fn err<T>(line: u32, msg: impl Into<String>) -> Result<T, CompileError> {
    Err(CompileError {
        message: msg.into(),
        line,
    })
}

/// Resolved integer expression.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expr {
    /// Literal.
    Int(i64),
    /// Class variable by slot.
    Var(usize),
    /// Scenario parameter by slot.
    Param(usize),
    /// `FAIL_RANDOM(lo, hi)`, inclusive.
    Rand(Box<Expr>, Box<Expr>),
    /// Binary operation (comparisons yield 0/1).
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Negation.
    Neg(Box<Expr>),
}

/// Applies a binary operator with the language's total semantics
/// (wrapping arithmetic, division by zero yields 0, comparisons yield 0/1).
pub fn apply_bin(op: BinOp, x: i64, y: i64) -> i64 {
    match op {
        BinOp::Add => x.wrapping_add(y),
        BinOp::Sub => x.wrapping_sub(y),
        BinOp::Mul => x.wrapping_mul(y),
        BinOp::Div => x.checked_div(y).unwrap_or(0),
        BinOp::Eq => (x == y) as i64,
        BinOp::Ne => (x != y) as i64,
        BinOp::Lt => (x < y) as i64,
        BinOp::Le => (x <= y) as i64,
        BinOp::Gt => (x > y) as i64,
        BinOp::Ge => (x >= y) as i64,
        BinOp::And => (x != 0 && y != 0) as i64,
    }
}

impl Expr {
    /// Evaluates under variable and parameter environments.
    pub fn eval(&self, vars: &[i64], params: &[i64], rng: &mut SimRng) -> i64 {
        match self {
            Expr::Int(n) => *n,
            Expr::Var(i) => vars[*i],
            Expr::Param(i) => params[*i],
            Expr::Rand(lo, hi) => {
                let l = lo.eval(vars, params, rng);
                let h = hi.eval(vars, params, rng);
                if l > h {
                    l
                } else {
                    rng.range_inclusive(l, h)
                }
            }
            Expr::Neg(e) => e.eval(vars, params, rng).wrapping_neg(),
            Expr::Bin(op, a, b) => {
                let (x, y) = (a.eval(vars, params, rng), b.eval(vars, params, rng));
                apply_bin(*op, x, y)
            }
        }
    }

    /// Constant-folds the expression under the given parameter values.
    ///
    /// Returns `None` as soon as the value depends on a class variable, on
    /// `FAIL_RANDOM`, or on a parameter slot not covered by `params` (so
    /// `fold_const(&[])` folds only literal arithmetic, while
    /// `fold_const(&scenario.param_defaults)` folds "with default
    /// parameters"). Static analysis uses this to decide guard
    /// satisfiability and timer-delay signs without running the automaton.
    pub fn fold_const(&self, params: &[i64]) -> Option<i64> {
        match self {
            Expr::Int(n) => Some(*n),
            Expr::Var(_) | Expr::Rand(..) => None,
            Expr::Param(i) => params.get(*i).copied(),
            Expr::Neg(e) => e.fold_const(params).map(i64::wrapping_neg),
            Expr::Bin(op, a, b) => {
                Some(apply_bin(*op, a.fold_const(params)?, b.fold_const(params)?))
            }
        }
    }

    /// Interval of possible values for the expression, when one can be
    /// derived without knowing variable contents: constants fold to a point
    /// interval, `FAIL_RANDOM(lo, hi)` with constant bounds yields
    /// `[lo, hi]` (the runtime clamps an inverted range to `lo`). Static
    /// analysis and the model checker share this to bound group indices and
    /// timer delays.
    pub fn const_range(&self, params: &[i64]) -> Option<(i64, i64)> {
        if let Some(v) = self.fold_const(params) {
            return Some((v, v));
        }
        if let Expr::Rand(lo, hi) = self {
            let l = lo.fold_const(params)?;
            let h = hi.fold_const(params)?;
            return Some(if l > h { (l, l) } else { (l, h) });
        }
        None
    }
}

/// Resolved transition guard.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Guard {
    /// Reception of message slot.
    Recv(usize),
    /// Process registered (FAIL-MPI trigger).
    OnLoad,
    /// Process exited normally (FAIL-MPI trigger).
    OnExit,
    /// Process died abnormally (FAIL-MPI trigger).
    OnError,
    /// Timer slot expired.
    Timer(usize),
    /// Controlled process about to call the named function.
    Before(String),
    /// The host updated probe slot (a class variable) to a new value.
    Change(usize),
}

/// Resolved message destination.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Dest {
    /// Named instance (resolved against the deployment at runtime build).
    Instance(String),
    /// Indexed group member.
    Group(String, Expr),
    /// The sender of the triggering message.
    Sender,
}

/// Resolved action.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Action {
    /// Send message slot to a destination.
    Send {
        /// Message slot.
        msg: usize,
        /// Destination.
        dest: Dest,
    },
    /// Move to node index (slot, not label).
    Goto(usize),
    /// Kill the controlled process.
    Halt,
    /// Suspend the controlled process.
    Stop,
    /// Resume / release the controlled process.
    Continue,
    /// Assign a class variable.
    Assign(usize, Expr),
}

/// A resolved transition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Transition {
    /// The event guard.
    pub guard: Guard,
    /// Side conditions, all of which must be non-zero.
    pub conds: Vec<Expr>,
    /// Actions in execution order.
    pub actions: Vec<Action>,
    /// Source line (for diagnostics).
    pub line: u32,
}

/// A resolved automaton node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Node {
    /// Original numeric label.
    pub label: i64,
    /// `(var slot, initializer)` re-evaluated on entry, in order.
    pub always: Vec<(usize, Expr)>,
    /// `(timer slot, delay-seconds expr)` armed on entry.
    pub timers: Vec<(usize, Expr)>,
    /// Transitions in priority order.
    pub transitions: Vec<Transition>,
    /// Source line of the `node N:` header (for diagnostics).
    pub line: u32,
}

/// A resolved daemon class.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Class {
    /// Class name.
    pub name: String,
    /// Variable names by slot.
    pub var_names: Vec<String>,
    /// Daemon-level initializers `(slot, expr)`, run at instance start.
    pub var_init: Vec<(usize, Expr)>,
    /// Host-updated probe variables: `(name, var slot)`.
    pub probes: Vec<(String, usize)>,
    /// Timer names by slot.
    pub timer_names: Vec<String>,
    /// Nodes; index 0 is the initial node.
    pub nodes: Vec<Node>,
    /// Source line of the `daemon CLASS {` header (for diagnostics).
    pub line: u32,
}

/// Deployment sugar collected from the source.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SuggestedDeployment {
    /// `(instance name, class index)`.
    pub instances: Vec<(String, usize)>,
    /// `(group name, member count, class index)`.
    pub groups: Vec<(String, u32, usize)>,
}

/// A compiled, executable FAIL scenario.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Scenario {
    /// Parameter names by slot.
    pub param_names: Vec<String>,
    /// Parameter defaults by slot.
    pub param_defaults: Vec<i64>,
    /// Message names by slot.
    pub messages: Vec<String>,
    /// Daemon classes.
    pub classes: Vec<Class>,
    /// Deployment sugar from `instance` / `group` declarations.
    pub suggested: SuggestedDeployment,
    /// Instance names referenced as destinations (deployment must bind).
    pub referenced_instances: Vec<String>,
    /// Group names referenced as destinations (deployment must bind).
    pub referenced_groups: Vec<String>,
}

impl Scenario {
    /// Message slot by name, if the scenario mentions it.
    pub fn message_id(&self, name: &str) -> Option<usize> {
        self.messages.iter().position(|m| m == name)
    }

    /// Class index by name.
    pub fn class_id(&self, name: &str) -> Option<usize> {
        self.classes.iter().position(|c| c.name == name)
    }
}

/// Compiles FAIL source text.
pub fn compile(src: &str) -> Result<Scenario, CompileError> {
    compile_ast(&parse(src)?)
}

/// Compiles a parsed AST.
pub fn compile_ast(ast: &ScenarioAst) -> Result<Scenario, CompileError> {
    let mut params = Vec::new();
    let mut param_defaults = Vec::new();
    for p in &ast.params {
        if params.contains(&p.name) {
            return err(p.line, format!("duplicate param `{}`", p.name));
        }
        let v = const_eval(&p.default, p.line)?;
        params.push(p.name.clone());
        param_defaults.push(v);
    }

    let mut messages: Vec<String> = Vec::new();
    let mut msg_id = |name: &str| -> usize {
        if let Some(i) = messages.iter().position(|m| m == name) {
            i
        } else {
            messages.push(name.to_string());
            messages.len() - 1
        }
    };

    let mut classes = Vec::new();
    let mut referenced_instances: Vec<String> = Vec::new();
    let mut referenced_groups: Vec<String> = Vec::new();
    for d in &ast.daemons {
        if classes.iter().any(|c: &Class| c.name == d.name) {
            return err(d.line, format!("duplicate daemon `{}`", d.name));
        }

        // Variable table: daemon-level vars first, then `always` vars by
        // name (the same name in several nodes is one variable, like `ran`
        // in the paper's ADV1).
        let mut var_names: Vec<String> = Vec::new();
        let mut var_init = Vec::new();
        for v in &d.vars {
            if var_names.contains(&v.name) {
                return err(v.line, format!("duplicate variable `{}`", v.name));
            }
            var_names.push(v.name.clone());
        }
        let mut probes: Vec<(String, usize)> = Vec::new();
        for pr in &d.probes {
            if var_names.contains(&pr.name) {
                return err(pr.line, format!("`{}` is both a variable and a probe", pr.name));
            }
            var_names.push(pr.name.clone());
            probes.push((pr.name.clone(), var_names.len() - 1));
        }
        // Collect every `always` variable before the timers so that a
        // timer colliding with an `always` var of any node (not just a
        // daemon-level var) is rejected instead of becoming an ambiguous
        // name that panics later lookups.
        for n in &d.nodes {
            for v in &n.always {
                if probes.iter().any(|(p, _)| p == &v.name) {
                    return err(
                        v.line,
                        format!("`{}` is both a probe and an `always` variable", v.name),
                    );
                }
                if !var_names.contains(&v.name) {
                    var_names.push(v.name.clone());
                }
            }
        }
        let mut timer_names: Vec<String> = Vec::new();
        for n in &d.nodes {
            for t in &n.timers {
                if var_names.contains(&t.name) {
                    return err(t.line, format!("`{}` is both a variable and a timer", t.name));
                }
                if !timer_names.contains(&t.name) {
                    timer_names.push(t.name.clone());
                }
            }
        }

        let label_index: HashMap<i64, usize> = d
            .nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (n.label, i))
            .collect();
        if label_index.len() != d.nodes.len() {
            return err(d.line, format!("duplicate node label in `{}`", d.name));
        }

        let resolve_expr = |e: &ExprAst, line: u32| -> Result<Expr, CompileError> {
            resolve(e, &var_names, &params, line)
        };

        // Daemon-level initializers.
        for v in &d.vars {
            let slot = var_names.iter().position(|n| n == &v.name).expect("added");
            var_init.push((slot, resolve_expr(&v.init, v.line)?));
        }

        let mut nodes = Vec::new();
        for n in &d.nodes {
            let mut always = Vec::new();
            for v in &n.always {
                let slot = var_names.iter().position(|x| x == &v.name).expect("added");
                always.push((slot, resolve_expr(&v.init, v.line)?));
            }
            let mut timers = Vec::new();
            for t in &n.timers {
                let slot = timer_names.iter().position(|x| x == &t.name).expect("added");
                timers.push((slot, resolve_expr(&t.delay, t.line)?));
            }
            let mut transitions = Vec::new();
            for t in &n.transitions {
                let guard = match &t.guard {
                    GuardAst::Recv(m) => Guard::Recv(msg_id(m)),
                    GuardAst::OnLoad => Guard::OnLoad,
                    GuardAst::OnExit => Guard::OnExit,
                    GuardAst::OnError => Guard::OnError,
                    GuardAst::Timer(name) => {
                        match timer_names.iter().position(|x| x == name) {
                            Some(i) => Guard::Timer(i),
                            None => {
                                return err(
                                    t.line,
                                    format!("`{name}` is not a declared timer"),
                                )
                            }
                        }
                    }
                    GuardAst::Before(f) => Guard::Before(f.clone()),
                    GuardAst::Change(name) => {
                        match probes.iter().find(|(n, _)| n == name) {
                            Some(&(_, slot)) => Guard::Change(slot),
                            None => {
                                return err(
                                    t.line,
                                    format!("`{name}` is not a declared probe"),
                                )
                            }
                        }
                    }
                };
                let mut conds = Vec::new();
                for c in &t.conds {
                    conds.push(resolve_expr(c, t.line)?);
                }
                let mut actions = Vec::new();
                for a in &t.actions {
                    actions.push(match a {
                        ActionAst::Send { msg, dest } => {
                            let dest = match dest {
                                DestAst::Instance(name) => {
                                    if !referenced_instances.contains(name) {
                                        referenced_instances.push(name.clone());
                                    }
                                    Dest::Instance(name.clone())
                                }
                                DestAst::Group(name, idx) => {
                                    if !referenced_groups.contains(name) {
                                        referenced_groups.push(name.clone());
                                    }
                                    let idx = resolve_expr(idx, t.line)?;
                                    // A literal-constant negative index is
                                    // invalid under every deployment; the
                                    // analyzer additionally bounds-checks
                                    // constant indices against declared
                                    // group lengths (lint FA010).
                                    if let Some(k) = idx.fold_const(&[]) {
                                        if k < 0 {
                                            return err(
                                                t.line,
                                                format!(
                                                    "group index into `{name}` is the \
                                                     negative constant {k}"
                                                ),
                                            );
                                        }
                                    }
                                    Dest::Group(name.clone(), idx)
                                }
                                DestAst::Sender => {
                                    if !matches!(t.guard, GuardAst::Recv(_)) {
                                        return err(
                                            t.line,
                                            "FAIL_SENDER outside a `?msg` transition",
                                        );
                                    }
                                    Dest::Sender
                                }
                            };
                            Action::Send {
                                msg: msg_id(msg),
                                dest,
                            }
                        }
                        ActionAst::Goto(label) => match label_index.get(label) {
                            Some(&i) => Action::Goto(i),
                            None => {
                                return err(t.line, format!("goto to unknown node {label}"))
                            }
                        },
                        ActionAst::Halt => Action::Halt,
                        ActionAst::Stop => Action::Stop,
                        ActionAst::Continue => Action::Continue,
                        ActionAst::Assign(name, e) => {
                            match var_names.iter().position(|x| x == name) {
                                Some(slot) => Action::Assign(slot, resolve_expr(e, t.line)?),
                                None => {
                                    return err(t.line, format!("unknown variable `{name}`"))
                                }
                            }
                        }
                    });
                }
                transitions.push(Transition {
                    guard,
                    conds,
                    actions,
                    line: t.line,
                });
            }
            nodes.push(Node {
                label: n.label,
                always,
                timers,
                transitions,
                line: n.line,
            });
        }
        classes.push(Class {
            name: d.name.clone(),
            var_names,
            var_init,
            probes,
            timer_names,
            nodes,
            line: d.line,
        });
    }

    let mut suggested = SuggestedDeployment::default();
    for inst in &ast.instances {
        if suggested.instances.iter().any(|(n, _)| n == &inst.name) {
            return err(inst.line, format!("duplicate instance `{}`", inst.name));
        }
        match classes.iter().position(|c| c.name == inst.class) {
            Some(ci) => suggested.instances.push((inst.name.clone(), ci)),
            None => return err(inst.line, format!("unknown daemon `{}`", inst.class)),
        }
    }
    for g in &ast.groups {
        if suggested.groups.iter().any(|(n, _, _)| n == &g.name) {
            return err(g.line, format!("duplicate group `{}`", g.name));
        }
        match classes.iter().position(|c| c.name == g.class) {
            Some(ci) => suggested.groups.push((g.name.clone(), g.len, ci)),
            None => return err(g.line, format!("unknown daemon `{}`", g.class)),
        }
    }

    Ok(Scenario {
        param_names: params,
        param_defaults,
        messages,
        classes,
        suggested,
        referenced_instances,
        referenced_groups,
    })
}

fn resolve(
    e: &ExprAst,
    vars: &[String],
    params: &[String],
    line: u32,
) -> Result<Expr, CompileError> {
    Ok(match e {
        ExprAst::Int(n) => Expr::Int(*n),
        ExprAst::Name(name) => {
            if let Some(i) = vars.iter().position(|v| v == name) {
                Expr::Var(i)
            } else if let Some(i) = params.iter().position(|p| p == name) {
                Expr::Param(i)
            } else {
                return err(line, format!("unknown name `{name}`"));
            }
        }
        ExprAst::Rand(lo, hi) => Expr::Rand(
            Box::new(resolve(lo, vars, params, line)?),
            Box::new(resolve(hi, vars, params, line)?),
        ),
        ExprAst::Bin(op, a, b) => Expr::Bin(
            *op,
            Box::new(resolve(a, vars, params, line)?),
            Box::new(resolve(b, vars, params, line)?),
        ),
        ExprAst::Neg(x) => Expr::Neg(Box::new(resolve(x, vars, params, line)?)),
    })
}

fn const_eval(e: &ExprAst, line: u32) -> Result<i64, CompileError> {
    Ok(match e {
        ExprAst::Int(n) => *n,
        ExprAst::Neg(x) => const_eval(x, line)?.wrapping_neg(),
        ExprAst::Bin(op, a, b) => {
            let (x, y) = (const_eval(a, line)?, const_eval(b, line)?);
            apply_bin(*op, x, y)
        }
        ExprAst::Name(n) => return err(line, format!("param default may not reference `{n}`")),
        ExprAst::Rand(..) => return err(line, "param default may not use FAIL_RANDOM"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const ADV1: &str = r#"
        param X = 50;
        param N = 52;
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
    "#;

    proptest::proptest! {
        #[test]
        fn arbitrary_bytes_never_panic_the_compiler(
            bytes in proptest::collection::vec(proptest::any::<u8>(), 0..400),
        ) {
            let _ = compile(&String::from_utf8_lossy(&bytes));
        }

        /// Real scenarios with a span cut out or doubled: sources that get
        /// past the lexer, into every later stage.
        #[test]
        fn a_cut_or_doubled_span_never_panics_the_compiler(
            a in proptest::any::<usize>(),
            b in proptest::any::<usize>(),
            double in proptest::any::<bool>(),
        ) {
            let src = include_str!("../../scenarios/fig10_state_sync.fail").as_bytes();
            let (lo, hi) = (a % src.len(), b % src.len());
            let (lo, hi) = (lo.min(hi), lo.max(hi));
            let spliced = if double {
                [&src[..hi], &src[lo..]].concat()
            } else {
                [&src[..lo], &src[hi..]].concat()
            };
            let _ = compile(&String::from_utf8_lossy(&spliced));
        }
    }

    #[test]
    fn compiles_adv1() {
        let s = compile(ADV1).unwrap();
        assert_eq!(s.param_names, vec!["X", "N"]);
        assert_eq!(s.param_defaults, vec![50, 52]);
        let c = &s.classes[0];
        assert_eq!(c.var_names, vec!["ran"]);
        assert_eq!(c.timer_names, vec!["g_timer"]);
        assert_eq!(c.nodes.len(), 2);
        // goto targets resolved to node indices.
        assert_eq!(c.nodes[0].transitions[0].actions[1], Action::Goto(1));
        assert_eq!(s.referenced_groups, vec!["G1"]);
        assert!(s.message_id("crash").is_some());
        assert!(s.message_id("ok").is_some());
    }

    #[test]
    fn shared_always_var_is_one_slot() {
        let s = compile(ADV1).unwrap();
        let c = &s.classes[0];
        assert_eq!(c.nodes[0].always, c.nodes[1].always);
    }

    #[test]
    fn unknown_names_are_rejected() {
        let e = compile("daemon A { node 1: ?x && foo > 1 -> goto 1; }").unwrap_err();
        assert!(e.message.contains("unknown name `foo`"), "{e}");
        let e = compile("daemon A { node 1: ?x -> bar = 2, goto 1; }").unwrap_err();
        assert!(e.message.contains("unknown variable `bar`"), "{e}");
        let e = compile("daemon A { node 1: tmr -> goto 1; }").unwrap_err();
        assert!(e.message.contains("not a declared timer"), "{e}");
    }

    #[test]
    fn goto_to_missing_node_rejected() {
        let e = compile("daemon A { node 1: ?x -> goto 7; }").unwrap_err();
        assert!(e.message.contains("unknown node 7"), "{e}");
    }

    #[test]
    fn fail_sender_requires_recv_guard() {
        let e = compile("daemon A { node 1: onload -> !m(FAIL_SENDER), goto 1; }").unwrap_err();
        assert!(e.message.contains("FAIL_SENDER"), "{e}");
        assert!(compile("daemon A { node 1: ?q -> !m(FAIL_SENDER), goto 1; }").is_ok());
    }

    #[test]
    fn duplicate_labels_and_params_rejected() {
        let e = compile("daemon A { node 1: ?x -> goto 1; node 1: ?y -> goto 1; }").unwrap_err();
        assert!(e.message.contains("duplicate node label"), "{e}");
        let e = compile("param P = 1; param P = 2;").unwrap_err();
        assert!(e.message.contains("duplicate param"), "{e}");
    }

    #[test]
    fn param_defaults_const_eval() {
        let s = compile("param P = 2 * 3 + 1;").unwrap();
        assert_eq!(s.param_defaults, vec![7]);
        assert!(compile("param P = FAIL_RANDOM(0, 1);").is_err());
        assert!(compile("param P = Q;").is_err());
    }

    #[test]
    fn expr_eval_semantics() {
        let mut rng = SimRng::new(1);
        let e = Expr::Bin(
            BinOp::Ne,
            Box::new(Expr::Var(0)),
            Box::new(Expr::Int(2)),
        );
        assert_eq!(e.eval(&[2], &[], &mut rng), 0);
        assert_eq!(e.eval(&[3], &[], &mut rng), 1);
        // Division by zero is total (yields 0).
        let d = Expr::Bin(BinOp::Div, Box::new(Expr::Int(5)), Box::new(Expr::Int(0)));
        assert_eq!(d.eval(&[], &[], &mut rng), 0);
        // Rand with inverted bounds degrades to lo.
        let r = Expr::Rand(Box::new(Expr::Int(5)), Box::new(Expr::Int(1)));
        assert_eq!(r.eval(&[], &[], &mut rng), 5);
    }

    #[test]
    fn fold_const_covers_literals_and_params() {
        let s = compile("param N = 5; daemon A { node 1: ?x && N - 7 > 0 -> goto 1; }").unwrap();
        let cond = &s.classes[0].nodes[0].transitions[0].conds[0];
        // Without parameter values the expression is not a constant…
        assert_eq!(cond.fold_const(&[]), None);
        // …with the defaults it folds to false.
        assert_eq!(cond.fold_const(&s.param_defaults), Some(0));
        // Variables and FAIL_RANDOM never fold.
        let v = Expr::Neg(Box::new(Expr::Var(0)));
        assert_eq!(v.fold_const(&[1]), None);
        let r = Expr::Rand(Box::new(Expr::Int(0)), Box::new(Expr::Int(1)));
        assert_eq!(r.fold_const(&[]), None);
        // Division by zero folds to the language's total semantics (0).
        let d = Expr::Bin(BinOp::Div, Box::new(Expr::Int(7)), Box::new(Expr::Int(0)));
        assert_eq!(d.fold_const(&[]), Some(0));
    }

    #[test]
    fn timer_colliding_with_always_var_rejected() {
        let e = compile(
            "daemon A { node 1: always int z = 1; ?x -> goto 2; node 2: timer z = 5; z -> goto 1; }",
        )
        .unwrap_err();
        assert!(e.message.contains("both a variable and a timer"), "{e}");
        // The collision is caught even when the timer appears first in
        // source order.
        let e = compile(
            "daemon A { node 1: timer z = 5; z -> goto 2; node 2: always int z = 1; ?x -> goto 1; }",
        )
        .unwrap_err();
        assert!(e.message.contains("both a variable and a timer"), "{e}");
    }

    #[test]
    fn always_var_colliding_with_probe_rejected() {
        let e = compile(
            "daemon A { probe w; node 1: always int w = 1; ?x -> goto 1; }",
        )
        .unwrap_err();
        assert!(e.message.contains("both a probe"), "{e}");
    }

    #[test]
    fn constant_negative_group_index_rejected() {
        let e = compile("daemon A { node 1: ?x -> !m(G[0 - 1]), goto 1; }").unwrap_err();
        assert!(e.message.contains("negative constant"), "{e}");
        assert_eq!(e.line, 1);
        // Non-constant and parameter-dependent indices stay a runtime
        // (and lint) concern.
        assert!(compile("param K = 0; daemon A { node 1: ?x -> !m(G[K - 1]), goto 1; }").is_ok());
    }

    #[test]
    fn duplicate_deployment_sugar_rejected() {
        let base = "daemon A { node 1: ?x -> goto 1; }";
        let e = compile(&format!("{base} instance P = A; instance P = A;")).unwrap_err();
        assert!(e.message.contains("duplicate instance"), "{e}");
        let e = compile(&format!("{base} group G[2] = A; group G[3] = A;")).unwrap_err();
        assert!(e.message.contains("duplicate group"), "{e}");
    }

    #[test]
    fn compiled_nodes_carry_source_lines() {
        let s = compile("daemon A {\n node 1:\n ?x -> goto 2;\n node 2:\n}").unwrap();
        assert_eq!(s.classes[0].line, 1);
        assert_eq!(s.classes[0].nodes[0].line, 2);
        assert_eq!(s.classes[0].nodes[1].line, 4);
    }

    #[test]
    fn suggested_deployment_resolves_classes() {
        let s = compile(
            "daemon A { node 1: ?x -> goto 1; } instance P1 = A; group G1[3] = A;",
        )
        .unwrap();
        assert_eq!(s.suggested.instances, vec![("P1".to_string(), 0)]);
        assert_eq!(s.suggested.groups, vec![("G1".to_string(), 3, 0)]);
        assert!(compile("instance P1 = Nope;").is_err());
    }
}
