//! Static verification passes over compiled FAIL scenarios.
//!
//! Every pass walks the resolved [`Scenario`] produced by
//! [`failmpi_core::lang::compile`] — no re-parsing, no execution. The codes:
//!
//! | code  | severity | finding |
//! |-------|----------|---------|
//! | FA000 | error    | the source does not compile (wrapped [`CompileError`]) |
//! | FA001 | warning  | node unreachable from the initial node |
//! | FA002 | error    | guard condition constant-false under default parameters |
//! | FA003 | warning  | transition shadowed by an earlier unconditional twin |
//! | FA004 | warning  | timer armed but never fires a transition |
//! | FA005 | warn/err | timer delay constant zero (warning) or negative (error) |
//! | FA006 | warning  | variable written but never read |
//! | FA007 | warning  | probe never read by guard or expression |
//! | FA008 | error    | message sent to a class that never receives it |
//! | FA009 | error    | `?msg` guard that no other daemon can ever satisfy |
//! | FA010 | error    | constant group index outside the declared group bounds |
//! | FA011 | error    | the scenario does not deploy under the run's classes, parameters and machines (wrapped [`RuntimeError`]) |
//! | FA012 | error    | `before(name)` names no instrumentable function ([`InstrumentedFn`]) |
//!
//! FA008/FA009 are the static shadow of a scenario *freeze*: a daemon
//! parked forever in a node whose only exits wait for traffic that cannot
//! arrive. They only run when the source carries deployment sugar
//! (`instance` / `group` declarations) — a bare class fragment does not
//! pin down who talks to whom.

use std::collections::{HashMap, HashSet};

use failmpi_backend::InstrumentedFn;
use failmpi_core::lang::ast::BinOp;
use failmpi_core::lang::compile::{Action, Class, Dest, Expr, Guard, Scenario};
use failmpi_core::{CompileError, RuntimeError};

use crate::diag::{Diagnostic, Severity};

/// Compiles `src` and analyzes the result. A compile failure becomes a
/// single `FA000` error diagnostic carrying the compiler's line number, so
/// callers (failck, the harness lint gate, CI) handle broken and
/// suspicious sources through one channel.
pub fn check_source(src: &str) -> Vec<Diagnostic> {
    match failmpi_core::compile(src) {
        Ok(s) => analyze_scenario(&s),
        Err(e) => vec![compile_error_diag(&e)],
    }
}

/// Wraps a [`CompileError`] as the `FA000` diagnostic.
pub fn compile_error_diag(e: &CompileError) -> Diagnostic {
    Diagnostic::new(
        Severity::Error,
        "FA000",
        e.line,
        format!("scenario does not compile: {}", e.message),
        "fix the compile error before running any other check",
    )
}

/// Wraps a deployment [`RuntimeError`] — a daemon class or parameter the
/// scenario does not declare, an unbound destination, a group index range
/// that leaves the deployed group — as the `FA011` diagnostic. Deployments are built by whoever runs the scenario, so no
/// pass here raises it; the experiment harness does.
pub fn deploy_error_diag(e: &RuntimeError) -> Diagnostic {
    Diagnostic::new(
        Severity::Error,
        "FA011",
        0,
        format!("scenario does not deploy: {e}"),
        "name daemon classes and parameters the scenario declares, and keep \
         group indices inside the group as deployed (scale `N` with the machines)",
    )
}

/// FA012: every `before(name)` guard whose name is no [`InstrumentedFn`]
/// — a breakpoint no backend can ever arm. The harness refuses a run on
/// these findings whatever its lint mode.
pub fn check_breakpoints(s: &Scenario) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for class in &s.classes {
        for node in &class.nodes {
            for t in &node.transitions {
                let Guard::Before(f) = &t.guard else { continue };
                if InstrumentedFn::from_name(f).is_none() {
                    out.push(Diagnostic::new(
                        Severity::Error,
                        "FA012",
                        t.line,
                        format!(
                            "class `{}`, node {}: `before({f})` names no instrumentable \
                             function — the breakpoint can never be armed",
                            class.name, node.label
                        ),
                        format!(
                            "the instrumentable functions are: {}",
                            InstrumentedFn::ALL.map(InstrumentedFn::name).join(", ")
                        ),
                    ));
                }
            }
        }
    }
    out
}

/// Runs every scenario pass and returns the (unsorted) findings.
pub fn analyze_scenario(s: &Scenario) -> Vec<Diagnostic> {
    let mut out = check_breakpoints(s);
    for class in &s.classes {
        check_reachability(class, &mut out);
        check_guard_conditions(s, class, &mut out);
        check_shadowed_transitions(s, class, &mut out);
        check_timers(s, class, &mut out);
        check_var_def_use(class, &mut out);
    }
    // Cross-daemon matching needs the deployment sugar to know which class
    // sits behind each destination name.
    if !s.suggested.instances.is_empty() || !s.suggested.groups.is_empty() {
        check_message_matching(s, &mut out);
        check_group_bounds(s, &mut out);
    }
    out
}

/// Walks every expression in `class`, with the line it is anchored to.
fn for_each_expr(class: &Class, mut f: impl FnMut(&Expr, u32)) {
    for (_, e) in &class.var_init {
        f(e, class.line);
    }
    for node in &class.nodes {
        for (_, e) in &node.always {
            f(e, node.line);
        }
        for (_, e) in &node.timers {
            f(e, node.line);
        }
        for t in &node.transitions {
            for c in &t.conds {
                f(c, t.line);
            }
            for a in &t.actions {
                match a {
                    Action::Assign(_, e) => f(e, t.line),
                    Action::Send {
                        dest: Dest::Group(_, e),
                        ..
                    } => f(e, t.line),
                    _ => {}
                }
            }
        }
    }
}

/// Collects every `Var` slot mentioned inside `e` into `slots`.
fn collect_var_reads(e: &Expr, slots: &mut HashSet<usize>) {
    match e {
        Expr::Int(_) | Expr::Param(_) => {}
        Expr::Var(i) => {
            slots.insert(*i);
        }
        Expr::Neg(a) => collect_var_reads(a, slots),
        Expr::Rand(a, b) | Expr::Bin(_, a, b) => {
            collect_var_reads(a, slots);
            collect_var_reads(b, slots);
        }
    }
}

/// FA001: nodes not reachable from node 0 by any chain of `goto`s.
fn check_reachability(class: &Class, out: &mut Vec<Diagnostic>) {
    if class.nodes.is_empty() {
        return;
    }
    let mut seen = vec![false; class.nodes.len()];
    let mut stack = vec![0usize];
    seen[0] = true;
    while let Some(i) = stack.pop() {
        for t in &class.nodes[i].transitions {
            for a in &t.actions {
                if let Action::Goto(j) = a {
                    if !seen[*j] {
                        seen[*j] = true;
                        stack.push(*j);
                    }
                }
            }
        }
    }
    for (i, node) in class.nodes.iter().enumerate() {
        if !seen[i] {
            out.push(Diagnostic::new(
                Severity::Warning,
                "FA001",
                node.line,
                format!(
                    "class `{}`: node {} is unreachable from the initial node",
                    class.name, node.label
                ),
                "add a `goto` path to it or delete the node",
            ));
        }
    }
}

/// FA002: a guard side-condition that constant-folds to 0 under the
/// default parameters — the transition can never fire as shipped.
fn check_guard_conditions(s: &Scenario, class: &Class, out: &mut Vec<Diagnostic>) {
    for node in &class.nodes {
        for t in &node.transitions {
            for c in &t.conds {
                if c.fold_const(&s.param_defaults) == Some(0) {
                    out.push(Diagnostic::new(
                        Severity::Error,
                        "FA002",
                        t.line,
                        format!(
                            "class `{}`, node {}: guard condition is always \
                             false under default parameters",
                            class.name, node.label
                        ),
                        "the transition can never fire; fix the condition \
                         or remove the transition",
                    ));
                }
            }
        }
    }
}

/// Whether every side-condition of a transition constant-folds to nonzero
/// (an unconditional transition trivially qualifies).
fn conds_const_true(conds: &[Expr], params: &[i64]) -> bool {
    conds
        .iter()
        .all(|c| matches!(c.fold_const(params), Some(v) if v != 0))
}

/// FA003: within one node, a transition whose guard already fired
/// unconditionally on an earlier transition. Guards are tested in priority
/// order, so the later twin is dead code.
fn check_shadowed_transitions(s: &Scenario, class: &Class, out: &mut Vec<Diagnostic>) {
    for node in &class.nodes {
        for (i, t) in node.transitions.iter().enumerate() {
            let shadowed_by = node.transitions[..i]
                .iter()
                .find(|prev| prev.guard == t.guard && conds_const_true(&prev.conds, &s.param_defaults));
            if let Some(prev) = shadowed_by {
                out.push(Diagnostic::new(
                    Severity::Warning,
                    "FA003",
                    t.line,
                    format!(
                        "class `{}`, node {}: transition is shadowed by the \
                         unconditional transition on line {} with the same guard",
                        class.name, node.label, prev.line
                    ),
                    "reorder the transitions or add a condition to the earlier one",
                ));
            }
        }
    }
}

/// FA004 (armed timer never guards a transition) and FA005 (constant zero
/// or negative delay).
fn check_timers(s: &Scenario, class: &Class, out: &mut Vec<Diagnostic>) {
    let mut guarded: HashSet<usize> = HashSet::new();
    for node in &class.nodes {
        for t in &node.transitions {
            if let Guard::Timer(slot) = t.guard {
                guarded.insert(slot);
            }
        }
    }
    let mut reported_unused: HashSet<usize> = HashSet::new();
    for node in &class.nodes {
        for (slot, delay) in &node.timers {
            if !guarded.contains(slot) && reported_unused.insert(*slot) {
                out.push(Diagnostic::new(
                    Severity::Warning,
                    "FA004",
                    node.line,
                    format!(
                        "class `{}`: timer `{}` is armed but never fires a transition",
                        class.name, class.timer_names[*slot]
                    ),
                    "add a `TIMER -> …` transition or drop the timer",
                ));
            }
            match delay.fold_const(&s.param_defaults) {
                Some(v) if v < 0 => out.push(Diagnostic::new(
                    Severity::Error,
                    "FA005",
                    node.line,
                    format!(
                        "class `{}`, node {}: timer `{}` has the constant \
                         negative delay {v}",
                        class.name, node.label, class.timer_names[*slot]
                    ),
                    "a negative delay never expires; use a non-negative delay",
                )),
                Some(0) => out.push(Diagnostic::new(
                    Severity::Warning,
                    "FA005",
                    node.line,
                    format!(
                        "class `{}`, node {}: timer `{}` has a constant zero \
                         delay and fires immediately",
                        class.name, node.label, class.timer_names[*slot]
                    ),
                    "use a positive delay, or an `onload` trigger if \
                     immediate firing is intended",
                )),
                _ => {}
            }
        }
    }
}

/// FA006 (written, never read) and FA007 (probe never read).
fn check_var_def_use(class: &Class, out: &mut Vec<Diagnostic>) {
    let mut read: HashSet<usize> = HashSet::new();
    for_each_expr(class, |e, _| collect_var_reads(e, &mut read));
    let probe_slots: HashSet<usize> = class.probes.iter().map(|(_, s)| *s).collect();
    let mut change_guarded: HashSet<usize> = HashSet::new();
    let mut written: HashSet<usize> = HashSet::new();
    written.extend(class.var_init.iter().map(|(s, _)| *s));
    for node in &class.nodes {
        written.extend(node.always.iter().map(|(s, _)| *s));
        for t in &node.transitions {
            if let Guard::Change(slot) = t.guard {
                change_guarded.insert(slot);
            }
            for a in &t.actions {
                if let Action::Assign(slot, _) = a {
                    written.insert(*slot);
                }
            }
        }
    }
    for slot in 0..class.var_names.len() {
        let name = &class.var_names[slot];
        if probe_slots.contains(&slot) {
            if !read.contains(&slot) && !change_guarded.contains(&slot) {
                out.push(Diagnostic::new(
                    Severity::Warning,
                    "FA007",
                    class.line,
                    format!(
                        "class `{}`: probe `{name}` is never read by any \
                         expression or `onchange` guard",
                        class.name
                    ),
                    "drop the probe or guard on it with `onchange`",
                ));
            }
        } else if written.contains(&slot) && !read.contains(&slot) {
            out.push(Diagnostic::new(
                Severity::Warning,
                "FA006",
                class.line,
                format!(
                    "class `{}`: variable `{name}` is written but never read",
                    class.name
                ),
                "delete the variable or use its value",
            ));
        }
    }
}

/// Resolves a destination to the class index behind it, using the
/// deployment sugar. `Sender` has no static class.
fn dest_class(s: &Scenario, dest: &Dest) -> Option<usize> {
    match dest {
        Dest::Instance(name) => s
            .suggested
            .instances
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, c)| *c),
        Dest::Group(name, _) => s
            .suggested
            .groups
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, _, c)| *c),
        Dest::Sender => None,
    }
}

/// FA008 (send into a class that never receives the message) and FA009
/// (`?msg` guard that no daemon can satisfy) — the static shadow of a
/// scenario freeze.
fn check_message_matching(s: &Scenario, out: &mut Vec<Diagnostic>) {
    // receives[class][msg], and sends keyed (dest class, msg).
    let mut receives: HashMap<(usize, usize), bool> = HashMap::new();
    for (ci, class) in s.classes.iter().enumerate() {
        for node in &class.nodes {
            for t in &node.transitions {
                if let Guard::Recv(m) = t.guard {
                    receives.insert((ci, m), true);
                }
            }
        }
    }
    let mut sent_to: HashSet<(usize, usize)> = HashSet::new();
    let mut sender_sends: HashSet<usize> = HashSet::new(); // msgs sent via FAIL_SENDER
    for class in &s.classes {
        for node in &class.nodes {
            for t in &node.transitions {
                for a in &t.actions {
                    if let Action::Send { msg, dest } = a {
                        match dest_class(s, dest) {
                            Some(ci) => {
                                sent_to.insert((ci, *msg));
                                if !receives.contains_key(&(ci, *msg)) {
                                    out.push(Diagnostic::new(
                                        Severity::Error,
                                        "FA008",
                                        t.line,
                                        format!(
                                            "class `{}`: message `{}` is sent to \
                                             class `{}`, which never receives it",
                                            class.name,
                                            s.messages[*msg],
                                            s.classes[ci].name
                                        ),
                                        "add a `?…` transition to the receiving \
                                         class or drop the send — as deployed, \
                                         the message is lost",
                                    ));
                                }
                            }
                            None => {
                                if matches!(dest, Dest::Sender) {
                                    sender_sends.insert(*msg);
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    for (ci, class) in s.classes.iter().enumerate() {
        for node in &class.nodes {
            for t in &node.transitions {
                if let Guard::Recv(m) = t.guard {
                    // A FAIL_SENDER reply can reach any class, so only flag
                    // guards no send can ever satisfy.
                    if !sent_to.contains(&(ci, m)) && !sender_sends.contains(&m) {
                        out.push(Diagnostic::new(
                            Severity::Error,
                            "FA009",
                            t.line,
                            format!(
                                "class `{}`, node {}: no daemon ever sends \
                                 `{}` to this class — the guard can never fire",
                                class.name,
                                node.label,
                                s.messages[m]
                            ),
                            "as deployed, a daemon parked on this guard \
                             freezes; send the message somewhere or remove \
                             the transition",
                        ));
                    }
                }
            }
        }
    }
}

/// FA010: a group send whose index constant-folds (under default
/// parameters) outside the declared `group NAME[len]` bounds.
fn check_group_bounds(s: &Scenario, out: &mut Vec<Diagnostic>) {
    for class in &s.classes {
        for node in &class.nodes {
            for t in &node.transitions {
                for a in &t.actions {
                    if let Action::Send {
                        dest: Dest::Group(name, idx),
                        ..
                    } = a
                    {
                        let Some((_, len, _)) =
                            s.suggested.groups.iter().find(|(n, _, _)| n == name)
                        else {
                            continue;
                        };
                        if let Some(k) = idx.fold_const(&s.param_defaults) {
                            if k < 0 || k >= *len as i64 {
                                out.push(Diagnostic::new(
                                    Severity::Error,
                                    "FA010",
                                    t.line,
                                    format!(
                                        "class `{}`: index {k} into group \
                                         `{name}` is outside its declared \
                                         bounds [0, {})",
                                        class.name, len
                                    ),
                                    "a deployment refuses an index range that \
                                     leaves its group (FA011); clamp the \
                                     expression or grow the group",
                                ));
                            }
                        } else if is_provably_negative(idx, &s.param_defaults) {
                            out.push(Diagnostic::new(
                                Severity::Error,
                                "FA010",
                                t.line,
                                format!(
                                    "class `{}`: index into group `{name}` \
                                     is negative under default parameters",
                                    class.name
                                ),
                                "group indices must be non-negative",
                            ));
                        }
                    }
                }
            }
        }
    }
}

/// Conservative negativity check for non-constant index expressions:
/// `CONST - FAIL_RANDOM(lo, hi)` with `hi > CONST` and friends are left
/// alone; only `Neg` of a provably positive constant-range subexpression
/// is flagged. (Constant cases are handled by `fold_const` above.)
fn is_provably_negative(e: &Expr, params: &[i64]) -> bool {
    match e {
        Expr::Neg(inner) => const_range(inner, params).is_some_and(|(lo, _)| lo > 0),
        Expr::Bin(BinOp::Sub, a, b) => {
            match (const_range(a, params), const_range(b, params)) {
                (Some((_, amax)), Some((bmin, _))) => amax < bmin,
                _ => false,
            }
        }
        _ => false,
    }
}

/// Interval of possible values for `e`, when one can be derived without
/// knowing variable contents (see [`Expr::const_range`] in `failmpi-core`,
/// shared with the model checker).
fn const_range(e: &Expr, params: &[i64]) -> Option<(i64, i64)> {
    e.const_range(params)
}
