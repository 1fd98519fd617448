//! Deterministic FAIL-scenario generation: structured mutations of the
//! builtin figure scenarios plus from-scratch synthesis of fig5/fig8/
//! fig10-shaped campaigns, every output filtered through the FA lints so
//! only well-formed automata reach the oracles.
//!
//! All randomness flows from one [`SimRng`]: the same seed produces the
//! same candidate stream byte for byte (sources are pretty-printed from
//! the AST, never patched textually).

use failmpi_backend::InstrumentedFn;
use failmpi_core::lang::ast::{
    ActionAst, DaemonAst, DestAst, ExprAst, GroupAst, InstanceAst, NodeAst, ParamAst,
    ProbeDeclAst, ScenarioAst, TimerDeclAst, TransitionAst, VarDeclAst,
};
use failmpi_core::lang::{parser, pretty};
use failmpi_experiments::runnable_builtins;
use failmpi_sim::SimRng;

/// One generated scenario, ready for the oracles.
#[derive(Clone, Debug)]
pub struct Candidate {
    /// Stable candidate name (`c007-mut-fig10_state_sync`).
    pub name: String,
    /// Pretty-printed FAIL source.
    pub source: String,
    /// Daemon class deployed on every compute machine.
    pub machine_class: String,
    /// Smoke-scale parameter overrides.
    pub params: Vec<(String, i64)>,
    /// Where the candidate came from (`mutant of …` / `synthesized …`).
    pub origin: String,
}

/// A builtin scenario parsed once, as mutation seed material.
struct SeedScenario {
    name: &'static str,
    ast: ScenarioAst,
    machine: &'static str,
    params: Vec<(String, i64)>,
}

/// Whether `src` is fit to execute: it parses, compiles, and carries no
/// `Error`-level FA finding. This is the validity level every emitted
/// candidate is guaranteed to hold.
pub fn passes_filter(src: &str) -> bool {
    if parser::parse(src).is_err() {
        return false;
    }
    !failmpi_analyze::check_source(src)
        .iter()
        .any(|d| d.severity == failmpi_analyze::Severity::Error)
}

/// The deterministic candidate stream.
pub struct Generator {
    seeds: Vec<SeedScenario>,
    rng: SimRng,
    emitted: usize,
}

impl Generator {
    /// A generator over the runnable builtins, seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        let seeds = runnable_builtins()
            .iter()
            .map(|(name, src, machine, params)| SeedScenario {
                name,
                ast: parser::parse(src).expect("builtin scenarios parse"),
                machine,
                params: params.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            })
            .collect();
        Generator {
            seeds,
            rng: SimRng::new(seed).derive(0xF0FF),
            emitted: 0,
        }
    }

    /// The next candidate that survives the FA filter, trying at most
    /// `max_attempts` raw generations (`None` if all were rejected — the
    /// caller just moves on, the stream stays deterministic either way).
    pub fn next_valid(&mut self, max_attempts: usize) -> Option<Candidate> {
        for _ in 0..max_attempts {
            let cand = self.raw();
            if passes_filter(&cand.source) {
                return Some(cand);
            }
        }
        None
    }

    /// One raw (unfiltered) candidate: 1-in-4 synthesized, else a mutant
    /// of a builtin.
    fn raw(&mut self) -> Candidate {
        self.emitted += 1;
        let idx = self.emitted;
        if self.rng.below(4) == 0 {
            let (ast, origin) = self.synthesize();
            Candidate {
                name: format!("c{idx:03}-syn"),
                source: pretty::scenario(&ast),
                machine_class: "ADVM".to_string(),
                params: vec![("T".to_string(), 2), ("N".to_string(), 5)],
                origin,
            }
        } else {
            let which = self.rng.below(self.seeds.len() as u64) as usize;
            let mut ast = self.seeds[which].ast.clone();
            let n_muts = 1 + self.rng.below(3) as usize;
            let mut applied = Vec::new();
            for _ in 0..n_muts {
                if let Some(tag) = self.mutate(&mut ast) {
                    applied.push(tag);
                }
            }
            let seed = &self.seeds[which];
            Candidate {
                name: format!("c{idx:03}-mut-{}", seed.name),
                source: pretty::scenario(&ast),
                machine_class: seed.machine.to_string(),
                params: seed.params.clone(),
                origin: format!("mutant of {} [{}]", seed.name, applied.join("+")),
            }
        }
    }

    // -- mutations ---------------------------------------------------------

    /// Applies one randomly chosen mutation in place; returns its tag, or
    /// `None` when the chosen operator had no applicable site.
    fn mutate(&mut self, ast: &mut ScenarioAst) -> Option<&'static str> {
        match self.rng.below(9) {
            0 => self.tweak_timer(ast).then_some("timer"),
            1 => self.retarget_goto(ast).then_some("goto"),
            2 => self.swap_guard(ast).then_some("guard"),
            3 => self.redirect_send(ast).then_some("target"),
            4 => self.dup_transition(ast).then_some("dup"),
            5 => self.drop_transition(ast).then_some("drop"),
            6 => self.insert_process_action(ast).then_some("action"),
            7 => self.splice_node(ast).then_some("splice"),
            8 => self.add_probe_watch(ast).then_some("probe"),
            _ => unreachable!(),
        }
    }

    /// Picks a uniformly random `(daemon, node)` pair that satisfies
    /// `keep`, deterministically.
    fn pick_node(
        &mut self,
        ast: &ScenarioAst,
        keep: impl Fn(&NodeAst) -> bool,
    ) -> Option<(usize, usize)> {
        let sites: Vec<(usize, usize)> = ast
            .daemons
            .iter()
            .enumerate()
            .flat_map(|(d, dm)| {
                dm.nodes
                    .iter()
                    .enumerate()
                    .filter(|(_, n)| keep(n))
                    .map(move |(n, _)| (d, n))
            })
            .collect();
        self.rng.pick(&sites).copied()
    }

    /// Picks a random `(daemon, node, transition)` triple.
    fn pick_transition(&mut self, ast: &ScenarioAst) -> Option<(usize, usize, usize)> {
        let sites: Vec<(usize, usize, usize)> = ast
            .daemons
            .iter()
            .enumerate()
            .flat_map(|(d, dm)| {
                dm.nodes.iter().enumerate().flat_map(move |(n, node)| {
                    (0..node.transitions.len()).map(move |t| (d, n, t))
                })
            })
            .collect();
        self.rng.pick(&sites).copied()
    }

    fn tweak_timer(&mut self, ast: &mut ScenarioAst) -> bool {
        let Some((d, n)) = self.pick_node(ast, |n| !n.timers.is_empty()) else {
            return false;
        };
        let node = &mut ast.daemons[d].nodes[n];
        let t = self.rng.below(node.timers.len() as u64) as usize;
        // Delays stay >= 1: a zero-delay timer storm would swamp the
        // engine without exercising anything new.
        node.timers[t].delay = ExprAst::Int(self.rng.range_inclusive(1, 8));
        true
    }

    fn retarget_goto(&mut self, ast: &mut ScenarioAst) -> bool {
        let Some((d, n, t)) = self.pick_transition(ast) else {
            return false;
        };
        let labels: Vec<i64> = ast.daemons[d].nodes.iter().map(|x| x.label).collect();
        let Some(&target) = self.rng.pick(&labels) else {
            return false;
        };
        for a in &mut ast.daemons[d].nodes[n].transitions[t].actions {
            if let ActionAst::Goto(l) = a {
                *l = target;
                return true;
            }
        }
        false
    }

    fn swap_guard(&mut self, ast: &mut ScenarioAst) -> bool {
        // The scenario-wide message alphabet keeps a swapped `?msg`
        // receivable: some daemon still sends it.
        let alphabet: Vec<String> = {
            let mut msgs: Vec<String> = ast
                .daemons
                .iter()
                .flat_map(|dm| dm.nodes.iter())
                .flat_map(|n| n.transitions.iter())
                .flat_map(|t| t.actions.iter())
                .filter_map(|a| match a {
                    ActionAst::Send { msg, .. } => Some(msg.clone()),
                    _ => None,
                })
                .collect();
            msgs.sort();
            msgs.dedup();
            msgs
        };
        let Some((d, n, t)) = self.pick_transition(ast) else {
            return false;
        };
        use failmpi_core::lang::ast::GuardAst as G;
        let g = &mut ast.daemons[d].nodes[n].transitions[t].guard;
        match g {
            G::Recv(m) => match self.rng.pick(&alphabet) {
                Some(other) => {
                    *m = other.clone();
                    true
                }
                None => false,
            },
            G::OnExit => {
                *g = G::OnError;
                true
            }
            G::OnError => {
                *g = G::OnExit;
                true
            }
            _ => false,
        }
    }

    fn redirect_send(&mut self, ast: &mut ScenarioAst) -> bool {
        let groups: Vec<String> = ast.groups.iter().map(|g| g.name.clone()).collect();
        let instances: Vec<String> = ast.instances.iter().map(|i| i.name.clone()).collect();
        let Some((d, n, t)) = self.pick_transition(ast) else {
            return false;
        };
        for a in &mut ast.daemons[d].nodes[n].transitions[t].actions {
            if let ActionAst::Send { dest, .. } = a {
                *dest = match self.rng.below(3) {
                    0 => DestAst::Sender,
                    1 => match self.rng.pick(&instances) {
                        Some(i) => DestAst::Instance(i.clone()),
                        None => DestAst::Sender,
                    },
                    _ => match self.rng.pick(&groups) {
                        Some(g) => DestAst::Group(
                            g.clone(),
                            ExprAst::Rand(
                                Box::new(ExprAst::Int(0)),
                                Box::new(ExprAst::Name("N".to_string())),
                            ),
                        ),
                        None => DestAst::Sender,
                    },
                };
                return true;
            }
        }
        false
    }

    fn dup_transition(&mut self, ast: &mut ScenarioAst) -> bool {
        let Some((d, n, t)) = self.pick_transition(ast) else {
            return false;
        };
        let node = &mut ast.daemons[d].nodes[n];
        let copy = node.transitions[t].clone();
        node.transitions.push(copy);
        true
    }

    fn drop_transition(&mut self, ast: &mut ScenarioAst) -> bool {
        // Keep at least one transition per node: a transitionless node is
        // printable but pointless, and FA flags whole daemons of them.
        let Some((d, n)) = self.pick_node(ast, |n| n.transitions.len() > 1) else {
            return false;
        };
        let node = &mut ast.daemons[d].nodes[n];
        let t = self.rng.below(node.transitions.len() as u64) as usize;
        node.transitions.remove(t);
        true
    }

    fn insert_process_action(&mut self, ast: &mut ScenarioAst) -> bool {
        let Some((d, n, t)) = self.pick_transition(ast) else {
            return false;
        };
        let action = match self.rng.below(3) {
            0 => ActionAst::Halt,
            1 => ActionAst::Stop,
            _ => ActionAst::Continue,
        };
        let actions = &mut ast.daemons[d].nodes[n].transitions[t].actions;
        let at = self.rng.below(actions.len() as u64 + 1) as usize;
        actions.insert(at, action);
        true
    }

    /// Duplicates an existing node under a fresh label and retargets one
    /// `goto` to it — the cheap, always-well-formed form of state
    /// splicing (labels are daemon-local, variables stay in scope).
    fn splice_node(&mut self, ast: &mut ScenarioAst) -> bool {
        let Some((d, n)) = self.pick_node(ast, |_| true) else {
            return false;
        };
        let daemon = &mut ast.daemons[d];
        let fresh = daemon.nodes.iter().map(|x| x.label).max().unwrap_or(0) + 1;
        let mut copy = daemon.nodes[n].clone();
        copy.label = fresh;
        daemon.nodes.push(copy);
        let gotos: Vec<(usize, usize, usize)> = daemon
            .nodes
            .iter()
            .enumerate()
            .flat_map(|(ni, node)| {
                node.transitions.iter().enumerate().flat_map(move |(ti, tr)| {
                    tr.actions.iter().enumerate().filter_map(move |(ai, a)| {
                        matches!(a, ActionAst::Goto(_)).then_some((ni, ti, ai))
                    })
                })
            })
            .collect();
        let Some(&(ni, ti, ai)) = self.rng.pick(&gotos) else {
            return true; // the spliced node stays unreachable; FA warns
        };
        daemon.nodes[ni].transitions[ti].actions[ai] = ActionAst::Goto(fresh);
        true
    }

    /// Adds a `probe epoch;`/`probe committed_wave;` watch to the machine
    /// class: an `onchange` transition reacting to the application's
    /// recovery state — the paper's Sec. 6 state-synchronized triggers.
    fn add_probe_watch(&mut self, ast: &mut ScenarioAst) -> bool {
        let probe = if self.rng.chance(0.5) { "epoch" } else { "committed_wave" };
        let Some((d, n)) = self.pick_node(ast, |_| true) else {
            return false;
        };
        let daemon = &mut ast.daemons[d];
        if !daemon.probes.iter().any(|p| p.name == probe) {
            daemon.probes.push(ProbeDeclAst {
                name: probe.to_string(),
                line: 0,
            });
        }
        let back = daemon.nodes[n].label;
        daemon.nodes[n].transitions.push(TransitionAst {
            guard: failmpi_core::lang::ast::GuardAst::Change(probe.to_string()),
            conds: Vec::new(),
            actions: vec![ActionAst::Continue, ActionAst::Goto(back)],
            line: 0,
        });
        true
    }

    // -- synthesis ---------------------------------------------------------

    /// Builds a fig5/fig8/fig10-shaped campaign from scratch: a
    /// coordinator `ADV1` ordering crashes into a machine group, and a
    /// machine class `ADVM` whose reply/halt protocol is drawn from the
    /// same design space the paper's scenarios cover.
    fn synthesize(&mut self) -> (ScenarioAst, String) {
        let second_wave = self.rng.below(3); // 0 none, 1 timer, 2 state-sync
        let stop_at_load = self.rng.chance(0.5);
        let breakpoint = stop_at_load && self.rng.chance(0.5);
        let retry_on_no = self.rng.chance(0.75);

        let rand_pick = || VarDeclAst {
            name: "ran".to_string(),
            init: ExprAst::Rand(
                Box::new(ExprAst::Int(0)),
                Box::new(ExprAst::Name("N".to_string())),
            ),
            line: 0,
        };
        let crash_group = || ActionAst::Send {
            msg: "crash".to_string(),
            dest: DestAst::Group("G1".to_string(), ExprAst::Name("ran".to_string())),
        };
        let send_p1 = |msg: &str| ActionAst::Send {
            msg: msg.to_string(),
            dest: DestAst::Instance("P1".to_string()),
        };
        let tr = |guard, actions: Vec<ActionAst>| TransitionAst {
            guard,
            conds: Vec::new(),
            actions,
            line: 0,
        };
        use failmpi_core::lang::ast::GuardAst as G;

        // Coordinator.
        let mut adv_nodes = vec![
            NodeAst {
                label: 1,
                always: vec![rand_pick()],
                timers: vec![TimerDeclAst {
                    name: "g_timer".to_string(),
                    delay: ExprAst::Name("T".to_string()),
                    line: 0,
                }],
                transitions: vec![tr(
                    G::Timer("g_timer".to_string()),
                    vec![crash_group(), ActionAst::Goto(2)],
                )],
                line: 0,
            },
            NodeAst {
                label: 2,
                always: vec![rand_pick()],
                timers: Vec::new(),
                transitions: {
                    let after_ok = if second_wave == 0 { 1 } else { 3 };
                    let mut ts = vec![tr(G::Recv("ok".to_string()), vec![ActionAst::Goto(after_ok)])];
                    if retry_on_no {
                        ts.push(tr(
                            G::Recv("no".to_string()),
                            vec![crash_group(), ActionAst::Goto(2)],
                        ));
                    }
                    ts
                },
                line: 0,
            },
        ];
        match second_wave {
            1 => adv_nodes.push(NodeAst {
                label: 3,
                always: vec![rand_pick()],
                timers: vec![TimerDeclAst {
                    name: "w_timer".to_string(),
                    delay: ExprAst::Int(self.rng.range_inclusive(1, 4)),
                    line: 0,
                }],
                transitions: vec![tr(
                    G::Timer("w_timer".to_string()),
                    vec![crash_group(), ActionAst::Goto(2)],
                )],
                line: 0,
            }),
            2 => {
                adv_nodes.push(NodeAst {
                    label: 3,
                    always: Vec::new(),
                    timers: Vec::new(),
                    transitions: vec![tr(
                        G::Recv("waveok".to_string()),
                        vec![
                            ActionAst::Send {
                                msg: "crash".to_string(),
                                dest: DestAst::Sender,
                            },
                            ActionAst::Goto(4),
                        ],
                    )],
                    line: 0,
                });
                adv_nodes.push(NodeAst {
                    label: 4,
                    always: Vec::new(),
                    timers: Vec::new(),
                    transitions: vec![tr(
                        G::Recv("waveok".to_string()),
                        vec![
                            ActionAst::Send {
                                msg: "nocrash".to_string(),
                                dest: DestAst::Sender,
                            },
                            ActionAst::Goto(4),
                        ],
                    )],
                    line: 0,
                });
            }
            _ => {}
        }
        let adv = DaemonAst {
            name: "ADV1".to_string(),
            vars: Vec::new(),
            probes: Vec::new(),
            nodes: adv_nodes,
            line: 0,
        };

        // Machine controller.
        let mut m_nodes = vec![NodeAst {
            label: 1,
            always: Vec::new(),
            timers: Vec::new(),
            transitions: vec![
                tr(G::OnLoad, vec![ActionAst::Continue, ActionAst::Goto(2)]),
                tr(G::Recv("crash".to_string()), vec![send_p1("no"), ActionAst::Goto(1)]),
            ],
            line: 0,
        }];
        if second_wave == 2 && stop_at_load {
            // Fig. 10 shape: the armed machine halts its process and waits
            // for the recovery wave to report back in.
            m_nodes.push(NodeAst {
                label: 2,
                always: Vec::new(),
                timers: Vec::new(),
                transitions: vec![
                    tr(
                        G::Recv("crash".to_string()),
                        vec![send_p1("ok"), ActionAst::Halt, ActionAst::Goto(11)],
                    ),
                    tr(
                        G::OnLoad,
                        vec![send_p1("waveok"), ActionAst::Stop, ActionAst::Goto(3)],
                    ),
                ],
                line: 0,
            });
            m_nodes.push(NodeAst {
                label: 11,
                always: Vec::new(),
                timers: Vec::new(),
                transitions: vec![
                    tr(
                        G::OnLoad,
                        vec![send_p1("waveok"), ActionAst::Stop, ActionAst::Goto(3)],
                    ),
                    tr(G::Recv("crash".to_string()), vec![send_p1("no"), ActionAst::Goto(11)]),
                ],
                line: 0,
            });
            let kill_then = if breakpoint { 4 } else { 5 };
            m_nodes.push(NodeAst {
                label: 3,
                always: Vec::new(),
                timers: Vec::new(),
                transitions: vec![
                    tr(
                        G::Recv("crash".to_string()),
                        vec![send_p1("ok"), ActionAst::Continue, ActionAst::Goto(kill_then)],
                    ),
                    tr(
                        G::Recv("nocrash".to_string()),
                        vec![ActionAst::Continue, ActionAst::Goto(5)],
                    ),
                ],
                line: 0,
            });
            if breakpoint {
                m_nodes.push(NodeAst {
                    label: 4,
                    always: Vec::new(),
                    timers: Vec::new(),
                    transitions: vec![tr(
                        G::Before(InstrumentedFn::LocalMpiSetCommand.name().to_string()),
                        vec![ActionAst::Halt, ActionAst::Goto(5)],
                    )],
                    line: 0,
                });
            } else {
                // No breakpoint: node 3 halts outright on `crash`.
                let n3 = m_nodes.last_mut().unwrap();
                n3.transitions[0].actions =
                    vec![send_p1("ok"), ActionAst::Halt, ActionAst::Goto(5)];
            }
            m_nodes.push(NodeAst {
                label: 5,
                always: Vec::new(),
                timers: Vec::new(),
                transitions: vec![tr(G::OnLoad, vec![ActionAst::Continue, ActionAst::Goto(5)])],
                line: 0,
            });
        } else {
            // Fig. 5 shape: crash on order, rearm on relaunch.
            m_nodes.push(NodeAst {
                label: 2,
                always: Vec::new(),
                timers: Vec::new(),
                transitions: vec![
                    tr(G::OnExit, vec![ActionAst::Goto(1)]),
                    tr(G::OnError, vec![ActionAst::Goto(1)]),
                    tr(G::OnLoad, vec![ActionAst::Continue, ActionAst::Goto(2)]),
                    tr(
                        G::Recv("crash".to_string()),
                        vec![send_p1("ok"), ActionAst::Halt, ActionAst::Goto(1)],
                    ),
                ],
                line: 0,
            });
        }
        let machine = DaemonAst {
            name: "ADVM".to_string(),
            vars: Vec::new(),
            probes: Vec::new(),
            nodes: m_nodes,
            line: 0,
        };

        let ast = ScenarioAst {
            params: vec![
                ParamAst {
                    name: "T".to_string(),
                    default: ExprAst::Int(50),
                    line: 0,
                },
                ParamAst {
                    name: "N".to_string(),
                    default: ExprAst::Int(52),
                    line: 0,
                },
            ],
            daemons: vec![adv, machine],
            instances: vec![InstanceAst {
                name: "P1".to_string(),
                class: "ADV1".to_string(),
                line: 0,
            }],
            groups: vec![GroupAst {
                name: "G1".to_string(),
                len: 53,
                class: "ADVM".to_string(),
                line: 0,
            }],
        };
        let origin = format!(
            "synthesized wave={second_wave} stop_at_load={stop_at_load} \
             breakpoint={breakpoint} retry={retry_on_no}"
        );
        (ast, origin)
    }
}
