//! The five FAIL listings from the paper (Figs. 4, 5(a), 7(a), 8, 10) must
//! lex, parse, compile, deploy, and behave as the paper describes.

use failmpi_core::{compile, Deployment, FailAction, FailInput, FailRuntime};
use failmpi_sim::SimRng;

const FIG4: &str = include_str!("../scenarios/fig4_generic_nodes.fail");
const FIG5: &str = include_str!("../scenarios/fig5_frequency.fail");
const FIG7: &str = include_str!("../scenarios/fig7_simultaneous.fail");
const FIG8: &str = include_str!("../scenarios/fig8_synchronized.fail");
const FIG10: &str = include_str!("../scenarios/fig10_state_sync.fail");
const DELAY: &str = include_str!("../scenarios/delay_injection.fail");

#[test]
fn all_paper_scenarios_compile() {
    for (name, src) in [
        ("fig4", FIG4),
        ("fig5", FIG5),
        ("fig7", FIG7),
        ("fig8", FIG8),
        ("fig10", FIG10),
        ("delay", DELAY),
    ] {
        let s = compile(src).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(!s.classes.is_empty(), "{name}");
    }
}

#[test]
fn fig5_deploys_53_machines() {
    let s = compile(FIG5).unwrap();
    let d = Deployment::from_suggested(&s).unwrap();
    // P1 + 53 group members.
    assert_eq!(d.len(), 54);
    assert_eq!(d.group("G1").unwrap().len(), 53);
    let rt = FailRuntime::new(&s, d, &[("X", 40), ("N", 52)]).unwrap();
    assert_eq!(rt.len(), 54);
}

/// Drives the Fig. 5 scenario through a full injection cycle without any
/// cluster: P1's timer fires, a machine without a daemon answers `no`, the
/// retry lands on a machine with a daemon, which is halted.
#[test]
fn fig5_injection_cycle() {
    let s = compile(FIG5).unwrap();
    let d = Deployment::from_suggested(&s).unwrap();
    // Two machines only, to force both branches.
    let mut rt = FailRuntime::new(&s, d, &[("X", 50), ("N", 1)]).unwrap();
    let mut rng = SimRng::new(11);
    let acts = rt.start(&mut rng);
    let p1 = rt.deployment().instance_index("P1").unwrap();
    let (timer, gen) = acts
        .iter()
        .find_map(|a| match a {
            FailAction::ArmTimer { timer, gen, .. } => Some((*timer, *gen)),
            _ => None,
        })
        .expect("P1 timer armed");

    // Machine G1[0] hosts a daemon; G1[1] is empty.
    let g0 = rt.deployment().instance_index("G1[0]").unwrap();
    rt.feed(
        FailInput::OnLoad {
            instance: g0,
            proc: 1000,
        },
        &mut rng,
    );

    // Fire P1's timer until the crash order reaches a machine; relay the
    // FAIL messages by hand like the harness would.
    let mut queue: Vec<FailInput> = vec![FailInput::Timer {
        instance: p1,
        timer,
        gen,
    }];
    let mut halted = None;
    let mut no_count = 0;
    let mut guard = 0;
    while let Some(input) = queue.pop() {
        guard += 1;
        assert!(guard < 100, "injection cycle did not converge");
        for act in rt.feed(input, &mut rng) {
            match act {
                FailAction::SendMsg { from, to, msg } => {
                    if rt.scenario().messages[msg] == "no" {
                        no_count += 1;
                    }
                    queue.push(FailInput::Msg { from, to, msg });
                }
                FailAction::Halt { proc } => halted = Some(proc),
                FailAction::Continue { .. } | FailAction::ArmTimer { .. } => {}
                other => panic!("unexpected action {other:?}"),
            }
        }
    }
    assert_eq!(halted, Some(1000), "the daemon was not crashed");
    // With only 2 machines the random pick may need `no` retries; either
    // way P1 must end back in node 1 (after `ok`) with a re-armed timer.
    assert_eq!(rt.current_node_label(p1), 1);
    let _ = no_count;
}

/// Fig. 7's burst automaton injects exactly X faults per burst.
#[test]
fn fig7_burst_counts() {
    let s = compile(FIG7).unwrap();
    let mut d = Deployment::new();
    let p1 = d.add_instance("P1", "ADV1").unwrap();
    let mut members = Vec::new();
    for i in 0..4 {
        members.push(d.add_instance(&format!("m{i}"), "ADVnodes").unwrap());
    }
    d.add_group("G1", members.clone()).unwrap();
    let mut rt = FailRuntime::new(&s, d, &[("X", 3), ("N", 3)]).unwrap();
    let mut rng = SimRng::new(5);
    let acts = rt.start(&mut rng);
    // Daemons on every machine.
    for (k, &m) in members.iter().enumerate() {
        rt.feed(
            FailInput::OnLoad {
                instance: m,
                proc: 2000 + k as u64,
            },
            &mut rng,
        );
    }
    let (timer, gen) = acts
        .iter()
        .find_map(|a| match a {
            FailAction::ArmTimer { timer, gen, .. } => Some((*timer, *gen)),
            _ => None,
        })
        .unwrap();
    let mut queue = vec![FailInput::Timer {
        instance: p1,
        timer,
        gen,
    }];
    let mut halts = 0;
    let mut rearmed = false;
    while let Some(input) = queue.pop() {
        for act in rt.feed(input, &mut rng) {
            match act {
                FailAction::SendMsg { from, to, msg } => {
                    queue.push(FailInput::Msg { from, to, msg })
                }
                FailAction::Halt { .. } => halts += 1,
                FailAction::ArmTimer { .. } => rearmed = true,
                _ => {}
            }
        }
    }
    assert_eq!(halts, 3, "burst size must equal X");
    assert!(rearmed, "P1 must re-arm its period timer after the burst");
    assert_eq!(rt.var(p1, "nb_crash"), Some(3), "counter reset for next burst");
}

/// Fig. 8's wave counter: the second launch on a machine reports `waveok`.
#[test]
fn fig8_second_onload_reports_wave() {
    let s = compile(FIG8).unwrap();
    let d = Deployment::from_suggested(&s).unwrap();
    let mut rt = FailRuntime::new(&s, d, &[]).unwrap();
    let mut rng = SimRng::new(7);
    rt.start(&mut rng);
    let g0 = rt.deployment().instance_index("G1[0]").unwrap();
    let waveok = rt.scenario().message_id("waveok").unwrap();

    // Launch #1: no report.
    let acts = rt.feed(FailInput::OnLoad { instance: g0, proc: 1 }, &mut rng);
    assert!(!acts.iter().any(|a| matches!(a, FailAction::SendMsg { msg, .. } if *msg == waveok)));
    // The daemon exits (recovery kill), relaunches: report.
    rt.feed(FailInput::OnExit { instance: g0, proc: 1 }, &mut rng);
    let acts = rt.feed(FailInput::OnLoad { instance: g0, proc: 2 }, &mut rng);
    assert!(acts.iter().any(|a| matches!(a, FailAction::SendMsg { msg, .. } if *msg == waveok)));
    // Launch #3 (second recovery): no further report.
    rt.feed(FailInput::OnError { instance: g0, proc: 2 }, &mut rng);
    let acts = rt.feed(FailInput::OnLoad { instance: g0, proc: 3 }, &mut rng);
    assert!(!acts.iter().any(|a| matches!(a, FailAction::SendMsg { msg, .. } if *msg == waveok)));
}

/// Fig. 10's G1 automaton: recovery-wave daemons are stopped at load; the
/// crash victim resumes into an armed breakpoint and is halted there.
#[test]
fn fig10_stop_arm_halt_pipeline() {
    let s = compile(FIG10).unwrap();
    let d = Deployment::from_suggested(&s).unwrap();
    let mut rt = FailRuntime::new(&s, d, &[]).unwrap();
    let mut rng = SimRng::new(9);
    rt.start(&mut rng);
    let g0 = rt.deployment().instance_index("G1[0]").unwrap();
    let p1 = rt.deployment().instance_index("P1").unwrap();
    let crash = rt.scenario().message_id("crash").unwrap();

    // Initial launch runs free (node 1 → 2).
    rt.feed(FailInput::OnLoad { instance: g0, proc: 1 }, &mut rng);
    // First fault hits this machine: ok + halt + goto 11.
    let acts = rt.feed(FailInput::Msg { from: p1, to: g0, msg: crash }, &mut rng);
    assert!(acts.contains(&FailAction::Halt { proc: 1 }));
    assert_eq!(rt.current_node_label(g0), 11);

    // Recovery wave: the respawned daemon is stopped at load and reports.
    let acts = rt.feed(FailInput::OnLoad { instance: g0, proc: 2 }, &mut rng);
    assert!(acts.contains(&FailAction::Stop { proc: 2 }));
    assert!(acts.iter().any(|a| matches!(a, FailAction::SendMsg { .. })));
    assert_eq!(rt.current_node_label(g0), 3);

    // P1 orders the crash: the daemon resumes into node 4, whose entry
    // arms the breakpoint.
    let acts = rt.feed(FailInput::Msg { from: p1, to: g0, msg: crash }, &mut rng);
    assert!(acts.contains(&FailAction::Continue { proc: 2 }));
    assert!(acts.contains(&FailAction::ArmBreakpoint {
        proc: 2,
        func: "localMPI_setCommand".into()
    }));
    assert_eq!(rt.current_node_label(g0), 4);

    // The daemon reaches localMPI_setCommand: halted right there.
    let acts = rt.feed(
        FailInput::Breakpoint {
            instance: g0,
            proc: 2,
            func: "localMPI_setCommand".into(),
        },
        &mut rng,
    );
    assert!(acts.contains(&FailAction::Halt { proc: 2 }));
    assert_eq!(rt.current_node_label(g0), 5);
}

/// Fig. 10's P1: first `waveok` is crashed, all later ones are released.
#[test]
fn fig10_p1_crashes_first_reporter_only() {
    let s = compile(FIG10).unwrap();
    let d = Deployment::from_suggested(&s).unwrap();
    let mut rt = FailRuntime::new(&s, d, &[]).unwrap();
    let mut rng = SimRng::new(13);
    let acts = rt.start(&mut rng);
    let p1 = rt.deployment().instance_index("P1").unwrap();
    let ok = rt.scenario().message_id("ok").unwrap();
    let waveok = rt.scenario().message_id("waveok").unwrap();
    let crash = rt.scenario().message_id("crash").unwrap();
    let nocrash = rt.scenario().message_id("nocrash").unwrap();

    // Fire P1's period timer (→ node 2), then deliver the first fault's
    // `ok` (→ node 3, the wave-watching state).
    let (timer, gen) = acts
        .iter()
        .find_map(|a| match a {
            FailAction::ArmTimer { instance, timer, gen, .. } if *instance == p1 => {
                Some((*timer, *gen))
            }
            _ => None,
        })
        .expect("P1 timer armed");
    rt.feed(FailInput::Timer { instance: p1, timer, gen }, &mut rng);
    rt.feed(FailInput::Msg { from: 5, to: p1, msg: ok }, &mut rng);
    assert_eq!(rt.current_node_label(p1), 3);

    let acts = rt.feed(FailInput::Msg { from: 7, to: p1, msg: waveok }, &mut rng);
    assert_eq!(
        acts,
        vec![FailAction::SendMsg { from: p1, to: 7, msg: crash }]
    );
    for reporter in [8usize, 9, 10] {
        let acts = rt.feed(
            FailInput::Msg { from: reporter, to: p1, msg: waveok },
            &mut rng,
        );
        assert_eq!(
            acts,
            vec![FailAction::SendMsg { from: p1, to: reporter, msg: nocrash }]
        );
    }
}

/// The FAIL-MPI attach-by-pid interface (paper Sec. 4): a process that was
/// never launched through the middleware — e.g. a forked checkpoint-server
/// handler — can register afterwards and is controlled like any other.
#[test]
fn attach_by_pid_takes_control_of_running_process() {
    let s = compile(FIG4).unwrap();
    let mut d = Deployment::new();
    d.add_instance("P1", "ADVnodes").unwrap(); // any sink for the acks
    let m = d.add_instance("m0", "ADVnodes").unwrap();
    let mut rt = FailRuntime::new(&s, d, &[]).unwrap();
    let mut rng = SimRng::new(3);
    rt.start(&mut rng);

    // No launch happened; attach to pid 5555 directly.
    assert_eq!(rt.controlled(m), None);
    let acts = rt.attach(m, 5555, &mut rng);
    assert!(acts.contains(&FailAction::Continue { proc: 5555 }));
    assert_eq!(rt.controlled(m), Some(5555));

    // The attached process is now crashable like a launched one.
    let crash = rt.scenario().message_id("crash").unwrap();
    let acts = rt.feed(
        FailInput::Msg { from: 0, to: m, msg: crash },
        &mut rng,
    );
    assert!(acts.contains(&FailAction::Halt { proc: 5555 }));
    assert_eq!(rt.controlled(m), None);
}

/// The probe feature end to end at the runtime level: `onchange` fires on
/// value changes only, and probe values are readable in conditions.
#[test]
fn probes_drive_onchange_transitions() {
    let src = r#"
        daemon Watcher {
          probe committed_wave;
          node 1:
            onchange(committed_wave) && committed_wave >= 2 -> !armed(P1), goto 2;
            onchange(committed_wave) -> goto 1;
          node 2:
            ?x -> goto 2;
        }
        daemon Sink { node 1: ?armed -> goto 1; }
        instance P1 = Sink;
        instance W = Watcher;
    "#;
    let s = compile(src).unwrap();
    let d = Deployment::from_suggested(&s).unwrap();
    let mut rt = FailRuntime::new(&s, d, &[]).unwrap();
    let mut rng = SimRng::new(1);
    rt.start(&mut rng);
    let w = rt.deployment().instance_index("W").unwrap();
    let slot = rt.probe_slot(w, "committed_wave").expect("declared probe");

    // Same value: no change, no transition.
    let acts = rt.feed(FailInput::Probe { instance: w, probe: slot, value: 0 }, &mut rng);
    assert!(acts.is_empty());
    assert_eq!(rt.current_node_label(w), 1);
    // Wave 1: fires the second (catch-all) transition, stays armed.
    rt.feed(FailInput::Probe { instance: w, probe: slot, value: 1 }, &mut rng);
    assert_eq!(rt.current_node_label(w), 1);
    assert_eq!(rt.var(w, "committed_wave"), Some(1));
    // Wave 2: condition satisfied, the watcher reports and moves on.
    let acts = rt.feed(FailInput::Probe { instance: w, probe: slot, value: 2 }, &mut rng);
    assert!(matches!(acts[0], FailAction::SendMsg { .. }));
    assert_eq!(rt.current_node_label(w), 2);
}

/// The delay scenario's head: P1 leaves node 1 on the first wave commit.
#[test]
fn delay_scenario_waits_for_first_commit() {
    let s = compile(DELAY).unwrap();
    let d = Deployment::from_suggested(&s).unwrap();
    let mut rt = FailRuntime::new(&s, d, &[("D", 7), ("N", 52)]).unwrap();
    let mut rng = SimRng::new(2);
    let acts = rt.start(&mut rng);
    // No timer armed before the first commit (node 1 has no timers).
    assert!(acts.is_empty());
    let p1 = rt.deployment().instance_index("P1").unwrap();
    let slot = rt.probe_slot(p1, "committed_wave").unwrap();
    let acts = rt.feed(FailInput::Probe { instance: p1, probe: slot, value: 1 }, &mut rng);
    // Node 2 entry arms the D-second countdown.
    assert!(acts.iter().any(|a| matches!(
        a,
        FailAction::ArmTimer { delay, .. } if *delay == failmpi_sim::SimDuration::from_secs(7)
    )));
    assert_eq!(rt.current_node_label(p1), 2);
}

/// Expressions are capped at [`MAX_EXPR_NODES`] operators and parentheses,
/// which bounds the parser's recursion and the height of the tree that
/// `compile` and `pretty` walk: hostile nesting is a diagnostic with its
/// line, never a stack overflow.
#[test]
fn expression_nesting_is_bounded_in_every_shape() {
    use failmpi_core::lang::parser::{parse, MAX_EXPR_NODES};
    use failmpi_core::lang::pretty;

    let cap = MAX_EXPR_NODES as usize;
    let param = |e: String| format!("// header\nparam DEEP = {e};\n{FIG5}");
    let parens = |n: usize| "(".repeat(n) + "1" + &")".repeat(n);
    let sum = |terms: usize| vec!["1"; terms].join(" + ");

    // At the cap, every shape parses, compiles and pretty-prints: right
    // nesting (parentheses, negations) and the left-deep tree of a chain.
    for ok in [parens(cap), "-".repeat(cap) + "1", sum(cap + 1)] {
        let src = param(ok);
        compile(&src).unwrap_or_else(|e| panic!("at the cap: {e}"));
        let text = pretty::scenario(&parse(&src).unwrap());
        assert_eq!(pretty::scenario(&parse(&text).unwrap()), text);
    }
    // One past it — and the reproducers far past it — are refused on line 2.
    for deep in [
        parens(cap + 1),
        "-".repeat(cap + 1) + "1",
        sum(cap + 2),
        parens(20_000),
        "(".repeat(20_000),
        "-".repeat(100_000) + "1",
        sum(100_000),
        "FAIL_RANDOM(0, ".repeat(20_000),
    ] {
        let e = compile(&param(deep)).unwrap_err();
        assert_eq!(e.line, 2, "{e}");
        assert!(e.message.contains("expression too deep"), "{e}");
    }
    // The cap is per expression, not per file.
    let many: String = (0..8).map(|i| format!("param Y{i} = {};\n", parens(cap))).collect();
    compile(&(many + FIG5)).unwrap();
}

/// A group index never unwinds the runtime. One whose range is known
/// without running — `FAIL_RANDOM(0, N)`, directly or through the `ran`
/// variable every paper listing picks with — is held against the group
/// *as deployed* under the *run's* parameters when the runtime is built;
/// one that depends on what the run does (the walking `next` below) names
/// nobody once it strays, and the send is dropped.
#[test]
fn out_of_range_group_indices_are_refused_or_dropped() {
    const WALK: &str = "\
param N = 2;
daemon Walker {
  int next = 1;
  node 1:
    always int ran = FAIL_RANDOM(0, N);
    ?step -> !hit(G1[next]), next = next + 1, goto 1;
    ?pick -> !hit(G1[ran]), goto 1;
    ?far -> !hit(G1[N + 4]), goto 1;
}
daemon Sink { node 1: ?hit -> goto 1; }
instance P1 = Walker;
group G1[3] = Sink;
";
    let s = compile(WALK).unwrap();
    let deployed = || Deployment::from_suggested(&s).unwrap();
    // `G1[N + 4]` is 6 into 3 machines at the default N already.
    let e = FailRuntime::new(&s, deployed(), &[]).unwrap_err().to_string();
    assert_eq!(
        e,
        "daemon `Walker`, line 8: index range [6, 6] into group `G1` leaves its 3 deployed member(s)"
    );
    // Without that send the defaults deploy; N = 7 lets `ran` pick past
    // the machines, which is named by the line that sends to `G1[ran]`.
    let tame = compile(&WALK.replace("G1[N + 4]", "G1[0]")).unwrap();
    let deployed = || Deployment::from_suggested(&tame).unwrap();
    let e = FailRuntime::new(&tame, deployed(), &[("N", 7)]).unwrap_err().to_string();
    assert!(e.contains("line 7: index range [0, 7] into group `G1`"), "{e}");

    let mut rt = FailRuntime::new(&tame, deployed(), &[]).unwrap();
    let mut rng = SimRng::new(5);
    rt.start(&mut rng);
    let p1 = rt.deployment().instance_index("P1").unwrap();
    let step = rt.scenario().message_id("step").unwrap();
    let sends = |rt: &mut FailRuntime, rng: &mut SimRng| {
        rt.feed(FailInput::Msg { from: p1, to: p1, msg: step }, rng)
            .iter()
            .filter(|a| matches!(a, FailAction::SendMsg { .. }))
            .count()
    };
    // `next` walks 1, 2 (in range), then 3, 4 (past the group): dropped,
    // and the transition's other actions still run.
    assert_eq!([(); 4].map(|()| sends(&mut rt, &mut rng)), [1, 1, 0, 0]);
    assert_eq!(rt.var(p1, "next"), Some(5));
}
