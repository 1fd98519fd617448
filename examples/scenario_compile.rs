//! The FCI compiler pipeline as a library: parse a FAIL scenario, inspect
//! the compiled automata, run the static analyzer over them (what the
//! `failck` binary does), and dry-run the automaton against synthetic
//! events without any cluster.
//!
//! ```sh
//! cargo run --release --example scenario_compile
//! ```

use failmpi::prelude::*;
use failmpi::sim::SimRng;

const SRC: &str = r#"
// A bespoke scenario: crash the job's most loaded machine twice, 10 s
// apart, then watch. (Here "most loaded" is simply machine 0.)
daemon Adversary {
  int shots = 2;
  node 1:
    timer t = 10;
    t && shots > 0 -> !crash(G[0]), shots = shots - 1, goto 2;
    t && shots <= 0 -> goto 3;
  node 2:
    ?ok -> goto 1;
    ?no -> goto 1;
  node 3:
}

daemon Machine {
  node 1:
    onload -> continue, goto 2;
    ?crash -> !no(P), goto 1;
  node 2:
    onexit -> goto 1;
    onerror -> goto 1;
    ?crash -> !ok(P), halt, goto 1;
}

instance P = Adversary;
group G[3] = Machine;
"#;

fn main() {
    // Parse + compile.
    let scenario = compile(SRC).expect("scenario compiles");
    println!("== compiled automata ==");
    for class in &scenario.classes {
        let transitions: usize = class.nodes.iter().map(|n| n.transitions.len()).sum();
        println!(
            "daemon {:<10} {} nodes, {} transitions, vars [{}], timers [{}]",
            class.name,
            class.nodes.len(),
            transitions,
            class.var_names.join(", "),
            class.timer_names.join(", ")
        );
    }

    // Static analysis: the compiled automata lint clean...
    let findings = failmpi::analyze::analyze_scenario(&scenario);
    println!("\n== static analysis ==");
    println!("failck on the scenario above: {} findings", findings.len());
    assert!(findings.is_empty(), "expected a clean scenario: {findings:?}");

    // ...while a defective one is flagged before it ever runs: `ping`
    // goes to a class that never receives it (FA008) and node 3 is
    // unreachable (FA001).
    let broken = "daemon A {\n  node 1:\n    onload -> !ping(G[0]), goto 1;\n  node 3:\n    onexit -> halt;\n}\ndaemon B {\n  node 1:\n    onload -> continue;\n}\ninstance P = A;\ngroup G[3] = B;\n";
    let report = failmpi::analyze::Report::new(
        "broken-example".to_string(),
        failmpi::analyze::check_source(broken),
    );
    print!("{}", report.render_human());

    // Deploy and dry-run against synthetic events — no cluster needed.
    let deployment = Deployment::from_suggested(&scenario).expect("deploys");
    let mut rt = FailRuntime::new(&scenario, deployment, &[]).expect("binds");
    let mut rng = SimRng::new(7);
    println!("\n== dry run ==");
    let actions = rt.start(&mut rng);
    println!("start: {actions:?}");

    let g0 = rt.deployment().instance_index("G[0]").unwrap();
    let p = rt.deployment().instance_index("P").unwrap();
    let actions = rt.feed(FailInput::OnLoad { instance: g0, proc: 4242 }, &mut rng);
    println!("onload(G[0], pid 4242): {actions:?}");

    // Fire the adversary's timer: it must order the crash of machine 0.
    let actions = rt.feed(
        FailInput::Timer {
            instance: p,
            timer: 0,
            gen: 1,
        },
        &mut rng,
    );
    println!("timer(P): {actions:?}");

    let crash = rt.scenario().message_id("crash").unwrap();
    let actions = rt.feed(FailInput::Msg { from: p, to: g0, msg: crash }, &mut rng);
    println!("crash -> G[0]: {actions:?}");
    assert!(actions.iter().any(|a| matches!(a, FailAction::Halt { proc: 4242 })));
    println!("\npid 4242 was halted — the scenario does what it says.");
}
