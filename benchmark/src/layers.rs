//! The outside-in per-layer budget of the traced pass.
//!
//! Two kinds of measurement feed the per-layer table, both made from the
//! benchmark's side of each layer's public functions:
//!
//! * **probes** — small fixed inputs timed against one layer each (queue
//!   hold at a steady depth, a fingerprint fold, FAIL compile, the lints,
//!   program generation, the lockstep interpreter). Every workload's traced
//!   run takes them, so a layer's unit cost is on record next to every
//!   workload's shares.
//! * **decomposition** — the workload's own operations, run again piece by
//!   piece, so that the wall time of a run splits into set-up, handler
//!   groups, classify and engine self time, the last with its explained
//!   part (queue and fingerprint at the measured unit costs) and the
//!   residual stated, not hidden.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use failmpi_analyze::{analyze_programs, check_source, model_check_source, BackendKind};
use failmpi_experiments::figures::{DELAY_SRC, FIG10_SRC, FIG5_SRC, FIG7_SRC, FIG8_SRC};
use failmpi_experiments::harness::{programs_for, COMPUTE_NOISE};
use failmpi_experiments::robustness::{fault_free_smoke_spec, fig10_stress_spec};
use failmpi_experiments::{
    classify_entries, lint_injection, run_one, run_one_profiled, run_one_traced,
    run_one_with_trace, ExperimentSpec, Outcome, RunRecord,
};
use failmpi_mpi::{lockstep, Program, Rank, Tag};
use failmpi_mpichv::{Cluster, DispatcherMode, Ev, VclConfig, Wire};
use failmpi_net::{ConnId, NetEvent, ProcId};
use failmpi_obs::alloc_counters;
use failmpi_sim::{
    Engine, EventQueue, Fingerprint, FingerprintEvent, Model, RunOutcome, Scheduler, SimDuration,
    SimRng, SimTime,
};
use failmpi_workloads::{bt_programs_noisy, BtClass};

use crate::metrics::{LayerValues, FAIL_KINDS, HANDLER_GROUPS, MC_COMPONENTS};
use crate::pins::Tally;
use crate::spans::Spans;
use crate::workload::Op;

fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

/// Fastest of `reps` calls of `f` as span `name`.
fn fastest_of<R>(
    spans: &mut Spans,
    name: &'static str,
    reps: usize,
    mut f: impl FnMut() -> R,
) -> Duration {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let (r, d) = spans.time(name, |_| f());
            std::hint::black_box(r);
            ns(d)
        })
        .collect();
    Duration::from_nanos(times.into_iter().fold(f64::MAX, f64::min) as u64)
}

fn total_ops(programs: &[Arc<Program>]) -> usize {
    programs.iter().map(|p| p.ops().len()).sum()
}

/// A pop and a push on a queue held at `depth` entries, in nanoseconds.
fn queue_hold_ns(spans: &mut Spans, depth: usize) -> f64 {
    const PAIRS: u32 = 200_000;
    let event = |i: u64| Ev::ComputeDone {
        rank: Rank(i as u32),
        proc: ProcId(i as u32),
        gen: i,
    };
    let mut rng = SimRng::new(depth as u64);
    let mut queue: EventQueue<Ev> = EventQueue::new();
    for i in 0..depth as u64 {
        queue.push(SimTime::from_micros(rng.below(1_000_000)), event(i));
    }
    let hold = fastest_of(spans, "sim.queue_hold", 3, || {
        for _ in 0..PAIRS {
            let (at, ev) = queue.pop().expect("queue held at a fixed depth");
            queue.push(at + SimDuration::from_micros(1 + rng.below(1_000_000)), ev);
        }
    });
    ns(hold) / f64::from(PAIRS)
}

/// One engine step's fingerprint work (position, event identity, fold into
/// the running digest) for a delivered application message, in nanoseconds.
fn fingerprint_ns_per_record(spans: &mut Spans) -> f64 {
    const RECORDS: u64 = 1_000_000;
    let ev = Ev::Net(NetEvent::Delivered {
        conn: ConnId(7),
        proc: ProcId(3),
        from: ProcId(4),
        payload: Wire::AppMsg {
            from: Rank(4),
            tag: Tag(1),
            bytes: 40_960,
            seq: 17,
        },
        bytes: 41_024,
    });
    let fold = fastest_of(spans, "sim.fingerprint_fold", 3, || {
        let mut running = Fingerprint::new();
        for i in 0..RECORDS {
            let mut fp = Fingerprint::new();
            fp.write_u64(i);
            fp.write_u64(i);
            fp.write_u8(1);
            std::hint::black_box(&ev).fold(&mut fp);
            running.write_u64(fp.value());
        }
        running.value()
    });
    ns(fold) / RECORDS as f64
}

/// The workload-independent unit costs, one layer each.
pub fn probes(spans: &mut Spans, seed: u64, out: &mut LayerValues) {
    for (depth, name) in [
        (64, "sim.queue_hold_ns.d64"),
        (512, "sim.queue_hold_ns.d512"),
        (4096, "sim.queue_hold_ns.d4096"),
    ] {
        out.set(name, queue_hold_ns(spans, depth));
    }
    out.set(
        "sim.fingerprint_ns_per_record",
        fingerprint_ns_per_record(spans),
    );
    out.set("mpichv.ev_size_bytes", std::mem::size_of::<Ev>() as f64);
    out.set("mpichv.wire_size_bytes", std::mem::size_of::<Wire>() as f64);
    out.set(
        "mpi.interp_size_bytes",
        std::mem::size_of::<failmpi_mpi::Interp>() as f64,
    );

    let gen49 = fastest_of(spans, "workloads.bt_programs_noisy", 5, || {
        bt_programs_noisy(&BtClass::B, 49, seed, COMPUTE_NOISE)
    });
    let gen196 = fastest_of(spans, "workloads.bt_programs_noisy", 3, || {
        bt_programs_noisy(&BtClass::B, 196, seed, COMPUTE_NOISE)
    });
    out.set("workloads.bt_programs_us.n49", ns(gen49) / 1e3);
    out.set("workloads.bt_programs_us.n196", ns(gen196) / 1e3);
    let programs49 = bt_programs_noisy(&BtClass::B, 49, seed, COMPUTE_NOISE);
    let programs196 = bt_programs_noisy(&BtClass::B, 196, seed, COMPUTE_NOISE);
    out.set("workloads.program_ops", total_ops(&programs196) as f64);

    let ops49 = total_ops(&programs49);
    let interp = fastest_of(spans, "mpi.lockstep_run", 3, || {
        lockstep::run(&programs49).expect("BT programs do not deadlock")
    });
    out.set("mpi.ops", ops49 as f64);
    out.set("mpi.lockstep_ns_per_op", ns(interp) / ops49 as f64);

    let lint_programs = fastest_of(spans, "analyze.analyze_programs", 3, || {
        analyze_programs(&programs49)
    });
    out.set("analyze.lint_programs_ms.n49", ns(lint_programs) / 1e6);
    let cluster_new = fastest_of(spans, "mpichv.cluster_new", 3, || {
        Cluster::new(VclConfig::default(), programs49.clone(), seed)
    });
    out.set("mpichv.cluster_new_us", ns(cluster_new) / 1e3);

    let sources = [FIG5_SRC, FIG7_SRC, FIG8_SRC, FIG10_SRC, DELAY_SRC];
    let mut compile_ns = 0.0;
    let mut lint_ns = 0.0;
    for src in sources {
        compile_ns += ns(fastest_of(spans, "core.compile", 5, || {
            failmpi_core::compile(src)
        }));
        lint_ns += ns(fastest_of(spans, "analyze.check_source", 5, || {
            check_source(src)
        }));
    }
    out.set("core.compile_us", compile_ns / sources.len() as f64 / 1e3);
    out.set(
        "analyze.lint_scenario_us",
        lint_ns / sources.len() as f64 / 1e3,
    );

    let smoke = [
        fault_free_smoke_spec(seed),
        fig10_stress_spec(DispatcherMode::Historical, seed),
    ];
    let smoke_ns: f64 = smoke
        .iter()
        .map(|spec| {
            ns(fastest_of(spans, "experiments.run_one", 5, || {
                run_one(spec)
            }))
        })
        .sum();
    out.set(
        "experiments.smoke_run_us",
        smoke_ns / smoke.len() as f64 / 1e3,
    );
}

/// A cluster under the engine with the two calls a step makes into
/// `mpichv` timed: the benchmark's own driver for the fault-free rungs.
struct TimedCluster {
    cluster: Cluster,
    in_mpichv: Duration,
}

impl Model for TimedCluster {
    type Event = Ev;

    fn handle(&mut self, now: SimTime, ev: Ev, sched: &mut Scheduler<Ev>) {
        self.cluster.set_event_cause(sched.current_event());
        // srclint: allow(SD002): the benchmark measures host time by design
        let start = Instant::now();
        self.cluster.dispatch(now, ev);
        let outputs = self.cluster.take_outputs();
        self.in_mpichv += start.elapsed();
        for (t, e) in outputs {
            sched.at(t, e);
        }
        self.cluster.take_hooks();
    }

    fn finished(&self) -> bool {
        self.cluster.is_complete()
    }
}

/// Runs a fault-free Vcl spec under [`TimedCluster`]: `(events, end, time
/// inside mpichv)`.
fn own_driver(spec: &ExperimentSpec) -> (u64, SimTime, Duration) {
    let mut cluster = Cluster::new(spec.cluster.clone(), programs_for(spec), spec.seed);
    let initial = cluster.take_outputs();
    let mut engine = Engine::with_tie_break(
        TimedCluster {
            cluster,
            in_mpichv: Duration::ZERO,
        },
        spec.tie_break,
    );
    for (t, e) in initial {
        engine.schedule(t, e);
    }
    engine.run(spec.timeout);
    (
        engine.events_handled(),
        engine.now(),
        engine.model().in_mpichv,
    )
}

/// Plain and profiled repetitions of each decomposed run, interleaved; the
/// fastest of each is kept, because host noise only ever adds time.
const REPS: usize = 3;

/// Wall time of the workload's runs, split.
#[derive(Default)]
struct SimBudget {
    runs: u64,
    wall: f64,
    setup: f64,
    classify: f64,
    handlers: BTreeMap<&'static str, (u64, f64)>,
    events: u64,
    hwm: u64,
    allocs: u64,
    alloc_bytes: u64,
    own_driver_ns: f64,
    own_driver_events: u64,
    recoveries: u64,
    waves: u64,
    net: [u64; 4],
    per_backend: BTreeMap<&'static str, (u64, f64)>,
}

fn same_run(a: &RunRecord, b: &RunRecord) -> bool {
    a.fingerprint == b.fingerprint && a.events == b.events && a.end == b.end
}

/// Runs one sim operation piece by piece and adds it to the budget.
fn decompose_run(
    spans: &mut Spans,
    label: &str,
    spec: &ExperimentSpec,
    budget: &mut SimBudget,
    tally: &mut Tally,
) {
    let (programs, t_programs) = spans.time("workloads.programs_for", |_| programs_for(spec));
    let mut setup = ns(t_programs);
    if let Some(inj) = &spec.injection {
        setup += ns(spans
            .time("analyze.lint_injection", |_| lint_injection(inj))
            .1);
        setup += ns(spans
            .time("core.compile", |_| failmpi_core::compile(&inj.scenario_src))
            .1);
    }
    let vcl = spec.backend == BackendKind::Vcl;
    if vcl {
        let (cluster, t) = spans.time("mpichv.cluster_new", |_| {
            Cluster::new(spec.cluster.clone(), programs.clone(), spec.seed)
        });
        drop(cluster);
        setup += ns(t);
    }

    let (allocs0, bytes0) = alloc_counters();
    let (record, first_plain) = spans.time("experiments.run_one", |_| run_one(spec));
    let (allocs1, bytes1) = alloc_counters();
    let mut reproduced = true;
    let mut wall = ns(first_plain);
    let mut best_profile = None;
    for rep in 0..REPS {
        if rep > 0 {
            let (again, t) = spans.time("experiments.run_one", |_| run_one(spec));
            reproduced &= same_run(&record, &again);
            wall = wall.min(ns(t));
        }
        if vcl {
            let ((profiled, profile), t) =
                spans.time("experiments.run_one_profiled", |_| run_one_profiled(spec));
            reproduced &= same_run(&record, &profiled);
            if best_profile.as_ref().is_none_or(|(best, _)| t < *best) {
                best_profile = Some((t, profile));
            }
        }
    }
    if let Some((_, profile)) = &best_profile {
        for (kind, bin) in profile.bins() {
            let e = budget.handlers.entry(kind).or_default();
            e.0 += bin.count;
            e.1 += bin.nanos as f64;
        }
    }

    let ((traced_record, entries), _) = spans.time("experiments.run_one_with_trace", |_| {
        run_one_with_trace(spec)
    });
    reproduced &= same_run(&record, &traced_record);
    let complete = matches!(record.outcome, Outcome::Completed { .. });
    let engine_outcome = if complete {
        RunOutcome::Finished
    } else if record.end >= spec.timeout {
        RunOutcome::DeadlineReached
    } else {
        RunOutcome::Quiescent
    };
    let (_, t_classify) = spans.time("experiments.classify_entries", |_| {
        classify_entries(
            &entries,
            complete,
            engine_outcome,
            record.end,
            spec.timeout,
            spec.freeze_window,
        )
    });

    if vcl && spec.injection.is_none() {
        let ((events, end, in_mpichv), _) = spans.time("bench.own_driver", |_| own_driver(spec));
        if events == record.events && end == record.end {
            budget.own_driver_ns += ns(in_mpichv);
            budget.own_driver_events += events;
        } else {
            println!(
                "INVALID own-driver rung [{label}]: {events} events ending {end:?}, run_one {} ending {:?}",
                record.events, record.end
            );
        }
    }
    tally.attempted += 1;
    if !reproduced {
        tally.fail(format!(
            "[{label}]: an instrumented or repeated run differs from the first"
        ));
    }

    budget.runs += 1;
    budget.wall += wall;
    budget.setup += setup;
    budget.classify += ns(t_classify);
    budget.events += record.events;
    budget.hwm = budget
        .hwm
        .max(record.metrics.counter("sim.queue_depth_hwm"));
    budget.allocs += allocs1 - allocs0;
    budget.alloc_bytes += bytes1 - bytes0;
    budget.recoveries += record.recoveries as u64;
    budget.waves += record.waves_committed as u64;
    for (slot, counter) in budget.net.iter_mut().zip([
        "net.msgs_sent",
        "net.connects_ok",
        "net.sends_dropped",
        "net.bytes_sent",
    ]) {
        *slot += record.metrics.counter(counter);
    }
    if spec.injection.is_none() {
        let e = budget.per_backend.entry(spec.backend.name()).or_default();
        e.0 += record.events;
        e.1 += wall - ns(t_programs);
    }
}

fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Prints the budget table and fills the sim-side metrics from it.
///
/// The table holds measured parts only and sums to the wall: set-up,
/// handler groups and classify are timed, engine self time is what is left.
/// Below it, engine self time is set against what the probes' unit costs
/// predict for this many events (one fingerprint fold and one shallow-queue
/// pop and push each); the difference is the stated residual. It covers
/// deeper queues, the loop and the scheduler's pending vector, and goes
/// negative where the synthetic probes cost more than the engine's own mix
/// of events does.
fn report_budget(spans: &mut Spans, b: &SimBudget, out: &mut LayerValues, tally: &mut Tally) {
    let per_event = |x: f64| share(x, b.events as f64);
    let group = |kinds: &[&str]| {
        kinds
            .iter()
            .filter_map(|k| b.handlers.get(k))
            .fold((0u64, 0.0), |acc, bin| (acc.0 + bin.0, acc.1 + bin.1))
    };
    let known: Vec<&str> = HANDLER_GROUPS
        .iter()
        .flat_map(|(_, kinds)| kinds.iter().copied())
        .chain(FAIL_KINDS)
        .collect();
    let other = b
        .handlers
        .iter()
        .filter(|(k, _)| !known.contains(k))
        .fold(0.0, |acc, (_, bin)| acc + bin.1);
    let fail = group(&FAIL_KINDS);
    let handlers_total = b.handlers.values().fold(0.0, |acc, bin| acc + bin.1);
    let engine_self = b.wall - b.setup - b.classify - handlers_total;

    println!(
        "budget of {} runs, {} events (ms, share of run_one wall)",
        b.runs, b.events
    );
    let row = |name: &str, nanos: f64| {
        println!(
            "  {name:<34} {:>10.2} {:>6.1} %",
            nanos / 1e6,
            100.0 * share(nanos, b.wall)
        );
    };
    row("set-up", b.setup);
    for (name, kinds) in HANDLER_GROUPS {
        let (count, nanos) = group(kinds);
        out.set(
            &format!("mpichv.handler_ns.{name}"),
            share(nanos, count as f64),
        );
        out.set(&format!("mpichv.handler_count.{name}"), count as f64);
        out.set(
            &format!("mpichv.handler_share.{name}"),
            share(nanos, b.wall),
        );
        if !b.handlers.is_empty() {
            row(&format!("handlers {name}"), nanos);
        }
    }
    if b.handlers.is_empty() {
        println!("  (no handler profile on these backends: handler time is inside engine self)");
    } else {
        row("handlers fail runtime", fail.1);
        row("handlers other", other);
    }
    row("classify", b.classify);
    row("engine self", engine_self);
    row("run_one wall", b.wall);

    let fingerprint = b.events as f64 * out.get("sim.fingerprint_ns_per_record");
    let shallow_queue = b.events as f64 * out.get("sim.queue_hold_ns.d64");
    let unexplained = engine_self - fingerprint - shallow_queue;
    println!("engine self against the probes' unit costs");
    row("fingerprint fold per event", fingerprint);
    row("queue pop and push at depth 64", shallow_queue);
    row("unexplained", unexplained);
    let deep = queue_hold_ns(spans, b.hwm as usize);
    println!(
        "  (at the high-water depth {} a pop and push costs {deep:.0} ns: {:.2} ms if every event paid it)",
        b.hwm,
        b.events as f64 * deep / 1e6
    );
    // The measured parts cannot exceed the wall they are parts of.
    if share(engine_self, b.wall) < -0.05 {
        tally.fail(format!(
            "budget double-counts: set-up, handlers and classify exceed the wall by {:.1} %",
            -100.0 * share(engine_self, b.wall)
        ));
    }

    out.set("sim.events", b.events as f64);
    out.set("sim.queue_depth_hwm", b.hwm as f64);
    out.set("sim.engine_self_ns_per_event", per_event(engine_self));
    out.set(
        "sim.engine_self_unexplained_share",
        share(unexplained, b.wall),
    );
    out.set("core.fail_handler_ns", share(fail.1, fail.0 as f64));
    out.set(
        "experiments.run_setup_us",
        share(b.setup, b.runs as f64) / 1e3,
    );
    out.set(
        "experiments.classify_us",
        share(b.classify, b.runs as f64) / 1e3,
    );
    out.set(
        "mpichv.dispatch_ns_per_event",
        share(b.own_driver_ns, b.own_driver_events as f64),
    );
    out.set("mpichv.recoveries", b.recoveries as f64);
    out.set("mpichv.waves_committed", b.waves as f64);
    for (name, value) in [
        "net.messages",
        "net.connects",
        "net.drops",
        "net.bytes_modelled",
    ]
    .into_iter()
    .zip(b.net)
    {
        out.set(name, value as f64);
    }
    out.set("obs.allocs_per_event", per_event(b.allocs as f64));
    out.set("obs.alloc_bytes_per_event", per_event(b.alloc_bytes as f64));
    for backend in ["ulfm", "replica"] {
        if let Some((events, nanos)) = b.per_backend.get(backend) {
            out.set(&format!("{backend}.events"), *events as f64);
            out.set(
                &format!("{backend}.ns_per_event"),
                share(*nanos, *events as f64),
            );
        }
    }
}

/// What each telemetry sink costs on top of the plain run.
fn telemetry_costs(spans: &mut Spans, ops: &[Op], out: &mut LayerValues) {
    let (mut plain, mut causal, mut prof, mut full, mut json) = (0.0, 0.0, 0.0, 0.0, 0.0);
    let (mut events, mut nodes, mut profile_bytes, mut runs) = (0u64, 0usize, 0usize, 0u32);
    for op in ops {
        let Op::Telemetry { spec, .. } = op else {
            continue;
        };
        runs += 1;
        let (record, t) = spans.time("experiments.run_one", |_| run_one(spec));
        plain += ns(t);
        events += record.events;
        let (traced, t) = spans.time("experiments.run_one_traced", |_| run_one_traced(spec));
        causal += ns(t);
        nodes += traced.causal.len();
        let (profile, t) = spans.time("obs.prof_run", |_| {
            failmpi_obs::prof::start_run(spec.backend.name());
            run_one(spec);
            failmpi_obs::prof::finish_run()
        });
        prof += ns(t);
        profile_bytes += profile.map_or(0, |p| p.to_pretty_json().len());
        json += ns(spans
            .time("obs.metrics_to_json", |_| record.metrics.to_json())
            .1);
        full += ns(spans.time("bench.telemetry_op", |sp| op.run(sp)).1);
    }
    if runs == 0 {
        return;
    }
    out.set("obs.telemetry_wall_ratio", share(full, plain));
    out.set(
        "obs.causal_ns_per_event",
        share(causal - plain, events as f64),
    );
    out.set("obs.prof_ns_per_event", share(prof - plain, events as f64));
    out.set("obs.metrics_json_us", json / f64::from(runs) / 1e3);
    out.set("obs.causal_nodes", nodes as f64);
    out.set("obs.profile_json_bytes", profile_bytes as f64);
}

/// Per-component model-check cost, the 25-rank grid and its thread scaling.
fn model_check_costs(spans: &mut Spans, ops: &[Op], out: &mut LayerValues) {
    for op in ops {
        let Op::ModelCheck { label, src, cfg } = op else {
            continue;
        };
        let (result, t) = spans.time("analyze.model_check_source", |_| {
            model_check_source(src, cfg)
        });
        let s = result.summary;
        if MC_COMPONENTS.contains(label) {
            out.set(&format!("analyze.mc_states.{label}"), s.explored as f64);
            out.set(
                &format!("analyze.mc_us_per_state.{label}"),
                share(ns(t) / 1e3, s.explored as f64),
            );
        }
        if *label == "vcl25" {
            out.set("analyze.mc_interned", s.interned as f64);
            out.set("analyze.mc_orbit_hits", s.orbit_hits as f64);
            out.set("analyze.mc_por_pruned", s.por_pruned as f64);
            let mut two = cfg.clone();
            two.threads = 2;
            let (_, t2) = spans.time("analyze.model_check_source", |_| {
                model_check_source(src, &two)
            });
            out.set("analyze.mc_thread_scaling.t2", share(ns(t), ns(t2)));
        }
    }
}

/// The campaigns' counts and cost per candidate.
fn fuzz_costs(spans: &mut Spans, ops: &[Op], out: &mut LayerValues) {
    let (mut candidates, mut accepted, mut errors, mut warnings, mut nanos) = (0, 0, 0, 0, 0.0);
    for op in ops {
        let Op::Fuzz { opts, .. } = op else {
            continue;
        };
        let (outcome, t) = spans.time("fuzz.run_fuzz", |_| failmpi_fuzz::run_fuzz(opts));
        candidates += outcome.summary.candidates;
        accepted += outcome.summary.accepted;
        errors += outcome.summary.errors;
        warnings += outcome.summary.warnings;
        nanos += ns(t);
    }
    out.set("fuzz.candidates", candidates as f64);
    out.set("fuzz.accepted", accepted as f64);
    out.set("fuzz.errors", errors as f64);
    out.set("fuzz.warnings", warnings as f64);
    out.set(
        "fuzz.ms_per_candidate",
        share(nanos / 1e6, candidates as f64),
    );
}

/// Sample id of the spans the decomposition records, apart from the passes'.
const DECOMPOSITION: u32 = u32::MAX;

/// Splits the workload's operations over the layers they call.
pub fn decompose(spans: &mut Spans, ops: &[Op], out: &mut LayerValues, tally: &mut Tally) {
    let mut budget = SimBudget::default();
    for (op, i) in ops.iter().zip(0u32..) {
        spans.set_ids(DECOMPOSITION, i);
        if let Op::Sim { label, spec } | Op::Telemetry { label, spec } = op {
            decompose_run(spans, label, spec, &mut budget, tally);
        }
    }
    if budget.runs > 0 {
        report_budget(spans, &budget, out, tally);
    }
    telemetry_costs(spans, ops, out);
    model_check_costs(spans, ops, out);
    fuzz_costs(spans, ops, out);
}
