//! Backend conformance: every protocol backend behind [`run_one`] must
//! honor the harness' cross-cutting contracts — determinism, metrics
//! integrity, the lint gate, and classified outcomes — not just produce
//! *a* run. The `for_each_backend!` macro stamps each contract out as one
//! `#[test]` per backend, so a regression names the offending protocol
//! directly (`determinism_double_run::ulfm`, …).

mod recount;

use std::collections::{BTreeMap, BTreeSet};

use failmpi_backend::light::LightRuntime;
use failmpi_backend::{BackendConfig, BackendKind, Hook, ProtocolBackend, Signal};
use failmpi_experiments::harness::programs_for;
use failmpi_experiments::robustness::outcome_class;
use failmpi_experiments::{
    run, run_one, run_one_with_trace, smoke_spec_for, ExperimentSpec, LintMode, Observe,
};
use failmpi_mpichv::{Cluster, DispatcherMode};
use failmpi_net::ProcId;
use failmpi_replica::Failover;
use failmpi_sim::{Engine, Fingerprint, FingerprintEvent, Model, Scheduler, SimDuration, SimTime};
use failmpi_ulfm::Shrink;

/// Expands each `fn body(backend: BackendKind)` into a module with one
/// `#[test]` per protocol backend.
macro_rules! for_each_backend {
    ($(fn $name:ident($backend:ident: BackendKind) $body:block)*) => {
        $(mod $name {
            use super::*;

            fn body($backend: BackendKind) $body

            #[test]
            fn vcl() {
                body(BackendKind::Vcl);
            }

            #[test]
            fn ulfm() {
                body(BackendKind::Ulfm);
            }

            #[test]
            fn replica() {
                body(BackendKind::Replica);
            }
        })*
    };
}

/// The conformance campaign: the Fig. 10 state-synchronized scenario at
/// the crosscheck's smoke scale. It exercises every contract at once —
/// faults land, recoveries start, and the backends *classify it
/// differently* (Vcl freezes, ULFM completes), which is exactly why the
/// contracts below must hold uniformly anyway.
fn campaign(backend: BackendKind, seed: u64) -> ExperimentSpec {
    let src = include_str!("../../core/scenarios/fig10_state_sync.fail");
    smoke_spec_for(src, "ADVG1", &[("T", 2), ("N", 5)], seed, DispatcherMode::Historical)
        .with_backend(backend)
}

/// A scenario with guaranteed `Error`-level lint findings: `ping` goes to
/// a class that never receives it (FA008) and `?ack` can never be
/// satisfied (FA009).
const BROKEN_SRC: &str = "daemon ADV1 {\n  node 1:\n    onload -> !ping(G1[0]), goto 2;\n  node 2:\n    ?ack -> goto 1;\n}\ndaemon ADVnodes {\n  node 1:\n    onload -> continue, goto 1;\n}\ninstance P1 = ADV1;\ngroup G1[4] = ADVnodes;\n";

for_each_backend! {
    fn determinism_double_run(backend: BackendKind) {
        // Same spec, two fresh processes' worth of state: the schedule
        // fingerprint, event count, classified outcome, and the entire
        // metrics snapshot must reproduce byte-for-byte.
        for seed in [1u64, 2] {
            let spec = campaign(backend, seed);
            let a = run_one(&spec);
            let b = run_one(&spec);
            assert_eq!(a.fingerprint, b.fingerprint, "{backend}/seed{seed}");
            assert_ne!(a.fingerprint, 0, "{backend}/seed{seed}: degenerate fingerprint");
            assert_eq!(a.events, b.events, "{backend}/seed{seed}");
            assert_eq!(
                outcome_class(&a.outcome),
                outcome_class(&b.outcome),
                "{backend}/seed{seed}"
            );
            assert_eq!(
                a.metrics.to_json(),
                b.metrics.to_json(),
                "{backend}/seed{seed}: metrics snapshot not reproducible"
            );
        }
    }

    fn lint_gate_refuses_broken_scenarios(backend: BackendKind) {
        // The strict pre-run gate is protocol-independent: no backend may
        // run a scenario with Error-level findings.
        let mut spec = campaign(backend, 1);
        spec.injection = Some(
            failmpi_experiments::InjectionSpec::new(BROKEN_SRC, "ADV1", "ADVnodes")
                .with_lint(LintMode::Strict),
        );
        let report = run(&spec, Observe::default()).expect_err("strict gate must refuse");
        assert!(report.has_errors(), "{backend}: gate passed a broken scenario");
        let codes: Vec<_> = report.diagnostics.iter().map(|d| d.code).collect();
        assert!(codes.contains(&"FA008"), "{backend}: got {codes:?}");
    }

    fn metrics_agree_with_trace_recount(backend: BackendKind) {
        // Every backend narrates its lifecycle in the shared `VclEvent`
        // vocabulary (the classifier's input). The `lifecycle.*` counters
        // and the record's answers must equal the counts recomputed from
        // that trace — the property test's check, here on the campaign.
        for seed in [1u64, 2, 3] {
            let spec = campaign(backend, seed);
            let (record, entries) = run_one_with_trace(&spec);
            let tag = format!("{backend}/seed{seed}");
            let recount = recount::recount(&entries);
            for (&key, &expected) in &recount {
                assert_eq!(record.metrics.counters.get(key), Some(&expected), "{tag}: {key}");
            }
            assert_eq!(
                record.recoveries as u64,
                recount["lifecycle.recoveries_started"],
                "{tag}"
            );
            assert_eq!(
                record.waves_committed as u64,
                recount["lifecycle.waves_committed"],
                "{tag}"
            );
            assert_eq!(
                u64::from(record.max_progress),
                recount["lifecycle.max_progress"],
                "{tag}"
            );
            assert_eq!(
                record.metrics.counter("harness.faults_injected"),
                u64::from(record.faults_injected),
                "{tag}"
            );
            assert_eq!(
                record.metrics.counter("sim.events_handled"),
                record.events,
                "{tag}"
            );
        }
    }

    fn chassis_key_sets_are_one_across_backends(backend: BackendKind) {
        // Whatever the chassis holds is reported once, for every backend:
        // the `lifecycle.*` and `net.traffic.*` key sets never depend on
        // the protocol (or on what happened in the run).
        let expected: BTreeSet<&str> = recount::recount(&[])
            .into_keys()
            .chain(recount::HISTOGRAMS)
            .chain(recount::TRAFFIC)
            .collect();
        for seed in [1u64, 2] {
            let record = run_one(&campaign(backend, seed));
            let keys: BTreeSet<&str> = record
                .metrics
                .counters
                .keys()
                .chain(record.metrics.histograms.keys())
                .map(String::as_str)
                .filter(|k| k.starts_with("lifecycle.") || k.starts_with("net.traffic."))
                .collect();
            assert_eq!(keys, expected, "{backend}/seed{seed}");
        }
    }

    fn causal_log_and_profiles_describe_every_event_alike(backend: BackendKind) {
        // Every event is described once: the causal log stores label, kind
        // and lane and renders on read, and both profiles bin the event
        // under its kind. All three cover every handled event, agree on
        // each, and leave none undescribed.
        let observe = Observe {
            wall_profile: true,
            causal: true,
            run_profile: true,
        };
        let out = run(&campaign(backend, 1), observe).expect("the campaign runs");
        assert!(out.record.faults_injected > 0, "{backend}: the campaign must inject");
        let events = usize::try_from(out.record.events).expect("fits");
        assert_eq!(out.causal.len(), events, "{backend}");
        let fail_lane = out.track_names.len() - 1;
        assert_eq!(out.track_names[fail_lane], "fail-mpi", "{backend}");
        let mut per_kind: BTreeMap<&str, u64> = BTreeMap::new();
        for (i, node) in out.causal.nodes().enumerate() {
            assert_eq!(node.id.0, i as u64, "{backend}");
            assert!(!node.label.is_empty(), "{backend}: event {i} ({}) has no label", node.kind);
            let track = node.track as usize;
            assert!(track < out.track_names.len(), "{backend}: event {i} on lane {track}");
            if matches!(node.kind, "fail_timer" | "fail_msg") {
                assert_eq!(track, fail_lane, "{backend}: event {i} ({})", node.kind);
            }
            *per_kind.entry(node.kind).or_default() += 1;
        }
        assert!(per_kind.contains_key("fail_timer"), "{backend}: {per_kind:?}");
        let wall: BTreeMap<&str, u64> =
            out.wall_profile.bins().map(|(kind, bin)| (kind, bin.count)).collect();
        assert_eq!(wall, per_kind, "{backend}: wall profile bins");
        let profile = out.run_profile.expect("profile requested");
        let deep: BTreeMap<&str, u64> =
            profile.alloc.iter().map(|(kind, bin)| (kind.as_str(), bin.events)).collect();
        assert_eq!(deep, per_kind, "{backend}: deep profile kinds");
    }

    fn process_control_spares_the_dead_and_the_unspawned(backend: BackendKind) {
        // The FAIL daemon's verbs reach whatever `ProcId` a scenario
        // names: on a process that died or never existed, each is a no-op
        // that leaves the schedule as it was. The machine roster is the
        // configured one, each machine once.
        let spec = campaign(backend, 3);
        let (n_hosts, seed) = (spec.cluster.n_compute_hosts, spec.seed);
        let programs = programs_for(&spec);
        let ops: Vec<u32> = programs.iter().map(|p| p.progress_marks().max(1) as u32).collect();
        let cfg = BackendConfig::small(spec.cluster.n_ranks, n_hosts);
        match backend {
            BackendKind::Vcl => seam_contract(backend, n_hosts, || {
                Cluster::new(spec.cluster.clone(), programs.clone(), seed)
            }),
            BackendKind::Ulfm => seam_contract(backend, n_hosts, || {
                LightRuntime::<Shrink>::new(cfg.clone(), ops.clone(), seed)
            }),
            BackendKind::Replica => seam_contract(backend, n_hosts, || {
                LightRuntime::<Failover>::new(cfg.clone(), ops.clone(), seed)
            }),
        }
    }

    fn every_builtin_reaches_a_classified_outcome(backend: BackendKind) {
        // The acceptance floor: each backend runs every runnable builtin
        // to a classification — no panics, no unclassifiable outcomes.
        for (name, src, machine, params) in failmpi_experiments::runnable_builtins() {
            let spec =
                smoke_spec_for(src, machine, params, 1, DispatcherMode::Historical)
                    .with_backend(backend);
            let record = run_one(&spec);
            let class = outcome_class(&record.outcome);
            assert!(
                ["completed", "buggy", "non-terminating"].contains(&class),
                "{backend}/{name}: unclassified outcome {:?}",
                record.outcome
            );
        }
    }
}

/// One backend under the engine and nothing else: the first process to
/// load is halted on the spot, and five `Poke`s follow it 250 ms apart.
/// With `poke` on, each delivers every [`Signal`] to that corpse and to
/// processes never spawned; with it off, a `Poke` does nothing.
struct Bare<C: ProtocolBackend> {
    c: C,
    poke: bool,
    corpse: Option<ProcId>,
    pokes: u32,
}

enum BareEv<E> {
    Backend(E),
    Poke,
}

impl<C: ProtocolBackend> Model for Bare<C> {
    type Event = BareEv<C::Event>;

    fn handle(&mut self, now: SimTime, ev: Self::Event, sched: &mut Scheduler<Self::Event>) {
        match ev {
            BareEv::Backend(e) => self.c.dispatch(now, e),
            BareEv::Poke => {
                self.pokes += 1;
                let corpse = self.corpse.expect("poked after the halt");
                if self.poke {
                    for proc in [corpse, ProcId(4096), ProcId(u32::MAX)] {
                        for signal in [Signal::Halt, Signal::Stop, Signal::Continue] {
                            self.c.fail(now, proc, signal);
                        }
                    }
                }
            }
        }
        for hook in self.c.take_hooks() {
            if let (None, Hook::OnLoad { proc, .. }) = (self.corpse, hook) {
                self.corpse = Some(proc);
                self.c.fail(now, proc, Signal::Halt);
                for k in 1..=5 {
                    sched.at(now + SimDuration::from_millis(250 * k), BareEv::Poke);
                }
            }
        }
        for (at, e) in self.c.drain_outputs() {
            sched.at(at, BareEv::Backend(e));
        }
    }

    fn finished(&self) -> bool {
        self.c.is_complete()
    }

    fn fingerprint_event(&self, ev: &Self::Event, fp: &mut Fingerprint) {
        if let BareEv::Backend(e) = ev {
            e.fold(fp);
        }
    }
}

/// Runs a fresh backend from `make` under [`Bare`]; the schedule
/// fingerprint, the event count and the `Poke`s handled.
fn bare_run<C: ProtocolBackend>(make: &impl Fn() -> C, poke: bool) -> (u64, u64, u32) {
    let mut c = make();
    let boot: Vec<_> = c.drain_outputs().collect();
    let mut engine = Engine::new(Bare {
        c,
        poke,
        corpse: None,
        pokes: 0,
    });
    for (at, e) in boot {
        engine.schedule(at, BareEv::Backend(e));
    }
    engine.run(SimTime::from_secs(3600));
    (engine.fingerprint(), engine.events_handled(), engine.model().pokes)
}

/// The seam's process-control and roster contract for one backend.
fn seam_contract<C: ProtocolBackend>(backend: BackendKind, n_hosts: usize, make: impl Fn() -> C) {
    let quiet = bare_run(&make, false);
    let poked = bare_run(&make, true);
    assert_eq!(quiet.2, 5, "{backend}: the run ended before every poke");
    assert_eq!(quiet, poked, "{backend}: a signal to a dead process moved the schedule");

    let c = make();
    let hosts = c.compute_hosts();
    assert_eq!(hosts.len(), n_hosts, "{backend}");
    let distinct: BTreeSet<_> = hosts.iter().collect();
    assert_eq!(distinct.len(), n_hosts, "{backend}: a machine listed twice");
}
