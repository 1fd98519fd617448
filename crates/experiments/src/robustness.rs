//! Determinism and schedule robustness, checked by re-running.
//!
//! * [`check_determinism`] / [`assert_deterministic`] — the **double-run
//!   harness**: run a scenario twice with identical inputs and compare
//!   streaming fingerprints (see [`failmpi_sim::Engine::fingerprint`]). On
//!   a mismatch both runs are repeated with the causal log on, and
//!   [`failmpi_trace::diff`] localizes the *first divergent event* —
//!   where a `HashMap`-iteration or wall-clock leak entered the schedule —
//!   in the report `failmpi-trace diff` prints for two trace files.
//! * [`perturb`] — **schedule-robustness sweeps**: re-run an experiment
//!   under perturbed same-instant event orderings (see
//!   [`failmpi_sim::TieBreak::Seeded`]) and check that its classification
//!   is a property of the *scenario*, not of one lucky interleaving.
//!
//! The flagship use is the paper's Fig. 10 dispatcher freeze: under the
//! historical dispatcher the freeze must reproduce on **every** legal
//! schedule, and under the fixed dispatcher on **none** — otherwise the
//! bug diagnosis would be an artifact of the simulator's FIFO tie-break.

use std::fmt;

use failmpi_analyze::Report;
use failmpi_sim::TieBreak;
use failmpi_mpichv::{DispatcherMode, VProtocol, VclConfig};
use failmpi_testkit::{perturbation_seeds, sweep, PerturbationOutcome, PerturbationReport};
use failmpi_trace::{diff, TraceFile};
use failmpi_workloads::BtClass;

use crate::classify::Outcome;
use crate::crosscheck::{runnable_builtins, smoke_spec_for};
use crate::figures::{self, FIG10_SRC};
use crate::harness::{run, ExperimentSpec, Observe};
use crate::invariants::validate_trace;
use crate::tracesink::trace_file_of;

/// What one run of the scenario under test reports back to the double-run
/// harness.
#[derive(Clone, Debug)]
pub struct DetRun {
    /// The streaming run fingerprint.
    pub fingerprint: u64,
    /// Events handled (a cheap secondary signal: runs that diverge usually
    /// also diverge in length).
    pub events: u64,
    /// The run's causal trace. `Some` iff the harness asked for capture,
    /// which it does only after a fingerprint mismatch, to keep the common
    /// path cheap.
    pub trace: Option<TraceFile>,
}

/// A determinism violation: two same-input runs produced different
/// schedules.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// Scenario label (for the failure message).
    pub label: String,
    /// Fingerprint of the first run.
    pub first_fingerprint: u64,
    /// Fingerprint of the second run.
    pub second_fingerprint: u64,
    /// Events handled by each run.
    pub events: (u64, u64),
    /// The first divergent event's id, when the causal captures localized
    /// one. `None` means the capture runs themselves agreed — the leak is
    /// *flaky* (e.g. address-keyed hashing that only sometimes reorders),
    /// which the report message calls out.
    pub index: Option<usize>,
    /// [`diff::render`]'s report on the two captured traces.
    pub report: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "scenario `{}` is non-deterministic: fingerprints {:#018x} vs {:#018x} \
             ({} vs {} events)",
            self.label, self.first_fingerprint, self.second_fingerprint,
            self.events.0, self.events.1
        )?;
        match self.index {
            Some(_) => f.write_str(&self.report),
            None => writeln!(
                f,
                "causal capture could not localize the divergence (the leak is \
                 flaky across runs — suspect address-dependent ordering)"
            ),
        }
    }
}

/// Runs `run` twice without capture and compares fingerprints; on mismatch
/// re-runs twice *with* capture and localizes the first divergent event
/// with [`diff::first_divergence`]. `run` receives `capture: bool` and
/// must honour it by returning the run's causal trace.
///
/// The outer `Err` is the first error `run` returned; the inner result is
/// `Ok(fingerprint)` when deterministic.
pub fn check_determinism<E>(
    label: &str,
    mut run: impl FnMut(bool) -> Result<DetRun, E>,
) -> Result<Result<u64, Box<Divergence>>, E> {
    let a = run(false)?;
    let b = run(false)?;
    if a.fingerprint == b.fingerprint && a.events == b.events {
        return Ok(Ok(a.fingerprint));
    }
    // Mismatch: pay for capture and localize.
    let (ta, tb) = (run(true)?.trace, run(true)?.trace);
    let (index, report) = match (&ta, &tb) {
        (Some(ta), Some(tb)) => (
            diff::first_divergence(ta, tb).map(|d| d.index),
            diff::render(ta, tb),
        ),
        _ => (None, String::new()),
    };
    Ok(Err(Box::new(Divergence {
        label: label.to_string(),
        first_fingerprint: a.fingerprint,
        second_fingerprint: b.fingerprint,
        events: (a.events, b.events),
        index,
        report,
    })))
}

/// [`check_determinism`] that panics with the full divergence report, or
/// with the error `run` returned — the form regression tests use.
pub fn assert_deterministic<E: fmt::Debug>(
    label: &str,
    run: impl FnMut(bool) -> Result<DetRun, E>,
) -> u64 {
    match check_determinism(label, run) {
        Ok(Ok(fp)) => fp,
        Ok(Err(d)) => panic!("{d}"),
        Err(e) => panic!("{label}: {e:?}"),
    }
}

/// The histogram label of an [`Outcome`] (completion times vary across
/// interleavings, so the class deliberately drops the time).
pub fn outcome_class(outcome: &Outcome) -> &'static str {
    match outcome {
        Outcome::Completed { .. } => "completed",
        Outcome::NonTerminating => "non-terminating",
        Outcome::Buggy => "buggy",
    }
}

/// Runs `spec` once under the tie-break seed `tie_seed`, validating the
/// trace invariants on the way out. Only Vcl traces are validated: the
/// light backends' lifecycle traces carry no wave/incarnation structure
/// for [`validate_trace`] to check. `Err` is [`run`]'s refusal of the spec.
pub fn perturbed_outcome(
    spec: &ExperimentSpec,
    tie_seed: u64,
) -> Result<PerturbationOutcome, Report> {
    let perturbed = spec.clone().with_tie_break(TieBreak::Seeded(tie_seed));
    let out = run(&perturbed, Observe::default())?;
    Ok(PerturbationOutcome {
        seed: tie_seed,
        classification: outcome_class(&out.record.outcome).to_string(),
        fingerprint: out.record.fingerprint,
        invariant_violation: (perturbed.backend == failmpi_backend::BackendKind::Vcl)
            .then(|| validate_trace(&out, perturbed.cluster.n_ranks).err())
            .flatten(),
    })
}

/// Sweeps `n_seeds` schedule perturbations of `spec`.
pub fn perturb(
    label: &str,
    spec: &ExperimentSpec,
    n_seeds: usize,
) -> Result<PerturbationReport, Report> {
    let seeds = perturbation_seeds(n_seeds);
    sweep(label, &seeds, |s| perturbed_outcome(spec, s))
}

/// The smoke-scale Fig. 10 stress (the `localMPI_setCommand`-synchronized
/// double fault) under the given dispatcher variant. `Historical`
/// reproduces the paper's freeze; `Fixed` is the repaired reference.
pub fn fig10_stress_spec(mode: DispatcherMode, seed: u64) -> ExperimentSpec {
    smoke_spec_for(FIG10_SRC, "ADVG1", &[("T", 2), ("N", 5)], seed, mode)
}

/// A miniature fault-free run (the determinism-soak baseline: no injector,
/// every schedule must complete).
pub fn fault_free_smoke_spec(seed: u64) -> ExperimentSpec {
    let mut cluster = figures::cluster_config(4, 6, 2, DispatcherMode::Historical);
    figures::miniaturize(&mut cluster);
    figures::spec(cluster, BtClass::S, None, 90, seed)
}

/// One run of `spec` packaged for the double-run determinism harness
/// ([`check_determinism`]), on whichever backend the spec names; `capture`
/// turns on the causal log and returns the run's trace. `Err` is [`run`]'s
/// refusal of the spec.
pub fn det_run(spec: &ExperimentSpec, capture: bool) -> Result<DetRun, Report> {
    let observe = Observe {
        causal: capture,
        ..Observe::default()
    };
    let out = run(spec, observe)?;
    Ok(DetRun {
        fingerprint: out.record.fingerprint,
        events: out.record.events,
        trace: capture.then(|| trace_file_of(&format!("seed-{}", spec.seed), spec.seed, &out)),
    })
}

/// One representative smoke-scale spec per paper scenario, labelled. This
/// is the coverage set of the determinism regression tests: every figure's
/// scenario source, the dispatcher ablation and both LBH+04 protocols.
pub fn scenario_suite(seed: u64) -> Vec<(&'static str, ExperimentSpec)> {
    let h = DispatcherMode::Historical;
    // A runnable builtin at the crosscheck's smoke deployment.
    let builtin = |name: &str| {
        let (_, src, machine, params) = runnable_builtins()
            .iter()
            .find(|b| b.0 == name)
            .unwrap_or_else(|| panic!("no builtin `{name}`"));
        smoke_spec_for(src, machine, params, seed, h)
    };
    let fig5_on = |mut cluster: VclConfig, n_hosts: usize| {
        figures::miniaturize(&mut cluster);
        let inj = figures::fig5_injection(4, n_hosts);
        figures::spec(cluster, BtClass::S, Some(inj), 90, seed)
    };
    let mut suite = vec![
        ("fault_free", fault_free_smoke_spec(seed)),
        ("fig5_frequency", builtin("fig5_frequency")),
        // Fig. 6 sweeps the scale; its scenario source is Fig. 5's.
        ("fig6_scale", fig5_on(figures::cluster_config(9, 11, 2, h), 11)),
        ("fig7_simultaneous", builtin("fig7_simultaneous")),
        ("fig9_synchronized", builtin("fig8_synchronized")),
        ("fig10_state_sync", fig10_stress_spec(h, seed)),
        (
            "ablation_fixed_dispatcher",
            fig10_stress_spec(DispatcherMode::Fixed, seed),
        ),
        ("delay_sweep", builtin("delay_injection")),
    ];
    for (name, protocol) in [("lbh04_vcl", VProtocol::Vcl), ("lbh04_v2", VProtocol::V2)] {
        let cluster = VclConfig {
            protocol,
            ..figures::cluster_config(4, 6, 1, h)
        };
        suite.push((name, fig5_on(cluster, 6)));
    }
    suite
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_cover_all_outcomes() {
        use failmpi_sim::SimTime;
        assert_eq!(
            outcome_class(&Outcome::Completed {
                time: SimTime::from_secs(1)
            }),
            "completed"
        );
        assert_eq!(outcome_class(&Outcome::NonTerminating), "non-terminating");
        assert_eq!(outcome_class(&Outcome::Buggy), "buggy");
    }

    use failmpi_sim::{Engine, Fingerprint, Model, Scheduler, SimDuration, SimTime};
    use failmpi_trace::Node;

    /// `engine` run from event `first` at time zero, packaged for the
    /// harness: its causal trace when `capture` asks for it.
    fn det_run_of<M: Model<Event = u32>>(
        mut engine: Engine<M>,
        first: u32,
        capture: bool,
    ) -> DetRun {
        if capture {
            engine.enable_causal_trace();
        }
        engine.schedule(SimTime::ZERO, first);
        engine.run(SimTime::MAX);
        DetRun {
            fingerprint: engine.fingerprint(),
            events: engine.events_handled(),
            trace: capture.then(|| TraceFile {
                name: "leak".to_string(),
                nodes: engine.causal_log().nodes().map(Node::from).collect(),
                ..TraceFile::default()
            }),
        }
    }

    struct Chain {
        left: u32,
    }
    impl Model for Chain {
        type Event = u32;
        fn handle(&mut self, _: SimTime, ev: u32, sched: &mut Scheduler<u32>) {
            if self.left > 0 {
                self.left -= 1;
                sched.after(SimDuration::from_millis(ev as u64 % 7 + 1), ev + 1);
            }
        }
    }

    #[test]
    fn deterministic_model_passes() {
        let fp = assert_deterministic("chain", |capture| {
            Ok::<_, String>(det_run_of(Engine::new(Chain { left: 50 }), 1, capture))
        });
        assert_ne!(fp, 0);
    }

    /// A chain of ten events whose 5th consults `extra`, a value from
    /// outside the simulation that differs on every run — exactly the
    /// class of leak the harness exists for. `timing` lets it shift the
    /// 6th event's time; otherwise it only enters the 5th event's payload.
    struct Leaky {
        extra: u64,
        timing: bool,
    }
    impl Model for Leaky {
        type Event = u32;
        fn handle(&mut self, _: SimTime, ev: u32, sched: &mut Scheduler<u32>) {
            if ev < 10 {
                let shift = if self.timing && ev == 5 {
                    self.extra
                } else {
                    0
                };
                sched.after(SimDuration::from_millis(1 + shift), ev + 1);
            }
        }
        fn fingerprint_event(&self, ev: &u32, fp: &mut Fingerprint) {
            fp.write_u32(*ev);
            if !self.timing && *ev == 5 {
                fp.write_u64(self.extra);
            }
        }
    }

    /// Runs [`Leaky`] through the harness, with a fresh ambient value per
    /// run.
    fn leak(timing: bool) -> Box<Divergence> {
        use std::sync::atomic::{AtomicU64, Ordering};
        let poison = AtomicU64::new(0);
        let run = |capture: bool| {
            let extra = poison.fetch_add(1, Ordering::Relaxed);
            Ok::<_, String>(det_run_of(Engine::new(Leaky { extra, timing }), 0, capture))
        };
        check_determinism("leaky", run).unwrap().unwrap_err()
    }

    #[test]
    fn a_timing_leak_is_caught_and_localized() {
        let err = leak(true);
        // Events 0..=5 (positions 0..=5) agree; the 6th scheduled event
        // (position 6) carries the shifted timestamp.
        assert_eq!(err.index, Some(6));
        let msg = err.to_string();
        assert!(msg.contains("non-deterministic"), "{msg}");
        assert!(msg.contains("first causal divergence at node #6"), "{msg}");
    }

    #[test]
    fn a_payload_leak_is_localized_by_its_digest() {
        // Time, seq, kind, label, track and cause agree on every event;
        // only the 5th event's folded payload differs.
        let err = leak(false);
        assert_eq!(err.index, Some(5));
        let msg = err.to_string();
        assert!(msg.contains("first causal divergence at node #5"), "{msg}");
        assert!(!msg.contains("could not localize"), "{msg}");
    }

    #[test]
    fn perturbed_run_reports_fingerprint_and_class() {
        let spec = fault_free_smoke_spec(7);
        let a = perturbed_outcome(&spec, 1).expect("runs");
        let b = perturbed_outcome(&spec, 1).expect("runs");
        assert_eq!(a.fingerprint, b.fingerprint, "same tie seed, same schedule");
        assert_eq!(a.classification, "completed");
        assert_eq!(a.invariant_violation, None);
    }
}
