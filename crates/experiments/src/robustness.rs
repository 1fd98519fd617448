//! Schedule-robustness sweeps: re-running an experiment under perturbed
//! same-instant event orderings (see [`failmpi_sim::TieBreak::Seeded`])
//! and checking that its classification is a property of the *scenario*,
//! not of one lucky interleaving.
//!
//! The flagship use is the paper's Fig. 10 dispatcher freeze: under the
//! historical dispatcher the freeze must reproduce on **every** legal
//! schedule, and under the fixed dispatcher on **none** — otherwise the
//! bug diagnosis would be an artifact of the simulator's FIFO tie-break.

use failmpi_analyze::Report;
use failmpi_sim::TieBreak;
use failmpi_mpichv::{DispatcherMode, VProtocol, VclConfig};
use failmpi_testkit::{
    perturbation_seeds, sweep, DetRun, PerturbationOutcome, PerturbationReport,
};
use failmpi_workloads::BtClass;

use crate::classify::Outcome;
use crate::crosscheck::{runnable_builtins, smoke_spec_for};
use crate::figures::{self, FIG10_SRC};
use crate::harness::{run, ExperimentSpec, Observe};
use crate::invariants::validate_trace;

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
/// ([`failmpi_testkit::check_determinism`]), on whichever backend the
/// spec names; `capture` turns on the per-event fingerprint journal.
/// `Err` is [`run`]'s refusal of the spec.
pub fn det_run(spec: &ExperimentSpec, capture: bool) -> Result<DetRun, Report> {
    let observe = Observe {
        journal: capture,
        ..Observe::default()
    };
    let out = run(spec, observe)?;
    Ok(DetRun {
        fingerprint: out.record.fingerprint,
        events: out.record.events,
        journal: out.journal,
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
