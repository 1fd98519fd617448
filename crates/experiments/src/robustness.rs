//! Schedule-robustness sweeps: re-running an experiment under perturbed
//! same-instant event orderings (see [`failmpi_sim::TieBreak::Seeded`])
//! and checking that its classification is a property of the *scenario*,
//! not of one lucky interleaving.
//!
//! The flagship use is the paper's Fig. 10 dispatcher freeze: under the
//! historical dispatcher the freeze must reproduce on **every** legal
//! schedule, and under the fixed dispatcher on **none** — otherwise the
//! bug diagnosis would be an artifact of the simulator's FIFO tie-break.

use failmpi_sim::TieBreak;
use failmpi_mpichv::{DispatcherMode, VProtocol};
use failmpi_testkit::{
    perturbation_seeds, sweep, DetRun, PerturbationOutcome, PerturbationReport,
};
use failmpi_workloads::BtClass;

use crate::classify::Outcome;
use crate::figures::{self, DELAY_SRC, FIG10_SRC, FIG5_SRC, FIG7_SRC, FIG8_SRC};
use crate::harness::{refuse, run, ExperimentSpec, InjectionSpec, Observe};
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
/// for [`validate_trace`] to check.
pub fn perturbed_outcome(spec: &ExperimentSpec, tie_seed: u64) -> PerturbationOutcome {
    let perturbed = spec.clone().with_tie_break(TieBreak::Seeded(tie_seed));
    let out = run(&perturbed, Observe::default()).unwrap_or_else(|r| refuse(r));
    PerturbationOutcome {
        seed: tie_seed,
        classification: outcome_class(&out.record.outcome).to_string(),
        fingerprint: out.record.fingerprint,
        invariant_violation: (perturbed.backend == failmpi_backend::BackendKind::Vcl)
            .then(|| validate_trace(&out, perturbed.cluster.n_ranks).err())
            .flatten(),
    }
}

/// Sweeps `n_seeds` schedule perturbations of `spec`.
pub fn perturb(label: &str, spec: &ExperimentSpec, n_seeds: usize) -> PerturbationReport {
    let seeds = perturbation_seeds(n_seeds);
    sweep(label, &seeds, |s| perturbed_outcome(spec, s))
}

/// The smoke-scale Fig. 10 stress (the `localMPI_setCommand`-synchronized
/// double fault) under the given dispatcher variant. `Historical`
/// reproduces the paper's freeze; `Fixed` is the repaired reference.
pub fn fig10_stress_spec(mode: DispatcherMode, seed: u64) -> ExperimentSpec {
    let n_ranks = 4u32;
    let hosts = 6usize;
    let mut cluster = figures::cluster_config(n_ranks, hosts, 2, mode);
    figures::miniaturize(&mut cluster);
    let mut spec = figures::spec(cluster, BtClass::S, None, 90, seed);
    spec.injection = Some(
        InjectionSpec::new(FIG10_SRC, "ADV1", "ADVG1")
            .with_param("T", 2)
            .with_param("N", hosts as i64 - 1),
    );
    spec
}

/// A miniature fault-free run (the determinism-soak baseline: no injector,
/// every schedule must complete).
pub fn fault_free_smoke_spec(seed: u64) -> ExperimentSpec {
    let mut cluster = figures::cluster_config(4, 6, 2, DispatcherMode::Historical);
    figures::miniaturize(&mut cluster);
    figures::spec(cluster, BtClass::S, None, 90, seed)
}

/// One run of `spec` packaged for the double-run determinism harness
/// ([`failmpi_testkit::assert_deterministic`]), on whichever backend the
/// spec names; `capture` turns on the per-event fingerprint journal.
pub fn det_run(spec: &ExperimentSpec, capture: bool) -> DetRun {
    let observe = Observe {
        journal: capture,
        ..Observe::default()
    };
    let out = run(spec, observe).unwrap_or_else(|r| refuse(r));
    DetRun {
        fingerprint: out.record.fingerprint,
        events: out.record.events,
        journal: out.journal,
    }
}

/// One representative smoke-scale spec per paper scenario, labelled. This
/// is the coverage set of the determinism regression tests: every figure's
/// scenario source, the dispatcher ablation and both LBH+04 protocols.
pub fn scenario_suite(seed: u64) -> Vec<(&'static str, ExperimentSpec)> {
    let smoke = |n_ranks: u32, hosts: usize, wave_secs: u64, mode: DispatcherMode| {
        let mut cluster = figures::cluster_config(n_ranks, hosts, wave_secs, mode);
        figures::miniaturize(&mut cluster);
        cluster
    };
    let inject = |src: &str, machine: &str, params: &[(&str, i64)]| {
        let mut inj = InjectionSpec::new(src, "ADV1", machine);
        for (k, v) in params {
            inj = inj.with_param(k, *v);
        }
        Some(inj)
    };
    let h = DispatcherMode::Historical;
    let mut suite = vec![
        (
            "fault_free",
            figures::spec(smoke(4, 6, 2, h), BtClass::S, None, 90, seed),
        ),
        (
            "fig5_frequency",
            figures::spec(
                smoke(4, 6, 2, h),
                BtClass::S,
                inject(FIG5_SRC, "ADVnodes", &[("X", 4), ("N", 5)]),
                90,
                seed,
            ),
        ),
        (
            // Fig. 6 sweeps the scale; its scenario source is Fig. 5's.
            "fig6_scale",
            figures::spec(
                smoke(9, 11, 2, h),
                BtClass::S,
                inject(FIG5_SRC, "ADVnodes", &[("X", 4), ("N", 10)]),
                90,
                seed,
            ),
        ),
        (
            "fig7_simultaneous",
            figures::spec(
                smoke(4, 6, 2, h),
                BtClass::S,
                inject(FIG7_SRC, "ADVnodes", &[("X", 2), ("T", 4), ("N", 5)]),
                90,
                seed,
            ),
        ),
        (
            "fig9_synchronized",
            figures::spec(
                smoke(4, 6, 2, h),
                BtClass::S,
                inject(FIG8_SRC, "ADVnodes", &[("T", 2), ("N", 5)]),
                90,
                seed,
            ),
        ),
        ("fig10_state_sync", fig10_stress_spec(h, seed)),
        (
            "ablation_fixed_dispatcher",
            fig10_stress_spec(DispatcherMode::Fixed, seed),
        ),
        (
            "delay_sweep",
            figures::spec(
                smoke(4, 6, 2, h),
                BtClass::S,
                inject(DELAY_SRC, "ADVnodes", &[("D", 1), ("N", 5)]),
                90,
                seed,
            ),
        ),
    ];
    for proto in [VProtocol::Vcl, VProtocol::V2] {
        let mut cluster = smoke(4, 6, 1, h);
        cluster.protocol = proto;
        let name = match proto {
            VProtocol::Vcl => "lbh04_vcl",
            VProtocol::V2 => "lbh04_v2",
            VProtocol::Vdummy => unreachable!(),
        };
        suite.push((
            name,
            figures::spec(
                cluster,
                BtClass::S,
                inject(FIG5_SRC, "ADVnodes", &[("X", 4), ("N", 5)]),
                90,
                seed,
            ),
        ));
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
        let a = perturbed_outcome(&spec, 1);
        let b = perturbed_outcome(&spec, 1);
        assert_eq!(a.fingerprint, b.fingerprint, "same tie seed, same schedule");
        assert_eq!(a.classification, "completed");
        assert_eq!(a.invariant_violation, None);
    }
}
