//! The schedule-perturbation fuzzer.
//!
//! A deterministic simulator proves one *particular* interleaving of
//! simultaneous events; real systems exhibit all of them. Sweeping
//! [`failmpi_sim::TieBreak::Seeded`] seeds executes the same scenario
//! under many legal same-instant orderings (causality is preserved by
//! construction — see [`failmpi_sim::TieBreak`]), so a protocol claim
//! ("the fixed dispatcher never freezes", "the buggy one does") is
//! checked across the interleaving space instead of at a single point.

use std::collections::BTreeMap;

/// What one perturbed run reports back to [`sweep`].
#[derive(Clone, Debug)]
pub struct PerturbationOutcome {
    /// The tie-break seed the run executed under.
    pub seed: u64,
    /// Coarse outcome class (e.g. `"completed"`, `"buggy"`); the sweep
    /// builds its histogram and stability verdict from these.
    pub classification: String,
    /// The run's schedule fingerprint (distinct fingerprints confirm the
    /// perturbation actually explored distinct interleavings).
    pub fingerprint: u64,
    /// First violated trace invariant, if any.
    pub invariant_violation: Option<String>,
}

/// Aggregate of one perturbation sweep.
#[derive(Clone, Debug)]
pub struct PerturbationReport {
    /// Scenario label.
    pub label: String,
    /// Every per-seed outcome, in sweep order.
    pub outcomes: Vec<PerturbationOutcome>,
    /// Outcome-class histogram.
    pub histogram: BTreeMap<String, usize>,
    /// Number of distinct schedule fingerprints observed.
    pub distinct_schedules: usize,
}

impl PerturbationReport {
    /// Outcomes that violated an invariant.
    pub fn violations(&self) -> impl Iterator<Item = &PerturbationOutcome> {
        self.outcomes.iter().filter(|o| o.invariant_violation.is_some())
    }

    /// `true` when every run classified identically and none violated an
    /// invariant — the *classification stability* property.
    pub fn is_stable(&self) -> bool {
        self.histogram.len() <= 1 && self.violations().next().is_none()
    }

    /// Number of runs classified as `class`.
    pub fn count(&self, class: &str) -> usize {
        self.histogram.get(class).copied().unwrap_or(0)
    }

    /// Panics with a readable report unless every run classified as
    /// `class` with zero invariant violations.
    pub fn assert_all(&self, class: &str) {
        if let Some(v) = self.violations().next() {
            panic!(
                "scenario `{}` seed {} violated an invariant: {}",
                self.label,
                v.seed,
                v.invariant_violation.as_deref().unwrap_or("?")
            );
        }
        if self.count(class) != self.outcomes.len() {
            panic!(
                "scenario `{}`: expected every perturbed run to classify `{class}`, \
                 got {:?}",
                self.label, self.histogram
            );
        }
    }
}

/// `n` well-spread perturbation seeds (a fixed, documented sequence so CI
/// failures reproduce: seed k is splitmix64(k)).
pub fn perturbation_seeds(n: usize) -> Vec<u64> {
    (0..n as u64)
        .map(|k| {
            let mut z = k.wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        })
        .collect()
}

/// Runs `run` once per perturbation seed and aggregates. The closure
/// receives the tie-break seed and must run the scenario under
/// [`failmpi_sim::TieBreak::Seeded`] with it; the first seed it cannot run
/// ends the sweep with its error.
pub fn sweep<E>(
    label: &str,
    seeds: &[u64],
    run: impl FnMut(u64) -> Result<PerturbationOutcome, E>,
) -> Result<PerturbationReport, E> {
    let outcomes: Vec<PerturbationOutcome> =
        seeds.iter().copied().map(run).collect::<Result<_, E>>()?;
    let mut histogram = BTreeMap::new();
    for o in &outcomes {
        *histogram.entry(o.classification.clone()).or_insert(0) += 1;
    }
    let mut fingerprints: Vec<u64> = outcomes.iter().map(|o| o.fingerprint).collect();
    fingerprints.sort_unstable();
    fingerprints.dedup();
    Ok(PerturbationReport {
        label: label.to_string(),
        outcomes,
        histogram,
        distinct_schedules: fingerprints.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(seed: u64, class: &str, fp: u64) -> Result<PerturbationOutcome, String> {
        Ok(PerturbationOutcome {
            seed,
            classification: class.to_string(),
            fingerprint: fp,
            invariant_violation: None,
        })
    }

    #[test]
    fn seeds_are_distinct_and_reproducible() {
        let a = perturbation_seeds(50);
        let b = perturbation_seeds(50);
        assert_eq!(a, b);
        let mut dedup = a.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 50);
    }

    #[test]
    fn stable_sweep_reports_stable() {
        let seeds = perturbation_seeds(5);
        let r = sweep("s", &seeds, |s| outcome(s, "completed", s)).expect("every seed runs");
        assert!(r.is_stable());
        assert_eq!(r.count("completed"), 5);
        assert_eq!(r.distinct_schedules, 5);
        r.assert_all("completed");
    }

    #[test]
    fn unstable_classification_detected() {
        let seeds = perturbation_seeds(4);
        let mut i = 0;
        let r = sweep("s", &seeds, |s| {
            i += 1;
            outcome(s, if i % 2 == 0 { "a" } else { "b" }, s)
        });
        let r = r.expect("every seed runs");
        assert!(!r.is_stable());
        assert_eq!(r.count("a"), 2);
        assert_eq!(r.count("b"), 2);
    }

    #[test]
    #[should_panic(expected = "violated an invariant")]
    fn violations_fail_assert_all() {
        let seeds = perturbation_seeds(2);
        let r = sweep("s", &seeds, |s| {
            let violation = Some("wave 3 committed after 4".into());
            outcome(s, "completed", s).map(|o| PerturbationOutcome { invariant_violation: violation, ..o })
        });
        r.expect("every seed runs").assert_all("completed");
    }

    #[test]
    fn a_seed_that_cannot_run_ends_the_sweep_with_its_error() {
        let seeds = perturbation_seeds(3);
        let r = sweep("s", &seeds, |s| {
            if s == seeds[1] {
                Err(format!("refused {s}"))
            } else {
                outcome(s, "completed", s)
            }
        });
        assert_eq!(r.err(), Some(format!("refused {}", seeds[1])));
    }
}
