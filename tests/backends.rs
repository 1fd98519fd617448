//! Cross-backend pins through the facade: one dynamic smoke pair and one
//! static model check per protocol backend, so tier-1 (`cargo test -q` at
//! the root) exercises the runtime skeleton, both recovery policies, the
//! generic harness driver and all three abstract models.
//!
//! The values were recorded before the ulfm/replica runtimes were
//! collapsed into `failmpi_backend::light` — they pin that the refactor
//! (and whatever follows it) is behaviour-preserving, byte for byte.

use failmpi::analyze::{model_check_source, ModelCheckConfig};
use failmpi::experiments::figures::FIG10_SRC;
use failmpi::experiments::robustness::{fault_free_smoke_spec, fig10_stress_spec, outcome_class};
use failmpi::prelude::*;

const SEED: u64 = 7;

/// `(backend, spec, outcome class, schedule fingerprint, events handled)`.
const RUNS: [(BackendKind, &str, &str, u64, u64); 6] = [
    (
        BackendKind::Vcl,
        "fault_free",
        "completed",
        0x841878688f9edd20,
        1370,
    ),
    (BackendKind::Vcl, "fig10", "buggy", 0xdcb24ab382eb8809, 719),
    (
        BackendKind::Ulfm,
        "fault_free",
        "completed",
        0x182bd0a84ffc37e3,
        88,
    ),
    (
        BackendKind::Ulfm,
        "fig10",
        "completed",
        0xc29a5e282aee8d2b,
        104,
    ),
    (
        BackendKind::Replica,
        "fault_free",
        "completed",
        0x698160ef8cd6dac2,
        92,
    ),
    (
        BackendKind::Replica,
        "fig10",
        "completed",
        0x3aeb4ee1d2330826,
        96,
    ),
];

/// `(backend, verdict, states explored, state digest)` of `FIG10_SRC` at
/// 4 ranks on 6 hosts.
const MODEL_CHECKS: [(BackendKind, &str, usize, u64); 3] = [
    (BackendKind::Vcl, "freezes", 15961, 0x58be82b805d891dd),
    (BackendKind::Ulfm, "survives", 328, 0xaacab241fb2717a7),
    (BackendKind::Replica, "freezes", 4105, 0xfd1b8a2c64b72eb7),
];

/// `(backend, verdict, states explored, states interned, state digest)`
/// of the *reduced* exploration (symmetry canonicalisation + partial-order
/// reduction) of `FIG10_SRC` at 9 ranks on 10 hosts — the path the
/// paper-scale grid runs on, which the unreduced pins above never enter.
const REDUCED_MODEL_CHECKS: [(BackendKind, &str, usize, usize, u64); 3] = [
    (BackendKind::Vcl, "freezes", 2511, 3062, 0xfe16c3245f8fd333),
    (BackendKind::Ulfm, "survives", 41, 41, 0xe5a775810eddae60),
    (BackendKind::Replica, "freezes", 11276, 11285, 0xfc1ae5e0d1c3635b),
];

#[test]
fn smoke_runs_reproduce_their_pins_on_every_backend() {
    for (kind, name, class, fingerprint, events) in RUNS {
        let spec = match name {
            "fault_free" => fault_free_smoke_spec(SEED),
            _ => fig10_stress_spec(DispatcherMode::Historical, SEED),
        };
        let r = run_one(&spec.with_backend(kind));
        assert_eq!(
            (outcome_class(&r.outcome), r.fingerprint, r.events),
            (class, fingerprint, events),
            "{kind} {name}"
        );
    }
}

#[test]
fn fig10_model_check_reproduces_its_pins_on_every_backend() {
    for (backend, verdict, explored, digest) in MODEL_CHECKS {
        let cfg = ModelCheckConfig {
            backend,
            n_ranks: 4,
            n_hosts: 6,
            ..ModelCheckConfig::default()
        };
        let m = model_check_source(FIG10_SRC, &cfg).summary;
        assert_eq!(
            (m.verdict.to_string().as_str(), m.explored, m.state_digest),
            (verdict, explored, digest),
            "{backend}"
        );
    }
}

#[test]
fn fig10_reduced_model_check_reproduces_its_pins_on_every_backend() {
    for (backend, verdict, explored, interned, digest) in REDUCED_MODEL_CHECKS {
        let cfg = ModelCheckConfig {
            backend,
            n_ranks: 9,
            n_hosts: 10,
            reduce: true,
            ..ModelCheckConfig::default()
        };
        let m = model_check_source(FIG10_SRC, &cfg).summary;
        assert_eq!(
            (m.verdict.to_string().as_str(), m.explored, m.interned, m.state_digest),
            (verdict, explored, interned, digest),
            "{backend}"
        );
    }
}
