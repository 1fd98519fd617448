//! Cross-backend pins through the facade: one dynamic smoke pair and one
//! static model check per protocol backend, so tier-1 (`cargo test -q` at
//! the root) exercises the runtime skeleton, both recovery policies, the
//! generic harness driver and all three abstract models.
//!
//! The values were recorded before the ulfm/replica runtimes were
//! collapsed into `failmpi_backend::light` — they pin that the refactor
//! (and whatever follows it) is behaviour-preserving, byte for byte.

use failmpi::analyze::{model_check_source, ModelCheckConfig};
use failmpi::experiments::figures::{FIG10_SRC, FIG5_SRC};
use failmpi::experiments::robustness::{fault_free_smoke_spec, fig10_stress_spec, outcome_class};
use failmpi::experiments::smoke_spec_for;
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

/// One MPICH-V protocol variant of the pin table below.
#[derive(Clone, Copy, Debug)]
enum Variant {
    VclHistorical,
    VclFixed,
    VclBlocking,
    V2,
    Vdummy,
}

impl Variant {
    fn apply(self, cluster: &mut VclConfig) {
        use failmpi::mpichv::VProtocol::{Vcl, Vdummy, V2};
        use CheckpointStyle::{Blocking, NonBlocking};
        use DispatcherMode::{Fixed, Historical};
        (cluster.dispatcher, cluster.protocol, cluster.checkpoint_style) = match self {
            Variant::VclHistorical => (Historical, Vcl, NonBlocking),
            Variant::VclFixed => (Fixed, Vcl, NonBlocking),
            Variant::VclBlocking => (Historical, Vcl, Blocking),
            Variant::V2 => (Historical, V2, NonBlocking),
            Variant::Vdummy => (Historical, Vdummy, NonBlocking),
        };
    }
}

/// `(variant, spec, outcome class, fingerprint, events, end µs, app / ckpt
/// / control bytes)` of every MPICH-V protocol the daemon runs, fault-free
/// and under the fig5 smoke injection. Recorded before the daemon was
/// split into a lifecycle shell and one part per protocol.
#[allow(clippy::type_complexity)]
const PROTOCOL_RUNS: [(Variant, &str, &str, u64, u64, u64, [u64; 3]); 10] = [
    (Variant::VclHistorical, "fault_free", "completed", 0x841878688f9edd20, 1370, 4841726, [384062464, 83201024, 5888]),
    (Variant::VclHistorical, "fig5", "completed", 0xc0cccc05caa8ce77, 2079, 7948049, [560090624, 138002304, 9408]),
    (Variant::VclFixed, "fault_free", "completed", 0x841878688f9edd20, 1370, 4841726, [384062464, 83201024, 5888]),
    (Variant::VclFixed, "fig5", "completed", 0xc0cccc05caa8ce77, 2079, 7948049, [560090624, 138002304, 9408]),
    (Variant::VclBlocking, "fault_free", "completed", 0xb2d6c71f732592a4, 1362, 5434467, [384062464, 80000512, 5888]),
    (Variant::VclBlocking, "fig5", "completed", 0x14ee3a3c6bf40493, 2569, 11299105, [665707520, 220001792, 14848]),
    (Variant::V2, "fault_free", "completed", 0xf784d97471eb4bb, 1316, 5007608, [384062464, 60000384, 2816]),
    (Variant::V2, "fig5", "completed", 0x50f30a16c1d3f067, 1578, 7082098, [454473728, 102400640, 4032]),
    (Variant::Vdummy, "fault_free", "completed", 0xdb58d3474cd02d2b, 1286, 4702601, [384062464, 0, 2048]),
    (Variant::Vdummy, "fig5", "non-terminating", 0xa31b1d15e5a35c1d, 24806, 90000000, [7201152000, 0, 39552]),
];

#[test]
fn every_mpichv_protocol_reproduces_its_schedule_pins() {
    for (variant, name, class, fingerprint, events, end_us, traffic) in PROTOCOL_RUNS {
        let mut spec = match name {
            "fault_free" => fault_free_smoke_spec(SEED),
            _ => {
                let params = [("X", 4), ("N", 5)];
                smoke_spec_for(FIG5_SRC, "ADVnodes", &params, SEED, DispatcherMode::Historical)
            }
        };
        variant.apply(&mut spec.cluster);
        let r = run_one(&spec);
        let t = r.traffic;
        let got = (
            outcome_class(&r.outcome),
            r.fingerprint,
            r.events,
            r.end.as_micros(),
            [t.app_bytes, t.ckpt_bytes, t.control_bytes],
        );
        assert_eq!(got, (class, fingerprint, events, end_us, traffic), "{variant:?} {name}");
    }
}

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
