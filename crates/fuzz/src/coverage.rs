//! Behavioural coverage: a candidate earns a corpus slot only when the
//! oracles observed something no earlier candidate produced.
//!
//! The novelty key reuses the repo's existing fingerprints instead of
//! inventing instrumentation: the model checker's interned-state digest
//! (static shape of the product under both dispatcher variants), the
//! verdict pair, the per-seed dynamic outcome classes, and the schedule
//! fingerprints of any frozen probe (the freeze family signal). It reads
//! the contract views only; the other backends' pins ride in the manifest.

use std::collections::BTreeSet;

use crate::oracle::Evaluation;

/// Canonical, order-stable novelty key of an evaluation.
pub fn key_of(ev: &Evaluation) -> String {
    let mut fps: Vec<u64> = ev
        .contract()
        .flat_map(|v| &v.dynamic)
        .filter(|r| r.class == "buggy")
        .map(|r| r.fingerprint)
        .collect();
    fps.sort_unstable();
    fps.dedup();
    let freeze = fps.iter().map(|fp| format!("{fp:016x}")).collect::<Vec<_>>().join(",");
    let digests = ev.contract().map(|v| format!("{:016x}", v.summary.state_digest));
    let verdicts = ev.contract().map(|v| v.summary.verdict.to_string());
    let classes = ev
        .contract()
        .map(|v| v.dynamic.iter().map(|r| r.class).collect::<Vec<_>>().join(","));
    digests
        .chain(verdicts)
        .chain(classes)
        .chain([freeze])
        .collect::<Vec<_>>()
        .join("|")
}

/// The set of behaviours seen so far.
#[derive(Debug, Default)]
pub struct Coverage {
    seen: BTreeSet<String>,
}

impl Coverage {
    /// An empty coverage map.
    pub fn new() -> Self {
        Coverage::default()
    }

    /// Records `key`; returns `true` when it was novel.
    pub fn observe(&mut self, key: &str) -> bool {
        self.seen.insert(key.to_string())
    }

    /// Distinct behaviours observed.
    pub fn len(&self) -> usize {
        self.seen.len()
    }

    /// Whether nothing has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.seen.is_empty()
    }
}
