//! The FC-series static model checker: bounded synchronous-product
//! reachability over {compiled FAIL automata × abstract Vcl protocol model
//! × op-program communication skeleton}.
//!
//! The paper isolated its headline finding — a fault landing on an
//! already-re-registered rank during an active recovery permanently wedges
//! the dispatcher — *dynamically*, after many 1500-second cluster runs.
//! This pass finds the same schedule in milliseconds: it explores every
//! interleaving of a small abstract deployment (by default 2 ranks on 3
//! machines) running the scenario's own compiled automata against
//! [`failmpi_mpichv::AbstractVcl`], and reports whether a freeze state
//! (stale dispatcher entry, or no enabled step short of the healthy
//! all-running state) is reachable — with the minimal fault schedule as a
//! counterexample witness.
//!
//! ## The timing abstraction
//!
//! The product is time-free but **speed-classed**, mirroring the latency
//! hierarchy of the real deployment (FAIL messages ≈ 4–11 ms, daemon
//! registration ≈ 70 ms, stop-closure + ssh relaunch ≥ 150 ms, scenario
//! timers ≥ seconds):
//!
//! * **fast** steps — FAIL message deliveries and the register/ready
//!   protocol hops — interleave freely (they genuinely race; this race is
//!   exactly the partial bugginess of paper Fig. 9);
//! * **slow** steps — spawns and stop-closures — only run when no FAIL
//!   message is in flight (a millisecond message never loses to an ssh);
//! * **quiescent** steps — scenario timers and checkpoint-wave
//!   start/commit — only run when every rank is computing and the FAIL
//!   plane is silent.
//!
//! | code  | severity | finding |
//! |-------|----------|---------|
//! | FC000 | error    | the deployment cannot be modelled (fewer machines than ranks, or an id space past 255) — nothing explored |
//! | FC001 | warning  | a `halt` action is never executed on any explored path |
//! | FC002 | warning  | every fault provably lands before the first possible wave commit |
//! | FC003 | error    | reachable freeze state, with a minimal fault-schedule witness |
//! | FC004 | warning  | fault/relaunch livelock cycle that never reaches all-running |
//! | FC005 | warning  | a `halt` executes with no controlled process (stale target) |
//! | FC006 | warning  | exploration budget exceeded — verdict unknown, frontier summary |
//! | FC007 | info     | reduction statistics (orbit merges, pruned steps) for `--reduce` |
//!
//! Exploration is deterministic: successors are generated in a canonical
//! order, the worklist is a (faults, steps, insertion) priority queue, and
//! the reported witness is minimal in fault count, then length. The
//! [`ModelCheckConfig::scramble`] hook shuffles candidate orderings before
//! the canonical sort so tests can prove insertion-order independence.
//!
//! ## Layout
//!
//! One module per job, bottom up: [`state`] (product-state types and the
//! interning hashers), [`engine`] (the abstract domain of the FAIL firing
//! core shared with the runtime, and product-step settling), [`moves`]
//! (enabled moves, labels, one state expansion), [`search`] (deployment
//! binding, interning, the cost-layered worklist and its one parent table
//! of structural moves), [`witness`] (the one path from that table to a
//! printed schedule) and [`report`] (FC001–FC007 off the finished graph);
//! [`world`] selects the backend's protocol model.
//!
//! ## Scaling to paper-sized grids
//!
//! The paper's headline configs run 25 ranks; the raw product blows the
//! default budget well before that. [`ModelCheckConfig::reduce`] turns on
//! two sound reductions plus a parallel frontier (see [`canon`], [`por`],
//! and [`frontier`] for the arguments, and DESIGN.md "Cost per state" for
//! what pins each module and which probe reads its cost):
//!
//! * **symmetry canonicalization** — machines outside every send's
//!   statically-pinned index range, and ranks outside the op-program's
//!   distinguished roles, are interchangeable; each discovered state is
//!   interned as its sorted orbit representative and witnesses are mapped
//!   back through the accumulated permutation by concrete replay;
//! * **partial-order reduction** — when every enabled step is a pure-local
//!   FAIL delivery and they all pairwise commute, only the canonically
//!   first is expanded (deliveries strictly shrink the in-flight multiset,
//!   so nothing is postponed forever);
//! * **deterministic parallel frontier** — the (faults, steps) worklist is
//!   bucketed by cost layer; a layer's states are expanded by
//!   [`ModelCheckConfig::threads`] workers and merged back in insertion
//!   order, so the JSON output is byte-identical across thread counts.

mod canon;
mod engine;
mod frontier;
mod moves;
mod por;
mod report;
mod search;
mod state;
mod witness;
mod world;

use std::sync::Arc;

use failmpi_backend::BackendKind;
use failmpi_core::compile;
use failmpi_core::lang::compile::Scenario;
use failmpi_mpi::Program;
use failmpi_mpichv::DispatcherMode;
use serde::Serialize;

use crate::diag::{Diagnostic, Severity};

use search::Explorer;

/// How the model checker scales and bounds the product exploration.
#[derive(Clone, Debug)]
pub struct ModelCheckConfig {
    /// Protocol backend whose abstract model anchors the product (the
    /// `--backend` flag of `failck --model-check`). The Vcl dispatcher is
    /// the default; [`BackendKind::Ulfm`] and [`BackendKind::Replica`]
    /// swap in the shrink-and-continue / replication-failover models.
    pub backend: BackendKind,
    /// Abstract MPI ranks (compute processes).
    pub n_ranks: usize,
    /// Abstract machines; `n_hosts - n_ranks` are spares. Every suggested
    /// group is instantiated with one member per machine, exactly like
    /// the experiment harness deploys controllers.
    pub n_hosts: usize,
    /// Maximum number of product states to expand before giving up with
    /// FC006 / [`StaticVerdict::Unknown`].
    pub budget: usize,
    /// Dispatcher bookkeeping variant to model.
    pub mode: DispatcherMode,
    /// Parameter overrides by name (defaults come from the scenario). The
    /// machine-count parameter `N` is auto-set to `n_hosts - 1` unless
    /// overridden here, mirroring how the figure drivers scale it.
    pub params: Vec<(String, i64)>,
    /// Checkpoint period in seconds, for the FC002 timing argument.
    pub wave_period_secs: i64,
    /// Test hook: deterministically shuffle candidate successor lists
    /// before the canonical sort. Any seed must produce byte-identical
    /// results — the determinism property test relies on this.
    pub scramble: Option<u64>,
    /// Turn on symmetry canonicalization + partial-order reduction. Off by
    /// default: the unreduced state digest is a persisted fuzzer coverage
    /// key, so the default exploration must stay bit-stable.
    pub reduce: bool,
    /// Worker threads for frontier expansion (1 = in-line). Output is
    /// byte-identical across thread counts by construction.
    pub threads: usize,
    /// Test hook: apply a seeded machine permutation to the initial state
    /// before exploring. With `reduce` on, any seed must leave verdict and
    /// witness cost unchanged — the canonicalization property test's lever.
    pub permute_seed: Option<u64>,
}

impl ModelCheckConfig {
    /// Number of process units the backend's abstract model tracks. Equal
    /// to `n_ranks` except under replication, where each protected rank
    /// adds a replica unit (see [`failmpi_replica::AbstractReplica`]).
    pub(crate) fn n_units(&self) -> usize {
        match self.backend {
            BackendKind::Replica => {
                self.n_ranks + self.n_hosts.saturating_sub(self.n_ranks).min(self.n_ranks)
            }
            _ => self.n_ranks,
        }
    }
}

impl Default for ModelCheckConfig {
    fn default() -> Self {
        ModelCheckConfig {
            backend: BackendKind::Vcl,
            n_ranks: 2,
            n_hosts: 3,
            budget: 50_000,
            mode: DispatcherMode::Historical,
            params: Vec::new(),
            wave_period_secs: 30,
            scramble: None,
            reduce: false,
            threads: 1,
            permute_seed: None,
        }
    }
}

/// The model checker's pre-run prediction for a scenario.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StaticVerdict {
    /// No freeze state is reachable in the bounded product.
    Survives,
    /// A freeze state is reachable (FC003 carries the witness).
    Freezes,
    /// The exploration budget ran out before a verdict (FC006).
    Unknown,
    /// Nothing was explored: the scenario declares no deployment (no
    /// `instance`/`group` sugar) to bind the product to, or the requested
    /// deployment cannot be modelled (FC000 says why).
    NotApplicable,
}

impl std::fmt::Display for StaticVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            StaticVerdict::Survives => "survives",
            StaticVerdict::Freezes => "freezes",
            StaticVerdict::Unknown => "unknown",
            StaticVerdict::NotApplicable => "not-applicable",
        })
    }
}

impl Serialize for StaticVerdict {
    fn serialize_json(&self, out: &mut String) {
        serde::write_json_str(out, &self.to_string());
    }
}

/// The minimal counterexample schedule reaching the freeze state.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct Witness {
    /// Product steps from the initial state, in order.
    pub steps: Vec<String>,
    /// Faults injected along the schedule (the minimized quantity).
    pub faults: usize,
}

/// 64-bit FNV-1a. `std::hash::DefaultHasher` is explicitly unstable
/// across Rust releases, and [`ModelSummary::state_digest`] feeds the
/// fuzzer's persisted coverage corpus, so the algorithm must be pinned.
///
/// The integer writers fold the same bytes as [`std::hash::Hasher::write`]
/// would (native byte order), but a zero byte folds as `(h ^ 0) * P ==
/// h * P`: the bytes below a word's highest non-zero one fold one by one,
/// and that byte with the `k` zero bytes above it in one multiplication by
/// `P^(k + 1)`. The derived `Hash` of a state writes mostly small numbers
/// in wide words, so most of its bytes are such zeros.
pub(crate) struct Fnv1a(pub u64);

/// `Fnv1a::PRIME^k` for `k` in `0..=8` (wrapping): what `k` zero bytes
/// fold to.
const FNV_PRIME_POW: [u64; 9] = {
    let mut pow = [1u64; 9];
    let mut k = 1;
    while k < pow.len() {
        pow[k] = pow[k - 1].wrapping_mul(Fnv1a::PRIME);
        k += 1;
    }
    pow
};

impl Fnv1a {
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    pub(crate) fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Folds the `width` little-endian bytes of `v`, which must fit them.
    #[inline]
    fn fold_le(&mut self, v: u64, width: usize) {
        debug_assert!(width == 8 || v >> (8 * width) == 0, "{v:#x} wider than {width} bytes");
        let (mut h, mut rest, mut left) = (self.0, v, width);
        while rest > 0xff {
            h = (h ^ (rest & 0xff)).wrapping_mul(Self::PRIME);
            rest >>= 8;
            left -= 1;
        }
        self.0 = (h ^ rest).wrapping_mul(FNV_PRIME_POW[left]);
    }
}

impl std::hash::Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }
    fn write_u8(&mut self, v: u8) {
        self.fold_le(u64::from(v), 1);
    }
    fn write_u16(&mut self, v: u16) {
        self.fold_le(u64::from(u16::from_le_bytes(v.to_ne_bytes())), 2);
    }
    fn write_u32(&mut self, v: u32) {
        self.fold_le(u64::from(u32::from_le_bytes(v.to_ne_bytes())), 4);
    }
    fn write_u64(&mut self, v: u64) {
        self.fold_le(u64::from_le_bytes(v.to_ne_bytes()), 8);
    }
    fn write_usize(&mut self, v: usize) {
        let v = usize::from_le_bytes(v.to_ne_bytes());
        self.fold_le(v as u64, std::mem::size_of::<usize>());
    }
}

/// Machine-readable exploration summary, attached to a
/// [`crate::Report`] when `--model-check` runs.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct ModelSummary {
    /// The verdict.
    pub verdict: StaticVerdict,
    /// Product states expanded.
    pub explored: usize,
    /// Discovered-but-unexpanded states left when exploration stopped
    /// (nonzero only for [`StaticVerdict::Unknown`] and freeze stops).
    pub frontier: usize,
    /// Whether symmetry + partial-order reduction was on for this run.
    pub reduced: bool,
    /// Distinct (canonical, when reduced) product states interned.
    pub interned: usize,
    /// Successor states whose canonicalization was a nontrivial orbit
    /// merge (zero when `reduced` is false).
    pub orbit_hits: usize,
    /// Enabled steps the ample-set filter declined to expand (zero when
    /// `reduced` is false).
    pub por_pruned: usize,
    /// Order-sensitive FNV-1a digest over every interned product state,
    /// in discovery order — a cheap behavioural signature of the explored
    /// state space. Two scenarios whose products unfold identically share
    /// a digest; the scenario fuzzer uses it as its static coverage
    /// signal. Deterministic per build (same source, same config, same
    /// digest), but not an across-release file format.
    pub state_digest: u64,
    /// Minimal fault schedule, when the verdict is a freeze.
    pub witness: Option<Witness>,
}

/// Result of one model-check run: the summary plus FC diagnostics.
#[derive(Clone, Debug)]
pub struct ModelCheckResult {
    /// Exploration summary (verdict, counts, witness).
    pub summary: ModelSummary,
    /// FC001–FC007 findings.
    pub diagnostics: Vec<Diagnostic>,
}

/// The largest count of machines, process units, FAIL instances or
/// message names a deployment may have: product states store each of
/// those ids in a `u8`.
const ID_SPACE: usize = 255;

/// Why `cfg`'s deployment of `sc` cannot be modelled, if it cannot: fewer
/// machines than ranks, or more of something than the state's one-byte ids
/// can name. Checked once, before anything is built, so no constructor
/// downstream has to assert it and no id silently wraps.
fn deployment_error(sc: &Scenario, cfg: &ModelCheckConfig) -> Option<String> {
    if cfg.n_ranks == 0 {
        return Some("the deployment needs at least one rank".to_string());
    }
    if cfg.n_hosts < cfg.n_ranks {
        return Some(format!(
            "{} rank(s) need at least as many machines, but the deployment has {}",
            cfg.n_ranks, cfg.n_hosts
        ));
    }
    let n_instances = sc.suggested.instances.len() + sc.suggested.groups.len() * cfg.n_hosts;
    [
        (cfg.n_hosts, "machines"),
        (cfg.n_units(), "process units (ranks plus replicas)"),
        (n_instances, "FAIL instances (one group member per machine)"),
        (sc.messages.len(), "message names"),
    ]
    .into_iter()
    .find(|(n, _)| *n > ID_SPACE)
    .map(|(n, what)| format!("{n} {what} exceed the model checker's limit of {ID_SPACE}"))
}

fn not_applicable() -> ModelCheckResult {
    ModelCheckResult {
        summary: ModelSummary {
            verdict: StaticVerdict::NotApplicable,
            explored: 0,
            frontier: 0,
            reduced: false,
            interned: 0,
            orbit_hits: 0,
            por_pruned: 0,
            state_digest: 0,
            witness: None,
        },
        diagnostics: Vec::new(),
    }
}

/// Model-checks FAIL source text. A source that does not compile gets
/// [`StaticVerdict::NotApplicable`] with no FC diagnostics (the FA000
/// lint already reports the compile error).
pub fn model_check_source(src: &str, cfg: &ModelCheckConfig) -> ModelCheckResult {
    match compile(src) {
        Ok(sc) => model_check_scenario(&sc, cfg),
        Err(_) => not_applicable(),
    }
}

/// Model-checks a compiled scenario against the abstract model of
/// [`ModelCheckConfig::backend`]. A deployment the checker cannot represent
/// (see FC000) yields [`StaticVerdict::NotApplicable`] with that one error
/// diagnostic — never a panic, never wrapped ids.
pub fn model_check_scenario(sc: &Scenario, cfg: &ModelCheckConfig) -> ModelCheckResult {
    model_check_with_programs(sc, &[], cfg)
}

/// Like [`model_check_scenario`], additionally threading the op-program
/// communication skeleton into the freeze diagnosis: when rank programs
/// are supplied, the FC003 message names which surviving ranks block on
/// the lost one through the program's communication graph.
pub fn model_check_with_programs(
    sc: &Scenario,
    programs: &[Arc<Program>],
    cfg: &ModelCheckConfig,
) -> ModelCheckResult {
    if sc.suggested.groups.is_empty() {
        // No machine controllers: the scenario is a class library (paper
        // Fig. 4) — there is no deployment to bind the product to.
        return not_applicable();
    }
    if let Some(why) = deployment_error(sc, cfg) {
        let mut r = not_applicable();
        r.diagnostics.push(Diagnostic::new(
            Severity::Error,
            "FC000",
            0,
            format!("the deployment cannot be model-checked: {why}"),
            "lower --ranks/--hosts (the 25-rank paper grid is well inside the limit)",
        ));
        return r;
    }
    let mut ex = Explorer::new(sc, cfg, programs);
    ex.run();
    ex.finish()
}

#[cfg(test)]
mod tests {
    use std::hash::{Hash, Hasher};

    use proptest::prelude::*;

    use super::Fnv1a;

    /// FNV-1a through `write` alone: every integer the derived `Hash`
    /// writes reaches it as its native-order bytes, the definition the
    /// zero-byte-aware writers must equal.
    struct Bytewise(Fnv1a);

    impl Hasher for Bytewise {
        fn finish(&self) -> u64 {
            self.0.finish()
        }
        fn write(&mut self, bytes: &[u8]) {
            self.0.write(bytes);
        }
    }

    proptest! {
        /// What the derived `Hash` writes — every integer width, signed
        /// and length-prefixed fields included — digests the same both
        /// ways, for words with any number of high zero bytes.
        #[test]
        fn writers_equal_the_bytewise_fold(start: u64, v: u64, byte in 0u32..8, text in "\\PC*") {
            for v in [v, v >> (8 * byte), 0, 1 << (8 * byte), u64::MAX] {
                let words = vec![v; byte as usize];
                let row = (v as u8, v as u16, v as u32, v, v as usize, v as i64, words, &text);
                let mut fast = Fnv1a(start);
                let mut slow = Bytewise(Fnv1a(start));
                row.hash(&mut fast);
                row.hash(&mut slow);
                prop_assert_eq!(fast.finish(), slow.finish(), "{:#x}", v);
            }
        }
    }
}
