//! The backend leg of the product state: one abstract protocol model per
//! [`BackendKind`], behind a single dispatch surface.
//!
//! The explorer is protocol-agnostic — it enumerates boot-ladder steps,
//! routes faults from the FAIL plane, and asks two freeze questions
//! (`lost_rank`, `all_running`). Everything protocol-specific lives in the
//! backend crates' abstract models; this enum merely selects one at
//! [`ModelCheckConfig::backend`] and forwards.
//!
//! ## Unit spaces
//!
//! Vcl and ULFM track one slot per MPI rank. The replica backend tracks
//! *units*: primaries `0..n_ranks` plus one replica per protected rank
//! (see [`AbstractReplica`]). The explorer's rank-indexed structures
//! (permutations, host scans) therefore size themselves by
//! [`ModelCheckConfig::n_units`], which equals `n_ranks` except under
//! replication.
//!
//! ## Hashing
//!
//! `Hash` forwards to the inner model *without* the enum discriminant: a
//! product exploration never mixes backends, and the unreduced Vcl state
//! digest is a persisted fuzzer coverage key that must not shift under
//! this refactor.

use failmpi_backend::{AbstractEvent, AbstractRank, AbstractStep, BackendKind, WAVE_CAP};
use failmpi_mpichv::AbstractVcl;
use failmpi_replica::AbstractReplica;
use failmpi_ulfm::AbstractUlfm;

use super::ModelCheckConfig;

/// The abstract protocol state of whichever backend the check targets.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum AbstractWorld {
    /// MPICH-Vcl: relaunch-based recovery with the dispatcher bug.
    Vcl(AbstractVcl),
    /// ULFM: shrink-and-continue, no relaunch.
    Ulfm(AbstractUlfm),
    /// Replication failover: primaries with consumable replicas.
    Replica(AbstractReplica),
}

impl std::hash::Hash for AbstractWorld {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // No discriminant: backends never mix within one exploration, and
        // the Vcl state digest must stay bit-identical to the pre-enum
        // checker (it is a persisted fuzzer coverage key).
        match self {
            AbstractWorld::Vcl(v) => v.hash(state),
            AbstractWorld::Ulfm(u) => u.hash(state),
            AbstractWorld::Replica(r) => r.hash(state),
        }
    }
}

impl AbstractWorld {
    /// The initial state of `cfg.backend`'s model at `cfg`'s scale.
    pub(crate) fn new(cfg: &ModelCheckConfig) -> AbstractWorld {
        match cfg.backend {
            BackendKind::Vcl => {
                AbstractWorld::Vcl(AbstractVcl::new(cfg.mode, cfg.n_ranks, cfg.n_hosts))
            }
            BackendKind::Ulfm => AbstractWorld::Ulfm(AbstractUlfm::new(cfg.n_ranks, cfg.n_hosts)),
            BackendKind::Replica => {
                AbstractWorld::Replica(AbstractReplica::new(cfg.n_ranks, cfg.n_hosts))
            }
        }
    }

    /// Number of process units (= ranks, plus replicas under replication).
    pub(crate) fn n_units(&self) -> usize {
        match self {
            AbstractWorld::Vcl(v) => v.n_ranks(),
            AbstractWorld::Ulfm(u) => u.n_ranks(),
            AbstractWorld::Replica(r) => r.n_units(),
        }
    }

    /// Unit `u`'s slot (phase, host, incarnation).
    pub(crate) fn unit(&self, u: usize) -> &AbstractRank {
        match self {
            AbstractWorld::Vcl(v) => &v.ranks[u],
            AbstractWorld::Ulfm(m) => &m.ranks[u],
            AbstractWorld::Replica(r) => &r.units[u],
        }
    }

    /// Whether unit `u` has a live, killable process. The backends read
    /// [`failmpi_backend::AbstractPhase::Done`] differently — finalized-but-alive under
    /// Vcl, shrunk-away (dead) under ULFM, consumed (dead) under
    /// replication — so liveness dispatches rather than sharing
    /// `AbstractPhase::process_alive`.
    pub(crate) fn unit_live(&self, u: usize) -> bool {
        match self {
            AbstractWorld::Vcl(v) => v.ranks[u].phase.process_alive(),
            AbstractWorld::Ulfm(m) => m.rank_live(u),
            AbstractWorld::Replica(r) => r.unit_live(u),
        }
    }

    /// The unit whose live process runs on `host`, if any.
    pub(crate) fn live_rank_on_host(&self, host: u8) -> Option<u8> {
        match self {
            AbstractWorld::Vcl(v) => v.live_rank_on_host(host),
            AbstractWorld::Ulfm(u) => u.live_rank_on_host(host),
            AbstractWorld::Replica(r) => r.live_rank_on_host(host),
        }
    }

    /// The backend's steady computing state.
    pub(crate) fn all_running(&self) -> bool {
        match self {
            AbstractWorld::Vcl(v) => v.all_running(),
            AbstractWorld::Ulfm(u) => u.all_running(),
            AbstractWorld::Replica(r) => r.all_running(),
        }
    }

    /// The first permanently-lost rank, if the backend can lose one (Vcl's
    /// stale dispatcher entry, replication's exhausted pair; ULFM never).
    pub(crate) fn lost_rank(&self) -> Option<u8> {
        match self {
            AbstractWorld::Vcl(v) => v.lost_rank(),
            AbstractWorld::Ulfm(u) => u.lost_rank(),
            AbstractWorld::Replica(r) => r.lost_rank(),
        }
    }

    /// Whether a recovery exchange is in flight (replication's promotion is
    /// atomic, so it has no such window).
    pub(crate) fn recovery_active(&self) -> bool {
        match self {
            AbstractWorld::Vcl(v) => v.recovery_active,
            AbstractWorld::Ulfm(u) => u.recovery_active,
            AbstractWorld::Replica(_) => false,
        }
    }

    /// Whether a checkpoint wave may start (Vcl only — the other backends
    /// have no checkpoint scheduler).
    pub(crate) fn wave_startable(&self) -> bool {
        match self {
            AbstractWorld::Vcl(v) => !v.wave_active && v.committed_waves < WAVE_CAP,
            _ => false,
        }
    }

    /// Whether an open checkpoint wave may commit (Vcl only).
    pub(crate) fn wave_committable(&self) -> bool {
        match self {
            AbstractWorld::Vcl(v) => v.wave_active,
            _ => false,
        }
    }

    /// Enabled protocol-internal steps, in canonical unit order.
    pub(crate) fn protocol_steps(&self) -> Vec<AbstractStep> {
        match self {
            AbstractWorld::Vcl(v) => v.protocol_steps(),
            AbstractWorld::Ulfm(u) => u.protocol_steps(),
            AbstractWorld::Replica(r) => r.protocol_steps(),
        }
    }

    /// Applies `step`, appending the observable events.
    pub(crate) fn apply(&mut self, step: AbstractStep, events: &mut Vec<AbstractEvent>) {
        match self {
            AbstractWorld::Vcl(v) => v.apply(step, events),
            AbstractWorld::Ulfm(u) => u.apply(step, events),
            AbstractWorld::Replica(r) => r.apply(step, events),
        }
    }

    /// The protocol's spare-machine FIFO, front first (Vcl only — the
    /// other backends never reassign a machine). Queue position is
    /// protocol state, so the canonical machine order reads it.
    pub(crate) fn spare_hosts(&self) -> &[u8] {
        match self {
            AbstractWorld::Vcl(v) => &v.free_hosts,
            _ => &[],
        }
    }

    /// Orbit metadata as the backend crates materialise it: protocol
    /// content visible on machine `host`. The oracle the allocation-free
    /// machine comparator is tested against.
    #[cfg(test)]
    pub(crate) fn host_key(
        &self,
        host: u8,
    ) -> (Vec<(failmpi_backend::AbstractPhase, u8)>, Option<usize>) {
        match self {
            AbstractWorld::Vcl(v) => v.host_key(host),
            AbstractWorld::Ulfm(u) => u.host_key(host),
            AbstractWorld::Replica(r) => r.host_key(host),
        }
    }

    /// Relabels machines and unit slots (the symmetry orbit action).
    pub(crate) fn relabel(&self, host_map: &[u8], rank_map: &[u8]) -> AbstractWorld {
        match self {
            AbstractWorld::Vcl(v) => AbstractWorld::Vcl(v.relabel(host_map, rank_map)),
            AbstractWorld::Ulfm(u) => AbstractWorld::Ulfm(u.relabel(host_map, rank_map)),
            AbstractWorld::Replica(r) => AbstractWorld::Replica(r.relabel(host_map, rank_map)),
        }
    }

    /// How unit `u` reads in witness labels and fault notes: ranks keep
    /// the historical "rank N" spelling; replica shadows name their rank.
    pub(crate) fn unit_desc(&self, u: usize) -> String {
        match self {
            AbstractWorld::Replica(r) if u >= r.n_ranks() => {
                format!("replica[{}] of rank {}", u - r.n_ranks(), u - r.n_ranks())
            }
            _ => format!("rank {u}"),
        }
    }

    /// The backend-specific phrase for the lost-rank freeze predicate,
    /// used as the FC003 `why` clause.
    pub(crate) fn freeze_reason(&self) -> &'static str {
        match self {
            AbstractWorld::Vcl(_) => "stale dispatcher entry",
            AbstractWorld::Ulfm(_) => "permanently lost rank", // unreachable: ULFM never loses one
            AbstractWorld::Replica(_) => "replication exhausted",
        }
    }

    /// The witness note narrating a [`AbstractEvent::RankLost`] emitted by
    /// a fault on `rank`.
    pub(crate) fn lost_note(&self, rank: u8) -> String {
        match self {
            AbstractWorld::Replica(_) => {
                format!("no usable replica remains for rank {rank} — permanently lost")
            }
            _ => format!(
                "dispatcher files rank {rank} as stopped with no relaunch — stale entry"
            ),
        }
    }
}
