//! The backend leg of the product state: one abstract protocol model per
//! [`BackendKind`], behind a single dispatch point.
//!
//! The explorer is protocol-agnostic — it sees whichever model the check
//! targets through [`AbstractModel`]. Everything protocol-specific lives
//! in the backend crates' abstract models; this enum merely selects one at
//! [`ModelCheckConfig::backend`] and is itself an [`AbstractModel`] that
//! forwards, statically dispatched, through [`on_model!`].
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
//! digest is a persisted fuzzer coverage key that must not shift.

use failmpi_backend::vocab::AbstractModel;
use failmpi_backend::{AbstractEvent, AbstractRank, AbstractStep, BackendKind};
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

/// The one dispatch point: evaluates `$body` with `$m` bound to the active
/// backend's model, at its concrete type.
macro_rules! on_model {
    ($world:expr, $m:ident => $body:expr) => {
        match $world {
            AbstractWorld::Vcl($m) => $body,
            AbstractWorld::Ulfm($m) => $body,
            AbstractWorld::Replica($m) => $body,
        }
    };
}

impl std::hash::Hash for AbstractWorld {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        on_model!(self, m => m.hash(state)) // no discriminant, see above
    }
}

impl AbstractWorld {
    /// The initial state of `cfg.backend`'s model at `cfg`'s scale.
    pub(crate) fn new(cfg: &ModelCheckConfig) -> AbstractWorld {
        let (n, hosts) = (cfg.n_ranks, cfg.n_hosts);
        match cfg.backend {
            BackendKind::Vcl => AbstractWorld::Vcl(AbstractVcl::new(cfg.mode, n, hosts)),
            BackendKind::Ulfm => AbstractWorld::Ulfm(AbstractUlfm::new(n, hosts)),
            BackendKind::Replica => AbstractWorld::Replica(AbstractReplica::new(n, hosts)),
        }
    }
}

impl AbstractModel for AbstractWorld {
    fn slots(&self) -> &[AbstractRank] {
        on_model!(self, m => m.slots())
    }
    fn unit_live(&self, u: usize) -> bool {
        on_model!(self, m => m.unit_live(u))
    }
    fn all_running(&self) -> bool {
        on_model!(self, m => m.all_running())
    }
    fn apply(&mut self, step: AbstractStep, events: &mut Vec<AbstractEvent>) {
        on_model!(self, m => m.apply(step, events))
    }
    fn relabel(&self, host_map: &[u8], rank_map: &[u8]) -> AbstractWorld {
        match self {
            AbstractWorld::Vcl(v) => AbstractWorld::Vcl(v.relabel(host_map, rank_map)),
            AbstractWorld::Ulfm(u) => AbstractWorld::Ulfm(u.relabel(host_map, rank_map)),
            AbstractWorld::Replica(r) => AbstractWorld::Replica(r.relabel(host_map, rank_map)),
        }
    }
    fn lost_rank(&self) -> Option<u8> {
        on_model!(self, m => m.lost_rank())
    }
    fn freeze_reason(&self) -> &'static str {
        on_model!(self, m => m.freeze_reason())
    }
    fn lost_note(&self, rank: u8) -> String {
        on_model!(self, m => m.lost_note(rank))
    }
    fn recovery_active(&self) -> bool {
        on_model!(self, m => m.recovery_active())
    }
    fn wave_startable(&self) -> bool {
        on_model!(self, m => m.wave_startable())
    }
    fn wave_committable(&self) -> bool {
        on_model!(self, m => m.wave_committable())
    }
    fn spare_hosts(&self) -> &[u8] {
        on_model!(self, m => m.spare_hosts())
    }
    fn unit_desc(&self, u: usize, out: &mut String) {
        on_model!(self, m => m.unit_desc(u, out))
    }
    fn independent(&self, a: AbstractStep, b: AbstractStep) -> bool {
        on_model!(self, m => m.independent(a, b))
    }
}
