//! An abstract, finite model of the replication-failover protocol, for
//! the cross-layer static model checker (`failck --model-check --backend
//! replica`).
//!
//! The state is a vector of *units*: units `0..n_ranks` are primaries,
//! unit `n_ranks + j` is the replica shadowing rank `j` (partial
//! replication: `n_replicas = min(n_ranks, n_hosts − n_ranks)`). All units
//! climb the shared boot ladder. A fault on a live primary *promotes* its
//! replica atomically — the primary slot adopts the replica's phase and
//! host, the replica slot is consumed ([`AbstractPhase::Done`]) — and a
//! fault with no usable replica moves the primary to
//! [`AbstractPhase::Lost`]: the job freezes with no protocol bug involved,
//! the exact contrast to Vcl's Fig. 10 defect. Promotion is modeled as
//! atomic (the dynamic runtime's short handshake window is abstracted
//! away); simultaneous pair deaths are still covered because the explorer
//! interleaves the two faults in both orders.

use std::fmt::Write as _;

use failmpi_backend::vocab::{self, AbstractModel};
use failmpi_backend::{
    AbstractEvent, AbstractPhase, AbstractRank, AbstractStep, Slots, EPOCH_CAP, INCARNATION_CAP,
};

/// The abstract replication protocol state.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AbstractReplica {
    /// Process units: primaries `0..n_ranks`, then replicas.
    pub units: Slots<AbstractRank>,
    /// Number of primary slots.
    pub n_ranks: u8,
    /// Promotions so far, saturating at [`EPOCH_CAP`].
    pub epoch: u8,
}

impl AbstractReplica {
    /// Initial state: `n_ranks` primaries on hosts `0..n_ranks`, replicas
    /// for ranks `0..min(n_ranks, n_hosts − n_ranks)` on the spare hosts.
    pub fn new(n_ranks: usize, n_hosts: usize) -> AbstractReplica {
        assert!(n_ranks >= 1 && n_hosts >= n_ranks && n_hosts <= 255);
        let n_replicas = (n_hosts - n_ranks).min(n_ranks);
        AbstractReplica {
            units: vocab::launch_slots(n_ranks + n_replicas),
            n_ranks: n_ranks as u8,
            epoch: 0,
        }
    }

    /// A fault kills the live process of unit `u`.
    fn fault(&mut self, u: usize, events: &mut Vec<AbstractEvent>) {
        if !self.unit_live(u) {
            return;
        }
        let host = self.units[u].host;
        events.push(AbstractEvent::OnError { host });
        events.push(AbstractEvent::FailureDetected {
            rank: u as u8,
            during_recovery: false, // promotion is atomic in the abstraction
        });
        if u < self.n_ranks as usize {
            // Primary death: promote the replica if one is still usable —
            // its process (even one still booting, which the runtime waits
            // for) takes over the rank on its own host.
            let ru = self.n_ranks as usize + u;
            let usable = ru < self.units.len()
                && !matches!(
                    self.units[ru].phase,
                    AbstractPhase::Done | AbstractPhase::Lost
                );
            let units = self.units.make_mut();
            if usable {
                self.epoch = (self.epoch + 1).min(EPOCH_CAP);
                events.push(AbstractEvent::EpochBumped(self.epoch));
                units[u] = AbstractRank {
                    phase: units[ru].phase,
                    host: units[ru].host,
                    incarnation: (units[u].incarnation + 1).min(INCARNATION_CAP),
                };
                units[ru].phase = AbstractPhase::Done;
            } else {
                units[u].phase = AbstractPhase::Lost;
                events.push(AbstractEvent::RankLost { rank: u as u8 });
            }
        } else {
            // Replica death: the shadowed rank merely loses protection.
            self.units.make_mut()[u].phase = AbstractPhase::Done;
        }
    }
}

/// Promotion is atomic here, so there is no recovery window; there is no
/// checkpoint wave and no spare-machine queue either.
impl AbstractModel for AbstractReplica {
    fn slots(&self) -> &[AbstractRank] {
        &self.units
    }

    /// [`AbstractPhase::Done`] is a consumed/dead replica and
    /// [`AbstractPhase::Lost`] a dead primary — neither can be killed
    /// again.
    fn unit_live(&self, u: usize) -> bool {
        matches!(
            self.units[u].phase,
            AbstractPhase::Booted
                | AbstractPhase::Registered
                | AbstractPhase::Ready
                | AbstractPhase::Running
        )
    }

    /// Every unit computes or was consumed, and no primary is lost.
    fn all_running(&self) -> bool {
        self.units
            .iter()
            .all(|u| matches!(u.phase, AbstractPhase::Running | AbstractPhase::Done))
            && self.lost_rank().is_none()
    }

    /// The first permanently-lost primary, if replication was exhausted.
    fn lost_rank(&self) -> Option<u8> {
        self.units[..self.n_ranks as usize]
            .iter()
            .position(|u| u.phase == AbstractPhase::Lost)
            .map(|u| u as u8)
    }

    fn freeze_reason(&self) -> &'static str {
        "replication exhausted"
    }

    fn lost_note(&self, rank: u8) -> String {
        format!("no usable replica remains for rank {rank} — permanently lost")
    }

    /// Ranks keep the "rank N" spelling; replica shadows name their rank.
    fn unit_desc(&self, u: usize, out: &mut String) {
        let _ = match u.checked_sub(self.n_ranks as usize) {
            Some(j) => write!(out, "replica[{j}] of rank {j}"),
            None => write!(out, "rank {u}"),
        };
    }

    /// Unit permutations must respect the primary/replica pairing; the
    /// checker's symmetry profile disables rank symmetry for this backend,
    /// so `rank_map` is always the identity in practice.
    fn relabel(&self, host_map: &[u8], rank_map: &[u8]) -> AbstractReplica {
        AbstractReplica {
            units: vocab::relabel_slots(&self.units, host_map, rank_map),
            n_ranks: self.n_ranks,
            epoch: self.epoch,
        }
    }

    fn apply(&mut self, step: AbstractStep, events: &mut Vec<AbstractEvent>) {
        match step {
            AbstractStep::Spawn(u) => vocab::spawn(self.units.make_mut(), u, events),
            AbstractStep::Register(u) => vocab::register(self.units.make_mut(), u),
            AbstractStep::Ready(u) => {
                let units = self.units.make_mut();
                vocab::ack_ready(units, u);
                // A unit starts computing once every other live slot is at
                // least Ready: the initial start barrier, and — because a
                // promoted unit rejoining a Running fleet also satisfies
                // it — the bar-free rejoin after a failover.
                let can_run = units.iter().all(|k| {
                    matches!(
                        k.phase,
                        AbstractPhase::Ready
                            | AbstractPhase::Running
                            | AbstractPhase::Done
                            | AbstractPhase::Lost
                    )
                });
                if can_run {
                    for k in units {
                        if k.phase == AbstractPhase::Ready {
                            k.phase = AbstractPhase::Running;
                        }
                    }
                }
            }
            AbstractStep::Fault(u) => self.fault(u as usize, events),
            AbstractStep::StopClosure(_)
            | AbstractStep::WaveStart
            | AbstractStep::WaveCommit => {
                panic!("step {step:?} is never enabled under the replica backend")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn boot(m: &mut AbstractReplica) {
        let mut e = Vec::new();
        for _ in 0..64 {
            let steps: Vec<AbstractStep> = m.protocol_steps().collect();
            if steps.is_empty() {
                break;
            }
            for s in steps {
                m.apply(s, &mut e);
            }
            if m.all_running() {
                break;
            }
        }
    }

    /// 3 primaries, 5 hosts → replicas for ranks 0 and 1.
    fn partial() -> AbstractReplica {
        AbstractReplica::new(3, 5)
    }

    #[test]
    fn initial_launch_reaches_running() {
        let mut m = partial();
        assert_eq!(m.n_units(), 5);
        boot(&mut m);
        assert!(m.all_running());
    }

    #[test]
    fn protected_fault_is_masked_by_promotion() {
        let mut m = partial();
        boot(&mut m);
        let mut e = Vec::new();
        m.apply(AbstractStep::Fault(0), &mut e);
        assert!(m.all_running(), "promotion is atomic: no recovery window");
        assert_eq!(m.units[0].host, 3, "rank 0 now runs on the replica host");
        assert_eq!(m.units[3].phase, AbstractPhase::Done);
        assert!(e.contains(&AbstractEvent::EpochBumped(1)));
        assert_eq!(m.lost_rank(), None);
    }

    #[test]
    fn unprotected_fault_loses_the_rank() {
        let mut m = partial();
        boot(&mut m);
        let mut e = Vec::new();
        m.apply(AbstractStep::Fault(2), &mut e);
        assert_eq!(m.lost_rank(), Some(2));
        assert!(e.iter().any(|x| matches!(x, AbstractEvent::RankLost { rank: 2 })));
    }

    #[test]
    fn pair_death_loses_the_rank_in_either_order() {
        for order in [[0u8, 3u8], [3u8, 0u8]] {
            let mut m = partial();
            boot(&mut m);
            let mut e = Vec::new();
            for &u in &order {
                // After Fault(0) the promoted rank 0 sits on host 3; kill
                // whatever lives there to model the pair death.
                let victim = m.live_rank_on_host(m.units[u as usize].host).unwrap_or(u);
                m.apply(AbstractStep::Fault(victim), &mut e);
            }
            assert_eq!(m.lost_rank(), Some(0), "order {order:?}");
        }
    }

    #[test]
    fn promotion_of_a_booting_replica_still_works() {
        let mut m = partial();
        let mut e = Vec::new();
        // Primary 0 boots and dies while its replica (unit 3) has not even
        // spawned yet.
        m.apply(AbstractStep::Spawn(0), &mut e);
        m.apply(AbstractStep::Fault(0), &mut e);
        assert_eq!(m.lost_rank(), None, "the runtime waits for the replica");
        assert_eq!(m.units[0].phase, AbstractPhase::Launched);
        assert_eq!(m.units[0].host, 3);
        boot(&mut m);
        assert!(m.all_running());
    }

    #[test]
    fn relabel_commutes_with_fault() {
        let mut m = partial();
        boot(&mut m);
        let host_map = [4u8, 1, 2, 3, 0];
        let rank_map = [0u8, 1, 2, 3, 4]; // identity: pairing is structural
        let a = {
            let mut x = m.relabel(&host_map, &rank_map);
            x.apply(AbstractStep::Fault(0), &mut Vec::new());
            x
        };
        let b = {
            let mut x = m.clone();
            x.apply(AbstractStep::Fault(0), &mut Vec::new());
            x.relabel(&host_map, &rank_map)
        };
        assert_eq!(a, b);
    }
}
