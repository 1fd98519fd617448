//! An abstract, finite model of the ULFM shrink-and-continue protocol,
//! for the cross-layer static model checker (`failck --model-check
//! --backend ulfm`).
//!
//! Speaks the shared vocabulary of [`failmpi_backend`]: the boot ladder
//! (`Spawn` → `Register` → `Ready` → all-ready barrier) is identical to
//! Vcl's, but recovery is the protocol's dual — there is no relaunch, no
//! spare-machine FIFO, and no checkpoint wave. A fault moves the victim to
//! [`AbstractPhase::Done`] (shrunk out) and demotes every computing
//! survivor to [`AbstractPhase::Registered`]: the errhandler fired and the
//! survivor must contribute its `agree`/`shrink` ack (its `Ready` step)
//! before the shrunken communicator resumes. The job freezes only when
//! zero live ranks remain — [`AbstractPhase::Lost`] is unreachable,
//! which is exactly why Fig. 10's stale-dispatcher freeze cannot occur
//! here.

use failmpi_backend::vocab::{self, AbstractModel};
use failmpi_backend::{AbstractEvent, AbstractPhase, AbstractRank, AbstractStep, Slots, EPOCH_CAP};

/// The abstract ULFM protocol state.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AbstractUlfm {
    /// Per-rank slots (host assignments never change — no relaunch).
    pub ranks: Slots<AbstractRank>,
    /// Whether an `agree`/`shrink` exchange is in flight.
    pub recovery_active: bool,
    /// Completed shrinks, saturating at [`EPOCH_CAP`].
    pub epoch: u8,
}

impl AbstractUlfm {
    /// Initial state: `n_ranks` ranks launching on hosts `0..n_ranks`.
    /// Hosts `n_ranks..n_hosts` exist but host nothing, ever.
    pub fn new(n_ranks: usize, n_hosts: usize) -> AbstractUlfm {
        assert!(n_ranks >= 1 && n_hosts >= n_ranks && n_hosts <= 255);
        AbstractUlfm {
            ranks: vocab::launch_slots(n_ranks),
            recovery_active: false,
            epoch: 0,
        }
    }

    /// A fault kills the live process of `rank`: the survivors' errhandler
    /// fires and every computing/acked survivor re-enters the agreement
    /// (demoted to `Registered`, owing a fresh `Ready` ack).
    fn fault(&mut self, r: usize, events: &mut Vec<AbstractEvent>) {
        if !self.unit_live(r) {
            return;
        }
        let host = self.ranks[r].host;
        events.push(AbstractEvent::OnError { host });
        events.push(AbstractEvent::FailureDetected {
            rank: r as u8,
            during_recovery: self.recovery_active,
        });
        let ranks = self.ranks.make_mut();
        ranks[r].phase = AbstractPhase::Done;
        if !self.recovery_active {
            self.recovery_active = true;
            self.epoch = (self.epoch + 1).min(EPOCH_CAP);
            events.push(AbstractEvent::EpochBumped(self.epoch));
        }
        for k in ranks {
            if matches!(k.phase, AbstractPhase::Running | AbstractPhase::Ready) {
                k.phase = AbstractPhase::Registered;
            }
        }
    }
}

/// ULFM has no stale dispatcher entry — a rank is shrunk (`Done`) or live,
/// never `Lost` — no checkpoint wave and no spare machine, so every
/// defaulted question but the recovery window keeps its "no".
impl AbstractModel for AbstractUlfm {
    fn slots(&self) -> &[AbstractRank] {
        &self.ranks
    }

    /// [`AbstractPhase::Done`] means shrunk away here — dead, unlike Vcl's
    /// finalized-but-alive.
    fn unit_live(&self, r: usize) -> bool {
        let phase = self.ranks[r].phase;
        phase.process_alive() && phase != AbstractPhase::Done
    }

    /// Every rank is either computing or shrunk away, at least one
    /// computes, and no agreement is pending.
    fn all_running(&self) -> bool {
        !self.recovery_active
            && self
                .ranks
                .iter()
                .all(|r| matches!(r.phase, AbstractPhase::Running | AbstractPhase::Done))
            && self.ranks.iter().any(|r| r.phase == AbstractPhase::Running)
    }

    fn recovery_active(&self) -> bool {
        self.recovery_active
    }

    fn relabel(&self, host_map: &[u8], rank_map: &[u8]) -> AbstractUlfm {
        AbstractUlfm {
            ranks: vocab::relabel_slots(&self.ranks, host_map, rank_map),
            recovery_active: self.recovery_active,
            epoch: self.epoch,
        }
    }

    /// There is no `StopClosure` — nothing is ever terminated on purpose —
    /// and wave steps are never enabled (there is no checkpoint scheduler).
    fn apply(&mut self, step: AbstractStep, events: &mut Vec<AbstractEvent>) {
        match step {
            AbstractStep::Spawn(r) => vocab::spawn(self.ranks.make_mut(), r, events),
            AbstractStep::Register(r) => vocab::register(self.ranks.make_mut(), r),
            AbstractStep::Ready(r) => {
                let ranks = self.ranks.make_mut();
                vocab::ack_ready(ranks, r);
                let live_ready = ranks
                    .iter()
                    .filter(|k| k.phase != AbstractPhase::Done)
                    .all(|k| k.phase == AbstractPhase::Ready);
                if live_ready {
                    // The shrunken communicator (re)starts.
                    for k in ranks {
                        if k.phase != AbstractPhase::Done {
                            k.phase = AbstractPhase::Running;
                        }
                    }
                    self.recovery_active = false;
                }
            }
            AbstractStep::Fault(r) => self.fault(r as usize, events),
            AbstractStep::StopClosure(_)
            | AbstractStep::WaveStart
            | AbstractStep::WaveCommit => {
                panic!("step {step:?} is never enabled under the ULFM backend")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn boot(m: &mut AbstractUlfm) {
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

    #[test]
    fn initial_launch_reaches_running() {
        let mut m = AbstractUlfm::new(3, 4);
        boot(&mut m);
        assert!(m.all_running());
        assert_eq!(m.epoch, 0);
    }

    #[test]
    fn single_fault_shrinks_and_reagrees() {
        let mut m = AbstractUlfm::new(3, 4);
        boot(&mut m);
        let mut e = Vec::new();
        m.apply(AbstractStep::Fault(1), &mut e);
        assert!(m.recovery_active);
        assert_eq!(m.ranks[1].phase, AbstractPhase::Done);
        assert_eq!(m.ranks[0].phase, AbstractPhase::Registered);
        assert!(e.contains(&AbstractEvent::EpochBumped(1)));
        boot(&mut m);
        assert!(m.all_running(), "survivors re-agree and continue");
        assert_eq!(m.lost_rank(), None);
    }

    #[test]
    fn overlapping_faults_still_recover() {
        let mut m = AbstractUlfm::new(3, 4);
        boot(&mut m);
        let mut e = Vec::new();
        m.apply(AbstractStep::Fault(0), &mut e);
        // Second fault lands while the agreement is in flight — the round
        // restarts, no rank is ever Lost (the anti-Fig.10 property).
        m.apply(AbstractStep::Fault(1), &mut e);
        assert!(e.iter().any(|x| matches!(
            x,
            AbstractEvent::FailureDetected { rank: 1, during_recovery: true }
        )));
        assert_eq!(m.lost_rank(), None);
        boot(&mut m);
        assert!(m.all_running());
    }

    #[test]
    fn killing_everyone_freezes_with_no_steps() {
        let mut m = AbstractUlfm::new(2, 3);
        boot(&mut m);
        let mut e = Vec::new();
        m.apply(AbstractStep::Fault(0), &mut e);
        m.apply(AbstractStep::Fault(1), &mut e);
        assert_eq!(m.protocol_steps().next(), None);
        assert!(!m.all_running());
        assert_eq!(m.live_rank_on_host(0), None);
    }

    #[test]
    fn fault_on_booted_rank_is_shrunk_too() {
        let mut m = AbstractUlfm::new(2, 3);
        let mut e = Vec::new();
        m.apply(AbstractStep::Spawn(0), &mut e);
        m.apply(AbstractStep::Fault(0), &mut e);
        assert_eq!(m.ranks[0].phase, AbstractPhase::Done);
        // The survivor still boots and runs alone.
        boot(&mut m);
        assert!(m.all_running());
    }

    #[test]
    fn relabel_commutes_with_fault() {
        let mut m = AbstractUlfm::new(3, 4);
        boot(&mut m);
        let host_map = [2u8, 0, 1, 3];
        let rank_map = [1u8, 2, 0];
        let relabeled_then_fault = {
            let mut x = m.relabel(&host_map, &rank_map);
            x.apply(AbstractStep::Fault(rank_map[1]), &mut Vec::new());
            x
        };
        let fault_then_relabel = {
            let mut x = m.clone();
            x.apply(AbstractStep::Fault(1), &mut Vec::new());
            x.relabel(&host_map, &rank_map)
        };
        assert_eq!(relabeled_then_fault, fault_then_relabel);
    }
}
