//! An abstract, finite model of the Vcl dispatcher protocol, extracted
//! from [`crate::dispatcher`] for static model checking.
//!
//! `failmpi-analyze` explores the synchronous product of compiled FAIL
//! automata with this model to predict, before any run, whether a scenario
//! can reach the paper's stale-dispatcher freeze. The model keeps exactly
//! the state the dispatcher's failure bookkeeping branches on — per-rank
//! lifecycle phase, machine assignment, the `recovery_active` flag, a
//! saturating epoch/wave counter — and mirrors `Dispatcher::on_closed`
//! transition by transition, including the [`DispatcherMode::Historical`]
//! absorption that files a re-registered victim as a stopped straggler and
//! never relaunches it ([`AbstractPhase::Lost`]).
//!
//! The model is deliberately time-free: physical delays are replaced by the
//! explorer's step-priority abstraction (see `failmpi-analyze::model`).
//! Every type derives `Hash`/`Ord` so product states can be interned
//! canonically.

use crate::config::DispatcherMode;

// The phase/step/event vocabulary (and its saturation caps) is shared by
// every protocol backend's abstract model; it lives in `failmpi-backend`
// and is re-exported here so existing paths keep working.
use failmpi_backend::vocab::{self, AbstractModel};
pub use failmpi_backend::{
    AbstractEvent, AbstractPhase, AbstractRank, AbstractStep, Slots, EPOCH_CAP, INCARNATION_CAP,
    WAVE_CAP,
};

/// The abstract Vcl protocol state: dispatcher bookkeeping plus a coarse
/// checkpoint-wave counter.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AbstractVcl {
    /// Per-rank slots.
    pub ranks: Slots<AbstractRank>,
    /// Spare machines, in dispatcher order (FIFO reassignment: the victim
    /// takes the first spare, its old machine rejoins the back).
    pub free_hosts: Slots<u8>,
    /// Whether a stop/relaunch recovery is in flight.
    pub recovery_active: bool,
    /// Recoveries so far, saturating at [`EPOCH_CAP`].
    pub epoch: u8,
    /// Committed checkpoint waves, saturating at [`WAVE_CAP`].
    pub committed_waves: u8,
    /// Whether a checkpoint wave is currently open.
    pub wave_active: bool,
    /// Dispatcher variant (the Historical bug vs the Fixed bookkeeping).
    pub mode: DispatcherMode,
}

impl AbstractVcl {
    /// Initial state: `n_ranks` ranks launching on hosts `0..n_ranks`,
    /// hosts `n_ranks..n_hosts` spare. Panics if `n_hosts < n_ranks` or
    /// `n_hosts > 255`.
    pub fn new(mode: DispatcherMode, n_ranks: usize, n_hosts: usize) -> AbstractVcl {
        assert!(n_ranks >= 1 && n_hosts >= n_ranks && n_hosts <= 255);
        AbstractVcl {
            ranks: vocab::launch_slots(n_ranks),
            free_hosts: (n_ranks..n_hosts).map(|h| h as u8).collect(),
            recovery_active: false,
            epoch: 0,
            committed_waves: 0,
            wave_active: false,
            mode,
        }
    }

    /// Relaunch `rank` in place: new process incarnation, ssh issued.
    fn relaunch(&mut self, rank: usize) {
        let slot = &mut self.ranks.make_mut()[rank];
        slot.phase = AbstractPhase::Launched;
        slot.incarnation = (slot.incarnation + 1).min(INCARNATION_CAP);
    }

    /// Move `rank` to the first spare machine (its old machine rejoins the
    /// pool), mirroring `Dispatcher::reassign_machine`.
    fn reassign_machine(&mut self, rank: usize) {
        if !self.free_hosts.is_empty() {
            let fifo = self.free_hosts.make_mut();
            let spare = fifo[0];
            fifo.rotate_left(1);
            let slot = &mut self.ranks.make_mut()[rank];
            fifo[fifo.len() - 1] = slot.host;
            slot.host = spare;
        }
    }

    /// First failure detection: stop the world, then relaunch every node
    /// (`Dispatcher::start_recovery`).
    fn start_recovery(&mut self, victim: usize, events: &mut Vec<AbstractEvent>) {
        self.recovery_active = true;
        self.wave_active = false; // a failure aborts the open wave
        self.epoch = (self.epoch + 1).min(EPOCH_CAP);
        events.push(AbstractEvent::EpochBumped(self.epoch));
        self.reassign_machine(victim);
        self.relaunch(victim);
        for r in 0..self.ranks.len() {
            if r == victim {
                continue;
            }
            match self.ranks[r].phase {
                AbstractPhase::Registered
                | AbstractPhase::Ready
                | AbstractPhase::Running
                | AbstractPhase::Done => {
                    // Terminate ordered; the process stays alive until its
                    // stop closure (the straggler window).
                    self.ranks.make_mut()[r].phase = AbstractPhase::Stopping;
                }
                AbstractPhase::Booted => {
                    // A stale pre-registration process: its epoch is
                    // superseded, so its eventual Register is turned away
                    // and it exits; the slot relaunches for this epoch.
                    events.push(AbstractEvent::OnExit {
                        host: self.ranks[r].host,
                    });
                    self.relaunch(r);
                }
                AbstractPhase::Launched => {
                    // The stale spawn evaporates; relaunch for this epoch.
                    self.relaunch(r);
                }
                AbstractPhase::Stopping | AbstractPhase::Lost => {}
            }
        }
    }

    /// A fault kills the live process of `rank` — the abstract mirror of
    /// the process death plus `Dispatcher::on_closed(peer_died = true)`.
    fn fault(&mut self, r: usize, events: &mut Vec<AbstractEvent>) {
        let host = self.ranks[r].host;
        match self.ranks[r].phase {
            AbstractPhase::Launched | AbstractPhase::Lost => {
                // No live process; nothing observable happens. (The FAIL
                // controller of an empty machine answers `no` before ever
                // reaching a halt, so the explorer does not generate this.)
            }
            AbstractPhase::Booted => {
                // Death before registration: the dispatcher sees only a
                // failed launch and retries — the benign Fig. 9 path.
                events.push(AbstractEvent::OnError { host });
                self.relaunch(r);
            }
            AbstractPhase::Stopping => {
                // Indistinguishable from the expected terminate closure:
                // relaunched like any straggler of the current recovery.
                events.push(AbstractEvent::OnError { host });
                self.relaunch(r);
            }
            AbstractPhase::Registered
            | AbstractPhase::Ready
            | AbstractPhase::Running
            | AbstractPhase::Done => {
                events.push(AbstractEvent::OnError { host });
                events.push(AbstractEvent::FailureDetected {
                    rank: r as u8,
                    during_recovery: self.recovery_active,
                });
                if !self.recovery_active {
                    self.start_recovery(r, events);
                } else {
                    // ======== THE HISTORICAL DISPATCHER BUG ========
                    match self.mode {
                        DispatcherMode::Historical => {
                            self.ranks.make_mut()[r].phase = AbstractPhase::Lost;
                            events.push(AbstractEvent::RankLost { rank: r as u8 });
                        }
                        DispatcherMode::Fixed => {
                            self.reassign_machine(r);
                            self.relaunch(r);
                        }
                    }
                }
            }
        }
    }
}

impl AbstractModel for AbstractVcl {
    fn slots(&self) -> &[AbstractRank] {
        &self.ranks
    }

    /// [`AbstractPhase::Done`] is finalized-but-alive here: the daemon
    /// outlives its MPI process until shutdown.
    fn unit_live(&self, r: usize) -> bool {
        self.ranks[r].phase.process_alive()
    }

    /// Every rank is computing.
    fn all_running(&self) -> bool {
        self.ranks.iter().all(|r| r.phase == AbstractPhase::Running)
    }

    /// The first stale dispatcher entry, if the bug already fired.
    fn lost_rank(&self) -> Option<u8> {
        self.ranks
            .iter()
            .position(|r| r.phase == AbstractPhase::Lost)
            .map(|r| r as u8)
    }

    fn freeze_reason(&self) -> &'static str {
        "stale dispatcher entry"
    }

    fn lost_note(&self, rank: u8) -> String {
        format!("dispatcher files rank {rank} as stopped with no relaunch — stale entry")
    }

    fn recovery_active(&self) -> bool {
        self.recovery_active
    }

    fn wave_startable(&self) -> bool {
        !self.wave_active && self.committed_waves < WAVE_CAP
    }

    fn wave_committable(&self) -> bool {
        self.wave_active
    }

    fn spare_hosts(&self) -> &[u8] {
        &self.free_hosts
    }

    /// The spare-machine FIFO keeps its *order* — queue position is
    /// dispatcher semantics (`reassign_machine` takes the front) — while
    /// its *values* are relabeled.
    fn relabel(&self, host_map: &[u8], rank_map: &[u8]) -> AbstractVcl {
        AbstractVcl {
            ranks: vocab::relabel_slots(&self.ranks, host_map, rank_map),
            free_hosts: vocab::relabel_hosts(&self.free_hosts, host_map),
            recovery_active: self.recovery_active,
            epoch: self.epoch,
            committed_waves: self.committed_waves,
            wave_active: self.wave_active,
            mode: self.mode,
        }
    }

    fn apply(&mut self, step: AbstractStep, events: &mut Vec<AbstractEvent>) {
        match step {
            AbstractStep::Spawn(r) => vocab::spawn(self.ranks.make_mut(), r, events),
            AbstractStep::Register(r) => vocab::register(self.ranks.make_mut(), r),
            AbstractStep::Ready(r) => {
                let ranks = self.ranks.make_mut();
                vocab::ack_ready(ranks, r);
                if ranks.iter().all(|k| k.phase == AbstractPhase::Ready) {
                    // start_run: broadcast, recovery over.
                    for k in ranks {
                        k.phase = AbstractPhase::Running;
                    }
                    self.recovery_active = false;
                }
            }
            AbstractStep::StopClosure(r) => {
                let r = r as usize;
                assert_eq!(self.ranks[r].phase, AbstractPhase::Stopping);
                events.push(AbstractEvent::OnExit {
                    host: self.ranks[r].host,
                });
                // Expected straggler closure: relaunch in place (the local
                // checkpoint image lives there).
                self.relaunch(r);
            }
            AbstractStep::Fault(r) => self.fault(r as usize, events),
            AbstractStep::WaveStart => {
                assert!(self.all_running() && !self.wave_active);
                if self.committed_waves < WAVE_CAP {
                    self.wave_active = true;
                }
            }
            AbstractStep::WaveCommit => {
                assert!(self.wave_active);
                self.wave_active = false;
                self.committed_waves = (self.committed_waves + 1).min(WAVE_CAP);
                events.push(AbstractEvent::CommittedWave(self.committed_waves));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev() -> Vec<AbstractEvent> {
        Vec::new()
    }

    /// Drives the model to the steady all-running state.
    fn boot(m: &mut AbstractVcl) {
        let mut e = ev();
        loop {
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
        assert!(m.all_running());
    }

    #[test]
    fn initial_launch_reaches_running() {
        let mut m = AbstractVcl::new(DispatcherMode::Historical, 3, 4);
        boot(&mut m);
        assert!(!m.recovery_active);
        assert_eq!(m.lost_rank(), None);
    }

    #[test]
    fn single_fault_recovers() {
        let mut m = AbstractVcl::new(DispatcherMode::Historical, 2, 3);
        boot(&mut m);
        let mut e = ev();
        m.apply(AbstractStep::Fault(0), &mut e);
        assert!(m.recovery_active);
        // Victim moved to the spare host and relaunches; survivor stops.
        assert_eq!(m.ranks[0].host, 2);
        assert_eq!(m.ranks[0].phase, AbstractPhase::Launched);
        assert_eq!(m.ranks[1].phase, AbstractPhase::Stopping);
        assert!(e.iter().any(|x| matches!(
            x,
            AbstractEvent::FailureDetected { rank: 0, during_recovery: false }
        )));
        boot(&mut m);
        assert!(!m.recovery_active);
        assert_eq!(m.lost_rank(), None);
    }

    #[test]
    fn second_fault_on_reregistered_rank_is_lost_under_historical() {
        let mut m = AbstractVcl::new(DispatcherMode::Historical, 2, 3);
        boot(&mut m);
        let mut e = ev();
        m.apply(AbstractStep::Fault(0), &mut e);
        // Survivor finishes stopping, respawns and re-registers while the
        // recovery is still active (rank 0 not yet ready).
        m.apply(AbstractStep::StopClosure(1), &mut e);
        m.apply(AbstractStep::Spawn(1), &mut e);
        m.apply(AbstractStep::Register(1), &mut e);
        assert!(m.recovery_active);
        m.apply(AbstractStep::Fault(1), &mut e);
        assert_eq!(m.ranks[1].phase, AbstractPhase::Lost);
        assert_eq!(m.lost_rank(), Some(1));
        assert!(e.iter().any(|x| matches!(x, AbstractEvent::RankLost { rank: 1 })));
        // The fleet can never complete the all-ready barrier again.
        boot_partial(&mut m);
        assert!(m.recovery_active);
    }

    /// Runs protocol steps to exhaustion without requiring all-running.
    fn boot_partial(m: &mut AbstractVcl) {
        let mut e = ev();
        for _ in 0..64 {
            let steps: Vec<AbstractStep> = m.protocol_steps().collect();
            if steps.is_empty() {
                break;
            }
            for s in steps {
                m.apply(s, &mut e);
            }
        }
    }

    #[test]
    fn fixed_mode_relaunches_the_second_victim() {
        let mut m = AbstractVcl::new(DispatcherMode::Fixed, 2, 3);
        boot(&mut m);
        let mut e = ev();
        m.apply(AbstractStep::Fault(0), &mut e);
        m.apply(AbstractStep::StopClosure(1), &mut e);
        m.apply(AbstractStep::Spawn(1), &mut e);
        m.apply(AbstractStep::Register(1), &mut e);
        m.apply(AbstractStep::Fault(1), &mut e);
        assert_eq!(m.ranks[1].phase, AbstractPhase::Launched);
        assert_eq!(m.lost_rank(), None);
        boot(&mut m);
        assert!(!m.recovery_active);
    }

    #[test]
    fn pre_registration_fault_is_benign() {
        let mut m = AbstractVcl::new(DispatcherMode::Historical, 2, 3);
        let mut e = ev();
        m.apply(AbstractStep::Spawn(0), &mut e);
        assert_eq!(m.ranks[0].phase, AbstractPhase::Booted);
        let inc = m.ranks[0].incarnation;
        m.apply(AbstractStep::Fault(0), &mut e);
        assert_eq!(m.ranks[0].phase, AbstractPhase::Launched);
        assert_eq!(m.ranks[0].incarnation, inc + 1);
        // No failure detection: the dispatcher never had a stream.
        assert!(!e
            .iter()
            .any(|x| matches!(x, AbstractEvent::FailureDetected { .. })));
    }

    #[test]
    fn waves_commit_and_abort_on_failure() {
        let mut m = AbstractVcl::new(DispatcherMode::Historical, 2, 3);
        boot(&mut m);
        let mut e = ev();
        m.apply(AbstractStep::WaveStart, &mut e);
        assert!(m.wave_active);
        m.apply(AbstractStep::WaveCommit, &mut e);
        assert_eq!(m.committed_waves, 1);
        assert!(e.contains(&AbstractEvent::CommittedWave(1)));
        m.apply(AbstractStep::WaveStart, &mut e);
        m.apply(AbstractStep::Fault(0), &mut e);
        assert!(!m.wave_active, "a failure aborts the open wave");
    }

    #[test]
    fn incarnations_are_monotone() {
        let mut m = AbstractVcl::new(DispatcherMode::Historical, 2, 3);
        boot(&mut m);
        let mut last = [0u8; 2];
        let mut e = ev();
        for _ in 0..4 {
            m.apply(AbstractStep::Fault(0), &mut e);
            boot(&mut m);
            for (i, r) in m.ranks.iter().enumerate() {
                assert!(r.incarnation >= last[i]);
                last[i] = r.incarnation;
            }
        }
    }
}
