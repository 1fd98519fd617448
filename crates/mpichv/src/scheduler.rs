//! The checkpoint scheduler.
//!
//! Paper Sec. 3: "The checkpoint scheduler manages the different checkpoint
//! waves. It regularly sends markers to every MPI process. … It then waits
//! for an acknowledgment of the end of the checkpoint from every MPI process
//! before asserting the end of the global checkpoint to the checkpoint
//! servers. The checkpoint scheduler starts a new checkpoint wave only after
//! the end of the previous one."

use std::collections::{BTreeSet, HashSet};

use failmpi_net::{ConnId, ProcId};
use failmpi_mpi::Rank;

use crate::config::{VProtocol, VclConfig};
use crate::ctx::Facilities;
use crate::event::tokens;
use crate::trace::VclEvent;
use crate::wire::Wire;

pub(crate) struct CkptScheduler {
    pub proc: ProcId,
    n_ranks: u32,
    /// Whether this deployment checkpoints in coordinated waves at all
    /// (Vcl); V2 checkpoints per rank, Vdummy not at all.
    opens_waves: bool,
    /// Streams to the checkpoint servers (established at boot).
    server_conns: Vec<Option<ConnId>>,
    /// Streams accepted from daemons.
    daemon_conns: BTreeSet<ConnId>,
    /// The next wave number to open (waves are 1-based).
    next_wave: u32,
    /// The wave currently collecting acknowledgements.
    in_progress: Option<(u32, HashSet<Rank>)>,
}

impl CkptScheduler {
    pub fn new(proc: ProcId, cfg: &VclConfig) -> Self {
        CkptScheduler {
            proc,
            n_ranks: cfg.n_ranks,
            opens_waves: cfg.protocol == VProtocol::Vcl,
            server_conns: vec![None; cfg.n_ckpt_servers],
            daemon_conns: BTreeSet::new(),
            next_wave: 1,
            in_progress: None,
        }
    }

    /// Connects to every checkpoint server (called once at cluster start).
    pub fn boot(&mut self, ctx: &mut Facilities) {
        for (idx, &host) in ctx.addrs.server_hosts.clone().iter().enumerate() {
            ctx.net.connect(
                ctx.now,
                self.proc,
                host,
                crate::event::ports::server(idx),
                tokens::SCHED_TO_SERVER_BASE + idx as u64,
            );
        }
    }

    pub fn on_conn_established(&mut self, conn: ConnId, token: u64) {
        if let Some(idx) = token.checked_sub(tokens::SCHED_TO_SERVER_BASE) {
            self.server_conns[idx as usize] = Some(conn);
        }
    }

    /// A daemon connected to the scheduler port.
    pub fn on_daemon_conn(&mut self, conn: ConnId) {
        self.daemon_conns.insert(conn);
    }

    /// Any stream closed: a daemon died (or exited). An in-flight wave can
    /// no longer complete — abort it; the committed wave is untouched.
    pub fn on_closed(&mut self, conn: ConnId) {
        if self.daemon_conns.remove(&conn) {
            self.in_progress = None;
        }
    }

    /// Periodic tick: open a new wave when the previous one is done and
    /// every daemon is connected.
    pub fn on_tick(&mut self, ctx: &mut Facilities) {
        if !self.opens_waves
            || self.in_progress.is_some()
            || self.daemon_conns.len() != self.n_ranks as usize
        {
            return;
        }
        let wave = self.next_wave;
        self.next_wave += 1;
        let conns: Vec<ConnId> = self.daemon_conns.iter().copied().collect();
        for conn in conns {
            ctx.send(conn, self.proc, Wire::SchedMarker { wave });
        }
        self.in_progress = Some((wave, HashSet::new()));
        ctx.trace(VclEvent::WaveStarted { wave });
    }

    pub fn on_msg(&mut self, wire: Wire, ctx: &mut Facilities) {
        if let Wire::WaveAck { rank, wave } = wire {
            let complete = match &mut self.in_progress {
                Some((w, acks)) if *w == wave => {
                    acks.insert(rank);
                    acks.len() == self.n_ranks as usize
                }
                _ => false, // stale ack from an aborted wave
            };
            if complete {
                self.in_progress = None;
                for conn in self.server_conns.clone().into_iter().flatten() {
                    ctx.send(conn, self.proc, Wire::WaveCommit { wave });
                }
                ctx.trace(VclEvent::WaveCommitted { wave });
            }
        }
    }

    /// Whether a wave is currently collecting acks.
    #[cfg(test)]
    pub fn wave_in_progress(&self) -> bool {
        self.in_progress.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::world;
    use failmpi_net::ProcId;
    use failmpi_sim::SimTime;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// The last wave the scheduler recorded as globally committed.
    fn committed(w: &Facilities) -> Option<u32> {
        w.chassis
            .trace()
            .entries()
            .iter()
            .rev()
            .find_map(|e| match e.kind {
                VclEvent::WaveCommitted { wave } => Some(wave),
                _ => None,
            })
    }

    fn scheduler(w: &Facilities, n_ranks: u32) -> CkptScheduler {
        let cfg = VclConfig {
            n_ranks,
            n_ckpt_servers: 1,
            ..w.cfg.clone()
        };
        CkptScheduler::new(ProcId(0), &cfg)
    }

    fn sched_with_conns(w: &mut Facilities, n: u32) -> (CkptScheduler, Vec<ConnId>) {
        let mut s = scheduler(w, n);
        let conns: Vec<ConnId> = (0..n as u64).map(ConnId).collect();
        for &c in &conns {
            s.on_daemon_conn(c);
        }
        (s, conns)
    }

    #[test]
    fn no_wave_until_all_daemons_connected() {
        let mut w = world(6);
        let mut s = scheduler(&w, 3);
        s.on_daemon_conn(ConnId(1));
        s.on_daemon_conn(ConnId(2));
        s.on_tick(w.at(t(30)));
        assert!(!s.wave_in_progress(), "2 of 3 daemons must not start a wave");
        s.on_daemon_conn(ConnId(3));
        s.on_tick(w.at(t(60)));
        assert!(s.wave_in_progress());
    }

    #[test]
    fn commit_requires_every_ack_and_is_single_shot() {
        let mut w = world(6);
        let (mut s, _) = sched_with_conns(&mut w, 3);
        s.on_tick(w.at(t(30)));
        s.on_msg(Wire::WaveAck { rank: Rank(0), wave: 1 }, w.at(t(31)));
        s.on_msg(Wire::WaveAck { rank: Rank(1), wave: 1 }, w.at(t(31)));
        assert_eq!(committed(&w), None, "commit before the last ack");
        // Duplicate acks from the same rank must not count twice.
        s.on_msg(Wire::WaveAck { rank: Rank(1), wave: 1 }, w.at(t(32)));
        assert_eq!(committed(&w), None, "duplicate ack counted");
        s.on_msg(Wire::WaveAck { rank: Rank(2), wave: 1 }, w.at(t(33)));
        assert_eq!(committed(&w), Some(1));
        assert!(!s.wave_in_progress());
    }

    #[test]
    fn no_overlapping_waves() {
        let mut w = world(6);
        let (mut s, _) = sched_with_conns(&mut w, 2);
        s.on_tick(w.at(t(30)));
        assert!(s.wave_in_progress());
        // The next tick is skipped while wave 1 collects acks.
        s.on_tick(w.at(t(60)));
        s.on_msg(Wire::WaveAck { rank: Rank(0), wave: 1 }, w.at(t(61)));
        s.on_msg(Wire::WaveAck { rank: Rank(1), wave: 1 }, w.at(t(61)));
        assert_eq!(committed(&w), Some(1));
        // Only now can the next tick open wave 2.
        s.on_tick(w.at(t(90)));
        assert!(s.wave_in_progress());
    }

    #[test]
    fn daemon_closure_aborts_wave_but_keeps_commit() {
        let mut w = world(6);
        let (mut s, conns) = sched_with_conns(&mut w, 2);
        s.on_tick(w.at(t(30)));
        s.on_msg(Wire::WaveAck { rank: Rank(0), wave: 1 }, w.at(t(31)));
        s.on_msg(Wire::WaveAck { rank: Rank(1), wave: 1 }, w.at(t(31)));
        assert_eq!(committed(&w), Some(1));
        s.on_tick(w.at(t(60)));
        assert!(s.wave_in_progress());
        // A daemon dies mid-wave: the wave aborts, the commit survives.
        s.on_closed(conns[0]);
        assert!(!s.wave_in_progress());
        assert_eq!(committed(&w), Some(1));
        // Stale acks from the aborted wave are ignored.
        s.on_msg(Wire::WaveAck { rank: Rank(1), wave: 2 }, w.at(t(62)));
        assert_eq!(committed(&w), Some(1));
    }

    #[test]
    fn vdummy_never_ticks() {
        let mut w = world(6);
        w.cfg.protocol = VProtocol::Vdummy;
        let (mut s, _) = sched_with_conns(&mut w, 2);
        s.on_tick(w.at(t(30)));
        assert!(!s.wave_in_progress());
        assert_eq!(committed(&w), None);
    }
}
