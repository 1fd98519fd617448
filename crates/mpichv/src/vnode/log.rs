//! The message-logging part of a daemon: MPICH-V2's pessimistic
//! sender-based logging with uncoordinated per-rank checkpoints.
//!
//! Every application message is numbered on its sender→receiver stream and
//! kept in the sender's log. Each rank checkpoints on its own period,
//! shipping its image together with its stream positions and its log. A
//! failure restarts only the failed rank (a *solo* restart): it reloads its
//! newest checkpoint and asks every peer to replay its log from the
//! restored positions, while the duplicates its re-execution sends are
//! dropped by sequence number on the receiving side.

use std::collections::BTreeMap;

use failmpi_mpi::{Rank, Tag};
use failmpi_net::ConnId;

use super::{Part, Phase, VNode};
use crate::ctx::Facilities;
use crate::event::Ev;
use crate::wire::{ProcImage, Wire};

#[derive(Default)]
pub(super) struct Log {
    /// Next expected sequence number per incoming peer stream.
    recv_seq: BTreeMap<Rank, u64>,
    /// The sender-side message log `(to, tag, bytes, seq)`. (The real V2
    /// prunes on checkpoint acks; the simulated log is virtual memory, so
    /// we keep it all.)
    send_log: Vec<(Rank, Tag, u64, u64)>,
    /// Out-of-order arrivals held until the stream gap closes.
    reorder: BTreeMap<Rank, BTreeMap<u64, (Tag, u64)>>,
    /// Per-rank checkpoint version counter.
    version: u32,
    /// This boot is a single-rank restart.
    pub(super) solo: bool,
    /// Replay requests that arrived before our restore finished.
    pending_replay: Vec<(Rank, u64)>,
}

impl Log {
    /// In-order delivery with duplicate suppression: `seq` below the
    /// expected cursor is a re-execution duplicate (dropped); at the cursor
    /// it is deliverable, with any buffered successors; above it it is held
    /// until the gap closes (replay racing fresh traffic on a new stream).
    /// Returns what is now deliverable, in stream order.
    pub(super) fn receive(&mut self, from: Rank, tag: Tag, bytes: u64, seq: u64) -> Vec<(Tag, u64)> {
        let expected = self.recv_seq.entry(from).or_insert(0);
        if seq < *expected {
            return Vec::new(); // duplicate from a re-execution
        }
        if seq > *expected {
            self.reorder.entry(from).or_default().insert(seq, (tag, bytes));
            return Vec::new();
        }
        let mut cursor = seq + 1;
        let mut deliveries = vec![(tag, bytes)];
        if let Some(buf) = self.reorder.get_mut(&from) {
            while let Some((t, b)) = buf.remove(&cursor) {
                deliveries.push((t, b));
                cursor += 1;
            }
        }
        self.recv_seq.insert(from, cursor);
        deliveries
    }

    /// Pessimistic sender-based logging: keep a sent message for a
    /// possible receiver restart.
    pub(super) fn record(&mut self, to: Rank, tag: Tag, bytes: u64, seq: u64) {
        self.send_log.push((to, tag, bytes, seq));
    }

    /// An image of `from_wave` (none: a fresh start) was installed with
    /// these incoming stream positions and this log.
    pub(super) fn restored(
        &mut self,
        recv_seq: Vec<(Rank, u64)>,
        send_log: Vec<(Rank, Tag, u64, u64)>,
        from_wave: Option<u32>,
    ) {
        self.recv_seq = recv_seq.into_iter().collect();
        self.send_log = send_log;
        self.version = from_wave.unwrap_or(0);
    }
}

impl VNode {
    /// Tells `peer` where its stream to us stood, so it replays the
    /// in-flight window from its log: after our own solo restart, or when
    /// a restarted `peer` re-dials us (its re-execution regenerates the
    /// rest).
    pub(super) fn ask_replay(&self, conn: ConnId, peer: Rank, ctx: &mut Facilities) {
        if let Part::Log(log) = &self.part {
            let seq = log.recv_seq.get(&peer).copied().unwrap_or(0);
            ctx.send(conn, self.proc, Wire::ReplayFrom { rank: self.rank, seq });
        }
    }

    /// `rank` wants our log from `seq` on. Serve it from any phase where the
    /// log is valid — including `Finalized`: a daemon whose MPI process
    /// already completed still holds the log its peers may roll back
    /// behind. Only a restore in flight (log not reloaded yet) defers.
    pub(super) fn on_replay_from(&mut self, rank: Rank, seq: u64, ctx: &mut Facilities) {
        let restoring = self.restore.is_some() || self.pending_install.is_some();
        match &mut self.part {
            Part::Log(log) if restoring => log.pending_replay.push((rank, seq)),
            Part::Log(_) => self.replay_to(rank, seq, ctx),
            Part::Waves(_) => debug_assert!(false, "ReplayFrom outside V2"),
        }
    }

    /// Resends every logged message for `rank` with sequence ≥ `seq`.
    fn replay_to(&self, rank: Rank, seq: u64, ctx: &mut Facilities) {
        let (Part::Log(log), Some(&conn)) = (&self.part, self.peer_conn.get(rank.0)) else {
            return;
        };
        for &(to, tag, bytes, s) in &log.send_log {
            if to == rank && s >= seq {
                let from = self.rank;
                ctx.send(conn, self.proc, Wire::AppMsg { from, tag, bytes, seq: s });
            }
        }
    }

    /// Back in the fleet after an install: ask for the replay a solo
    /// restart needs, serve the replays deferred while restoring, and start
    /// the periodic self-checkpoints.
    pub(super) fn rejoin(&mut self, ctx: &mut Facilities) {
        let Part::Log(log) = &mut self.part else {
            return;
        };
        let pending = std::mem::take(&mut log.pending_replay);
        if log.solo {
            // Every peer replays from our restored stream positions
            // (messages in flight when we died, plus anything they sent
            // while we were down).
            for (peer, &conn) in self.peer_conn.iter() {
                self.ask_replay(conn, Rank(peer), ctx);
            }
        }
        for (peer, seq) in pending {
            self.replay_to(peer, seq, ctx);
        }
        // Uncoordinated periodic checkpoints, staggered by rank so the
        // server sees a spread load rather than coordinated bursts.
        let stagger =
            ctx.cfg.checkpoint_period * self.rank.0 as u64 / self.n_ranks.max(1) as u64;
        let (rank, proc) = (self.rank, self.proc);
        ctx.sched(ctx.cfg.checkpoint_period + stagger, Ev::SelfCkpt { rank, proc });
    }

    /// Takes an uncoordinated per-rank checkpoint and ships it.
    pub fn on_self_ckpt(&mut self, ctx: &mut Facilities) {
        let (Part::Log(log), Phase::Running, Some(interp)) =
            (&mut self.part, self.phase, self.interp.as_ref())
        else {
            return;
        };
        log.version += 1;
        let image = ProcImage {
            interp: interp.clone(),
            send_seq: self.send_seq.iter().map(|(r, &v)| (Rank(r), v)).collect(),
            recv_seq: log.recv_seq.iter().map(|(&r, &v)| (r, v)).collect(),
            send_log: log.send_log.clone(),
        };
        let version = log.version;
        self.ship_image(version, image, ctx);
        let (rank, proc) = (self.rank, self.proc);
        ctx.sched(ctx.cfg.checkpoint_period, Ev::SelfCkpt { rank, proc });
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::config::{VProtocol, VclConfig};
    use crate::testutil::{connect_pair, world};
    use failmpi_mpi::{Interp, ProgramBuilder};
    use failmpi_net::NetEvent;
    use failmpi_sim::SimTime;

    #[test]
    fn v2_image_lists_the_peers_sent_to_and_a_parked_arrival_keeps_its_cursor() {
        let mut w = world(8);
        w.cfg.protocol = VProtocol::V2;
        let (_server, proc, server_conn) = connect_pair(&mut w);
        let program = ProgramBuilder::new(1000)
            .send(Rank(3), Tag(0), 8)
            .send(Rank(0), Tag(0), 8)
            .send(Rank(3), Tag(1), 8)
            .recv(Rank(2), Tag(0))
            .finalize();
        let host = w.addrs.compute_hosts[1];
        let cfg = VclConfig {
            n_ranks: 4,
            ..w.cfg.clone()
        };
        let mut v = VNode::new(Rank(1), proc, host, 0, Arc::clone(&program), &cfg);
        v.phase = Phase::Running;
        v.server_conn = Some(server_conn);
        v.interp = Some(Interp::new(Rank(1), program));
        let now = SimTime::from_secs(1);

        // Three sends to two peers, then the process blocks on rank 2.
        v.pump(w.at(now));
        assert_eq!(v.ops.sends.get(), 3);
        // Rank 2's second message overtakes its first: parked, not delivered.
        let early = Wire::AppMsg {
            from: Rank(2),
            tag: Tag(0),
            bytes: 8,
            seq: 1,
        };
        v.on_msg(ConnId(77), early, w.at(now));
        assert_eq!(v.ops.recvs.get(), 0);
        let Part::Log(log) = &v.part else {
            panic!("V2 runs the logging part");
        };
        assert_eq!(log.reorder[&Rank(2)].len(), 1);

        v.on_self_ckpt(w.at(now));
        let image = w
            .net
            .take_events()
            .into_iter()
            .find_map(|(_, ev)| match ev {
                NetEvent::Delivered {
                    payload: Wire::CkptImage { image, .. },
                    ..
                } => Some(image),
                _ => None,
            })
            .expect("the image went to the checkpoint server");
        // Ascending by peer, a peer listed iff something was sent to it.
        assert_eq!(image.send_seq, [(Rank(0), 1), (Rank(3), 2)]);
        // The parked arrival created rank 2's cursor and left it at 0.
        assert_eq!(image.recv_seq, [(Rank(2), 0)]);
        assert_eq!(image.send_log.len(), 3);
    }
}
