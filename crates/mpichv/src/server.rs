//! The checkpoint server.
//!
//! Paper Sec. 3: checkpoint servers collect the local checkpoints of all MPI
//! processes over pipelined transfers, store the logged in-transit messages
//! next to them, acknowledge complete transfers over the control connection,
//! and retain only one complete global checkpoint at a time (two files used
//! alternately). On restart they serve images (and channel state) back to
//! daemons that lack a local copy.

use std::collections::BTreeMap;

use failmpi_net::{ConnId, ProcId};
use failmpi_sim::{SimDuration, SimTime};
use failmpi_mpi::Rank;

use crate::config::{VProtocol, VclConfig};
use crate::ctx::Facilities;
use crate::event::Ev;
use crate::wire::{LoggedMsg, ProcImage, Wire};

/// One staged (possibly still incomplete) rank checkpoint.
#[derive(Debug)]
struct Staged {
    image: ProcImage,
    logged: Vec<LoggedMsg>,
    complete: bool,
    /// Fully written to the server disk (V2 serves only durable versions).
    durable: bool,
}

/// Which version a rank restarts from, and what the server retains.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Line {
    /// Coordinated (Vcl, Vdummy): the last globally committed wave; a
    /// commit drops every older wave.
    Committed,
    /// Uncoordinated (V2): each rank's own newest durable version; the two
    /// newest versions of each rank are retained.
    PerRank,
}

pub(crate) struct CkptServer {
    pub proc: ProcId,
    /// This server's index (echoed in disk-completion events).
    pub index: usize,
    line: Line,
    /// The last wave the scheduler declared globally complete.
    committed: Option<u32>,
    /// Staged images by `(rank, wave)`; at most two waves alive at a time
    /// (the in-progress one and the committed one) — the two-file scheme.
    staged: BTreeMap<(Rank, u32), Staged>,
    /// When the server disk finishes its current write queue.
    disk_free: SimTime,
}

impl CkptServer {
    pub fn new(proc: ProcId, index: usize, cfg: &VclConfig) -> Self {
        CkptServer {
            proc,
            index,
            line: match cfg.protocol {
                VProtocol::V2 => Line::PerRank,
                VProtocol::Vcl | VProtocol::Vdummy => Line::Committed,
            },
            committed: None,
            staged: BTreeMap::new(),
            disk_free: SimTime::ZERO,
        }
    }

    pub fn on_msg(&mut self, conn: ConnId, wire: Wire, ctx: &mut Facilities) {
        match wire {
            Wire::CkptImage { rank, wave, image } => {
                self.staged.insert(
                    (rank, wave),
                    Staged {
                        image: *image,
                        logged: Vec::new(),
                        complete: false,
                        durable: false,
                    },
                );
            }
            Wire::CkptLogged { rank, wave, msg } => {
                // The image always precedes its logs on the same stream.
                if let Some(s) = self.staged.get_mut(&(rank, wave)) {
                    s.logged.push(msg);
                }
            }
            Wire::CkptControl { rank, wave, total_bytes } => {
                if let Some(s) = self.staged.get_mut(&(rank, wave)) {
                    s.complete = true;
                    // The ack goes out only once the image is safely on the
                    // server disk; writes queue behind each other.
                    let write = SimDuration::from_secs_f64(
                        total_bytes as f64 / ctx.cfg.server_disk_bytes_per_sec as f64,
                    );
                    let done = ctx.now.max(self.disk_free) + write;
                    self.disk_free = done;
                    let at = done.saturating_since(ctx.now);
                    ctx.sched(
                        at,
                        Ev::ServerWriteDone {
                            server: self.index,
                            conn,
                            rank,
                            wave,
                        },
                    );
                }
            }
            Wire::WaveCommit { wave } => {
                self.committed = Some(wave);
                // One complete global checkpoint retained: drop older waves.
                self.staged.retain(|&(_, w), _| w >= wave);
            }
            Wire::QueryLatest { rank } => {
                let wave = self.restart_version(rank);
                ctx.send(conn, self.proc, Wire::Latest { wave });
            }
            Wire::FetchImage { rank } => {
                let wave = self.restart_version(rank).expect("fetch before any restart line");
                let s = &self.staged[&(rank, wave)];
                ctx.send(
                    conn,
                    self.proc,
                    Wire::Image {
                        wave,
                        image: Box::new(s.image.clone()),
                        logged: s.logged.clone(),
                    },
                );
            }
            Wire::FetchLogs { rank } => {
                let wave = self.committed.expect("fetch before any commit");
                let s = &self.staged[&(rank, wave)];
                ctx.send(
                    conn,
                    self.proc,
                    Wire::Logs {
                        wave,
                        logged: s.logged.clone(),
                    },
                );
            }
            other => {
                debug_assert!(false, "unexpected message at server: {other:?}");
            }
        }
    }

    /// The disk write finished: acknowledge the transfer. This also makes
    /// the version restartable; per-rank lines prune older versions of the
    /// same rank (two retained, like the Vcl two-file scheme).
    pub fn on_write_done(&mut self, conn: ConnId, rank: Rank, wave: u32, ctx: &mut Facilities) {
        if let Some(s) = self.staged.get_mut(&(rank, wave)) {
            if s.complete {
                s.durable = true;
                ctx.send(conn, self.proc, Wire::CkptStored { wave });
                if self.line == Line::PerRank {
                    self.staged
                        .retain(|&(r, w), _| r != rank || w + 2 > wave);
                }
            }
        }
    }

    /// The version `rank` restarts from, if any.
    fn restart_version(&self, rank: Rank) -> Option<u32> {
        match self.line {
            // Only report a wave this server can actually serve for the
            // asking rank (it always can once the commit arrived, since
            // commit implies every ack → every image).
            Line::Committed => {
                let wave = self
                    .committed
                    .filter(|&w| self.staged.contains_key(&(rank, w)));
                debug_assert_eq!(
                    wave, self.committed,
                    "committed wave lacks an image for {rank:?}"
                );
                wave
            }
            Line::PerRank => self
                .staged
                .iter()
                .filter(|(&(r, _), s)| r == rank && s.durable)
                .map(|(&(_, w), _)| w)
                .max(),
        }
    }

    /// The last committed wave this server knows of (diagnostic).
    pub fn committed(&self) -> Option<u32> {
        self.committed
    }

    /// Number of staged rank-images (diagnostic; bounded by 2 × ranks).
    pub fn staged_count(&self) -> usize {
        self.staged.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Ev;
    use crate::testutil::{connect_pair, world};
    use failmpi_mpi::{Interp, ProgramBuilder, Tag};
    use failmpi_sim::SimTime;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn image(bytes: u64) -> Box<ProcImage> {
        Box::new(ProcImage::plain(Interp::new(
            Rank(0),
            ProgramBuilder::new(bytes).finalize(),
        )))
    }

    fn store_image(
        srv: &mut CkptServer,
        w: &mut Facilities,
        rank: Rank,
        wave: u32,
        bytes: u64,
        at: SimTime,
    ) {
        let conn = ConnId(rank.0 as u64);
        srv.on_msg(
            conn,
            Wire::CkptImage { rank, wave, image: image(bytes) },
            w.at(at),
        );
        srv.on_msg(
            conn,
            Wire::CkptControl { rank, wave, total_bytes: bytes },
            w.at(at),
        );
    }

    #[test]
    fn ack_waits_for_the_disk_and_writes_queue() {
        let mut w = world(6);
        let mut srv = CkptServer::new(ProcId(0), 0, &w.cfg);
        // Two 65 MB images arrive back to back: with the default 65 MB/s
        // server disk the acks are scheduled 1 s and 2 s out.
        store_image(&mut srv, &mut w, Rank(0), 1, 65_000_000, t(10));
        store_image(&mut srv, &mut w, Rank(1), 1, 65_000_000, t(10));
        let writes: Vec<SimTime> = w
            .chassis
            .out
            .iter()
            .filter_map(|(at, ev)| matches!(ev, Ev::ServerWriteDone { .. }).then_some(*at))
            .collect();
        assert_eq!(writes, vec![t(11), t(12)]);
    }

    #[test]
    fn commit_prunes_older_waves() {
        let mut w = world(6);
        let mut srv = CkptServer::new(ProcId(0), 0, &w.cfg);
        store_image(&mut srv, &mut w, Rank(0), 1, 100, t(1));
        store_image(&mut srv, &mut w, Rank(0), 2, 100, t(2));
        assert_eq!(srv.staged_count(), 2);
        srv.on_msg(ConnId(9), Wire::WaveCommit { wave: 2 }, w.at(t(3)));
        assert_eq!(srv.committed(), Some(2));
        assert_eq!(srv.staged_count(), 1, "wave 1 must be pruned");
    }

    #[test]
    fn logged_messages_ride_with_the_image() {
        let mut w = world(6);
        let (sproc, _client, conn) = connect_pair(&mut w);
        let mut srv = CkptServer::new(sproc, 0, &w.cfg);
        store_image(&mut srv, &mut w, Rank(0), 1, 100, t(1));
        srv.on_msg(
            conn,
            Wire::CkptLogged {
                rank: Rank(0),
                wave: 1,
                msg: LoggedMsg { from: Rank(1), tag: Tag(0), bytes: 42 },
            },
            w.at(t(1)),
        );
        srv.on_msg(ConnId(9), Wire::WaveCommit { wave: 1 }, w.at(t(2)));
        // Fetch returns the image plus its channel state.
        w.chassis.out.clear();
        w.net.take_events();
        srv.on_msg(conn, Wire::FetchImage { rank: Rank(0) }, w.at(t(3)));
        // The reply rides the network; it must carry the logged bytes.
        let sent = w.net.take_events();
        assert_eq!(sent.len(), 1);
        match &sent[0].1 {
            failmpi_net::NetEvent::Delivered { payload: Wire::Image { wave, logged, .. }, .. } => {
                assert_eq!(*wave, 1);
                assert_eq!(logged.len(), 1);
                assert_eq!(logged[0].bytes, 42);
            }
            other => panic!("expected Image, got {other:?}"),
        }
    }

    #[test]
    fn query_latest_reports_committed_wave_only() {
        let mut w = world(6);
        let (sproc, _client, conn) = connect_pair(&mut w);
        let mut srv = CkptServer::new(sproc, 0, &w.cfg);
        store_image(&mut srv, &mut w, Rank(0), 1, 100, t(1));
        // Nothing committed yet.
        srv.on_msg(conn, Wire::QueryLatest { rank: Rank(0) }, w.at(t(2)));
        srv.on_msg(ConnId(9), Wire::WaveCommit { wave: 1 }, w.at(t(3)));
        srv.on_msg(conn, Wire::QueryLatest { rank: Rank(0) }, w.at(t(4)));
        let replies: Vec<Option<u32>> = w
            .net
            .take_events()
            .into_iter()
            .filter_map(|(_, ev)| match ev {
                failmpi_net::NetEvent::Delivered { payload: Wire::Latest { wave }, .. } => {
                    Some(wave)
                }
                _ => None,
            })
            .collect();
        assert_eq!(replies, vec![None, Some(1)]);
    }
}
