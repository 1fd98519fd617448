//! The cluster's event vocabulary and well-known ports.

use failmpi_net::{HostId, NetEvent, ProcId};
use failmpi_mpi::Rank;
use failmpi_sim::{Fingerprint, FingerprintEvent, Label, PackLabel};

use crate::wire::Wire;

/// Events driving a [`crate::Cluster`].
#[derive(Debug)]
pub enum Ev {
    /// A network event (delivery, handshake, closure…).
    Net(NetEvent<Wire>),
    /// A compute phase of an MPI process finished.
    ComputeDone {
        /// The rank whose process computed.
        rank: Rank,
        /// Its incarnation (guards against stale wake-ups).
        proc: ProcId,
        /// Busy-generation counter (guards against stale wake-ups).
        gen: u64,
    },
    /// Periodic checkpoint-scheduler tick.
    SchedTick,
    /// An ssh launch completed: the daemon process starts on `host`.
    SpawnDaemon {
        /// Rank to start.
        rank: Rank,
        /// Target machine.
        host: HostId,
        /// Execution epoch of the launch.
        epoch: u32,
    },
    /// A checkpoint server finished writing an image to its disk and can
    /// acknowledge the transfer.
    ServerWriteDone {
        /// Server index.
        server: usize,
        /// Stream to acknowledge on.
        conn: failmpi_net::ConnId,
        /// Rank whose image was written.
        rank: Rank,
        /// Wave of the image.
        wave: u32,
    },
    /// A restored process finished its BLCR-style rebuild and resumes.
    RestoreDone {
        /// The restored rank.
        rank: Rank,
        /// Its incarnation.
        proc: ProcId,
    },
    /// A local checkpoint image finished loading from the host disk.
    DiskLoaded {
        /// The restoring rank.
        rank: Rank,
        /// Its incarnation.
        proc: ProcId,
    },
    /// A daemon died before registering; the dispatcher's ssh notices.
    LaunchFailed {
        /// Rank whose launch failed.
        rank: Rank,
        /// Epoch of the failed launch.
        epoch: u32,
    },
    /// V2: a rank's periodic uncoordinated checkpoint is due.
    SelfCkpt {
        /// The checkpointing rank.
        rank: Rank,
        /// Its incarnation.
        proc: ProcId,
    },
    /// A freshly spawned daemon finished its runtime init and dials the
    /// services (dispatcher, scheduler, checkpoint server).
    BootConnect {
        /// Rank of the booting daemon.
        rank: Rank,
        /// Its incarnation.
        proc: ProcId,
    },
    /// A daemon's self-termination completed (process cleanup done).
    DaemonExit {
        /// Rank of the exiting daemon.
        rank: Rank,
        /// Its incarnation.
        proc: ProcId,
        /// Whether this is a clean, ordered exit.
        normal: bool,
    },
    /// A mesh connection attempt failed (peer not up yet); retry.
    RetryPeerConnect {
        /// The connecting rank.
        rank: Rank,
        /// Its incarnation.
        proc: ProcId,
        /// The peer rank to reach.
        peer: Rank,
    },
}

impl FingerprintEvent for Ev {
    fn fold(&self, fp: &mut Fingerprint) {
        // A variant code followed by the addressed daemon incarnation.
        let daemon = |fp: &mut Fingerprint, code: u8, rank: &Rank, proc: &ProcId| {
            fp.write_u8(code);
            fp.write_u32(rank.0);
            fp.write_u32(proc.0);
        };
        match self {
            Ev::Net(net) => {
                fp.write_u8(1);
                net.fold_with(fp, |wire, fp| wire.fold(fp));
            }
            Ev::ComputeDone { rank, proc, gen } => {
                daemon(fp, 2, rank, proc);
                fp.write_u64(*gen);
            }
            Ev::SchedTick => fp.write_u8(3),
            Ev::SpawnDaemon { rank, host, epoch } => {
                fp.write_u8(4);
                fp.write_u32(rank.0);
                fp.write_u32(host.0 as u32);
                fp.write_u32(*epoch);
            }
            Ev::ServerWriteDone {
                server,
                conn,
                rank,
                wave,
            } => {
                fp.write_u8(5);
                fp.write_u64(*server as u64);
                fp.write_u64(conn.0);
                fp.write_u32(rank.0);
                fp.write_u32(*wave);
            }
            Ev::RestoreDone { rank, proc } => daemon(fp, 6, rank, proc),
            Ev::DiskLoaded { rank, proc } => daemon(fp, 7, rank, proc),
            Ev::LaunchFailed { rank, epoch } => {
                fp.write_u8(8);
                fp.write_u32(rank.0);
                fp.write_u32(*epoch);
            }
            Ev::SelfCkpt { rank, proc } => daemon(fp, 9, rank, proc),
            Ev::BootConnect { rank, proc } => daemon(fp, 10, rank, proc),
            Ev::DaemonExit { rank, proc, normal } => {
                daemon(fp, 11, rank, proc);
                fp.write_u8(u8::from(*normal));
            }
            Ev::RetryPeerConnect { rank, proc, peer } => {
                daemon(fp, 12, rank, proc);
                fp.write_u32(peer.0);
            }
        }
    }
}

impl Ev {
    /// The text of an event's short human label, packed by
    /// `Cluster::describe` (the `Debug` form is too verbose for checkpoint
    /// images, which embed whole snapshots). Codes 16 to 26; a network
    /// event keeps its own.
    pub fn render(label: Label) -> String {
        let [a, b, _] = label.args;
        match label.code {
            16 => format!("compute-done r{a}"),
            17 => "sched-tick".to_string(),
            18 => format!("spawn-daemon r{a}"),
            19 => format!("server-write-done r{a} w{b}"),
            20 => format!("restore-done r{a}"),
            21 => format!("disk-loaded r{a}"),
            22 => format!("launch-failed r{a}"),
            23 => format!("self-ckpt r{a}"),
            24 => format!("boot-connect r{a}"),
            25 => format!("daemon-exit r{a} normal={}", b != 0),
            26 => format!("retry-peer r{a}->r{b}"),
            _ => NetEvent::<Wire>::render(label),
        }
    }
}

/// Well-known ports of the deployment.
pub mod ports {
    use failmpi_net::Port;
    use failmpi_mpi::Rank;

    /// The dispatcher's control port.
    pub const DISPATCHER: Port = Port(1);
    /// The checkpoint scheduler's port.
    pub const SCHEDULER: Port = Port(2);

    /// Checkpoint server `idx`'s port.
    pub fn server(idx: usize) -> Port {
        Port(10 + idx as u16)
    }

    /// Daemon mesh port of `rank`.
    pub fn daemon(rank: Rank) -> Port {
        Port(100 + rank.0 as u16)
    }
}

/// Connection tokens used to correlate `connect` calls.
pub mod tokens {
    use failmpi_mpi::Rank;

    /// Daemon → dispatcher control stream.
    pub const DISPATCHER: u64 = 1;
    /// Daemon → checkpoint scheduler stream.
    pub const SCHEDULER: u64 = 2;
    /// Daemon → checkpoint server stream.
    pub const SERVER: u64 = 3;
    /// Scheduler → checkpoint server stream, by server index.
    pub const SCHED_TO_SERVER_BASE: u64 = 100;
    /// Daemon → peer-daemon mesh stream.
    pub const PEER_BASE: u64 = 1000;

    /// The mesh token for connecting to `peer`.
    pub fn peer(peer: Rank) -> u64 {
        PEER_BASE + peer.0 as u64
    }

    /// Inverse of [`peer`], when `tok` is a mesh token.
    pub fn peer_of(tok: u64) -> Option<Rank> {
        tok.checked_sub(PEER_BASE).map(|r| Rank(r as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_roundtrip() {
        let t = tokens::peer(Rank(7));
        assert_eq!(tokens::peer_of(t), Some(Rank(7)));
        assert_eq!(tokens::peer_of(tokens::SERVER), None);
    }

    #[test]
    fn ports_do_not_collide() {
        let mut ports = vec![ports::DISPATCHER, ports::SCHEDULER];
        for s in 0..4 {
            ports.push(ports::server(s));
        }
        for r in 0..64 {
            ports.push(ports::daemon(Rank(r)));
        }
        let n = ports.len();
        ports.sort_by_key(|p| p.0);
        ports.dedup_by_key(|p| p.0);
        assert_eq!(ports.len(), n);
    }
}
