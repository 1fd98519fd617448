//! The wire protocol between MPICH-Vcl components.
//!
//! One enum covers every stream in the deployment (Fig. 2(b) of the paper):
//! daemon ↔ dispatcher, daemon ↔ checkpoint scheduler, daemon ↔ checkpoint
//! server, scheduler → server, and daemon ↔ daemon. Checkpoint images ride
//! the wire as boxed interpreter snapshots — the simulation's stand-in for
//! the BLCR image byte stream — while [`Wire::wire_bytes`] gives each
//! message the size the bandwidth model charges for it.

use failmpi_mpi::{Interp, Rank, Tag};
use failmpi_sim::{Fingerprint, FingerprintEvent};

/// A complete restartable process image: the interpreter snapshot plus the
/// per-peer stream positions (needed by the V2 protocol; empty under Vcl,
/// whose global rollback resets every stream).
#[derive(Clone, Debug)]
pub struct ProcImage {
    /// The BLCR-style interpreter snapshot.
    pub interp: Interp,
    /// Next sequence number to assign per outgoing peer stream.
    pub send_seq: Vec<(Rank, u64)>,
    /// Next sequence number expected per incoming peer stream.
    pub recv_seq: Vec<(Rank, u64)>,
    /// V2: the daemon's sender-side log `(to, tag, bytes, seq)` as of the
    /// snapshot. Covers messages sent *before* the checkpoint that might
    /// still be undelivered when the sender dies (re-execution regenerates
    /// only post-checkpoint sends).
    pub send_log: Vec<(Rank, Tag, u64, u64)>,
}

impl ProcImage {
    /// Wraps a bare interpreter snapshot (the Vcl case).
    pub fn plain(interp: Interp) -> Self {
        ProcImage {
            interp,
            send_seq: Vec::new(),
            recv_seq: Vec::new(),
            send_log: Vec::new(),
        }
    }

    /// Total bytes of the image (the interpreter dominates).
    pub fn image_bytes(&self) -> u64 {
        self.interp.image_bytes()
    }
}

/// A message logged by a daemon during a checkpoint wave (Chandy–Lamport
/// channel state): metadata of an application message that was in transit
/// when the global snapshot line passed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LoggedMsg {
    /// Original sender.
    pub from: Rank,
    /// Application tag.
    pub tag: Tag,
    /// Payload size.
    pub bytes: u64,
}

/// Size of a bare protocol header on the wire.
pub const HDR_BYTES: u64 = 64;

/// Everything that can travel on a stream in an MPICH-Vcl deployment.
#[derive(Clone, Debug)]
pub enum Wire {
    // ----- daemon → dispatcher -----
    /// First message of a freshly started daemon: "I am rank r of epoch e".
    Register {
        /// The daemon's rank.
        rank: Rank,
        /// The execution epoch the daemon was launched for.
        epoch: u32,
    },
    /// Acknowledges that `localMPI_setCommand` completed and the node is
    /// operational.
    Ready {
        /// The acknowledging rank.
        rank: Rank,
    },
    /// This rank's MPI process called `MPI_Finalize`.
    Finalized {
        /// The finalizing rank.
        rank: Rank,
    },

    // ----- dispatcher → daemon -----
    /// The initial-argument exchange; on receipt the daemon calls
    /// `localMPI_setCommand` (the instrumentable function of the paper's
    /// Fig. 10 scenario).
    SetCommand {
        /// Epoch this command belongs to.
        epoch: u32,
    },
    /// All ranks are ready: connect the daemon mesh, restore state if
    /// needed, and run. Carries the process table (rank → machine), which
    /// changes across recoveries when a victim moves to a spare machine.
    StartRun {
        /// Epoch being started.
        epoch: u32,
        /// Machine of each rank, rank-indexed.
        hosts: Vec<failmpi_net::HostId>,
        /// V2 single-rank restart: only the receiver (re)starts; the rest
        /// of the fleet keeps running.
        solo: bool,
    },
    /// Stop order during failure handling: the daemon kills itself and its
    /// MPI process.
    Terminate,
    /// Normal end of job: exit cleanly.
    Shutdown,

    // ----- scheduler ↔ daemon -----
    /// The checkpoint scheduler opens wave `wave`.
    SchedMarker {
        /// Wave number.
        wave: u32,
    },
    /// A daemon finished its local checkpoint for `wave`.
    WaveAck {
        /// Acknowledging rank.
        rank: Rank,
        /// Wave number.
        wave: u32,
    },

    // ----- scheduler → server -----
    /// Every rank acked `wave`: it is now the restart line; prune older.
    WaveCommit {
        /// Committed wave number.
        wave: u32,
    },

    // ----- daemon ↔ daemon -----
    /// Chandy–Lamport marker for `wave` (sent on every outgoing channel
    /// right after the local checkpoint starts).
    Marker {
        /// Wave number.
        wave: u32,
    },
    /// An application (MPI) message. `seq` numbers the sender→receiver
    /// stream (used for duplicate suppression and replay under V2; always
    /// increasing under Vcl but unused there).
    AppMsg {
        /// Sending rank.
        from: Rank,
        /// Application tag.
        tag: Tag,
        /// Application payload size.
        bytes: u64,
        /// Per-stream sequence number.
        seq: u64,
    },
    /// V2: a restarted rank announces the next sequence number it expects
    /// from this peer; the peer resends its logged messages from there.
    ReplayFrom {
        /// The restarted rank.
        rank: Rank,
        /// First sequence number to resend.
        seq: u64,
    },

    // ----- daemon → server -----
    /// The pipelined checkpoint-image transfer (fork + read + send in the
    /// real system; one sized message here).
    CkptImage {
        /// Checkpointing rank.
        rank: Rank,
        /// Wave number (Vcl) or per-rank checkpoint version (V2).
        wave: u32,
        /// The process image.
        image: Box<ProcImage>,
    },
    /// One logged in-transit message, streamed as it is recorded.
    CkptLogged {
        /// Logging rank.
        rank: Rank,
        /// Wave number.
        wave: u32,
        /// The logged message.
        msg: LoggedMsg,
    },
    /// End of image transfer (the control-connection size report).
    CkptControl {
        /// Checkpointing rank.
        rank: Rank,
        /// Wave number.
        wave: u32,
        /// Total image bytes transferred.
        total_bytes: u64,
    },
    /// Which wave should this rank restart from?
    QueryLatest {
        /// Asking rank.
        rank: Rank,
    },
    /// Fetch the full image + logged messages for `rank` at the committed
    /// wave (the no-local-copy restart path).
    FetchImage {
        /// Asking rank.
        rank: Rank,
    },
    /// Fetch only the logged messages (the local-disk restart path still
    /// needs the channel state, which lives on the server).
    FetchLogs {
        /// Asking rank.
        rank: Rank,
    },

    // ----- server → daemon -----
    /// The server stored the image for `wave` (control-connection ack).
    CkptStored {
        /// Wave number.
        wave: u32,
    },
    /// Answer to `QueryLatest`: the last *complete* global checkpoint, or
    /// `None` when no wave ever committed (restart from scratch).
    Latest {
        /// Committed wave, if any.
        wave: Option<u32>,
    },
    /// Answer to `FetchImage`.
    Image {
        /// Wave of the image.
        wave: u32,
        /// The process image.
        image: Box<ProcImage>,
        /// Channel state to replay.
        logged: Vec<LoggedMsg>,
    },
    /// Answer to `FetchLogs`.
    Logs {
        /// Wave of the logs.
        wave: u32,
        /// Channel state to replay.
        logged: Vec<LoggedMsg>,
    },
}

impl FingerprintEvent for LoggedMsg {
    fn fold(&self, fp: &mut Fingerprint) {
        fp.write_u32(self.from.0);
        fp.write_u32(self.tag.0 as u32);
        fp.write_u64(self.bytes);
    }
}

impl FingerprintEvent for ProcImage {
    fn fold(&self, fp: &mut Fingerprint) {
        fp.write_u64(self.image_bytes());
        fp.write_u64(self.send_seq.len() as u64);
        for (r, s) in &self.send_seq {
            fp.write_u32(r.0);
            fp.write_u64(*s);
        }
        fp.write_u64(self.recv_seq.len() as u64);
        for (r, s) in &self.recv_seq {
            fp.write_u32(r.0);
            fp.write_u64(*s);
        }
        fp.write_u64(self.send_log.len() as u64);
        for (r, t, b, s) in &self.send_log {
            fp.write_u32(r.0);
            fp.write_u32(t.0 as u32);
            fp.write_u64(*b);
            fp.write_u64(*s);
        }
    }
}

impl FingerprintEvent for Wire {
    fn fold(&self, fp: &mut Fingerprint) {
        // A variant code followed by one `u32` (a rank, epoch or wave).
        let tagged = |fp: &mut Fingerprint, code: u8, value: u32| {
            fp.write_u8(code);
            fp.write_u32(value);
        };
        match self {
            Wire::Register { rank, epoch } => {
                tagged(fp, 1, rank.0);
                fp.write_u32(*epoch);
            }
            Wire::Ready { rank } => tagged(fp, 2, rank.0),
            Wire::Finalized { rank } => tagged(fp, 3, rank.0),
            Wire::SetCommand { epoch } => tagged(fp, 4, *epoch),
            Wire::StartRun { epoch, hosts, solo } => {
                tagged(fp, 5, *epoch);
                fp.write_u64(hosts.len() as u64);
                for h in hosts {
                    fp.write_u32(h.0 as u32);
                }
                fp.write_u8(u8::from(*solo));
            }
            Wire::Terminate => fp.write_u8(6),
            Wire::Shutdown => fp.write_u8(7),
            Wire::SchedMarker { wave } => tagged(fp, 8, *wave),
            Wire::WaveAck { rank, wave } => {
                tagged(fp, 9, rank.0);
                fp.write_u32(*wave);
            }
            Wire::WaveCommit { wave } => tagged(fp, 10, *wave),
            Wire::Marker { wave } => tagged(fp, 11, *wave),
            Wire::AppMsg {
                from,
                tag,
                bytes,
                seq,
            } => {
                tagged(fp, 12, from.0);
                fp.write_u32(tag.0 as u32);
                fp.write_u64(*bytes);
                fp.write_u64(*seq);
            }
            Wire::ReplayFrom { rank, seq } => {
                tagged(fp, 13, rank.0);
                fp.write_u64(*seq);
            }
            Wire::CkptImage { rank, wave, image } => {
                tagged(fp, 14, rank.0);
                fp.write_u32(*wave);
                image.fold(fp);
            }
            Wire::CkptLogged { rank, wave, msg } => {
                tagged(fp, 15, rank.0);
                fp.write_u32(*wave);
                msg.fold(fp);
            }
            Wire::CkptControl {
                rank,
                wave,
                total_bytes,
            } => {
                tagged(fp, 16, rank.0);
                fp.write_u32(*wave);
                fp.write_u64(*total_bytes);
            }
            Wire::QueryLatest { rank } => tagged(fp, 17, rank.0),
            Wire::FetchImage { rank } => tagged(fp, 18, rank.0),
            Wire::FetchLogs { rank } => tagged(fp, 19, rank.0),
            Wire::CkptStored { wave } => tagged(fp, 20, *wave),
            Wire::Latest { wave } => {
                fp.write_u8(21);
                match wave {
                    Some(w) => tagged(fp, 1, *w),
                    None => fp.write_u8(0),
                }
            }
            Wire::Image {
                wave,
                image,
                logged,
            } => {
                tagged(fp, 22, *wave);
                image.fold(fp);
                fp.write_u64(logged.len() as u64);
                for m in logged {
                    m.fold(fp);
                }
            }
            Wire::Logs { wave, logged } => {
                tagged(fp, 23, *wave);
                fp.write_u64(logged.len() as u64);
                for m in logged {
                    m.fold(fp);
                }
            }
        }
    }
}

impl Wire {
    /// The size the bandwidth model charges for this message.
    pub fn wire_bytes(&self) -> u64 {
        match self {
            Wire::AppMsg { bytes, .. } => HDR_BYTES + bytes,
            Wire::CkptImage { image, .. } => HDR_BYTES + image.image_bytes(),
            Wire::CkptLogged { msg, .. } => HDR_BYTES + msg.bytes,
            Wire::Image { image, logged, .. } => {
                HDR_BYTES
                    + image.image_bytes()
                    + logged.iter().map(|m| m.bytes).sum::<u64>()
            }
            Wire::Logs { logged, .. } => {
                HDR_BYTES + logged.iter().map(|m| m.bytes).sum::<u64>()
            }
            _ => HDR_BYTES,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use failmpi_mpi::{Program, ProgramBuilder};
    use std::sync::Arc;

    fn image(bytes: u64) -> Box<ProcImage> {
        let p: Arc<Program> = ProgramBuilder::new(bytes).finalize();
        Box::new(ProcImage::plain(Interp::new(Rank(0), p)))
    }

    #[test]
    fn control_messages_are_header_sized() {
        assert_eq!(Wire::Terminate.wire_bytes(), HDR_BYTES);
        assert_eq!(Wire::Marker { wave: 3 }.wire_bytes(), HDR_BYTES);
        assert_eq!(
            Wire::Register {
                rank: Rank(1),
                epoch: 0
            }
            .wire_bytes(),
            HDR_BYTES
        );
    }

    #[test]
    fn app_and_image_messages_carry_payload_size() {
        let m = Wire::AppMsg {
            from: Rank(0),
            tag: Tag(1),
            bytes: 1_000,
            seq: 0,
        };
        assert_eq!(m.wire_bytes(), HDR_BYTES + 1_000);
        let c = Wire::CkptImage {
            rank: Rank(0),
            wave: 1,
            image: image(30_000_000),
        };
        assert_eq!(c.wire_bytes(), HDR_BYTES + 30_000_000);
    }

    #[test]
    fn fetched_image_includes_log_bytes() {
        let m = Wire::Image {
            wave: 2,
            image: image(1_000),
            logged: vec![
                LoggedMsg {
                    from: Rank(1),
                    tag: Tag(0),
                    bytes: 500,
                },
                LoggedMsg {
                    from: Rank(2),
                    tag: Tag(0),
                    bytes: 700,
                },
            ],
        };
        assert_eq!(m.wire_bytes(), HDR_BYTES + 1_000 + 1_200);
    }
}
