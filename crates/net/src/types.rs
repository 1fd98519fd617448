//! Identifier newtypes and the network event vocabulary.

use std::fmt;

use failmpi_sim::{Fingerprint, FingerprintEvent, Label, PackLabel};

/// A physical machine in the simulated cluster.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HostId(pub u16);

/// The most machines one network holds: every [`HostId`] there is.
pub const MAX_HOSTS: usize = 1 << 16;

/// A (unix) process running on some host. Ids are never reused within a
/// simulation, so a `ProcId` also identifies one *incarnation* of a task.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcId(pub u32);

/// A TCP port on a host.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Port(pub u16);

/// One established stream between two processes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConnId(pub u64);

impl fmt::Debug for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "host{}", self.0)
    }
}
impl fmt::Debug for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pid{}", self.0)
    }
}
impl fmt::Debug for Port {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, ":{}", self.0)
    }
}
impl fmt::Debug for ConnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "conn{}", self.0)
    }
}

/// Why a connection ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CloseReason {
    /// The peer closed the stream deliberately.
    Graceful,
    /// The peer process died (task killed); this is the failure-detection
    /// signal MPICH-V's dispatcher relies on ("a failure is assumed after
    /// any unexpected socket closure").
    PeerDied,
    /// The local process' host was removed from the simulation.
    LocalReset,
}

/// An event delivered by the network to exactly one process.
///
/// `P` is the logical payload type chosen by the embedding world.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetEvent<P> {
    /// A `connect` initiated by `proc` (correlated by `token`) succeeded.
    ConnEstablished {
        /// The new stream.
        conn: ConnId,
        /// The event's recipient (the initiator).
        proc: ProcId,
        /// The accepting process.
        peer: ProcId,
        /// Caller-supplied correlation token from `connect`.
        token: u64,
    },
    /// A listener owned by `proc` accepted a new stream.
    Accepted {
        /// The new stream.
        conn: ConnId,
        /// The event's recipient (the acceptor).
        proc: ProcId,
        /// The initiating process.
        peer: ProcId,
        /// The local port that accepted.
        port: Port,
    },
    /// A `connect` initiated by `proc` failed (no listener / dead host).
    ConnectFailed {
        /// The event's recipient (the initiator).
        proc: ProcId,
        /// Target host of the failed attempt.
        host: HostId,
        /// Target port of the failed attempt.
        port: Port,
        /// Caller-supplied correlation token from `connect`.
        token: u64,
    },
    /// A message arrived on `conn`.
    Delivered {
        /// The stream it arrived on.
        conn: ConnId,
        /// The event's recipient.
        proc: ProcId,
        /// The sending process.
        from: ProcId,
        /// Logical payload.
        payload: P,
        /// Size used for the bandwidth model.
        bytes: u64,
    },
    /// The stream was closed by the other side (or reset).
    Closed {
        /// The stream that closed.
        conn: ConnId,
        /// The event's recipient.
        proc: ProcId,
        /// Why it closed.
        reason: CloseReason,
    },
}

impl<P> NetEvent<P> {
    /// The process this event must be delivered to.
    pub fn recipient(&self) -> ProcId {
        match *self {
            NetEvent::ConnEstablished { proc, .. }
            | NetEvent::Accepted { proc, .. }
            | NetEvent::ConnectFailed { proc, .. }
            | NetEvent::Delivered { proc, .. }
            | NetEvent::Closed { proc, .. } => proc,
        }
    }

    /// The *other* process involved, where the event names one: the peer
    /// of a handshake or the sender of a delivery. Cross-node causality in
    /// the happens-before trace flows from this process to
    /// [`NetEvent::recipient`].
    pub fn origin(&self) -> Option<ProcId> {
        match *self {
            NetEvent::ConnEstablished { peer, .. } | NetEvent::Accepted { peer, .. } => Some(peer),
            NetEvent::Delivered { from, .. } => Some(from),
            NetEvent::ConnectFailed { .. } | NetEvent::Closed { .. } => None,
        }
    }

    /// A static kind label for handler profiling and causal-trace nodes.
    pub fn kind_str(&self) -> &'static str {
        match self {
            NetEvent::ConnEstablished { .. } => "net.established",
            NetEvent::Accepted { .. } => "net.accepted",
            NetEvent::ConnectFailed { .. } => "net.connect_failed",
            NetEvent::Delivered { .. } => "net.delivered",
            NetEvent::Closed { .. } => "net.closed",
        }
    }
}

/// [`CloseReason`]s by their packed-label argument.
const CLOSE_REASONS: [CloseReason; 3] = [
    CloseReason::Graceful,
    CloseReason::PeerDied,
    CloseReason::LocalReset,
];

/// The short human label (payload-agnostic) of divergence reports and
/// causal-trace nodes. Codes 1 to 5; an embedding vocabulary numbers its
/// own from 16.
impl<P> PackLabel for NetEvent<P> {
    fn pack(&self) -> Label {
        match *self {
            NetEvent::ConnEstablished { proc, peer, .. } => Label::new(1, [proc.0, peer.0, 0]),
            NetEvent::Accepted { proc, peer, .. } => Label::new(2, [proc.0, peer.0, 0]),
            NetEvent::ConnectFailed { proc, host, .. } => {
                Label::new(3, [proc.0, u32::from(host.0), 0])
            }
            NetEvent::Delivered { proc, from, .. } => Label::new(4, [from.0, proc.0, 0]),
            NetEvent::Closed { proc, reason, .. } => Label::new(5, [proc.0, reason as u32, 0]),
        }
    }

    fn render(label: Label) -> String {
        let [a, b, _] = label.args;
        let (pa, pb) = (ProcId(a), ProcId(b));
        match label.code {
            1 => format!("net.established {pa:?}<-{pb:?}"),
            2 => format!("net.accepted {pa:?}<-{pb:?}"),
            3 => format!("net.connect-failed {pa:?}->{:?}", HostId(b as u16)),
            4 => format!("net.delivered {pa:?}->{pb:?}"),
            5 => format!("net.closed {pa:?} ({:?})", CLOSE_REASONS[b as usize]),
            _ => unreachable!("not a network label: {label:?}"),
        }
    }
}

impl FingerprintEvent for NetEvent<()> {
    fn fold(&self, fp: &mut Fingerprint) {
        self.fold_with(fp, |_, _| {});
    }
}

impl<P> NetEvent<P> {
    /// Folds this event's structure into a run fingerprint, using
    /// `payload` for the embedding world's payload type. (Offered as a
    /// helper rather than a blanket `FingerprintEvent` impl so worlds
    /// whose payloads cannot implement the trait can still fold the
    /// transport structure.)
    pub fn fold_with(&self, fp: &mut Fingerprint, payload: impl FnOnce(&P, &mut Fingerprint)) {
        match self {
            NetEvent::ConnEstablished {
                conn,
                proc,
                peer,
                token,
            } => {
                fp.write_u8(1);
                fp.write_u64(conn.0);
                fp.write_u32(proc.0);
                fp.write_u32(peer.0);
                fp.write_u64(*token);
            }
            NetEvent::Accepted {
                conn,
                proc,
                peer,
                port,
            } => {
                fp.write_u8(2);
                fp.write_u64(conn.0);
                fp.write_u32(proc.0);
                fp.write_u32(peer.0);
                fp.write_u32(port.0 as u32);
            }
            NetEvent::ConnectFailed {
                proc,
                host,
                port,
                token,
            } => {
                fp.write_u8(3);
                fp.write_u32(proc.0);
                fp.write_u32(host.0 as u32);
                fp.write_u32(port.0 as u32);
                fp.write_u64(*token);
            }
            NetEvent::Delivered {
                conn,
                proc,
                from,
                payload: p,
                bytes,
            } => {
                fp.write_u8(4);
                fp.write_u64(conn.0);
                fp.write_u32(proc.0);
                fp.write_u32(from.0);
                fp.write_u64(*bytes);
                payload(p, fp);
            }
            NetEvent::Closed { conn, proc, reason } => {
                fp.write_u8(5);
                fp.write_u64(conn.0);
                fp.write_u32(proc.0);
                fp.write_u8(match reason {
                    CloseReason::Graceful => 0,
                    CloseReason::PeerDied => 1,
                    CloseReason::LocalReset => 2,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recipient_extraction() {
        let ev: NetEvent<()> = NetEvent::Closed {
            conn: ConnId(1),
            proc: ProcId(7),
            reason: CloseReason::PeerDied,
        };
        assert_eq!(ev.recipient(), ProcId(7));
        let ev: NetEvent<u32> = NetEvent::Delivered {
            conn: ConnId(2),
            proc: ProcId(9),
            from: ProcId(1),
            payload: 5,
            bytes: 100,
        };
        assert_eq!(ev.recipient(), ProcId(9));
    }

    #[test]
    fn debug_formats() {
        assert_eq!(format!("{:?}", HostId(3)), "host3");
        assert_eq!(format!("{:?}", ProcId(4)), "pid4");
        assert_eq!(format!("{:?}", Port(80)), ":80");
        assert_eq!(format!("{:?}", ConnId(5)), "conn5");
    }
}
