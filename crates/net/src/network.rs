//! The network state machine.

use std::collections::BTreeMap;
use std::mem;

use failmpi_sim::SimTime;

use crate::config::NetConfig;
use crate::stats::NetStats;
use crate::types::{CloseReason, ConnId, HostId, NetEvent, Port, ProcId};

struct HostNic {
    tx_free: SimTime,
    rx_free: SimTime,
}

struct ProcState<P> {
    host: HostId,
    alive: bool,
    suspended: bool,
    /// Events that arrived while the process was suspended (socket buffers).
    buffer: Vec<NetEvent<P>>,
    /// Every stream this process is an end of, in ascending id order
    /// (closed ones included): what [`Network::kill`] resets, without a
    /// walk over every stream the run ever opened.
    conns: Vec<ConnId>,
}

struct ConnState {
    a: ProcId,
    b: ProcId,
    open: bool,
}

/// Verdict of [`Network::gate`] for a network event about to be delivered.
#[derive(Debug)]
pub enum Gated<P> {
    /// Deliver the event to its recipient now.
    Deliver(NetEvent<P>),
    /// The recipient is suspended; the network buffered the event and will
    /// release it from [`Network::resume`].
    Buffered,
    /// The recipient is dead (or never existed); the event evaporates.
    Dropped,
}

/// The simulated cluster network. See the crate docs for the model.
///
/// All mutating calls may produce events; the embedding world must drain
/// them with [`Network::take_events`] after each call (or batch of calls)
/// and feed them to its scheduler, then route each one back through
/// [`Network::gate`] at delivery time.
pub struct Network<P> {
    cfg: NetConfig,
    hosts: Vec<HostNic>,
    procs: Vec<ProcState<P>>,
    listeners: BTreeMap<(HostId, Port), ProcId>,
    conns: Vec<ConnState>,
    out: Vec<(SimTime, NetEvent<P>)>,
    stats: NetStats,
}

impl<P> Network<P> {
    /// Creates an empty network with the given timing model.
    pub fn new(cfg: NetConfig) -> Self {
        Network {
            cfg,
            hosts: Vec::new(),
            procs: Vec::new(),
            listeners: BTreeMap::new(),
            conns: Vec::new(),
            out: Vec::new(),
            stats: NetStats::default(),
        }
    }

    /// The timing configuration.
    pub fn config(&self) -> &NetConfig {
        &self.cfg
    }

    /// Lifetime traffic counters (see [`NetStats`]).
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Adds one machine and returns its id.
    pub fn add_host(&mut self) -> HostId {
        let id = HostId(u16::try_from(self.hosts.len()).expect("too many hosts"));
        self.hosts.push(HostNic {
            tx_free: SimTime::ZERO,
            rx_free: SimTime::ZERO,
        });
        id
    }

    /// Adds `n` machines, returning their ids in order.
    pub fn add_hosts(&mut self, n: usize) -> Vec<HostId> {
        (0..n).map(|_| self.add_host()).collect()
    }

    /// Starts a process on `host`. Process ids are never reused, so a stale
    /// id from a previous incarnation can never alias a new process.
    pub fn spawn_process(&mut self, host: HostId) -> ProcId {
        assert!((host.0 as usize) < self.hosts.len(), "unknown {host:?}");
        let id = ProcId(u32::try_from(self.procs.len()).expect("too many processes"));
        self.procs.push(ProcState {
            host,
            alive: true,
            suspended: false,
            buffer: Vec::new(),
            conns: Vec::new(),
        });
        id
    }

    /// Whether `proc` is alive (spawned and not killed).
    pub fn is_alive(&self, proc: ProcId) -> bool {
        self.procs.get(proc.0 as usize).is_some_and(|p| p.alive)
    }

    /// Whether `proc` is currently suspended.
    pub fn is_suspended(&self, proc: ProcId) -> bool {
        self.procs
            .get(proc.0 as usize)
            .is_some_and(|p| p.alive && p.suspended)
    }

    /// The machine `proc` runs on.
    pub fn host_of(&self, proc: ProcId) -> HostId {
        self.procs[proc.0 as usize].host
    }

    /// The other endpoint of `conn`, from `proc`'s perspective.
    pub fn peer_of(&self, conn: ConnId, proc: ProcId) -> Option<ProcId> {
        let c = self.conns.get(conn.0 as usize)?;
        if c.a == proc {
            Some(c.b)
        } else if c.b == proc {
            Some(c.a)
        } else {
            None
        }
    }

    /// Whether `conn` is still open on both ends.
    pub fn conn_open(&self, conn: ConnId) -> bool {
        self.conns.get(conn.0 as usize).is_some_and(|c| c.open)
    }

    /// Binds a listener owned by `proc` on its host at `port`.
    /// Returns `false` when the port is already bound on that host.
    pub fn listen(&mut self, proc: ProcId, port: Port) -> bool {
        let host = self.host_of(proc);
        if self.listeners.contains_key(&(host, port)) {
            return false;
        }
        self.listeners.insert((host, port), proc);
        true
    }

    fn one_way(&self, same_host: bool) -> failmpi_sim::SimDuration {
        if same_host {
            self.cfg.local_latency
        } else {
            self.cfg.latency
        }
    }

    /// Opens a stream from `proc` to whatever listens on `(host, port)`.
    ///
    /// Emits `Accepted` to the listener owner after one latency and
    /// `ConnEstablished { token }` to the initiator after a round trip —
    /// or `ConnectFailed { token }` after a round trip when nothing listens
    /// (or the listener's owner is dead).
    pub fn connect(&mut self, now: SimTime, proc: ProcId, host: HostId, port: Port, token: u64) {
        assert!(self.is_alive(proc), "connect from dead {proc:?}");
        let same = self.host_of(proc) == host;
        let one = self.one_way(same);
        let owner = self.listeners.get(&(host, port)).copied();
        match owner.filter(|&o| self.is_alive(o)) {
            Some(acceptor) => {
                self.stats.connects_ok.inc();
                let conn = ConnId(self.conns.len() as u64);
                self.conns.push(ConnState {
                    a: proc,
                    b: acceptor,
                    open: true,
                });
                self.procs[proc.0 as usize].conns.push(conn);
                if acceptor != proc {
                    self.procs[acceptor.0 as usize].conns.push(conn);
                }
                self.out.push((
                    now + one,
                    NetEvent::Accepted {
                        conn,
                        proc: acceptor,
                        peer: proc,
                        port,
                    },
                ));
                self.out.push((
                    now + one + one,
                    NetEvent::ConnEstablished {
                        conn,
                        proc,
                        peer: acceptor,
                        token,
                    },
                ));
            }
            None => {
                self.stats.connects_failed.inc();
                self.out.push((
                    now + one + one,
                    NetEvent::ConnectFailed {
                        proc,
                        host,
                        port,
                        token,
                    },
                ));
            }
        }
    }

    /// Sends `payload` (`bytes` long for the bandwidth model) from `from`
    /// over `conn`. Returns `false` (dropping the message) when the stream
    /// is closed or either endpoint is dead — mirroring bytes written into
    /// a TCP socket that will soon RST.
    pub fn send(&mut self, now: SimTime, conn: ConnId, from: ProcId, payload: P, bytes: u64) -> bool {
        let Some(to) = self.peer_of(conn, from) else {
            self.stats.sends_dropped.inc();
            return false;
        };
        if !self.conn_open(conn) || !self.is_alive(from) || !self.is_alive(to) {
            self.stats.sends_dropped.inc();
            return false;
        }
        self.stats.msgs_sent.inc();
        self.stats.bytes_sent.add(bytes);
        // Payload-copy ledger: the payload is cloned into the in-flight
        // Delivered event here — the first hop of the copy chain the
        // zero-copy refactor targets.
        failmpi_obs::prof::copy("net.enqueue", bytes);
        let src_host = self.host_of(from);
        let dst_host = self.host_of(to);
        let arrive = if src_host == dst_host {
            now + self.cfg.local_latency
        } else {
            let wire = self.cfg.wire_time(bytes);
            let tx_start = now.max(self.hosts[src_host.0 as usize].tx_free);
            let tx_end = tx_start + wire;
            self.hosts[src_host.0 as usize].tx_free = tx_end;
            let rx_start = (tx_start + self.cfg.latency).max(self.hosts[dst_host.0 as usize].rx_free);
            let rx_end = rx_start + wire;
            self.hosts[dst_host.0 as usize].rx_free = rx_end;
            rx_end
        };
        self.out.push((
            arrive,
            NetEvent::Delivered {
                conn,
                proc: to,
                from,
                payload,
                bytes,
            },
        ));
        true
    }

    /// Gracefully closes `conn` from `closer`'s side; the peer observes a
    /// `Closed { Graceful }` one latency later.
    pub fn close(&mut self, now: SimTime, conn: ConnId, closer: ProcId) {
        let Some(peer) = self.peer_of(conn, closer) else {
            return;
        };
        let c = &mut self.conns[conn.0 as usize];
        if !c.open {
            return;
        }
        c.open = false;
        self.stats.closes_graceful.inc();
        if self.is_alive(peer) {
            let one = self.one_way(self.host_of(closer) == self.host_of(peer));
            self.out.push((
                now + one,
                NetEvent::Closed {
                    conn,
                    proc: peer,
                    reason: CloseReason::Graceful,
                },
            ));
        }
    }

    /// Kills `proc`: every open stream it holds resets, peers observe
    /// `Closed { PeerDied }` one latency later (the paper's immediate
    /// detection model), its listeners unbind, and any buffered events are
    /// discarded. Idempotent.
    pub fn kill(&mut self, now: SimTime, proc: ProcId) {
        let Some(state) = self.procs.get_mut(proc.0 as usize) else {
            return;
        };
        if !state.alive {
            return;
        }
        state.alive = false;
        state.suspended = false;
        state.buffer.clear();
        let host = state.host;
        let held = mem::take(&mut state.conns);
        self.stats.kills.inc();
        self.listeners.retain(|_, owner| *owner != proc);
        for conn in held {
            let c = &mut self.conns[conn.0 as usize];
            if !c.open {
                continue;
            }
            c.open = false;
            let peer = if c.a == proc { c.b } else { c.a };
            self.stats.conns_reset.inc();
            if self.is_alive(peer) {
                let one = self.one_way(self.host_of(peer) == host);
                self.out.push((
                    now + one + self.cfg.kill_detect_extra,
                    NetEvent::Closed {
                        conn,
                        proc: peer,
                        reason: CloseReason::PeerDied,
                    },
                ));
            }
        }
    }

    /// Suspends `proc` (SIGSTOP): its streams stay open, inbound events are
    /// buffered until [`Network::resume`].
    pub fn suspend(&mut self, proc: ProcId) {
        if let Some(p) = self.procs.get_mut(proc.0 as usize) {
            if p.alive {
                p.suspended = true;
            }
        }
    }

    /// Resumes `proc` (SIGCONT) and returns the events buffered while it was
    /// suspended; the caller must deliver them at the current instant, in
    /// order.
    pub fn resume(&mut self, proc: ProcId) -> Vec<NetEvent<P>> {
        match self.procs.get_mut(proc.0 as usize) {
            Some(p) if p.alive && p.suspended => {
                p.suspended = false;
                mem::take(&mut p.buffer)
            }
            _ => Vec::new(),
        }
    }

    /// Filters an event at its delivery instant: delivers to live running
    /// processes, buffers for suspended ones, drops for dead ones.
    pub fn gate(&mut self, ev: NetEvent<P>) -> Gated<P> {
        let rcpt = ev.recipient();
        match self.procs.get_mut(rcpt.0 as usize) {
            Some(p) if p.alive && !p.suspended => {
                self.stats.deliveries.inc();
                Gated::Deliver(ev)
            }
            Some(p) if p.alive => {
                p.buffer.push(ev);
                self.stats.gate_buffered.inc();
                Gated::Buffered
            }
            _ => {
                self.stats.gate_dropped.inc();
                Gated::Dropped
            }
        }
    }

    /// Takes all freshly produced `(time, event)` pairs for scheduling.
    pub fn take_events(&mut self) -> Vec<(SimTime, NetEvent<P>)> {
        mem::take(&mut self.out)
    }

    /// [`Network::take_events`] without the hand-over `Vec`: drains the
    /// outbox in place, keeping its buffer for the next call's events (what
    /// a caller on the per-event path wants).
    pub fn drain_events(&mut self) -> std::vec::Drain<'_, (SimTime, NetEvent<P>)> {
        self.out.drain(..)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use failmpi_sim::SimDuration;

    type Net = Network<&'static str>;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn two_proc_net() -> (Net, ProcId, ProcId) {
        let mut net = Net::new(NetConfig::default());
        let h = net.add_hosts(2);
        let a = net.spawn_process(h[0]);
        let b = net.spawn_process(h[1]);
        (net, a, b)
    }

    /// Establishes a stream a→b and returns it, draining handshake events.
    fn connected() -> (Net, ProcId, ProcId, ConnId) {
        let (mut net, a, b) = two_proc_net();
        assert!(net.listen(b, Port(80)));
        net.connect(t(0), a, net.host_of(b), Port(80), 7);
        let evs = net.take_events();
        let conn = match &evs[0].1 {
            NetEvent::Accepted { conn, .. } => *conn,
            other => panic!("expected Accepted, got {other:?}"),
        };
        assert!(matches!(
            &evs[1].1,
            NetEvent::ConnEstablished { token: 7, .. }
        ));
        (net, a, b, conn)
    }

    #[test]
    fn handshake_produces_both_events_in_latency_order() {
        let (mut net, a, b) = two_proc_net();
        assert!(net.listen(b, Port(80)));
        net.connect(t(1), a, net.host_of(b), Port(80), 42);
        let evs = net.take_events();
        assert_eq!(evs.len(), 2);
        let lat = NetConfig::default().latency;
        assert_eq!(evs[0].0, t(1) + lat);
        assert_eq!(evs[1].0, t(1) + lat + lat);
        assert_eq!(evs[0].1.recipient(), b);
        assert_eq!(evs[1].1.recipient(), a);
    }

    #[test]
    fn connect_without_listener_fails() {
        let (mut net, a, b) = two_proc_net();
        net.connect(t(0), a, net.host_of(b), Port(81), 9);
        let evs = net.take_events();
        assert_eq!(evs.len(), 1);
        assert!(matches!(
            evs[0].1,
            NetEvent::ConnectFailed { token: 9, port: Port(81), .. }
        ));
    }

    #[test]
    fn connect_to_dead_listener_fails() {
        let (mut net, a, b) = two_proc_net();
        net.listen(b, Port(80));
        net.kill(t(0), b);
        net.take_events();
        net.connect(t(1), a, net.host_of(b), Port(80), 1);
        let evs = net.take_events();
        assert!(matches!(evs[0].1, NetEvent::ConnectFailed { .. }));
    }

    #[test]
    fn port_collision_rejected() {
        let (mut net, _a, b) = two_proc_net();
        assert!(net.listen(b, Port(80)));
        assert!(!net.listen(b, Port(80)));
    }

    #[test]
    fn send_delivers_with_bandwidth_and_latency() {
        let (mut net, a, _b, conn) = connected();
        // 125 MB at 125 MB/s streams through in 1 s + 100 µs switch latency
        // (cut-through: the receiver drains while the sender still pushes).
        assert!(net.send(t(10), conn, a, "data", 125_000_000));
        let evs = net.take_events();
        assert_eq!(evs.len(), 1);
        let expect = t(10) + NetConfig::default().latency + SimDuration::from_secs(1);
        assert_eq!(evs[0].0, expect);
        assert!(matches!(evs[0].1, NetEvent::Delivered { payload: "data", .. }));
    }

    #[test]
    fn sender_nic_serialises_messages() {
        let (mut net, a, _b, conn) = connected();
        assert!(net.send(t(0), conn, a, "m1", 125_000_000));
        assert!(net.send(t(0), conn, a, "m2", 125_000_000));
        let evs = net.take_events();
        // Second message starts tx only after the first finished.
        assert!(evs[1].0 >= evs[0].0 + SimDuration::from_secs(1));
    }

    #[test]
    fn receiver_nic_contends_across_senders() {
        let mut net: Net = Network::new(NetConfig::default());
        let hs = net.add_hosts(3);
        let server = net.spawn_process(hs[0]);
        let c1 = net.spawn_process(hs[1]);
        let c2 = net.spawn_process(hs[2]);
        net.listen(server, Port(9));
        net.connect(t(0), c1, hs[0], Port(9), 0);
        net.connect(t(0), c2, hs[0], Port(9), 0);
        let evs = net.take_events();
        let conns: Vec<ConnId> = evs
            .iter()
            .filter_map(|(_, e)| match e {
                NetEvent::ConnEstablished { conn, .. } => Some(*conn),
                _ => None,
            })
            .collect();
        assert_eq!(conns.len(), 2);
        // Both clients push 125 MB at the same instant: the server NIC must
        // serialise them, so the second delivery lands ≥ 1 s after the first.
        assert!(net.send(t(10), conns[0], c1, "x", 125_000_000));
        assert!(net.send(t(10), conns[1], c2, "y", 125_000_000));
        let evs = net.take_events();
        let mut times: Vec<SimTime> = evs.iter().map(|&(at, _)| at).collect();
        times.sort();
        assert!(times[1] >= times[0] + SimDuration::from_secs(1));
    }

    #[test]
    fn local_delivery_skips_nic() {
        let mut net: Net = Network::new(NetConfig::default());
        let h = net.add_host();
        let a = net.spawn_process(h);
        let b = net.spawn_process(h);
        net.listen(b, Port(1));
        net.connect(t(0), a, h, Port(1), 0);
        let evs = net.take_events();
        let conn = match evs[0].1 {
            NetEvent::Accepted { conn, .. } => conn,
            _ => panic!(),
        };
        net.send(t(1), conn, a, "big", 1_000_000_000);
        let evs = net.take_events();
        assert_eq!(evs[0].0, t(1) + NetConfig::default().local_latency);
    }

    #[test]
    fn kill_resets_peer_connections() {
        let (mut net, a, b, conn) = connected();
        net.kill(t(5), b);
        let evs = net.take_events();
        assert_eq!(evs.len(), 1);
        assert_eq!(
            evs[0].1,
            NetEvent::Closed {
                conn,
                proc: a,
                reason: CloseReason::PeerDied
            }
        );
        assert_eq!(evs[0].0, t(5) + NetConfig::default().latency);
        assert!(!net.conn_open(conn));
        assert!(!net.is_alive(b));
        // Sends into the dead stream are dropped.
        assert!(!net.send(t(6), conn, a, "late", 10));
    }

    #[test]
    fn kill_is_idempotent_and_unbinds_listeners() {
        let (mut net, a, b) = two_proc_net();
        net.listen(b, Port(80));
        net.kill(t(0), b);
        net.kill(t(1), b);
        assert!(net.take_events().is_empty());
        // Port is free again for another process on that host.
        let b2 = net.spawn_process(net.host_of(b));
        assert!(net.listen(b2, Port(80)));
        let _ = a;
    }

    #[test]
    fn graceful_close_notifies_peer_once() {
        let (mut net, a, b, conn) = connected();
        net.close(t(3), conn, a);
        net.close(t(4), conn, a);
        let evs = net.take_events();
        assert_eq!(evs.len(), 1);
        assert_eq!(
            evs[0].1,
            NetEvent::Closed {
                conn,
                proc: b,
                reason: CloseReason::Graceful
            }
        );
    }

    #[test]
    fn suspended_recipient_buffers_until_resume() {
        let (mut net, a, b, conn) = connected();
        net.suspend(b);
        assert!(net.is_suspended(b));
        net.send(t(1), conn, a, "queued", 10);
        let evs = net.take_events();
        assert_eq!(evs.len(), 1);
        // World routes the delivery through gate at its arrival instant.
        match net.gate(evs.into_iter().next().unwrap().1) {
            Gated::Buffered => {}
            other => panic!("expected Buffered, got {other:?}"),
        }
        let flushed = net.resume(b);
        assert_eq!(flushed.len(), 1);
        assert!(matches!(flushed[0], NetEvent::Delivered { payload: "queued", .. }));
        assert!(!net.is_suspended(b));
    }

    #[test]
    fn gate_drops_for_dead_recipient() {
        let (mut net, a, b, conn) = connected();
        net.send(t(1), conn, a, "inflight", 10);
        let evs = net.take_events();
        net.kill(t(1), b);
        net.take_events();
        match net.gate(evs.into_iter().next().unwrap().1) {
            Gated::Dropped => {}
            other => panic!("expected Dropped, got {other:?}"),
        }
    }

    #[test]
    fn killing_suspended_process_discards_buffer() {
        let (mut net, a, b, conn) = connected();
        net.suspend(b);
        net.send(t(1), conn, a, "lost", 10);
        for (_, ev) in net.take_events() {
            let _ = net.gate(ev);
        }
        net.kill(t(2), b);
        net.take_events();
        assert!(net.resume(b).is_empty());
    }

    #[test]
    fn spawned_procs_live_on_their_host_until_killed() {
        let mut net: Net = Network::new(NetConfig::default());
        let h = net.add_host();
        let a = net.spawn_process(h);
        let b = net.spawn_process(h);
        assert_eq!((net.host_of(a), net.host_of(b)), (h, h));
        assert!(net.is_alive(a) && net.is_alive(b));
        net.kill(t(0), a);
        assert!(!net.is_alive(a) && net.is_alive(b));
    }

    #[test]
    fn keepalive_detection_delays_closure() {
        let mut cfg = NetConfig::default();
        cfg.kill_detect_extra = cfg.keepalive_detection_time();
        let mut net: Net = Network::new(cfg.clone());
        let h = net.add_hosts(2);
        let a = net.spawn_process(h[0]);
        let b = net.spawn_process(h[1]);
        net.listen(b, Port(80));
        net.connect(t(0), a, h[1], Port(80), 0);
        net.take_events();
        net.kill(t(100), b);
        let evs = net.take_events();
        assert_eq!(evs.len(), 1);
        // 9 × 75 s of keep-alive probes before anyone notices.
        assert_eq!(
            evs[0].0,
            t(100) + cfg.latency + SimDuration::from_secs(675)
        );
    }

    #[test]
    fn stats_count_connects_sends_and_closes() {
        let (mut net, a, b, conn) = connected();
        assert_eq!(net.stats().connects_ok.get(), 1);
        assert!(net.send(t(1), conn, a, "m", 100));
        assert_eq!(net.stats().msgs_sent.get(), 1);
        assert_eq!(net.stats().bytes_sent.get(), 100);
        for (_, ev) in net.take_events() {
            let _ = net.gate(ev);
        }
        assert_eq!(net.stats().deliveries.get(), 1);
        net.kill(t(2), b);
        assert_eq!(net.stats().kills.get(), 1);
        assert_eq!(net.stats().conns_reset.get(), 1);
        assert!(!net.send(t(3), conn, a, "late", 10));
        assert_eq!(net.stats().sends_dropped.get(), 1);
        // Failed connect (no listener anywhere on b's old port now).
        net.connect(t(4), a, net.host_of(b), Port(80), 0);
        assert_eq!(net.stats().connects_failed.get(), 1);
    }

    /// The `kill` the per-process stream lists replaced: a walk over every
    /// stream the run ever opened. Kept as the reference of the proptest
    /// below.
    fn kill_by_scan(net: &mut Net, now: SimTime, proc: ProcId) {
        let Some(state) = net.procs.get_mut(proc.0 as usize) else {
            return;
        };
        if !state.alive {
            return;
        }
        state.alive = false;
        state.suspended = false;
        state.buffer.clear();
        let host = state.host;
        net.stats.kills.inc();
        net.listeners.retain(|_, owner| *owner != proc);
        let mut closes = Vec::new();
        for (i, c) in net.conns.iter_mut().enumerate() {
            if c.open && (c.a == proc || c.b == proc) {
                c.open = false;
                let peer = if c.a == proc { c.b } else { c.a };
                closes.push((ConnId(i as u64), peer));
            }
        }
        net.stats.conns_reset.add(closes.len() as u64);
        for (conn, peer) in closes {
            if net.is_alive(peer) {
                let one = net.one_way(net.host_of(peer) == host);
                net.out.push((
                    now + one + net.cfg.kill_detect_extra,
                    NetEvent::Closed {
                        conn,
                        proc: peer,
                        reason: CloseReason::PeerDied,
                    },
                ));
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn kill_resets_what_the_full_scan_resets(
            ops in proptest::collection::vec((0u8..8, 0u8..16, 0u8..16), 0..120),
        ) {
            const HOSTS: u8 = 3;
            let mut net: Net = Network::new(NetConfig::default());
            let mut reference: Net = Network::new(NetConfig::default());
            net.add_hosts(HOSTS as usize);
            reference.add_hosts(HOSTS as usize);
            let mut procs: Vec<ProcId> = Vec::new();
            let mut conns: Vec<ConnId> = Vec::new();
            for (step, (op, x, y)) in ops.into_iter().enumerate() {
                let now = t(step as u64);
                let pick = |v: u8| procs.get(v as usize % procs.len().max(1)).copied();
                match (op, pick(x)) {
                    (0, _) => {
                        let h = HostId(u16::from(x % HOSTS));
                        procs.push(net.spawn_process(h));
                        reference.spawn_process(h);
                    }
                    (1, Some(p)) => {
                        let port = Port(u16::from(y % 2));
                        proptest::prop_assert_eq!(net.listen(p, port), reference.listen(p, port));
                    }
                    (2, Some(p)) if net.is_alive(p) => {
                        let h = HostId(u16::from(y % HOSTS));
                        let port = Port(u16::from(y / HOSTS % 2));
                        net.connect(now, p, h, port, step as u64);
                        reference.connect(now, p, h, port, step as u64);
                    }
                    (3, Some(p)) if !conns.is_empty() => {
                        let conn = conns[y as usize % conns.len()];
                        net.close(now, conn, p);
                        reference.close(now, conn, p);
                    }
                    (4, Some(p)) => {
                        net.kill(now, p);
                        kill_by_scan(&mut reference, now, p);
                    }
                    (5, Some(p)) => {
                        net.suspend(p);
                        reference.suspend(p);
                    }
                    (6, Some(p)) => {
                        proptest::prop_assert_eq!(net.resume(p), reference.resume(p));
                    }
                    (7, Some(p)) if !conns.is_empty() => {
                        let conn = conns[y as usize % conns.len()];
                        proptest::prop_assert_eq!(
                            net.send(now, conn, p, "m", 10),
                            reference.send(now, conn, p, "m", 10)
                        );
                    }
                    _ => {}
                }
                let events = net.take_events();
                proptest::prop_assert_eq!(&events, &reference.take_events());
                for (_, ev) in &events {
                    if let NetEvent::Accepted { conn, .. } = ev {
                        conns.push(*conn);
                    }
                }
                // Route the deliveries as the world would, so suspended
                // processes hold buffers a kill must discard.
                for (_, ev) in events {
                    let _ = net.gate(ev.clone());
                    let _ = reference.gate(ev);
                }
            }
            proptest::prop_assert_eq!(net.stats(), reference.stats());
            for &conn in &conns {
                proptest::prop_assert_eq!(net.conn_open(conn), reference.conn_open(conn));
            }
        }
    }

    #[test]
    fn peer_of_rejects_strangers() {
        let (mut net, a, _b, conn) = connected();
        let stranger = net.spawn_process(net.host_of(a));
        assert_eq!(net.peer_of(conn, stranger), None);
    }
}
