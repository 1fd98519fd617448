//! One computing node: the communication daemon (Vdaemon) and its MPI
//! process.
//!
//! The paper implements an MPI process as *two* unix processes — a
//! computation process and a communication daemon — so that in-transit
//! messages can be stored and replayed, and so the fork-based checkpoint can
//! run concurrently with the computation. In the simulation both live in
//! one [`VNode`]: the "MPI process" is the embedded [`Interp`] (whose clone
//! *is* the BLCR image, making the fork free by construction), the "daemon"
//! is everything else. The unix-socket hop between them costs nothing; all
//! externally visible behaviour — what crosses the network and when, what a
//! failure kills, what a checkpoint stores — is preserved. DESIGN.md lists
//! this as an explicit substitution.
//!
//! ## Lifecycle
//!
//! `Boot` (connect to dispatcher/scheduler/server) → `Registering`
//! (`Register` sent) → `SetCommand` received (the paper's
//! `localMPI_setCommand`, instrumentable as a breakpoint) → `AwaitStart`
//! (`Ready` acked) → `StartRun` → `MeshConnect` (daemon mesh) → `Restoring`
//! (fresh start, local-disk image + server logs, or full server fetch) →
//! `Running` → `Finalized`.
//!
//! ## Protocol parts
//!
//! This module is the lifecycle shell, the same under every V-protocol.
//! What differs is one [`Part`], chosen from the configuration at spawn:
//! [`waves`] (Chandy–Lamport: Vcl, Vdummy) or [`log`] (V2). The shell calls
//! it where the protocols differ: an application message arrives or is
//! sent, an image is installed, a peer re-dials, or a marker, `SelfCkpt`,
//! `ReplayFrom` or `CkptStored` arrives.

use std::collections::BTreeMap;
use std::sync::Arc;

use failmpi_net::{ConnId, HostId, ProcId};
use failmpi_sim::{SimDuration, SimRng, SimTime};
use failmpi_mpi::{Action, Interp, OpStats, Program, Rank, Tag};

use crate::config::{CheckpointStyle, VProtocol, VclConfig};
use crate::ctx::{Cmd, Facilities};
use crate::dense::DenseTable;
use crate::event::{ports, tokens, Ev};
use crate::trace::{Hook, InstrumentedFn, VclEvent};
use crate::wire::{LoggedMsg, ProcImage, Wire};

mod log;
mod waves;

use log::Log;
use waves::Waves;

/// Where a node is in its lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Phase {
    Boot,
    Registering,
    AwaitStart,
    MeshConnect,
    Restoring,
    Running,
    Finalized,
    Dead,
}

/// How the node is getting its state back after `StartRun`.
#[derive(Debug)]
enum Restore {
    /// `QueryLatest` sent, waiting for the committed-wave answer.
    Query,
    /// Reading the local disk image of `wave`; logs still needed.
    LoadingDisk { wave: u32 },
    /// Local image loaded; waiting for the channel state from the server.
    AwaitLogs,
    /// No local image; waiting for the full image + logs from the server.
    Fetching,
}

/// The protocol-specific half of a daemon, fixed when it is spawned.
enum Part {
    /// Vcl (either checkpoint style) and Vdummy: Chandy–Lamport waves.
    Waves(Waves),
    /// V2: pessimistic sender-based message logging.
    Log(Log),
}

pub(crate) struct VNode {
    pub rank: Rank,
    pub proc: ProcId,
    pub host: HostId,
    pub epoch: u32,
    program: Arc<Program>,
    n_ranks: u32,

    pub phase: Phase,
    dispatcher_conn: Option<ConnId>,
    scheduler_conn: Option<ConnId>,
    server_conn: Option<ConnId>,
    /// The mesh stream to each peer, by the peer's rank.
    peer_conn: DenseTable<ConnId>,
    conn_peer: BTreeMap<ConnId, Rank>,
    /// Rank → machine table from the last `StartRun`.
    hosts: Vec<HostId>,

    /// The MPI process (absent until started/restored).
    interp: Option<Interp>,
    busy_gen: u64,
    /// A compute phase is outstanding: the interpreter must not be stepped
    /// until its `ComputeDone` arrives (messages landing mid-compute are
    /// delivered to the inbox but do not advance the program).
    busy: bool,
    /// A compute wake-up arrived while the process was suspended or frozen.
    pub pending_wake: bool,
    /// Application messages that arrived before the interpreter existed
    /// (peers can finish restoring earlier and start sending).
    early_msgs: Vec<(Rank, Tag, u64)>,

    /// Held at the `localMPI_setCommand` breakpoint by the debugger.
    pub held_at_set_command: bool,
    set_command_pending: bool,

    /// Next sequence number per outgoing peer stream, by the peer's rank;
    /// a peer has an entry once something was sent to it. Every protocol
    /// stamps its application messages; only V2 reads the stamps.
    send_seq: DenseTable<u64>,
    restore: Option<Restore>,
    /// A restored image waiting out the BLCR rebuild overhead.
    pending_install: Option<(ProcImage, Vec<LoggedMsg>, Option<u32>)>,
    part: Part,

    /// MPI op counts for this incarnation. Lives here — not in the
    /// interpreter — because the interpreter is the checkpoint image and
    /// rolls back on recovery, which would erase the counts.
    pub ops: OpStats,
    /// When the interpreter last reported `Blocked` (open wait interval;
    /// closed by the next non-`Blocked` step).
    blocked_since: Option<SimTime>,
}

/// `base` stretched by a uniform 0.5–1.5× factor.
fn jittered(base: SimDuration, rng: &mut SimRng) -> SimDuration {
    let base = base.as_micros();
    SimDuration::from_micros(base / 2 + rng.below(base.max(1)))
}

impl VNode {
    /// A fresh daemon incarnation, running the protocol `cfg` names.
    pub fn new(
        rank: Rank,
        proc: ProcId,
        host: HostId,
        epoch: u32,
        program: Arc<Program>,
        cfg: &VclConfig,
    ) -> Self {
        let part = match cfg.protocol {
            VProtocol::V2 => Part::Log(Log::default()),
            VProtocol::Vcl | VProtocol::Vdummy => {
                Part::Waves(Waves::new(cfg.checkpoint_style == CheckpointStyle::Blocking))
            }
        };
        VNode {
            rank,
            proc,
            host,
            epoch,
            program,
            n_ranks: cfg.n_ranks,
            phase: Phase::Boot,
            dispatcher_conn: None,
            scheduler_conn: None,
            server_conn: None,
            peer_conn: DenseTable::default(),
            conn_peer: BTreeMap::new(),
            hosts: Vec::new(),
            interp: None,
            busy_gen: 0,
            busy: false,
            pending_wake: false,
            early_msgs: Vec::new(),
            held_at_set_command: false,
            set_command_pending: false,
            send_seq: DenseTable::default(),
            restore: None,
            pending_install: None,
            part,
            ops: OpStats::default(),
            blocked_since: None,
        }
    }

    /// Application progress (for diagnostics/tests).
    pub fn progress(&self) -> u32 {
        self.interp.as_ref().map_or(0, Interp::progress)
    }

    /// First action of the fresh daemon process: bind the mesh port. The
    /// service dials happen after the runtime-init delay, in
    /// [`VNode::connect_services`].
    pub fn boot(&mut self, ctx: &mut Facilities) {
        ctx.net.listen(self.proc, ports::daemon(self.rank));
    }

    fn dial_peer(&self, peer: Rank, ctx: &mut Facilities) {
        let (host, port) = (self.hosts[peer.0 as usize], ports::daemon(peer));
        ctx.net.connect(ctx.now, self.proc, host, port, tokens::peer(peer));
    }

    /// Sends `wire` on `conn`, if that stream is up.
    fn send_on(&self, conn: Option<ConnId>, wire: Wire, ctx: &mut Facilities) {
        if let Some(conn) = conn {
            ctx.send(conn, self.proc, wire);
        }
    }

    /// Runtime init done: dial dispatcher, scheduler and checkpoint server.
    pub fn connect_services(&mut self, ctx: &mut Facilities) {
        if self.phase != Phase::Boot {
            return;
        }
        let sidx = ctx.addrs.server_for(self.rank);
        let a = &ctx.addrs;
        let services = [
            (a.dispatcher_host, ports::DISPATCHER, tokens::DISPATCHER),
            (a.scheduler_host, ports::SCHEDULER, tokens::SCHEDULER),
            (a.server_hosts[sidx], ports::server(sidx), tokens::SERVER),
        ];
        for (host, port, token) in services {
            ctx.net.connect(ctx.now, self.proc, host, port, token);
        }
    }

    pub fn on_conn_established(&mut self, conn: ConnId, token: u64, ctx: &mut Facilities) {
        match token {
            tokens::DISPATCHER => self.dispatcher_conn = Some(conn),
            tokens::SCHEDULER => self.scheduler_conn = Some(conn),
            tokens::SERVER => self.server_conn = Some(conn),
            t => {
                if let Some(peer) = tokens::peer_of(t) {
                    return self.add_peer(conn, peer, ctx);
                }
            }
        }
        if let Some(conn) = self.dispatcher_conn {
            if self.phase == Phase::Boot
                && self.scheduler_conn.is_some()
                && self.server_conn.is_some()
            {
                self.phase = Phase::Registering;
                let (rank, epoch, proc) = (self.rank, self.epoch, self.proc);
                ctx.send(conn, proc, Wire::Register { rank, epoch });
            }
        }
    }

    /// A peer daemon dialled our mesh port; the cluster resolved its rank.
    pub fn on_peer_accepted(&mut self, conn: ConnId, peer: Rank, ctx: &mut Facilities) {
        self.add_peer(conn, peer, ctx);
        // An accept while we are past our own mesh phase is a restarted
        // peer re-dialling us (the original mesh forms in `MeshConnect`).
        if matches!(self.phase, Phase::Running | Phase::Finalized) {
            self.ask_replay(conn, peer, ctx);
        }
    }

    fn add_peer(&mut self, conn: ConnId, peer: Rank, ctx: &mut Facilities) {
        self.peer_conn.insert(peer.0, conn);
        self.conn_peer.insert(conn, peer);
        self.check_mesh_complete(ctx);
    }

    fn check_mesh_complete(&mut self, ctx: &mut Facilities) {
        if self.phase == Phase::MeshConnect && self.peer_conn.len() == self.n_ranks as usize - 1 {
            self.begin_restore(ctx);
        }
    }

    /// A mesh dial failed (the peer is not up yet — normal during a
    /// recovery); retry until it appears. Under the historical dispatcher
    /// bug the peer never appears and this retries forever: the freeze.
    pub fn on_connect_failed(&mut self, token: u64, ctx: &mut Facilities) {
        if let Some(peer) = tokens::peer_of(token) {
            ctx.sched(
                SimDuration::from_millis(100),
                Ev::RetryPeerConnect {
                    rank: self.rank,
                    proc: self.proc,
                    peer,
                },
            );
        }
    }

    /// Re-dial a peer after a failed attempt.
    pub fn retry_peer_connect(&mut self, peer: Rank, ctx: &mut Facilities) {
        if self.phase == Phase::MeshConnect && self.peer_conn.get(peer.0).is_none() {
            self.dial_peer(peer, ctx);
        }
    }

    pub fn on_msg(&mut self, conn: ConnId, wire: Wire, ctx: &mut Facilities) {
        match wire {
            Wire::SetCommand { epoch } => {
                debug_assert_eq!(epoch, self.epoch);
                // The Fig. 10 injection point: the daemon is about to call
                // localMPI_setCommand. If the debugger armed a breakpoint,
                // hold here and tell the injection layer.
                self.set_command_pending = true;
                if ctx.chassis.armed(self.proc, InstrumentedFn::LocalMpiSetCommand) {
                    self.held_at_set_command = true;
                    ctx.chassis.hooks.push(Hook::Breakpoint {
                        host: self.host,
                        proc: self.proc,
                        func: InstrumentedFn::LocalMpiSetCommand,
                    });
                } else {
                    self.do_set_command(ctx);
                }
            }
            Wire::StartRun { epoch, hosts, solo } => {
                debug_assert_eq!(epoch, self.epoch);
                self.hosts = hosts;
                self.phase = Phase::MeshConnect;
                self.part.start_run(solo);
                // Full (re)start: dial every lower rank; higher ranks dial
                // us. A V2 single-rank restart joins a running fleet: dial
                // everyone (they accept and re-associate the stream).
                let dial_below = if solo { self.n_ranks } else { self.rank.0 };
                for p in (0..dial_below).filter(|&p| p != self.rank.0) {
                    self.dial_peer(Rank(p), ctx);
                }
                self.check_mesh_complete(ctx);
            }
            Wire::Terminate => {
                // Process cleanup takes a moment (0.5–1.5× the configured
                // delay); the daemon keeps living (and can still be
                // crashed) until the exit completes.
                let ev = Ev::DaemonExit {
                    rank: self.rank,
                    proc: self.proc,
                    normal: true,
                };
                let delay = jittered(ctx.cfg.terminate_delay, &mut ctx.rng);
                ctx.sched(delay, ev);
            }
            Wire::Shutdown => {
                // Clean end of job: close streams gracefully and exit.
                let services = [self.dispatcher_conn, self.scheduler_conn, self.server_conn];
                let peers = self.peer_conn.iter().map(|(_, &conn)| conn);
                for c in services.into_iter().flatten().chain(peers) {
                    ctx.net.close(ctx.now, c, self.proc);
                }
                ctx.cmds.push(Cmd::ExitProcess {
                    proc: self.proc,
                    normal: true,
                });
            }
            Wire::SchedMarker { wave } => self.on_marker(wave, None, ctx),
            Wire::Marker { wave } => {
                let from = self.conn_peer.get(&conn).copied();
                self.on_marker(wave, from, ctx);
            }
            Wire::AppMsg { from, tag, bytes, seq } => {
                match &mut self.part {
                    Part::Waves(_) => {
                        self.log_channel_state(LoggedMsg { from, tag, bytes }, ctx);
                        self.deliver(from, tag, bytes);
                    }
                    Part::Log(log) => {
                        let in_order = log.receive(from, tag, bytes, seq);
                        if in_order.is_empty() {
                            return; // a re-execution duplicate, or parked
                        }
                        for (tag, bytes) in in_order {
                            self.deliver(from, tag, bytes);
                        }
                    }
                }
                if self.phase == Phase::Running {
                    self.pump(ctx);
                }
            }
            Wire::ReplayFrom { rank, seq } => self.on_replay_from(rank, seq, ctx),
            Wire::CkptStored { wave } => self.on_ckpt_stored(wave, ctx),
            Wire::Latest { wave } => {
                debug_assert!(matches!(self.restore, Some(Restore::Query)));
                match wave {
                    None => {
                        // Nothing ever committed: start (or restart) from
                        // scratch.
                        let fresh = Interp::new(self.rank, Arc::clone(&self.program));
                        self.install_image(ProcImage::plain(fresh), Vec::new(), None, ctx);
                    }
                    Some(w) if ctx.disk.get(self.host, self.rank, w, ctx.now).is_some() => {
                        // Local image: read it from disk, ask the server
                        // only for the channel state.
                        self.restore = Some(Restore::LoadingDisk { wave: w });
                        let delay = SimDuration::from_secs_f64(
                            self.program.image_bytes() as f64 / ctx.cfg.disk_bytes_per_sec as f64,
                        );
                        let (rank, proc) = (self.rank, self.proc);
                        ctx.sched(delay, Ev::DiskLoaded { rank, proc });
                    }
                    Some(_) => {
                        self.restore = Some(Restore::Fetching);
                        let rank = self.rank;
                        self.send_on(self.server_conn, Wire::FetchImage { rank }, ctx);
                    }
                }
            }
            Wire::Image { wave, image, logged } => {
                debug_assert!(matches!(self.restore, Some(Restore::Fetching)));
                self.install_image(*image, logged, Some(wave), ctx);
            }
            Wire::Logs { wave, logged } => {
                debug_assert!(matches!(self.restore, Some(Restore::AwaitLogs)));
                let interp = self
                    .interp
                    .take()
                    .expect("disk image installed before logs");
                self.install_image(ProcImage::plain(interp), logged, Some(wave), ctx);
            }
            other => debug_assert!(false, "unexpected message at daemon: {other:?}"),
        }
    }

    /// Hands an application message to the MPI process — or holds it until
    /// the process exists.
    fn deliver(&mut self, from: Rank, tag: Tag, bytes: u64) {
        match self.interp.as_mut() {
            Some(i) => {
                i.deliver(from, tag, bytes);
                self.ops.recvs.inc();
            }
            None => self.early_msgs.push((from, tag, bytes)),
        }
    }

    /// Ships a checkpoint image to our checkpoint server: the pipelined
    /// transfer, then the control message reporting the total size.
    fn ship_image(&self, wave: u32, image: ProcImage, ctx: &mut Facilities) {
        let (rank, total_bytes) = (self.rank, image.image_bytes());
        let image = Box::new(image);
        self.send_on(self.server_conn, Wire::CkptImage { rank, wave, image }, ctx);
        self.send_on(self.server_conn, Wire::CkptControl { rank, wave, total_bytes }, ctx);
    }

    /// The disk read of the local checkpoint finished.
    pub fn on_disk_loaded(&mut self, ctx: &mut Facilities) {
        let Some(Restore::LoadingDisk { wave }) = self.restore else {
            return;
        };
        let img = ctx
            .disk
            .get(self.host, self.rank, wave, ctx.now)
            .expect("disk image vanished")
            .interp
            .clone();
        self.interp = Some(img);
        // (Vcl path: stream positions reset in finish_install.)
        self.restore = Some(Restore::AwaitLogs);
        let rank = self.rank;
        self.send_on(self.server_conn, Wire::FetchLogs { rank }, ctx);
    }

    /// Executes `localMPI_setCommand`: acknowledge readiness. Called
    /// directly when no breakpoint is armed, or by the injection layer's
    /// `continue` when the hold is released.
    pub fn do_set_command(&mut self, ctx: &mut Facilities) {
        if !self.set_command_pending {
            return;
        }
        self.set_command_pending = false;
        self.held_at_set_command = false;
        self.phase = Phase::AwaitStart;
        let rank = self.rank;
        self.send_on(self.dispatcher_conn, Wire::Ready { rank }, ctx);
    }

    fn begin_restore(&mut self, ctx: &mut Facilities) {
        self.phase = Phase::Restoring;
        self.restore = Some(Restore::Query);
        let rank = self.rank;
        self.send_on(self.server_conn, Wire::QueryLatest { rank }, ctx);
    }

    /// Queues the process image for installation. A checkpointed image pays
    /// the BLCR restart overhead (address-space rebuild) before resuming;
    /// a fresh start installs immediately.
    fn install_image(
        &mut self,
        interp: ProcImage,
        logged: Vec<LoggedMsg>,
        from_wave: Option<u32>,
        ctx: &mut Facilities,
    ) {
        if from_wave.is_some() && !ctx.cfg.restart_overhead.is_zero() {
            self.pending_install = Some((interp, logged, from_wave));
            let ev = Ev::RestoreDone {
                rank: self.rank,
                proc: self.proc,
            };
            // Real BLCR restarts vary by seconds with page-cache state and
            // disk position: uniform 0.5–1.5× of the configured overhead.
            let delay = jittered(ctx.cfg.restart_overhead, &mut ctx.rng);
            ctx.sched(delay, ev);
            return;
        }
        self.finish_install(interp, logged, from_wave, ctx);
    }

    /// The BLCR rebuild finished: install the queued image.
    pub fn on_restore_done(&mut self, ctx: &mut Facilities) {
        if let Some((interp, logged, from_wave)) = self.pending_install.take() {
            self.finish_install(interp, logged, from_wave, ctx);
        }
    }

    /// Installs the process image, replays the channel state and any
    /// messages that raced the restore, and resumes computation.
    fn finish_install(
        &mut self,
        image: ProcImage,
        logged: Vec<LoggedMsg>,
        from_wave: Option<u32>,
        ctx: &mut Facilities,
    ) {
        let ProcImage {
            interp,
            send_seq,
            recv_seq,
            send_log,
        } = image;
        // Stream positions: restored from the image under V2; reset to
        // zero under Vcl, whose global rollback renews every stream.
        self.send_seq = DenseTable::default();
        for (peer, seq) in send_seq {
            self.send_seq.insert(peer.0, seq);
        }
        self.interp = Some(interp);
        // Replay of stored in-transit messages (step 5 of the paper's
        // Fig. 1), then of messages that raced the restore: delivered as if
        // they arrived fresh from the network.
        for m in logged {
            self.deliver(m.from, m.tag, m.bytes);
        }
        for (from, tag, bytes) in std::mem::take(&mut self.early_msgs) {
            self.deliver(from, tag, bytes);
        }
        self.restore = None;
        self.phase = Phase::Running;
        ctx.trace(VclEvent::RankResumed {
            rank: self.rank,
            from_wave,
        });
        match &mut self.part {
            Part::Waves(waves) => {
                waves.restored(from_wave);
                self.pump(ctx);
                // A wave opened while we were restoring: checkpoint now.
                self.start_pending_wave(ctx);
            }
            Part::Log(log) => {
                log.restored(recv_seq, send_log, from_wave);
                self.rejoin(ctx);
                self.pump(ctx);
            }
        }
    }

    /// A compute phase ended while the process was suspended (SIGSTOP):
    /// note the wake-up for `Signal::Continue` to replay.
    pub fn on_compute_done_suspended(&mut self, gen: u64) {
        if gen == self.busy_gen && self.phase == Phase::Running {
            self.busy = false;
            self.pending_wake = true;
        }
    }

    /// A compute phase ended.
    pub fn on_compute_done(&mut self, gen: u64, ctx: &mut Facilities) {
        if gen != self.busy_gen || self.phase != Phase::Running {
            return;
        }
        self.busy = false;
        if self.part.frozen() {
            self.pending_wake = true;
            return;
        }
        self.pump(ctx);
    }

    /// Closes an open blocked-wait interval, charging its virtual length.
    fn note_unblocked(&mut self, now: SimTime) {
        if let Some(t0) = self.blocked_since.take() {
            self.ops
                .blocked_wait_micros
                .add(now.saturating_since(t0).as_micros());
        }
    }

    /// Drives the MPI process until it blocks, computes, or finishes.
    pub fn pump(&mut self, ctx: &mut Facilities) {
        if self.part.frozen() || self.busy || self.phase != Phase::Running {
            return;
        }
        loop {
            let Some(interp) = self.interp.as_mut() else {
                return;
            };
            match interp.step() {
                Action::Send { to, tag, bytes } => {
                    self.note_unblocked(ctx.now);
                    self.ops.sends.inc();
                    let from = self.rank;
                    let next = self.send_seq.or_insert(to.0, 0);
                    let seq = *next;
                    *next += 1;
                    self.part.sent(to, tag, bytes, seq);
                    if let Some(&conn) = self.peer_conn.get(to.0) {
                        ctx.send(conn, self.proc, Wire::AppMsg { from, tag, bytes, seq });
                    }
                    // A missing peer stream means the mesh is mid-failure:
                    // under Vcl the loss is undone by the global rollback;
                    // under V2 the logged copy is replayed on reconnect.
                }
                Action::Busy(d) => {
                    self.note_unblocked(ctx.now);
                    self.ops.compute_phases.inc();
                    self.busy_gen += 1;
                    self.busy = true;
                    let ev = Ev::ComputeDone {
                        rank: self.rank,
                        proc: self.proc,
                        gen: self.busy_gen,
                    };
                    ctx.sched(d, ev);
                    return;
                }
                Action::Blocked { .. } => {
                    if self.blocked_since.is_none() {
                        self.blocked_since = Some(ctx.now);
                        self.ops.blocked_waits.inc();
                    }
                    return;
                }
                Action::Progress(iter) => {
                    self.note_unblocked(ctx.now);
                    self.ops.progress_marks.inc();
                    ctx.trace(VclEvent::AppProgress {
                        rank: self.rank,
                        iter,
                    });
                }
                Action::Finalized => {
                    self.note_unblocked(ctx.now);
                    self.ops.finalizes.inc();
                    self.phase = Phase::Finalized;
                    let rank = self.rank;
                    self.send_on(self.dispatcher_conn, Wire::Finalized { rank }, ctx);
                    return;
                }
            }
        }
    }

    /// A stream closed under us. Peer closures during failure handling are
    /// expected (our own `Terminate` is on its way); we just drop the maps.
    pub fn on_closed(&mut self, conn: ConnId) {
        if let Some(peer) = self.conn_peer.remove(&conn) {
            self.peer_conn.remove(peer.0);
        }
        for service in [
            &mut self.dispatcher_conn,
            &mut self.scheduler_conn,
            &mut self.server_conn,
        ] {
            if *service == Some(conn) {
                *service = None;
            }
        }
    }
}

impl Part {
    /// `StartRun` arrived; `solo` marks a V2 single-rank restart.
    fn start_run(&mut self, solo: bool) {
        if let Part::Log(log) = self {
            log.solo = solo;
        }
    }

    /// The application sent `seq` on its stream to `to`.
    fn sent(&mut self, to: Rank, tag: Tag, bytes: u64, seq: u64) {
        if let Part::Log(log) = self {
            log.record(to, tag, bytes, seq);
        }
    }

    /// The application is held for a blocking checkpoint.
    fn frozen(&self) -> bool {
        matches!(self, Part::Waves(waves) if waves.frozen)
    }
}
