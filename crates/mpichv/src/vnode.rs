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
//! ## Non-blocking Chandy–Lamport (the Vcl protocol)
//!
//! On the first marker of wave *w* (from the scheduler or any peer): clone
//! the interpreter (fork), start the pipelined image transfer to the
//! checkpoint server and the local disk write, send `Marker(w)` on every
//! outgoing channel, and start logging messages from every peer whose
//! marker has not arrived yet — each logged message is both delivered to
//! the application *and* streamed to the server (channel state). The local
//! checkpoint completes when all markers are in and the server acked the
//! image; then `WaveAck` goes to the scheduler. Computation never stops.
//! The blocking variant ([`CheckpointStyle::Blocking`]) instead freezes the
//! application until the wave completes and logs nothing.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use failmpi_net::{ConnId, HostId, ProcId};
use failmpi_sim::{SimDuration, SimTime};
use failmpi_mpi::{Action, Interp, OpStats, Program, Rank, Tag};

use crate::config::{CheckpointStyle, VProtocol};
use crate::ctx::{Cmd, Facilities};
use crate::dense::DenseTable;
use crate::event::{ports, tokens, Ev};
use crate::trace::{Hook, InstrumentedFn, VclEvent};
use crate::wire::{LoggedMsg, ProcImage, Wire};

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

/// An in-flight local checkpoint.
#[derive(Debug)]
struct Ckpt {
    wave: u32,
    /// Peers whose marker for this wave is still pending (messages from
    /// them are channel state and get logged).
    awaiting: BTreeSet<Rank>,
    /// The checkpoint server acked the image transfer.
    image_acked: bool,
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

    last_wave: u32,
    ckpt: Option<Ckpt>,
    /// Next sequence number per outgoing peer stream, by the peer's rank;
    /// a peer has an entry once something was sent to it.
    send_seq: DenseTable<u64>,
    /// V2: next expected sequence number per incoming peer stream.
    recv_seq: BTreeMap<Rank, u64>,
    /// V2: the sender-side message log (pessimistic logging, volatile).
    send_log: Vec<(Rank, Tag, u64, u64)>,
    /// V2: out-of-order arrivals held until the stream gap closes.
    reorder: BTreeMap<Rank, BTreeMap<u64, (Tag, u64)>>,
    /// V2: per-rank checkpoint version counter.
    ckpt_version: u32,
    /// This boot is a V2 single-rank restart.
    solo: bool,
    /// V2: replay requests that arrived before our restore finished.
    pending_replay: Vec<(Rank, u64)>,
    /// A wave opened while we were not `Running` yet (e.g. still restoring
    /// after a recovery); the checkpoint starts as soon as we resume.
    pending_wave: Option<u32>,
    /// Markers already received per wave, so a marker that beats our own
    /// checkpoint trigger is not waited for again.
    markers_seen: BTreeMap<u32, BTreeSet<Rank>>,
    /// Blocking-checkpoint freeze.
    frozen: bool,
    restore: Option<Restore>,
    /// A restored image waiting out the BLCR rebuild overhead.
    pending_install: Option<(ProcImage, Vec<LoggedMsg>, Option<u32>)>,

    /// MPI op counts for this incarnation. Lives here — not in the
    /// interpreter — because the interpreter is the checkpoint image and
    /// rolls back on recovery, which would erase the counts.
    pub ops: OpStats,
    /// When the interpreter last reported `Blocked` (open wait interval;
    /// closed by the next non-`Blocked` step).
    blocked_since: Option<SimTime>,
}

impl VNode {
    pub fn new(
        rank: Rank,
        proc: ProcId,
        host: HostId,
        epoch: u32,
        program: Arc<Program>,
        n_ranks: u32,
    ) -> Self {
        VNode {
            rank,
            proc,
            host,
            epoch,
            program,
            n_ranks,
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
            last_wave: 0,
            ckpt: None,
            send_seq: DenseTable::default(),
            recv_seq: BTreeMap::new(),
            send_log: Vec::new(),
            reorder: BTreeMap::new(),
            ckpt_version: 0,
            solo: false,
            pending_replay: Vec::new(),
            pending_wave: None,
            markers_seen: BTreeMap::new(),
            frozen: false,
            restore: None,
            pending_install: None,
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

    /// Runtime init done: dial dispatcher, scheduler and checkpoint server.
    pub fn connect_services(&mut self, ctx: &mut Facilities) {
        if self.phase != Phase::Boot {
            return;
        }
        ctx.net.connect(
            ctx.now,
            self.proc,
            ctx.addrs.dispatcher_host,
            ports::DISPATCHER,
            tokens::DISPATCHER,
        );
        ctx.net.connect(
            ctx.now,
            self.proc,
            ctx.addrs.scheduler_host,
            ports::SCHEDULER,
            tokens::SCHEDULER,
        );
        let sidx = ctx.addrs.server_for(self.rank);
        ctx.net.connect(
            ctx.now,
            self.proc,
            ctx.addrs.server_hosts[sidx],
            ports::server(sidx),
            tokens::SERVER,
        );
    }

    pub fn on_conn_established(&mut self, conn: ConnId, token: u64, ctx: &mut Facilities) {
        match token {
            tokens::DISPATCHER => self.dispatcher_conn = Some(conn),
            tokens::SCHEDULER => self.scheduler_conn = Some(conn),
            tokens::SERVER => self.server_conn = Some(conn),
            t => {
                if let Some(peer) = tokens::peer_of(t) {
                    self.peer_conn.insert(peer.0, conn);
                    self.conn_peer.insert(conn, peer);
                    self.check_mesh_complete(ctx);
                    return;
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
        self.peer_conn.insert(peer.0, conn);
        self.conn_peer.insert(conn, peer);
        // An accept while we are past our own mesh phase is a restarted
        // peer re-dialling us (the original mesh forms in `MeshConnect`).
        // Tell it where its outgoing stream to us stood, so it replays the
        // in-flight window from its checkpointed log (its re-execution
        // regenerates the rest).
        if ctx.cfg.protocol == VProtocol::V2
            && matches!(self.phase, Phase::Running | Phase::Finalized)
        {
            let seq = self.recv_seq.get(&peer).copied().unwrap_or(0);
            let rank = self.rank;
            ctx.send(conn, self.proc, Wire::ReplayFrom { rank, seq });
        }
        self.check_mesh_complete(ctx);
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
        if self.phase != Phase::MeshConnect || self.peer_conn.get(peer.0).is_some() {
            return;
        }
        ctx.net.connect(
            ctx.now,
            self.proc,
            self.hosts[peer.0 as usize],
            ports::daemon(peer),
            tokens::peer(peer),
        );
    }

    fn check_mesh_complete(&mut self, ctx: &mut Facilities) {
        if self.phase == Phase::MeshConnect && self.peer_conn.len() == self.n_ranks as usize - 1 {
            self.begin_restore(ctx);
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
                self.solo = solo;
                self.phase = Phase::MeshConnect;
                if solo {
                    // V2 single-rank restart: the fleet is running; dial
                    // everyone (they accept and re-associate the stream).
                    for p in 0..self.n_ranks {
                        if p != self.rank.0 {
                            let peer = Rank(p);
                            ctx.net.connect(
                                ctx.now,
                                self.proc,
                                self.hosts[p as usize],
                                ports::daemon(peer),
                                tokens::peer(peer),
                            );
                        }
                    }
                } else {
                    // Full (re)start: dial every lower rank; higher ranks
                    // dial us.
                    for p in 0..self.rank.0 {
                        let peer = Rank(p);
                        ctx.net.connect(
                            ctx.now,
                            self.proc,
                            self.hosts[p as usize],
                            ports::daemon(peer),
                            tokens::peer(peer),
                        );
                    }
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
                let base = ctx.cfg.terminate_delay.as_micros();
                let jittered = base / 2 + ctx.rng.below(base.max(1));
                ctx.sched(failmpi_sim::SimDuration::from_micros(jittered), ev);
            }
            Wire::Shutdown => {
                // Clean end of job: close streams gracefully and exit.
                let conns: Vec<ConnId> = [
                    self.dispatcher_conn,
                    self.scheduler_conn,
                    self.server_conn,
                ]
                .into_iter()
                .flatten()
                .chain(self.peer_conn.iter().map(|(_, &conn)| conn))
                .collect();
                for c in conns {
                    ctx.net.close(ctx.now, c, self.proc);
                }
                ctx.cmds.push(Cmd::ExitProcess {
                    proc: self.proc,
                    normal: true,
                });
            }
            Wire::SchedMarker { wave } => {
                self.maybe_start_checkpoint(wave, ctx);
            }
            Wire::Marker { wave } => {
                if let Some(p) = self.conn_peer.get(&conn).copied() {
                    self.markers_seen.entry(wave).or_default().insert(p);
                }
                self.maybe_start_checkpoint(wave, ctx);
                let peer = self.conn_peer.get(&conn).copied();
                if let (Some(ck), Some(p)) = (self.ckpt.as_mut(), peer) {
                    if ck.wave == wave {
                        ck.awaiting.remove(&p);
                        self.check_ckpt_done(ctx);
                    }
                }
            }
            Wire::AppMsg { from, tag, bytes, seq } => {
                if ctx.cfg.protocol == VProtocol::V2 {
                    self.v2_receive(from, tag, bytes, seq, ctx);
                    return;
                }
                // Vcl channel-state logging: received after our local
                // snapshot, sent before the peer's marker ⇒ in transit on
                // the cut.
                if let Some(ck) = &self.ckpt {
                    if ck.awaiting.contains(&from)
                        && ctx.cfg.checkpoint_style == CheckpointStyle::NonBlocking
                    {
                        let msg = Wire::CkptLogged {
                            rank: self.rank,
                            wave: ck.wave,
                            msg: LoggedMsg { from, tag, bytes },
                        };
                        if let Some(sc) = self.server_conn {
                            ctx.send(sc, self.proc, msg);
                        }
                    }
                }
                match self.interp.as_mut() {
                    Some(i) => {
                        i.deliver(from, tag, bytes);
                        self.ops.recvs.inc();
                        if self.phase == Phase::Running {
                            self.pump(ctx);
                        }
                    }
                    None => self.early_msgs.push((from, tag, bytes)),
                }
            }
            Wire::ReplayFrom { rank, seq } => {
                // V2: `rank` wants our log from `seq` on. Serve it from any
                // phase where the log is valid — including `Finalized`: a
                // daemon whose MPI process already completed still holds
                // the log its peers may roll back behind. Only a restore
                // in flight (log not reloaded yet) defers.
                if self.restore.is_some() || self.pending_install.is_some() {
                    self.pending_replay.push((rank, seq));
                } else {
                    self.replay_to(rank, seq, ctx);
                }
            }
            Wire::CkptStored { wave } => {
                if let Some(ck) = self.ckpt.as_mut() {
                    if ck.wave == wave {
                        ck.image_acked = true;
                        self.check_ckpt_done(ctx);
                    }
                }
            }
            Wire::Latest { wave } => {
                debug_assert!(matches!(self.restore, Some(Restore::Query)));
                match wave {
                    None => {
                        // Nothing ever committed: start (or restart) from
                        // scratch.
                        self.install_image(
                            ProcImage::plain(Interp::new(
                                self.rank,
                                Arc::clone(&self.program),
                            )),
                            Vec::new(),
                            None,
                            ctx,
                        );
                    }
                    Some(w) => {
                        if ctx.disk.get(self.host, self.rank, w, ctx.now).is_some() {
                            // Local image: read it from disk, ask the server
                            // only for the channel state.
                            self.restore = Some(Restore::LoadingDisk { wave: w });
                            let delay = SimDuration::from_secs_f64(
                                self.program.image_bytes() as f64
                                    / ctx.cfg.disk_bytes_per_sec as f64,
                            );
                            ctx.sched(
                                delay,
                                Ev::DiskLoaded {
                                    rank: self.rank,
                                    proc: self.proc,
                                },
                            );
                        } else {
                            self.restore = Some(Restore::Fetching);
                            let (rank, proc) = (self.rank, self.proc);
                            if let Some(sc) = self.server_conn {
                                ctx.send(sc, proc, Wire::FetchImage { rank });
                            }
                        }
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
        let (rank, proc) = (self.rank, self.proc);
        if let Some(sc) = self.server_conn {
            ctx.send(sc, proc, Wire::FetchLogs { rank });
        }
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
        let (rank, proc) = (self.rank, self.proc);
        if let Some(dc) = self.dispatcher_conn {
            ctx.send(dc, proc, Wire::Ready { rank });
        }
    }

    fn begin_restore(&mut self, ctx: &mut Facilities) {
        self.phase = Phase::Restoring;
        self.restore = Some(Restore::Query);
        let (rank, proc) = (self.rank, self.proc);
        if let Some(sc) = self.server_conn {
            ctx.send(sc, proc, Wire::QueryLatest { rank });
        }
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
            let base = ctx.cfg.restart_overhead.as_micros();
            let jittered = base / 2 + ctx.rng.below(base.max(1));
            ctx.sched(failmpi_sim::SimDuration::from_micros(jittered), ev);
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
            mut interp,
            send_seq,
            recv_seq,
            send_log,
        } = image;
        self.send_log = send_log;
        // Stream positions: restored from the image under V2; reset to
        // zero under Vcl, whose global rollback renews every stream.
        self.send_seq = DenseTable::default();
        for (peer, seq) in send_seq {
            self.send_seq.insert(peer.0, seq);
        }
        self.recv_seq = recv_seq.iter().copied().collect();
        // Replay of stored in-transit messages (step 5 of the paper's
        // Fig. 1): delivered as if they arrived fresh from the network.
        for m in logged {
            interp.deliver(m.from, m.tag, m.bytes);
            self.ops.recvs.inc();
        }
        for (from, tag, bytes) in std::mem::take(&mut self.early_msgs) {
            interp.deliver(from, tag, bytes);
            self.ops.recvs.inc();
        }
        self.interp = Some(interp);
        self.restore = None;
        self.last_wave = from_wave.unwrap_or(0);
        self.ckpt_version = from_wave.unwrap_or(0);
        self.phase = Phase::Running;
        ctx.trace(VclEvent::RankResumed {
            rank: self.rank,
            from_wave,
        });
        if ctx.cfg.protocol == VProtocol::V2 {
            if self.solo {
                // Ask every peer to replay its log from our restored
                // stream positions (messages in flight when we died, plus
                // anything they sent while we were down).
                for (peer, &conn) in self.peer_conn.iter() {
                    let seq = self.recv_seq.get(&Rank(peer)).copied().unwrap_or(0);
                    let rank = self.rank;
                    ctx.send(conn, self.proc, Wire::ReplayFrom { rank, seq });
                }
            }
            // Peers that reconnected to us while we were restoring asked
            // for replay; serve them now that the log is back.
            for (peer, seq) in std::mem::take(&mut self.pending_replay) {
                self.replay_to(peer, seq, ctx);
            }
            // Uncoordinated periodic checkpoints, staggered by rank so the
            // server sees a spread load rather than coordinated bursts.
            let stagger = ctx.cfg.checkpoint_period * self.rank.0 as u64
                / self.n_ranks.max(1) as u64;
            let (rank, proc) = (self.rank, self.proc);
            ctx.sched(
                ctx.cfg.checkpoint_period + stagger,
                Ev::SelfCkpt { rank, proc },
            );
        }
        self.pump(ctx);
        // A wave opened while we were restoring: checkpoint now.
        if let Some(w) = self.pending_wave.take() {
            self.maybe_start_checkpoint(w, ctx);
        }
    }

    /// First marker of a wave: fork-checkpoint, start transfers, flood
    /// markers, open the logging window. A marker arriving while the node is
    /// not computing yet (booting or restoring after a recovery) is
    /// deferred until computation resumes.
    fn maybe_start_checkpoint(&mut self, wave: u32, ctx: &mut Facilities) {
        if wave <= self.last_wave || self.ckpt.is_some() {
            return;
        }
        if self.phase != Phase::Running {
            if self.phase != Phase::Finalized && self.phase != Phase::Dead {
                self.pending_wave = Some(self.pending_wave.unwrap_or(0).max(wave));
            }
            return;
        }
        let interp = self.interp.as_ref().expect("running without interp");
        let snapshot = interp.clone(); // the fork(): computation continues
        let image_bytes = snapshot.image_bytes();

        // Local disk write (the clone writes its file; usable once done).
        let disk_delay =
            SimDuration::from_secs_f64(image_bytes as f64 / ctx.cfg.disk_bytes_per_sec as f64);
        ctx.disk.store(
            self.host,
            self.rank,
            wave,
            snapshot.clone(),
            ctx.now + disk_delay,
        );

        // Pipelined transfer to the checkpoint server, then the control
        // message reporting the total size.
        let (rank, proc) = (self.rank, self.proc);
        if let Some(sc) = self.server_conn {
            ctx.send(
                sc,
                proc,
                Wire::CkptImage {
                    rank,
                    wave,
                    image: Box::new(ProcImage::plain(snapshot)),
                },
            );
            ctx.send(
                sc,
                proc,
                Wire::CkptControl {
                    rank,
                    wave,
                    total_bytes: image_bytes,
                },
            );
        }

        // Flood markers on every outgoing channel.
        for (_, &conn) in self.peer_conn.iter() {
            ctx.send(conn, proc, Wire::Marker { wave });
        }

        let seen = self.markers_seen.remove(&wave).unwrap_or_default();
        self.markers_seen.retain(|&w, _| w > wave);
        let awaiting: BTreeSet<Rank> = (0..self.n_ranks)
            .map(Rank)
            .filter(|&r| r != self.rank && !seen.contains(&r))
            .collect();
        self.ckpt = Some(Ckpt {
            wave,
            awaiting,
            image_acked: false,
        });
        if ctx.cfg.checkpoint_style == CheckpointStyle::Blocking {
            self.frozen = true;
        }
        self.check_ckpt_done(ctx);
    }

    fn check_ckpt_done(&mut self, ctx: &mut Facilities) {
        let done = self
            .ckpt
            .as_ref()
            .is_some_and(|c| c.awaiting.is_empty() && c.image_acked);
        if !done {
            return;
        }
        let wave = self.ckpt.take().expect("checked").wave;
        self.last_wave = wave;
        ctx.trace(VclEvent::LocalCheckpointDone {
            rank: self.rank,
            wave,
        });
        let (rank, proc) = (self.rank, self.proc);
        if let Some(sc) = self.scheduler_conn {
            ctx.send(sc, proc, Wire::WaveAck { rank, wave });
        }
        if self.frozen {
            self.frozen = false;
            if self.phase == Phase::Running {
                self.pump(ctx);
            }
        }
    }

    /// V2: resend every logged message for `rank` with sequence ≥ `seq`.
    fn replay_to(&mut self, rank: Rank, seq: u64, ctx: &mut Facilities) {
        let entries: Vec<(Tag, u64, u64)> = self
            .send_log
            .iter()
            .filter(|&&(to, _, _, s)| to == rank && s >= seq)
            .map(|&(_, tag, bytes, s)| (tag, bytes, s))
            .collect();
        if let Some(&conn) = self.peer_conn.get(rank.0) {
            for (tag, bytes, s) in entries {
                ctx.send(
                    conn,
                    self.proc,
                    Wire::AppMsg {
                        from: self.rank,
                        tag,
                        bytes,
                        seq: s,
                    },
                );
            }
        }
    }

    /// V2 in-order delivery with duplicate suppression: `seq` below the
    /// expected cursor is a re-execution duplicate (dropped); at the cursor
    /// it is delivered (draining any buffered successors); above it it is
    /// held until the gap closes (replay racing fresh traffic on a new
    /// stream).
    fn v2_receive(&mut self, from: Rank, tag: Tag, bytes: u64, seq: u64, ctx: &mut Facilities) {
        let expected = self.recv_seq.entry(from).or_insert(0);
        if seq < *expected {
            return; // duplicate from a re-execution
        }
        if seq > *expected {
            self.reorder.entry(from).or_default().insert(seq, (tag, bytes));
            return;
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
        match self.interp.as_mut() {
            Some(i) => {
                let n = deliveries.len() as u64;
                for (t, b) in deliveries {
                    i.deliver(from, t, b);
                }
                self.ops.recvs.add(n);
                if self.phase == Phase::Running {
                    self.pump(ctx);
                }
            }
            None => {
                for (t, b) in deliveries {
                    self.early_msgs.push((from, t, b));
                }
            }
        }
    }

    /// V2: take an uncoordinated per-rank checkpoint and ship it.
    pub fn on_self_ckpt(&mut self, ctx: &mut Facilities) {
        if self.phase != Phase::Running || ctx.cfg.protocol != VProtocol::V2 {
            return;
        }
        let Some(interp) = self.interp.as_ref() else {
            return;
        };
        self.ckpt_version += 1;
        let image = ProcImage {
            interp: interp.clone(),
            send_seq: self.send_seq.iter().map(|(r, &v)| (Rank(r), v)).collect(),
            recv_seq: self.recv_seq.iter().map(|(&r, &v)| (r, v)).collect(),
            send_log: self.send_log.clone(),
        };
        let bytes = image.image_bytes();
        let (rank, proc, version) = (self.rank, self.proc, self.ckpt_version);
        if let Some(sc) = self.server_conn {
            ctx.send(
                sc,
                proc,
                Wire::CkptImage {
                    rank,
                    wave: version,
                    image: Box::new(image),
                },
            );
            ctx.send(
                sc,
                proc,
                Wire::CkptControl {
                    rank,
                    wave: version,
                    total_bytes: bytes,
                },
            );
        }
        ctx.sched(
            ctx.cfg.checkpoint_period,
            Ev::SelfCkpt { rank, proc },
        );
    }

    /// A compute phase ended while the process was suspended (SIGSTOP):
    /// note the wake-up for `fail_continue` to replay.
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
        if self.frozen {
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
        if self.frozen || self.busy || self.phase != Phase::Running {
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
                    let seq = {
                        let s = self.send_seq.or_insert(to.0, 0);
                        let v = *s;
                        *s += 1;
                        v
                    };
                    if ctx.cfg.protocol == VProtocol::V2 {
                        // Pessimistic sender-based logging: keep the
                        // message for a possible receiver restart. (The
                        // real V2 prunes on checkpoint acks; the simulated
                        // log is virtual memory, so we keep it all.)
                        self.send_log.push((to, tag, bytes, seq));
                    }
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
                    let (rank, proc) = (self.rank, self.proc);
                    if let Some(dc) = self.dispatcher_conn {
                        ctx.send(dc, proc, Wire::Finalized { rank });
                    }
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
        if self.dispatcher_conn == Some(conn) {
            self.dispatcher_conn = None;
        }
        if self.scheduler_conn == Some(conn) {
            self.scheduler_conn = None;
        }
        if self.server_conn == Some(conn) {
            self.server_conn = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{connect_pair, world};
    use failmpi_mpi::ProgramBuilder;
    use failmpi_net::NetEvent;

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
        let mut v = VNode::new(Rank(1), proc, host, 0, Arc::clone(&program), 4);
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
        assert_eq!(v.reorder[&Rank(2)].len(), 1);

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
