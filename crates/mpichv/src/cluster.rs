//! The whole MPICH-Vcl deployment as one simulation model.
//!
//! [`Cluster`] owns the network, the dispatcher, the checkpoint scheduler,
//! the checkpoint servers and one [`VNode`] per rank (Fig. 2(b) of the
//! paper), routes every event to the right component, and exposes the
//! process-control surface the FAIL-MPI middleware drives: kill, suspend,
//! resume, breakpoints, and lifecycle hooks.

use std::sync::Arc;

use failmpi_backend::{Chassis, ProtocolBackend, Signal};
use failmpi_net::{CloseReason, Gated, HostId, NetEvent, Network, ProcId};
use failmpi_sim::{
    Engine, EventDesc, EventId, Label, Model, PackLabel, RunOutcome, Scheduler, SimDuration, SimRng,
    SimTime,
};
use failmpi_mpi::{Program, Rank};

use crate::config::VclConfig;
use crate::ctx::{Addrs, Cmd, Facilities};
use crate::dense::DenseTable;
use crate::dispatcher::Dispatcher;
use crate::event::{ports, Ev};
use crate::scheduler::CkptScheduler;
use crate::server::CkptServer;
use crate::trace::{Hook, VclEvent};
use crate::vnode::{Phase, VNode};
use crate::wire::Wire;

/// Which component a process incarnates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Role {
    Dispatcher,
    Scheduler,
    Server(usize),
    Daemon(u32),
}

/// The incarnation `proc` of `rank`'s daemon, if it still holds the rank's
/// slot. Takes the slot table, not the cluster, so that the node borrows
/// side by side with the cluster's [`Facilities`].
fn vnode_at(vnodes: &mut [Option<VNode>], rank: Rank, proc: ProcId) -> Option<&mut VNode> {
    vnodes
        .get_mut(rank.0 as usize)?
        .as_mut()
        .filter(|v| v.proc == proc)
}

/// A full simulated MPICH-Vcl deployment.
pub struct Cluster {
    /// Everything that is not a component: configuration, network,
    /// chassis, disk, clock. Handed to the component an event is for.
    ctx: Facilities,
    dispatcher: Dispatcher,
    scheduler: CkptScheduler,
    servers: Vec<CkptServer>,
    vnodes: Vec<Option<VNode>>,
    /// Which component each process incarnates (a retired process has no
    /// entry).
    role_of: DenseTable<Role>,
    programs: Vec<Arc<Program>>,
}

impl Cluster {
    /// Builds the deployment and issues the initial launches. Drain the
    /// startup events with [`Cluster::take_outputs`] and schedule them.
    pub fn new(cfg: VclConfig, programs: Vec<Arc<Program>>, seed: u64) -> Self {
        cfg.validate().expect("invalid VclConfig");
        assert_eq!(
            programs.len(),
            cfg.n_ranks as usize,
            "one program per rank required"
        );
        let mut net = Network::new(cfg.net.clone());
        let dispatcher_host = net.add_host();
        let scheduler_host = net.add_host();
        let server_hosts = net.add_hosts(cfg.n_ckpt_servers);
        let compute_hosts = net.add_hosts(cfg.n_compute_hosts);

        let mut role_of = DenseTable::default();
        let dispatcher_proc = net.spawn_process(dispatcher_host);
        net.listen(dispatcher_proc, ports::DISPATCHER);
        role_of.insert(dispatcher_proc.0, Role::Dispatcher);

        let scheduler_proc = net.spawn_process(scheduler_host);
        net.listen(scheduler_proc, ports::SCHEDULER);
        role_of.insert(scheduler_proc.0, Role::Scheduler);

        let mut servers = Vec::new();
        for (i, &h) in server_hosts.iter().enumerate() {
            let p = net.spawn_process(h);
            net.listen(p, ports::server(i));
            role_of.insert(p.0, Role::Server(i));
            servers.push(CkptServer::new(p, i, &cfg));
        }

        let n = cfg.n_ranks as usize;
        let dispatcher = Dispatcher::new(
            dispatcher_proc,
            &cfg,
            compute_hosts[..n].to_vec(),
            compute_hosts[n..].to_vec(),
        );
        let scheduler = CkptScheduler::new(scheduler_proc, &cfg);
        let addrs = Addrs {
            dispatcher_host,
            scheduler_host,
            server_hosts,
            compute_hosts,
        };
        let mut cluster = Cluster {
            ctx: Facilities::new(cfg, addrs, net, SimRng::new(seed).derive(0xC1)),
            dispatcher,
            scheduler,
            servers,
            vnodes: (0..n).map(|_| None).collect(),
            role_of,
            programs,
        };
        let ctx = &mut cluster.ctx;
        cluster.scheduler.boot(ctx);
        cluster.dispatcher.launch_all(ctx);
        ctx.sched(ctx.cfg.checkpoint_period, Ev::SchedTick);
        cluster.flush();
        cluster
    }

    // ------------------------------------------------------------------
    // Event handling (at the instant `self.ctx.now`)
    // ------------------------------------------------------------------

    fn route(&mut self, ev: Ev) {
        let ctx = &mut self.ctx;
        match ev {
            Ev::Net(nev) => match ctx.net.gate(nev) {
                Gated::Deliver(nev) => self.route_net(nev),
                Gated::Buffered | Gated::Dropped => {}
            },
            Ev::SchedTick => {
                self.scheduler.on_tick(ctx);
                ctx.sched(ctx.cfg.checkpoint_period, Ev::SchedTick);
            }
            Ev::SpawnDaemon { rank, host, epoch } => self.spawn_daemon(rank, host, epoch),
            Ev::ServerWriteDone { server, conn, rank, wave } => {
                self.servers[server].on_write_done(conn, rank, wave, ctx);
            }
            Ev::LaunchFailed { rank, epoch } => self.dispatcher.on_launch_failed(rank, epoch, ctx),
            Ev::ComputeDone { rank, proc, .. }
            | Ev::BootConnect { rank, proc }
            | Ev::RestoreDone { rank, proc }
            | Ev::SelfCkpt { rank, proc }
            | Ev::DaemonExit { rank, proc, .. }
            | Ev::DiskLoaded { rank, proc }
            | Ev::RetryPeerConnect { rank, proc, .. } => self.route_daemon(rank, proc, ev),
        }
    }

    /// The one gate in front of the seven events addressed to a daemon
    /// incarnation: one that no longer holds its rank's slot gets nothing
    /// (the event is stale), and one that is SIGSTOPped cannot run its
    /// handler yet.
    fn route_daemon(&mut self, rank: Rank, proc: ProcId, ev: Ev) {
        let Some(v) = vnode_at(&mut self.vnodes, rank, proc) else {
            return;
        };
        let ctx = &mut self.ctx;
        if ctx.net.is_suspended(proc) {
            match ev {
                // Noted, for `Signal::Continue` to replay the wake-up.
                Ev::ComputeDone { gen, .. } => return v.on_compute_done_suspended(gen),
                // The exit was already ordered; the signal does not undo it.
                Ev::DaemonExit { .. } => {}
                // Init, restore, disk read, dial: poll until resumed.
                ev => return ctx.sched(SimDuration::from_millis(10), ev),
            }
        }
        match ev {
            Ev::ComputeDone { gen, .. } => v.on_compute_done(gen, ctx),
            Ev::BootConnect { .. } => v.connect_services(ctx),
            Ev::RestoreDone { .. } => v.on_restore_done(ctx),
            Ev::SelfCkpt { .. } => v.on_self_ckpt(ctx),
            Ev::DiskLoaded { .. } => v.on_disk_loaded(ctx),
            Ev::RetryPeerConnect { peer, .. } => v.retry_peer_connect(peer, ctx),
            Ev::DaemonExit { normal, .. } => self.kill_daemon(proc, Some(normal)),
            other => debug_assert!(false, "not addressed to a daemon: {other:?}"),
        }
    }

    fn route_net(&mut self, nev: NetEvent<Wire>) {
        let recipient = nev.recipient();
        let Some(&role) = self.role_of.get(recipient.0) else {
            return; // stale event for a dead incarnation
        };
        // Payload-copy ledger + role span: a delivered wire message is
        // handed (by value) to the recipient's handler here.
        if failmpi_obs::prof::is_enabled() {
            if let NetEvent::Delivered { payload, .. } = &nev {
                failmpi_obs::prof::copy("mpichv.dispatch", payload.wire_bytes());
            }
        }
        let _role_span = failmpi_obs::prof::span(match role {
            Role::Dispatcher => "dispatcher",
            Role::Scheduler => "scheduler",
            Role::Server(_) => "ckpt_server",
            Role::Daemon(_) => "daemon",
        });
        let ctx = &mut self.ctx;
        match role {
            Role::Dispatcher => match nev {
                NetEvent::Delivered { conn, payload, .. } => {
                    self.dispatcher.on_msg(conn, payload, ctx);
                }
                NetEvent::Closed { conn, reason, .. } => {
                    let died = reason == CloseReason::PeerDied;
                    self.dispatcher.on_closed(conn, died, ctx);
                }
                _ => {}
            },
            Role::Scheduler => match nev {
                NetEvent::Accepted { conn, .. } => self.scheduler.on_daemon_conn(conn),
                NetEvent::ConnEstablished { conn, token, .. } => {
                    self.scheduler.on_conn_established(conn, token);
                }
                NetEvent::Delivered { payload, .. } => self.scheduler.on_msg(payload, ctx),
                NetEvent::Closed { conn, .. } => self.scheduler.on_closed(conn),
                _ => {}
            },
            Role::Server(i) => {
                if let NetEvent::Delivered { conn, payload, .. } = nev {
                    self.servers[i].on_msg(conn, payload, ctx);
                }
            }
            Role::Daemon(r) => {
                let rank = Rank(r);
                let Some(v) = vnode_at(&mut self.vnodes, rank, recipient) else {
                    return;
                };
                match nev {
                    NetEvent::ConnEstablished { conn, token, .. } => {
                        v.on_conn_established(conn, token, ctx);
                    }
                    NetEvent::Accepted { conn, peer, port, .. } => {
                        // Mesh accept: the identity exchange is resolved via
                        // the role table (the real daemons exchange a hello).
                        if port == ports::daemon(rank) {
                            if let Some(&Role::Daemon(pr)) = self.role_of.get(peer.0) {
                                v.on_peer_accepted(conn, Rank(pr), ctx);
                            }
                        }
                    }
                    NetEvent::Delivered { conn, payload, .. } => v.on_msg(conn, payload, ctx),
                    NetEvent::Closed { conn, .. } => v.on_closed(conn),
                    NetEvent::ConnectFailed { token, .. } => v.on_connect_failed(token, ctx),
                }
            }
        }
    }

    fn spawn_daemon(&mut self, rank: Rank, host: HostId, epoch: u32) {
        if !self.dispatcher.expects_spawn(rank, epoch) {
            return; // launch superseded by a newer recovery
        }
        let ctx = &mut self.ctx;
        // A lingering incarnation from a superseded epoch must not share
        // the rank slot; the relaunch replaces it (its death is abnormal
        // from the injection layer's point of view).
        if let Some(old) = self.vnodes[rank.0 as usize].take() {
            // The replaced incarnation's MPI op counts would vanish with
            // the slot; fold them into the run totals first.
            ctx.retired_ops.merge(&old.ops);
            if ctx.net.is_alive(old.proc) {
                let (p, h) = (old.proc, old.host);
                ctx.net.kill(ctx.now, p);
                self.role_of.remove(p.0);
                ctx.chassis.disarm(p);
                ctx.chassis.hooks.push(Hook::OnError { host: h, proc: p });
            }
        }
        let proc = ctx.net.spawn_process(host);
        self.role_of.insert(proc.0, Role::Daemon(rank.0));
        let program = Arc::clone(&self.programs[rank.0 as usize]);
        let mut v = VNode::new(rank, proc, host, epoch, program, &ctx.cfg);
        ctx.trace(VclEvent::DaemonSpawned { rank, epoch, host });
        // FAIL-MPI registration: the self-deploying runtime registers every
        // launched process with the local injection daemon.
        ctx.chassis.hooks.push(Hook::OnLoad { host, proc });
        v.boot(ctx);
        let init = SimDuration::from_micros(
            ctx.rng.below(ctx.cfg.init_delay_max.as_micros().max(1)),
        );
        ctx.sched(init, Ev::BootConnect { rank, proc });
        self.vnodes[rank.0 as usize] = Some(v);
    }

    fn flush(&mut self) {
        loop {
            let cmds = std::mem::take(&mut self.ctx.cmds);
            if cmds.is_empty() {
                break;
            }
            for cmd in cmds {
                match cmd {
                    Cmd::SpawnDaemon {
                        rank,
                        host,
                        epoch,
                        extra_delay,
                    } => {
                        let ctx = &mut self.ctx;
                        let jitter_us = ctx.rng.below(
                            ctx.cfg.boot_jitter_max.as_micros().max(1),
                        );
                        let delay = ctx.cfg.ssh_spawn_delay
                            + extra_delay
                            + SimDuration::from_micros(jitter_us);
                        ctx.sched(delay, Ev::SpawnDaemon { rank, host, epoch });
                    }
                    Cmd::ExitProcess { proc, normal } => self.kill_daemon(proc, Some(normal)),
                }
            }
        }
        let ctx = &mut self.ctx;
        let net_events = ctx.net.drain_events().map(|(t, ev)| (t, Ev::Net(ev)));
        ctx.chassis.out.extend(net_events);
    }

    /// Common death path for daemons: an ordered exit (`Some(normal)`
    /// picks the lifecycle hook) or an injected kill (`None`: the injector
    /// already knows).
    fn kill_daemon(&mut self, proc: ProcId, hook: Option<bool>) {
        let ctx = &mut self.ctx;
        if !ctx.net.is_alive(proc) {
            return;
        }
        let Some(&Role::Daemon(r)) = self.role_of.get(proc.0) else {
            return;
        };
        let rank = Rank(r);
        let host = ctx.net.host_of(proc);
        let epoch = vnode_at(&mut self.vnodes, rank, proc)
            .map(|v| {
                v.phase = Phase::Dead;
                v.epoch
            })
            .unwrap_or(0);
        // Pre-registration death: the dispatcher's ssh notices the launch
        // failure (there is no control stream whose closure could tell it).
        let registered = self.dispatcher.is_registered(rank);
        ctx.chassis.note_daemon_death(ctx.now, rank.0);
        ctx.net.kill(ctx.now, proc);
        self.role_of.remove(proc.0);
        ctx.chassis.disarm(proc);
        if !registered {
            ctx.sched(ctx.cfg.net.latency, Ev::LaunchFailed { rank, epoch });
        }
        match hook {
            Some(true) => ctx.chassis.hooks.push(Hook::OnExit { host, proc }),
            Some(false) => ctx.chassis.hooks.push(Hook::OnError { host, proc }),
            None => {}
        }
    }

    // ------------------------------------------------------------------
    // What `benchmark/` calls without [`ProtocolBackend`] in scope. The
    // benchmark is frozen (ROADMAP, thaw batch), so these stay inherent;
    // each forwards to its one body in the trait.
    // ------------------------------------------------------------------

    /// [`ProtocolBackend::set_event_cause`].
    pub fn set_event_cause(&mut self, cause: Option<EventId>) {
        ProtocolBackend::set_event_cause(self, cause);
    }

    /// [`ProtocolBackend::dispatch`]; afterwards, drain
    /// [`Cluster::take_outputs`] into the scheduler and
    /// [`Cluster::take_hooks`] into the injection layer.
    pub fn dispatch(&mut self, now: SimTime, ev: Ev) {
        ProtocolBackend::dispatch(self, now, ev);
    }

    /// Moves out the events produced since the last call (the allocating
    /// form of [`ProtocolBackend::drain_outputs`]).
    pub fn take_outputs(&mut self) -> Vec<(SimTime, Ev)> {
        std::mem::take(&mut self.ctx.chassis.out)
    }

    /// [`ProtocolBackend::take_hooks`].
    pub fn take_hooks(&mut self) -> Vec<Hook> {
        ProtocolBackend::take_hooks(self)
    }

    /// [`ProtocolBackend::is_complete`].
    pub fn is_complete(&self) -> bool {
        ProtocolBackend::is_complete(self)
    }

    // ------------------------------------------------------------------
    // Diagnostics
    // ------------------------------------------------------------------

    fn rank_track(&self, rank: u32) -> u32 {
        2 + self.ctx.cfg.n_ckpt_servers as u32 + rank
    }

    fn track_of_proc(&self, proc: ProcId) -> u32 {
        match self.role_of.get(proc.0).copied() {
            Some(Role::Dispatcher) => 0,
            Some(Role::Scheduler) => 1,
            Some(Role::Server(i)) => 2 + i as u32,
            Some(Role::Daemon(r)) => self.rank_track(r),
            // Retired incarnations (late events to dead processes).
            None => self.rank_track(self.ctx.cfg.n_ranks),
        }
    }

    /// Application progress of `rank`.
    pub fn progress_of(&self, rank: Rank) -> u32 {
        self.vnodes[rank.0 as usize]
            .as_ref()
            .map_or(0, VNode::progress)
    }

    /// The committed wave as known by checkpoint server `idx`.
    pub fn server_committed(&self, idx: usize) -> Option<u32> {
        self.servers[idx].committed()
    }

    /// Images currently staged on checkpoint server `idx` (bounded by
    /// 2 × ranks under the two-file retention scheme).
    pub fn server_staged_count(&self, idx: usize) -> usize {
        self.servers[idx].staged_count()
    }

    /// Checkpoint images currently on `rank`'s machine disk (bounded by 2
    /// under the two-file alternation).
    pub fn disk_image_count(&self, rank: Rank) -> usize {
        let host = self.dispatcher.machine_of(rank);
        self.ctx.disk.count(host, rank)
    }

    /// Whether a recovery is currently in flight.
    pub fn recovery_active(&self) -> bool {
        self.dispatcher.recovery_active()
    }

    /// Aggregated MPI op counts: every replaced daemon incarnation plus
    /// all incarnations still holding their rank slot (alive or dead).
    pub fn mpi_ops(&self) -> failmpi_mpi::OpStats {
        let mut total = self.ctx.retired_ops;
        for v in self.vnodes.iter().flatten() {
            total.merge(&v.ops);
        }
        total
    }
}

impl ProtocolBackend for Cluster {
    type Event = Ev;

    fn chassis(&self) -> &Chassis<Ev> {
        &self.ctx.chassis
    }

    fn chassis_mut(&mut self) -> &mut Chassis<Ev> {
        &mut self.ctx.chassis
    }

    fn dispatch(&mut self, now: SimTime, ev: Ev) {
        self.ctx.now = now;
        self.route(ev);
        self.flush();
    }

    /// All ranks finalized and the shutdown went out.
    fn is_complete(&self) -> bool {
        self.dispatcher.job_complete()
    }

    /// `Halt` is silent: the injecting daemon performed the kill, so no
    /// lifecycle hook. `Continue` flushes buffered inbound events,
    /// releases a breakpoint hold, and re-arms pending compute.
    fn fail(&mut self, now: SimTime, proc: ProcId, signal: Signal) {
        match signal {
            Signal::Halt => {
                self.ctx.now = now;
                self.kill_daemon(proc, None);
                self.flush();
            }
            Signal::Stop => self.ctx.net.suspend(proc),
            Signal::Continue => {
                let ctx = self.ctx.at(now);
                for ev in ctx.net.resume(proc) {
                    ctx.chassis.emit(now, Ev::Net(ev));
                }
                if let Some(&Role::Daemon(r)) = self.role_of.get(proc.0) {
                    if let Some(v) = vnode_at(&mut self.vnodes, Rank(r), proc) {
                        if v.held_at_set_command {
                            v.do_set_command(ctx);
                        }
                        if v.pending_wake {
                            v.pending_wake = false;
                            v.pump(ctx);
                        }
                    }
                }
                self.flush();
            }
        }
    }

    /// The paper's `G1`: `G1[i]` is the `i`-th.
    fn compute_hosts(&self) -> &[HostId] {
        &self.ctx.addrs.compute_hosts
    }

    fn track_names(&self) -> Vec<String> {
        let mut names = vec!["dispatcher".to_string(), "ckpt-scheduler".to_string()];
        for i in 0..self.ctx.cfg.n_ckpt_servers {
            names.push(format!("ckpt-server-{i}"));
        }
        for r in 0..self.ctx.cfg.n_ranks {
            names.push(format!("rank-{r}"));
        }
        names.push("retired".to_string());
        names
    }

    /// The event's kind, its label (codes 16 to 26, rendered by
    /// [`Ev::render`]; a network event packs its own), and the component
    /// lane it is delivered to: dispatcher, scheduler, one lane per
    /// checkpoint server, one lane per rank, then a catch-all for retired
    /// incarnations. Launch outcomes are the dispatcher's ssh noticing,
    /// on the launched rank's lane.
    fn describe(&self, ev: &Ev) -> EventDesc {
        let of_rank = |kind, code, rank: &Rank, arg: u32| {
            (kind, Label::new(code, [rank.0, arg, 0]), self.rank_track(rank.0))
        };
        let (kind, label, track) = match ev {
            Ev::Net(net) => (net.kind_str(), net.pack(), self.track_of_proc(net.recipient())),
            Ev::SchedTick => ("sched_tick", Label::new(17, [0; 3]), 1),
            Ev::ServerWriteDone { server, rank, wave, .. } => {
                let label = Label::new(19, [rank.0, *wave, 0]);
                ("server_write_done", label, 2 + *server as u32)
            }
            Ev::ComputeDone { rank, .. } => of_rank("compute_done", 16, rank, 0),
            Ev::SpawnDaemon { rank, .. } => of_rank("spawn_daemon", 18, rank, 0),
            Ev::RestoreDone { rank, .. } => of_rank("restore_done", 20, rank, 0),
            Ev::DiskLoaded { rank, .. } => of_rank("disk_loaded", 21, rank, 0),
            Ev::LaunchFailed { rank, .. } => of_rank("launch_failed", 22, rank, 0),
            Ev::SelfCkpt { rank, .. } => of_rank("self_ckpt", 23, rank, 0),
            Ev::BootConnect { rank, .. } => of_rank("boot_connect", 24, rank, 0),
            Ev::DaemonExit { rank, normal, .. } => {
                of_rank("daemon_exit", 25, rank, u32::from(*normal))
            }
            Ev::RetryPeerConnect { rank, peer, .. } => {
                of_rank("retry_peer_connect", 26, rank, peer.0)
            }
        };
        EventDesc { kind, label, track }
    }

    fn render_label(label: Label) -> String {
        Ev::render(label)
    }

    /// Writes this deployment's own metrics — `mpi.*` op counts and
    /// `net.*` channel counters — into `snap`. Everything written is a
    /// function of the simulated schedule, so same-seed runs produce
    /// byte-identical snapshots.
    fn contribute_metrics(&self, snap: &mut failmpi_obs::MetricsSnapshot) {
        let ops = self.mpi_ops();
        snap.set_counter("mpi.sends", ops.sends.get());
        snap.set_counter("mpi.recvs", ops.recvs.get());
        snap.set_counter("mpi.compute_phases", ops.compute_phases.get());
        snap.set_counter("mpi.progress_marks", ops.progress_marks.get());
        snap.set_counter("mpi.blocked_waits", ops.blocked_waits.get());
        snap.set_counter(
            "mpi.blocked_wait_micros",
            ops.blocked_wait_micros.get(),
        );
        snap.set_counter("mpi.finalizes", ops.finalizes.get());

        let net = self.ctx.net.stats();
        snap.set_counter("net.msgs_sent", net.msgs_sent.get());
        snap.set_counter("net.bytes_sent", net.bytes_sent.get());
        snap.set_counter("net.sends_dropped", net.sends_dropped.get());
        snap.set_counter("net.connects_ok", net.connects_ok.get());
        snap.set_counter("net.connects_failed", net.connects_failed.get());
        snap.set_counter("net.closes_graceful", net.closes_graceful.get());
        snap.set_counter("net.conns_reset", net.conns_reset.get());
        snap.set_counter("net.kills", net.kills.get());
        snap.set_counter("net.deliveries", net.deliveries.get());
        snap.set_counter("net.gate_buffered", net.gate_buffered.get());
        snap.set_counter("net.gate_dropped", net.gate_dropped.get());
    }
}

/// Runs a deployment with no fault injection until completion or
/// `deadline`; returns the engine outcome and the final cluster state.
pub fn run_standalone(
    cfg: VclConfig,
    programs: Vec<Arc<Program>>,
    seed: u64,
    deadline: SimTime,
) -> (RunOutcome, SimTime, Cluster) {
    /// [`Model`] wrapper running a cluster without fault injection.
    struct ClusterModel {
        cluster: Cluster,
    }

    impl Model for ClusterModel {
        type Event = Ev;

        fn handle(&mut self, now: SimTime, ev: Ev, sched: &mut Scheduler<Ev>) {
            self.cluster.set_event_cause(sched.current_event());
            self.cluster.dispatch(now, ev);
            for (t, e) in self.cluster.drain_outputs() {
                sched.at(t, e);
            }
            self.cluster.ctx.chassis.hooks.clear(); // nobody is injecting
        }

        fn finished(&self) -> bool {
            self.cluster.is_complete()
        }
    }

    let mut cluster = Cluster::new(cfg, programs, seed);
    let initial = cluster.take_outputs();
    let mut engine = Engine::new(ClusterModel { cluster });
    for (t, e) in initial {
        engine.schedule(t, e);
    }
    let outcome = engine.run(deadline);
    let at = engine.now();
    (outcome, at, engine.into_model().cluster)
}
