//! The whole MPICH-Vcl deployment as one simulation model.
//!
//! [`Cluster`] owns the network, the dispatcher, the checkpoint scheduler,
//! the checkpoint servers and one [`VNode`] per rank (Fig. 2(b) of the
//! paper), routes every event to the right component, and exposes the
//! process-control surface the FAIL-MPI middleware drives: kill, suspend,
//! resume, breakpoints, and lifecycle hooks.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use failmpi_net::{CloseReason, Gated, HostId, NetEvent, Network, ProcId};
use failmpi_sim::{
    Engine, Label, Model, PackLabel, RunOutcome, Scheduler, SimRng, SimTime, TraceEntry, TraceLog,
};
use failmpi_mpi::{Program, Rank};

use crate::config::VclConfig;
use crate::ctx::{Addrs, Cmd, Ctx, DiskStore, TrafficStats};
use crate::dense::DenseTable;
use crate::dispatcher::Dispatcher;
use crate::event::{ports, Ev};
use crate::metrics::VclMetrics;
use crate::scheduler::CkptScheduler;
use crate::server::CkptServer;
use crate::trace::{Hook, InstrumentedFn, VclEvent};
use crate::vnode::{Phase, VNode};

/// Which component a process incarnates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Role {
    Dispatcher,
    Scheduler,
    Server(usize),
    Daemon(u32),
}

/// The incarnation `proc` of `rank`'s daemon, if it still holds the rank's
/// slot. Takes the slot table, not the cluster, so that the node can be
/// handed a [`Ctx`] borrowing the cluster's other fields.
fn vnode_at(vnodes: &mut [Option<VNode>], rank: Rank, proc: ProcId) -> Option<&mut VNode> {
    vnodes
        .get_mut(rank.0 as usize)?
        .as_mut()
        .filter(|v| v.proc == proc)
}

/// Builds the borrow-split component context inline (a method would borrow
/// all of `self` and conflict with the component being called).
macro_rules! ctx {
    ($self:ident, $now:expr) => {
        Ctx {
            now: $now,
            cfg: &$self.cfg,
            addrs: &$self.addrs,
            net: &mut $self.net,
            out: &mut $self.out,
            tracelog: &mut $self.tracelog,
            hooks: &mut $self.hooks,
            cmds: &mut $self.cmds,
            disk: &mut $self.disk,
            rng: &mut $self.rng,
            breakpoints: &$self.breakpoints,
            traffic: &mut $self.traffic,
            metrics: &mut $self.metrics,
        }
    };
}

/// A full simulated MPICH-Vcl deployment.
pub struct Cluster {
    cfg: VclConfig,
    addrs: Addrs,
    net: Network<crate::wire::Wire>,
    tracelog: TraceLog<VclEvent>,
    out: Vec<(SimTime, Ev)>,
    hooks: Vec<Hook>,
    cmds: Vec<Cmd>,
    rng: SimRng,
    disk: DiskStore,
    traffic: TrafficStats,
    metrics: VclMetrics,
    breakpoints: HashMap<ProcId, HashSet<InstrumentedFn>>,
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
        let addrs = Addrs {
            dispatcher_host,
            scheduler_host,
            server_hosts: server_hosts.clone(),
            compute_hosts: compute_hosts.clone(),
        };

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
            servers.push(CkptServer::new(p, i));
        }

        let n = cfg.n_ranks as usize;
        let dispatcher = Dispatcher::new(
            dispatcher_proc,
            cfg.dispatcher,
            cfg.protocol,
            compute_hosts[..n].to_vec(),
            compute_hosts[n..].to_vec(),
        );
        let scheduler = CkptScheduler::new(scheduler_proc, cfg.n_ranks, cfg.n_ckpt_servers);

        let tracelog = if cfg.record_trace {
            TraceLog::new()
        } else {
            TraceLog::disabled()
        };
        let mut cluster = Cluster {
            rng: SimRng::new(seed).derive(0xC1),
            cfg,
            addrs,
            net,
            tracelog,
            out: Vec::new(),
            hooks: Vec::new(),
            cmds: Vec::new(),
            disk: DiskStore::default(),
            traffic: TrafficStats::default(),
            metrics: VclMetrics::default(),
            breakpoints: HashMap::new(),
            dispatcher,
            scheduler,
            servers,
            vnodes: (0..n).map(|_| None).collect(),
            role_of,
            programs,
        };
        let now = SimTime::ZERO;
        {
            let mut ctx = ctx!(cluster, now);
            cluster.scheduler.boot(&mut ctx);
        }
        {
            let mut ctx = ctx!(cluster, now);
            cluster.dispatcher.launch_all(&mut ctx);
        }
        cluster
            .out
            .push((now + cluster.cfg.checkpoint_period, Ev::SchedTick));
        cluster.flush(now);
        cluster
    }

    // ------------------------------------------------------------------
    // Event handling
    // ------------------------------------------------------------------

    /// Handles one event; afterwards, drain [`Cluster::take_outputs`] into
    /// the scheduler and [`Cluster::take_hooks`] into the injection layer.
    pub fn dispatch(&mut self, now: SimTime, ev: Ev) {
        self.route(now, ev);
        self.flush(now);
    }

    fn route(&mut self, now: SimTime, ev: Ev) {
        match ev {
            Ev::Net(nev) => match self.net.gate(nev) {
                Gated::Deliver(nev) => self.route_net(now, nev),
                Gated::Buffered | Gated::Dropped => {}
            },
            Ev::ComputeDone { rank, proc, gen } => {
                if self.net.is_suspended(proc) {
                    if let Some(v) = vnode_at(&mut self.vnodes, rank, proc) {
                        v.on_compute_done_suspended(gen);
                    }
                    return;
                }
                let Some(v) = vnode_at(&mut self.vnodes, rank, proc) else {
                    return;
                };
                v.on_compute_done(gen, &mut ctx!(self, now));
            }
            Ev::SchedTick => {
                self.scheduler.on_tick(&mut ctx!(self, now));
                self.out.push((now + self.cfg.checkpoint_period, Ev::SchedTick));
            }
            Ev::SpawnDaemon { rank, host, epoch } => self.spawn_daemon(now, rank, host, epoch),
            Ev::BootConnect { rank, proc } => {
                if self.net.is_suspended(proc) {
                    // A stopped process cannot run its init; poll.
                    self.out.push((
                        now + failmpi_sim::SimDuration::from_millis(10),
                        Ev::BootConnect { rank, proc },
                    ));
                    return;
                }
                let Some(v) = vnode_at(&mut self.vnodes, rank, proc) else {
                    return;
                };
                v.connect_services(&mut ctx!(self, now));
            }
            Ev::ServerWriteDone { server, conn, rank, wave } => {
                self.servers[server].on_write_done(conn, rank, wave, &mut ctx!(self, now));
            }
            Ev::RestoreDone { rank, proc } => {
                if self.net.is_suspended(proc) {
                    self.out.push((
                        now + failmpi_sim::SimDuration::from_millis(10),
                        Ev::RestoreDone { rank, proc },
                    ));
                    return;
                }
                let Some(v) = vnode_at(&mut self.vnodes, rank, proc) else {
                    return;
                };
                v.on_restore_done(&mut ctx!(self, now));
            }
            Ev::SelfCkpt { rank, proc } => {
                if self.net.is_suspended(proc) {
                    self.out.push((
                        now + failmpi_sim::SimDuration::from_millis(10),
                        Ev::SelfCkpt { rank, proc },
                    ));
                    return;
                }
                let Some(v) = vnode_at(&mut self.vnodes, rank, proc) else {
                    return;
                };
                v.on_self_ckpt(&mut ctx!(self, now));
            }
            Ev::DaemonExit { rank, proc, normal } => {
                if vnode_at(&mut self.vnodes, rank, proc).is_some() {
                    self.exit_process(now, proc, normal);
                }
            }
            Ev::DiskLoaded { rank, proc } => {
                if self.net.is_suspended(proc) {
                    // A stopped process cannot finish its disk read; poll.
                    self.out.push((
                        now + failmpi_sim::SimDuration::from_millis(10),
                        Ev::DiskLoaded { rank, proc },
                    ));
                    return;
                }
                let Some(v) = vnode_at(&mut self.vnodes, rank, proc) else {
                    return;
                };
                v.on_disk_loaded(&mut ctx!(self, now));
            }
            Ev::LaunchFailed { rank, epoch } => {
                self.dispatcher
                    .on_launch_failed(rank, epoch, &mut ctx!(self, now));
            }
            Ev::RetryPeerConnect { rank, proc, peer } => {
                if self.net.is_suspended(proc) {
                    self.out.push((
                        now + failmpi_sim::SimDuration::from_millis(10),
                        Ev::RetryPeerConnect { rank, proc, peer },
                    ));
                    return;
                }
                let Some(v) = vnode_at(&mut self.vnodes, rank, proc) else {
                    return;
                };
                v.retry_peer_connect(peer, &mut ctx!(self, now));
            }
        }
    }

    fn route_net(&mut self, now: SimTime, nev: NetEvent<crate::wire::Wire>) {
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
        match role {
            Role::Dispatcher => match nev {
                NetEvent::Delivered { conn, payload, .. } => {
                    self.dispatcher.on_msg(conn, payload, &mut ctx!(self, now));
                }
                NetEvent::Closed { conn, reason, .. } => {
                    let died = reason == CloseReason::PeerDied;
                    self.dispatcher.on_closed(conn, died, &mut ctx!(self, now));
                }
                _ => {}
            },
            Role::Scheduler => match nev {
                NetEvent::Accepted { conn, .. } => self.scheduler.on_daemon_conn(conn),
                NetEvent::ConnEstablished { conn, token, .. } => {
                    self.scheduler.on_conn_established(conn, token);
                }
                NetEvent::Delivered { payload, .. } => {
                    self.scheduler.on_msg(payload, &mut ctx!(self, now));
                }
                NetEvent::Closed { conn, .. } => self.scheduler.on_closed(conn),
                _ => {}
            },
            Role::Server(i) => {
                if let NetEvent::Delivered { conn, payload, .. } = nev {
                    self.servers[i].on_msg(conn, payload, &mut ctx!(self, now));
                }
            }
            Role::Daemon(r) => {
                let rank = Rank(r);
                let Some(v) = vnode_at(&mut self.vnodes, rank, recipient) else {
                    return;
                };
                match nev {
                    NetEvent::ConnEstablished { conn, token, .. } => {
                        v.on_conn_established(conn, token, &mut ctx!(self, now));
                    }
                    NetEvent::Accepted { conn, peer, port, .. } => {
                        // Mesh accept: the identity exchange is resolved via
                        // the role table (the real daemons exchange a hello).
                        if port == ports::daemon(rank) {
                            if let Some(&Role::Daemon(pr)) = self.role_of.get(peer.0) {
                                v.on_peer_accepted(conn, Rank(pr), &mut ctx!(self, now));
                            }
                        }
                    }
                    NetEvent::Delivered { conn, payload, .. } => {
                        v.on_msg(conn, payload, &mut ctx!(self, now));
                    }
                    NetEvent::Closed { conn, .. } => v.on_closed(conn),
                    NetEvent::ConnectFailed { token, .. } => {
                        v.on_connect_failed(token, &mut ctx!(self, now));
                    }
                }
            }
        }
    }

    fn spawn_daemon(&mut self, now: SimTime, rank: Rank, host: HostId, epoch: u32) {
        if !self.dispatcher.expects_spawn(rank, epoch) {
            return; // launch superseded by a newer recovery
        }
        // A lingering incarnation from a superseded epoch must not share
        // the rank slot; the relaunch replaces it (its death is abnormal
        // from the injection layer's point of view).
        if let Some(old) = self.vnodes[rank.0 as usize].take() {
            // The replaced incarnation's MPI op counts would vanish with
            // the slot; fold them into the run totals first.
            self.metrics.retire_ops(&old.ops);
            if self.net.is_alive(old.proc) {
                let (p, h) = (old.proc, old.host);
                self.net.kill(now, p);
                self.role_of.remove(p.0);
                self.breakpoints.remove(&p);
                self.hooks.push(Hook::OnError { host: h, proc: p });
            }
        }
        let proc = self.net.spawn_process(host);
        self.role_of.insert(proc.0, Role::Daemon(rank.0));
        let mut v = VNode::new(
            rank,
            proc,
            host,
            epoch,
            Arc::clone(&self.programs[rank.0 as usize]),
            self.cfg.n_ranks,
        );
        let spawned = VclEvent::DaemonSpawned { rank, epoch, host };
        self.metrics.observe(now, &spawned);
        self.tracelog.record(now, spawned);
        // FAIL-MPI registration: the self-deploying runtime registers every
        // launched process with the local injection daemon.
        self.hooks.push(Hook::OnLoad { host, proc });
        v.boot(&mut ctx!(self, now));
        let init = failmpi_sim::SimDuration::from_micros(
            self.rng.below(self.cfg.init_delay_max.as_micros().max(1)),
        );
        self.out.push((now + init, Ev::BootConnect { rank, proc }));
        self.vnodes[rank.0 as usize] = Some(v);
    }

    fn flush(&mut self, now: SimTime) {
        loop {
            let cmds = std::mem::take(&mut self.cmds);
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
                        let jitter_us = self.rng.below(
                            self.cfg.boot_jitter_max.as_micros().max(1),
                        );
                        let delay = self.cfg.ssh_spawn_delay
                            + extra_delay
                            + failmpi_sim::SimDuration::from_micros(jitter_us);
                        self.out.push((now + delay, Ev::SpawnDaemon { rank, host, epoch }));
                    }
                    Cmd::ExitProcess { proc, normal } => {
                        self.exit_process(now, proc, normal);
                    }
                }
            }
        }
        self.out
            .extend(self.net.drain_events().map(|(t, ev)| (t, Ev::Net(ev))));
    }

    /// Common death path for daemons (ordered exits and injected kills).
    fn kill_daemon(&mut self, now: SimTime, proc: ProcId, hook: Option<bool>) {
        if !self.net.is_alive(proc) {
            return;
        }
        let Some(&Role::Daemon(r)) = self.role_of.get(proc.0) else {
            return;
        };
        let rank = Rank(r);
        let host = self.net.host_of(proc);
        let epoch = vnode_at(&mut self.vnodes, rank, proc)
            .map(|v| {
                v.phase = Phase::Dead;
                v.epoch
            })
            .unwrap_or(0);
        // Pre-registration death: the dispatcher's ssh notices the launch
        // failure (there is no control stream whose closure could tell it).
        let registered = self.dispatcher.is_registered(rank);
        self.metrics.note_daemon_death(now, rank.0);
        self.net.kill(now, proc);
        self.role_of.remove(proc.0);
        self.breakpoints.remove(&proc);
        if !registered {
            self.out.push((
                now + self.cfg.net.latency,
                Ev::LaunchFailed { rank, epoch },
            ));
        }
        match hook {
            Some(true) => self.hooks.push(Hook::OnExit { host, proc }),
            Some(false) => self.hooks.push(Hook::OnError { host, proc }),
            None => {} // injected halt: the injector already knows
        }
    }

    fn exit_process(&mut self, now: SimTime, proc: ProcId, normal: bool) {
        self.kill_daemon(now, proc, Some(normal));
    }

    // ------------------------------------------------------------------
    // Injection-layer surface (driven by the FAIL-MPI middleware)
    // ------------------------------------------------------------------

    /// Kills a controlled process (the `halt` action / crash injection).
    /// Silent: the injecting daemon performed it, so no lifecycle hook.
    pub fn fail_halt(&mut self, now: SimTime, proc: ProcId) {
        self.metrics.note_fault_injected();
        self.kill_daemon(now, proc, None);
        self.flush(now);
    }

    /// Suspends a controlled process (`stop`, SIGSTOP semantics).
    pub fn fail_stop(&mut self, _now: SimTime, proc: ProcId) {
        self.net.suspend(proc);
    }

    /// Resumes a controlled process (`continue`): flushes buffered inbound
    /// events, releases a breakpoint hold, and re-arms pending compute.
    pub fn fail_continue(&mut self, now: SimTime, proc: ProcId) {
        for ev in self.net.resume(proc) {
            self.out.push((now, Ev::Net(ev)));
        }
        if let Some(&Role::Daemon(r)) = self.role_of.get(proc.0) {
            let rank = Rank(r);
            if let Some(v) = vnode_at(&mut self.vnodes, rank, proc) {
                if v.held_at_set_command {
                    v.do_set_command(&mut ctx!(self, now));
                }
                if v.pending_wake {
                    v.pending_wake = false;
                    v.pump(&mut ctx!(self, now));
                }
            }
        }
        self.flush(now);
    }

    /// Arms a debugger breakpoint on `func` for `proc`.
    pub fn arm_breakpoint(&mut self, proc: ProcId, func: InstrumentedFn) {
        self.breakpoints.entry(proc).or_default().insert(func);
    }

    /// Clears all breakpoints for `proc`.
    pub fn clear_breakpoints(&mut self, proc: ProcId) {
        self.breakpoints.remove(&proc);
    }

    // ------------------------------------------------------------------
    // Observation surface
    // ------------------------------------------------------------------

    /// Drains the events produced since the last call (feed to the engine).
    pub fn take_outputs(&mut self) -> Vec<(SimTime, Ev)> {
        std::mem::take(&mut self.out)
    }

    /// Drains the lifecycle/breakpoint hooks produced since the last call.
    pub fn take_hooks(&mut self) -> Vec<Hook> {
        std::mem::take(&mut self.hooks)
    }

    /// Whether the job completed (all ranks finalized, shutdown sent).
    pub fn is_complete(&self) -> bool {
        self.dispatcher.job_complete()
    }

    /// The execution trace.
    pub fn trace(&self) -> &TraceLog<VclEvent> {
        &self.tracelog
    }

    /// Sets the happens-before anchor stamped onto subsequently recorded
    /// [`VclEvent`]s: the engine event currently being dispatched. A no-op
    /// when trace recording is disabled (`record_trace = false`).
    pub fn set_event_cause(&mut self, cause: Option<failmpi_sim::EventId>) {
        self.tracelog.set_cause(cause);
    }

    /// The display track of `ev` in the causal trace: the component lane
    /// the event is delivered to. Layout (see [`Cluster::track_names`]):
    /// dispatcher, scheduler, one lane per checkpoint server, one lane per
    /// rank, then a catch-all for retired incarnations.
    pub fn track_of(&self, ev: &Ev) -> u32 {
        match ev {
            Ev::Net(net) => self.track_of_proc(net.recipient()),
            Ev::SchedTick => 1,
            Ev::ServerWriteDone { server, .. } => 2 + *server as u32,
            // Launch outcomes are the dispatcher's ssh noticing.
            Ev::SpawnDaemon { rank, .. } | Ev::LaunchFailed { rank, .. } => self.rank_track(rank.0),
            Ev::ComputeDone { rank, .. }
            | Ev::RestoreDone { rank, .. }
            | Ev::DiskLoaded { rank, .. }
            | Ev::SelfCkpt { rank, .. }
            | Ev::BootConnect { rank, .. }
            | Ev::DaemonExit { rank, .. }
            | Ev::RetryPeerConnect { rank, .. } => self.rank_track(rank.0),
        }
    }

    fn rank_track(&self, rank: u32) -> u32 {
        2 + self.cfg.n_ckpt_servers as u32 + rank
    }

    fn track_of_proc(&self, proc: ProcId) -> u32 {
        match self.role_of.get(proc.0).copied() {
            Some(Role::Dispatcher) => 0,
            Some(Role::Scheduler) => 1,
            Some(Role::Server(i)) => 2 + i as u32,
            Some(Role::Daemon(r)) => self.rank_track(r),
            // Retired incarnations (late events to dead processes).
            None => self.rank_track(self.cfg.n_ranks),
        }
    }

    /// Number of tracks [`Cluster::track_of`] can return
    /// (`track_names().len()`, without the allocation).
    pub fn n_tracks(&self) -> u32 {
        3 + self.cfg.n_ckpt_servers as u32 + self.cfg.n_ranks
    }

    /// Display names for every track [`Cluster::track_of`] can return, in
    /// track order.
    pub fn track_names(&self) -> Vec<String> {
        let mut names = vec!["dispatcher".to_string(), "ckpt-scheduler".to_string()];
        for i in 0..self.cfg.n_ckpt_servers {
            names.push(format!("ckpt-server-{i}"));
        }
        for r in 0..self.cfg.n_ranks {
            names.push(format!("rank-{r}"));
        }
        names.push("retired".to_string());
        names
    }

    /// The compute machine at injection index `i` (the paper's `G1[i]`).
    pub fn compute_host(&self, i: usize) -> HostId {
        self.addrs.compute_hosts[i]
    }

    /// Number of compute machines (the `G1` group size).
    pub fn n_compute_hosts(&self) -> usize {
        self.addrs.compute_hosts.len()
    }

    /// The configuration this cluster runs under.
    pub fn config(&self) -> &VclConfig {
        &self.cfg
    }

    /// Application progress of `rank` (diagnostic).
    pub fn progress_of(&self, rank: Rank) -> u32 {
        self.vnodes[rank.0 as usize]
            .as_ref()
            .map_or(0, VNode::progress)
    }

    /// The last globally committed checkpoint wave (diagnostic).
    pub fn committed_wave(&self) -> Option<u32> {
        self.scheduler.committed()
    }

    /// Whether a checkpoint wave is currently collecting acks (diagnostic).
    pub fn wave_in_progress(&self) -> bool {
        self.scheduler.wave_in_progress()
    }

    /// The committed wave as known by checkpoint server `idx` (diagnostic).
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
        self.disk.count(host, rank)
    }

    /// The current execution epoch (0 = no recovery yet).
    pub fn epoch(&self) -> u32 {
        self.dispatcher.epoch()
    }

    /// Whether a recovery is currently in flight.
    pub fn recovery_active(&self) -> bool {
        self.dispatcher.recovery_active()
    }

    /// Whether `proc` is alive.
    pub fn is_alive(&self, proc: ProcId) -> bool {
        self.net.is_alive(proc)
    }

    /// Whether `proc` is suspended.
    pub fn is_suspended(&self, proc: ProcId) -> bool {
        self.net.is_suspended(proc)
    }

    /// Bytes sent so far, by traffic class (application vs checkpoint vs
    /// control) — the standard lens for fault-tolerance protocol overhead.
    pub fn traffic(&self) -> TrafficStats {
        self.traffic
    }

    /// The run-scoped metrics registry.
    pub fn metrics(&self) -> &VclMetrics {
        &self.metrics
    }

    /// Aggregated MPI op counts: every replaced daemon incarnation plus
    /// all incarnations still holding their rank slot (alive or dead).
    pub fn mpi_ops(&self) -> failmpi_mpi::OpStats {
        let mut total = self.metrics.retired_ops;
        for v in self.vnodes.iter().flatten() {
            total.merge(&v.ops);
        }
        total
    }

    /// Writes this deployment's full metric set — `mpichv.*` lifecycle
    /// counters and virtual-time histograms, `mpi.*` op counts, `net.*`
    /// channel counters and `net.traffic.*` byte classes — into `snap`.
    /// Everything written is a function of the simulated schedule, so
    /// same-seed runs produce byte-identical snapshots.
    pub fn contribute_metrics(&self, snap: &mut failmpi_obs::MetricsSnapshot) {
        self.metrics.contribute(snap);

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

        let net = self.net.stats();
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

        snap.set_counter("net.traffic.app_bytes", self.traffic.app_bytes);
        snap.set_counter("net.traffic.ckpt_bytes", self.traffic.ckpt_bytes);
        snap.set_counter(
            "net.traffic.control_bytes",
            self.traffic.control_bytes,
        );
    }
}

impl failmpi_backend::ProtocolBackend for Cluster {
    type Event = Ev;

    fn kind(&self) -> failmpi_backend::BackendKind {
        failmpi_backend::BackendKind::Vcl
    }

    fn set_event_cause(&mut self, cause: Option<failmpi_sim::EventId>) {
        Cluster::set_event_cause(self, cause);
    }

    fn dispatch(&mut self, now: SimTime, ev: Ev) {
        Cluster::dispatch(self, now, ev);
    }

    fn drain_outputs(&mut self) -> std::vec::Drain<'_, (SimTime, Ev)> {
        self.out.drain(..)
    }

    fn take_hooks(&mut self) -> Vec<Hook> {
        Cluster::take_hooks(self)
    }

    fn is_complete(&self) -> bool {
        Cluster::is_complete(self)
    }

    fn fail_halt(&mut self, now: SimTime, proc: ProcId) {
        Cluster::fail_halt(self, now, proc);
    }

    fn fail_stop(&mut self, now: SimTime, proc: ProcId) {
        Cluster::fail_stop(self, now, proc);
    }

    fn fail_continue(&mut self, now: SimTime, proc: ProcId) {
        Cluster::fail_continue(self, now, proc);
    }

    fn arm_breakpoint(&mut self, proc: ProcId, func: InstrumentedFn) {
        Cluster::arm_breakpoint(self, proc, func);
    }

    fn clear_breakpoints(&mut self, proc: ProcId) {
        Cluster::clear_breakpoints(self, proc);
    }

    fn compute_host(&self, i: usize) -> HostId {
        Cluster::compute_host(self, i)
    }

    fn n_compute_hosts(&self) -> usize {
        Cluster::n_compute_hosts(self)
    }

    fn committed_wave(&self) -> Option<u32> {
        Cluster::committed_wave(self)
    }

    fn epoch(&self) -> u32 {
        Cluster::epoch(self)
    }

    fn event_track(&self, ev: &Ev) -> u32 {
        self.track_of(ev)
    }

    fn n_tracks(&self) -> u32 {
        Cluster::n_tracks(self)
    }

    fn track_names(&self) -> Vec<String> {
        Cluster::track_names(self)
    }

    fn pack_event(&self, ev: &Ev) -> Label {
        ev.pack()
    }

    fn render_label(label: Label) -> String {
        Ev::render(label)
    }

    fn event_kind(&self, ev: &Ev) -> &'static str {
        ev.kind_str()
    }

    fn trace(&self) -> &TraceLog<VclEvent> {
        Cluster::trace(self)
    }

    fn take_trace(&mut self) -> Vec<TraceEntry<VclEvent>> {
        self.tracelog.take_entries()
    }

    fn recoveries_started(&self) -> u64 {
        self.metrics().recoveries_started.get()
    }

    fn waves_committed(&self) -> u64 {
        self.metrics().waves_committed.get()
    }

    fn max_progress(&self) -> u32 {
        self.metrics().max_progress
    }

    fn traffic(&self) -> TrafficStats {
        Cluster::traffic(self)
    }

    fn contribute_metrics(&self, snap: &mut failmpi_obs::MetricsSnapshot) {
        Cluster::contribute_metrics(self, snap);
    }
}

/// [`Model`] wrapper running a cluster without fault injection.
pub struct ClusterModel {
    /// The wrapped deployment.
    pub cluster: Cluster,
}

impl Model for ClusterModel {
    type Event = Ev;

    fn handle(&mut self, now: SimTime, ev: Ev, sched: &mut Scheduler<Ev>) {
        self.cluster.set_event_cause(sched.current_event());
        self.cluster.dispatch(now, ev);
        for (t, e) in self.cluster.out.drain(..) {
            sched.at(t, e);
        }
        self.cluster.hooks.clear(); // nobody is injecting
    }

    fn finished(&self) -> bool {
        self.cluster.is_complete()
    }

    fn event_kind(&self, event: &Ev) -> &'static str {
        event.kind_str()
    }

    fn event_track(&self, event: &Ev) -> u32 {
        self.cluster.track_of(event)
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
