//! The MPICH-V dispatcher.
//!
//! Paper Sec. 3: "The dispatcher is responsible for starting the MPI
//! application. … The dispatcher is also responsible for detecting failures
//! and restarting nodes. A failure is assumed after any unexpected socket
//! closure."
//!
//! ## The historical bug (paper Sec. 5.3 / 6)
//!
//! The paper's headline discovery: *"if a second failure hits a process
//! already recovered after it registered with the dispatcher, and other
//! processes are still being stopped by the first failure detection, then
//! the dispatcher is confused about the state of each process and forgets to
//! launch at least one computing node."*
//!
//! We reproduce the confusion mechanically: in
//! [`DispatcherMode::Historical`], an unexpected closure arriving *while a
//! recovery is already in flight* is absorbed by the ongoing stop-accounting
//! — the rank is marked `Stopped` like a straggler of the previous wave, but
//! its relaunch was already consumed earlier in this recovery, so nobody
//! ever starts it again and the run freezes waiting for an all-ready that
//! can never come. [`DispatcherMode::Fixed`] keys the accounting by
//! incarnation instead and relaunches the victim.

use std::collections::{HashMap, HashSet};

use failmpi_net::{ConnId, HostId, ProcId};
use failmpi_sim::SimDuration;
use failmpi_mpi::Rank;

use crate::config::{DispatcherMode, VProtocol, VclConfig};
use crate::ctx::{Cmd, Facilities};
use crate::trace::VclEvent;
use crate::wire::Wire;

/// Dispatcher-side state of one rank slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum RankState {
    /// ssh launch issued; no registration yet.
    Starting,
    /// The daemon registered (initial-argument exchange done). From here on
    /// the dispatcher has a control stream and treats its closure as a
    /// failure.
    Registered,
    /// `localMPI_setCommand` acked; waiting for the rest of the fleet.
    Ready,
    /// The run broadcast went out; the node is computing.
    Running,
    /// Told to terminate during failure handling; closure pending.
    Stopping,
    /// Closure observed during failure handling.
    Stopped,
    /// The rank's MPI process finalized.
    Done,
}

/// V2's single-rank recovery: a failure relaunches only its victim.
struct Solo {
    /// Per-rank incarnation numbers (epochs are per rank here).
    incarnation: Vec<u32>,
    /// Ranks whose solo restart is awaiting their `Ready`.
    pending: HashSet<Rank>,
}

pub(crate) struct Dispatcher {
    pub proc: ProcId,
    mode: DispatcherMode,
    epoch: u32,
    /// Present iff the protocol restarts ranks one by one (V2).
    solo: Option<Solo>,
    states: Vec<RankState>,
    conn_rank: HashMap<ConnId, Rank>,
    rank_conn: Vec<Option<ConnId>>,
    machine_of_rank: Vec<HostId>,
    free_hosts: Vec<HostId>,
    recovery_active: bool,
    job_complete: bool,
    /// Position in the current serial-ssh relaunch queue.
    relaunch_pos: u64,
}

impl Dispatcher {
    pub fn new(
        proc: ProcId,
        cfg: &VclConfig,
        machine_of_rank: Vec<HostId>,
        free_hosts: Vec<HostId>,
    ) -> Self {
        let n = machine_of_rank.len();
        Dispatcher {
            proc,
            mode: cfg.dispatcher,
            epoch: 0,
            solo: (cfg.protocol == VProtocol::V2).then(|| Solo {
                incarnation: vec![0; n],
                pending: HashSet::new(),
            }),
            states: vec![RankState::Starting; n],
            conn_rank: HashMap::new(),
            rank_conn: vec![None; n],
            machine_of_rank,
            free_hosts,
            recovery_active: false,
            job_complete: false,
            relaunch_pos: 0,
        }
    }

    fn n(&self) -> usize {
        self.states.len()
    }

    /// Initial launch of the whole fleet, staggered like serial ssh.
    pub fn launch_all(&mut self, ctx: &mut Facilities) {
        for r in 0..self.n() {
            self.states[r] = RankState::Starting;
            self.spawn(Rank(r as u32), ctx.cfg.ssh_stagger * r as u64, ctx);
        }
    }

    /// ssh-launches `rank` on its machine, for its current epoch.
    fn spawn(&self, rank: Rank, extra_delay: SimDuration, ctx: &mut Facilities) {
        ctx.cmds.push(Cmd::SpawnDaemon {
            rank,
            host: self.machine_of_rank[rank.0 as usize],
            epoch: self.epoch_of(rank),
            extra_delay,
        });
    }

    /// Hands `rank` the process table: it connects the mesh and runs.
    fn send_start_run(&self, rank: Rank, solo: bool, ctx: &mut Facilities) {
        if let Some(conn) = self.rank_conn[rank.0 as usize] {
            let (epoch, hosts) = (self.epoch_of(rank), self.machine_of_rank.clone());
            ctx.send(conn, self.proc, Wire::StartRun { epoch, hosts, solo });
        }
    }

    /// The epoch a fresh launch of `rank` would carry: global under Vcl,
    /// per-rank incarnation under V2.
    fn epoch_of(&self, rank: Rank) -> u32 {
        self.solo
            .as_ref()
            .map_or(self.epoch, |solo| solo.incarnation[rank.0 as usize])
    }

    /// Guard used by the cluster before honouring a scheduled spawn: stale
    /// launches from a superseded epoch must evaporate.
    pub fn expects_spawn(&self, rank: Rank, epoch: u32) -> bool {
        epoch == self.epoch_of(rank) && self.states[rank.0 as usize] == RankState::Starting
    }

    /// Whether the job finished (all ranks finalized, shutdown sent).
    pub fn job_complete(&self) -> bool {
        self.job_complete
    }

    /// Whether a recovery is in flight (diagnostic / tests).
    pub fn recovery_active(&self) -> bool {
        self.recovery_active
    }

    /// Machine currently assigned to `rank`.
    pub fn machine_of(&self, rank: Rank) -> HostId {
        self.machine_of_rank[rank.0 as usize]
    }

    /// Whether the dispatcher holds a control stream for `rank` (i.e. the
    /// current incarnation completed the initial-argument exchange).
    pub fn is_registered(&self, rank: Rank) -> bool {
        self.rank_conn[rank.0 as usize].is_some()
    }

    pub fn on_msg(&mut self, conn: ConnId, wire: Wire, ctx: &mut Facilities) {
        match wire {
            Wire::Register { rank, epoch } => {
                if epoch != self.epoch_of(rank) {
                    // A zombie from a superseded epoch: order it away and
                    // make sure the slot is (re)launched in this epoch.
                    ctx.send(conn, self.proc, Wire::Terminate);
                    return;
                }
                let r = rank.0 as usize;
                self.conn_rank.insert(conn, rank);
                self.rank_conn[r] = Some(conn);
                self.states[r] = RankState::Registered;
                ctx.trace(VclEvent::DaemonRegistered { rank, epoch });
                ctx.send(conn, self.proc, Wire::SetCommand { epoch });
            }
            Wire::Ready { rank } => {
                let r = rank.0 as usize;
                if self.states[r] != RankState::Registered {
                    return;
                }
                if self.solo.as_mut().is_some_and(|solo| solo.pending.remove(&rank)) {
                    // V2: only this rank restarts; hand it the table and
                    // let the rest of the fleet keep computing.
                    self.states[r] = RankState::Running;
                    self.send_start_run(rank, true, ctx);
                    self.recovery_active = false;
                    return;
                }
                self.states[r] = RankState::Ready;
                if self.states.iter().all(|&s| s == RankState::Ready) {
                    self.start_run(ctx);
                }
            }
            Wire::Finalized { rank } => {
                let r = rank.0 as usize;
                if self.states[r] == RankState::Running {
                    self.states[r] = RankState::Done;
                    ctx.trace(VclEvent::RankFinalized { rank });
                    if self.states.iter().all(|&s| s == RankState::Done) {
                        self.shutdown(ctx);
                    }
                }
            }
            other => debug_assert!(false, "unexpected message at dispatcher: {other:?}"),
        }
    }

    fn start_run(&mut self, ctx: &mut Facilities) {
        for r in 0..self.n() {
            self.states[r] = RankState::Running;
            self.send_start_run(Rank(r as u32), false, ctx);
        }
        self.recovery_active = false;
        ctx.trace(VclEvent::RunStarted { epoch: self.epoch });
    }

    fn shutdown(&mut self, ctx: &mut Facilities) {
        for conn in self.rank_conn.clone().into_iter().flatten() {
            ctx.send(conn, self.proc, Wire::Shutdown);
        }
        self.job_complete = true;
        ctx.trace(VclEvent::JobComplete);
    }

    /// A control stream closed. Graceful closures (normal shutdown) are
    /// ignored; a reset is the failure-detection signal.
    pub fn on_closed(&mut self, conn: ConnId, peer_died: bool, ctx: &mut Facilities) {
        let Some(rank) = self.conn_rank.remove(&conn) else {
            return;
        };
        let r = rank.0 as usize;
        if self.rank_conn[r] == Some(conn) {
            self.rank_conn[r] = None;
        }
        if self.job_complete || !peer_died {
            return;
        }
        match self.states[r] {
            RankState::Stopping => {
                // Expected: a straggler of the current failure handling
                // finished stopping. Relaunch it in the new epoch, on its
                // own machine (its local checkpoint lives there).
                self.states[r] = RankState::Stopped;
                self.relaunch(rank, ctx);
            }
            RankState::Registered | RankState::Ready | RankState::Running | RankState::Done => {
                ctx.trace(VclEvent::FailureDetected {
                    rank,
                    epoch: self.epoch_of(rank),
                    during_recovery: self.recovery_active,
                });
                if let Some(solo) = self.solo.as_mut() {
                    // Message logging: restart *only* the victim, on a
                    // spare machine; nobody else even notices beyond a
                    // reset peer stream.
                    solo.incarnation[r] += 1;
                    solo.pending.insert(rank);
                    self.recovery_active = true;
                    self.epoch += 1; // global recovery counter for traces
                    ctx.trace(VclEvent::RecoveryStarted { epoch: self.epoch });
                    self.reassign_machine(rank);
                    self.relaunch(rank, ctx);
                    return;
                }
                if !self.recovery_active {
                    self.start_recovery(rank, ctx);
                } else {
                    // ======== THE HISTORICAL DISPATCHER BUG ========
                    // A second failure hit a process that had already
                    // re-registered in this recovery, while other processes
                    // are still being stopped.
                    match self.mode {
                        DispatcherMode::Historical => {
                            // The closure is absorbed by the stop-accounting
                            // of the ongoing recovery: the rank is filed as
                            // "stopped", but its relaunch was already
                            // consumed — nobody will ever start it again.
                            self.states[r] = RankState::Stopped;
                        }
                        DispatcherMode::Fixed => {
                            // Corrected bookkeeping: this is a fresh victim
                            // of this very recovery; move it to a spare and
                            // relaunch it.
                            self.reassign_machine(rank);
                            self.states[r] = RankState::Stopped;
                            self.relaunch(rank, ctx);
                        }
                    }
                }
            }
            RankState::Starting | RankState::Stopped => {}
        }
    }

    /// First failure detection: stop the world, then relaunch every node
    /// (the victim moves to a spare machine; survivors restart in place so
    /// their local checkpoint images stay usable).
    fn start_recovery(&mut self, victim: Rank, ctx: &mut Facilities) {
        self.recovery_active = true;
        self.relaunch_pos = 0;
        self.epoch += 1;
        ctx.trace(VclEvent::RecoveryStarted { epoch: self.epoch });
        self.reassign_machine(victim);
        self.states[victim.0 as usize] = RankState::Stopped;
        self.relaunch(victim, ctx);
        for r in 0..self.n() {
            if r == victim.0 as usize {
                continue;
            }
            match self.states[r] {
                RankState::Registered | RankState::Ready | RankState::Running | RankState::Done => {
                    if let Some(conn) = self.rank_conn[r] {
                        ctx.send(conn, self.proc, Wire::Terminate);
                    }
                    self.states[r] = RankState::Stopping;
                }
                RankState::Starting => {
                    // Launched for a superseded epoch; the stale spawn (or
                    // stale Register) evaporates — relaunch for this epoch.
                    self.relaunch(Rank(r as u32), ctx);
                }
                RankState::Stopping | RankState::Stopped => {}
            }
        }
    }

    fn reassign_machine(&mut self, rank: Rank) {
        let r = rank.0 as usize;
        if let Some(&spare) = self.free_hosts.first() {
            let old = self.machine_of_rank[r];
            self.free_hosts.remove(0);
            self.machine_of_rank[r] = spare;
            // The old machine is not lost (the task was killed, not the
            // node); it rejoins the pool for later failures.
            self.free_hosts.push(old);
        }
    }

    fn relaunch(&mut self, rank: Rank, ctx: &mut Facilities) {
        let r = rank.0 as usize;
        self.states[r] = RankState::Starting;
        // Serial ssh: each relaunch of this recovery queues behind the
        // previous ones.
        let extra_delay = ctx.cfg.ssh_stagger * self.relaunch_pos;
        self.relaunch_pos += 1;
        self.spawn(rank, extra_delay, ctx);
    }

    /// The ssh session of a launch died before the daemon registered: the
    /// dispatcher notices the launch failure and simply retries (the benign
    /// path — this is why a fault injected *before* registration does not
    /// trigger the bug, and why the paper needed the Fig. 10 scenario to
    /// pin the injection after registration).
    pub fn on_launch_failed(&mut self, rank: Rank, epoch: u32, ctx: &mut Facilities) {
        if epoch == self.epoch_of(rank) && self.states[rank.0 as usize] == RankState::Starting {
            ctx.trace(VclEvent::LaunchRetried { rank, epoch });
            self.spawn(rank, SimDuration::ZERO, ctx);
        }
    }
}
