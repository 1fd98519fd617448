//! The light-runtime skeleton: one deterministic event machine shared by
//! every dispatcher-less backend, parameterised by a [`RecoveryPolicy`].
//!
//! The skeleton owns everything the ULFM and replication runtimes have in
//! common — the process table ([`Unit`]), the per-rank op-streams
//! ([`OpStream`]), the boot → init → breakpoint ladder, the
//! process-control surface (`halt` / `stop` / `continue`) and the
//! [`Chassis`] every runtime hands its events, hooks and trace over
//! through — and implements [`ProtocolBackend`] once. A policy holds only
//! what differs between protocols: *what to do when a unit is lost* (see
//! DESIGN.md, "Skeleton vs policy").

use std::fmt;

use failmpi_mpi::Rank;
use failmpi_net::{HostId, ProcId};
use failmpi_obs::MetricsSnapshot;
use failmpi_sim::{Fingerprint, FingerprintEvent, Label, PackLabel, SimDuration, SimTime};

use crate::{BackendConfig, BackendKind, Chassis, Hook, InstrumentedFn, ProtocolBackend, VclEvent};

/// Nominal application payload per op (face-exchange analogue).
const OP_APP_BYTES: u64 = 4096;
/// Control bytes per registration handshake.
const INIT_CONTROL_BYTES: u64 = 256;

/// One controlled process. `ProcId(u)` is unit `u` on `HostId(u)`, and
/// unit `u` serves rank `u % n_ranks` (units past `n_ranks` are stand-ins
/// a policy deployed, e.g. replicas).
#[derive(Clone, Debug)]
pub struct Unit {
    /// Process exists (false once halted — nothing is ever relaunched).
    pub alive: bool,
    /// SIGSTOP'd by the injection layer.
    pub suspended: bool,
    /// Held at the init breakpoint.
    pub held: bool,
    /// Init handshake completed.
    pub registered: bool,
    /// Init completion owed after a resume.
    pub resume_init: bool,
}

/// The application op-stream of one rank, run by its executing unit.
#[derive(Clone, Debug)]
pub struct OpStream {
    /// Unit currently executing the rank.
    pub exec_unit: u32,
    /// Reached `MPI_Finalize`.
    pub finished: bool,
    /// Op-stream restart owed after a resume / recovery completion.
    pub resume_op: bool,
    /// An `OpDone` event of the current generation is in flight.
    pub op_in_flight: bool,
    /// Op-stream generation (stale `OpDone`s are ignored).
    pub gen: u32,
    /// Ops completed so far.
    pub ops_done: u32,
    /// Op budget (a policy may grow it, e.g. ULFM's redistribution).
    pub ops_total: u32,
}

/// One scheduled event of a light runtime; `D` is the policy's
/// recovery-completion payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LightEv<D> {
    /// Unit `unit`'s process comes up (`onload` fires, init begins).
    Boot {
        /// The booting unit.
        unit: u32,
    },
    /// Unit `unit` completes its init handshake (the breakpointable
    /// `localMPI_setCommand` analogue).
    Init {
        /// The initializing unit.
        unit: u32,
    },
    /// Rank `rank`'s executor finished one application op of op-stream
    /// generation `gen` (stale generations are ignored).
    OpDone {
        /// The computing rank.
        rank: u32,
        /// Op-stream generation the op belongs to.
        gen: u32,
    },
    /// The failure detector notices that unit `unit` died.
    Detect {
        /// The dead unit.
        unit: u32,
    },
    /// The policy's recovery exchange completes.
    RecoveryDone(D),
}

impl<D: FingerprintEvent> FingerprintEvent for LightEv<D> {
    fn fold(&self, fp: &mut Fingerprint) {
        match self {
            LightEv::Boot { unit } => {
                fp.write_u8(1);
                fp.write_u32(*unit);
            }
            LightEv::Init { unit } => {
                fp.write_u8(2);
                fp.write_u32(*unit);
            }
            LightEv::OpDone { rank, gen } => {
                fp.write_u8(3);
                fp.write_u32(*rank);
                fp.write_u32(*gen);
            }
            LightEv::Detect { unit } => {
                fp.write_u8(4);
                fp.write_u32(*unit);
            }
            LightEv::RecoveryDone(done) => {
                fp.write_u8(5);
                done.fold(fp);
            }
        }
    }
}

/// The stable strings a policy's runtime is known by.
pub struct PolicyNames {
    /// Which protocol the policy implements.
    pub kind: BackendKind,
    /// Event-kind labels (profiling buckets) for `Boot`, `Init`, `OpDone`,
    /// `Detect` and `RecoveryDone`, in that order.
    pub event_kinds: [&'static str; 5],
    /// Timeline track names: runtime lane (`Detect`/`RecoveryDone`), then
    /// process lane.
    pub tracks: [&'static str; 2],
    /// `prof::copy` hop of the registration handshake.
    pub control_hop: &'static str,
    /// `prof::copy` hop of the per-op application payload.
    pub op_hop: &'static str,
    /// What event descriptions call a process ("rank" / "unit").
    pub unit_noun: &'static str,
}

/// Why [`RecoveryPolicy::unit_changed`] is re-evaluating.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnitChange {
    /// The unit was killed (`halt`); its `Detect` is already scheduled.
    Halted,
    /// The unit was resumed (`continue`); owed init/op work already ran.
    Continued,
    /// The unit completed its init handshake.
    Registered,
}

/// What differs between light runtimes: the reaction to a lost unit.
///
/// Handlers take the whole runtime so they can drive the skeleton
/// ([`LightRuntime::emit`], [`LightRuntime::begin_recovery`],
/// [`LightRuntime::resume_stream`], …); the policy's own state is
/// [`LightRuntime::policy`].
pub trait RecoveryPolicy: Sized {
    /// Payload of the recovery-completion event. Its `fold` writes the
    /// payload fields only (the skeleton writes the tag); its label is the
    /// event's one-line description, under a code from 32 (the skeleton's
    /// own events use 16 to 19).
    type Done: FingerprintEvent + PackLabel + fmt::Debug;

    /// The runtime's kind, event-kind, track and hop names.
    const NAMES: PolicyNames;
    /// Stream constant of the per-op jitter (keeps the protocols'
    /// schedules decorrelated at equal seeds).
    const JITTER_STREAM: u64;

    /// The initial policy state and the number of process units to boot
    /// (`>= cfg.n_ranks`, `<= 2 * cfg.n_ranks`).
    fn deploy(cfg: &BackendConfig) -> (Self, u32);

    /// The failure detector noticed that `unit` died.
    fn on_detect(rt: &mut LightRuntime<Self>, now: SimTime, unit: u32);

    /// The recovery exchange scheduled by the policy completed.
    fn on_recovery_done(rt: &mut LightRuntime<Self>, now: SimTime, done: Self::Done);

    /// Whether pending failure handling keeps the start barrier shut.
    fn start_blocked(rt: &LightRuntime<Self>) -> bool;

    /// Whether the job ran to completion (asked once it started).
    fn job_done(rt: &LightRuntime<Self>) -> bool;

    /// Whether op-stream `s` is permanently without an executor.
    fn stream_lost(rt: &LightRuntime<Self>, s: usize) -> bool;

    /// Whether op-stream `s`'s next op must wait for a recovery.
    fn stream_blocked(rt: &LightRuntime<Self>, s: usize) -> bool;

    /// Charges the policy's extra traffic for one completed op of `s`.
    fn op_extra_traffic(rt: &mut LightRuntime<Self>, s: usize);

    /// A unit was halted, continued or registered: re-evaluate whatever
    /// the policy had waiting on it.
    fn unit_changed(rt: &mut LightRuntime<Self>, now: SimTime, unit: usize, change: UnitChange);

    /// Folds the runtime's metrics into a snapshot.
    fn contribute_metrics(rt: &LightRuntime<Self>, snap: &mut MetricsSnapshot);
}

/// A dispatcher-less deployment — `n_ranks` MPI processes (plus the
/// policy's stand-ins) on the first compute hosts — as a deterministic
/// event machine driven through [`ProtocolBackend`].
pub struct LightRuntime<P: RecoveryPolicy> {
    /// The process table.
    pub units: Vec<Unit>,
    /// One op-stream per rank.
    pub streams: Vec<OpStream>,
    /// The recovery policy's own state.
    pub policy: P,
    /// Outbox, hooks, lifecycle trace, breakpoints and traffic ledger.
    pub chassis: Chassis<LightEv<P::Done>>,
    cfg: BackendConfig,
    seed: u64,
    started: bool,
    complete: bool,
    epoch: u32,
    max_progress: u32,
}

/// Deterministic per-op jitter: splitmix64 finalizer over the op identity.
fn op_jitter_micros(seed: u64, stream: u64, rank: u32, op: u32, gen: u32, cap: u64) -> u64 {
    let mut z = seed ^ ((rank as u64) << 40) ^ ((gen as u64) << 20) ^ (op as u64) ^ stream;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    z % cap
}

impl<P: RecoveryPolicy> LightRuntime<P> {
    /// Builds the deployment and schedules the staggered boot ladder.
    /// `ops_per_rank[r]` is rank `r`'s op budget (from its op-program).
    pub fn new(cfg: BackendConfig, ops_per_rank: Vec<u32>, seed: u64) -> LightRuntime<P> {
        cfg.validate().expect("invalid backend config");
        assert_eq!(ops_per_rank.len(), cfg.n_ranks as usize);
        let (policy, n_units) = P::deploy(&cfg);
        let mut chassis = Chassis::default();
        chassis.out.extend((0..n_units).map(|unit| {
            (
                SimTime::ZERO + cfg.boot_delay + cfg.boot_stagger * unit as u64,
                LightEv::Boot { unit },
            )
        }));
        let unit = Unit {
            alive: true,
            suspended: false,
            held: false,
            registered: false,
            resume_init: false,
        };
        let streams = (0..cfg.n_ranks)
            .zip(ops_per_rank)
            .map(|(exec_unit, ops_total)| OpStream {
                exec_unit,
                finished: false,
                resume_op: false,
                op_in_flight: false,
                gen: 0,
                ops_done: 0,
                ops_total,
            })
            .collect();
        LightRuntime {
            units: vec![unit; n_units as usize],
            streams,
            policy,
            chassis,
            cfg,
            seed,
            started: false,
            complete: false,
            epoch: 0,
            max_progress: 0,
        }
    }

    /// The sizing and timing knobs the runtime was built with.
    pub fn cfg(&self) -> &BackendConfig {
        &self.cfg
    }

    /// Whether the start barrier opened.
    pub fn started(&self) -> bool {
        self.started
    }

    /// Schedules `ev` for delivery at `at`.
    pub fn emit(&mut self, at: SimTime, ev: LightEv<P::Done>) {
        self.chassis.emit(at, ev);
    }

    /// Appends a lifecycle trace record.
    pub fn record(&mut self, now: SimTime, ev: VclEvent) {
        self.chassis.trace.record(now, ev);
    }

    /// Opens a new execution epoch and records the recovery start.
    pub fn begin_recovery(&mut self, now: SimTime) {
        self.epoch += 1;
        self.record(now, VclEvent::RecoveryStarted { epoch: self.epoch });
    }

    /// The live unit behind `proc` (`ProcId(u)` is unit `u`).
    fn live_unit(&self, proc: ProcId) -> Option<usize> {
        let u = proc.0 as usize;
        self.units.get(u).is_some_and(|st| st.alive).then_some(u)
    }

    fn rank_of_unit(&self, u: usize) -> Rank {
        Rank((u % self.streams.len()) as u32)
    }

    fn frozen(&self, u: usize) -> bool {
        self.units[u].suspended || self.units[u].held
    }

    fn schedule_op(&mut self, now: SimTime, s: usize) {
        let st = &mut self.streams[s];
        debug_assert!(!st.finished && !st.op_in_flight);
        st.op_in_flight = true;
        let jitter = op_jitter_micros(
            self.seed,
            P::JITTER_STREAM,
            s as u32,
            st.ops_done,
            st.gen,
            (self.cfg.op_delay.as_micros() / 8).max(1),
        );
        let delay = self.cfg.op_delay + SimDuration::from_micros(jitter);
        let gen = st.gen;
        self.emit(now + delay, LightEv::OpDone { rank: s as u32, gen });
    }

    /// Starts op-stream `s`'s next op (under a fresh generation if
    /// `fresh_gen`), or notes the owed resume if its executor is suspended
    /// or held. A finished or in-flight stream is left alone.
    fn start_stream(&mut self, now: SimTime, s: usize, fresh_gen: bool) {
        if self.streams[s].finished || self.streams[s].op_in_flight {
            return;
        }
        if self.frozen(self.streams[s].exec_unit as usize) {
            self.streams[s].resume_op = true;
        } else {
            self.streams[s].gen += u32::from(fresh_gen);
            self.schedule_op(now, s);
        }
    }

    /// Restarts op-stream `s` after a recovery, under a fresh generation.
    pub fn resume_stream(&mut self, now: SimTime, s: usize) {
        self.start_stream(now, s, true);
    }

    fn complete_init(&mut self, now: SimTime, u: usize) {
        if self.units[u].registered || !self.units[u].alive {
            return;
        }
        self.units[u].registered = true;
        self.chassis.traffic.control_bytes += INIT_CONTROL_BYTES;
        failmpi_obs::prof::copy(P::NAMES.control_hop, INIT_CONTROL_BYTES);
        let (rank, epoch) = (self.rank_of_unit(u), self.epoch);
        self.record(now, VclEvent::DaemonRegistered { rank, epoch });
        P::unit_changed(self, now, u, UnitChange::Registered);
        self.maybe_start(now);
    }

    /// Starts the run once every live unit registered, some op-stream
    /// still has an executor, and the policy has no failure handling
    /// pending.
    pub fn maybe_start(&mut self, now: SimTime) {
        if self.started || self.complete || P::start_blocked(self) {
            return;
        }
        if self.units.iter().any(|u| u.alive && !u.registered)
            || (0..self.streams.len()).all(|s| P::stream_lost(self, s))
        {
            return;
        }
        self.started = true;
        self.record(now, VclEvent::RunStarted { epoch: self.epoch });
        for s in 0..self.streams.len() {
            if !P::stream_lost(self, s) {
                self.start_stream(now, s, false);
            }
        }
    }

    /// Marks the job complete once the policy's completion predicate
    /// holds.
    pub fn check_complete(&mut self, now: SimTime) {
        if !self.complete && self.started && P::job_done(self) {
            self.complete = true;
            self.record(now, VclEvent::JobComplete);
        }
    }

    fn on_op_done(&mut self, now: SimTime, rank: u32, gen: u32) {
        let s = rank as usize;
        if P::stream_lost(self, s) || self.streams[s].gen != gen {
            return;
        }
        self.streams[s].op_in_flight = false;
        let eu = self.streams[s].exec_unit as usize;
        if !self.units[eu].alive {
            return; // the executor died under this op
        }
        if self.frozen(eu) {
            // SIGSTOP froze the op mid-flight; it completes on resume
            // with a fresh generation.
            self.streams[s].resume_op = true;
            return;
        }
        self.streams[s].ops_done += 1;
        let iter = self.streams[s].ops_done;
        self.max_progress = self.max_progress.max(iter);
        self.chassis.traffic.app_bytes += OP_APP_BYTES;
        failmpi_obs::prof::copy(P::NAMES.op_hop, OP_APP_BYTES);
        P::op_extra_traffic(self, s);
        self.record(
            now,
            VclEvent::AppProgress {
                rank: Rank(rank),
                iter,
            },
        );
        if iter >= self.streams[s].ops_total {
            self.streams[s].finished = true;
            self.record(now, VclEvent::RankFinalized { rank: Rank(rank) });
            self.check_complete(now);
        } else if P::stream_blocked(self, s) {
            self.streams[s].resume_op = true;
        } else {
            self.schedule_op(now, s);
        }
    }
}

impl<P: RecoveryPolicy> ProtocolBackend for LightRuntime<P> {
    type Event = LightEv<P::Done>;

    fn kind(&self) -> BackendKind {
        P::NAMES.kind
    }

    fn chassis(&self) -> &Chassis<Self::Event> {
        &self.chassis
    }

    fn chassis_mut(&mut self) -> &mut Chassis<Self::Event> {
        &mut self.chassis
    }

    fn dispatch(&mut self, now: SimTime, ev: Self::Event) {
        match ev {
            LightEv::Boot { unit } => {
                let u = unit as usize;
                if !self.units[u].alive {
                    return;
                }
                let (host, proc) = (HostId(unit as u16), ProcId(unit));
                let rank = self.rank_of_unit(u);
                self.record(
                    now,
                    VclEvent::DaemonSpawned {
                        rank,
                        epoch: 0,
                        host,
                    },
                );
                self.chassis.hooks.push(Hook::OnLoad { host, proc });
                self.emit(now + self.cfg.init_delay, LightEv::Init { unit });
            }
            LightEv::Init { unit } => {
                let u = unit as usize;
                let st = &mut self.units[u];
                if !st.alive || st.registered {
                    return;
                }
                if st.suspended {
                    st.resume_init = true;
                    return;
                }
                let func = InstrumentedFn::LocalMpiSetCommand;
                let proc = ProcId(unit);
                if self.chassis.armed(proc, func) {
                    st.held = true;
                    self.chassis.hooks.push(Hook::Breakpoint {
                        host: HostId(unit as u16),
                        proc,
                        func,
                    });
                    return;
                }
                self.complete_init(now, u);
            }
            LightEv::OpDone { rank, gen } => self.on_op_done(now, rank, gen),
            LightEv::Detect { unit } => P::on_detect(self, now, unit),
            LightEv::RecoveryDone(done) => P::on_recovery_done(self, now, done),
        }
    }

    fn is_complete(&self) -> bool {
        self.complete
    }

    fn fail_halt(&mut self, now: SimTime, proc: ProcId) {
        let Some(u) = self.live_unit(proc) else {
            return;
        };
        let st = &mut self.units[u];
        st.alive = false;
        st.suspended = false;
        st.held = false;
        st.resume_init = false;
        self.emit(now + self.cfg.detect_delay, LightEv::Detect { unit: u as u32 });
        P::unit_changed(self, now, u, UnitChange::Halted);
    }

    fn fail_stop(&mut self, _now: SimTime, proc: ProcId) {
        if let Some(u) = self.live_unit(proc) {
            self.units[u].suspended = true;
        }
    }

    fn fail_continue(&mut self, now: SimTime, proc: ProcId) {
        let Some(u) = self.live_unit(proc) else {
            return;
        };
        self.units[u].suspended = false;
        if self.units[u].held {
            self.units[u].held = false;
            self.complete_init(now, u);
        }
        if self.units[u].resume_init {
            self.units[u].resume_init = false;
            self.complete_init(now, u);
        }
        // Resume the op-stream this unit executes, if owed.
        let s = u % self.streams.len();
        let st = &self.streams[s];
        if st.exec_unit as usize == u
            && st.resume_op
            && self.started
            && !st.finished
            && !st.op_in_flight
            && !P::stream_lost(self, s)
            && !P::stream_blocked(self, s)
        {
            self.streams[s].resume_op = false;
            self.streams[s].gen += 1;
            self.schedule_op(now, s);
        }
        P::unit_changed(self, now, u, UnitChange::Continued);
    }

    fn compute_host(&self, i: usize) -> HostId {
        HostId(i as u16)
    }

    fn n_compute_hosts(&self) -> usize {
        self.cfg.n_compute_hosts
    }

    fn epoch(&self) -> u32 {
        self.epoch
    }

    fn event_track(&self, ev: &Self::Event) -> u32 {
        match ev {
            LightEv::Detect { .. } | LightEv::RecoveryDone(_) => 0,
            LightEv::Boot { .. } | LightEv::Init { .. } | LightEv::OpDone { .. } => 1,
        }
    }

    fn n_tracks(&self) -> u32 {
        2
    }

    fn track_names(&self) -> Vec<String> {
        P::NAMES.tracks.map(String::from).to_vec()
    }

    fn pack_event(&self, ev: &Self::Event) -> Label {
        match ev {
            LightEv::Boot { unit } => Label::new(16, [*unit, 0, 0]),
            LightEv::Init { unit } => Label::new(17, [*unit, 0, 0]),
            LightEv::OpDone { rank, gen } => Label::new(18, [*rank, *gen, 0]),
            LightEv::Detect { unit } => Label::new(19, [*unit, 0, 0]),
            LightEv::RecoveryDone(done) => done.pack(),
        }
    }

    fn render_label(label: Label) -> String {
        let noun = P::NAMES.unit_noun;
        let [a, b, _] = label.args;
        match label.code {
            16 => format!("boot {noun} {a}"),
            17 => format!("init {noun} {a}"),
            18 => format!("op done rank {a} (gen {b})"),
            19 => format!("detect failure of {noun} {a}"),
            _ => P::Done::render(label),
        }
    }

    fn event_kind(&self, ev: &Self::Event) -> &'static str {
        let i = match ev {
            LightEv::Boot { .. } => 0,
            LightEv::Init { .. } => 1,
            LightEv::OpDone { .. } => 2,
            LightEv::Detect { .. } => 3,
            LightEv::RecoveryDone(_) => 4,
        };
        P::NAMES.event_kinds[i]
    }

    fn recoveries_started(&self) -> u64 {
        u64::from(self.epoch) // every recovery opens exactly one epoch
    }

    fn max_progress(&self) -> u32 {
        self.max_progress
    }

    fn contribute_metrics(&self, snap: &mut MetricsSnapshot) {
        P::contribute_metrics(self, snap);
    }
}
