//! Shared vocabulary of the backends' finite abstract models.
//!
//! `failck --model-check` explores the synchronous product of compiled
//! FAIL automata with a backend's abstract protocol model. Every backend's
//! model (`AbstractVcl` in `failmpi-mpichv`, `AbstractUlfm` in
//! `failmpi-ulfm`, `AbstractReplica` in `failmpi-replica`) speaks the same
//! phase/step/event vocabulary defined here, so the explorer, symmetry
//! canonicalization, and partial-order reduction stay protocol-agnostic.
//!
//! Every type derives `Hash`/`Ord` so product states can be interned
//! canonically.
//!
//! [`AbstractModel`] is the surface the explorer sees a model through: a
//! model supplies its slot table, its reading of liveness, its steady
//! state and its transitions; everything derivable from the slot table is
//! provided. The boot-ladder transitions ([`spawn`], [`register`],
//! [`ack_ready`]) and the table side of relabelling ([`relabel_slots`],
//! [`relabel_hosts`]) are free functions over a model's tables rather
//! than a wrapper state type, because each model's own field layout feeds
//! its derived `Hash` — the persisted state digest.
//!
//! A model keeps its tables in [`Slots`]: a successor state shares its
//! parent's tables until it writes one, so copying a model whose tables a
//! step does not touch (a FAIL-plane step, to the protocol) costs
//! reference-count increments, not allocations.

use std::cmp::Ordering;
use std::fmt::{self, Write as _};
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// Saturation cap for the abstract epoch counter (recoveries so far).
pub const EPOCH_CAP: u8 = 8;
/// Saturation cap for committed checkpoint waves tracked by the models.
pub const WAVE_CAP: u8 = 2;
/// Saturation cap for per-rank process incarnations.
pub const INCARNATION_CAP: u8 = 8;

/// Abstract lifecycle phase of one rank slot (or replica unit).
///
/// This refines the Vcl dispatcher's `RankState` with the daemon-side
/// distinction the fault-vs-registration race needs: `Starting` splits into
/// [`AbstractPhase::Launched`] (ssh issued, nothing to kill yet) and
/// [`AbstractPhase::Booted`] (process up and `onload` fired, but not yet
/// registered — a fault here is the benign launch-retry path of paper
/// Fig. 9). `Stopped` without a pending relaunch is [`AbstractPhase::Lost`]:
/// a rank slot nobody will ever run again — Vcl's stale dispatcher entry,
/// or a replica-backend rank whose primary and replica both died.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AbstractPhase {
    /// ssh launch issued; no process exists yet.
    Launched,
    /// The daemon process is up (`onload` fired) but has not registered
    /// with the runtime. Its death is detected as a launch failure and
    /// retried — the benign pre-registration window.
    Booted,
    /// Registered with the runtime; the control stream exists, so its
    /// closure now counts as a failure.
    Registered,
    /// Init acked; waiting for the rest of the fleet.
    Ready,
    /// The run broadcast went out; the rank is computing.
    Running,
    /// Told to terminate during failure handling; closure pending, process
    /// still alive (the straggler window of the current recovery).
    Stopping,
    /// A rank slot nobody will ever start again: Vcl's stale dispatcher
    /// entry, or an unprotected/unreplaceable death under replication —
    /// the frozen-job phase.
    Lost,
    /// The rank's process finished for good: `MPI_Finalize`, a shrunk-away
    /// ULFM victim, or a spent replica unit.
    Done,
}

impl AbstractPhase {
    /// Whether a live daemon process exists in this phase (something a
    /// fault injection can actually kill).
    pub fn process_alive(self) -> bool {
        matches!(
            self,
            AbstractPhase::Booted
                | AbstractPhase::Registered
                | AbstractPhase::Ready
                | AbstractPhase::Running
                | AbstractPhase::Stopping
                | AbstractPhase::Done
        )
    }
}

/// Abstract state of one rank slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AbstractRank {
    /// Lifecycle phase.
    pub phase: AbstractPhase,
    /// Machine (host index) currently assigned to the rank.
    pub host: u8,
    /// Process incarnation, bumped on every relaunch (saturating at
    /// [`INCARNATION_CAP`]). Monotone by construction — the model checker
    /// uses it to name fault targets and to detect scenarios that aim at a
    /// superseded incarnation.
    pub incarnation: u8,
}

/// A protocol-internal or environment step of an abstract backend model.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AbstractStep {
    /// The pending launch of a rank completes: its daemon process starts
    /// on the assigned host (fires `onload` there).
    Spawn(u8),
    /// A booted daemon dials the runtime and registers.
    Register(u8),
    /// A registered daemon acks init; when the whole fleet is ready the
    /// run (re)starts and the recovery completes.
    Ready(u8),
    /// A terminate-ordered daemon finishes stopping: its closure is
    /// observed and the rank is relaunched in place.
    StopClosure(u8),
    /// Environment: a fault kills the daemon process of this rank (the
    /// FAIL `halt` action, routed through the rank's controller).
    Fault(u8),
    /// The checkpoint scheduler opens a wave (quiescent states only;
    /// never enabled for protocols without checkpoint waves).
    WaveStart,
    /// The open wave commits on its last ack.
    WaveCommit,
}

impl AbstractStep {
    /// The unit a boot-ladder step (`Spawn`, `Register`, `Ready`,
    /// `StopClosure`) moves; `None` for a fault or a wave step.
    pub fn boot_unit(self) -> Option<u8> {
        match self {
            AbstractStep::Spawn(u)
            | AbstractStep::Register(u)
            | AbstractStep::Ready(u)
            | AbstractStep::StopClosure(u) => Some(u),
            AbstractStep::Fault(_) | AbstractStep::WaveStart | AbstractStep::WaveCommit => None,
        }
    }
}

/// Observable side effect of applying an [`AbstractStep`] — the hooks and
/// probe updates the FAIL side of the product reacts to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AbstractEvent {
    /// A process registered with the FAIL daemon on `host` (`onload`).
    OnLoad {
        /// Host the process started on.
        host: u8,
    },
    /// The process on `host` exited normally (`onexit`).
    OnExit {
        /// Host whose process exited.
        host: u8,
    },
    /// The process on `host` died abnormally (`onerror`).
    OnError {
        /// Host whose process died.
        host: u8,
    },
    /// A checkpoint wave committed; carries the new count (the
    /// `committed_wave` probe value).
    CommittedWave(u8),
    /// A recovery started; carries the new epoch (the `epoch` probe
    /// value).
    EpochBumped(u8),
    /// A failure was detected on a registered rank — the runtime's
    /// `FailureDetected` trace point, used for witness extraction.
    FailureDetected {
        /// The victim rank.
        rank: u8,
        /// Whether a recovery was already in flight (the bug window).
        during_recovery: bool,
    },
    /// The rank became permanently unrunnable: Vcl's Historical
    /// bookkeeping absorbed the closure, or a replication pair was
    /// exhausted.
    RankLost {
        /// The forgotten rank.
        rank: u8,
    },
}

/// A model's table (its unit slots, a spare-machine FIFO), shared between
/// a state and the states copied from it and copied on first write
/// ([`Slots::make_mut`]).
///
/// `Eq`, `Ord`, `Hash` and `Debug` are the slice's — a model deriving
/// them over a `Slots` field reads exactly as it did over a `Vec` there —
/// and equality and order answer from the shared allocation first.
#[derive(Clone)]
pub struct Slots<T>(Arc<[T]>);

impl<T: Clone> Slots<T> {
    /// The table, writable: copied first if another state shares it.
    pub fn make_mut(&mut self) -> &mut [T] {
        Arc::make_mut(&mut self.0)
    }
}

impl<T> Deref for Slots<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        &self.0
    }
}

impl<T> FromIterator<T> for Slots<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Slots<T> {
        Slots(iter.into_iter().collect())
    }
}

impl<T: PartialEq> PartialEq for Slots<T> {
    fn eq(&self, other: &Slots<T>) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || *self.0 == *other.0
    }
}

impl<T: Eq> Eq for Slots<T> {}

impl<T: Ord> Ord for Slots<T> {
    fn cmp(&self, other: &Slots<T>) -> Ordering {
        if Arc::ptr_eq(&self.0, &other.0) {
            Ordering::Equal
        } else {
            self.0.cmp(&other.0)
        }
    }
}

impl<T: Ord> PartialOrd for Slots<T> {
    fn partial_cmp(&self, other: &Slots<T>) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T: Hash> Hash for Slots<T> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}

impl<T: fmt::Debug> fmt::Debug for Slots<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

/// `n` slots launching on hosts `0..n`, incarnation 0 — every model's
/// initial slot table.
pub fn launch_slots(n: usize) -> Slots<AbstractRank> {
    (0..n)
        .map(|s| AbstractRank {
            phase: AbstractPhase::Launched,
            host: s as u8,
            incarnation: 0,
        })
        .collect()
}

/// A backend's finite abstract protocol model, as the model checker sees
/// it.
///
/// The explorer is protocol-agnostic: it enumerates boot-ladder steps,
/// routes faults from the FAIL plane and asks two freeze questions
/// ([`AbstractModel::lost_rank`], [`AbstractModel::all_running`]). The five
/// required methods are what every protocol answers differently; the
/// questions only some protocols have an answer to (a lost rank, a
/// recovery window, checkpoint waves, a spare-machine queue, stand-in
/// units) default to "no"; the rest is read off the slot table.
pub trait AbstractModel: Sized {
    /// The slot table: one [`AbstractRank`] per process unit (the ranks,
    /// then any stand-ins the protocol deploys, e.g. replicas).
    fn slots(&self) -> &[AbstractRank];

    /// Whether unit `u` has a live, killable process. The backends read
    /// [`AbstractPhase::Done`] differently — finalized-but-alive under Vcl,
    /// shrunk-away (dead) under ULFM, consumed (dead) under replication —
    /// so liveness is the model's, not [`AbstractPhase::process_alive`].
    fn unit_live(&self, u: usize) -> bool;

    /// The backend's steady computing state (the quiescent state faults
    /// injected by constant-delay timers land in).
    fn all_running(&self) -> bool;

    /// Applies `step`, appending the observable [`AbstractEvent`]s. Panics
    /// if the step is not enabled in this state (callers enumerate via
    /// [`AbstractModel::protocol_steps`] / the explorer's fault routing).
    fn apply(&mut self, step: AbstractStep, events: &mut Vec<AbstractEvent>);

    /// Relabels machines and unit slots — the orbit action of symmetry
    /// reduction: `host_map[h]` is the new label of host `h`, `rank_map[u]`
    /// the new slot of unit `u` (both must be permutations). Commutes with
    /// [`AbstractModel::apply`], because a protocol treats both labels as
    /// opaque.
    fn relabel(&self, host_map: &[u8], rank_map: &[u8]) -> Self;

    /// The first permanently-lost rank, if the backend can lose one (Vcl's
    /// stale dispatcher entry, replication's exhausted pair; ULFM never).
    fn lost_rank(&self) -> Option<u8> {
        None
    }

    /// The backend's phrase for the lost-rank freeze predicate (the FC003
    /// `why` clause).
    fn freeze_reason(&self) -> &'static str {
        "permanently lost rank"
    }

    /// The witness note narrating an [`AbstractEvent::RankLost`] emitted by
    /// a fault on `rank`.
    fn lost_note(&self, rank: u8) -> String {
        format!("rank {rank} is permanently lost")
    }

    /// Whether a recovery exchange is in flight (a protocol whose recovery
    /// is atomic has no such window).
    fn recovery_active(&self) -> bool {
        false
    }

    /// Whether a checkpoint wave may start (protocols without a checkpoint
    /// scheduler: never).
    fn wave_startable(&self) -> bool {
        false
    }

    /// Whether an open checkpoint wave may commit.
    fn wave_committable(&self) -> bool {
        false
    }

    /// The protocol's spare-machine FIFO, front first (empty for protocols
    /// that never reassign a machine). Queue position is protocol state, so
    /// the canonical machine order reads it.
    fn spare_hosts(&self) -> &[u8] {
        &[]
    }

    /// Appends how unit `u` reads in witness labels and fault notes.
    fn unit_desc(&self, u: usize, out: &mut String) {
        let _ = write!(out, "rank {u}");
    }

    /// Number of process units (= ranks, plus the protocol's stand-ins).
    fn n_units(&self) -> usize {
        self.slots().len()
    }

    /// Unit `u`'s slot (phase, host, incarnation).
    fn unit(&self, u: usize) -> &AbstractRank {
        &self.slots()[u]
    }

    /// The first unit whose live process runs on `host`, if any.
    fn live_rank_on_host(&self, host: u8) -> Option<u8> {
        let mut on_host = self.slots().iter().enumerate().filter(|(_, r)| r.host == host);
        on_host.find(|&(u, _)| self.unit_live(u)).map(|(u, _)| u as u8)
    }

    /// Every enabled protocol-internal step, in canonical slot order: the
    /// boot ladder, plus the stop closure of a terminate-ordered slot (a
    /// phase only relaunch-based protocols ever enter). Wave steps and
    /// faults are the explorer's business: waves are quiescent-only and
    /// faults come from the FAIL side.
    fn protocol_steps(&self) -> impl Iterator<Item = AbstractStep> + '_ {
        self.slots().iter().enumerate().filter_map(|(i, r)| {
            let i = i as u8;
            match r.phase {
                AbstractPhase::Launched => Some(AbstractStep::Spawn(i)),
                AbstractPhase::Booted => Some(AbstractStep::Register(i)),
                AbstractPhase::Registered => Some(AbstractStep::Ready(i)),
                AbstractPhase::Stopping => Some(AbstractStep::StopClosure(i)),
                _ => None,
            }
        })
    }

    /// Whether `a` and `b` commute wherever both are enabled: either one
    /// stays enabled after the other, both orders reach the same state,
    /// and both emit the same events. A sufficient condition the model
    /// vouches for, not a decision — `false` promises nothing.
    ///
    /// The default holds for two boot-ladder steps (`Spawn`, `Register`,
    /// `Ready`, `StopClosure`) of different units that are not both
    /// `Ready`, and never for `Fault`, `WaveStart` or `WaveCommit`. It is
    /// sound in every twin because `Spawn`, `Register` and `StopClosure`
    /// write only their own slot, emit only that slot's lifecycle hook,
    /// and move it only between phases no start barrier counts (`Launched`,
    /// `Booted`, `Registered`, `Stopping`): a `Ready`'s barrier reads the
    /// same answer in either order, and neither step can enable or disable
    /// the other. Two `Ready`s both read the barrier, and which one trips
    /// it depends on the order, so they are left to the caller's own
    /// check. A model whose boot ladder touches shared state overrides
    /// this.
    fn independent(&self, a: AbstractStep, b: AbstractStep) -> bool {
        match (a.boot_unit(), b.boot_unit()) {
            (Some(u), Some(v)) => {
                u != v && !matches!((a, b), (AbstractStep::Ready(_), AbstractStep::Ready(_)))
            }
            _ => false,
        }
    }

    /// Orbit metadata for symmetry reduction: the protocol content visible
    /// on machine `host`, independent of the host's numeric label and of
    /// slot identities — the sorted `(phase, incarnation)` pairs assigned
    /// to it and its position in the spare-machine FIFO. Two hosts with
    /// equal keys carry interchangeable protocol state; whether *slots* are
    /// interchangeable is the caller's question (`rank_map` in
    /// [`AbstractModel::relabel`]), not the protocol state's.
    fn host_key(&self, host: u8) -> (Vec<(AbstractPhase, u8)>, Option<usize>) {
        let mut content: Vec<(AbstractPhase, u8)> = self
            .slots()
            .iter()
            .filter(|r| r.host == host)
            .map(|r| (r.phase, r.incarnation))
            .collect();
        content.sort_unstable();
        (content, self.spare_hosts().iter().position(|&h| h == host))
    }
}

fn climb(slot: &mut AbstractRank, from: AbstractPhase, to: AbstractPhase) {
    assert_eq!(slot.phase, from);
    slot.phase = to;
}

/// [`AbstractStep::Spawn`]: the slot's process starts (`onload` fires on
/// its host). Panics if the step is not enabled.
pub fn spawn(slots: &mut [AbstractRank], s: u8, events: &mut Vec<AbstractEvent>) {
    let slot = &mut slots[s as usize];
    climb(slot, AbstractPhase::Launched, AbstractPhase::Booted);
    events.push(AbstractEvent::OnLoad { host: slot.host });
}

/// [`AbstractStep::Register`]: the booted slot registers. Panics if the
/// step is not enabled.
pub fn register(slots: &mut [AbstractRank], s: u8) {
    climb(&mut slots[s as usize], AbstractPhase::Booted, AbstractPhase::Registered);
}

/// The slot half of [`AbstractStep::Ready`]: the registered slot acks.
/// The start barrier that follows is the protocol's own. Panics if the
/// step is not enabled.
pub fn ack_ready(slots: &mut [AbstractRank], s: u8) {
    climb(&mut slots[s as usize], AbstractPhase::Registered, AbstractPhase::Ready);
}

/// Relabels machines and slots (the orbit action): `host_map[h]` is the
/// new label of host `h`, `slot_map[s]` the new index of slot `s` (both
/// must be permutations). A table the relabelling leaves as it is stays
/// shared.
pub fn relabel_slots(
    slots: &Slots<AbstractRank>,
    host_map: &[u8],
    slot_map: &[u8],
) -> Slots<AbstractRank> {
    debug_assert_eq!(slot_map.len(), slots.len());
    let fixed = |(s, r): (usize, &AbstractRank)| {
        slot_map[s] as usize == s && host_map[r.host as usize] == r.host
    };
    if slots.iter().enumerate().all(fixed) {
        return slots.clone();
    }
    let mut out = Slots(Arc::from(&**slots));
    let table = out.make_mut();
    for (s, old) in slots.iter().enumerate() {
        table[slot_map[s] as usize] = AbstractRank {
            host: host_map[old.host as usize],
            ..*old
        };
    }
    out
}

/// Relabels the machines a FIFO lists, keeping its order. A FIFO the
/// relabelling leaves as it is stays shared.
pub fn relabel_hosts(hosts: &Slots<u8>, host_map: &[u8]) -> Slots<u8> {
    if hosts.iter().all(|&h| host_map[h as usize] == h) {
        return hosts.clone();
    }
    hosts.iter().map(|&h| host_map[h as usize]).collect()
}
