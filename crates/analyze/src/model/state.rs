//! Product-state types, the structural moves between them, and the two
//! hashers interning uses.
//!
//! The derived ordering and hash stream of [`ProdState`] are frozen:
//! successor order fixes interning order, and the FNV state digest over
//! that hash stream is a persisted fuzzer coverage key.

use std::cmp::Ordering;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

use failmpi_backend::AbstractStep;
use failmpi_core::fire::Machine;

use super::world::AbstractWorld;

/// Magnitude cap for abstract variable values: a counter that strays past
/// this saturates to [`VarVal::Top`], keeping the state space finite.
pub(crate) const VAR_CAP: i64 = 64;

/// Abstract class-variable value.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) enum VarVal {
    /// Exactly this value.
    Known(i64),
    /// Any value (random picks, saturated counters).
    Top,
}

impl From<i64> for VarVal {
    fn from(v: i64) -> VarVal {
        VarVal::Known(v)
    }
}

/// Abstract state of one FAIL daemon instance: the firing core's machine
/// over abstract values, node and ids packed into `u16`/`u8`. Its hash
/// stream (node, vars, inbox, then [`Control`]'s fields) is the digest's.
pub(crate) type InstState = Machine<VarVal, u16, u8, Control>;

/// The checker's part of an instance ([`Machine::ctl`]). Timer
/// generations are replaced by a per-node armed set.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct Control {
    /// Timer slots armed by the current node entry.
    pub(crate) armed: Vec<bool>,
    /// Whether a live process is attached (the `onload`…`onexit` window).
    pub(crate) controlled: bool,
    /// Whether the attached process is `stop`-suspended.
    pub(crate) suspended: bool,
}

/// One instance's state as a [`ProdState`] carries it: immutable and
/// shared. A product step changes one instance (a fault cascade, a few),
/// so a successor shares every other instance with its parent, and
/// cloning, comparing or relabelling a state costs what changed rather
/// than the deployment size.
///
/// `Eq`/`Ord` answer from pointer identity when they can and fall back to
/// the content; `Hash` forwards to the content. The derived ordering and
/// hash stream of [`ProdState`] are therefore exactly those of a plain
/// `Vec<InstState>`.
#[derive(Clone, Debug)]
pub(crate) struct Inst(Arc<InstState>);

impl Inst {
    pub(crate) fn new(st: InstState) -> Inst {
        Inst(Arc::new(st))
    }

    /// Whether both share one allocation. A successor re-allocates only
    /// the instances its step changed, so `true` proves the content equal.
    pub(crate) fn same(&self, other: &Inst) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl Deref for Inst {
    type Target = InstState;
    fn deref(&self) -> &InstState {
        &self.0
    }
}

impl PartialEq for Inst {
    fn eq(&self, other: &Inst) -> bool {
        self.same(other) || *self.0 == *other.0
    }
}

impl Eq for Inst {}

impl Ord for Inst {
    fn cmp(&self, other: &Inst) -> Ordering {
        if self.same(other) {
            Ordering::Equal
        } else {
            self.0.cmp(&other.0)
        }
    }
}

impl PartialOrd for Inst {
    fn partial_cmp(&self, other: &Inst) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Hash for Inst {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}

/// One product state: every FAIL instance, the in-flight message multiset,
/// and the abstract protocol state.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct ProdState {
    pub(crate) insts: Vec<Inst>,
    /// Sorted multiset of in-flight FAIL messages `(from, to, msg)` —
    /// deliveries race, so order is not part of the state.
    pub(crate) msgs: Vec<(u8, u8, u8)>,
    pub(crate) proto: AbstractWorld,
}

pub(crate) fn insert_msg(msgs: &mut Vec<(u8, u8, u8)>, m: (u8, u8, u8)) {
    let pos = msgs.partition_point(|x| *x <= m);
    msgs.insert(pos, m);
}

/// One branch of a step application: the state it leads to, the faults it
/// injected, and human-readable annotations for the witness.
#[derive(Clone, Debug)]
pub(crate) struct Micro {
    pub(crate) st: ProdState,
    pub(crate) faults: u32,
    pub(crate) notes: Vec<String>,
}

/// Halt-site flags recorded while firing (`(site index, stale)`); the
/// sequential merge ORs them into the explorer's [`HaltSite`] table. The
/// flags are monotone, so apply order is immaterial.
pub(crate) type SiteLog = Vec<(usize, bool)>;

pub(crate) struct HaltSite {
    pub(crate) class: usize,
    pub(crate) line: u32,
    pub(crate) executed: bool,
    pub(crate) stale: bool,
}

/// One enabled product step, structurally. Instance and rank identities
/// are frame-relative: [`super::canon::Perm::apply_move`] transports a
/// move between a state and its orbit representative.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum MoveKind {
    Deliver { from: u8, to: u8, msg: u8 },
    Register(u8),
    Ready(u8),
    Breakpoint { rank: u8, holder: usize },
    Spawn(u8),
    StopClosure(u8),
    Timer { inst: usize, slot: usize },
    WaveStart,
    WaveCommit,
}

impl MoveKind {
    /// The protocol step a move starts with; `None` for the moves that
    /// start at an automaton (a delivery, a timer, a breakpoint's holder).
    pub(crate) fn protocol_step(&self) -> Option<AbstractStep> {
        match *self {
            MoveKind::Register(r) => Some(AbstractStep::Register(r)),
            MoveKind::Ready(r) => Some(AbstractStep::Ready(r)),
            MoveKind::Spawn(r) => Some(AbstractStep::Spawn(r)),
            MoveKind::StopClosure(r) => Some(AbstractStep::StopClosure(r)),
            MoveKind::WaveStart => Some(AbstractStep::WaveStart),
            MoveKind::WaveCommit => Some(AbstractStep::WaveCommit),
            MoveKind::Deliver { .. } | MoveKind::Breakpoint { .. } | MoveKind::Timer { .. } => None,
        }
    }
}

/// One labelled successor branch.
#[derive(Clone, Debug)]
pub(crate) struct Succ {
    /// The move's label: a byte range of the labels of the
    /// [`super::moves::Scratch`] that expanded the parent.
    pub(crate) label: (u32, u32),
    pub(crate) kind: MoveKind,
    pub(crate) micro: Micro,
    /// Where the raw-frame → canonical-frame permutation starts in
    /// [`Expansion::perms`]; `None` is the identity (always, when not
    /// reducing).
    pub(crate) perm: Option<u32>,
}

/// Everything one state expansion produced, computed purely so frontier
/// workers can run it in parallel.
pub(crate) struct Expansion {
    pub(crate) succs: Vec<Succ>,
    /// The successors' non-identity permutations, back to back, each as
    /// [`super::canon::Perm::write_flat`] writes it.
    pub(crate) perms: Vec<u8>,
    pub(crate) log: SiteLog,
    pub(crate) por_pruned: usize,
    pub(crate) orbit_hits: usize,
}

/// The interning hash: one multiply-rotate round per field the derived
/// `Hash` writes, whatever its width, and an avalanche at the end. It only
/// has to spread states over buckets — equality is confirmed on the states
/// themselves — and it is neither persisted nor printed, unlike the pinned
/// [`super::Fnv1a`] digest.
#[derive(Default)]
pub(crate) struct StateHasher(u64);

impl StateHasher {
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for StateHasher {
    fn finish(&self) -> u64 {
        // The map takes bucket bits from one end of the value and tag
        // bits from the other; fold so both ends depend on every round.
        let mut h = self.0;
        h ^= h >> 32;
        h = h.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^ (h >> 29)
    }
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }
    fn write_u8(&mut self, v: u8) {
        self.mix(u64::from(v));
    }
    fn write_u16(&mut self, v: u16) {
        self.mix(u64::from(v));
    }
    fn write_u32(&mut self, v: u32) {
        self.mix(u64::from(v));
    }
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }
}

/// Hasher of the interning index's keys, which already are hash values.
#[derive(Default)]
pub(crate) struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, _: &[u8]) {
        unreachable!("the interning index is keyed by u64 only");
    }
    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
}
