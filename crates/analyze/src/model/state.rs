//! Product-state types, the structural moves between them, and the two
//! hashers interning uses.
//!
//! The derived ordering and hash stream of [`ProdState`] are frozen:
//! successor order fixes interning order, and the FNV state digest over
//! that hash stream is a persisted fuzzer coverage key.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::ops::Index;

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

/// A handle to one FAIL-instance value: a position in the explorer's
/// [`InstTable`], or, past its end, in the pending values of the
/// expansion that created it. A product step changes one instance (a
/// fault cascade, a few), so cloning, comparing or hashing a state costs
/// a copy of its handles, not of the values behind them.
///
/// The table and every pending list hold each value once and the
/// pending list holds no value the table has, so within one table and
/// one pending list two handles are equal exactly when their values are.
/// The handle's numbering is free; [`ProdState::cmp_values`] and
/// [`ProdState::hash_values`] read the values where order or the digest
/// is observable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) struct Inst(u32);

const _: () = assert!(std::mem::size_of::<Inst>() == 4);

/// Hash-consed instance values: each distinct value once, numbered in
/// order of arrival. The explorer keeps one (in [`super::engine::Ctx`])
/// and each frontier worker one per expansion for the values the table
/// lacks, numbered on from the table's end.
#[derive(Clone, Default)]
pub(crate) struct InstTable {
    values: Vec<InstState>,
    /// A value's [`StateHasher`] value → the newest position carrying it.
    index: HashMap<u64, u32, BuildHasherDefault<PassThrough>>,
    /// The next-older position with the same hash value (`u32::MAX` ends
    /// the chain).
    same_hash: Vec<u32>,
}

fn value_hash(st: &InstState) -> u64 {
    let mut h = StateHasher::default();
    st.hash(&mut h);
    h.finish()
}

impl InstTable {
    pub(crate) fn len(&self) -> u32 {
        u32::try_from(self.values.len()).expect("instance values fit a 4-byte handle")
    }

    /// Every value, in handle order.
    pub(crate) fn values(&self) -> &[InstState] {
        &self.values
    }

    /// The position of `st`, whose hash is `hash`, if the table has it.
    fn find(&self, hash: u64, st: &InstState) -> Option<u32> {
        let mut at = self.index.get(&hash).copied().unwrap_or(u32::MAX);
        while at != u32::MAX {
            if self.values[at as usize] == *st {
                return Some(at);
            }
            at = self.same_hash[at as usize];
        }
        None
    }

    /// The position of `st`, added at the end if the table lacks it.
    fn find_or_push(&mut self, hash: u64, st: InstState) -> u32 {
        if let Some(at) = self.find(hash, &st) {
            return at;
        }
        let at = self.len();
        let head = self.index.insert(hash, at).unwrap_or(u32::MAX);
        self.same_hash.push(head);
        self.values.push(st);
        at
    }

    /// The handle of `st` in this table, which gains it if new.
    pub(crate) fn intern(&mut self, st: InstState) -> Inst {
        Inst(self.find_or_push(value_hash(&st), st))
    }

    /// The handle of `st` in this table plus `pending`: the table's entry
    /// if it has one, else `pending`'s, which gains it if new.
    pub(crate) fn intern_pending(&self, pending: &mut InstTable, st: InstState) -> Inst {
        let hash = value_hash(&st);
        match self.find(hash, &st) {
            Some(at) => Inst(at),
            None => Inst(self.len() + pending.find_or_push(hash, st)),
        }
    }

    /// Resolves this table's handles, and past its end those of the
    /// pending values `pending` (none for an interned state's).
    pub(crate) fn vals<'a>(&'a self, pending: &'a [InstState]) -> Vals<'a> {
        Vals { table: &self.values, pending }
    }

    /// Empties the table and returns its values.
    pub(crate) fn take_values(&mut self) -> Vec<InstState> {
        self.index.clear();
        self.same_hash.clear();
        std::mem::take(&mut self.values)
    }

    /// Moves into the table the values of a pending list — handles from
    /// `base` on, as [`Self::intern_pending`] issued them while the table
    /// was `base` long — that `states` hold, and rewrites those handles
    /// to the table's. A pending value no state holds is dropped.
    pub(crate) fn adopt<'s>(
        &mut self,
        base: u32,
        pending: Vec<InstState>,
        states: impl IntoIterator<Item = &'s mut ProdState>,
    ) {
        if pending.is_empty() {
            return;
        }
        let mut ids = vec![None; pending.len()];
        let mut pending: Vec<Option<InstState>> = pending.into_iter().map(Some).collect();
        for s in states {
            for inst in s.insts.iter_mut().filter(|i| i.0 >= base) {
                let k = (inst.0 - base) as usize;
                *inst = *ids[k].get_or_insert_with(|| {
                    self.intern(pending[k].take().expect("each pending value adopted once"))
                });
            }
        }
    }
}

/// Where a state's handles resolve: a table's values, then a pending
/// list's.
#[derive(Clone, Copy)]
pub(crate) struct Vals<'a> {
    table: &'a [InstState],
    pending: &'a [InstState],
}

impl Index<Inst> for Vals<'_> {
    type Output = InstState;
    fn index(&self, inst: Inst) -> &InstState {
        let at = inst.0 as usize;
        match self.table.get(at) {
            Some(st) => st,
            None => &self.pending[at - self.table.len()],
        }
    }
}

/// One product state: every FAIL instance, the in-flight message multiset,
/// and the abstract protocol state. The derived `Eq` and `Hash` read the
/// instance handles, so they hold only within one table and one pending
/// list; the interning index, its confirmation and every state comparison
/// inside one expansion are such.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub(crate) struct ProdState {
    pub(crate) insts: Vec<Inst>,
    /// Sorted multiset of in-flight FAIL messages `(from, to, msg)` —
    /// deliveries race, so order is not part of the state.
    pub(crate) msgs: Vec<(u8, u8, u8)>,
    pub(crate) proto: AbstractWorld,
}

impl ProdState {
    /// The frozen state order: lexicographic over the instance values,
    /// the in-flight messages and the protocol state, as a state holding
    /// its values in a `Vec<InstState>` would derive it. Equal handles
    /// are equal values, so only the first pair that differs is read.
    pub(crate) fn cmp_values(&self, other: &ProdState, vals: Vals) -> Ordering {
        let differ = self.insts.iter().zip(&other.insts).find(|(a, b)| a != b);
        let insts = match differ {
            Some((&a, &b)) => vals[a].cmp(&vals[b]),
            None => self.insts.len().cmp(&other.insts.len()),
        };
        insts.then_with(|| self.msgs.cmp(&other.msgs)).then_with(|| self.proto.cmp(&other.proto))
    }

    /// The frozen hash stream, the state digest's: what a state holding
    /// its values in a `Vec<InstState>` would derive.
    pub(crate) fn hash_values<H: Hasher>(&self, vals: Vals, h: &mut H) {
        h.write_usize(self.insts.len());
        for &inst in &self.insts {
            vals[inst].hash(h);
        }
        self.msgs.hash(h);
        self.proto.hash(h);
    }
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
    /// The values the successors hold that the explorer's table lacked
    /// while the layer ran, deduplicated: handle `pending_base + k` is
    /// `pending[k]`. [`InstTable::adopt`] moves them into the table.
    pub(crate) pending: Vec<InstState>,
    pub(crate) pending_base: u32,
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
