//! Op-programs: the per-rank instruction stream of a virtual MPI process.

use std::sync::Arc;

use failmpi_sim::SimDuration;

use crate::types::{Rank, Tag};

/// One instruction of a virtual MPI process.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// Pure local computation for the given span of CPU time.
    Compute(SimDuration),
    /// Buffered (eager) send: completes as soon as the message is handed to
    /// the local communication daemon, like a small `MPI_Send` under the
    /// eager protocol.
    Send {
        /// Destination rank.
        to: Rank,
        /// Message tag.
        tag: Tag,
        /// Payload size for the bandwidth model.
        bytes: u64,
    },
    /// Blocking receive of a `(from, tag)`-matching message.
    Recv {
        /// Source rank.
        from: Rank,
        /// Message tag.
        tag: Tag,
    },
    /// Application progress marker (e.g. "iteration k finished"); recorded
    /// in the execution trace and used by the harness to distinguish a
    /// stalled run from a progressing one.
    Progress(u32),
    /// `MPI_Finalize`: the process is done.
    Finalize,
}

impl Op {
    /// The communication peer and tag of a `Send` or `Recv`, `None` for
    /// local ops. Static analysis uses this to build the send/recv
    /// matching graph without enumerating variants.
    pub fn peer(&self) -> Option<(Rank, Tag)> {
        match self {
            Op::Send { to, tag, .. } => Some((*to, *tag)),
            Op::Recv { from, tag } => Some((*from, *tag)),
            _ => None,
        }
    }
}

/// A program described as the loop it is: `trips` repetitions of `trip`,
/// then `tail`. Iterative kernels are thousands of ops that differ only in
/// their compute spans and progress number; the description holds what
/// differs, and [`Program::op_at`] fills one op in when somebody asks.
#[derive(Debug)]
pub struct LoopBody {
    /// One trip's ops. A `Compute` is a slot filled from `spans`, a
    /// `Progress` is numbered by its trip (from 1); the rest repeat as is.
    pub trip: Vec<Op>,
    /// How many times `trip` runs.
    pub trips: u32,
    /// The compute spans of every trip in execution order: one entry per
    /// `Compute` of `trip` per trip.
    pub spans: Vec<SimDuration>,
    /// What follows the last trip (ends with `Finalize` in a well-formed
    /// program).
    pub tail: Vec<Op>,
}

/// An immutable per-rank program plus the metadata the checkpointing layer
/// needs (resident image size).
///
/// A program is its loop description and nothing else: op `pc` of the
/// flat instruction stream is computed from it ([`Program::op_at`]), so no
/// flat list is ever held. An explicit op list is the loop of zero trips
/// whose tail is the list.
#[derive(Debug)]
pub struct Program {
    body: LoopBody,
    /// `slot_of[i]`: how many `Compute` slots precede op `i` of a trip, so
    /// that op's span in trip `t` is `spans[t * slots + slot_of[i]]`.
    slot_of: Vec<u32>,
    /// `Compute` slots per trip.
    slots: usize,
    /// Ops `0..looped` are the trips; the tail follows.
    looped: usize,
    image_bytes: u64,
}

impl Program {
    /// Wraps a raw op list. `image_bytes` is the size of this process'
    /// checkpoint image (its resident data footprint).
    pub fn new(ops: Vec<Op>, image_bytes: u64) -> Arc<Self> {
        let body = LoopBody {
            trip: Vec::new(),
            trips: 0,
            spans: Vec::new(),
            tail: ops,
        };
        Program::looped(body, image_bytes)
    }

    /// Wraps a loop description. Panics unless `body.spans` holds exactly
    /// one span per `Compute` of `body.trip` per trip.
    pub fn looped(body: LoopBody, image_bytes: u64) -> Arc<Self> {
        let mut slots = 0u32;
        let slot_of = body
            .trip
            .iter()
            .map(|op| {
                let before = slots;
                slots += u32::from(matches!(op, Op::Compute(_)));
                before
            })
            .collect();
        let slots = slots as usize;
        assert_eq!(
            body.spans.len(),
            body.trips as usize * slots,
            "one span per compute slot per trip"
        );
        Arc::new(Program {
            looped: body.trips as usize * body.trip.len(),
            body,
            slot_of,
            slots,
            image_bytes,
        })
    }

    /// Op `offset` of trip `trip` (from 0), its span and progress number
    /// filled in.
    #[inline]
    fn trip_op(&self, trip: usize, offset: usize) -> Op {
        match &self.body.trip[offset] {
            Op::Compute(_) => {
                Op::Compute(self.body.spans[trip * self.slots + self.slot_of[offset] as usize])
            }
            Op::Progress(_) => Op::Progress(trip as u32 + 1),
            op => op.clone(),
        }
    }

    /// Op `pc` of the flat instruction stream, `None` past its end.
    pub fn op_at(&self, pc: usize) -> Option<Op> {
        self.op_near(pc, &mut 0)
    }

    /// [`Program::op_at`] for a caller that walks forward: `trip` is the
    /// caller's record of the trip `pc` lies in, kept up to date here.
    /// Staying in a trip or stepping into the next costs no division; only
    /// a record that does not fit `pc` (the caller jumped, or restored an
    /// older `pc`) is recomputed.
    #[inline]
    pub(crate) fn op_near(&self, pc: usize, trip: &mut u32) -> Option<Op> {
        if pc >= self.looped {
            return self.body.tail.get(pc - self.looped).cloned();
        }
        let len = self.body.trip.len();
        let offset = match pc.checked_sub(*trip as usize * len) {
            Some(o) if o < len => o,
            Some(o) if o < 2 * len => {
                *trip += 1;
                o - len
            }
            _ => {
                *trip = (pc / len) as u32;
                pc % len
            }
        };
        Some(self.trip_op(*trip as usize, offset))
    }

    /// The flat instruction stream from op `pc` on, computed op by op.
    pub fn iter_from(&self, pc: usize) -> impl Iterator<Item = Op> + '_ {
        Stream {
            program: self,
            pc,
            trip: 0,
        }
    }

    /// The flat instruction stream, computed op by op.
    pub fn iter(&self) -> impl Iterator<Item = Op> + '_ {
        self.iter_from(0)
    }

    /// The flat instruction stream as a list, built on every call. No run
    /// or analysis asks for it; it is the frozen benchmark's op count and
    /// the tests' reference.
    pub fn ops(&self) -> Vec<Op> {
        self.iter().collect()
    }

    /// Number of ops in the program.
    pub fn len(&self) -> usize {
        self.looped + self.body.tail.len()
    }

    /// Whether the program has no ops at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many ops of the stream match `pred` (which must not look at
    /// compute spans or progress numbers: it sees the description's).
    fn count(&self, pred: impl Fn(&Op) -> bool) -> usize {
        let per_trip = self.body.trip.iter().filter(|op| pred(op)).count();
        self.body.trips as usize * per_trip + self.body.tail.iter().filter(|op| pred(op)).count()
    }

    /// Number of `Progress` markers in the program.
    pub fn progress_marks(&self) -> usize {
        self.count(|op| matches!(op, Op::Progress(_)))
    }

    /// Total span of the program's `Compute` ops, in microseconds.
    pub fn compute_micros(&self) -> u64 {
        let tail = self.body.tail.iter().map(|op| match op {
            Op::Compute(d) => *d,
            _ => SimDuration::ZERO,
        });
        self.body
            .spans
            .iter()
            .copied()
            .chain(tail)
            .map(SimDuration::as_micros)
            .sum()
    }

    /// Indexed iterator over the communication ops (sends and receives),
    /// yielding `(op index, op)` — the introspection surface the static
    /// analyzer walks.
    pub fn comm_ops(&self) -> impl Iterator<Item = (usize, &Op)> + '_ {
        let len = self.body.trip.len();
        let looped = self.looped;
        (0..self.body.trips as usize)
            .flat_map(move |t| (t * len..).zip(&self.body.trip))
            .chain((looped..).zip(&self.body.tail))
            .filter(|(_, op)| op.peer().is_some())
    }

    /// Every op the program runs at least once, as described: one trip
    /// (when it runs at all), then the tail, with unfilled spans and
    /// progress numbers. A question about *which* ops occur — who talks to
    /// whom — scans this instead of the stream.
    pub fn described_ops(&self) -> impl Iterator<Item = &Op> + '_ {
        let trip: &[Op] = if self.body.trips > 0 {
            &self.body.trip
        } else {
            &[]
        };
        trip.iter().chain(&self.body.tail)
    }

    /// Checkpoint image size of this process.
    pub fn image_bytes(&self) -> u64 {
        self.image_bytes
    }

    /// Whether the program's final op is `Finalize` (well-formed programs
    /// always end that way) and no other op is.
    pub fn is_well_formed(&self) -> bool {
        self.count(|op| matches!(op, Op::Finalize)) == 1
            && matches!(
                self.len().checked_sub(1).and_then(|pc| self.op_at(pc)),
                Some(Op::Finalize)
            )
    }
}

/// [`Program::iter_from`]: a `pc` and the trip it lies in.
struct Stream<'a> {
    program: &'a Program,
    pc: usize,
    trip: u32,
}

impl Iterator for Stream<'_> {
    type Item = Op;

    #[inline]
    fn next(&mut self) -> Option<Op> {
        let op = self.program.op_near(self.pc, &mut self.trip)?;
        self.pc += 1;
        Some(op)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.program.len().saturating_sub(self.pc);
        (left, Some(left))
    }
}

/// Convenience builder for op-programs.
///
/// ```
/// use failmpi_mpi::{ProgramBuilder, Rank, Tag};
/// use failmpi_sim::SimDuration;
///
/// let p = ProgramBuilder::new(4 << 20)
///     .compute(SimDuration::from_millis(10))
///     .send(Rank(1), Tag(0), 1024)
///     .recv(Rank(1), Tag(1))
///     .progress(1)
///     .finalize();
/// assert!(p.is_well_formed());
/// assert_eq!(p.len(), 5);
/// ```
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    ops: Vec<Op>,
    image_bytes: u64,
}

impl ProgramBuilder {
    /// Starts a program whose checkpoint image is `image_bytes` long.
    pub fn new(image_bytes: u64) -> Self {
        ProgramBuilder {
            ops: Vec::new(),
            image_bytes,
        }
    }

    /// Appends a compute phase.
    pub fn compute(mut self, d: SimDuration) -> Self {
        self.ops.push(Op::Compute(d));
        self
    }

    /// Appends an eager send.
    pub fn send(mut self, to: Rank, tag: Tag, bytes: u64) -> Self {
        self.ops.push(Op::Send { to, tag, bytes });
        self
    }

    /// Appends a blocking receive.
    pub fn recv(mut self, from: Rank, tag: Tag) -> Self {
        self.ops.push(Op::Recv { from, tag });
        self
    }

    /// Appends a send-then-receive exchange with one partner each way.
    pub fn sendrecv(self, to: Rank, stag: Tag, bytes: u64, from: Rank, rtag: Tag) -> Self {
        self.send(to, stag, bytes).recv(from, rtag)
    }

    /// Appends a progress marker.
    pub fn progress(mut self, n: u32) -> Self {
        self.ops.push(Op::Progress(n));
        self
    }

    /// Appends raw ops (used by collective lowering).
    pub fn extend(mut self, ops: impl IntoIterator<Item = Op>) -> Self {
        self.ops.extend(ops);
        self
    }

    /// Terminates with `Finalize` and freezes the program.
    pub fn finalize(mut self) -> Arc<Program> {
        self.ops.push(Op::Finalize);
        Program::new(self.ops, self.image_bytes)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn builder_assembles_ops_in_order() {
        let p = ProgramBuilder::new(100)
            .compute(SimDuration::from_secs(1))
            .send(Rank(2), Tag(5), 64)
            .recv(Rank(2), Tag(6))
            .finalize();
        assert_eq!(
            p.ops(),
            &[
                Op::Compute(SimDuration::from_secs(1)),
                Op::Send {
                    to: Rank(2),
                    tag: Tag(5),
                    bytes: 64
                },
                Op::Recv {
                    from: Rank(2),
                    tag: Tag(6)
                },
                Op::Finalize,
            ]
        );
        assert_eq!(p.image_bytes(), 100);
    }

    #[test]
    fn well_formedness_requires_single_trailing_finalize() {
        let good = ProgramBuilder::new(0).progress(1).finalize();
        assert!(good.is_well_formed());
        let no_finalize = Program::new(vec![Op::Progress(1)], 0);
        assert!(!no_finalize.is_well_formed());
        let double = Program::new(vec![Op::Finalize, Op::Finalize], 0);
        assert!(!double.is_well_formed());
    }

    #[test]
    fn introspection_accessors() {
        let p = ProgramBuilder::new(0)
            .compute(SimDuration::from_secs(1))
            .send(Rank(2), Tag(5), 64)
            .recv(Rank(3), Tag(6))
            .finalize();
        assert_eq!(p.len(), 4);
        assert!(!p.is_empty());
        let comm: Vec<_> = p.comm_ops().collect();
        assert_eq!(comm.len(), 2);
        assert_eq!(comm[0].0, 1);
        assert_eq!(comm[0].1.peer(), Some((Rank(2), Tag(5))));
        assert_eq!(comm[1].1.peer(), Some((Rank(3), Tag(6))));
        assert_eq!(Op::Finalize.peer(), None);
    }

    /// An op picked by `pick`; compute spans and progress numbers vary.
    fn op_of(pick: u8) -> Op {
        match pick % 5 {
            0 => Op::Compute(SimDuration::from_micros(1 + u64::from(pick))),
            1 => Op::Send {
                to: Rank(1),
                tag: Tag(u16::from(pick)),
                bytes: 64,
            },
            2 => Op::Recv {
                from: Rank(1),
                tag: Tag(u16::from(pick)),
            },
            3 => Op::Progress(u32::from(pick)),
            _ => Op::Finalize,
        }
    }

    /// The loop `trips × trip + tail` over [`op_of`] picks, with spans drawn
    /// from `span_seed`, and its flat op list built independently of
    /// [`Program`]'s addressing.
    pub(crate) fn loop_and_flat(
        trip: &[u8],
        tail: &[u8],
        trips: u32,
        span_seed: u64,
    ) -> (LoopBody, Vec<Op>) {
        let trip: Vec<Op> = trip.iter().copied().map(op_of).collect();
        let tail: Vec<Op> = tail.iter().copied().map(op_of).collect();
        let slots = trip
            .iter()
            .filter(|op| matches!(op, Op::Compute(_)))
            .count();
        let spans: Vec<SimDuration> = (0..trips as usize * slots)
            .map(|i| SimDuration::from_micros(span_seed.wrapping_mul(i as u64 + 1) % 10_000))
            .collect();
        let mut flat = Vec::new();
        let mut next_span = spans.iter();
        for t in 1..=trips {
            for op in &trip {
                flat.push(match op {
                    Op::Compute(_) => Op::Compute(*next_span.next().unwrap()),
                    Op::Progress(_) => Op::Progress(t),
                    other => other.clone(),
                });
            }
        }
        flat.extend(tail.iter().cloned());
        let body = LoopBody {
            trip,
            trips,
            spans,
            tail,
        };
        (body, flat)
    }

    proptest::proptest! {
        #[test]
        fn flat_addressing_and_summaries_equal_the_flat_list(
            trip in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..12),
            tail in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..6),
            trips in 0u32..5,
            span_seed: u64,
        ) {
            let (body, flat) = loop_and_flat(&trip, &tail, trips, span_seed);
            let looped = Program::looped(body, 7);
            let explicit = Program::new(flat.clone(), 7);
            let marks = flat.iter().filter(|op| matches!(op, Op::Progress(_))).count();
            let micros: u64 = flat
                .iter()
                .map(|op| if let Op::Compute(d) = op { d.as_micros() } else { 0 })
                .sum();
            let finalizes = flat.iter().filter(|op| matches!(op, Op::Finalize)).count();
            let well_formed = finalizes == 1 && flat.last() == Some(&Op::Finalize);
            let comm: Vec<(usize, &Op)> =
                flat.iter().enumerate().filter(|(_, op)| op.peer().is_some()).collect();
            let peers: std::collections::BTreeSet<_> = flat.iter().filter_map(Op::peer).collect();
            for p in [&looped, &explicit] {
                for pc in 0..flat.len() + 2 {
                    proptest::prop_assert_eq!(p.op_at(pc).as_ref(), flat.get(pc), "pc {}", pc);
                    proptest::prop_assert!(p.iter_from(pc).eq(flat.iter().skip(pc).cloned()));
                }
                proptest::prop_assert_eq!(p.len(), flat.len());
                proptest::prop_assert_eq!(p.iter().size_hint(), (flat.len(), Some(flat.len())));
                proptest::prop_assert_eq!(p.progress_marks(), marks);
                proptest::prop_assert_eq!(p.compute_micros(), micros);
                proptest::prop_assert_eq!(p.is_well_formed(), well_formed);
                proptest::prop_assert_eq!(&p.comm_ops().collect::<Vec<_>>(), &comm);
                let described: std::collections::BTreeSet<_> =
                    p.described_ops().filter_map(Op::peer).collect();
                proptest::prop_assert_eq!(&described, &peers);
                proptest::prop_assert_eq!(p.ops(), flat.as_slice());
            }
        }
    }

    #[test]
    #[should_panic(expected = "one span per compute slot per trip")]
    fn a_loop_with_the_wrong_number_of_spans_is_refused() {
        let body = LoopBody {
            trip: vec![Op::Compute(SimDuration::ZERO), Op::Progress(0)],
            trips: 3,
            spans: vec![SimDuration::from_micros(5); 2],
            tail: vec![Op::Finalize],
        };
        let _ = Program::looped(body, 0);
    }

    #[test]
    fn sendrecv_lowers_to_send_then_recv() {
        let p = ProgramBuilder::new(0)
            .sendrecv(Rank(1), Tag(1), 10, Rank(3), Tag(2))
            .finalize();
        assert!(matches!(p.ops()[0], Op::Send { to: Rank(1), .. }));
        assert!(matches!(p.ops()[1], Op::Recv { from: Rank(3), .. }));
    }
}
