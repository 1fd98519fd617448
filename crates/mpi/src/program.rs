//! Op-programs: the per-rank instruction stream of a virtual MPI process.

use std::sync::{Arc, OnceLock};

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

    /// Whether executing this op can block the rank indefinitely. Only the
    /// blocking receive can (sends are eager/buffered in this model).
    pub fn is_blocking(&self) -> bool {
        matches!(self, Op::Recv { .. })
    }

    /// Payload bytes this op puts on the wire (sends only).
    pub fn payload_bytes(&self) -> u64 {
        match self {
            Op::Send { bytes, .. } => *bytes,
            _ => 0,
        }
    }
}

/// A program described as the loop it is: `trips` repetitions of `trip`,
/// then `tail`. Iterative kernels are thousands of ops that differ only in
/// their compute spans and progress number; the description holds what
/// differs, and [`Program::ops`] builds the flat list when somebody asks.
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

impl LoopBody {
    fn len(&self) -> usize {
        self.trips as usize * self.trip.len() + self.tail.len()
    }

    fn expand(&self) -> Vec<Op> {
        let mut ops = Vec::with_capacity(self.len());
        let mut spans = self.spans.iter();
        for trip in 1..=self.trips {
            ops.extend(self.trip.iter().map(|op| match op {
                Op::Compute(_) => Op::Compute(*spans.next().expect("one span per compute slot")),
                Op::Progress(_) => Op::Progress(trip),
                other => other.clone(),
            }));
        }
        ops.extend_from_slice(&self.tail);
        ops
    }
}

fn count_progress(ops: &[Op]) -> usize {
    ops.iter().filter(|op| matches!(op, Op::Progress(_))).count()
}

fn sum_compute_micros(ops: &[Op]) -> u64 {
    ops.iter()
        .map(|op| match op {
            Op::Compute(d) => d.as_micros(),
            _ => 0,
        })
        .sum()
}

/// An immutable per-rank program plus the metadata the checkpointing layer
/// needs (resident image size).
#[derive(Debug)]
pub struct Program {
    /// The loop the program was described as; `None` for an explicit list.
    body: Option<LoopBody>,
    /// The flat op list: given for an explicit program, built from `body`
    /// by the first [`Program::ops`] call otherwise.
    ops: OnceLock<Vec<Op>>,
    image_bytes: u64,
}

impl Program {
    /// Wraps a raw op list. `image_bytes` is the size of this process'
    /// checkpoint image (its resident data footprint).
    pub fn new(ops: Vec<Op>, image_bytes: u64) -> Arc<Self> {
        Arc::new(Program {
            body: None,
            ops: OnceLock::from(ops),
            image_bytes,
        })
    }

    /// Wraps a loop description; the flat op list is built the first time
    /// [`Program::ops`] is called. Panics unless `body.spans` holds exactly
    /// one span per `Compute` of `body.trip` per trip.
    pub fn looped(body: LoopBody, image_bytes: u64) -> Arc<Self> {
        let slots = body
            .trip
            .iter()
            .filter(|op| matches!(op, Op::Compute(_)))
            .count();
        assert_eq!(
            body.spans.len(),
            body.trips as usize * slots,
            "one span per compute slot per trip"
        );
        Arc::new(Program {
            body: Some(body),
            ops: OnceLock::new(),
            image_bytes,
        })
    }

    /// The instruction stream (expanding a loop description on first use).
    pub fn ops(&self) -> &[Op] {
        self.ops.get_or_init(|| {
            self.body
                .as_ref()
                .expect("an explicit program is built with its ops")
                .expand()
        })
    }

    /// Number of ops in the program (known without expanding).
    pub fn len(&self) -> usize {
        match &self.body {
            Some(body) => body.len(),
            None => self.ops().len(),
        }
    }

    /// Whether the program has no ops at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of `Progress` markers in the program (known without
    /// expanding).
    pub fn progress_marks(&self) -> usize {
        match &self.body {
            Some(body) => {
                body.trips as usize * count_progress(&body.trip) + count_progress(&body.tail)
            }
            None => count_progress(self.ops()),
        }
    }

    /// Total span of the program's `Compute` ops, in microseconds (known
    /// without expanding).
    pub fn compute_micros(&self) -> u64 {
        match &self.body {
            Some(body) => {
                body.spans.iter().map(|d| d.as_micros()).sum::<u64>()
                    + sum_compute_micros(&body.tail)
            }
            None => sum_compute_micros(self.ops()),
        }
    }

    /// Indexed iterator over the communication ops (sends and receives),
    /// yielding `(op index, op)` — the introspection surface the static
    /// analyzer walks.
    pub fn comm_ops(&self) -> impl Iterator<Item = (usize, &Op)> + '_ {
        self.ops()
            .iter()
            .enumerate()
            .filter(|(_, op)| op.peer().is_some())
    }

    /// Checkpoint image size of this process.
    pub fn image_bytes(&self) -> u64 {
        self.image_bytes
    }

    /// Whether the program's final op is `Finalize` (well-formed programs
    /// always end that way).
    pub fn is_well_formed(&self) -> bool {
        let ops = self.ops();
        matches!(ops.last(), Some(Op::Finalize))
            && ops
                .iter()
                .rev()
                .skip(1)
                .all(|op| !matches!(op, Op::Finalize))
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
/// assert_eq!(p.ops().len(), 5);
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
mod tests {
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
        assert!(!comm[0].1.is_blocking());
        assert!(comm[1].1.is_blocking());
        assert_eq!(comm[0].1.payload_bytes(), 64);
        assert_eq!(comm[1].1.payload_bytes(), 0);
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

    proptest::proptest! {
        #[test]
        fn summaries_equal_a_scan_of_the_ops_and_do_not_expand(
            trip in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..12),
            tail in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..6),
            trips in 0u32..5,
            span_seed: u64,
        ) {
            let trip: Vec<Op> = trip.into_iter().map(op_of).collect();
            let tail: Vec<Op> = tail.into_iter().map(op_of).collect();
            let slots = trip.iter().filter(|op| matches!(op, Op::Compute(_))).count();
            let spans: Vec<SimDuration> = (0..trips as usize * slots)
                .map(|i| SimDuration::from_micros(span_seed.wrapping_mul(i as u64 + 1) % 10_000))
                .collect();
            let body = LoopBody { trip: trip.clone(), trips, spans: spans.clone(), tail: tail.clone() };
            let looped = Program::looped(body, 7);
            let (len, marks, micros) =
                (looped.len(), looped.progress_marks(), looped.compute_micros());
            proptest::prop_assert!(looped.ops.get().is_none(), "a summary expanded the loop");

            // The flat list, built independently of `LoopBody::expand`.
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
            flat.extend(tail);
            proptest::prop_assert_eq!(looped.ops(), flat.as_slice());
            proptest::prop_assert_eq!(len, flat.len());
            proptest::prop_assert_eq!(marks, count_progress(&flat));
            proptest::prop_assert_eq!(micros, sum_compute_micros(&flat));
            // Expanded, the answers stay what they were.
            proptest::prop_assert_eq!(looped.progress_marks(), marks);
            proptest::prop_assert_eq!(looped.compute_micros(), micros);

            let explicit = Program::new(flat.clone(), 7);
            proptest::prop_assert_eq!(explicit.len(), flat.len());
            proptest::prop_assert_eq!(explicit.progress_marks(), marks);
            proptest::prop_assert_eq!(explicit.compute_micros(), micros);
            proptest::prop_assert_eq!(explicit.ops(), flat.as_slice());
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
