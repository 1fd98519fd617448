//! The op-program interpreter — a snapshottable virtual MPI process.

use std::collections::VecDeque;
use std::sync::Arc;

use failmpi_sim::SimDuration;

use crate::program::{Op, Program};
use crate::types::{Rank, Tag};

/// What the process wants to do next; returned by [`Interp::step`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Action {
    /// Hand this message to the local communication daemon, then call
    /// `step` again immediately (eager send, non-blocking for the app).
    Send {
        /// Destination rank.
        to: Rank,
        /// Message tag.
        tag: Tag,
        /// Payload size.
        bytes: u64,
    },
    /// The process computes for this long; call `step` again once the span
    /// has elapsed (or after a suspension-adjusted span).
    Busy(SimDuration),
    /// The process is blocked in a receive; call [`Interp::deliver`] when a
    /// message arrives, then `step` again.
    Blocked {
        /// Rank the process is waiting on.
        from: Rank,
        /// Tag the process is waiting on.
        tag: Tag,
    },
    /// Application progress marker to record in the trace.
    Progress(u32),
    /// The program ran to completion (`MPI_Finalize`).
    Finalized,
}

/// An in-flight message as seen by the process (metadata only).
#[derive(Clone, Debug, PartialEq, Eq)]
struct Envelope {
    from: Rank,
    tag: Tag,
    bytes: u64,
}

/// The complete state of one virtual MPI process.
///
/// `Clone` takes a full process image — this is the simulated counterpart of
/// a BLCR checkpoint: program counter, pending receive, unconsumed message
/// queue and progress counter are all captured.
#[derive(Clone, Debug)]
pub struct Interp {
    program: Arc<Program>,
    rank: Rank,
    /// Index into the program's flat op stream.
    pc: usize,
    /// The loop trip `pc` lies in, kept by [`Program::op_near`] so that a
    /// step finds its op without dividing. It sits in padding `Interp` had
    /// anyway (the struct stays 64 bytes) and is only ever a hint: a value
    /// that does not fit `pc` is recomputed.
    trip: u32,
    inbox: VecDeque<Envelope>,
    progress: u32,
    finalized: bool,
}

impl Interp {
    /// Creates a process at the start of `program`.
    pub fn new(rank: Rank, program: Arc<Program>) -> Self {
        Interp {
            program,
            rank,
            pc: 0,
            trip: 0,
            inbox: VecDeque::new(),
            progress: 0,
            finalized: false,
        }
    }

    /// This process' rank.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// Highest progress marker executed so far.
    pub fn progress(&self) -> u32 {
        self.progress
    }

    /// Whether the program has finalized.
    pub fn is_finalized(&self) -> bool {
        self.finalized
    }

    /// Checkpoint image size: the program's resident footprint plus queued
    /// message payloads.
    pub fn image_bytes(&self) -> u64 {
        self.program.image_bytes() + self.inbox.iter().map(|e| e.bytes).sum::<u64>()
    }

    /// Current program counter (diagnostic).
    pub fn pc(&self) -> usize {
        self.pc
    }

    /// Queues a message delivered by the local daemon. The process may or
    /// may not be blocked on it; matching happens inside [`Interp::step`].
    pub fn deliver(&mut self, from: Rank, tag: Tag, bytes: u64) {
        // Payload-copy ledger: the message body lands in the rank's
        // inbox here (one copy per delivery, including v2 reorder-buffer
        // replays).
        failmpi_obs::prof::copy("mpi.recv", bytes);
        self.inbox.push_back(Envelope { from, tag, bytes });
    }

    /// Removes and returns the first inbox entry matching `(from, tag)`,
    /// preserving FIFO order per source — the TCP stream guarantees order,
    /// and MPI matching is FIFO per (source, tag).
    fn take_matching(&mut self, from: Rank, tag: Tag) -> Option<Envelope> {
        let idx = self
            .inbox
            .iter()
            .position(|e| e.from == from && e.tag == tag)?;
        self.inbox.remove(idx)
    }

    /// Advances the program until it produces an externally visible action.
    ///
    /// `Send` and `Progress` advance the program counter before returning;
    /// `Busy` advances it too (the wait is external); `Blocked` leaves the
    /// counter on the receive op so a later `step` retries the match.
    pub fn step(&mut self) -> Action {
        loop {
            if self.finalized {
                return Action::Finalized;
            }
            let Some(op) = self.program.op_near(self.pc, &mut self.trip) else {
                // Falling off the end without Finalize counts as finalized;
                // well-formed programs never hit this.
                self.finalized = true;
                return Action::Finalized;
            };
            match op {
                Op::Compute(d) => {
                    self.pc += 1;
                    return Action::Busy(d);
                }
                Op::Send { to, tag, bytes } => {
                    self.pc += 1;
                    return Action::Send { to, tag, bytes };
                }
                Op::Recv { from, tag } => {
                    if self.take_matching(from, tag).is_some() {
                        self.pc += 1;
                        continue;
                    }
                    return Action::Blocked { from, tag };
                }
                Op::Progress(n) => {
                    self.pc += 1;
                    self.progress = self.progress.max(n);
                    return Action::Progress(n);
                }
                Op::Finalize => {
                    self.pc += 1;
                    self.finalized = true;
                    return Action::Finalized;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::tests::loop_and_flat;
    use crate::program::ProgramBuilder;

    fn secs(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    #[test]
    fn straight_line_execution() {
        let p = ProgramBuilder::new(10)
            .compute(secs(1))
            .send(Rank(1), Tag(0), 64)
            .progress(1)
            .finalize();
        let mut i = Interp::new(Rank(0), p);
        assert_eq!(i.step(), Action::Busy(secs(1)));
        assert_eq!(
            i.step(),
            Action::Send {
                to: Rank(1),
                tag: Tag(0),
                bytes: 64
            }
        );
        assert_eq!(i.step(), Action::Progress(1));
        assert_eq!(i.step(), Action::Finalized);
        assert!(i.is_finalized());
        assert_eq!(i.progress(), 1);
    }

    #[test]
    fn recv_blocks_until_matching_delivery() {
        let p = ProgramBuilder::new(0)
            .recv(Rank(2), Tag(7))
            .recv(Rank(3), Tag(7))
            .recv(Rank(2), Tag(8))
            .finalize();
        let mut i = Interp::new(Rank(0), p);
        assert_eq!(
            i.step(),
            Action::Blocked {
                from: Rank(2),
                tag: Tag(7)
            }
        );
        // Wrong source or tag does not unblock.
        i.deliver(Rank(3), Tag(7), 8);
        i.deliver(Rank(2), Tag(8), 8);
        assert!(matches!(i.step(), Action::Blocked { .. }));
        // The non-matching messages stayed queued: the later receives
        // consume them without another delivery.
        i.deliver(Rank(2), Tag(7), 8);
        assert_eq!(i.step(), Action::Finalized);
    }

    #[test]
    fn early_delivery_is_buffered() {
        let p = ProgramBuilder::new(0)
            .compute(secs(1))
            .recv(Rank(1), Tag(1))
            .finalize();
        let mut i = Interp::new(Rank(0), p);
        i.deliver(Rank(1), Tag(1), 16);
        assert_eq!(i.step(), Action::Busy(secs(1)));
        // Recv finds the buffered message and falls through to Finalize.
        assert_eq!(i.step(), Action::Finalized);
    }

    #[test]
    fn matching_is_fifo_per_source_and_tag() {
        let p = ProgramBuilder::new(0)
            .recv(Rank(1), Tag(1))
            .recv(Rank(1), Tag(1))
            .finalize();
        let mut i = Interp::new(Rank(0), p);
        i.deliver(Rank(1), Tag(1), 100);
        i.deliver(Rank(1), Tag(1), 200);
        // Both recvs complete; image_bytes shrink as messages are consumed.
        assert_eq!(i.image_bytes(), 300);
        assert_eq!(i.step(), Action::Finalized);
        assert_eq!(i.image_bytes(), 0);
    }

    #[test]
    fn clone_is_a_faithful_image() {
        let p = ProgramBuilder::new(1000)
            .compute(secs(1))
            .recv(Rank(1), Tag(0))
            .progress(5)
            .finalize();
        let mut i = Interp::new(Rank(0), p);
        assert!(matches!(i.step(), Action::Busy(_)));
        i.deliver(Rank(9), Tag(9), 50); // stray message sits in the inbox
        let snapshot = i.clone();
        // Continue the original past the snapshot point.
        i.deliver(Rank(1), Tag(0), 10);
        assert_eq!(i.step(), Action::Progress(5));
        assert_eq!(i.step(), Action::Finalized);
        // Rollback: the restored image blocks on the same recv again.
        let mut restored = snapshot;
        assert_eq!(restored.pc(), i.pc() - 3 + 1 - 1); // still at the recv
        assert_eq!(
            restored.step(),
            Action::Blocked {
                from: Rank(1),
                tag: Tag(0)
            }
        );
        assert_eq!(restored.progress(), 0);
        assert_eq!(restored.image_bytes(), 1050);
    }

    #[test]
    fn image_bytes_counts_program_and_inbox() {
        let p = ProgramBuilder::new(4096).finalize();
        let mut i = Interp::new(Rank(0), p);
        assert_eq!(i.image_bytes(), 4096);
        i.deliver(Rank(1), Tag(0), 100);
        assert_eq!(i.image_bytes(), 4196);
    }

    #[cfg(target_pointer_width = "64")]
    #[test]
    fn the_trip_record_fits_in_padding() {
        assert_eq!(std::mem::size_of::<Interp>(), 64);
    }

    /// Drives `i` for at most `budget` steps. Before step `k`, `noise[k %
    /// len]` may deliver a message from rank 1 nobody waits for yet; a
    /// blocked receive gets its message. Returns every action.
    fn drive(i: &mut Interp, noise: &[u8], budget: usize) -> Vec<Action> {
        let mut out = Vec::new();
        for k in 0..budget {
            let pick = noise[k % noise.len()];
            if pick.is_multiple_of(3) {
                i.deliver(Rank(1), Tag(u16::from(pick)), u64::from(pick));
            }
            let a = i.step();
            if let Action::Blocked { from, tag } = a {
                i.deliver(from, tag, 8);
            }
            let done = a == Action::Finalized;
            out.push(a);
            if done {
                break;
            }
        }
        out
    }

    proptest::proptest! {
        #[test]
        fn a_looped_program_runs_as_its_flat_list(
            trip in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..12),
            tail in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..6),
            trips in 0u32..5,
            span_seed: u64,
            noise in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 1..16),
            cut in 0usize..120,
            ahead in 0usize..120,
        ) {
            // A `Finalize` inside the trip would end the run in its first
            // trip; make it a progress marker.
            let trip: Vec<u8> = trip.iter().map(|&p| if p % 5 == 4 { p - 1 } else { p }).collect();
            let (body, ops) = loop_and_flat(&trip, &tail, trips, span_seed);
            let mut looped = Interp::new(Rank(0), Program::looped(body, 7));
            let mut flat = Interp::new(Rank(0), Program::new(ops, 7));
            let whole = drive(&mut flat.clone(), &noise, 400);
            proptest::prop_assert_eq!(drive(&mut looped.clone(), &noise, 400), whole);

            // An image taken mid-run, mid-trip as often as not.
            proptest::prop_assert_eq!(drive(&mut looped, &noise, cut), drive(&mut flat, &noise, cut));
            let image = looped.clone();
            let suffix = drive(&mut flat.clone(), &noise, 400);
            // The original runs on; the image, restored, replays the suffix.
            proptest::prop_assert_eq!(
                drive(&mut looped, &noise, ahead),
                drive(&mut flat, &noise, ahead)
            );
            proptest::prop_assert_eq!(drive(&mut image.clone(), &noise, 400), suffix.clone());
            // Restored backwards with a trip record that does not fit its
            // `pc`: the later image's, none, one past the loop.
            for stale in [looped.trip, 0, trips] {
                let mut restored = image.clone();
                restored.trip = stale;
                proptest::prop_assert_eq!(drive(&mut restored, &noise, 400), suffix.clone());
            }
        }
    }

    #[test]
    fn missing_finalize_terminates_gracefully() {
        let p = Program::new(vec![Op::Progress(1)], 0);
        let mut i = Interp::new(Rank(0), p);
        assert_eq!(i.step(), Action::Progress(1));
        assert_eq!(i.step(), Action::Finalized);
        assert_eq!(i.step(), Action::Finalized);
    }
}
