//! The pending-event priority queue.
//!
//! A thin wrapper over [`BinaryHeap`] that (a) inverts the ordering so the
//! *earliest* event pops first and (b) breaks virtual-time ties by a
//! [`TieBreak`] policy fixed when the queue is made, making the pop order
//! total and deterministic regardless of the payload type.

use std::collections::BinaryHeap;
use std::fmt;

use crate::causal::EventId;
use crate::time::SimTime;

/// How events scheduled for the *same* virtual instant are ordered.
///
/// Either policy yields a total, reproducible order; they differ only in
/// *which* order. `Seeded` is the schedule-perturbation knob behind the
/// testkit's fuzzer: sweeping its seed explores the space of legal
/// simultaneous-event interleavings (turmoil-style) without ever violating
/// causality — an event scheduled *while handling* another can still never
/// run before its cause, because the cause has already popped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TieBreak {
    /// Same-time events pop in the order they were pushed (the default,
    /// and the semantics the paper's figures are generated under).
    Fifo,
    /// Same-time events pop in a pseudo-random order keyed by this seed.
    /// The same seed always produces the same order.
    Seeded(u64),
}

/// splitmix64: the tie-key mixer for [`TieBreak::Seeded`].
fn mix(seed: u64, seq: u64) -> u64 {
    let mut z = seed ^ seq.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One scheduled entry. Ordering ignores the payload entirely.
struct Scheduled<E> {
    at: SimTime,
    /// Tie-break key: `seq` under FIFO, a seeded hash of `seq` otherwise.
    key: u64,
    seq: u64,
    /// The handled event that scheduled this one (`None` for external
    /// stimulus). Threaded unconditionally — one `u64`-sized copy — so the
    /// happens-before log can be enabled without re-running.
    cause: Option<EventId>,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.key == other.key && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    // Reversed: BinaryHeap is a max-heap, we want the min (earliest) on top.
    // `seq` last keeps the order total even on (astronomically unlikely)
    // key collisions.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.at, other.key, other.seq).cmp(&(self.at, self.key, self.seq))
    }
}

/// A deterministic min-priority queue of `(SimTime, E)` pairs.
///
/// Events scheduled for the same instant pop in the order dictated by the
/// queue's [`TieBreak`] policy (FIFO by default).
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
    tie_break: TieBreak,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty FIFO-tie-break queue.
    pub fn new() -> Self {
        Self::with_tie_break(TieBreak::Fifo)
    }

    /// Creates an empty queue with the given tie-break policy.
    pub fn with_tie_break(tie_break: TieBreak) -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            tie_break,
        }
    }

    fn key_for(&self, seq: u64) -> u64 {
        match self.tie_break {
            TieBreak::Fifo => seq,
            TieBreak::Seeded(seed) => mix(seed, seq),
        }
    }

    /// Schedules `event` at absolute instant `at` with no recorded cause
    /// (external stimulus).
    pub fn push(&mut self, at: SimTime, event: E) {
        self.push_caused(at, event, None);
    }

    /// Schedules `event` at absolute instant `at`, remembering the handled
    /// event that scheduled it (the happens-before edge source).
    pub fn push_caused(&mut self, at: SimTime, event: E, cause: Option<EventId>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let key = self.key_for(seq);
        self.heap.push(Scheduled {
            at,
            key,
            seq,
            cause,
            event,
        });
        failmpi_obs::prof::queue_push(self.heap.len() as u64);
    }

    /// Removes and returns the earliest entry, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|s| (s.at, s.event))
    }

    /// Like [`EventQueue::pop`], additionally returning the entry's queue
    /// sequence number (its push order — the engine folds it into the run
    /// fingerprint) and the cause recorded at push time.
    pub fn pop_entry(&mut self) -> Option<(SimTime, u64, Option<EventId>, E)> {
        self.heap.pop().map(|s| {
            failmpi_obs::prof::queue_pop(s.at.as_micros(), self.heap.len() as u64);
            (s.at, s.seq, s.cause, s.event)
        })
    }

    /// The instant of the earliest pending entry, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.at)
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.heap.len())
            .field("next_seq", &self.next_seq)
            .field("tie_break", &self.tie_break)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3), "c");
        q.push(SimTime::from_secs(1), "a");
        q.push(SimTime::from_secs(2), "b");
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), "a")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), "b")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(3), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(7);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(5), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(5)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(10), 10);
        q.push(SimTime::from_secs(1), 1);
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), 1)));
        q.push(SimTime::from_secs(5), 5);
        q.push(SimTime::from_secs(2), 2);
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), 2)));
        assert_eq!(q.pop(), Some((SimTime::from_secs(5), 5)));
        assert_eq!(q.pop(), Some((SimTime::from_secs(10), 10)));
    }

    #[test]
    fn seeded_tie_break_permutes_but_preserves_time_order() {
        let t = SimTime::from_secs(7);
        let mut fifo = Vec::new();
        let mut any_permuted = false;
        for seed in 0..8u64 {
            let mut q = EventQueue::with_tie_break(TieBreak::Seeded(seed));
            for i in 0..50u32 {
                q.push(t, i);
            }
            q.push(SimTime::from_secs(8), 999);
            let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
            // The later event always pops last, whatever the tie order.
            assert_eq!(*order.last().unwrap(), 999);
            // Same multiset of same-time events.
            let mut sorted = order[..50].to_vec();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..50).collect::<Vec<_>>());
            if fifo.is_empty() {
                fifo = (0..50).collect();
            }
            any_permuted |= order[..50] != fifo[..];
        }
        assert!(any_permuted, "no seed permuted the tie order");
    }

    #[test]
    fn seeded_tie_break_is_reproducible() {
        let run = |seed| {
            let mut q = EventQueue::with_tie_break(TieBreak::Seeded(seed));
            for i in 0..32u32 {
                q.push(SimTime::from_secs(1), i);
            }
            std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43), "distinct seeds should (here) differ");
    }
}
