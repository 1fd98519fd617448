//! Execution tracing.
//!
//! Upper layers record what happened — checkpoint waves, failures, recovery
//! phases, application progress — as timestamped entries of a caller-defined
//! kind. The experiment harness replays these traces to classify a run the
//! way the paper does "by analysing the execution trace" (Sec. 5): terminated
//! vs. non-terminating (fault frequency too high) vs. buggy (frozen).

use crate::causal::EventId;
use crate::time::SimTime;

/// One timestamped trace record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEntry<K> {
    /// When the event happened.
    pub at: SimTime,
    /// What happened (layer-defined).
    pub kind: K,
    /// The engine event being handled when this was recorded — the anchor
    /// that links a semantic record into the happens-before DAG. `None`
    /// when causal tracing is off or the entry was built by hand.
    pub cause: Option<EventId>,
}

impl<K> TraceEntry<K> {
    /// Builds an entry with no causal anchor (hand-built traces, tests).
    pub fn new(at: SimTime, kind: K) -> Self {
        TraceEntry {
            at,
            kind,
            cause: None,
        }
    }
}

/// An append-only log of [`TraceEntry`] records.
///
/// Recording can be disabled wholesale (for benchmark runs where only the
/// final statistics matter); `last_activity` is tracked either way because
/// freeze detection depends on it.
#[derive(Clone, Debug)]
pub struct TraceLog<K> {
    entries: Vec<TraceEntry<K>>,
    enabled: bool,
    last_activity: SimTime,
    current_cause: Option<EventId>,
}

impl<K> Default for TraceLog<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K> TraceLog<K> {
    /// Creates an enabled, empty log.
    pub fn new() -> Self {
        TraceLog {
            entries: Vec::new(),
            enabled: true,
            last_activity: SimTime::ZERO,
            current_cause: None,
        }
    }

    /// Creates a log that only tracks `last_activity`, storing no entries.
    pub fn disabled() -> Self {
        TraceLog {
            enabled: false,
            ..TraceLog::new()
        }
    }

    /// Whether entries are being stored.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the causal anchor stamped onto subsequent [`TraceLog::record`]
    /// calls: the engine event currently being handled. A no-op on a
    /// disabled log, so benchmark runs skip cause bookkeeping entirely.
    pub fn set_cause(&mut self, cause: Option<EventId>) {
        if self.enabled {
            self.current_cause = cause;
        }
    }

    /// Appends an entry (or just bumps `last_activity` when disabled),
    /// stamping the current causal anchor (see [`TraceLog::set_cause`]).
    pub fn record(&mut self, at: SimTime, kind: K) {
        self.last_activity = self.last_activity.max(at);
        if self.enabled {
            self.entries.push(TraceEntry {
                at,
                kind,
                cause: self.current_cause,
            });
        }
    }

    /// Instant of the most recent record.
    pub fn last_activity(&self) -> SimTime {
        self.last_activity
    }

    /// All stored entries, in record order (which is also time order as long
    /// as the caller records monotonically, which the engine guarantees).
    pub fn entries(&self) -> &[TraceEntry<K>] {
        &self.entries
    }

    /// Moves the stored entries out, leaving the log empty.
    pub fn take_entries(&mut self) -> Vec<TraceEntry<K>> {
        std::mem::take(&mut self.entries)
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over entries matching a predicate on the kind.
    pub fn filtered<'a>(
        &'a self,
        mut pred: impl FnMut(&K) -> bool + 'a,
    ) -> impl Iterator<Item = &'a TraceEntry<K>> + 'a {
        self.entries.iter().filter(move |e| pred(&e.kind))
    }

    /// The last entry matching a predicate.
    pub fn last_matching(&self, mut pred: impl FnMut(&K) -> bool) -> Option<&TraceEntry<K>> {
        self.entries.iter().rev().find(|e| pred(&e.kind))
    }

    /// Counts entries matching a predicate.
    pub fn count(&self, mut pred: impl FnMut(&K) -> bool) -> usize {
        self.entries.iter().filter(|e| pred(&e.kind)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, PartialEq, Eq)]
    enum Kind {
        Start,
        Tick(u32),
        Stop,
    }

    #[test]
    fn records_in_order() {
        let mut log = TraceLog::new();
        log.record(SimTime::from_secs(1), Kind::Start);
        log.record(SimTime::from_secs(2), Kind::Tick(1));
        log.record(SimTime::from_secs(3), Kind::Stop);
        assert_eq!(log.len(), 3);
        assert_eq!(log.entries()[1].kind, Kind::Tick(1));
        assert_eq!(log.last_activity(), SimTime::from_secs(3));
    }

    #[test]
    fn disabled_log_tracks_activity_only() {
        let mut log = TraceLog::disabled();
        log.record(SimTime::from_secs(7), Kind::Start);
        assert!(log.is_empty());
        assert!(!log.is_enabled());
        assert_eq!(log.last_activity(), SimTime::from_secs(7));
    }

    #[test]
    fn filtered_and_count() {
        let mut log = TraceLog::new();
        for i in 0..10 {
            log.record(SimTime::from_secs(i), Kind::Tick(i as u32));
        }
        log.record(SimTime::from_secs(10), Kind::Stop);
        let even: Vec<u32> = log
            .filtered(|k| matches!(k, Kind::Tick(n) if n % 2 == 0))
            .map(|e| match e.kind {
                Kind::Tick(n) => n,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(even, vec![0, 2, 4, 6, 8]);
        assert_eq!(log.count(|k| matches!(k, Kind::Tick(_))), 10);
    }

    #[test]
    fn last_matching_scans_backwards() {
        let mut log = TraceLog::new();
        log.record(SimTime::from_secs(1), Kind::Tick(1));
        log.record(SimTime::from_secs(2), Kind::Tick(2));
        let last = log.last_matching(|k| matches!(k, Kind::Tick(_))).unwrap();
        assert_eq!(last.kind, Kind::Tick(2));
        assert!(log.last_matching(|k| matches!(k, Kind::Stop)).is_none());
    }

    #[test]
    fn cause_is_stamped_until_replaced() {
        let mut log = TraceLog::new();
        log.record(SimTime::from_secs(1), Kind::Start);
        log.set_cause(Some(EventId(4)));
        log.record(SimTime::from_secs(2), Kind::Tick(1));
        log.set_cause(Some(EventId(9)));
        log.record(SimTime::from_secs(3), Kind::Stop);
        let causes: Vec<Option<EventId>> = log.entries().iter().map(|e| e.cause).collect();
        assert_eq!(causes, vec![None, Some(EventId(4)), Some(EventId(9))]);
    }

    #[test]
    fn disabled_log_skips_cause_bookkeeping() {
        let mut log = TraceLog::disabled();
        log.set_cause(Some(EventId(1)));
        assert_eq!(log.current_cause, None, "disabled log must not track causes");
        log.record(SimTime::from_secs(1), Kind::Start);
        assert!(log.is_empty());
    }

    #[test]
    fn last_activity_is_monotone() {
        let mut log = TraceLog::new();
        log.record(SimTime::from_secs(5), Kind::Start);
        // A late record with an earlier timestamp must not move activity back.
        log.record(SimTime::from_secs(3), Kind::Stop);
        assert_eq!(log.last_activity(), SimTime::from_secs(5));
    }
}
