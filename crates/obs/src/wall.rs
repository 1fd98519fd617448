//! Wall-clock profiling of the simulator itself.
//!
//! This is the non-deterministic half of the observability layer: handler
//! timings keyed by event kind, for finding where *simulator* time goes.
//! Results feed the `benchmark/` package only and must never enter a
//! deterministic [`crate::MetricsSnapshot`].

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Accumulated wall time for one event kind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WallBin {
    /// Samples recorded.
    pub count: u64,
    /// Total wall nanoseconds across samples.
    pub nanos: u64,
}

/// Per-event-kind wall-clock profile, disabled by default.
///
/// Zero-cost-when-disabled: callers bracket the timed section with
/// [`WallProfile::maybe_start`] / [`WallProfile::record`], and a disabled
/// profile returns `None` from `maybe_start` without touching the clock,
/// so the hot path pays one branch.
#[derive(Clone, Debug, Default)]
pub struct WallProfile {
    enabled: bool,
    bins: BTreeMap<&'static str, WallBin>,
}

impl WallProfile {
    /// A disabled profile (the default).
    pub fn disabled() -> WallProfile {
        WallProfile::default()
    }

    /// Turns profiling on.
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// Whether samples are being taken.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Starts a timed section, or `None` when disabled.
    #[inline]
    pub fn maybe_start(&self) -> Option<Instant> {
        if self.enabled {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Closes a timed section opened by [`WallProfile::maybe_start`],
    /// attributing the elapsed time to `kind`. A `None` start (profile
    /// disabled at the time) records nothing.
    #[inline]
    pub fn record(&mut self, kind: &'static str, start: Option<Instant>) {
        if let Some(start) = start {
            self.add(kind, start.elapsed());
        }
    }

    /// Adds one pre-measured sample to `kind`.
    pub fn add(&mut self, kind: &'static str, elapsed: Duration) {
        let bin = self.bins.entry(kind).or_default();
        bin.count += 1;
        bin.nanos += u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
    }

    /// The accumulated bins, keyed by event kind.
    pub fn bins(&self) -> impl Iterator<Item = (&'static str, WallBin)> + '_ {
        self.bins.iter().map(|(&k, &b)| (k, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profile_records_nothing() {
        let mut p = WallProfile::disabled();
        assert!(!p.is_enabled());
        let start = p.maybe_start();
        assert!(start.is_none());
        p.record("x", start);
        assert_eq!(p.bins().count(), 0);
    }

    #[test]
    fn enabled_profile_accumulates_per_kind() {
        let mut p = WallProfile::disabled();
        p.enable();
        let start = p.maybe_start();
        assert!(start.is_some());
        p.record("a", start);
        p.add("a", Duration::from_nanos(10));
        p.add("b", Duration::from_nanos(5));
        let bins: BTreeMap<_, _> = p.bins().collect();
        assert_eq!(bins["a"].count, 2);
        assert_eq!(bins["b"].count, 1);
        assert!(bins["a"].nanos >= 10);
        assert_eq!(bins["b"].nanos, 5);
    }
}
