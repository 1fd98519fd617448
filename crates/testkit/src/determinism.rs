//! The double-run determinism harness.

use std::fmt;

use failmpi_sim::JournalEntry;

/// What one run of the scenario under test reports back to the harness.
///
/// `fingerprint` comes from [`failmpi_sim::Engine::fingerprint`]; `journal`
/// must be `Some` iff the harness asked for capture (it only does so after
/// a fingerprint mismatch, to keep the common path cheap).
#[derive(Clone, Debug)]
pub struct DetRun {
    /// The streaming run fingerprint.
    pub fingerprint: u64,
    /// Events handled (a cheap secondary signal: runs that diverge usually
    /// also diverge in length).
    pub events: u64,
    /// Per-event journal, when capture was requested.
    pub journal: Option<Vec<JournalEntry>>,
}

/// Where two journals first disagree.
#[derive(Clone, Debug)]
pub struct DivergencePoint {
    /// Index into both journals (number of identical leading events).
    pub index: usize,
    /// The first run's entry at `index`, if it has one.
    pub first: Option<JournalEntry>,
    /// The second run's entry at `index`, if it has one.
    pub second: Option<JournalEntry>,
}

/// A determinism violation: two same-input runs produced different
/// schedules.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// Scenario label (for the failure message).
    pub label: String,
    /// Fingerprint of the first run.
    pub first_fingerprint: u64,
    /// Fingerprint of the second run.
    pub second_fingerprint: u64,
    /// Events handled by each run.
    pub events: (u64, u64),
    /// The first divergent event, when journal capture localized one.
    /// `None` means the capture runs themselves agreed — the leak is
    /// *flappy* (e.g. address-keyed hashing that only sometimes reorders),
    /// which the report message calls out.
    pub point: Option<DivergencePoint>,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "scenario `{}` is non-deterministic: fingerprints {:#018x} vs {:#018x} \
             ({} vs {} events)",
            self.label, self.first_fingerprint, self.second_fingerprint,
            self.events.0, self.events.1
        )?;
        match &self.point {
            Some(p) => {
                writeln!(f, "first divergent event at schedule position {}:", p.index)?;
                for (side, e) in [("run A", &p.first), ("run B", &p.second)] {
                    match e {
                        Some(e) if e.label.is_empty() => writeln!(
                            f,
                            "  {side}: t={}us seq={} digest={:#018x}",
                            e.at_micros, e.seq, e.digest
                        )?,
                        Some(e) => writeln!(
                            f,
                            "  {side}: t={}us seq={} digest={:#018x} {}",
                            e.at_micros, e.seq, e.digest, e.label
                        )?,
                        None => writeln!(f, "  {side}: <run ended>")?,
                    }
                }
                Ok(())
            }
            None => writeln!(
                f,
                "journal capture could not localize the divergence (the leak is \
                 flaky across runs — suspect address-dependent ordering)"
            ),
        }
    }
}

/// Diffs two captured journals, returning the first position where they
/// disagree (`None` when identical).
pub fn first_divergence(a: &[JournalEntry], b: &[JournalEntry]) -> Option<DivergencePoint> {
    let n = a.len().min(b.len());
    for i in 0..n {
        if a[i] != b[i] {
            return Some(DivergencePoint {
                index: i,
                first: Some(a[i].clone()),
                second: Some(b[i].clone()),
            });
        }
    }
    if a.len() != b.len() {
        return Some(DivergencePoint {
            index: n,
            first: a.get(n).cloned(),
            second: b.get(n).cloned(),
        });
    }
    None
}

/// Runs `run` twice without capture and compares fingerprints; on mismatch
/// re-runs twice *with* journal capture to localize the first divergent
/// event. `run` receives `capture: bool` and must honour it by enabling
/// [`failmpi_sim::Engine::enable_fingerprint_journal`] before running.
///
/// The outer `Err` is the first error `run` returned; the inner result is
/// `Ok(fingerprint)` when deterministic.
pub fn check_determinism<E>(
    label: &str,
    mut run: impl FnMut(bool) -> Result<DetRun, E>,
) -> Result<Result<u64, Box<Divergence>>, E> {
    let a = run(false)?;
    let b = run(false)?;
    if a.fingerprint == b.fingerprint && a.events == b.events {
        return Ok(Ok(a.fingerprint));
    }
    // Mismatch: pay for capture and localize.
    let ja = run(true)?;
    let jb = run(true)?;
    let point = match (&ja.journal, &jb.journal) {
        (Some(ja), Some(jb)) => first_divergence(ja, jb),
        _ => None,
    };
    Ok(Err(Box::new(Divergence {
        label: label.to_string(),
        first_fingerprint: a.fingerprint,
        second_fingerprint: b.fingerprint,
        events: (a.events, b.events),
        point,
    })))
}

/// [`check_determinism`] that panics with the full divergence report, or
/// with the error `run` returned — the form regression tests use.
pub fn assert_deterministic<E: fmt::Debug>(
    label: &str,
    run: impl FnMut(bool) -> Result<DetRun, E>,
) -> u64 {
    match check_determinism(label, run) {
        Ok(Ok(fp)) => fp,
        Ok(Err(d)) => panic!("{d}"),
        Err(e) => panic!("{label}: {e:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use failmpi_sim::{Engine, Model, Scheduler, SimDuration, SimTime};

    struct Chain {
        left: u32,
    }
    impl Model for Chain {
        type Event = u32;
        fn handle(&mut self, _: SimTime, ev: u32, sched: &mut Scheduler<u32>) {
            if self.left > 0 {
                self.left -= 1;
                sched.after(SimDuration::from_millis(ev as u64 % 7 + 1), ev + 1);
            }
        }
    }

    fn chain_run(capture: bool) -> Result<DetRun, String> {
        let mut e = Engine::new(Chain { left: 50 });
        if capture {
            e.enable_fingerprint_journal();
        }
        e.schedule(SimTime::ZERO, 1);
        e.run(SimTime::MAX);
        Ok(DetRun {
            fingerprint: e.fingerprint(),
            events: e.events_handled(),
            journal: capture.then(|| e.take_fingerprint_journal()),
        })
    }

    #[test]
    fn deterministic_model_passes() {
        let fp = assert_deterministic("chain", chain_run);
        assert_ne!(fp, 0);
    }

    #[test]
    fn injected_nondeterminism_is_caught_and_localized() {
        // A model that consults ambient state (a counter outside the
        // simulation) — exactly the class of leak the harness exists for.
        use std::sync::atomic::{AtomicU64, Ordering};
        let poison = AtomicU64::new(0);
        let run = |capture: bool| {
            let leak = poison.fetch_add(1, Ordering::Relaxed);
            struct Leaky {
                extra: u64,
            }
            impl Model for Leaky {
                type Event = u32;
                fn handle(&mut self, _: SimTime, ev: u32, sched: &mut Scheduler<u32>) {
                    if ev < 10 {
                        // The leak shifts the 5th event's timing.
                        let delay = if ev == 5 { 1 + self.extra } else { 1 };
                        sched.after(SimDuration::from_millis(delay), ev + 1);
                    }
                }
            }
            let mut e = Engine::new(Leaky { extra: leak });
            if capture {
                e.enable_fingerprint_journal();
            }
            e.schedule(SimTime::ZERO, 0);
            e.run(SimTime::MAX);
            Ok::<_, String>(DetRun {
                fingerprint: e.fingerprint(),
                events: e.events_handled(),
                journal: capture.then(|| e.take_fingerprint_journal()),
            })
        };
        let err = check_determinism("leaky", run).unwrap().unwrap_err();
        let msg = err.to_string();
        let p = err.point.expect("journals localize the leak");
        // Events 0..=5 (positions 0..=5) agree; the 6th scheduled event
        // (position 6) carries the shifted timestamp.
        assert_eq!(p.index, 6);
        assert!(msg.contains("non-deterministic"), "{msg}");
    }

    #[test]
    fn divergent_lengths_reported() {
        let a = [];
        let b = [JournalEntry {
            at_micros: 1,
            seq: 0,
            digest: 2,
            label: String::new(),
        }];
        let p = first_divergence(&a, &b).unwrap();
        assert_eq!(p.index, 0);
        assert!(p.first.is_none());
        assert!(p.second.is_some());
        assert!(first_divergence(&b, &b).is_none());
    }
}
