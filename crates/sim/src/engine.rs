//! The event loop: [`Model`], [`Scheduler`], and [`Engine`].

use failmpi_obs::WallProfile;

use crate::causal::{CausalLog, EventDesc, EventId, Label};
use crate::fingerprint::Fingerprint;
use crate::queue::{EventQueue, TieBreak};
use crate::time::{SimDuration, SimTime};

/// The world under simulation.
///
/// A model receives every event together with the current virtual time and a
/// [`Scheduler`] used to emit follow-up events. The model is plain mutable
/// state — the engine never clones it and never calls it re-entrantly.
pub trait Model {
    /// The event vocabulary of this world.
    type Event;

    /// Handles one event. `now` is the instant the event was scheduled for.
    fn handle(&mut self, now: SimTime, event: Self::Event, sched: &mut Scheduler<Self::Event>);

    /// Reports whether the simulation reached its goal state. The engine's
    /// [`Engine::run`] loop stops as soon as this returns `true` (checked
    /// after every handled event). Defaults to `false`, i.e. run until
    /// quiescence or deadline.
    fn finished(&self) -> bool {
        false
    }

    /// Folds the identity of `event` (actor, kind, arguments) into the run
    /// fingerprint. The engine already folds the event's virtual time and
    /// queue sequence number; overriding this strengthens the digest so it
    /// also distinguishes runs whose schedules coincide positionally but
    /// carry different payloads. The default folds nothing.
    fn fingerprint_event(&self, event: &Self::Event, fp: &mut Fingerprint) {
        let _ = (event, fp);
    }

    /// What the engine's instruments record of `event`: its kind (the
    /// wall and deep profiles' bucket), its one-line description packed
    /// into a [`Label`] (the happens-before log stores it), and its
    /// display track (the log's per-actor lane). One call per handled
    /// event feeds all three instruments, and only while one of them is
    /// on (see [`Engine::enable_profiling`], [`Engine::enable_causal_trace`]
    /// and `failmpi_obs::prof`). The default, [`EventDesc::default`], is
    /// kind `"event"`, the empty label and track 0.
    fn describe(&self, event: &Self::Event) -> EventDesc {
        let _ = event;
        EventDesc::default()
    }

    /// The text of a label [`Model::describe`] packed — the one place a
    /// vocabulary's descriptions are spelled. The log calls it when a node
    /// is read. The default is empty.
    fn render_label(label: Label) -> String {
        let _ = label;
        String::new()
    }
}

/// Event sink handed to [`Model::handle`]; buffers newly scheduled events
/// until the current event finishes, then merges them into the engine queue.
/// The engine owns one for its whole life, so the buffer is allocated once
/// and is empty between steps.
pub struct Scheduler<E> {
    now: SimTime,
    current: Option<EventId>,
    pending: Vec<(SimTime, E)>,
}

impl<E> Scheduler<E> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Identity of the event being handled — the happens-before cause of
    /// everything scheduled through this scheduler. `None` only for
    /// schedulers constructed outside an engine step.
    pub fn current_event(&self) -> Option<EventId> {
        self.current
    }

    /// Schedules `event` at the absolute instant `at`. Instants in the past
    /// are clamped to `now` (the event still runs, immediately after the
    /// current one).
    pub fn at(&mut self, at: SimTime, event: E) {
        self.pending.push((at.max(self.now), event));
    }

    /// Schedules `event` after `delay`.
    pub fn after(&mut self, delay: SimDuration, event: E) {
        self.pending.push((self.now + delay, event));
    }

    /// Schedules `event` to run immediately after the current one.
    pub fn immediate(&mut self, event: E) {
        self.pending.push((self.now, event));
    }
}

/// Why a [`Engine::run`] call returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// [`Model::finished`] returned true.
    Finished,
    /// The event queue drained before the deadline.
    Quiescent,
    /// The deadline was reached with events still pending.
    DeadlineReached,
    /// The per-run event budget was exhausted (runaway-model guard).
    EventBudgetExhausted,
}

/// The simulation driver: owns the clock, the event queue and the model.
pub struct Engine<M: Model> {
    model: M,
    queue: EventQueue<M::Event>,
    now: SimTime,
    handled: u64,
    event_budget: u64,
    fingerprint: Fingerprint,
    queue_hwm: usize,
    profile: WallProfile,
    causal: CausalLog,
    sched: Scheduler<M::Event>,
}

impl<M: Model> Engine<M> {
    /// Default cap on handled events per engine, preventing a buggy model
    /// from looping forever in zero virtual time.
    pub const DEFAULT_EVENT_BUDGET: u64 = 500_000_000;

    /// Wraps `model` with an empty queue at time zero.
    pub fn new(model: M) -> Self {
        Self::with_tie_break(model, TieBreak::Fifo)
    }

    /// Like [`Engine::new`] with an explicit same-instant tie-break policy
    /// (see [`TieBreak`]; the schedule-perturbation fuzzer's entry point).
    pub fn with_tie_break(model: M, tie_break: TieBreak) -> Self {
        Engine {
            model,
            queue: EventQueue::with_tie_break(tie_break),
            now: SimTime::ZERO,
            handled: 0,
            event_budget: Self::DEFAULT_EVENT_BUDGET,
            fingerprint: Fingerprint::new(),
            queue_hwm: 0,
            profile: WallProfile::disabled(),
            causal: CausalLog::disabled(),
            sched: Scheduler {
                now: SimTime::ZERO,
                current: None,
                pending: Vec::new(),
            },
        }
    }

    /// Replaces the runaway guard (events handled before giving up).
    pub fn set_event_budget(&mut self, budget: u64) {
        self.event_budget = budget;
    }

    /// The streaming run fingerprint: an incremental 64-bit digest over
    /// every handled event's `(time, seq, payload)` triple. Two runs of
    /// the same model and seed must report the same value; a mismatch is a
    /// determinism leak. Cheap enough to be always on.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint.value()
    }

    /// Schedules an initial event from outside the model.
    pub fn schedule(&mut self, at: SimTime, event: M::Event) {
        self.queue.push(at.max(self.now), event);
        self.queue_hwm = self.queue_hwm.max(self.queue.len());
    }

    /// High-water mark of the pending-event queue, observed after every
    /// scheduling point. A function of the schedule alone, so it belongs
    /// in deterministic metrics snapshots.
    pub fn queue_depth_hwm(&self) -> usize {
        self.queue_hwm
    }

    /// Starts attributing wall-clock handler time to the kinds
    /// [`Model::describe`] gives. Off by default — a disabled profile
    /// costs one branch per event; enabled it costs two `Instant::now`
    /// calls per event, so only the bench pipeline turns it on.
    pub fn enable_profiling(&mut self) {
        self.profile.enable();
    }

    /// The wall-clock handler profile (empty unless
    /// [`Engine::enable_profiling`] was called before running). Wall-side
    /// data: never fold this into a deterministic snapshot.
    pub fn profile(&self) -> &WallProfile {
        &self.profile
    }

    /// Starts recording the happens-before DAG: one node per handled
    /// event, each linked to the event that scheduled it and carrying the
    /// event's fingerprint digest, so two logs localize where two runs'
    /// schedules first differ. Costs one packed record per event (see
    /// [`CausalLog`]), so off by default; with it off, cause bookkeeping
    /// is a single `u64` copy per push.
    pub fn enable_causal_trace(&mut self) {
        if !self.causal.is_enabled() {
            self.causal = self.fresh_causal_log();
        }
    }

    /// An enabled log beginning at the next event to be handled.
    fn fresh_causal_log(&self) -> CausalLog {
        CausalLog::enabled(M::render_label).starting_at(EventId(self.handled))
    }

    /// The happens-before log (empty unless
    /// [`Engine::enable_causal_trace`] was called before running).
    pub fn causal_log(&self) -> &CausalLog {
        &self.causal
    }

    /// Consumes the happens-before log, leaving causal tracing enabled.
    pub fn take_causal_log(&mut self) -> CausalLog {
        if !self.causal.is_enabled() {
            return CausalLog::disabled();
        }
        let fresh = self.fresh_causal_log();
        std::mem::replace(&mut self.causal, fresh)
    }

    /// Current virtual time (the instant of the last handled event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events handled so far.
    pub fn events_handled(&self) -> u64 {
        self.handled
    }

    /// Number of events currently pending.
    pub fn events_pending(&self) -> usize {
        self.queue.len()
    }

    /// Shared view of the model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Exclusive view of the model (for external stimulus between runs).
    pub fn model_mut(&mut self) -> &mut M {
        &mut self.model
    }

    /// Consumes the engine, returning the model.
    pub fn into_model(self) -> M {
        self.model
    }

    /// Handles the single earliest event, if any. Returns `false` when the
    /// queue is empty or the next event lies beyond `deadline` (the clock
    /// is *not* advanced past the deadline in that case).
    pub fn step(&mut self, deadline: SimTime) -> bool {
        match self.queue.peek_time() {
            Some(t) if t <= deadline => {}
            _ => return false,
        }
        let (at, seq, cause, ev) = self.queue.pop_entry().expect("peeked entry vanished");
        debug_assert!(at >= self.now, "time went backwards");
        self.now = at;
        let id = EventId(self.handled);
        self.handled += 1;
        // Fold this event into the streaming run fingerprint: position
        // (time, queue seq) plus whatever identity the model contributes.
        let mut ev_fp = Fingerprint::new();
        ev_fp.write_u64(at.as_micros());
        ev_fp.write_u64(seq);
        self.model.fingerprint_event(&ev, &mut ev_fp);
        let digest = ev_fp.value();
        self.fingerprint.write_u64(digest);
        // One description serves every instrument: the log stores it (with
        // the digest) and renders on read, both profiles bin the handler
        // under its kind.
        let deep = failmpi_obs::prof::is_enabled();
        let desc = if self.profile.is_enabled() || deep || self.causal.is_enabled() {
            self.model.describe(&ev)
        } else {
            EventDesc::default()
        };
        if self.causal.is_enabled() {
            self.causal.push(cause, at, seq, digest, desc);
        }
        let started = self.profile.maybe_start();
        self.sched.now = at;
        self.sched.current = Some(id);
        // Deep-profiling scope: attributes the allocation delta of the
        // handler *and* the scheduling it triggers (queue push-back) to
        // this event kind, and roots the span tree at the kind.
        let scope = if deep { failmpi_obs::prof::event(desc.kind) } else { None };
        self.model.handle(at, ev, &mut self.sched);
        self.profile.record(desc.kind, started);
        for (t, e) in self.sched.pending.drain(..) {
            self.queue.push_caused(t, e, Some(id));
        }
        drop(scope);
        self.queue_hwm = self.queue_hwm.max(self.queue.len());
        true
    }

    /// Runs until the model reports [`Model::finished`], the queue drains, the
    /// deadline passes, or the event budget runs out.
    pub fn run(&mut self, deadline: SimTime) -> RunOutcome {
        loop {
            if self.model.finished() {
                return RunOutcome::Finished;
            }
            if self.handled >= self.event_budget {
                return RunOutcome::EventBudgetExhausted;
            }
            if !self.step(deadline) {
                return if self.queue.is_empty() {
                    RunOutcome::Quiescent
                } else {
                    RunOutcome::DeadlineReached
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Echo {
        seen: Vec<(SimTime, u32)>,
        finish_at: Option<u32>,
    }

    impl Model for Echo {
        type Event = u32;
        fn handle(&mut self, now: SimTime, ev: u32, sched: &mut Scheduler<u32>) {
            self.seen.push((now, ev));
            if ev > 0 && ev.is_multiple_of(2) {
                sched.after(SimDuration::from_secs(1), ev / 2);
            }
        }
        fn finished(&self) -> bool {
            match self.finish_at {
                Some(n) => self.seen.iter().any(|&(_, e)| e == n),
                None => false,
            }
        }
    }

    fn engine() -> Engine<Echo> {
        Engine::new(Echo {
            seen: Vec::new(),
            finish_at: None,
        })
    }

    #[test]
    fn events_run_in_time_order() {
        let mut e = engine();
        e.schedule(SimTime::from_secs(5), 5);
        e.schedule(SimTime::from_secs(1), 1);
        e.schedule(SimTime::from_secs(3), 3);
        assert_eq!(e.run(SimTime::MAX), RunOutcome::Quiescent);
        let evs: Vec<u32> = e.model().seen.iter().map(|&(_, v)| v).collect();
        assert_eq!(evs, vec![1, 3, 5]);
    }

    #[test]
    fn model_spawned_events_cascade() {
        let mut e = engine();
        e.schedule(SimTime::ZERO, 8);
        e.run(SimTime::MAX);
        let evs: Vec<u32> = e.model().seen.iter().map(|&(_, v)| v).collect();
        assert_eq!(evs, vec![8, 4, 2, 1]);
        assert_eq!(e.now(), SimTime::from_secs(3));
    }

    #[test]
    fn deadline_pauses_without_losing_events() {
        let mut e = engine();
        e.schedule(SimTime::from_secs(10), 1);
        assert_eq!(e.run(SimTime::from_secs(5)), RunOutcome::DeadlineReached);
        assert_eq!(e.events_pending(), 1);
        assert_eq!(e.run(SimTime::MAX), RunOutcome::Quiescent);
        assert_eq!(e.model().seen.len(), 1);
    }

    #[test]
    fn finished_stops_early() {
        let mut e = Engine::new(Echo {
            seen: Vec::new(),
            finish_at: Some(4),
        });
        e.schedule(SimTime::ZERO, 8);
        assert_eq!(e.run(SimTime::MAX), RunOutcome::Finished);
        // 8 handled, then 4 handled; loop notices finished before handling 2.
        assert_eq!(e.model().seen.len(), 2);
        assert_eq!(e.events_pending(), 1);
    }

    #[test]
    fn event_budget_guards_runaway() {
        struct Loopy;
        impl Model for Loopy {
            type Event = ();
            fn handle(&mut self, _: SimTime, _: (), sched: &mut Scheduler<()>) {
                sched.immediate(());
            }
        }
        let mut e = Engine::new(Loopy);
        e.set_event_budget(1000);
        e.schedule(SimTime::ZERO, ());
        assert_eq!(e.run(SimTime::MAX), RunOutcome::EventBudgetExhausted);
        assert_eq!(e.events_handled(), 1000);
    }

    #[test]
    fn past_events_clamp_to_now() {
        struct Backwards {
            times: Vec<SimTime>,
        }
        impl Model for Backwards {
            type Event = bool;
            fn handle(&mut self, now: SimTime, first: bool, sched: &mut Scheduler<bool>) {
                self.times.push(now);
                if first {
                    // Deliberately try to schedule in the past.
                    sched.at(SimTime::ZERO, false);
                }
            }
        }
        let mut e = Engine::new(Backwards { times: Vec::new() });
        e.schedule(SimTime::from_secs(9), true);
        e.run(SimTime::MAX);
        assert_eq!(
            e.model().times,
            vec![SimTime::from_secs(9), SimTime::from_secs(9)]
        );
    }

    #[test]
    fn nothing_scheduled_by_one_step_is_pushed_by_the_next() {
        /// `k > 0` schedules `k` zeros, one of them in the past; a zero
        /// schedules nothing.
        struct Fan;
        impl Model for Fan {
            type Event = u32;
            fn handle(&mut self, now: SimTime, k: u32, sched: &mut Scheduler<u32>) {
                for i in 0..k {
                    sched.at(if i == 0 { SimTime::ZERO } else { now }, 0);
                }
            }
        }
        let mut e = Engine::new(Fan);
        e.schedule(SimTime::from_secs(2), 5);
        assert!(e.step(SimTime::MAX));
        assert_eq!(e.events_pending(), 5);
        // The scheduler's buffer is reused from step to step: were it not
        // empty again here, this step would push the five a second time.
        assert!(e.step(SimTime::MAX));
        assert_eq!(e.events_pending(), 4);
        assert_eq!(e.run(SimTime::MAX), RunOutcome::Quiescent);
        assert_eq!(e.events_handled(), 6);
        // `at` clamped the one event aimed at the past to its cause's instant.
        assert_eq!(e.now(), SimTime::from_secs(2));
    }

    #[test]
    fn step_respects_deadline_exactly() {
        let mut e = engine();
        e.schedule(SimTime::from_secs(5), 1);
        assert!(!e.step(SimTime::from_secs(4)));
        assert!(e.step(SimTime::from_secs(5)));
    }

    fn fingerprint_of(seed_events: &[(u64, u32)]) -> u64 {
        let mut e = engine();
        for &(t, v) in seed_events {
            e.schedule(SimTime::from_secs(t), v);
        }
        e.run(SimTime::MAX);
        e.fingerprint()
    }

    #[test]
    fn fingerprint_is_reproducible_and_discriminating() {
        let a = fingerprint_of(&[(1, 8), (5, 3)]);
        let b = fingerprint_of(&[(1, 8), (5, 3)]);
        let c = fingerprint_of(&[(1, 8), (6, 3)]);
        assert_eq!(a, b, "same schedule, same digest");
        assert_ne!(a, c, "different schedule, different digest");
    }

    #[test]
    fn empty_run_has_base_fingerprint() {
        let e = engine();
        assert_eq!(e.fingerprint(), crate::Fingerprint::new().value());
    }

    #[test]
    fn causal_nodes_carry_each_events_digest() {
        // `Echo` folds no payload: an event's digest is its time and seq.
        let mut e = engine();
        e.enable_causal_trace();
        e.schedule(SimTime::ZERO, 8);
        e.run(SimTime::MAX);
        let mut run = crate::Fingerprint::new();
        for n in e.causal_log().nodes() {
            let mut ev = crate::Fingerprint::new();
            ev.write_u64(n.at.as_micros());
            ev.write_u64(n.seq);
            assert_eq!(n.digest, ev.value() as u32, "node {}", n.id);
            run.write_u64(ev.value());
        }
        assert_eq!(e.causal_log().len() as u64, e.events_handled());
        assert_eq!(run.value(), e.fingerprint());
    }

    #[test]
    fn queue_hwm_tracks_peak_pending() {
        let mut e = engine();
        assert_eq!(e.queue_depth_hwm(), 0);
        e.schedule(SimTime::from_secs(1), 1);
        e.schedule(SimTime::from_secs(2), 3);
        e.schedule(SimTime::from_secs(3), 5);
        assert_eq!(e.queue_depth_hwm(), 3);
        e.run(SimTime::MAX);
        // Draining never raises the mark; odd events spawn nothing.
        assert_eq!(e.queue_depth_hwm(), 3);
    }

    #[test]
    fn queue_hwm_is_schedule_deterministic() {
        let run = || {
            let mut e = engine();
            e.schedule(SimTime::ZERO, 8);
            e.schedule(SimTime::ZERO, 64);
            e.run(SimTime::MAX);
            e.queue_depth_hwm()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn profiling_is_opt_in_and_labels_kinds() {
        let mut e = engine();
        e.schedule(SimTime::ZERO, 8);
        e.run(SimTime::MAX);
        assert_eq!(e.profile().bins().count(), 0, "off by default");

        struct Labeled;
        impl Model for Labeled {
            type Event = u32;
            fn handle(&mut self, _: SimTime, _: u32, _: &mut Scheduler<u32>) {}
            fn describe(&self, ev: &u32) -> EventDesc {
                let kind = if ev.is_multiple_of(2) { "even" } else { "odd" };
                EventDesc {
                    kind,
                    ..EventDesc::default()
                }
            }
        }
        let mut e = Engine::new(Labeled);
        e.enable_profiling();
        for v in 0..5u32 {
            e.schedule(SimTime::from_secs(v as u64), v);
        }
        e.run(SimTime::MAX);
        let bins: std::collections::BTreeMap<_, _> = e.profile().bins().collect();
        assert_eq!(bins["even"].count, 3);
        assert_eq!(bins["odd"].count, 2);
    }

    #[test]
    fn causal_trace_is_opt_in() {
        let mut e = engine();
        e.schedule(SimTime::ZERO, 8);
        e.run(SimTime::MAX);
        assert!(e.causal_log().is_empty(), "off by default");
        assert!(!e.causal_log().is_enabled());
    }

    #[test]
    fn causal_trace_links_cascades_to_their_cause() {
        let mut e = engine();
        e.enable_causal_trace();
        e.schedule(SimTime::ZERO, 8);
        e.run(SimTime::MAX);
        let log = e.causal_log();
        // 8 -> 4 -> 2 -> 1: four nodes, each (after the root) caused by
        // the previous one; the root is external stimulus.
        assert_eq!(log.len(), 4);
        log.check_invariants().expect("well-formed DAG");
        let causes: Vec<Option<u64>> = log.nodes().map(|n| n.cause.map(|c| c.0)).collect();
        assert_eq!(causes, vec![None, Some(0), Some(1), Some(2)]);
        let chain = log.chain_to_root(crate::EventId(3));
        assert_eq!(chain.len(), 4);
        assert_eq!(chain[0].cause, None);
    }

    #[test]
    fn scheduler_exposes_current_event_id() {
        struct Probe {
            ids: Vec<Option<u64>>,
        }
        impl Model for Probe {
            type Event = u32;
            fn handle(&mut self, _: SimTime, ev: u32, sched: &mut Scheduler<u32>) {
                self.ids.push(sched.current_event().map(|id| id.0));
                if ev > 0 {
                    sched.immediate(ev - 1);
                }
            }
        }
        let mut e = Engine::new(Probe { ids: Vec::new() });
        e.schedule(SimTime::ZERO, 2);
        e.run(SimTime::MAX);
        assert_eq!(e.model().ids, vec![Some(0), Some(1), Some(2)]);
    }

    #[test]
    fn take_causal_log_keeps_tracing_enabled() {
        let mut e = engine();
        e.enable_causal_trace();
        e.schedule(SimTime::ZERO, 8);
        e.run(SimTime::MAX);
        let taken = e.take_causal_log();
        assert_eq!(taken.len(), 4);
        assert!(e.causal_log().is_empty());
        assert!(e.causal_log().is_enabled());
    }

    /// Even events pack as format 1 (`e<n>`), odd ones as format 2
    /// (`odd <n>`).
    struct Halving;
    impl Model for Halving {
        type Event = u32;
        fn handle(&mut self, _: SimTime, ev: u32, sched: &mut Scheduler<u32>) {
            if ev > 1 {
                sched.immediate(ev / 2);
            }
        }
        fn describe(&self, ev: &u32) -> EventDesc {
            let code = if ev.is_multiple_of(2) { 1 } else { 2 };
            EventDesc {
                label: Label::new(code, [*ev, 0, 0]),
                ..EventDesc::default()
            }
        }
        fn render_label(l: Label) -> String {
            match l.code {
                1 => format!("e{}", l.args[0]),
                _ => format!("odd {}", l.args[0]),
            }
        }
    }

    #[test]
    fn causal_labels_render_through_the_model_and_survive_a_take() {
        let mut e = Engine::new(Halving);
        e.enable_causal_trace();
        e.schedule(SimTime::ZERO, 12);
        e.run(SimTime::MAX);
        let labels = |log: &CausalLog| log.nodes().map(|n| n.label).collect::<Vec<_>>();
        assert_eq!(labels(&e.take_causal_log()), ["e12", "e6", "odd 3", "odd 1"]);
        // The log left behind renders with the same model, and its ids go on
        // from where the taken one stopped.
        e.schedule(SimTime::from_secs(1), 2);
        e.run(SimTime::MAX);
        assert_eq!(labels(e.causal_log()), ["e2", "odd 1"]);
        let ids: Vec<u64> = e.causal_log().nodes().map(|n| n.id.0).collect();
        assert_eq!(ids, [4, 5]);
        e.causal_log().check_invariants().expect("well-formed");
    }

    #[test]
    fn seeded_tie_break_changes_fingerprint_not_multiset() {
        // Ten same-time events whose handling order does not matter for
        // the final model state but does alter the schedule digest.
        let run = |tb: crate::TieBreak| {
            let mut e = Engine::with_tie_break(
                Echo {
                    seen: Vec::new(),
                    finish_at: None,
                },
                tb,
            );
            for v in 0..10u32 {
                e.schedule(SimTime::from_secs(1), v * 2 + 1); // odd: no cascades
            }
            e.run(SimTime::MAX);
            let mut vals: Vec<u32> = e.model().seen.iter().map(|&(_, v)| v).collect();
            let order_digest = e.fingerprint();
            vals.sort_unstable();
            (vals, order_digest)
        };
        let (vals_fifo, fp_fifo) = run(crate::TieBreak::Fifo);
        let mut saw_difference = false;
        for seed in 0..16 {
            let (vals, fp) = run(crate::TieBreak::Seeded(seed));
            assert_eq!(vals, vals_fifo, "same events handled");
            saw_difference |= fp != fp_fifo;
        }
        assert!(saw_difference, "no seed perturbed the schedule");
    }
}
