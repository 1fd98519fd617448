//! The chassis contract, from outside the crate: a backend that writes
//! only the required methods gets the FAIL-daemon hand-off — causal
//! stamping, event and hook draining, breakpoints, trace and traffic —
//! and the lifecycle answers and metrics from the provided ones.

use failmpi_backend::{Chassis, Hook, InstrumentedFn, ProtocolBackend, Signal, VclEvent};
use failmpi_net::{HostId, ProcId};
use failmpi_obs::MetricsSnapshot;
use failmpi_sim::{EventDesc, EventId, Fingerprint, FingerprintEvent, Label, SimTime};

#[derive(Debug, PartialEq)]
struct Tick;

impl FingerprintEvent for Tick {
    fn fold(&self, _: &mut Fingerprint) {}
}

/// The least a runtime says for itself: the required methods, over a
/// chassis it only owns. Each `Tick` records, hooks and re-emits once.
struct Fake(Chassis<Tick>);

#[rustfmt::skip]
impl ProtocolBackend for Fake {
    type Event = Tick;
    fn chassis(&self) -> &Chassis<Tick> { &self.0 }
    fn chassis_mut(&mut self) -> &mut Chassis<Tick> { &mut self.0 }
    fn dispatch(&mut self, now: SimTime, _: Tick) {
        self.0.record(now, VclEvent::JobComplete);
        self.0.hooks.push(Hook::OnLoad { host: HostId(0), proc: ProcId(0) });
        self.0.emit(now, Tick);
    }
    fn is_complete(&self) -> bool { false }
    fn fail(&mut self, _: SimTime, _: ProcId, _: Signal) {}
    fn compute_hosts(&self) -> &[HostId] { &[HostId(0)] }
    fn track_names(&self) -> Vec<String> { vec!["fake".into()] }
    fn describe(&self, _: &Tick) -> EventDesc {
        EventDesc { kind: "tick", label: Label::new(1, [0; 3]), track: 0 }
    }
    fn render_label(_: Label) -> String { "tick".into() }
    fn contribute_metrics(&self, _: &mut MetricsSnapshot) {}
}

#[test]
fn chassis_behaviours_are_provided_over_the_required_methods() {
    let mut b = Fake(Chassis::default());
    let t = SimTime::from_secs(1);

    // `set_event_cause` stamps the next trace entry, and only until cleared.
    b.set_event_cause(Some(EventId(7)));
    b.dispatch(t, Tick);
    b.set_event_cause(None);
    b.dispatch(t, Tick);
    let causes: Vec<_> = b.trace().entries().iter().map(|e| e.cause).collect();
    assert_eq!(causes, [Some(EventId(7)), None]);
    assert_eq!(b.take_trace().len(), 2);
    assert!(b.trace().is_empty());

    // Hooks drain once.
    assert_eq!(b.take_hooks().len(), 2);
    assert!(b.take_hooks().is_empty());

    // The outbox hands its events over in place and keeps its buffer.
    for _ in 0..100 {
        b.dispatch(t, Tick);
    }
    let capacity = b.chassis().out.capacity();
    assert_eq!(b.drain_outputs().count(), 102);
    assert!(b.chassis().out.is_empty());
    assert_eq!(b.chassis().out.capacity(), capacity);

    // Breakpoints arm per process and function, and clear per process.
    let func = InstrumentedFn::LocalMpiSetCommand;
    b.arm_breakpoint(ProcId(3), func);
    assert!(b.chassis().armed(ProcId(3), func) && !b.chassis().armed(ProcId(4), func));
    b.clear_breakpoints(ProcId(3));
    assert!(!b.chassis().armed(ProcId(3), func));

    // The traffic ledger is read through `traffic`; the lifecycle answers
    // come from the records, and a run without waves has none.
    b.chassis_mut().traffic.control_bytes = 9;
    assert_eq!(b.traffic().total(), 9);
    assert_eq!((b.committed_wave(), b.waves_committed()), (None, 0));
    assert_eq!(
        (b.epoch(), b.recoveries_started(), b.max_progress()),
        (0, 0, 0)
    );

    // The chassis reports what it holds: every record reached the ledger,
    // the ones the trace handed over included.
    let mut snap = MetricsSnapshot::new();
    b.chassis().contribute(&mut snap);
    assert_eq!(snap.counter("lifecycle.jobs_completed"), 102);
    assert_eq!(snap.counter("net.traffic.control_bytes"), 9);
}
