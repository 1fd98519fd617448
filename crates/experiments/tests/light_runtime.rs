//! The light-runtime skeleton under both recovery policies, driven
//! directly (no harness, no FAIL side): one `drive` loop, one
//! control-surface scenario table run against ULFM's `Shrink` and
//! replication's `Failover`, then each policy's own recovery behaviour.

use failmpi_backend::light::{LightEv, LightRuntime, RecoveryPolicy};
use failmpi_backend::{BackendConfig, Hook, InstrumentedFn, ProtocolBackend, Signal, VclEvent};
use failmpi_net::ProcId;
use failmpi_replica::Failover;
use failmpi_sim::SimTime;
use failmpi_ulfm::Shrink;

/// Minimal deterministic driver: a runtime plus the events it scheduled
/// but has not been handed yet.
struct Driver<P: RecoveryPolicy> {
    c: LightRuntime<P>,
    queue: Vec<(SimTime, LightEv<P::Done>)>,
    hooks: Vec<Hook>,
}

impl<P: RecoveryPolicy> Driver<P> {
    fn new(c: LightRuntime<P>) -> Driver<P> {
        Driver {
            c,
            queue: Vec::new(),
            hooks: Vec::new(),
        }
    }

    /// Pops the earliest pending event (stable on ties by insertion
    /// order) and dispatches it, until nothing is due by `until`. Returns
    /// the instant of the last dispatch.
    fn drive(&mut self, until: SimTime) -> SimTime {
        let mut now = SimTime::ZERO;
        loop {
            self.queue.extend(self.c.drain_outputs());
            self.hooks.extend(self.c.take_hooks());
            let best = self
                .queue
                .iter()
                .enumerate()
                .filter(|(_, (t, _))| *t <= until)
                .min_by_key(|(i, (t, _))| (*t, *i))
                .map(|(i, _)| i);
            let Some(best) = best else {
                return now;
            };
            let (t, ev) = self.queue.remove(best);
            now = t.max(now);
            self.c.dispatch(now, ev);
        }
    }

    fn trace_has(&self, pred: impl Fn(&VclEvent) -> bool) -> bool {
        self.c.trace().entries().iter().any(|e| pred(&e.kind))
    }
}

fn secs(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

const END: SimTime = SimTime::from_secs(600);
const BP: InstrumentedFn = InstrumentedFn::LocalMpiSetCommand;

// ---------------------------------------------------------------------
// The control surface: skeleton behaviour every policy inherits.
// `BackendConfig::small` boots unit `u` at 400 + 120·u ms and inits it
// 250 ms later; detection takes 600 ms, one op ~900 ms.
// ---------------------------------------------------------------------

fn stop_before_init_defers_registration<P: RecoveryPolicy>(mut d: Driver<P>) {
    d.drive(SimTime::from_millis(500)); // unit 0 booted, init pending
    d.c.fail(SimTime::from_millis(500), ProcId(0), Signal::Stop);
    d.drive(secs(10));
    assert!(!d.c.units[0].registered && d.c.units[0].resume_init);
    assert!(!d.c.started(), "an unregistered live unit blocks the start");
    d.c.fail(secs(10), ProcId(0), Signal::Continue);
    assert!(d.c.units[0].registered && !d.c.units[0].resume_init);
    assert!(d.c.started());
    d.drive(END);
    assert!(d.c.is_complete());
}

fn breakpoint_holds_the_start_barrier<P: RecoveryPolicy>(mut d: Driver<P>) {
    d.c.arm_breakpoint(ProcId(0), BP);
    d.drive(secs(10));
    assert!(d.c.units[0].held);
    assert!(d.hooks.iter().any(|h| matches!(
        h,
        Hook::Breakpoint {
            proc: ProcId(0),
            func: BP,
            ..
        }
    )));
    assert!(!d.c.started(), "held unit blocks the start barrier");
    d.c.fail(secs(10), ProcId(0), Signal::Continue);
    assert!(!d.c.units[0].held && d.c.started());
    d.drive(END);
    assert!(d.c.is_complete());
}

fn halt_clears_control_state_and_schedules_one_detect<P: RecoveryPolicy>(mut d: Driver<P>) {
    d.c.arm_breakpoint(ProcId(0), BP);
    d.drive(SimTime::from_millis(600)); // unit 1 booted, init pending
    d.c.fail(SimTime::from_millis(600), ProcId(1), Signal::Stop);
    d.drive(secs(5));
    assert!(d.c.units[0].held);
    assert!(d.c.units[1].suspended && d.c.units[1].resume_init);
    for u in [0u32, 1] {
        d.c.fail(secs(5), ProcId(u), Signal::Halt);
        let st = &d.c.units[u as usize];
        assert!(!st.alive && !st.suspended && !st.held && !st.resume_init);
        let due = secs(5) + d.c.cfg().detect_delay;
        assert!(matches!(
            d.c.drain_outputs().as_slice(),
            [(t, LightEv::Detect { unit })] if *t == due && *unit == u
        ));
        // A corpse cannot be halted, stopped or continued again.
        d.c.fail(secs(5), ProcId(u), Signal::Halt);
        d.c.fail(secs(5), ProcId(u), Signal::Stop);
        d.c.fail(secs(5), ProcId(u), Signal::Continue);
        assert!(d.c.drain_outputs().len() == 0 && !d.c.units[u as usize].suspended);
    }
}

fn stale_generation_op_done_is_ignored<P: RecoveryPolicy>(mut d: Driver<P>) {
    d.drive(secs(3));
    assert!(d.c.started());
    let before = d.c.streams[0].clone();
    assert!(before.op_in_flight);
    d.c.dispatch(
        secs(3),
        LightEv::OpDone {
            rank: 0,
            gen: before.gen + 1,
        },
    );
    let after = &d.c.streams[0];
    assert_eq!(
        (after.ops_done, after.op_in_flight, after.gen),
        (before.ops_done, true, before.gen)
    );
    assert_eq!(d.c.drain_outputs().len(), 0);
}

fn stopped_op_completes_after_continue_with_a_fresh_generation<P: RecoveryPolicy>(
    mut d: Driver<P>,
) {
    d.drive(secs(3));
    d.c.fail(secs(3), ProcId(0), Signal::Stop);
    d.drive(secs(10));
    let frozen = d.c.streams[0].clone();
    assert!(!frozen.op_in_flight && frozen.resume_op && !frozen.finished);
    d.c.fail(secs(10), ProcId(0), Signal::Continue);
    let st = &d.c.streams[0];
    assert!(st.op_in_flight && !st.resume_op);
    assert_eq!((st.gen, st.ops_done), (frozen.gen + 1, frozen.ops_done));
    d.drive(END);
    assert!(d.c.is_complete());
}

fn same_seed_double_run_is_equal<P: RecoveryPolicy>(d: Driver<P>) {
    let run = |mut d: Driver<P>| {
        d.drive(secs(3));
        d.c.fail(secs(3), ProcId(1), Signal::Halt);
        let end = d.drive(END);
        (
            end,
            d.c.max_progress(),
            d.c.epoch(),
            d.c.trace().entries().to_vec(),
        )
    };
    // Rebuild an identical runtime from the first one's inputs.
    let ops = d.c.streams.iter().map(|s| s.ops_total).collect();
    let twin = Driver::new(LightRuntime::<P>::new(d.c.cfg().clone(), ops, TABLE_SEED));
    assert_eq!(run(d), run(twin));
}

const TABLE_SEED: u64 = 7;

/// One control-surface scenario: a name and a body over a fresh runtime.
type Scenario<P> = (&'static str, fn(Driver<P>));

/// Runs every control-surface scenario on a fresh 3-rank, 5-host runtime
/// (under replication: ranks 0 and 1 protected, rank 2 not).
fn control_surface<P: RecoveryPolicy>() {
    let table: [Scenario<P>; 6] = [
        (
            "stop before init defers registration",
            stop_before_init_defers_registration,
        ),
        (
            "breakpoint holds the start barrier",
            breakpoint_holds_the_start_barrier,
        ),
        (
            "halt clears control state, one detect",
            halt_clears_control_state_and_schedules_one_detect,
        ),
        (
            "stale-generation OpDone ignored",
            stale_generation_op_done_is_ignored,
        ),
        (
            "stopped op resumes with fresh generation",
            stopped_op_completes_after_continue_with_a_fresh_generation,
        ),
        ("same-seed double run equal", same_seed_double_run_is_equal),
    ];
    for (name, scenario) in table {
        println!("scenario: {name}");
        let c = LightRuntime::<P>::new(BackendConfig::small(3, 5), vec![4; 3], TABLE_SEED);
        scenario(Driver::new(c));
    }
}

#[test]
fn control_surface_under_shrink() {
    control_surface::<failmpi_ulfm::Shrink>();
}

#[test]
fn control_surface_under_failover() {
    control_surface::<failmpi_replica::Failover>();
}

// ---------------------------------------------------------------------
// ULFM: shrink-and-continue.
// ---------------------------------------------------------------------

fn ulfm(n: u32, ops: u32) -> Driver<failmpi_ulfm::Shrink> {
    Driver::new(LightRuntime::<Shrink>::new(
        BackendConfig::small(n, n as usize + 2),
        vec![ops; n as usize],
        7,
    ))
}

#[test]
fn ulfm_fault_free_run_completes() {
    let mut d = ulfm(3, 4);
    d.drive(END);
    assert!(d.c.is_complete());
    assert_eq!(d.c.max_progress(), 4);
    assert_eq!(d.c.epoch(), 0);
    assert!(d.trace_has(|e| matches!(e, VclEvent::JobComplete)));
}

#[test]
fn ulfm_single_fault_shrinks_and_survives() {
    let mut d = ulfm(3, 4);
    // Boot everyone, then kill rank 1 mid-run.
    d.drive(secs(3));
    d.c.fail(secs(3), ProcId(1), Signal::Halt);
    d.drive(END);
    assert!(d.c.is_complete(), "survivors absorb the victim's work");
    assert_eq!(d.c.recoveries_started(), 1);
    assert_eq!(d.c.epoch(), 1);
    // The victim's remaining ops were redistributed.
    assert!(d.c.max_progress() > 4);
    assert!(d.trace_has(|e| matches!(e, VclEvent::RankResumed { .. })));
}

#[test]
fn ulfm_killing_everyone_freezes() {
    let mut d = ulfm(2, 4);
    d.drive(secs(3));
    d.c.fail(secs(3), ProcId(0), Signal::Halt);
    d.c.fail(secs(3), ProcId(1), Signal::Halt);
    d.drive(END);
    assert!(!d.c.is_complete(), "no survivors: permanently silent");
    assert!(d.queue.is_empty(), "nothing left scheduled");
}

#[test]
fn ulfm_suspended_survivor_blocks_agreement_until_resume() {
    let mut d = ulfm(3, 4);
    d.drive(secs(3));
    d.c.fail(secs(3), ProcId(2), Signal::Stop);
    d.c.fail(secs(3), ProcId(1), Signal::Halt);
    // Detection fires but the shrink cannot be agreed.
    d.drive(secs(30));
    assert!(d.c.policy.recovery_active);
    assert!(d.c.policy.agree_deferred);
    d.c.fail(secs(30), ProcId(2), Signal::Continue);
    d.drive(END);
    assert!(d.c.is_complete());
}

#[test]
fn ulfm_double_run_is_deterministic() {
    let run = || {
        let mut d = ulfm(4, 5);
        d.drive(secs(4));
        d.c.fail(secs(4), ProcId(2), Signal::Halt);
        let end = d.drive(END);
        (end, d.c.max_progress(), d.c.epoch(), d.c.trace().len())
    };
    assert_eq!(run(), run());
}

#[test]
fn ulfm_breakpoint_holds_init_until_continue() {
    let mut d = ulfm(2, 2);
    d.c.arm_breakpoint(ProcId(0), BP);
    d.drive(secs(10));
    assert!(!d.c.started(), "held rank blocks the start barrier");
    d.c.fail(secs(10), ProcId(0), Signal::Continue);
    d.drive(END);
    assert!(d.c.is_complete());
}

// ---------------------------------------------------------------------
// Replication: promote-on-failure.
// ---------------------------------------------------------------------

/// 3 ranks on 5 hosts → replicas shadow ranks 0 and 1; rank 2 is
/// unprotected.
fn partial() -> Driver<failmpi_replica::Failover> {
    Driver::new(LightRuntime::<Failover>::new(
        BackendConfig::small(3, 5),
        vec![4; 3],
        11,
    ))
}

#[test]
fn replica_fault_free_run_completes_with_sync_traffic() {
    let mut d = partial();
    d.drive(END);
    assert!(d.c.is_complete());
    assert_eq!(d.c.epoch(), 0);
    assert!(d.c.traffic().ckpt_bytes > 0, "protected ranks shadow state");
}

#[test]
fn replica_protected_primary_death_is_masked_by_promotion() {
    let mut d = partial();
    d.drive(secs(3));
    d.c.fail(secs(3), ProcId(0), Signal::Halt);
    d.drive(END);
    assert!(d.c.is_complete(), "the replica takes over mid-stream");
    assert_eq!(d.c.recoveries_started(), 1);
    assert_eq!(d.c.epoch(), 1);
    assert_eq!(
        d.c.streams[0].exec_unit, 3,
        "rank 0 now runs on its replica"
    );
}

#[test]
fn replica_unprotected_primary_death_freezes() {
    let mut d = partial();
    d.drive(secs(3));
    d.c.fail(secs(3), ProcId(2), Signal::Halt);
    d.drive(END);
    assert!(
        !d.c.is_complete(),
        "rank 2 has no replica: permanently lost"
    );
    assert_eq!(d.c.policy.ranks_lost.get(), 1);
}

#[test]
fn replica_primary_plus_replica_pair_death_freezes() {
    let mut d = partial();
    d.drive(secs(3));
    d.c.fail(secs(3), ProcId(0), Signal::Halt);
    d.c.fail(secs(3), ProcId(3), Signal::Halt);
    d.drive(END);
    assert!(
        !d.c.is_complete(),
        "replication masks one fault, not the pair"
    );
}

#[test]
fn replica_death_alone_is_harmless_but_unprotects() {
    let mut d = partial();
    d.drive(secs(3));
    d.c.fail(secs(3), ProcId(4), Signal::Halt);
    d.drive(END);
    assert!(d.c.is_complete());
    assert_eq!(d.c.recoveries_started(), 0);
    // ... but a later primary death can no longer be masked.
    let mut d = partial();
    d.drive(secs(3));
    d.c.fail(secs(3), ProcId(4), Signal::Halt);
    d.drive(secs(4));
    d.c.fail(secs(4), ProcId(1), Signal::Halt);
    d.drive(END);
    assert!(!d.c.is_complete());
}

#[test]
fn replica_double_run_is_deterministic() {
    let run = || {
        let mut d = partial();
        d.drive(secs(3));
        d.c.fail(secs(3), ProcId(0), Signal::Halt);
        let end = d.drive(END);
        (end, d.c.max_progress(), d.c.epoch(), d.c.trace().len())
    };
    assert_eq!(run(), run());
}
