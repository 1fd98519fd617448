//! End-to-end tests of the MPICH-Vcl cluster: fault-free runs, checkpoint
//! waves, single-failure recovery, and the historical dispatcher bug.

use std::collections::HashMap;
use std::sync::Arc;

use failmpi_mpichv::{
    run_standalone, CheckpointStyle, Cluster, DispatcherMode, Ev, Hook, InstrumentedFn,
    VclConfig, VclEvent,
};
use failmpi_backend::{ProtocolBackend, Signal};
use failmpi_net::{HostId, ProcId};
use failmpi_sim::{Engine, Model, RunOutcome, Scheduler, SimDuration, SimTime};
use failmpi_mpi::Program;
use failmpi_workloads::{bt_programs, BtClass};

fn secs(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

/// A scripted injection harness: reacts to cluster hooks and to scheduled
/// probe points, standing in for the FAIL middleware in these tests.
struct TestWorld<F: FnMut(&mut Cluster, SimTime, Cue, &mut State)> {
    cluster: Cluster,
    script: F,
    state: State,
}

/// Bookkeeping shared with the script.
#[derive(Default)]
struct State {
    /// Live registered app process per machine (maintained from hooks).
    on_host: HashMap<HostId, ProcId>,
    /// Total OnLoad hooks seen.
    loads: u32,
    /// Scratch counter for scripts.
    counter: u32,
}

enum Cue {
    Hook(Hook),
    Probe(u32),
}

enum TEv {
    C(Ev),
    Probe(u32),
}

impl<F: FnMut(&mut Cluster, SimTime, Cue, &mut State)> Model for TestWorld<F> {
    type Event = TEv;

    fn handle(&mut self, now: SimTime, ev: TEv, sched: &mut Scheduler<TEv>) {
        match ev {
            TEv::C(ev) => self.cluster.dispatch(now, ev),
            TEv::Probe(k) => {
                (self.script)(&mut self.cluster, now, Cue::Probe(k), &mut self.state);
            }
        }
        loop {
            let hooks = self.cluster.take_hooks();
            if hooks.is_empty() {
                break;
            }
            for h in hooks {
                match &h {
                    Hook::OnLoad { host, proc } => {
                        self.state.on_host.insert(*host, *proc);
                        self.state.loads += 1;
                    }
                    Hook::OnExit { host, .. } | Hook::OnError { host, .. } => {
                        self.state.on_host.remove(host);
                    }
                    Hook::Breakpoint { .. } => {}
                }
                (self.script)(&mut self.cluster, now, Cue::Hook(h), &mut self.state);
            }
        }
        for (t, e) in self.cluster.take_outputs() {
            sched.at(t, TEv::C(e));
        }
    }

    fn finished(&self) -> bool {
        self.cluster.is_complete()
    }
}

/// Runs a cluster under a script; returns (outcome, end time, cluster).
fn run_scripted<F: FnMut(&mut Cluster, SimTime, Cue, &mut State)>(
    cfg: VclConfig,
    programs: Vec<Arc<Program>>,
    seed: u64,
    probes: &[(SimTime, u32)],
    deadline: SimTime,
    script: F,
) -> (RunOutcome, SimTime, Cluster) {
    let mut cluster = Cluster::new(cfg, programs, seed);
    let initial = cluster.take_outputs();
    let mut engine = Engine::new(TestWorld {
        cluster,
        script,
        state: State::default(),
    });
    for (t, e) in initial {
        engine.schedule(t, TEv::C(e));
    }
    for &(t, k) in probes {
        engine.schedule(t, TEv::Probe(k));
    }
    let outcome = engine.run(deadline);
    let end = engine.now();
    (outcome, end, engine.into_model().cluster)
}

fn small_cfg(n: u32, period_s: u64) -> VclConfig {
    VclConfig::small(n, SimDuration::from_secs(period_s))
}

#[test]
fn fault_free_bt_completes_at_predicted_time() {
    let programs = bt_programs(&BtClass::S, 4);
    let (outcome, end, cluster) =
        run_standalone(small_cfg(4, 30), programs, 1, secs(300));
    assert_eq!(outcome, RunOutcome::Finished, "run did not complete");
    assert!(cluster.is_complete());
    // Class S at 4 ranks: 20 iterations × (0.5/4 + 0.1/2) s = 3.5 s compute,
    // plus startup and communication — well under 10 s.
    let t = end.as_secs_f64();
    assert!((3.5..10.0).contains(&t), "end time {t}");
    // All ranks reported all 20 iterations.
    for r in 0..4u32 {
        let max_iter = cluster
            .trace()
            .filtered(|k| matches!(k, VclEvent::AppProgress { rank, .. } if rank.0 == r))
            .map(|e| match e.kind {
                VclEvent::AppProgress { iter, .. } => iter,
                _ => unreachable!(),
            })
            .max();
        assert_eq!(max_iter, Some(20), "rank {r}");
    }
}

#[test]
fn checkpoint_waves_commit_periodically() {
    let programs = bt_programs(&BtClass::S, 4);
    // 1 s period over a ~4 s run: expect ≥ 2 committed waves.
    let (outcome, _, cluster) = run_standalone(small_cfg(4, 1), programs, 2, secs(300));
    assert_eq!(outcome, RunOutcome::Finished);
    let committed = cluster.trace().count(|k| matches!(k, VclEvent::WaveCommitted { .. }));
    assert!(committed >= 2, "only {committed} waves committed");
    assert!(cluster.committed_wave().is_some());
    // Waves are committed in order 1, 2, …
    let waves: Vec<u32> = cluster
        .trace()
        .filtered(|k| matches!(k, VclEvent::WaveCommitted { .. }))
        .map(|e| match e.kind {
            VclEvent::WaveCommitted { wave } => wave,
            _ => unreachable!(),
        })
        .collect();
    let mut sorted = waves.clone();
    sorted.sort_unstable();
    assert_eq!(waves, sorted);
}

#[test]
fn single_failure_recovers_and_completes() {
    let programs = bt_programs(&BtClass::S, 4);
    let cfg = small_cfg(4, 1);
    // Kill the registered process on compute machine 0 at t = 2 s.
    let (outcome, end, cluster) = run_scripted(
        cfg,
        programs,
        3,
        &[(secs(2), 0)],
        secs(300),
        |cluster, now, sig, st| {
            if let Cue::Probe(0) = sig {
                let host = cluster.compute_hosts()[0];
                if let Some(&proc) = st.on_host.get(&host) {
                    cluster.fail(now, proc, Signal::Halt);
                    st.on_host.remove(&host);
                }
            }
        },
    );
    assert_eq!(outcome, RunOutcome::Finished, "no recovery");
    let trace = cluster.trace();
    assert_eq!(
        trace.count(|k| matches!(k, VclEvent::FailureDetected { .. })),
        1
    );
    assert_eq!(
        trace.count(|k| matches!(k, VclEvent::RecoveryStarted { .. })),
        1
    );
    // The rollback restarted every rank from the committed wave.
    let resumed_from: Vec<Option<u32>> = trace
        .filtered(|k| matches!(k, VclEvent::RankResumed { .. }))
        .map(|e| match e.kind {
            VclEvent::RankResumed { from_wave, .. } => from_wave,
            _ => unreachable!(),
        })
        .collect();
    // 4 initial fresh starts + 4 rollback resumes.
    assert_eq!(resumed_from.len(), 8);
    assert!(resumed_from[4..].iter().all(|w| w.is_some()));
    // The run took longer than fault-free but still finished promptly.
    let t = end.as_secs_f64();
    assert!((3.5..60.0).contains(&t), "end time {t}");
    assert_eq!(cluster.epoch(), 1);
}

#[test]
fn failure_before_first_wave_restarts_from_scratch() {
    let programs = bt_programs(&BtClass::S, 4);
    // 30 s period: the 2 s failure predates any committed wave.
    let (outcome, _, cluster) = run_scripted(
        small_cfg(4, 30),
        programs,
        4,
        &[(secs(2), 0)],
        secs(300),
        |cluster, now, sig, st| {
            if let Cue::Probe(0) = sig {
                let host = cluster.compute_hosts()[1];
                if let Some(&proc) = st.on_host.get(&host) {
                    cluster.fail(now, proc, Signal::Halt);
                }
            }
        },
    );
    assert_eq!(outcome, RunOutcome::Finished);
    let resumed_from: Vec<Option<u32>> = cluster
        .trace()
        .filtered(|k| matches!(k, VclEvent::RankResumed { .. }))
        .map(|e| match e.kind {
            VclEvent::RankResumed { from_wave, .. } => from_wave,
            _ => unreachable!(),
        })
        .collect();
    // Second batch of resumes is from scratch (no wave committed yet).
    assert!(resumed_from[4..].iter().all(|w| w.is_none()));
}

/// The Fig. 10 scenario as a test: after the first recovery begins, arm a
/// breakpoint on `localMPI_setCommand` of the first respawned daemon and
/// kill it at the breakpoint — i.e. right *after* it registered with the
/// dispatcher. Under the historical dispatcher this freezes the whole run;
/// under the fixed dispatcher it completes.
fn run_second_fault_at_set_command(mode: DispatcherMode, seed: u64) -> (RunOutcome, Cluster) {
    let programs = bt_programs(&BtClass::S, 4);
    let mut cfg = small_cfg(4, 1);
    cfg.dispatcher = mode;
    let (outcome, _, cluster) = run_scripted(
        cfg,
        programs,
        seed,
        &[(secs(2), 0)],
        secs(120),
        |cluster, now, sig, st| match sig {
            Cue::Probe(0) => {
                let host = cluster.compute_hosts()[0];
                if let Some(&proc) = st.on_host.get(&host) {
                    cluster.fail(now, proc, Signal::Halt);
                    st.counter = st.loads; // remember fleet size at fault 1
                }
            }
            // First respawn after fault 1: arm the breakpoint.
            Cue::Hook(Hook::OnLoad { proc, .. })
                if st.counter != 0 && st.loads == st.counter + 1 =>
            {
                cluster.arm_breakpoint(proc, InstrumentedFn::LocalMpiSetCommand);
            }
            Cue::Hook(Hook::Breakpoint { proc, .. }) => {
                // Held right after registration: inject the second fault.
                cluster.fail(now, proc, Signal::Halt);
            }
            _ => {}
        },
    );
    (outcome, cluster)
}

#[test]
fn historical_dispatcher_freezes_on_recovery_fault() {
    let (outcome, cluster) = run_second_fault_at_set_command(DispatcherMode::Historical, 5);
    assert_ne!(outcome, RunOutcome::Finished, "bug did not reproduce");
    assert!(!cluster.is_complete());
    // The signature of the freeze: a failure was detected during recovery,
    // yet no second recovery ever started and the run never resumed.
    assert!(cluster
        .trace()
        .filtered(|k| matches!(
            k,
            VclEvent::FailureDetected {
                during_recovery: true,
                ..
            }
        ))
        .next()
        .is_some());
    assert_eq!(
        cluster
            .trace()
            .count(|k| matches!(k, VclEvent::RecoveryStarted { .. })),
        1
    );
    assert!(cluster.recovery_active(), "dispatcher should wait forever");
}

#[test]
fn fixed_dispatcher_survives_recovery_fault() {
    let (outcome, cluster) = run_second_fault_at_set_command(DispatcherMode::Fixed, 5);
    assert_eq!(outcome, RunOutcome::Finished, "fix did not work");
    assert!(cluster.is_complete());
    assert!(cluster
        .trace()
        .filtered(|k| matches!(
            k,
            VclEvent::FailureDetected {
                during_recovery: true,
                ..
            }
        ))
        .next()
        .is_some());
}

#[test]
fn blocking_checkpoint_style_also_completes() {
    let programs = bt_programs(&BtClass::S, 4);
    let mut cfg = small_cfg(4, 1);
    cfg.checkpoint_style = CheckpointStyle::Blocking;
    let (outcome, end, cluster) = run_standalone(cfg, programs, 6, secs(300));
    assert_eq!(outcome, RunOutcome::Finished);
    assert!(cluster.committed_wave().is_some());
    let t = end.as_secs_f64();
    assert!(t < 30.0, "blocking run too slow: {t}");
}

#[test]
fn fault_free_times_scale_with_ranks() {
    let t4 = {
        let (o, end, _) = run_standalone(small_cfg(4, 30), bt_programs(&BtClass::S, 4), 7, secs(300));
        assert_eq!(o, RunOutcome::Finished);
        end.as_secs_f64()
    };
    let t9 = {
        let (o, end, _) = run_standalone(small_cfg(9, 30), bt_programs(&BtClass::S, 9), 7, secs(300));
        assert_eq!(o, RunOutcome::Finished);
        end.as_secs_f64()
    };
    assert!(t9 < t4, "more ranks should be faster: {t9} vs {t4}");
}

#[test]
fn stop_and_continue_preserve_the_run() {
    let programs = bt_programs(&BtClass::S, 4);
    // Suspend machine 2's daemon for 1 s mid-run, then resume.
    let (outcome, end, _cluster) = run_scripted(
        small_cfg(4, 30),
        programs,
        8,
        &[(secs(2), 0), (secs(3), 1)],
        secs(300),
        |cluster, now, sig, st| match sig {
            Cue::Probe(0) => {
                let host = cluster.compute_hosts()[2];
                if let Some(&proc) = st.on_host.get(&host) {
                    cluster.fail(now, proc, Signal::Stop);
                    st.counter = proc.0;
                }
            }
            Cue::Probe(1) => {
                cluster.fail(now, ProcId(st.counter), Signal::Continue);
            }
            _ => {}
        },
    );
    assert_eq!(outcome, RunOutcome::Finished, "suspension broke the run");
    // The 1 s stop delays completion by roughly that much (BT is a
    // lock-step workload, everyone waits for the suspended rank).
    let t = end.as_secs_f64();
    assert!((4.0..15.0).contains(&t), "end time {t}");
}

#[test]
fn repeated_failures_keep_recovering() {
    let programs = bt_programs(&BtClass::S, 4);
    let probes: Vec<(SimTime, u32)> = (0..3).map(|k| (secs(2 + 2 * k), 0)).collect();
    let (outcome, _, cluster) = run_scripted(
        small_cfg(4, 1),
        programs,
        9,
        &probes,
        secs(300),
        |cluster, now, sig, st| {
            if let Cue::Probe(0) = sig {
                // Kill whichever machine currently hosts a daemon.
                let host = cluster
                    .compute_hosts()
                    .iter()
                    .copied()
                    .find(|h| st.on_host.contains_key(h));
                if let Some(h) = host {
                    let proc = st.on_host[&h];
                    cluster.fail(now, proc, Signal::Halt);
                    st.on_host.remove(&h);
                }
            }
        },
    );
    assert_eq!(outcome, RunOutcome::Finished);
    assert_eq!(cluster.epoch(), 3);
    assert_eq!(
        cluster
            .trace()
            .count(|k| matches!(k, VclEvent::RecoveryStarted { .. })),
        3
    );
}

#[test]
fn deterministic_across_identical_seeds() {
    let run = |seed| {
        let (o, end, c) = run_standalone(small_cfg(4, 1), bt_programs(&BtClass::S, 4), seed, secs(300));
        let started = c
            .trace()
            .last_matching(|k| matches!(k, VclEvent::RunStarted { .. }))
            .map(|e| e.at);
        (o, end, started, c.trace().len())
    };
    let a = run(42);
    let b = run(42);
    assert_eq!(a, b);
    let c = run(43);
    // Different seed: same outcome, but boot jitter shifts the start (the
    // *end* may still coincide — late-run messages queue behind checkpoint
    // transfers whose timing is pinned to absolute scheduler ticks).
    assert_eq!(a.0, c.0);
    assert_ne!(a.2, c.2);
}

#[test]
fn retention_bounds_hold_during_long_runs_with_failures() {
    let programs = bt_programs(&BtClass::S, 4);
    let probes: Vec<(SimTime, u32)> = (0..2).map(|k| (secs(2 + 2 * k), 0)).collect();
    let (outcome, _, cluster) = run_scripted(
        small_cfg(4, 1),
        programs,
        21,
        &probes,
        secs(300),
        |cluster, now, sig, st| {
            if let Cue::Probe(0) = sig {
                let host = cluster
                    .compute_hosts()
                    .iter()
                    .copied()
                    .find(|h| st.on_host.contains_key(h));
                if let Some(h) = host {
                    cluster.fail(now, st.on_host[&h], Signal::Halt);
                    st.on_host.remove(&h);
                }
            }
        },
    );
    assert_eq!(outcome, RunOutcome::Finished);
    // Two-file alternation: never more than 2 images per rank on disk,
    // never more than 2 waves staged per rank on the server.
    for r in 0..4u32 {
        assert!(
            cluster.disk_image_count(failmpi_mpi::Rank(r)) <= 2,
            "rank {r} disk retention"
        );
    }
    assert!(cluster.server_staged_count(0) <= 8, "server retention");
    // The scheduler and server agree on the committed wave at the end.
    assert_eq!(cluster.committed_wave(), cluster.server_committed(0));
    // No wave is left collecting acks after a clean shutdown... unless the
    // final wave raced the finalization, in which case it can never finish;
    // either way the committed wave exists.
    assert!(cluster.committed_wave().is_some());
}

#[test]
fn keepalive_style_detection_delays_recovery() {
    // The paper: "Failure detection relies on the Operating System TCP
    // keep-alive parameters … These parameters can be changed to provide
    // more reactivity to hard system crashes. In this work, we emulated
    // failures by killing the task … so failure detection was immediate."
    // Model the counterfactual: a 2 s detection delay postpones the whole
    // recovery by that much.
    let run = |extra_ms: u64| {
        let mut cfg = small_cfg(4, 1);
        cfg.net.kill_detect_extra = SimDuration::from_millis(extra_ms);
        let programs = bt_programs(&BtClass::S, 4);
        let (outcome, end, cluster) = run_scripted(
            cfg,
            programs,
            31,
            &[(secs(2), 0)],
            secs(300),
            |cluster, now, sig, st| {
                if let Cue::Probe(0) = sig {
                    let host = cluster.compute_hosts()[0];
                    if let Some(&proc) = st.on_host.get(&host) {
                        cluster.fail(now, proc, Signal::Halt);
                    }
                }
            },
        );
        assert_eq!(outcome, RunOutcome::Finished);
        let detected = cluster
            .trace()
            .last_matching(|k| matches!(k, VclEvent::FailureDetected { .. }))
            .expect("failure detected")
            .at;
        (detected, end)
    };
    let (d0, e0) = run(0);
    let (d2, e2) = run(2000);
    // Detection happens ~2 s later, and the whole run pays for it.
    let delay = d2.saturating_since(d0).as_secs_f64();
    assert!((1.9..2.2).contains(&delay), "detection delay {delay}");
    assert!(e2 > e0, "delayed detection must cost time");
}

#[test]
fn rapid_double_kill_exercises_launch_retry() {
    // Kill a daemon, then kill its replacement before it can register:
    // the dispatcher's ssh notices the launch failure and retries (the
    // benign pre-registration path of the paper's Fig. 9 analysis).
    let programs = bt_programs(&BtClass::S, 4);
    let (outcome, _, cluster) = run_scripted(
        small_cfg(4, 1),
        programs,
        41,
        &[(secs(2), 0)],
        secs(300),
        |cluster, now, sig, st| match sig {
            Cue::Probe(0) => {
                let host = cluster.compute_hosts()[0];
                if let Some(&proc) = st.on_host.get(&host) {
                    cluster.fail(now, proc, Signal::Halt);
                    st.counter = st.loads;
                }
            }
            // Snipe the first respawn immediately — guaranteed to be
            // before its (≥ sub-millisecond) registration handshake.
            Cue::Hook(Hook::OnLoad { proc, .. })
                if st.counter != 0 && st.loads == st.counter + 1 =>
            {
                cluster.fail(now, proc, Signal::Halt);
            }
            _ => {}
        },
    );
    assert_eq!(outcome, RunOutcome::Finished, "retry path must recover");
    assert!(
        cluster
            .trace()
            .count(|k| matches!(k, VclEvent::LaunchRetried { .. }))
            >= 1,
        "expected an ssh launch retry"
    );
    // Only one real recovery: the second kill never registered.
    assert_eq!(
        cluster
            .trace()
            .count(|k| matches!(k, VclEvent::RecoveryStarted { .. })),
        1
    );
}

#[test]
fn suspension_during_restore_is_survived() {
    // SIGSTOP a daemon while the fleet is mid-recovery (mesh/restore
    // phase), release it later: the polling paths (BootConnect, DiskLoaded,
    // RestoreDone) must tolerate the pause.
    let programs = bt_programs(&BtClass::S, 4);
    let (outcome, _, _) = run_scripted(
        small_cfg(4, 1),
        programs,
        43,
        &[(secs(2), 0), (secs(3), 1)],
        secs(300),
        |cluster, now, sig, st| match sig {
            Cue::Probe(0) => {
                let host = cluster.compute_hosts()[0];
                if let Some(&proc) = st.on_host.get(&host) {
                    cluster.fail(now, proc, Signal::Halt);
                    st.counter = st.loads;
                }
            }
            // Freeze the first respawned daemon right at load…
            Cue::Hook(Hook::OnLoad { proc, .. })
                if st.counter != 0 && st.loads == st.counter + 1 =>
            {
                cluster.fail(now, proc, Signal::Stop);
                st.counter = 0;
                // remember which pid to resume
                st.loads += 1000;
                st.counter = proc.0;
            }
            // …and release it a second later.
            Cue::Probe(1) if st.loads >= 1000 => {
                cluster.fail(now, ProcId(st.counter), Signal::Continue);
            }
            _ => {}
        },
    );
    assert_eq!(outcome, RunOutcome::Finished, "suspension broke recovery");
}

fn v2_cfg(n: u32, period_s: u64) -> VclConfig {
    let mut cfg = small_cfg(n, period_s);
    cfg.protocol = failmpi_mpichv::VProtocol::V2;
    cfg
}

#[test]
fn v2_fault_free_run_completes() {
    let programs = bt_programs(&BtClass::S, 4);
    let (outcome, end, cluster) = run_standalone(v2_cfg(4, 1), programs, 51, secs(300));
    assert_eq!(outcome, RunOutcome::Finished);
    // Uncoordinated checkpoints happened (every rank, roughly per period)…
    let ckpts = cluster
        .trace()
        .count(|k| matches!(k, VclEvent::WaveStarted { .. }));
    assert_eq!(ckpts, 0, "V2 must not run coordinated waves");
    // …and the app finished everything.
    for r in 0..4u32 {
        assert_eq!(cluster.progress_of(failmpi_mpi::Rank(r)), 20);
    }
    let t = end.as_secs_f64();
    assert!((3.5..10.0).contains(&t), "end time {t}");
}

#[test]
fn v2_single_failure_restarts_only_the_victim() {
    let programs = bt_programs(&BtClass::S, 4);
    let (outcome, _, cluster) = run_scripted(
        v2_cfg(4, 1),
        programs,
        53,
        &[(secs(2), 0)],
        secs(300),
        |cluster, now, sig, st| {
            if let Cue::Probe(0) = sig {
                let host = cluster.compute_hosts()[0];
                if let Some(&proc) = st.on_host.get(&host) {
                    cluster.fail(now, proc, Signal::Halt);
                }
            }
        },
    );
    assert_eq!(outcome, RunOutcome::Finished, "V2 recovery failed");
    let trace = cluster.trace();
    // Initial fleet (4 spawns) + exactly ONE respawn: the victim.
    assert_eq!(
        trace.count(|k| matches!(k, VclEvent::DaemonSpawned { .. })),
        5,
        "V2 must not stop the world"
    );
    // Only the victim resumed from a checkpoint; the others never resumed
    // again after their initial fresh start.
    let resumes = trace.count(|k| matches!(k, VclEvent::RankResumed { .. }));
    assert_eq!(resumes, 5, "4 fresh starts + 1 solo restore");
    assert_eq!(
        trace.count(|k| matches!(k, VclEvent::RecoveryStarted { .. })),
        1
    );
}

#[test]
fn v2_survives_fault_frequencies_that_starve_vcl() {
    // An endless storm (one crash every 2 s) against a ~15 s-of-work job:
    // Vcl pays a stop-the-world rollback per fault and must also land a
    // full checkpoint wave between faults to ever bank progress; V2
    // restarts one rank and keeps everyone else's state warm. This is the
    // high-frequency regime of the [LBH+04] message-logging-vs-
    // coordinated-checkpointing comparison.
    let run = |cfg: VclConfig| {
        let programs = failmpi_workloads::aux::stencil_programs(
            4,
            50,
            64 << 10,
            SimDuration::from_millis(300),
            10 << 20,
        );
        let probes: Vec<(SimTime, u32)> = (0..60).map(|k| (secs(2 + 2 * k), 0)).collect();
        run_scripted(
            cfg,
            programs,
            55,
            &probes,
            secs(120),
            |cluster, now, sig, st| {
                if let Cue::Probe(0) = sig {
                    let host = cluster
                        .compute_hosts()
                        .iter()
                        .copied()
                        .find(|h| st.on_host.contains_key(h));
                    if let Some(h) = host {
                        cluster.fail(now, st.on_host[&h], Signal::Halt);
                        st.on_host.remove(&h);
                    }
                }
            },
        )
    };
    let progress_of = |cluster: &Cluster| {
        cluster
            .trace()
            .filtered(|k| matches!(k, VclEvent::AppProgress { .. }))
            .map(|e| match e.kind {
                VclEvent::AppProgress { iter, .. } => iter,
                _ => unreachable!(),
            })
            .max()
            .unwrap_or(0)
    };
    let (v2_outcome, v2_end, v2_cluster) = run(v2_cfg(4, 1));
    let (vcl_outcome, vcl_end, vcl_cluster) = run(small_cfg(4, 1));
    let (v2_prog, vcl_prog) = (progress_of(&v2_cluster), progress_of(&vcl_cluster));
    match (v2_outcome, vcl_outcome) {
        (RunOutcome::Finished, RunOutcome::Finished) => assert!(
            v2_end < vcl_end,
            "V2 ({v2_end}) must beat Vcl ({vcl_end}) under a fault storm"
        ),
        (RunOutcome::Finished, _) => {} // V2 done, Vcl starved: the claim
        _ => assert!(
            v2_prog > vcl_prog,
            "V2 progress {v2_prog} must exceed Vcl progress {vcl_prog}"
        ),
    }
}

#[test]
fn v2_restart_preserves_application_semantics() {
    // After a mid-run restart, all ranks still reach exactly the full
    // iteration count: replay + duplicate suppression lose and duplicate
    // nothing.
    let programs = bt_programs(&BtClass::S, 9);
    let (outcome, _, cluster) = run_scripted(
        v2_cfg(9, 1),
        programs,
        57,
        &[(secs(2), 0), (secs(4), 0)],
        secs(300),
        |cluster, now, sig, st| {
            if let Cue::Probe(0) = sig {
                let host = cluster
                    .compute_hosts()
                    .iter()
                    .copied()
                    .find(|h| st.on_host.contains_key(h));
                if let Some(h) = host {
                    cluster.fail(now, st.on_host[&h], Signal::Halt);
                    st.on_host.remove(&h);
                }
            }
        },
    );
    assert_eq!(outcome, RunOutcome::Finished);
    // Every rank reported every iteration (trace-wide max per rank).
    for r in 0..9u32 {
        let max_iter = cluster
            .trace()
            .filtered(|k| matches!(k, VclEvent::AppProgress { rank, .. } if rank.0 == r))
            .map(|e| match e.kind {
                VclEvent::AppProgress { iter, .. } => iter,
                _ => unreachable!(),
            })
            .max();
        assert_eq!(max_iter, Some(20), "rank {r} lost iterations");
    }
}

#[test]
fn traffic_accounting_separates_protocol_overhead() {
    // Fault-free Vcl: checkpoint traffic ≈ waves × ranks × image size;
    // Vdummy moves no checkpoint bytes at all; app bytes match.
    let programs = bt_programs(&BtClass::S, 4);
    let (_, _, vcl) = run_standalone(small_cfg(4, 1), programs.clone(), 61, secs(300));
    let t = vcl.traffic();
    assert!(t.app_bytes > 0);
    assert!(t.ckpt_bytes > 0, "Vcl must ship checkpoints");
    let waves = vcl
        .trace()
        .count(|k| matches!(k, VclEvent::WaveCommitted { .. })) as u64;
    // Each committed wave shipped ≥ 4 images of ~10 MB each.
    assert!(
        t.ckpt_bytes >= waves * 4 * 9_000_000,
        "ckpt bytes {} too small for {waves} waves",
        t.ckpt_bytes
    );

    let mut dummy_cfg = small_cfg(4, 1);
    dummy_cfg.protocol = failmpi_mpichv::VProtocol::Vdummy;
    let (_, _, dummy) = run_standalone(dummy_cfg, programs, 61, secs(300));
    let td = dummy.traffic();
    assert_eq!(td.ckpt_bytes, 0, "Vdummy must not checkpoint");
    assert_eq!(td.app_bytes, t.app_bytes, "same app, same app bytes");
    assert!(td.total() < t.total());
}
