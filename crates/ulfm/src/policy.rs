//! Shrink-and-continue: the ULFM recovery policy over the shared
//! [`LightRuntime`] skeleton.

use failmpi_backend::light::{LightEv, LightRuntime, PolicyNames, RecoveryPolicy, UnitChange};
use failmpi_backend::{BackendConfig, ProtocolBackend, VclEvent};
use failmpi_mpi::Rank;
use failmpi_obs::{Counter, MetricsSnapshot};
use failmpi_sim::{Fingerprint, FingerprintEvent, Label, PackLabel, SimTime};

/// Control bytes per participant per agreement round.
const AGREE_CONTROL_BYTES: u64 = 512;

/// The `agree`/`shrink` exchange of agreement round `round` completed
/// (stale rounds — superseded by a further death — are ignored).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShrinkDone {
    /// Agreement round this completion belongs to.
    pub round: u32,
}

impl FingerprintEvent for ShrinkDone {
    fn fold(&self, fp: &mut Fingerprint) {
        fp.write_u32(self.round);
    }
}

impl PackLabel for ShrinkDone {
    fn pack(&self) -> Label {
        Label::new(32, [self.round, 0, 0])
    }

    fn render(label: Label) -> String {
        format!("shrink round {} agreed", label.args[0])
    }
}

/// ULFM's recovery state: the errhandler's `agree` → `shrink` →
/// redistribute sequence over the live membership.
///
/// `LightRuntime<Shrink>` deploys `n_ranks` MPI processes on the first
/// `n_ranks` compute hosts: no dispatcher, no spares consumed.
#[derive(Default)]
pub struct Shrink {
    /// An agreement is pending or in flight.
    pub recovery_active: bool,
    /// Agreement blocked on a suspended/held live participant.
    pub agree_deferred: bool,
    /// Current agreement round; a further death supersedes the round.
    agree_round: u32,
    /// Detected-dead ranks awaiting the next completed shrink.
    pending_victims: Vec<u32>,
    /// Ranks shrunk out of the communicator by a completed agreement.
    shrunk: Vec<bool>,
    shrinks: Counter,
    ranks_shrunk: Counter,
    agree_rounds: Counter,
    ops_redistributed: Counter,
}

/// Live communicator members (shrunk-out ranks are dead by construction).
fn participants(rt: &LightRuntime<Shrink>) -> Vec<usize> {
    (0..rt.units.len()).filter(|&i| rt.units[i].alive).collect()
}

/// Schedules the `agree`/`shrink` completion for the current round — a
/// recursive-doubling exchange over the live membership. Defers if a live
/// participant cannot respond (SIGSTOP'd or breakpoint-held): agreement
/// is collective, and a stopped process is alive.
fn schedule_shrink(rt: &mut LightRuntime<Shrink>, now: SimTime) {
    let parts = participants(rt);
    if parts.is_empty() {
        // Nobody left to agree: the job is permanently silent.
        return;
    }
    if parts
        .iter()
        .any(|&i| rt.units[i].suspended || rt.units[i].held)
    {
        rt.policy.agree_deferred = true;
        return;
    }
    rt.policy.agree_deferred = false;
    let n = parts.len() as u64;
    let rounds = (64 - (n - 1).leading_zeros() as u64).max(1); // ceil(log2 n), >= 1
    rt.policy.agree_rounds.add(rounds);
    rt.chassis.traffic.control_bytes += AGREE_CONTROL_BYTES * n * rounds;
    failmpi_obs::prof::copy("ulfm.agree", AGREE_CONTROL_BYTES * n * rounds);
    let round = rt.policy.agree_round;
    rt.emit(
        now + rt.cfg().round_delay * rounds,
        LightEv::RecoveryDone(ShrinkDone { round }),
    );
}

impl RecoveryPolicy for Shrink {
    type Done = ShrinkDone;

    const NAMES: PolicyNames = PolicyNames {
        event_kinds: [
            "ulfm.boot",
            "ulfm.init",
            "ulfm.op_done",
            "ulfm.detect",
            "ulfm.shrink_done",
        ],
        tracks: ["ulfm-runtime", "ulfm-ranks"],
        control_hop: "ulfm.control",
        op_hop: "ulfm.op",
        unit_noun: "rank",
    };
    const JITTER_STREAM: u64 = 0x9e37_79b9_7f4a_7c15;

    fn deploy(cfg: &BackendConfig) -> (Shrink, u32) {
        let shrunk = vec![false; cfg.n_ranks as usize];
        (
            Shrink {
                shrunk,
                ..Shrink::default()
            },
            cfg.n_ranks,
        )
    }

    fn on_detect(rt: &mut LightRuntime<Shrink>, now: SimTime, victim: u32) {
        let v = victim as usize;
        if rt.units[v].alive || rt.policy.shrunk[v] || rt.policy.pending_victims.contains(&victim) {
            return;
        }
        rt.record(
            now,
            VclEvent::FailureDetected {
                rank: Rank(victim),
                epoch: rt.epoch(),
                during_recovery: rt.policy.recovery_active,
            },
        );
        rt.policy.pending_victims.push(victim);
        if !rt.policy.recovery_active {
            rt.policy.recovery_active = true;
            rt.begin_recovery(now);
        }
        // A further death supersedes any in-flight agreement round.
        rt.policy.agree_round += 1;
        schedule_shrink(rt, now);
    }

    fn on_recovery_done(rt: &mut LightRuntime<Shrink>, now: SimTime, done: ShrinkDone) {
        if done.round != rt.policy.agree_round || !rt.policy.recovery_active {
            return;
        }
        let survivors = participants(rt);
        // Redistribute the victims' remaining work round-robin over the
        // survivors (the moldable-application assumption of shrink-based
        // recovery; see DESIGN.md).
        let mut left: u64 = 0;
        for victim in std::mem::take(&mut rt.policy.pending_victims) {
            let v = victim as usize;
            rt.policy.shrunk[v] = true;
            rt.policy.ranks_shrunk.inc();
            left += rt.streams[v]
                .ops_total
                .saturating_sub(rt.streams[v].ops_done) as u64;
        }
        rt.policy.ops_redistributed.add(left);
        if !survivors.is_empty() {
            for k in 0..left as usize {
                let st = &mut rt.streams[survivors[k % survivors.len()]];
                st.ops_total += 1;
                st.finished = false;
            }
        }
        rt.policy.recovery_active = false;
        rt.policy.shrinks.inc();
        if !rt.started() {
            rt.maybe_start(now);
        } else {
            for i in survivors {
                rt.record(
                    now,
                    VclEvent::RankResumed {
                        rank: Rank(i as u32),
                        from_wave: None,
                    },
                );
                rt.resume_stream(now, i);
            }
            rt.check_complete(now);
        }
    }

    fn start_blocked(rt: &LightRuntime<Shrink>) -> bool {
        rt.policy.recovery_active || !rt.policy.pending_victims.is_empty()
    }

    /// Complete ⇔ every rank either finalized or was shrunk away, and at
    /// least one finalized (an all-shrunk fleet froze, it did not finish).
    fn job_done(rt: &LightRuntime<Shrink>) -> bool {
        let mut ranks = rt.streams.iter().zip(&rt.policy.shrunk);
        ranks.all(|(st, &shrunk)| st.finished || shrunk) && rt.streams.iter().any(|st| st.finished)
    }

    /// Nothing stands in for a dead rank: its stream dies with it.
    fn stream_lost(rt: &LightRuntime<Shrink>, s: usize) -> bool {
        !rt.units[s].alive
    }

    /// The next op needs the communicator; blocked until the shrink
    /// completes.
    fn stream_blocked(rt: &LightRuntime<Shrink>, _s: usize) -> bool {
        rt.policy.recovery_active
    }

    fn op_extra_traffic(_rt: &mut LightRuntime<Shrink>, _s: usize) {}

    /// A dead participant no longer blocks a deferred agreement, and a
    /// resumed one can finally answer it.
    fn unit_changed(rt: &mut LightRuntime<Shrink>, now: SimTime, _unit: usize, change: UnitChange) {
        if change != UnitChange::Registered && rt.policy.agree_deferred && rt.policy.recovery_active
        {
            schedule_shrink(rt, now);
        }
    }

    fn contribute_metrics(rt: &LightRuntime<Shrink>, snap: &mut MetricsSnapshot) {
        let p = &rt.policy;
        snap.set_counter("ulfm.shrinks", p.shrinks.get());
        snap.set_counter("ulfm.ranks_shrunk", p.ranks_shrunk.get());
        snap.set_counter("ulfm.agree_rounds", p.agree_rounds.get());
        snap.set_counter("ulfm.ops_redistributed", p.ops_redistributed.get());
    }
}
