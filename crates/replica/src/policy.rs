//! Replication failover: primaries compute, replicas shadow their state,
//! a primary's death promotes its replica — the recovery policy over the
//! shared [`LightRuntime`] skeleton.

use failmpi_backend::light::{LightEv, LightRuntime, PolicyNames, RecoveryPolicy, UnitChange};
use failmpi_backend::{BackendConfig, ProtocolBackend, VclEvent};
use failmpi_mpi::Rank;
use failmpi_obs::{Counter, MetricsSnapshot};
use failmpi_sim::{Fingerprint, FingerprintEvent, Label, PackLabel, SimTime};

/// State-shadowing bytes per op while a rank is protected.
const OP_SYNC_BYTES: u64 = 2048;
/// Control bytes per promotion handshake.
const PROMOTE_CONTROL_BYTES: u64 = 1024;

/// The promotion handshake for rank `rank` completed (stale generations
/// — a superseding death — are ignored).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PromoteDone {
    /// The rank being failed over.
    pub rank: u32,
    /// Promotion generation.
    pub gen: u32,
}

impl FingerprintEvent for PromoteDone {
    fn fold(&self, fp: &mut Fingerprint) {
        fp.write_u32(self.rank);
        fp.write_u32(self.gen);
    }
}

impl PackLabel for PromoteDone {
    fn pack(&self) -> Label {
        Label::new(32, [self.rank, self.gen, 0])
    }

    fn render(label: Label) -> String {
        let [rank, gen, _] = label.args;
        format!("promotion of rank {rank} complete (gen {gen})")
    }
}

/// Per-rank protection state (the rank's executor is the skeleton's
/// `streams[r].exec_unit`: its primary, or its promoted replica).
#[derive(Clone, Debug)]
struct Protection {
    /// Whether the rank's replica was consumed by a promotion (or never
    /// existed).
    replica_spent: bool,
    /// Permanently lost: executor dead with no usable replica.
    lost: bool,
    /// A promotion handshake is in flight.
    promoting: bool,
    /// Promotion owed once the replica finishes registering.
    promote_wait: bool,
    /// Promotion generation (stale `PromoteDone`s are ignored).
    promote_gen: u32,
}

/// Replication's recovery state: which ranks still have a stand-in.
///
/// `LightRuntime<Failover>` deploys `n_ranks` primaries on hosts
/// `0..n_ranks` (units `0..n_ranks`) and replicas for ranks
/// `0..n_replicas` on the spare hosts (unit `n_ranks + j` shadows rank
/// `j`), where `n_replicas = min(n_ranks, n_hosts − n_ranks)` — partial
/// replication exactly like PartRePer-MPI when spares are scarce.
#[derive(Default)]
pub struct Failover {
    ranks: Vec<Protection>,
    n_replicas: u32,
    /// Ranks whose executor died with no usable replica.
    pub ranks_lost: Counter,
    replicas_lost: Counter,
}

/// The replica unit shadowing `rank`, if it exists at all.
fn replica_unit(rt: &LightRuntime<Failover>, rank: u32) -> Option<u32> {
    (rank < rt.policy.n_replicas).then_some(rt.streams.len() as u32 + rank)
}

/// Whether `rank` is currently protected: an unspent, live, registered
/// replica stands by.
fn rank_protected(rt: &LightRuntime<Failover>, rank: u32) -> bool {
    !rt.policy.ranks[rank as usize].replica_spent
        && replica_unit(rt, rank)
            .is_some_and(|ru| rt.units[ru as usize].alive && rt.units[ru as usize].registered)
}

fn begin_promotion(rt: &mut LightRuntime<Failover>, now: SimTime, rank: u32) {
    let r = rank as usize;
    let Some(ru) = replica_unit(rt, rank) else {
        return lose_rank(rt, rank);
    };
    if rt.policy.ranks[r].replica_spent || !rt.units[ru as usize].alive {
        return lose_rank(rt, rank);
    }
    if !rt.units[ru as usize].registered {
        // The replica is still booting; promote once it registers.
        rt.policy.ranks[r].promote_wait = true;
        return;
    }
    rt.policy.ranks[r].promoting = true;
    rt.policy.ranks[r].promote_gen += 1;
    rt.chassis.traffic.control_bytes += PROMOTE_CONTROL_BYTES;
    failmpi_obs::prof::copy("replica.promote", PROMOTE_CONTROL_BYTES);
    rt.begin_recovery(now);
    let gen = rt.policy.ranks[r].promote_gen;
    rt.emit(
        now + rt.cfg().round_delay * 2,
        LightEv::RecoveryDone(PromoteDone { rank, gen }),
    );
}

fn lose_rank(rt: &mut LightRuntime<Failover>, rank: u32) {
    let st = &mut rt.policy.ranks[rank as usize];
    if !st.lost {
        st.lost = true;
        st.promoting = false;
        st.promote_wait = false;
        rt.policy.ranks_lost.inc();
    }
}

impl RecoveryPolicy for Failover {
    type Done = PromoteDone;

    const NAMES: PolicyNames = PolicyNames {
        event_kinds: [
            "repl.boot",
            "repl.init",
            "repl.op_done",
            "repl.detect",
            "repl.promote_done",
        ],
        tracks: ["replica-runtime", "replica-ranks"],
        control_hop: "replica.control",
        op_hop: "replica.op",
        unit_noun: "unit",
    };
    const JITTER_STREAM: u64 = 0xd1b5_4a32_d192_ed03;

    /// Primaries first, then replicas.
    fn deploy(cfg: &BackendConfig) -> (Failover, u32) {
        let n_ranks = cfg.n_ranks;
        let n_replicas = (cfg.n_compute_hosts as u32)
            .saturating_sub(n_ranks)
            .min(n_ranks);
        let ranks = (0..n_ranks)
            .map(|r| Protection {
                replica_spent: r >= n_replicas,
                lost: false,
                promoting: false,
                promote_wait: false,
                promote_gen: 0,
            })
            .collect();
        let policy = Failover {
            ranks,
            n_replicas,
            ..Failover::default()
        };
        (policy, n_ranks + n_replicas)
    }

    fn on_detect(rt: &mut LightRuntime<Failover>, now: SimTime, unit: u32) {
        if rt.units[unit as usize].alive {
            return;
        }
        let n = rt.streams.len() as u32;
        let r = (unit % n) as usize;
        let replica_died = unit >= n;
        // A dead primary whose rank was already failed over to its
        // replica is just a corpse.
        if !replica_died
            && (rt.streams[r].exec_unit != unit
                || rt.policy.ranks[r].lost
                || rt.streams[r].finished)
        {
            return;
        }
        if replica_died {
            rt.policy.replicas_lost.inc();
        }
        rt.record(
            now,
            VclEvent::FailureDetected {
                rank: Rank(r as u32),
                epoch: rt.epoch(),
                during_recovery: rt.policy.ranks[r].promoting,
            },
        );
        if !replica_died {
            begin_promotion(rt, now, unit);
        } else if rt.streams[r].exec_unit == unit
            || rt.policy.ranks[r].promoting
            || rt.policy.ranks[r].promote_wait
        {
            // The dead replica had been promoted to executor, or died
            // mid-promotion: the rank has no further stand-in.
            lose_rank(rt, r as u32);
        } else {
            // Shadow lost; the rank merely becomes unprotected.
            rt.policy.ranks[r].replica_spent = true;
        }
        rt.maybe_start(now);
    }

    fn on_recovery_done(rt: &mut LightRuntime<Failover>, now: SimTime, done: PromoteDone) {
        let PromoteDone { rank, gen } = done;
        let r = rank as usize;
        let st = &rt.policy.ranks[r];
        if st.lost || !st.promoting || st.promote_gen != gen {
            return;
        }
        let ru = replica_unit(rt, rank).expect("promotion without replica");
        if !rt.units[ru as usize].alive {
            return lose_rank(rt, rank);
        }
        rt.policy.ranks[r].promoting = false;
        rt.policy.ranks[r].replica_spent = true;
        rt.streams[r].exec_unit = ru;
        // The shadow had the primary's state: computation resumes at the
        // current op, no rollback (`from_wave` meaningless here).
        rt.record(
            now,
            VclEvent::RankResumed {
                rank: Rank(rank),
                from_wave: None,
            },
        );
        if rt.started() {
            rt.resume_stream(now, r);
        }
        rt.maybe_start(now);
    }

    fn start_blocked(rt: &LightRuntime<Failover>) -> bool {
        rt.policy
            .ranks
            .iter()
            .any(|r| r.promoting || r.promote_wait)
    }

    /// A lost rank can never finalize: the job only completes when every
    /// rank finished.
    fn job_done(rt: &LightRuntime<Failover>) -> bool {
        rt.streams.iter().all(|st| st.finished)
    }

    fn stream_lost(rt: &LightRuntime<Failover>, s: usize) -> bool {
        rt.policy.ranks[s].lost
    }

    fn stream_blocked(rt: &LightRuntime<Failover>, s: usize) -> bool {
        rt.policy.ranks[s].promoting
    }

    /// State shadowing: the primary streams its post-op state to the
    /// replica.
    fn op_extra_traffic(rt: &mut LightRuntime<Failover>, s: usize) {
        if rank_protected(rt, s as u32) {
            rt.chassis.traffic.ckpt_bytes += OP_SYNC_BYTES;
            failmpi_obs::prof::copy("replica.sync", OP_SYNC_BYTES);
        }
    }

    /// A promotion may have been waiting for this replica to finish
    /// booting.
    fn unit_changed(rt: &mut LightRuntime<Failover>, now: SimTime, unit: usize, change: UnitChange) {
        let n = rt.streams.len();
        if change == UnitChange::Registered && unit >= n && rt.policy.ranks[unit - n].promote_wait {
            rt.policy.ranks[unit - n].promote_wait = false;
            begin_promotion(rt, now, (unit - n) as u32);
        }
    }

    fn contribute_metrics(rt: &LightRuntime<Failover>, snap: &mut MetricsSnapshot) {
        let p = &rt.policy;
        snap.set_counter("replica.ranks_lost", p.ranks_lost.get());
        snap.set_counter("replica.replicas_lost", p.replicas_lost.get());
        snap.set_counter("replica.n_replicas", p.n_replicas as u64);
    }
}
