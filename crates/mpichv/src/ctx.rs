//! The facilities every cluster component works through, plus the local
//! checkpoint disk store.

use std::collections::HashMap;

use failmpi_backend::Chassis;
use failmpi_net::{ConnId, HostId, Network, ProcId};
use failmpi_sim::{SimDuration, SimRng, SimTime};
use failmpi_mpi::{Interp, Rank};

use crate::config::VclConfig;
use crate::event::Ev;
use crate::metrics::VclMetrics;
use crate::trace::VclEvent;
use crate::wire::Wire;

/// Static addressing of the deployment (who lives where).
#[derive(Clone, Debug)]
pub(crate) struct Addrs {
    pub dispatcher_host: HostId,
    pub scheduler_host: HostId,
    pub server_hosts: Vec<HostId>,
    pub compute_hosts: Vec<HostId>,
}

impl Addrs {
    /// The checkpoint server index serving `rank` (static modulo mapping).
    pub fn server_for(&self, rank: Rank) -> usize {
        rank.0 as usize % self.server_hosts.len()
    }
}

/// Deferred structural operations components cannot perform themselves.
#[derive(Debug)]
pub(crate) enum Cmd {
    /// ssh-launch a daemon (dispatcher-issued).
    SpawnDaemon {
        rank: Rank,
        host: HostId,
        epoch: u32,
        extra_delay: SimDuration,
    },
    /// A daemon terminates itself (on `Terminate` or `Shutdown` orders).
    ExitProcess { proc: ProcId, normal: bool },
}

pub use failmpi_backend::TrafficStats;

/// Everything of a deployment that is not a component: the cluster owns
/// one next to its dispatcher, scheduler, servers and nodes, and hands it
/// to whichever component an event is for (the two are disjoint fields, so
/// a component and its facilities borrow side by side).
pub(crate) struct Facilities {
    /// The instant of the event being handled (see [`Facilities::at`]).
    pub now: SimTime,
    pub cfg: VclConfig,
    pub addrs: Addrs,
    pub net: Network<Wire>,
    /// Outbox, lifecycle hooks and trace, breakpoints, traffic ledger.
    pub chassis: Chassis<Ev>,
    pub cmds: Vec<Cmd>,
    pub disk: DiskStore,
    pub rng: SimRng,
    /// Run-scoped metrics registry (fed from the trace-event stream).
    pub metrics: VclMetrics,
}

impl Facilities {
    /// The facilities of an idle deployment over `net`, at time zero.
    pub fn new(cfg: VclConfig, addrs: Addrs, net: Network<Wire>, rng: SimRng) -> Self {
        Facilities {
            now: SimTime::ZERO,
            chassis: Chassis::default(),
            cfg,
            addrs,
            net,
            cmds: Vec::new(),
            disk: DiskStore::default(),
            rng,
            metrics: VclMetrics::default(),
        }
    }

    /// Moves the clock to `now`, the instant of the event about to be
    /// handled.
    pub fn at(&mut self, now: SimTime) -> &mut Self {
        self.now = now;
        self
    }

    /// Sends `wire` from `from` over `conn`, charging its wire size and
    /// accounting it to its traffic class.
    pub fn send(&mut self, conn: ConnId, from: ProcId, wire: Wire) -> bool {
        let bytes = wire.wire_bytes();
        let traffic = &mut self.chassis.traffic;
        match &wire {
            Wire::AppMsg { .. } => traffic.app_bytes += bytes,
            Wire::CkptImage { .. }
            | Wire::CkptLogged { .. }
            | Wire::Image { .. }
            | Wire::Logs { .. } => traffic.ckpt_bytes += bytes,
            _ => traffic.control_bytes += bytes,
        }
        self.net.send(self.now, conn, from, wire, bytes)
    }

    /// Schedules a cluster event after `delay`.
    pub fn sched(&mut self, delay: SimDuration, ev: Ev) {
        self.chassis.emit(self.now + delay, ev);
    }

    /// Records a trace event at the current instant. Metrics observe the
    /// event first, so counters stay correct when trace capture is off.
    pub fn trace(&mut self, kind: VclEvent) {
        self.metrics.observe(self.now, &kind);
        self.chassis.trace.record(self.now, kind);
    }
}

/// One image written by the fork-checkpoint to a host's local disk.
#[derive(Clone, Debug)]
pub(crate) struct DiskImage {
    pub wave: u32,
    pub interp: Interp,
    /// The write completes at this instant; earlier reads see nothing (an
    /// interrupted write is unusable, exactly like a torn checkpoint file).
    pub ready_at: SimTime,
}

/// Per-host checkpoint files. The paper's runtime alternates two files per
/// rank; we keep at most the two newest images per `(host, rank)`.
#[derive(Debug, Default)]
pub(crate) struct DiskStore {
    images: HashMap<(HostId, Rank), Vec<DiskImage>>,
}

impl DiskStore {
    /// Begins writing `interp` for `(host, rank, wave)`; readable once the
    /// disk write finishes at `ready_at`.
    pub fn store(&mut self, host: HostId, rank: Rank, wave: u32, interp: Interp, ready_at: SimTime) {
        let slot = self.images.entry((host, rank)).or_default();
        slot.push(DiskImage {
            wave,
            interp,
            ready_at,
        });
        // Two-file alternation: only the two newest images survive.
        if slot.len() > 2 {
            slot.remove(0);
        }
    }

    /// A fully written image of exactly `wave`, if this host has one.
    pub fn get(&self, host: HostId, rank: Rank, wave: u32, now: SimTime) -> Option<&DiskImage> {
        self.images
            .get(&(host, rank))?
            .iter()
            .find(|img| img.wave == wave && img.ready_at <= now)
    }

    /// Number of images stored for `(host, rank)` (diagnostic).
    pub fn count(&self, host: HostId, rank: Rank) -> usize {
        self.images.get(&(host, rank)).map_or(0, Vec::len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use failmpi_mpi::ProgramBuilder;

    fn interp() -> Interp {
        Interp::new(Rank(0), ProgramBuilder::new(100).finalize())
    }

    #[test]
    fn disk_keeps_two_newest() {
        let mut d = DiskStore::default();
        let h = HostId(1);
        for w in 1..=4 {
            d.store(h, Rank(0), w, interp(), SimTime::from_secs(w as u64));
        }
        assert_eq!(d.count(h, Rank(0)), 2);
        let now = SimTime::from_secs(100);
        assert!(d.get(h, Rank(0), 1, now).is_none());
        assert!(d.get(h, Rank(0), 2, now).is_none());
        assert!(d.get(h, Rank(0), 3, now).is_some());
        assert!(d.get(h, Rank(0), 4, now).is_some());
    }

    #[test]
    fn torn_write_is_invisible() {
        let mut d = DiskStore::default();
        let h = HostId(1);
        d.store(h, Rank(0), 1, interp(), SimTime::from_secs(10));
        assert!(d.get(h, Rank(0), 1, SimTime::from_secs(9)).is_none());
        assert!(d.get(h, Rank(0), 1, SimTime::from_secs(10)).is_some());
    }

    #[test]
    fn server_mapping_is_modulo() {
        let addrs = Addrs {
            dispatcher_host: HostId(0),
            scheduler_host: HostId(1),
            server_hosts: vec![HostId(2), HostId(3)],
            compute_hosts: vec![],
        };
        assert_eq!(addrs.server_for(Rank(0)), 0);
        assert_eq!(addrs.server_for(Rank(1)), 1);
        assert_eq!(addrs.server_for(Rank(2)), 0);
    }
}
