//! Runtime configuration for the MPICH-Vcl cluster.

use failmpi_net::NetConfig;
use failmpi_sim::SimDuration;

/// Dispatcher implementation variant.
///
/// The paper's central finding is a bug in the MPICH-Vcl dispatcher: when a
/// failure hits a process that already re-registered during a recovery wave,
/// while other processes from the previous execution wave are still being
/// stopped, the dispatcher confuses the per-process states and forgets to
/// relaunch at least one computing node — freezing the whole application.
/// [`DispatcherMode::Historical`] reproduces that bug faithfully;
/// [`DispatcherMode::Fixed`] applies the correction the authors made after
/// the study (track failures per incarnation and relaunch the victim).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DispatcherMode {
    /// The original (buggy) wave bookkeeping, as strained in the paper.
    Historical,
    /// The corrected bookkeeping (ablation / regression reference).
    Fixed,
}

/// Which V-protocol the runtime executes (paper Fig. 2(a): the `ch_v`
/// channel hosts several; this reproduction implements the two ends of the
/// spectrum the evaluation needs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VProtocol {
    /// Non-blocking Chandy–Lamport coordinated checkpointing (the protocol
    /// the paper strains).
    Vcl,
    /// Pessimistic sender-based message logging with uncoordinated
    /// per-rank checkpoints (MPICH-V2, [BCH+03]): every application
    /// message is logged in the sender's daemon; a failure restarts *only*
    /// the failed rank, which reloads its own latest checkpoint and has
    /// the in-flight window replayed by its peers, while re-executed
    /// duplicates are dropped by sequence number. Reproduces the protocol
    /// side of the [LBH+04] comparison the paper says FAIL-MPI can redo
    /// automatically.
    V2,
    /// No fault tolerance at all: no checkpoint waves ever run, and a
    /// failure restarts the application from scratch. The baseline every
    /// fault-tolerance protocol is implicitly compared against.
    Vdummy,
}

/// Checkpoint protocol variant (paper Sec. 3 discusses both).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckpointStyle {
    /// Non-blocking Chandy–Lamport: computation continues during a wave;
    /// in-transit messages are logged by the daemons (the Vcl protocol
    /// under study).
    NonBlocking,
    /// Blocking Chandy–Lamport: the application freezes during the wave and
    /// channels are flushed, so no message logging is needed (ablation).
    Blocking,
}

/// Full configuration of a simulated MPICH-Vcl deployment.
#[derive(Clone, Debug)]
pub struct VclConfig {
    /// Number of MPI ranks.
    pub n_ranks: u32,
    /// Number of compute machines (must be ≥ `n_ranks`; the paper uses 53
    /// machines for 49 ranks so spares are always available).
    pub n_compute_hosts: usize,
    /// Number of checkpoint servers (the paper keeps this constant across
    /// scales; default 2).
    pub n_ckpt_servers: usize,
    /// Checkpoint wave period (paper: 30 s).
    pub checkpoint_period: SimDuration,
    /// Time for the dispatcher's ssh to start a remote daemon.
    pub ssh_spawn_delay: SimDuration,
    /// Stagger between successive ssh launches: the dispatcher starts (and
    /// restarts) daemons serially over ssh, so a fleet (re)launch costs
    /// `n_ranks × ssh_stagger` — a dominant part of real recovery time.
    pub ssh_stagger: SimDuration,
    /// Time a daemon needs to actually die after receiving a `Terminate`
    /// order (signal handling, closing files, killing its MPI child). Real
    /// processes take tens of milliseconds; this window decides whether a
    /// burst of injected faults still finds live daemons (benign Stopping
    /// closures) or dead machines (negative acks and re-picks) — the
    /// mechanism behind the paper's Fig. 7 burst-size threshold.
    pub terminate_delay: SimDuration,
    /// Upper bound of the uniform random extra delay of the ssh arrival
    /// itself (network + sshd scheduling noise).
    pub boot_jitter_max: SimDuration,
    /// Upper bound of the uniform random delay between a daemon process
    /// starting (when it registers with the FAIL-MPI daemon — the `onload`
    /// trigger) and it dialling the dispatcher (exec, dynamic linking,
    /// runtime init). This window is what a fault injected *at* `onload`
    /// races against: a hit inside it dies unregistered (benign ssh retry),
    /// a hit after it dies registered (the Fig. 9 bug window).
    pub init_delay_max: SimDuration,
    /// Local IDE-disk bandwidth for checkpoint images (paper hardware:
    /// 80 GB IDE drives; default 50 MB/s).
    pub disk_bytes_per_sec: u64,
    /// Checkpoint-server disk bandwidth: the server acknowledges an image
    /// only once it is safely written, so the wave-commit latency at scale
    /// is disk-bound (1.5 GB over two disks ≈ 12 s for class B at the
    /// default 65 MB/s).
    pub server_disk_bytes_per_sec: u64,
    /// Fixed cost of rebuilding a process from a checkpoint image (BLCR
    /// restart: address-space reconstruction, file table, signal state).
    /// Fresh starts don't pay it.
    pub restart_overhead: SimDuration,
    /// Dispatcher variant.
    pub dispatcher: DispatcherMode,
    /// Which V-protocol runs.
    pub protocol: VProtocol,
    /// Checkpoint protocol variant (only meaningful under `Vcl`).
    pub checkpoint_style: CheckpointStyle,
    /// Interconnect timing.
    pub net: NetConfig,
}

impl Default for VclConfig {
    /// The paper's evaluation setup: 49 ranks on 53 machines, 2 checkpoint
    /// servers, 30 s waves, the historical dispatcher and the non-blocking
    /// protocol.
    fn default() -> Self {
        VclConfig {
            n_ranks: 49,
            n_compute_hosts: 53,
            n_ckpt_servers: 2,
            checkpoint_period: SimDuration::from_secs(30),
            ssh_spawn_delay: SimDuration::from_millis(150),
            ssh_stagger: SimDuration::from_millis(100),
            terminate_delay: SimDuration::from_millis(100),
            boot_jitter_max: SimDuration::from_millis(5),
            init_delay_max: SimDuration::from_millis(70),
            disk_bytes_per_sec: 50_000_000,
            server_disk_bytes_per_sec: 65_000_000,
            restart_overhead: SimDuration::from_secs(3),
            dispatcher: DispatcherMode::Historical,
            protocol: VProtocol::Vcl,
            checkpoint_style: CheckpointStyle::NonBlocking,
            net: NetConfig::default(),
        }
    }
}

impl VclConfig {
    /// A small fast configuration for unit/integration tests: `n` ranks,
    /// `n + 2` machines, 1 server, short waves.
    pub fn small(n: u32, checkpoint_period: SimDuration) -> Self {
        VclConfig {
            n_ranks: n,
            n_compute_hosts: n as usize + 2,
            n_ckpt_servers: 1,
            checkpoint_period,
            ..VclConfig::default()
        }
    }

    /// Validates internal consistency; returns a description of the first
    /// problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.n_ranks == 0 {
            return Err("n_ranks must be positive".into());
        }
        if (self.n_compute_hosts as u64) < self.n_ranks as u64 {
            return Err(format!(
                "{} compute hosts cannot run {} ranks",
                self.n_compute_hosts, self.n_ranks
            ));
        }
        if self.n_ckpt_servers == 0 {
            return Err("need at least one checkpoint server".into());
        }
        if self.checkpoint_period.is_zero() {
            return Err("checkpoint period must be positive".into());
        }
        if self.disk_bytes_per_sec == 0 {
            return Err("disk bandwidth must be positive".into());
        }
        if self.server_disk_bytes_per_sec == 0 {
            return Err("server disk bandwidth must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_setup() {
        let cfg = VclConfig::default();
        assert_eq!(cfg.n_ranks, 49);
        assert_eq!(cfg.n_compute_hosts, 53);
        assert_eq!(cfg.n_ckpt_servers, 2);
        assert_eq!(cfg.checkpoint_period, SimDuration::from_secs(30));
        assert_eq!(cfg.dispatcher, DispatcherMode::Historical);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn validation_rejects_nonsense() {
        let cfg = VclConfig {
            n_ranks: 0,
            ..VclConfig::default()
        };
        assert!(cfg.validate().is_err());

        let cfg = VclConfig {
            n_compute_hosts: 10,
            ..VclConfig::default()
        };
        assert!(cfg.validate().is_err());

        let cfg = VclConfig {
            n_ckpt_servers: 0,
            ..VclConfig::default()
        };
        assert!(cfg.validate().is_err());

        let cfg = VclConfig {
            checkpoint_period: SimDuration::ZERO,
            ..VclConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn small_config_is_valid() {
        let cfg = VclConfig::small(4, SimDuration::from_secs(5));
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg.n_compute_hosts, 6);
    }
}
