//! The Chandy–Lamport part of a daemon: Vcl's checkpoint waves (and
//! Vdummy's, whose scheduler never opens one).
//!
//! ## Non-blocking Chandy–Lamport (the Vcl protocol)
//!
//! On the first marker of wave *w* (from the scheduler or any peer): clone
//! the interpreter (fork), start the pipelined image transfer to the
//! checkpoint server and the local disk write, send `Marker(w)` on every
//! outgoing channel, and start logging messages from every peer whose
//! marker has not arrived yet — each logged message is both delivered to
//! the application *and* streamed to the server (channel state). The local
//! checkpoint completes when all markers are in and the server acked the
//! image; then `WaveAck` goes to the scheduler. Computation never stops.
//! The blocking variant (the `Blocking` [`crate::CheckpointStyle`])
//! instead freezes the application until the wave completes and logs
//! nothing.

use std::collections::{BTreeMap, BTreeSet};

use failmpi_mpi::Rank;
use failmpi_sim::SimDuration;

use super::{Part, Phase, VNode};
use crate::ctx::Facilities;
use crate::trace::VclEvent;
use crate::wire::{LoggedMsg, ProcImage, Wire};

/// An in-flight local checkpoint.
#[derive(Debug)]
struct Ckpt {
    wave: u32,
    /// Peers whose marker for this wave is still pending (messages from
    /// them are channel state and get logged).
    awaiting: BTreeSet<Rank>,
    /// The checkpoint server acked the image transfer.
    image_acked: bool,
}

#[derive(Default)]
pub(super) struct Waves {
    /// Blocking style: freeze the application for the wave, log nothing.
    blocking: bool,
    last_wave: u32,
    ckpt: Option<Ckpt>,
    /// A wave opened while we were not `Running` yet (e.g. still restoring
    /// after a recovery); the checkpoint starts as soon as we resume.
    pending_wave: Option<u32>,
    /// Markers already received per wave, so a marker that beats our own
    /// checkpoint trigger is not waited for again.
    markers_seen: BTreeMap<u32, BTreeSet<Rank>>,
    /// Blocking-checkpoint freeze.
    pub(super) frozen: bool,
}

impl Waves {
    pub(super) fn new(blocking: bool) -> Self {
        Waves {
            blocking,
            ..Waves::default()
        }
    }

    /// An image of `from_wave` (none: a fresh start) was installed.
    pub(super) fn restored(&mut self, from_wave: Option<u32>) {
        self.last_wave = from_wave.unwrap_or(0);
    }
}

impl VNode {
    fn waves(&mut self) -> Option<&mut Waves> {
        match &mut self.part {
            Part::Waves(waves) => Some(waves),
            Part::Log(_) => None,
        }
    }

    /// A marker of `wave` arrived: from the scheduler (`from` is `None`)
    /// or on the channel from peer `from`.
    pub(super) fn on_marker(&mut self, wave: u32, from: Option<Rank>, ctx: &mut Facilities) {
        if let (Some(p), Some(waves)) = (from, self.waves()) {
            waves.markers_seen.entry(wave).or_default().insert(p);
        }
        self.start_checkpoint(wave, ctx);
        let ck = self.waves().and_then(|w| w.ckpt.as_mut());
        if let (Some(ck), Some(p)) = (ck, from) {
            if ck.wave == wave {
                ck.awaiting.remove(&p);
                self.check_ckpt_done(ctx);
            }
        }
    }

    /// Vcl channel-state logging: a message received after our local
    /// snapshot, sent before the peer's marker, was in transit on the cut;
    /// it streams to the server next to our image.
    pub(super) fn log_channel_state(&self, msg: LoggedMsg, ctx: &mut Facilities) {
        let Part::Waves(Waves { blocking: false, ckpt: Some(ck), .. }) = &self.part else {
            return;
        };
        if ck.awaiting.contains(&msg.from) {
            let logged = Wire::CkptLogged { rank: self.rank, wave: ck.wave, msg };
            self.send_on(self.server_conn, logged, ctx);
        }
    }

    /// The checkpoint server acked our image of `wave`.
    pub(super) fn on_ckpt_stored(&mut self, wave: u32, ctx: &mut Facilities) {
        if let Some(ck) = self.waves().and_then(|w| w.ckpt.as_mut()) {
            if ck.wave == wave {
                ck.image_acked = true;
                self.check_ckpt_done(ctx);
            }
        }
    }

    /// Computation resumed after an install: start the wave that opened
    /// while we were restoring.
    pub(super) fn start_pending_wave(&mut self, ctx: &mut Facilities) {
        if let Some(wave) = self.waves().and_then(|w| w.pending_wave.take()) {
            self.start_checkpoint(wave, ctx);
        }
    }

    /// First marker of a wave: fork-checkpoint, start transfers, flood
    /// markers, open the logging window. A marker arriving while the node is
    /// not computing yet (booting or restoring after a recovery) is
    /// deferred until computation resumes.
    fn start_checkpoint(&mut self, wave: u32, ctx: &mut Facilities) {
        let Part::Waves(waves) = &mut self.part else {
            return;
        };
        if wave <= waves.last_wave || waves.ckpt.is_some() {
            return;
        }
        if self.phase != Phase::Running {
            if self.phase != Phase::Finalized && self.phase != Phase::Dead {
                waves.pending_wave = Some(waves.pending_wave.unwrap_or(0).max(wave));
            }
            return;
        }
        // Open the logging window (and, blocking, the freeze).
        let seen = waves.markers_seen.remove(&wave).unwrap_or_default();
        waves.markers_seen.retain(|&w, _| w > wave);
        let awaiting: BTreeSet<Rank> = (0..self.n_ranks)
            .map(Rank)
            .filter(|&r| r != self.rank && !seen.contains(&r))
            .collect();
        waves.ckpt = Some(Ckpt {
            wave,
            awaiting,
            image_acked: false,
        });
        waves.frozen = waves.blocking;

        let interp = self.interp.as_ref().expect("running without interp");
        let snapshot = interp.clone(); // the fork(): computation continues
        let image_bytes = snapshot.image_bytes();

        // Local disk write (the clone writes its file; usable once done).
        let disk_delay =
            SimDuration::from_secs_f64(image_bytes as f64 / ctx.cfg.disk_bytes_per_sec as f64);
        ctx.disk.store(
            self.host,
            self.rank,
            wave,
            snapshot.clone(),
            ctx.now + disk_delay,
        );
        self.ship_image(wave, ProcImage::plain(snapshot), ctx);

        // Flood markers on every outgoing channel.
        for (_, &conn) in self.peer_conn.iter() {
            ctx.send(conn, self.proc, Wire::Marker { wave });
        }
        self.check_ckpt_done(ctx);
    }

    fn check_ckpt_done(&mut self, ctx: &mut Facilities) {
        let Some(waves) = self.waves() else {
            return;
        };
        let done = |c: &mut Ckpt| c.awaiting.is_empty() && c.image_acked;
        let Some(Ckpt { wave, .. }) = waves.ckpt.take_if(done) else {
            return;
        };
        waves.last_wave = wave;
        let thaw = std::mem::take(&mut waves.frozen);
        ctx.trace(VclEvent::LocalCheckpointDone {
            rank: self.rank,
            wave,
        });
        let rank = self.rank;
        self.send_on(self.scheduler_conn, Wire::WaveAck { rank, wave }, ctx);
        if thaw && self.phase == Phase::Running {
            self.pump(ctx);
        }
    }
}
