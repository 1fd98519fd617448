//! NAS-BT-pattern workload generator.
//!
//! BT (Block Tridiagonal) solves 3D Navier–Stokes with an ADI scheme on a
//! square grid of `q × q` processes (so the process count must be a perfect
//! square — the paper runs 25, 36, 49 and 64). Each of its timed iterations
//! performs three directional line-solve sweeps, each bracketed by face
//! exchanges with grid neighbours; the aggregate memory footprint is fixed
//! by the problem class and divides evenly across ranks (the property behind
//! the paper's Fig. 6 analysis of checkpoint-image sizes at 25 ranks).
//!
//! This generator reproduces those properties:
//!
//! * **Computation** — per-iteration compute per rank is calibrated as
//!   `seq_work / n + surface_work / √n` seconds, a volume term with an
//!   imperfect-scaling surface term, fitted so the no-fault class-B run
//!   times land near the paper's (≈330 s at 25 ranks down to ≈160 s at 64).
//! * **Communication** — per sweep, each rank exchanges face-sized messages
//!   with its four torus neighbours; face size scales with `1/(q·class)`.
//! * **Footprint** — `aggregate_bytes / n` per rank.
//!
//! It is *not* a numerical port: no linear algebra runs. The experiments
//! measure fault-tolerance behaviour, which only sees the three properties
//! above.

use std::sync::Arc;

use failmpi_mpi::collectives;
use failmpi_mpi::{LoopBody, Op, Program, Rank, Tag};
use failmpi_sim::{SimDuration, SimRng};

/// A BT problem class: iteration count, footprint and calibrated work terms.
#[derive(Clone, Debug, PartialEq)]
pub struct BtClass {
    /// Class letter, for reporting.
    pub name: &'static str,
    /// Timed iterations (BT runs 200 for classes A/B/C).
    pub iterations: u32,
    /// Aggregate resident footprint across all ranks, in bytes.
    pub aggregate_bytes: u64,
    /// Volume work term: per-iteration compute seconds × rank count.
    pub seq_work: f64,
    /// Surface (imperfect-scaling) work term: per-iteration seconds × √n.
    pub surface_work: f64,
}

impl BtClass {
    /// Class B — the class used throughout the paper's evaluation.
    /// End-to-end calibration targets under MPICH-Vcl with 30 s waves (no
    /// faults): ≈330 s at 25 ranks, ≈250 s at 36, ≈200 s at 49 and ≈160 s
    /// at 64. The work terms below are fitted so that *compute +
    /// communication + checkpoint overhead* lands on those totals (the raw
    /// compute part is correspondingly smaller).
    pub const B: BtClass = BtClass {
        name: "B",
        iterations: 200,
        aggregate_bytes: 1_500_000_000,
        seq_work: 15.74,
        surface_work: 3.352,
    };

    /// Class A — one quarter of class B's work and footprint (for quicker
    /// sweeps at the same communication shape).
    pub const A: BtClass = BtClass {
        name: "A",
        iterations: 200,
        aggregate_bytes: 400_000_000,
        seq_work: 6.2,
        surface_work: 0.83,
    };

    /// Class S — a seconds-long miniature for tests: same shape, 20
    /// iterations, small footprint.
    pub const S: BtClass = BtClass {
        name: "S",
        iterations: 20,
        aggregate_bytes: 40_000_000,
        seq_work: 0.5,
        surface_work: 0.1,
    };

    /// Per-rank, per-iteration compute time at `n` ranks.
    pub fn iter_compute(&self, n: u32) -> SimDuration {
        let n_f = n as f64;
        SimDuration::from_secs_f64(self.seq_work / n_f + self.surface_work / n_f.sqrt())
    }

    /// Per-rank checkpoint-image size at `n` ranks.
    pub fn image_bytes(&self, n: u32) -> u64 {
        self.aggregate_bytes / n as u64
    }

    /// Face-exchange message size at `n = q²` ranks: a face is one slab of
    /// the per-rank subdomain, ≈ footprint^(2/3)-proportional; we use
    /// `aggregate / (n · 25)` which gives ≈2.4 MB at 25 ranks and ≈0.9 MB
    /// at 64 for class B — the right order for BT faces.
    pub fn face_bytes(&self, n: u32) -> u64 {
        (self.aggregate_bytes / n as u64 / 25).max(1024)
    }

    /// Predicted no-fault execution time at `n` ranks, excluding
    /// communication (used for calibration checks).
    pub fn predicted_compute_time(&self, n: u32) -> SimDuration {
        self.iter_compute(n) * self.iterations as u64
    }
}

/// Valid BT rank counts: perfect squares.
pub fn is_valid_rank_count(n: u32) -> bool {
    grid_side(n).is_ok()
}

/// The side `q` of the `q × q` process grid `n` ranks form; `Err` says why
/// `n` ranks form none.
pub fn grid_side(n: u32) -> Result<u32, String> {
    let q = (n as f64).sqrt().round() as u32;
    // In u64: for n = u32::MAX, q rounds to 65 536, whose square no u32 holds.
    if q > 0 && u64::from(q) * u64::from(q) == u64::from(n) {
        Ok(q)
    } else {
        Err(format!("BT needs a square rank count, got {n}"))
    }
}

/// The four torus neighbours of `rank` on the `q × q` grid, in
/// (north, south, west, east) order.
fn neighbours(rank: Rank, q: u32) -> [Rank; 4] {
    let row = rank.0 / q;
    let col = rank.0 % q;
    let at = |r: u32, c: u32| Rank(r * q + c);
    [
        at((row + q - 1) % q, col),
        at((row + 1) % q, col),
        at(row, (col + q - 1) % q),
        at(row, (col + 1) % q),
    ]
}

/// Tags: one per sweep direction per neighbour slot, below the collective
/// space. Sweep `s` (0..3), slot `k` (0..4) → tag `16·s + k`.
fn sweep_tag(sweep: u32, slot: usize) -> Tag {
    Tag((16 * sweep + slot as u32) as u16)
}

/// Generates the per-rank BT programs for `n` ranks (panics unless
/// [`grid_side`] accepts `n`). Every program ends with a verification
/// all-reduce and `Finalize`, and emits `Progress(iter)` after each timed
/// iteration.
pub fn bt_programs(class: &BtClass, n: u32) -> Vec<Arc<Program>> {
    bt_programs_noisy(class, n, 0, 0.0)
}

/// Like [`bt_programs`], with compute phases perturbed by noise drawn from
/// `seed`: a run-global speed factor of ±`noise` (machine allocation, cache
/// and OS state differ between submissions) plus an independent per-phase
/// jitter of the same magnitude. This models why repeated real-cluster runs
/// differ by a few percent, and hence drives the run-to-run variance the
/// paper's Fig. 6 analyses. The jitter is baked into the program at
/// construction, so re-execution after a rollback replays identical message
/// contents (the Chandy–Lamport requirement); only across *runs* do
/// timings differ.
///
/// The programs are loop-shaped ([`LoopBody`]): one iteration's ops, the
/// iteration count, every iteration's compute spans, and the closing
/// all-reduce. No flat op list is built; [`Program::op_at`] computes any
/// op from the description.
pub fn bt_programs_noisy(class: &BtClass, n: u32, seed: u64, noise: f64) -> Vec<Arc<Program>> {
    let q = grid_side(n).unwrap_or_else(|why| panic!("{why}"));
    let compute_per_sweep =
        SimDuration::from_micros(class.iter_compute(n).as_micros() / 3);
    let face = class.face_bytes(n);
    let image = class.image_bytes(n);
    let mut rng = SimRng::new(seed).derive(0xB7);
    let run_factor = 1.0 + noise * (2.0 * rng.f64() - 1.0);
    (0..n)
        .map(|r| {
            let rank = Rank(r);
            let nb = neighbours(rank, q);
            let mut trip = Vec::new();
            for sweep in 0..3u32 {
                trip.push(Op::Compute(compute_per_sweep));
                if n > 1 {
                    // Post all four sends eagerly, then drain the four
                    // receives: deadlock-free under buffered sends.
                    for (slot, &to) in nb.iter().enumerate() {
                        trip.push(Op::Send {
                            to,
                            tag: sweep_tag(sweep, slot),
                            bytes: face,
                        });
                    }
                    // The message I receive with tag slot k was sent by
                    // my opposite-direction neighbour: my south neighbour
                    // sent its "north" (slot 0) message towards me, etc.
                    for (slot, &from) in mirror(&nb).iter().enumerate() {
                        trip.push(Op::Recv {
                            from,
                            tag: sweep_tag(sweep, slot),
                        });
                    }
                }
            }
            trip.push(Op::Progress(0));
            // One jitter stream serves every rank, so the spans are drawn
            // here, rank by rank, iteration by iteration, sweep by sweep.
            let spans = (0..3 * class.iterations)
                .map(|_| {
                    if noise > 0.0 {
                        let f = run_factor * (1.0 + noise * (2.0 * rng.f64() - 1.0));
                        SimDuration::from_secs_f64(compute_per_sweep.as_secs_f64() * f)
                    } else {
                        compute_per_sweep
                    }
                })
                .collect();
            let mut tail = if n > 1 {
                collectives::allreduce(rank, n, 64, Tag::COLLECTIVE_BASE)
            } else {
                Vec::new()
            };
            tail.push(Op::Finalize);
            let body = LoopBody {
                trip,
                trips: class.iterations,
                spans,
                tail,
            };
            Program::looped(body, image)
        })
        .collect()
}

/// The senders of my slot-ordered receives: slot k's message comes from my
/// opposite-direction neighbour (south for "north", …).
fn mirror(nb: &[Rank; 4]) -> [Rank; 4] {
    [nb[1], nb[0], nb[3], nb[2]]
}

#[cfg(test)]
mod tests {
    use super::*;
    use failmpi_mpi::lockstep;
    use proptest::prelude::*;

    /// The generator as it was before programs became loop-shaped: every
    /// rank's flat op list, built op by op. The reference the property
    /// below holds [`bt_programs_noisy`]'s op stream against.
    fn bt_programs_eager(class: &BtClass, n: u32, seed: u64, noise: f64) -> Vec<Arc<Program>> {
        let q = grid_side(n).expect("square rank count");
        let compute_per_sweep =
            SimDuration::from_micros(class.iter_compute(n).as_micros() / 3);
        let face = class.face_bytes(n);
        let image = class.image_bytes(n);
        let mut rng = SimRng::new(seed).derive(0xB7);
        let run_factor = 1.0 + noise * (2.0 * rng.f64() - 1.0);
        (0..n)
            .map(|r| {
                let rank = Rank(r);
                let nb = neighbours(rank, q);
                let mut ops = Vec::new();
                for iter in 1..=class.iterations {
                    for sweep in 0..3u32 {
                        let c = if noise > 0.0 {
                            let f = run_factor * (1.0 + noise * (2.0 * rng.f64() - 1.0));
                            SimDuration::from_secs_f64(compute_per_sweep.as_secs_f64() * f)
                        } else {
                            compute_per_sweep
                        };
                        ops.push(Op::Compute(c));
                        if n > 1 {
                            for (slot, &to) in nb.iter().enumerate() {
                                ops.push(Op::Send {
                                    to,
                                    tag: sweep_tag(sweep, slot),
                                    bytes: face,
                                });
                            }
                            for (slot, &from) in mirror(&nb).iter().enumerate() {
                                ops.push(Op::Recv {
                                    from,
                                    tag: sweep_tag(sweep, slot),
                                });
                            }
                        }
                    }
                    ops.push(Op::Progress(iter));
                }
                if n > 1 {
                    ops.extend(collectives::allreduce(rank, n, 64, Tag::COLLECTIVE_BASE));
                }
                ops.push(Op::Finalize);
                Program::new(ops, image)
            })
            .collect()
    }

    proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(24))]
        #[test]
        fn loop_shaped_programs_run_the_eager_generators_ops(
            class in proptest::sample::select(vec![BtClass::S, BtClass::A, BtClass::B]),
            q in 1u32..=8,
            seed: u64,
            noise in proptest::sample::select(vec![0.0, 0.03]),
        ) {
            let n = q * q;
            let looped = bt_programs_noisy(&class, n, seed, noise);
            let eager = bt_programs_eager(&class, n, seed, noise);
            prop_assert_eq!(looped.len(), eager.len());
            for (l, e) in looped.iter().zip(&eager) {
                prop_assert_eq!(l.len(), e.len());
                prop_assert_eq!(l.progress_marks(), e.progress_marks());
                prop_assert_eq!(l.compute_micros(), e.compute_micros());
                prop_assert!(l.iter().eq(e.iter()));
                prop_assert_eq!(l.image_bytes(), e.image_bytes());
            }
        }
    }

    #[test]
    fn rank_counts_validate() {
        for n in [1u32, 4, 9, 16, 25, 36, 49, 64] {
            assert!(is_valid_rank_count(n), "{n}");
        }
        for n in [0u32, 2, 3, 48, 50, 63, u32::MAX - 1, u32::MAX] {
            assert!(!is_valid_rank_count(n), "{n}");
        }
        assert_eq!(grid_side(65_535 * 65_535), Ok(65_535));
    }

    #[test]
    #[should_panic(expected = "square rank count")]
    fn non_square_panics() {
        let _ = bt_programs(&BtClass::S, 50);
    }

    #[test]
    fn neighbours_wrap_on_torus() {
        // 3×3 grid, rank 0 at (0,0).
        let nb = neighbours(Rank(0), 3);
        assert_eq!(nb, [Rank(6), Rank(3), Rank(2), Rank(1)]);
        // centre rank 4 at (1,1).
        let nb = neighbours(Rank(4), 3);
        assert_eq!(nb, [Rank(1), Rank(7), Rank(3), Rank(5)]);
    }

    #[test]
    fn programs_complete_without_deadlock() {
        for n in [1u32, 4, 9, 25] {
            let ps = bt_programs(&BtClass::S, n);
            let stats = lockstep::run(&ps).unwrap_or_else(|d| panic!("n={n}: {d:?}"));
            assert!(stats
                .progress
                .iter()
                .all(|&p| p == BtClass::S.iterations));
        }
    }

    #[test]
    fn traffic_matches_structure() {
        let n = 9u32;
        let class = &BtClass::S;
        let ps = bt_programs(class, n);
        let stats = lockstep::run(&ps).unwrap();
        // 3 sweeps × 4 sends × n ranks × iterations, plus the final
        // allreduce (4 rounds of 9 sends for n=9 → ⌈log₂9⌉·n).
        let sweeps = 3 * 4 * n as u64 * class.iterations as u64;
        let allreduce = 4 * n as u64;
        assert_eq!(stats.total_messages, sweeps + allreduce);
    }

    #[test]
    fn class_b_calibration_leaves_room_for_overhead() {
        // Paper-shaped no-fault totals: ≈330/250/200/160 s at 25/36/49/64.
        // The compute part must be 70–95 % of the total — the rest is the
        // communication + checkpointing overhead the runtime adds (the
        // end-to-end totals are asserted by the experiments crate).
        let targets = [(25u32, 330.0), (36, 250.0), (49, 200.0), (64, 160.0)];
        for (n, t) in targets {
            let predicted = BtClass::B.predicted_compute_time(n).as_secs_f64();
            let frac = predicted / t;
            assert!(
                (0.70..0.95).contains(&frac),
                "n={n}: compute {predicted:.1}s is {frac:.2} of target {t}s"
            );
        }
    }

    #[test]
    fn scaling_is_monotone_but_imperfect() {
        let t25 = BtClass::B.predicted_compute_time(25);
        let t64 = BtClass::B.predicted_compute_time(64);
        assert!(t64 < t25);
        // Imperfect: 64 ranks are less than 64/25× faster.
        assert!(t64.as_secs_f64() > t25.as_secs_f64() * 25.0 / 64.0);
    }

    #[test]
    fn image_sizes_divide_aggregate() {
        for n in [25u32, 36, 49, 64] {
            let img = BtClass::B.image_bytes(n);
            assert_eq!(img, 1_500_000_000 / n as u64);
        }
        // The Fig. 6 effect: images at 25 ranks are the largest.
        assert!(BtClass::B.image_bytes(25) > BtClass::B.image_bytes(36));
    }

    #[test]
    fn face_bytes_have_bt_magnitude() {
        let f25 = BtClass::B.face_bytes(25);
        let f64_ = BtClass::B.face_bytes(64);
        assert!((1_000_000..5_000_000).contains(&f25), "{f25}");
        assert!((500_000..2_000_000).contains(&f64_), "{f64_}");
    }

    #[test]
    fn single_rank_program_is_pure_compute() {
        let ps = bt_programs(&BtClass::S, 1);
        assert!(ps[0]
            .iter()
            .all(|op| !matches!(op, Op::Send { .. } | Op::Recv { .. })));
    }
}
