//! The thin cross-section of tier-1: each test here fails if the crate it
//! names were stubbed out.

use std::sync::Arc;

use failmpi::mpi::{lockstep, Program};
use failmpi::workloads::{bt_programs_noisy, BtClass};

/// `mpi` + `workloads`: a loop-shaped BT program set and the same programs
/// as explicit op lists run to the same lockstep statistics — messages,
/// bytes, per-rank progress and per-rank compute time.
#[test]
fn loop_shaped_bt_programs_run_as_their_flat_lists() {
    let class = BtClass::S;
    let n = 9;
    let looped = bt_programs_noisy(&class, n, 11, 0.03);
    let flat: Vec<Arc<Program>> = looped
        .iter()
        .map(|p| Program::new(p.iter().collect(), p.image_bytes()))
        .collect();
    let stats = lockstep::run(&looped).expect("BT is deadlock-free");
    assert_eq!(lockstep::run(&flat).expect("BT is deadlock-free"), stats);

    // Not vacuous: 3 sweeps × 4 face sends per rank per iteration, plus the
    // closing all-reduce (⌈log₂ 9⌉ = 4 rounds of 9 sends).
    let sweeps = 3 * 4 * u64::from(n) * u64::from(class.iterations);
    assert_eq!(stats.total_messages, sweeps + 4 * u64::from(n));
    assert_eq!(stats.progress, vec![class.iterations; n as usize]);
    let micros: Vec<u64> = looped.iter().map(|p| p.compute_micros()).collect();
    assert_eq!(stats.compute_us, micros);
    assert!(micros.iter().all(|&us| us > 0));
}
