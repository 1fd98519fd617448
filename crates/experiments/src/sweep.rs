//! Parallel execution of independent experiment runs.
//!
//! Each simulation is strictly single-threaded and deterministic; the
//! parallelism of the harness lives *across* runs: a work-stealing pool of
//! OS threads drains the spec list. Results come back in spec order.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

use failmpi_analyze::Report;

use crate::harness::{run, ExperimentSpec, Observe, RunRecord};

fn record_of(spec: &ExperimentSpec) -> Result<RunRecord, Report> {
    run(spec, Observe::default()).map(|out| out.record)
}

/// Runs every spec, using up to `threads` worker threads (0 = all cores).
/// `Err` is the refusal of the first spec, in spec order, that
/// [`run`] would not run.
pub fn run_all(specs: &[ExperimentSpec], threads: usize) -> Result<Vec<RunRecord>, Report> {
    let threads = if threads == 0 {
        std::thread::available_parallelism().map_or(4, |n| n.get())
    } else {
        threads
    }
    .min(specs.len().max(1));

    if threads <= 1 || specs.len() <= 1 {
        return specs.iter().map(record_of).collect();
    }

    let next = AtomicUsize::new(0);
    let next = &next;
    let (tx, rx) = mpsc::channel::<(usize, Result<RunRecord, Report>)>();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= specs.len() {
                    return;
                }
                if tx.send((i, record_of(&specs[i]))).is_err() {
                    return;
                }
            });
        }
        drop(tx); // workers hold the remaining senders

        let mut results: Vec<_> = (0..specs.len()).map(|_| None).collect();
        let mut filled = 0usize;
        // The channel closes when the last worker drops its sender; a
        // worker panic propagates out of the scope, so an incomplete
        // result set can only mean a logic error here.
        for (i, record) in rx {
            results[i] = Some(record);
            filled += 1;
        }
        assert_eq!(filled, specs.len(), "worker exited without reporting");
        results.into_iter().flatten().collect()
    })
}

/// Expands one spec into `runs` seeded copies (seed, seed+1, …).
pub fn seeded(spec: &ExperimentSpec, runs: usize) -> Vec<ExperimentSpec> {
    (0..runs as u64)
        .map(|k| {
            let mut s = spec.clone();
            s.seed = spec.seed.wrapping_add(k);
            s
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use failmpi_sim::{SimDuration, SimTime};
    use failmpi_mpichv::VclConfig;
    use failmpi_workloads::BtClass;

    fn tiny_spec(seed: u64) -> ExperimentSpec {
        ExperimentSpec {
            cluster: VclConfig::small(4, SimDuration::from_secs(2)),
            workload: crate::harness::Workload::Bt(BtClass::S),
            injection: None,
            timeout: SimTime::from_secs(150),
            freeze_window: SimDuration::from_secs(15),
            seed,
            tie_break: failmpi_sim::TieBreak::Fifo,
            backend: failmpi_backend::BackendKind::Vcl,
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let specs = seeded(&tiny_spec(1), 4);
        let serial = run_all(&specs, 1).expect("runs");
        let parallel = run_all(&specs, 4).expect("runs");
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.outcome, b.outcome);
            assert_eq!(a.end, b.end);
            assert_eq!(a.waves_committed, b.waves_committed);
        }
    }

    #[test]
    fn seeded_increments() {
        let specs = seeded(&tiny_spec(10), 3);
        let seeds: Vec<u64> = specs.iter().map(|s| s.seed).collect();
        assert_eq!(seeds, vec![10, 11, 12]);
    }
}
