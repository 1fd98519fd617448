//! Smoke-fidelity runs of every figure: the paper's qualitative claims
//! must hold at seconds scale too.

use failmpi_experiments::figures::{ablation, fig11, fig5, fig6, fig7, fig9};

#[test]
fn fig5_shape_time_grows_with_frequency() {
    let data = fig5::run(&fig5::Config::smoke()).expect("sweep runs");
    // First point is the fault-free baseline and must complete.
    let baseline = data.points[0]
        .summary
        .mean_time_s
        .expect("baseline completes");
    // The most benign faulty point that injected faults is slower.
    let slowed = data.points.iter().skip(1).find_map(|p| {
        (p.summary.mean_faults >= 1.0)
            .then_some(p.summary.mean_time_s)
            .flatten()
    });
    if let Some(t) = slowed {
        assert!(t > baseline, "faults must cost time: {t} vs {baseline}");
    }
    // The harshest point either stalls or is the slowest.
    let last = &data.points.last().expect("points").summary;
    assert!(
        last.non_terminating > 0.0 || last.mean_time_s.unwrap_or(0.0) >= baseline,
        "the harshest frequency must hurt"
    );
    // No buggy runs in the frequency sweep (no overlapping faults).
    assert!(data.points.iter().all(|p| p.summary.buggy == 0.0));
    // The rendered table carries every point.
    let table = fig5::render(&data);
    assert_eq!(table.lines().count(), 2 + data.points.len());
}

#[test]
fn fig6_shape_more_ranks_run_faster() {
    let data = fig6::run(&fig6::Config::smoke()).expect("sweep runs");
    assert!(data.points.len() >= 2);
    let t_small = data.points[0].fault_free.mean_time_s.expect("completes");
    let t_large = data
        .points
        .last()
        .expect("points")
        .fault_free
        .mean_time_s
        .expect("completes");
    assert!(t_large < t_small, "scaling inverted: {t_large} vs {t_small}");
    for p in &data.points {
        // Only meaningful when a fault actually landed before completion.
        if p.faulty.mean_faults < 1.0 {
            continue;
        }
        if let (Some(ff), Some(f)) = (p.fault_free.mean_time_s, p.faulty.mean_time_s) {
            assert!(f > ff, "faults must cost time at {} ranks", p.n_ranks);
        }
    }
}

#[test]
fn fig7_burst_of_one_behaves_like_fig5() {
    let data = fig7::run(&fig7::Config::smoke()).expect("sweep runs");
    let single = &data.points[0];
    assert_eq!(single.burst, 1);
    // Single-fault bursts never trip the recovery bug.
    assert_eq!(single.summary.buggy, 0.0);
    // Bursts inject roughly burst-many faults per period.
    let double = &data.points[1];
    assert!(double.summary.mean_faults > single.summary.mean_faults);
}

#[test]
fn fig9_bug_is_partial_and_fig11_bug_is_total() {
    let mut cfg9 = fig9::Config::smoke();
    cfg9.common.runs = 8;
    let d9 = fig9::run(&cfg9).expect("sweep runs");
    let buggy9: f64 = d9.points.iter().map(|p| p.synchronized.buggy).sum::<f64>()
        / d9.points.len() as f64;
    assert!(
        buggy9 < 0.8,
        "fig9 must spare a majority of runs, got {buggy9}"
    );

    let d11 = fig11::run(&fig11::smoke_config()).expect("sweep runs");
    for p in &d11.points {
        assert_eq!(
            p.synchronized.pct_buggy(),
            100.0,
            "fig11 must freeze every run at {} ranks",
            p.n_ranks
        );
        // The baseline column stays healthy.
        assert!(p.fault_free.mean_time_s.is_some());
    }
}

#[test]
fn ablation_fixed_dispatcher_eliminates_the_bug() {
    let cfg = ablation::Config::smoke();
    let d = ablation::dispatcher(&cfg).expect("sweep runs");
    assert_eq!(d.historical_pct_buggy, 100.0);
    assert_eq!(d.fixed_pct_buggy, 0.0);
    assert_eq!(d.fixed_pct_completed, 100.0);
}

#[test]
fn ablation_blocking_checkpoints_are_slower() {
    let cfg = ablation::Config::smoke();
    let styles = ablation::checkpoint_style(&cfg).expect("sweep runs");
    assert_eq!(styles.len(), 2);
    let nb = styles[0].fault_free.mean_time_s.expect("completes");
    let b = styles[1].fault_free.mean_time_s.expect("completes");
    assert!(b > nb, "blocking {b} must exceed non-blocking {nb}");
}

#[test]
fn ablation_short_waves_help_under_faults() {
    let cfg = ablation::Config::smoke();
    let periods = ablation::checkpoint_period(&cfg).expect("sweep runs");
    assert_eq!(periods.len(), cfg.periods_s.len());
    // Under periodic faults, the shortest wave period loses the least
    // work per rollback (when both extremes complete at all).
    let first = periods.first().expect("points");
    let last = periods.last().expect("points");
    if let (Some(f), Some(l)) = (first.faulty.mean_time_s, last.faulty.mean_time_s) {
        assert!(f <= l * 1.2, "short waves should not be much worse: {f} vs {l}");
    }
}

#[test]
fn ablation_vdummy_baseline_crossover() {
    let cfg = ablation::Config::smoke();
    let points = ablation::protocol(&cfg).expect("sweep runs");
    assert_eq!(points.len(), 6); // {Vcl, V2, Vdummy} × {clean, faulty}
    let get = |proto: &str, faulty: bool| {
        points
            .iter()
            .find(|p| p.protocol == proto && p.interval_s.is_some() == faulty)
            .expect("point exists")
    };
    // Without faults, Vdummy is at least as fast (no checkpoint traffic).
    let vcl_clean = get("Vcl", false).summary.mean_time_s.unwrap();
    let dummy_clean = get("Vdummy", false).summary.mean_time_s.unwrap();
    assert!(dummy_clean <= vcl_clean + 0.2, "{dummy_clean} vs {vcl_clean}");
    // Under faults, Vcl completes; Vdummy restarts from scratch forever
    // (or at best limps far behind).
    let vcl_faulty = &get("Vcl", true).summary;
    let dummy_faulty = &get("Vdummy", true).summary;
    assert!(vcl_faulty.non_terminating < 1.0, "Vcl must make progress");
    let dummy_hopeless = dummy_faulty.non_terminating > 0.5
        || dummy_faulty.mean_time_s.unwrap_or(f64::MAX)
            > vcl_faulty.mean_time_s.unwrap_or(0.0);
    assert!(dummy_hopeless, "the baseline must lose under faults");
    // V2 completes under faults too, with solo restarts only.
    let v2_faulty = &get("V2", true).summary;
    assert!(v2_faulty.non_terminating < 1.0, "V2 must make progress");
    assert_eq!(v2_faulty.buggy, 0.0);
}

#[test]
fn delay_sweep_excess_grows_with_delay() {
    use failmpi_experiments::figures::delay;
    let mut cfg = delay::Config::smoke();
    cfg.delays_s = vec![0, 1];
    let data = delay::run(&cfg).expect("sweep runs");
    let base = data.baseline.mean_time_s.expect("baseline completes");
    let excesses: Vec<f64> = data
        .points
        .iter()
        .map(|p| p.summary.mean_time_s.expect("point completes") - base)
        .collect();
    // Every fault costs something…
    assert!(excesses.iter().all(|&e| e > 0.0), "{excesses:?}");
    // …and a later fault (more un-checkpointed work) costs more.
    assert!(
        excesses[1] > excesses[0],
        "delay must increase the loss: {excesses:?}"
    );
    // Exactly one fault per run.
    assert!(data.points.iter().all(|p| p.summary.mean_faults == 1.0));
}

#[test]
fn lbh04_message_logging_wins_under_faults() {
    use failmpi_experiments::figures::lbh04;
    let data = lbh04::run(&lbh04::Config::smoke()).expect("sweep runs");
    let get = |proto: &str, interval: Option<u64>| {
        data.points
            .iter()
            .find(|p| p.protocol == proto && p.interval_s == interval)
            .expect("cell exists")
            .summary
            .clone()
    };
    // Fault-free: within noise of each other.
    let (vcl0, v20) = (get("Vcl", None), get("V2", None));
    let (a, b) = (vcl0.mean_time_s.unwrap(), v20.mean_time_s.unwrap());
    assert!((a - b).abs() / a < 0.25, "clean times diverged: {a} vs {b}");
    // At the harshest interval, V2 must strictly dominate: either Vcl
    // stalls and V2 doesn't, or V2 is faster.
    let harsh = *data
        .points
        .iter()
        .filter_map(|p| p.interval_s)
        .min_by_key(|&x| x)
        .iter()
        .next()
        .unwrap();
    let (vclh, v2h) = (get("Vcl", Some(harsh)), get("V2", Some(harsh)));
    assert!(
        v2h.non_terminating <= vclh.non_terminating,
        "V2 stalled more than Vcl"
    );
    if let (Some(tv), Some(t2)) = (vclh.mean_time_s, v2h.mean_time_s) {
        assert!(t2 < tv, "V2 ({t2}) must beat Vcl ({tv}) at 1/{harsh}s");
    }
    // V2 never freezes (no stop-the-world, no dispatcher confusion).
    assert!(data
        .points
        .iter()
        .filter(|p| p.protocol == "V2")
        .all(|p| p.summary.buggy == 0.0));
}
