//! Dependability benchmarking: sweep the fault frequency over a
//! fault-tolerant MPI job and print the paper's Fig. 5 series (miniature
//! scale by default; pass `--paper` for the full 49-rank class-B sweep,
//! which takes a few seconds of wall time per point).
//!
//! ```sh
//! cargo run --release --example stress_sweep            # seconds-scale
//! cargo run --release --example stress_sweep -- --paper # paper-scale
//! ```

use failmpi::experiments::figures::fig5;

fn main() {
    let paper = std::env::args().any(|a| a == "--paper");
    let cfg = if paper {
        fig5::Config::paper()
    } else {
        fig5::Config::smoke()
    };
    println!(
        "sweeping fault intervals {:?}s over BT class {} at {} ranks ({} runs/point)\n",
        cfg.intervals_s, cfg.common.class.name, cfg.n_ranks, cfg.common.runs
    );
    let data = fig5::run(&cfg).expect("sweep runs");
    print!("{}", fig5::render(&data));

    // The dependability-benchmark takeaway: how much fault frequency the
    // protocol absorbs before progress stops.
    let last_completing = data
        .points
        .iter()
        .filter(|p| p.summary.non_terminating < 0.5 && p.summary.buggy < 0.5)
        .filter_map(|p| p.interval_s)
        .min();
    match last_completing {
        Some(x) => println!(
            "\nMPICH-Vcl keeps making progress down to one fault every {x} s \
             at this scale; beyond that the rollback/recovery cycle starves."
        ),
        None => println!("\nno faulty configuration completed — lower the frequency"),
    }
}
