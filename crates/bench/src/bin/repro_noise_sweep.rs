//! NV-Core accuracy under microarchitectural noise (the robustness
//! story behind the paper's §7.2 numbers).
//!
//! Sweeps the fault injector across an eviction-pressure × LBR-jitter
//! grid plus the paper-calibrated cell (all three fault sources on), and
//! reports accuracy for *naive* probing (single probe, no retries —
//! the pre-robustness code path) next to *robust* probing (5-vote
//! majority with a retry budget). Writes the curve to `BENCH_noise.json`
//! (override with `--out PATH`).
//!
//! Flags: `--trials N` (default 30), `--threads N`, `--smoke` (few
//! trials, writes to `target/BENCH_noise_smoke.json` so CI does not
//! dirty the checked-in baseline). Output is byte-identical for any
//! `--threads` value.

use nv_bench::noise::{run_sweep, SweepResult, EVICTION_INTERVALS, JITTER_AMPLITUDES};
use nv_bench::{write_output, Args};

fn print_table(sweep: &SweepResult, label: &str, pick: impl Fn(f64, f64) -> f64) {
    println!("# {label} accuracy (rows: jitter amplitude, cols: eviction interval)");
    print!("jitter\\evict ");
    for &interval in &EVICTION_INTERVALS {
        if interval == 0 {
            print!("{:>8}", "off");
        } else {
            print!("{interval:>8}");
        }
    }
    println!();
    for (row, &jitter) in JITTER_AMPLITUDES.iter().enumerate() {
        print!("{jitter:<12} ");
        for col in 0..EVICTION_INTERVALS.len() {
            let cell = &sweep.grid[row * EVICTION_INTERVALS.len() + col];
            print!("{:>7.1}%", 100.0 * pick(cell.naive, cell.robust));
        }
        println!();
    }
}

/// Accuracy must not recover as either noise axis is turned up, and no
/// cell may collapse off a cliff. Monotonicity is asserted on the
/// *marginal means* of each axis (averaging out the other axis and its
/// sampling wiggle), with a small tolerance.
fn assert_graceful(sweep: &SweepResult) {
    const TOLERANCE: f64 = 0.01;
    let cols = EVICTION_INTERVALS.len();
    let rows = JITTER_AMPLITUDES.len();
    for cell in &sweep.grid {
        assert!(
            cell.naive >= 0.5 && cell.robust >= 0.5,
            "cliff-edge collapse at jitter {} / interval {}: naive {:.3}, robust {:.3}",
            cell.jitter_amplitude,
            cell.eviction_interval,
            cell.naive,
            cell.robust
        );
    }
    let col_means: Vec<f64> = (0..cols)
        .map(|c| {
            (0..rows)
                .map(|r| sweep.grid[r * cols + c].naive)
                .sum::<f64>()
                / rows as f64
        })
        .collect();
    let row_means: Vec<f64> = (0..rows)
        .map(|r| {
            (0..cols)
                .map(|c| sweep.grid[r * cols + c].naive)
                .sum::<f64>()
                / cols as f64
        })
        .collect();
    for (axis, means) in [("eviction", &col_means), ("jitter", &row_means)] {
        for pair in means.windows(2) {
            assert!(
                pair[1] <= pair[0] + TOLERANCE,
                "naive accuracy recovered along the {axis} axis: {:.4} -> {:.4} (means {means:?})",
                pair[0],
                pair[1]
            );
        }
    }
}

fn main() {
    let mut args = Args::parse();
    let smoke = args.switch("--smoke");
    let trials = args
        .get::<usize>("--trials", if smoke { 6 } else { 30 })
        .max(1);
    let threads = args.threads();
    let out_path = args.out_path("--out", "BENCH_noise", smoke);
    args.finish();

    // The worker count is deliberately absent from the output: results
    // must be byte-identical for any --threads value.
    println!("# NV-Core noise sweep: {trials} trial(s)/cell, 4 overlap cases/trial");
    let sweep = run_sweep(trials, threads);

    print_table(&sweep, "naive (1 probe, no retries)", |naive, _| naive);
    println!();
    print_table(
        &sweep,
        "robust (5-vote majority, retry budget 8)",
        |_, robust| robust,
    );

    let paper = &sweep.paper;
    println!(
        "\n# paper-calibrated (evictions every {} cycles, jitter {}, squash {} ppm)",
        paper.eviction_interval, paper.jitter_amplitude, paper.squash_per_million
    );
    println!(
        "naive {:.1}%  robust {:.1}%  (floor: robust >= 95%)",
        100.0 * paper.naive,
        100.0 * paper.robust
    );

    // The acceptance gates double as runtime assertions: a quiet machine
    // must read perfectly, robust probing must hold the paper floor, and
    // degradation must be graceful rather than cliff-edged.
    let clean = sweep.clean();
    assert_eq!(clean.naive, 1.0, "clean naive accuracy must be 100%");
    assert_eq!(clean.robust, 1.0, "clean robust accuracy must be 100%");
    assert!(
        paper.robust >= 0.95,
        "robust accuracy {:.3} under paper-calibrated noise is below the 95% floor",
        paper.robust
    );
    assert_graceful(&sweep);

    write_output(&out_path, &sweep.to_json());
    println!("\nresult: OK  (wrote {out_path})");
}
