//! Shared engine for the noise-robustness sweep (`repro_noise_sweep`).
//!
//! Runs the NV-Core overlap battery under a grid of
//! [`Perturbation`] settings — competing-process BTB eviction pressure ×
//! LBR cycle jitter — and measures accuracy twice per cell: *naive*
//! (single probe, no retries, the pre-robustness code path) and *robust*
//! (5-vote majority probing with a retry budget). The paper's numbers are
//! averages over noisy trials, so each cell fans its trials out through
//! [`Campaign`]; per-trial injector seeds come from the trial's child
//! stream, which keeps every aggregate byte-identical for any
//! `--threads` value.

use nightvision::campaign::Campaign;
use nightvision::{NvCore, Resilience};
use nv_uarch::{Core, Perturbation, UarchConfig};

use crate::{nop_fragment, window_chain};

/// Base of the monitored region; the battery chains four 16-byte windows
/// at `MON + {0, 0x40, 0x80, 0xC0}` (the Figure 7 optimization) so the
/// injector has a realistic number of primed BTB entries to hit.
const MON: u64 = 0x40_0500;

/// Windows in the chain.
const WINDOWS: usize = 4;

/// Eviction-interval axis, mildest first (`0` = no evictions). Smaller
/// intervals mean a busier co-tenant hammering the shared BTB.
pub const EVICTION_INTERVALS: [u64; 4] = [0, 40, 8, 2];

/// Jitter-amplitude axis, mildest first (`0` = exact cycle counts).
pub const JITTER_AMPLITUDES: [u64; 4] = [0, 2, 5, 8];

/// Master seed of the sweep; per-cell campaigns derive from it so every
/// cell's trial streams are distinct but reproducible.
pub const MASTER_SEED: u64 = 0x0015_0e5e;

/// Accuracy of one grid cell under both probing disciplines.
#[derive(Clone, Copy, Debug)]
pub struct CellResult {
    /// Cycles between injected BTB evictions (`0` = off).
    pub eviction_interval: u64,
    /// Maximum LBR elapsed-cycle jitter (`0` = off).
    pub jitter_amplitude: u64,
    /// Spurious-squash probability, parts per million.
    pub squash_per_million: u32,
    /// Single-probe, zero-retry accuracy in `[0, 1]`.
    pub naive: f64,
    /// 5-vote majority accuracy (retry budget 8) in `[0, 1]`.
    pub robust: f64,
}

/// The whole sweep: the eviction × jitter grid plus the paper-calibrated
/// cell, and the trial count behind every accuracy.
#[derive(Clone, Debug)]
pub struct SweepResult {
    /// One cell per grid point, jitter-major (the eviction axis varies
    /// fastest), mildest first on both axes.
    pub grid: Vec<CellResult>,
    /// [`Perturbation::paper_calibrated`] — all three fault sources on.
    pub paper: CellResult,
    /// Trials per cell.
    pub trials: usize,
}

/// The overlap battery: `(entry, body length in nops, expected per-window
/// matches)`. Fragments are long (victim exposure is when competing-
/// process evictions can land on primed entries) and cover overlapping
/// and disjoint shapes, so both false positives (spurious evictions read
/// as deallocations) and false negatives (jitter swallowing the resteer
/// signal) count against accuracy.
const CASES: [(u64, usize, [bool; WINDOWS]); 4] = [
    (MON, 200, [true, true, true, true]), // sweeps through all four
    (MON + 0x40, 48, [false, true, false, false]), // touches only the second
    (MON - 0x100, 150, [false, false, false, false]), // entirely below
    (MON + 0x100, 150, [false, false, false, false]), // entirely above
];

/// Runs the battery once on a freshly perturbed core per case; returns
/// `(correct, total)` over per-window verdicts. A failed measurement
/// (probe error, retries exhausted) counts every window as incorrect —
/// on real hardware a pass the attacker cannot read is a pass the
/// attacker got wrong.
fn battery_accuracy(base: Perturbation, seeds: &[u64], resilience: Resilience) -> (usize, usize) {
    let mut correct = 0;
    let mut total = 0;
    for (case, &(entry, nops, expected)) in CASES.iter().enumerate() {
        let perturbation = Perturbation {
            seed: seeds[case],
            ..base
        };
        let mut core = Core::new(UarchConfig {
            perturbation,
            ..UarchConfig::default()
        });
        let mut nv =
            NvCore::with_resilience(window_chain(MON, WINDOWS), resilience).expect("nv-core");
        let verdict = nv.begin(&mut core).and_then(|()| {
            nv.measure(&mut core, |core| {
                core.reset_frontend();
                let mut victim = nop_fragment(entry, nops);
                core.run(&mut victim, 2_000);
            })
        });
        total += WINDOWS;
        if let Ok(matched) = verdict {
            correct += matched
                .iter()
                .zip(&expected)
                .filter(|(got, want)| got == want)
                .count();
        }
    }
    (correct, total)
}

/// Measures one cell: `trials` independent batteries per discipline,
/// fanned out over `threads` workers.
fn run_cell(base: Perturbation, cell_index: u64, trials: usize, threads: usize) -> CellResult {
    let results = Campaign::new(trials)
        .master_seed(MASTER_SEED.wrapping_add(cell_index))
        .threads(threads)
        .run(|mut trial| {
            // Separate injector seeds per case and per discipline, all
            // drawn from the trial's child stream (deterministic in the
            // trial index, oblivious to worker scheduling).
            let naive_seeds: Vec<u64> = (0..CASES.len()).map(|_| trial.rng.next_u64()).collect();
            let robust_seeds: Vec<u64> = (0..CASES.len()).map(|_| trial.rng.next_u64()).collect();
            let naive = battery_accuracy(base, &naive_seeds, Resilience::none());
            let robust = battery_accuracy(base, &robust_seeds, Resilience::paper_robust());
            (naive, robust)
        });
    let (mut naive_ok, mut robust_ok, mut total) = (0usize, 0usize, 0usize);
    for ((nc, nt), (rc, _)) in results {
        naive_ok += nc;
        robust_ok += rc;
        total += nt;
    }
    CellResult {
        eviction_interval: base.eviction_interval,
        jitter_amplitude: base.jitter_amplitude,
        squash_per_million: base.squash_per_million,
        naive: naive_ok as f64 / total as f64,
        robust: robust_ok as f64 / total as f64,
    }
}

/// Runs the full sweep: the 4×4 grid plus the paper-calibrated cell.
pub fn run_sweep(trials: usize, threads: usize) -> SweepResult {
    let mut grid = Vec::new();
    let mut cell_index = 0u64;
    for &jitter in &JITTER_AMPLITUDES {
        for &interval in &EVICTION_INTERVALS {
            let base = Perturbation {
                seed: 0, // replaced per trial/case
                eviction_interval: interval,
                jitter_amplitude: jitter,
                squash_per_million: 0,
            };
            grid.push(run_cell(base, cell_index, trials, threads));
            cell_index += 1;
        }
    }
    let paper = run_cell(
        Perturbation::paper_calibrated(0),
        cell_index,
        trials,
        threads,
    );
    SweepResult {
        grid,
        paper,
        trials,
    }
}

impl SweepResult {
    /// The quiet corner of the grid (no evictions, no jitter).
    pub fn clean(&self) -> &CellResult {
        &self.grid[0]
    }

    /// Renders the sweep as a `BENCH_noise.json` document (hand-rolled —
    /// the workspace owns all of its dependencies, so no serde).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"bench\": \"noise_sweep\",\n");
        out.push_str(&format!("  \"trials_per_cell\": {},\n", self.trials));
        out.push_str(&format!(
            "  \"cases_per_trial\": {},\n  \"grid\": [\n",
            CASES.len()
        ));
        for (i, cell) in self.grid.iter().enumerate() {
            let comma = if i + 1 == self.grid.len() { "" } else { "," };
            out.push_str(&format!("    {}{comma}\n", cell_json(cell)));
        }
        out.push_str("  ],\n");
        out.push_str(&format!(
            "  \"paper_calibrated\": {}\n}}\n",
            cell_json(&self.paper)
        ));
        out
    }
}

fn cell_json(cell: &CellResult) -> String {
    format!(
        "{{\"eviction_interval\": {}, \"jitter\": {}, \"squash_ppm\": {}, \
         \"naive_accuracy\": {:.4}, \"robust_accuracy\": {:.4}}}",
        cell.eviction_interval,
        cell.jitter_amplitude,
        cell.squash_per_million,
        cell.naive,
        cell.robust
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_cell_is_perfect_under_both_disciplines() {
        let sweep = run_sweep(3, 1);
        assert_eq!(sweep.clean().naive, 1.0);
        assert_eq!(sweep.clean().robust, 1.0);
    }

    #[test]
    fn sweep_is_thread_count_oblivious() {
        let a = run_sweep(4, 1);
        let b = run_sweep(4, 3);
        assert_eq!(a.to_json(), b.to_json());
    }
}
