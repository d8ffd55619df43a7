//! Reproduces **Figure 4** (§2.4): elapsed cycles between the retirement
//! of the call to F1 and the return after `jmp L1`, as the prediction
//! window's start `F1` varies. With `jmp L2`'s aliased entry present, the
//! window's lookup selects it whenever `F1 < F2 + 2`, producing a constant
//! extra misprediction cost; past that boundary the entry is invisible and
//! the orange series merges with the (linearly decreasing) baseline.

use nv_bench::experiments::{experiment2_elapsed, print_series};

fn main() {
    let f2 = 0x08u64;
    println!("# Figure 4 reproduction — Experiment 2 (F2 = {f2:#x}, jmp L1 fixed at [0x1e, 0x1f])");
    println!("# misprediction expected while F1 < F2+2 = {:#x}", f2 + 2);
    print_series("F1", 0..=0x1e, |f1, call_f2| {
        experiment2_elapsed(f1, f2, call_f2)
    });
    println!("# paper: Figure 4 shows the same constant-gap region ending at F1 = F2+2");
}
