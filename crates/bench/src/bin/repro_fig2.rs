//! Reproduces **Figure 2** (§2.3): the averaged elapsed cycles between the
//! retirement of `jmp L1` and the subsequent `ret`, as the start address
//! `F2` of the aliased nop run varies. The orange series runs the full
//! Experiment 1 (with the call to F2); the blue series omits it.
//!
//! Expected shape: orange exceeds blue exactly while `F2 < F1 + 2`
//! (a nop overlaps one of the jump's two bytes), then snaps to the blue
//! baseline — the false-hit deallocation boundary.

use nv_bench::experiments::{experiment1_elapsed, print_series};

fn main() {
    let f1 = 0x10u64;
    let l2 = 0x1c;
    println!("# Figure 2 reproduction — Experiment 1 (F1 = {f1:#x}, L2 = {l2:#x})");
    println!("# collision expected while F2 < F1+2 = {:#x}", f1 + 2);
    print_series("F2", 0..=0x1a, |f2, call_f2| {
        experiment1_elapsed(f1, f2, l2, call_f2)
    });
    println!("# paper: Figure 2 shows the same step at F2 = F1+2 on all tested CPUs");
}
