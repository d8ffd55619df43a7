//! Reverse-engineering walkthrough: reproduces the paper's two §2
//! experiments interactively, printing the same series as Figures 2
//! and 4 and deriving the takeaways from the data.
//!
//! Run with: `cargo run --example btb_recon`

use nv_bench::experiments::{experiment1_elapsed, experiment2_elapsed};
use nv_isa::VirtAddr;
use nv_uarch::{BranchKind, Btb, BtbGeometry, CpuGeneration};

fn main() {
    println!("== Takeaway 2: range-query lookups ==\n");
    let mut btb = Btb::new(BtbGeometry::default());
    let branch = VirtAddr::new(0x40_001e);
    btb.allocate(
        branch.offset(1),
        VirtAddr::new(0x40_0100),
        BranchKind::DirectJump,
    );
    println!("allocated an entry for a 2-byte jump at [0x1e, 0x1f] (end-byte indexed)");
    for offset in [0x00u64, 0x08, 0x10, 0x1f, 0x1e] {
        let pc = VirtAddr::new(0x40_0000 + offset);
        let hit = btb.lookup(pc).is_some();
        println!(
            "  lookup at block offset {offset:#04x}: {}",
            if hit { "HIT" } else { "miss" }
        );
    }
    println!("  -> a lookup hits any entry at an offset >= the fetch PC's offset\n");

    println!("== Takeaway 1: false-hit deallocation ==\n");
    let mut btb = Btb::new(BtbGeometry::default());
    let victim_jump_end = VirtAddr::new(0x40_0011);
    btb.allocate(
        victim_jump_end,
        VirtAddr::new(0x40_0100),
        BranchKind::DirectJump,
    );
    let alias = VirtAddr::new(0x40_0011 + (1 << 33));
    println!("an instruction 8 GiB away shares the entry's low 33 bits:");
    println!(
        "  aliases under SkyLake-class truncation: {}",
        victim_jump_end.aliases(alias, 33)
    );
    let hit = btb.lookup(alias).expect("aliased lookup hits");
    println!(
        "  the aliased lookup produces a (false) hit at {}",
        hit.branch_pc
    );
    btb.deallocate(hit.set, hit.way);
    println!("  decode sees a non-branch there -> the core deallocates the entry");
    println!("  entry gone: {}\n", btb.lookup(victim_jump_end).is_none());

    println!("== tag cutoffs across generations (footnote 1) ==\n");
    for generation in CpuGeneration::all() {
        let cutoff = generation.tag_cutoff_bit();
        println!(
            "  {generation:?}: ignores PC bits >= {cutoff} (aliasing distance {} GiB)",
            (1u64 << cutoff) >> 30
        );
    }

    series(
        "Figure 2 series (Experiment 1)",
        "F2",
        0..=0x16,
        "collision (F2 < F1+2)",
        |f2, c| experiment1_elapsed(0x10, f2, 0x1c, c),
    );
    series(
        "Figure 4 series (Experiment 2)",
        "F1",
        0..=0x1e,
        "mispredict (F1 < F2+2)",
        |f1, c| experiment2_elapsed(f1, 0x08, c),
    );
}

/// Prints one figure's orange (with F2) and blue (baseline) series,
/// marking the offsets where they differ.
fn series(
    title: &str,
    x: &str,
    xs: std::ops::RangeInclusive<u64>,
    note: &str,
    measure: impl Fn(u64, bool) -> u64,
) {
    println!("\n== {title} ==\n");
    println!("  {x}    with_F2  baseline");
    for offset in xs {
        let orange = measure(offset, true);
        let blue = measure(offset, false);
        let marker = if orange > blue {
            format!("  <- {note}")
        } else {
            String::new()
        };
        println!("  {offset:#04x}  {orange:>7}  {blue:>8}{marker}");
    }
}
