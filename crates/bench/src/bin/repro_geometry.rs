//! BTB-geometry ablation (DESIGN.md): how the attack depends on the
//! structure it exploits.
//!
//! * **Tag cutoff × alias distance** — a rig aliased at 2^k only works on
//!   a BTB that ignores bits ≥ k: the attacker must know the generation
//!   (§2.3 footnote 1).
//! * **Associativity** — set pressure from unrelated victim branches in
//!   the monitored set can evict the attacker's entry and read as a false
//!   match; higher associativity suppresses that noise floor.

use nightvision::{AttackerRig, PwSpec};
use nv_bench::nop_fragment;
use nv_isa::{Assembler, VirtAddr};
use nv_uarch::{BtbGeometry, Core, Machine, Perturbation, TimingModel, UarchConfig};

fn config_with(geometry: BtbGeometry) -> UarchConfig {
    UarchConfig {
        geometry,
        timing: TimingModel::default(),
        fusion: true,
        speculation_depth: 12,
        rsb_depth: 16,
        perturbation: Perturbation::none(),
    }
}

/// Does a rig aliased at `2^distance_bits` detect a victim on a BTB with
/// the given tag cutoff?
fn detects(cutoff: u32, distance_bits: u32) -> bool {
    let geometry = BtbGeometry {
        sets: 512,
        ways: 8,
        tag_cutoff_bit: cutoff,
    };
    let mut core = Core::new(config_with(geometry));
    let pw = PwSpec::new(VirtAddr::new(0x40_0200), 16).expect("window");
    let mut rig = AttackerRig::with_alias_distance(vec![pw], 1u64 << distance_bits).expect("rig");
    rig.calibrate(&mut core).expect("calibrate");
    let mut victim = nop_fragment(0x40_0200, 16);
    core.reset_frontend();
    core.run(&mut victim, 100);
    rig.probe(&mut core).expect("probe")[0]
}

/// False-positive rate when the victim hammers the monitored *set* with
/// `branches` unrelated (different-tag) branches but never touches the
/// monitored range.
fn false_positive(ways: usize, branches: usize) -> bool {
    let geometry = BtbGeometry {
        sets: 512,
        ways,
        tag_cutoff_bit: 33,
    };
    let mut core = Core::new(config_with(geometry));
    let pw = PwSpec::new(VirtAddr::new(0x40_0200), 16).expect("window");
    let mut rig = AttackerRig::new(vec![pw]).expect("rig");
    rig.calibrate(&mut core).expect("calibrate");
    // The victim executes `branches` taken jumps whose set index equals
    // the monitored window's (same PC bits 5..14) but whose tags differ
    // (bit 14 upward) — pure set pressure, no range overlap.
    let mut asm = Assembler::new(VirtAddr::new(0x40_0200 + (1 << 14)));
    for i in 0..branches {
        asm.jmp32(&format!("hop{i}"));
        asm.org(VirtAddr::new(0x40_0200 + ((i as u64 + 2) << 14)))
            .expect("org");
        asm.label(format!("hop{i}"));
    }
    asm.halt();
    let mut victim = Machine::new(asm.finish().expect("victim"));
    core.reset_frontend();
    core.run(&mut victim, 10_000);
    rig.probe(&mut core).expect("probe")[0]
}

fn main() {
    println!("# tag cutoff vs alias distance: the rig must match the generation");
    print!("cutoff\\dist ");
    for d in 30..=36u32 {
        print!(" 2^{d:<3}");
    }
    println!();
    for cutoff in [33u32, 34] {
        print!("{cutoff:<11} ");
        for d in 30..=36u32 {
            print!("{:>6}", if detects(cutoff, d) { "HIT" } else { "-" });
        }
        println!();
    }
    println!("# SkyLake-class (33) needs >= 8 GiB; IceLake (34) >= 16 GiB,");
    println!("# and any multiple-of-2^cutoff distance works\n");

    println!("# associativity vs same-set victim pressure (false matches)");
    println!("ways   unrelated branches in the set -> false positive?");
    for ways in [1usize, 2, 4, 8] {
        let results: Vec<String> = [1usize, 2, 4, 8, 12]
            .iter()
            .map(|&n| format!("{}@{n}", if false_positive(ways, n) { "FP" } else { "ok" }))
            .collect();
        println!("{ways:<6} {}", results.join("  "));
    }
    println!("# low associativity lets unrelated victim branches evict the");
    println!("# attacker's entry (LRU), reading as a spurious match — the");
    println!("# noise floor §4.2 manages by keeping victim slices short");
}
