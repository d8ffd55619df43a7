//! Validates the **NV-Core primitive** against the four PW overlap cases
//! of Figure 5 and the chained-PW optimization of Figure 7 (§4.1).
//!
//! For each case a synthetic victim fragment is constructed whose
//! execution overlaps the attacker's monitored window in the prescribed
//! way; NV-Core must report a match for every overlap case and no match
//! for the disjoint controls.
//!
//! The paper's accuracy numbers average many noisy Prime+Probe trials, so
//! the validation can be repeated: `--trials N` (default 1) runs the whole
//! case battery N times and reports the per-case pass rate, and
//! `--threads N` fans the trials out through the campaign engine. The
//! simulator is deterministic, so the aggregate is byte-identical for any
//! thread count — the flags exercise throughput, not luck.

use nightvision::campaign::Campaign;
use nightvision::{NvCore, PwSpec};
use nv_bench::{nop_fragment, window_chain, Args};
use nv_isa::{Assembler, VirtAddr};
use nv_uarch::{Core, Machine, UarchConfig};

const MON: u64 = 0x40_0500; // monitored range [MON, MON+16)

fn fragment(build: impl FnOnce(&mut Assembler), entry: u64) -> Machine {
    let mut asm = Assembler::new(VirtAddr::new(entry));
    build(&mut asm);
    asm.halt();
    Machine::new(asm.finish().expect("fragment assembles"))
}

/// The Figure 5 case battery: `(name, victim, expected match)`.
fn overlap_cases() -> Vec<(&'static str, Machine, bool)> {
    vec![
        (
            "case 1: victim PW ends with a taken jump inside the window",
            fragment(
                |asm| {
                    asm.nop();
                    asm.nop();
                    asm.jmp32("out"); // ends at MON+0x4-8+... inside window
                    asm.label("out");
                },
                MON - 2,
            ),
            true,
        ),
        (
            "case 2: victim branch deeper inside the window",
            fragment(
                |asm| {
                    for _ in 0..6 {
                        asm.nop();
                    }
                    asm.jmp32("out");
                    asm.label("out");
                },
                MON,
            ),
            true,
        ),
        (
            "case 3: victim nops enter the window from below",
            nop_fragment(MON - 8, 24),
            true,
        ),
        (
            "case 4: victim nops cover the whole window",
            nop_fragment(MON, 20),
            true,
        ),
        (
            "control: victim entirely below the window",
            nop_fragment(MON - 32, 8),
            false,
        ),
        (
            "control: victim entirely above the window",
            nop_fragment(MON + 16, 8),
            false,
        ),
    ]
}

/// One full trial: all Figure 5 cases plus the Figure 7 chained-PW pass.
/// Returns the per-case verdicts (`matched == expected`) with the chained
/// check appended last.
fn run_trial() -> Vec<bool> {
    let pw = PwSpec::new(VirtAddr::new(MON), 16).expect("window");
    let mut verdicts = Vec::new();
    for (_, mut victim, expected) in overlap_cases() {
        let mut core = Core::new(UarchConfig::default());
        let mut nv = NvCore::new(vec![pw]).expect("nv-core");
        nv.begin(&mut core).expect("calibrate");
        let matched = nv
            .measure(&mut core, |core| {
                core.reset_frontend();
                core.run(&mut victim, 1000);
            })
            .expect("measure")[0];
        verdicts.push(matched == expected);
    }

    // Figure 7: two chained PWs measured in one pass.
    let mut core = Core::new(UarchConfig::default());
    let mut nv = NvCore::new(window_chain(MON, 2)).expect("chained nv-core");
    nv.begin(&mut core).expect("calibrate");
    let mut victim = nop_fragment(MON + 0x40, 8);
    let matched = nv
        .measure(&mut core, |core| {
            core.reset_frontend();
            core.run(&mut victim, 1000);
        })
        .expect("measure");
    verdicts.push(matched == vec![false, true]);
    verdicts
}

fn main() {
    let mut args = Args::parse();
    let trials = args.get::<usize>("--trials", 1).max(1);
    let threads = args.threads();
    args.finish();

    let pw = PwSpec::new(VirtAddr::new(MON), 16).expect("window");
    // The worker count is deliberately absent from the output: results
    // must be byte-identical for any --threads value.
    println!("# NV-Core overlap-case validation (Figure 5), window {pw}");
    println!("# {trials} trial(s)");

    let per_trial = Campaign::new(trials)
        .threads(threads)
        .run(|_trial| run_trial());

    let case_count = per_trial[0].len();
    let mut pass_counts = vec![0usize; case_count];
    for verdicts in &per_trial {
        for (case, &ok) in verdicts.iter().enumerate() {
            pass_counts[case] += usize::from(ok);
        }
    }

    let names: Vec<&str> = overlap_cases()
        .into_iter()
        .map(|(name, _, _)| name)
        .collect();
    let mut all_ok = true;
    for (case, name) in names.iter().enumerate() {
        let passed = pass_counts[case];
        all_ok &= passed == trials;
        println!(
            "{name} -> {passed}/{trials} trials OK{}",
            if passed == trials { "" } else { "  MISMATCH" }
        );
    }

    println!("\n# chained PWs (Figure 7): victim touches only the second window");
    let chained_passed = pass_counts[case_count - 1];
    all_ok &= chained_passed == trials;
    println!("expected [false, true] -> {chained_passed}/{trials} trials OK");

    println!(
        "\nresult: {}",
        if all_ok {
            "ALL CASES OK"
        } else {
            "MISMATCHES PRESENT"
        }
    );
}
