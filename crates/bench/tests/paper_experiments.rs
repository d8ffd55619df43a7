//! End-to-end reproductions of the paper's two reverse-engineering
//! experiments (§2.3 Figure 1/2 and §2.4 Figure 3/4), asserting the exact
//! collision boundaries the paper reports.
//!
//! The drivers are [`nv_bench::experiments`], the same code behind the
//! `repro_fig2` and `repro_fig4` binaries.

use nv_bench::experiments::{
    experiment1_elapsed, experiment2_elapsed, experiment2_program, run_drivers, B1, DRIVER,
};
use nv_isa::{Assembler, VirtAddr};
use nv_uarch::{Core, Machine, UarchConfig};

#[test]
fn experiment1_collision_boundary_is_f1_plus_2() {
    // Figure 2: the orange line exceeds the blue line exactly when
    // F2 < F1 + 2, i.e. when some nop in F2 overlaps the jump's two bytes.
    let f1 = 0x10;
    let l2 = 0x18;
    let baseline = experiment1_elapsed(f1, 0, l2, false);
    for f2 in 0..=0x16u64 {
        let measured = experiment1_elapsed(f1, f2, l2, true);
        if f2 < f1 + 2 {
            assert!(
                measured > baseline,
                "F2 = {f2:#x}: collision must deallocate the entry \
                 (measured {measured}, baseline {baseline})"
            );
        } else {
            assert_eq!(
                measured, baseline,
                "F2 = {f2:#x}: no collision, jmp L1 stays predicted"
            );
        }
    }
}

#[test]
fn experiment1_baseline_is_flat() {
    // The blue line of Figure 2 does not depend on F2.
    let f1 = 0x10;
    let l2 = 0x18;
    let values: Vec<u64> = (0..=0x16)
        .map(|f2| experiment1_elapsed(f1, f2, l2, false))
        .collect();
    assert!(values.windows(2).all(|w| w[0] == w[1]), "{values:?}");
}

#[test]
fn experiment1_holds_for_other_f1_values() {
    // §2.3: "The same pattern remains when varying F1 and L2."
    for f1 in [0x00u64, 0x04, 0x0c, 0x14] {
        let l2 = 0x1c;
        let baseline = experiment1_elapsed(f1, (f1 + 4).min(0x1a), l2, false);
        // Colliding point.
        let hit = experiment1_elapsed(f1, f1, l2, true);
        assert!(hit > baseline, "F1 = {f1:#x} collision");
        // One byte past the jump: no collision.
        if f1 + 2 <= 0x16 {
            let miss = experiment1_elapsed(f1, f1 + 2, l2, true);
            assert_eq!(miss, baseline, "F1 = {f1:#x} non-collision");
        }
    }
}

#[test]
fn experiment1_holds_across_generations() {
    // §2.3: consistent across SkyLake..IceLake, with the aliasing distance
    // growing to 16 GiB on IceLake.
    use nv_uarch::CpuGeneration;
    for generation in CpuGeneration::all() {
        let shift = generation.tag_cutoff_bit();
        let b2 = B1 + (1u64 << shift);
        let mut asm = Assembler::new(VirtAddr::new(DRIVER));
        asm.label("drv1");
        asm.call("F1");
        asm.syscall(1);
        asm.label("drv2");
        asm.mov_label(nv_isa::Reg::R9, "F2");
        asm.call_ind(nv_isa::Reg::R9);
        asm.syscall(2);
        asm.label("drv3");
        asm.call("F1");
        asm.syscall(3);
        asm.org(VirtAddr::new(B1 + 0x10)).unwrap();
        asm.label("F1");
        asm.jmp8("L1");
        asm.pad_to(VirtAddr::new(B1 + 0x18));
        asm.label("L1");
        asm.ret();
        asm.org(VirtAddr::new(b2 + 0x10)).unwrap();
        asm.label("F2");
        asm.pad_to(VirtAddr::new(b2 + 0x18));
        asm.label("L2");
        asm.ret();
        let program = asm.finish().unwrap();

        let mut machine = Machine::new(program.clone());
        let mut core = Core::new(UarchConfig::for_generation(generation));
        machine.state_mut().set_pc(program.symbol("drv1").unwrap());
        core.run(&mut machine, 100);
        machine.state_mut().set_pc(program.symbol("drv2").unwrap());
        core.reset_frontend();
        core.run(&mut machine, 100);
        core.lbr_mut().clear();
        machine.state_mut().set_pc(program.symbol("drv3").unwrap());
        core.reset_frontend();
        core.run(&mut machine, 100);
        let record = core.lbr().find_from(program.symbol("L1").unwrap()).unwrap();
        assert!(
            record.mispredicted || record.elapsed > 4,
            "{generation:?}: aliased nops at the generation's cutoff \
             distance must deallocate the entry"
        );
    }
}

#[test]
fn experiment2_misprediction_boundary_is_f2_plus_2() {
    // Figure 4: with F2's entry present, executing the PW from F1 behaves
    // as if F2 never ran when F1 > F2 + 1, and suffers a constant extra
    // penalty when F1 < F2 + 2.
    let f2 = 0x08;
    for f1 in 0..=0x1eu64 {
        let baseline = experiment2_elapsed(f1, f2, false);
        let measured = experiment2_elapsed(f1, f2, true);
        if f1 < f2 + 2 {
            assert!(
                measured > baseline,
                "F1 = {f1:#x}: jmp L2's entry is selected for the PW and \
                 must mispredict (measured {measured}, baseline {baseline})"
            );
        } else {
            assert_eq!(
                measured, baseline,
                "F1 = {f1:#x}: PW starts past jmp L2's entry; no effect"
            );
        }
    }
}

#[test]
fn experiment2_baseline_decreases_with_f1() {
    // The blue line of Figure 4 decreases as F1 grows (fewer nops).
    let f2 = 0x00;
    let values: Vec<u64> = (0..=0x1e)
        .map(|f1| experiment2_elapsed(f1, f2, false))
        .collect();
    assert!(
        values.windows(2).all(|w| w[0] >= w[1]),
        "baseline must be non-increasing: {values:?}"
    );
    assert!(values[0] > values[0x1e], "strictly fewer cycles overall");
}

#[test]
fn experiment2_extra_cost_is_constant() {
    // §2.4: the misprediction causes "a constant increase in the elapsed
    // cycles" across all colliding F1 values.
    let f2 = 0x0c;
    let penalties: Vec<u64> = (0..=(f2 + 1))
        .map(|f1| {
            let baseline = experiment2_elapsed(f1, f2, false);
            let measured = experiment2_elapsed(f1, f2, true);
            measured - baseline
        })
        .collect();
    assert!(
        penalties.windows(2).all(|w| w[0] == w[1]),
        "constant penalty expected: {penalties:?}"
    );
}

#[test]
fn experiment2_entry_for_jmp_l1_survives() {
    // §2.4: the execution of jmp L2 "should not affect the BTB entry
    // allocated for jmp L1" — they differ in offset, so both coexist, and
    // the false hit deallocates only jmp L2's entry.
    let program = experiment2_program(0x00, 0x08);
    let j1 = program.symbol("J1").unwrap();
    let f2 = program.symbol("F2").unwrap();
    let core = run_drivers(program, true);

    // jmp L1's entry survives (indexed by its end byte at offset 0x1f).
    assert!(
        core.btb().entry_at(j1.offset(1)).is_some(),
        "jmp L1's entry must survive the whole experiment"
    );
    // jmp L2's entry (end byte at F2+1) was deallocated by the false hit
    // during F1's prediction window.
    assert!(
        core.btb().entry_at(f2.offset(1)).is_none(),
        "jmp L2's entry must be deallocated by the nops' false hit"
    );
}
