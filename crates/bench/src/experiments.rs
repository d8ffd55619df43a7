//! The §2 reverse-engineering experiments (§2.3 Figure 1/2 and §2.4
//! Figure 3/4): the one copy behind the `repro_fig2` / `repro_fig4`
//! binaries, the `btb_recon` example and the `paper_experiments` tests
//! that assert the paper's collision boundaries.

use std::ops::RangeInclusive;

use nv_isa::{Assembler, Program, Reg, VirtAddr};
use nv_uarch::{Core, Machine, RunExit, UarchConfig};

use crate::row;

/// Base of the F1 region (the jump under observation).
pub const B1: u64 = 0x40_0000;
/// Base of the aliasing F2 region: 8 GiB away (low 33 bits equal).
pub const B2: u64 = B1 + (1 << 33);
/// Non-aliasing driver region.
pub const DRIVER: u64 = 0x10_0000;

/// Builds the Experiment 1 program (Figure 1 of the paper):
///
/// ```text
/// F1:  jmp L1        // [F1, F1+1]
/// L1:  ret
/// <8 GiB padding>
/// F2:  nop; ...; nop // [F2, L2-1]
/// L2:  ret
/// ```
///
/// plus three driver stubs that call F1, F2 and F1 again.
fn experiment1_program(f1_off: u64, f2_off: u64, l2_off: u64) -> Program {
    assert!(f1_off + 2 <= l2_off, "paper constraint: F1 <= L2 - 2");
    let mut asm = Assembler::new(VirtAddr::new(DRIVER));
    asm.label("drv1");
    asm.call("F1");
    asm.syscall(1);
    asm.label("drv2");
    // F2 is 8 GiB away: out of rel32 reach, call indirectly.
    asm.mov_label(Reg::R9, "F2");
    asm.call_ind(Reg::R9);
    asm.syscall(2);
    asm.label("drv3");
    asm.call("F1");
    asm.syscall(3);

    asm.org(VirtAddr::new(B1 + f1_off)).unwrap();
    asm.label("F1");
    asm.jmp8("L1");
    asm.pad_to(VirtAddr::new(B1 + f1_off + 8));
    asm.label("L1");
    asm.ret();

    asm.org(VirtAddr::new(B2 + f2_off)).unwrap();
    asm.label("F2");
    asm.pad_to(VirtAddr::new(B2 + l2_off));
    asm.label("L2");
    asm.ret();
    asm.finish().expect("experiment 1 assembles")
}

/// One Experiment 1 measurement (Figure 1/2 of the paper): the
/// elapsed-cycles field of the LBR record for the `ret` after the second
/// execution of `jmp L1`. `call_f2` selects the orange (true) or blue
/// (false, baseline) line.
///
/// # Panics
///
/// Panics if `f1_off + 2 > l2_off` (the paper's constraint) or a driver
/// stub does not reach its syscall.
pub fn experiment1_elapsed(f1_off: u64, f2_off: u64, l2_off: u64, call_f2: bool) -> u64 {
    let program = experiment1_program(f1_off, f2_off, l2_off);
    let l1 = program.symbol("L1").unwrap();
    let core = run_drivers(program, call_f2);
    core.lbr()
        .find_from(l1)
        .expect("ret after jmp L1 was recorded")
        .elapsed
}

/// Builds the Experiment 2 program (Figure 3 of the paper):
///
/// ```text
/// F1:  nop; ...; nop   // F1 in [0, 0x1e], nops up to J1
/// J1:  jmp L1          // fixed at [0x1e, 0x1f]
/// L1:  ret
/// <8 GiB padding>
/// F2:  jmp L2          // [F2, F2+1], F2 in [0, 0x1c]
/// L2:  ret
/// ```
///
/// plus three driver stubs that call J1, F2 and F1 (lines 15–17).
///
/// # Panics
///
/// Panics if `f1_off > 0x1e` or `f2_off > 0x1c`.
pub fn experiment2_program(f1_off: u64, f2_off: u64) -> Program {
    assert!(f1_off <= 0x1e && f2_off <= 0x1c);
    let mut asm = Assembler::new(VirtAddr::new(DRIVER));
    asm.label("drv1");
    asm.call("J1");
    asm.syscall(1);
    asm.label("drv2");
    asm.mov_label(Reg::R9, "F2");
    asm.call_ind(Reg::R9);
    asm.syscall(2);
    asm.label("drv3");
    asm.call("F1");
    asm.syscall(3);

    asm.org(VirtAddr::new(B1 + f1_off)).unwrap();
    asm.label("F1");
    asm.pad_to(VirtAddr::new(B1 + 0x1e));
    asm.label("J1");
    asm.jmp8("L1"); // [0x1e, 0x1f]
    asm.label("L1"); // 0x20
    asm.ret();

    asm.org(VirtAddr::new(B2 + f2_off)).unwrap();
    asm.label("F2");
    asm.jmp8("L2");
    asm.pad_to(VirtAddr::new(B2 + 0x20));
    asm.label("L2");
    asm.ret();
    asm.finish().expect("experiment 2 assembles")
}

/// One Experiment 2 measurement (Figure 3/4): elapsed cycles between the
/// retirement of the call to F1 (line 17 of Figure 3) and the return
/// after `jmp L1`.
///
/// # Panics
///
/// Panics on out-of-range offsets (see [`experiment2_program`]) or if a
/// driver stub does not reach its syscall.
pub fn experiment2_elapsed(f1_off: u64, f2_off: u64, call_f2: bool) -> u64 {
    let program = experiment2_program(f1_off, f2_off);
    let drv3 = program.symbol("drv3").unwrap();
    let l1 = program.symbol("L1").unwrap();
    let core = run_drivers(program, call_f2);

    // Records: call drv3 -> F1, then jmp L1 -> L1, then ret L1 -> driver.
    // The interval from the call's retire to the ret's retire is the sum of
    // the elapsed fields of the records that follow the call's.
    let records: Vec<_> = core.lbr().iter().collect();
    let call_idx = records
        .iter()
        .position(|r| r.from == drv3)
        .expect("call recorded");
    let ret_idx = records
        .iter()
        .position(|r| r.from == l1)
        .expect("ret after jmp L1 recorded");
    assert!(ret_idx > call_idx);
    records[call_idx + 1..=ret_idx]
        .iter()
        .map(|r| r.elapsed)
        .sum()
}

/// Runs an experiment program's driver stubs on a fresh core and returns
/// it for its LBR and BTB: `drv1` allocates the entry under observation,
/// `drv2` runs the aliased code only with `call_f2`, and `drv3` is
/// observed with the LBR cleared (Figure 3 lines 15–17).
///
/// # Panics
///
/// Panics if a stub does not end at its own syscall.
pub fn run_drivers(program: Program, call_f2: bool) -> Core {
    let drivers = ["drv1", "drv2", "drv3"].map(|label| program.symbol(label).unwrap());
    let mut machine = Machine::new(program);
    let mut core = Core::new(UarchConfig::default());
    core.btb_mut().flush(); // Figure 1 line 12, Figure 3 line 14
    for (syscall, pc) in (1..).zip(drivers) {
        if syscall == 2 && !call_f2 {
            continue;
        }
        if syscall == 3 {
            core.lbr_mut().clear();
        }
        machine.state_mut().set_pc(pc);
        core.reset_frontend();
        assert_eq!(core.run(&mut machine, 100), RunExit::Syscall(syscall));
    }
    core
}

/// Prints one figure's two series as a table: for each offset `x`, the
/// orange (`measure(x, true)`, with F2) and blue (`measure(x, false)`,
/// baseline) elapsed cycles and their gap.
pub fn print_series(x: &str, xs: RangeInclusive<u64>, measure: impl Fn(u64, bool) -> u64) {
    let widths = [6, 14, 12, 10];
    println!("{}", row(&[x, "with_F2", "baseline", "gap"], &widths));
    for offset in xs {
        let orange = measure(offset, true);
        let blue = measure(offset, false);
        let gap = format!("{:+}", orange as i64 - blue as i64);
        let cells = [
            format!("{offset:#x}"),
            orange.to_string(),
            blue.to_string(),
            gap,
        ];
        println!("{}", row(&cells, &widths));
    }
}
