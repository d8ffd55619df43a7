//! Differential test: [`Core::run`] must be exactly `max_steps` calls of
//! [`Core::step`] that stop at the first fault, halt or syscall. `run`
//! skips building the per-step [`nv_uarch::StepResult`]s; nothing else may
//! differ.
//!
//! Programs come from the random-program generator of the decode
//! differential, with instruction streams biased towards short-range
//! control flow so execution stays in the image for a while: fusible
//! compare/test + conditional-branch pairs, calls and returns, syscalls,
//! halts, stack traffic and — through the raw blobs, far jumps and stray
//! returns — fetch faults. After every `run`, the exit, the core's
//! counters, cycle, LBR and BTB, and the machine's registers and memory
//! must match a twin driven by `step`.
//!
//! A small fixed-seed version is always on; the wider sweep runs with the
//! non-default `proptest` feature.

mod common;

use common::{arb_inst, arb_program_with};
use nv_isa::{encode, Cond, Inst, Program, Reg};
use nv_rand::Rng;
use nv_uarch::{Core, Machine, Perturbation, RunExit, UarchConfig};

/// Appends one unit of executable code: an arbitrary instruction, or a
/// short-range control-flow idiom.
fn emit_unit(rng: &mut Rng, bytes: &mut Vec<u8>) {
    let reg = |rng: &mut Rng| Reg::from_index(rng.gen_range(0..14)).unwrap();
    let cond = |rng: &mut Rng| Cond::all().nth(rng.gen_range(0..10)).unwrap();
    let near = |rng: &mut Rng| rng.gen_range(-24..24i64);
    let unit = match rng.gen_range(0..12u32) {
        0..=3 => vec![arb_inst(rng)],
        4 => vec![
            Inst::CmpRr(reg(rng), reg(rng)),
            Inst::Jcc(cond(rng), near(rng) as i8),
        ],
        5 => vec![
            Inst::TestRr(reg(rng), reg(rng)),
            Inst::Jcc(cond(rng), near(rng) as i8),
        ],
        6 => vec![
            Inst::CmpRi8(reg(rng), rng.gen()),
            Inst::Jcc(cond(rng), near(rng) as i8),
        ],
        7 => vec![Inst::CallRel32(near(rng) as i32)],
        8 => vec![Inst::Push(reg(rng)), Inst::Ret],
        9 => vec![Inst::JmpRel8(near(rng) as i8)],
        10 => vec![Inst::Syscall(rng.gen_range(0..4))],
        _ => vec![
            Inst::Push(reg(rng)),
            Inst::Pop(reg(rng)),
            if rng.gen_bool(0.2) {
                Inst::Halt
            } else {
                Inst::Nop
            },
        ],
    };
    for inst in &unit {
        bytes.extend_from_slice(&encode(inst));
    }
}

/// `max_steps` calls of [`Core::step`], stopping where `run` stops.
fn step_k(core: &mut Core, machine: &mut Machine, max_steps: u64) -> RunExit {
    for _ in 0..max_steps {
        let step = core.step(machine);
        if let Some(fault) = step.fault {
            return RunExit::Fault(fault);
        }
        if step.halted {
            return RunExit::Halted;
        }
        if let Some(code) = step.syscall {
            return RunExit::Syscall(code);
        }
    }
    RunExit::StepLimit
}

fn assert_twins(ran: (&Core, &Machine), stepped: (&Core, &Machine), context: &str) {
    let ((core_r, machine_r), (core_s, machine_s)) = (ran, stepped);
    assert_eq!(core_r.stats(), core_s.stats(), "core stats: {context}");
    assert_eq!(core_r.cycle(), core_s.cycle(), "cycle: {context}");
    assert!(
        core_r.lbr().iter().eq(core_s.lbr().iter()),
        "LBR records: {context}"
    );
    assert_eq!(
        core_r.btb().valid_entries(),
        core_s.btb().valid_entries(),
        "BTB entries: {context}"
    );
    assert_eq!(
        core_r.btb().stats(),
        core_s.btb().stats(),
        "BTB stats: {context}"
    );
    assert_eq!(machine_r.state(), machine_s.state(), "registers: {context}");
    assert_eq!(machine_r.memory(), machine_s.memory(), "memory: {context}");
}

/// Runs `program` from its first byte in rounds of random length —
/// resuming past syscalls and step limits like an OS would — on a `run`
/// twin and a `step` twin, comparing them after every round. Returns how
/// the first round ended and how many fused pairs retired.
fn check_program(program: &Program, config: UarchConfig, rng: &mut Rng) -> (RunExit, u64) {
    let mut ran = Machine::new(program.clone());
    let entry = program.segments()[0].base();
    ran.state_mut().set_pc(entry);
    let mut stepped = ran.clone();
    let (mut core_r, mut core_s) = (Core::new(config), Core::new(config));
    let mut first_exit = None;
    for round in 0..12 {
        let max_steps = rng.gen_range(1..48u64);
        let exit = core_r.run(&mut ran, max_steps);
        assert_eq!(
            exit,
            step_k(&mut core_s, &mut stepped, max_steps),
            "exit of round {round} in {program}"
        );
        let context = format!("round {round} ({exit:?}) in {program}");
        assert_twins((&core_r, &ran), (&core_s, &stepped), &context);
        let done = matches!(exit, RunExit::Halted | RunExit::Fault(_));
        first_exit.get_or_insert(exit);
        if done {
            break;
        }
    }
    (
        first_exit.expect("at least one round"),
        core_r.stats().fused_pairs,
    )
}

fn sweep(master_seed: u64, cases: usize) {
    let noisy = UarchConfig {
        perturbation: Perturbation {
            seed: master_seed,
            eviction_interval: 40,
            jitter_amplitude: 3,
            squash_per_million: 30_000,
        },
        ..UarchConfig::default()
    };
    let unfused = UarchConfig {
        fusion: false,
        ..UarchConfig::default()
    };
    let mut rng = Rng::seed_from_u64(master_seed);
    // How first rounds ended, and fused pairs: the sweep must provably
    // cover every exit and macro-fusion.
    let mut exits = [0usize; 4];
    let mut fused_pairs = 0;
    for case in 0..cases {
        let program = arb_program_with(&mut rng, emit_unit);
        let config = [UarchConfig::default(), noisy, unfused][case % 3];
        let (exit, fused) = check_program(&program, config, &mut rng);
        exits[match exit {
            RunExit::Halted => 0,
            RunExit::Syscall(_) => 1,
            RunExit::Fault(_) => 2,
            RunExit::StepLimit => 3,
        }] += 1;
        fused_pairs += fused;
    }
    assert!(
        exits.iter().all(|&n| n > 0),
        "the sweep must reach every kind of exit: {exits:?}"
    );
    assert!(fused_pairs > 0, "the sweep must retire fused pairs");
}

/// Always-on deterministic slice of the sweep.
#[test]
fn run_matches_repeated_step_small() {
    sweep(0x57e9_0001, 96);
}

/// Wider randomized sweep, with the rest of the property suites.
#[test]
#[cfg_attr(not(feature = "proptest"), ignore = "enable the proptest feature")]
fn run_matches_repeated_step_wide() {
    sweep(0x57e9_0002, 2000);
}
