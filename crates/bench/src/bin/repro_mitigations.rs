//! Evaluates the **§8.2 BTB-hardening mitigations** the paper recommends
//! (and notes no processor has adopted):
//!
//! * flushing the BTB on every context switch,
//! * per-domain predictor isolation [38, 70],
//!
//! against NV-U on the hardened GCD, alongside their performance cost on
//! the victim itself (extra cycles from losing predictor state at every
//! switch). Data-oblivious programming is included as the software
//! alternative.

use nightvision::{NoiseModel, NvUser};
use nv_bench::row;
use nv_os::{BtbMitigation, RunOutcome, System};
use nv_uarch::UarchConfig;
use nv_victims::{GcdVictim, VictimConfig};

/// Attack accuracy under a mitigation (ground-truth fraction recovered).
fn attack_accuracy(victim: &nv_victims::VictimProgram, mitigation: BtbMitigation) -> f64 {
    let mut system = System::with_mitigation(UarchConfig::default(), mitigation);
    let pid = system.spawn(victim.program().clone());
    let Ok(mut attacker) = NvUser::for_victim(victim, NoiseModel::none()) else {
        return 0.0;
    };
    let Ok(readings) = attacker.leak_directions(&mut system, pid, 100_000) else {
        return 0.0;
    };
    let inferred = NvUser::infer_directions(&readings);
    NvUser::accuracy(&inferred, victim.directions())
}

/// Victim cycles to completion with a context switch (and the mitigation's
/// cost) at every yield — measured without any attacker, so the number is
/// pure mitigation overhead.
fn victim_cycles(victim: &nv_victims::VictimProgram, mitigation: BtbMitigation) -> u64 {
    let mut system = System::with_mitigation(UarchConfig::default(), mitigation);
    let pid = system.spawn(victim.program().clone());
    // A do-nothing peer that forces a real context switch per slice.
    let mut asm = nv_isa::Assembler::new(nv_isa::VirtAddr::new(0x70_0000));
    asm.label("spin");
    asm.syscall(nv_os::syscalls::YIELD);
    asm.jmp8("spin");
    let peer = system.spawn(asm.finish().expect("peer assembles"));
    loop {
        match system.run(pid, 1_000_000) {
            RunOutcome::Yielded => {
                let _ = system.run(peer, 10);
            }
            RunOutcome::Exited => break,
            other => panic!("unexpected {other:?}"),
        }
    }
    system.core().cycle()
}

fn main() {
    let victim = GcdVictim::build(0xbeef_1235, 65537, &VictimConfig::paper_hardened())
        .expect("victim builds");
    let baseline_cycles = victim_cycles(&victim, BtbMitigation::None);

    println!(
        "# §8.2 mitigation evaluation (victim: hardened GCD, {} iterations)",
        victim.iterations()
    );
    let widths = [22, 16, 14, 12];
    let header = ["mitigation", "attack accuracy", "victim cycles", "overhead"];
    println!("{}", row(&header, &widths));
    for (name, mitigation) in [
        ("none (stock)", BtbMitigation::None),
        ("flush on switch", BtbMitigation::FlushOnSwitch),
        ("domain isolation", BtbMitigation::DomainIsolation),
    ] {
        let accuracy = attack_accuracy(&victim, mitigation);
        let cycles = victim_cycles(&victim, mitigation);
        println!(
            "{}",
            row(
                &[
                    name.into(),
                    format!("{:.1}%", accuracy * 100.0),
                    cycles.to_string(),
                    format!(
                        "{:+.1}%",
                        100.0 * (cycles as f64 / baseline_cycles as f64 - 1.0)
                    ),
                ],
                &widths
            )
        );
    }

    // The software route: data-oblivious code (no mitigation needed).
    let oblivious = GcdVictim::build(0xbeef_1235, 65537, &VictimConfig::data_oblivious())
        .expect("oblivious victim builds");
    let cycles = victim_cycles(&oblivious, BtbMitigation::None);
    println!(
        "{}",
        row(
            &[
                "data-oblivious code".into(),
                "0.0% (no windows)".into(),
                cycles.to_string(),
                format!(
                    "{:+.1}%",
                    100.0 * (cycles as f64 / baseline_cycles as f64 - 1.0)
                ),
            ],
            &widths
        )
    );
    println!("# paper: both hardware schemes block the channel at a performance cost.");
    println!("# Under either mitigation every probe reads the same (uninformative)");
    println!("# pattern, so the 'accuracy' collapses to the frequency of whichever");
    println!("# direction the attacker's constant guess happens to hit — blind guessing.");
}
