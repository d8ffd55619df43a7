//! Reproduces the **defense matrix** of §5/Figure 8: which attacks survive
//! which software/hardware mitigations.
//!
//! Rows are victim configurations; columns are channels:
//!
//! * `count` — instruction counting (CopyCat/Nemesis class);
//! * `branch` — branch-PC probing (BranchShadowing class);
//! * `nv-u` — NightVision-User.
//!
//! Expected outcome (the paper's argument): every mitigation except
//! data-oblivious programming stops *some prior channel* but not
//! NightVision.

use nightvision::baselines::{infer_from_counts, BranchTargetProbe};
use nightvision::{NoiseModel, NvUser};
use nv_bench::row;
use nv_os::System;
use nv_uarch::UarchConfig;
use nv_victims::{GcdVictim, VictimConfig, VictimProgram};

/// Whether a channel recovers every branch direction of `victim`.
/// `barrier` inserts an IBPB after every victim slice.
fn nv_u_works(victim: &VictimProgram, barrier: bool) -> bool {
    let Ok(mut attacker) = NvUser::for_victim(victim, NoiseModel::none()) else {
        return false;
    };
    let mut system = System::new(UarchConfig::default());
    let pid = system.spawn(victim.program().clone());
    if !barrier {
        let Ok(readings) = attacker.leak_directions(&mut system, pid, 100_000) else {
            return false;
        };
        return NvUser::infer_directions(&readings) == victim.directions();
    }
    // Barrier variant: step slices by hand, issuing IBPB between them.
    let mut readings = Vec::new();
    if attacker.begin(&mut system).is_err() {
        return false;
    }
    loop {
        match system.run(pid, 1_000_000) {
            nv_os::RunOutcome::Yielded => {
                system.core_mut().btb_mut().indirect_predictor_barrier();
                match attacker.measure_slice(&mut system) {
                    Ok(reading) => readings.push(reading),
                    Err(_) => return false,
                }
            }
            nv_os::RunOutcome::Exited => break,
            _ => return false,
        }
    }
    NvUser::infer_directions(&readings) == victim.directions()
}

/// The counting channel is evaluated on bn_cmp (whose loop trip count is
/// data-independent for same-shape operands): GCD's secret-dependent
/// shift loops drown the then/else imbalance in count variance, so even
/// the unhardened GCD is count-safe — counting needs a victim whose only
/// count asymmetry *is* the branch.
fn count_channel_works(config: &VictimConfig) -> bool {
    let mut counts = Vec::new();
    let mut truths = Vec::new();
    for (a, b) in [(&[9u64][..], &[5u64][..]), (&[5u64][..], &[9u64][..])] {
        let Ok(victim) = nv_victims::BnCmpVictim::build(a, b, config) else {
            return false;
        };
        truths.extend_from_slice(victim.directions());
        let mut system = System::new(UarchConfig::default());
        let pid = system.spawn(victim.program().clone());
        let mut retired = 0u64;
        loop {
            let step = system.step(pid);
            retired += step.retired_count() as u64;
            if step.syscall == Some(nv_os::syscalls::YIELD) {
                counts.push(retired);
                break;
            }
            if step.halted || step.fault.is_some() {
                return false;
            }
        }
    }
    let recovered: Vec<bool> = infer_from_counts(&counts).into_iter().flatten().collect();
    recovered == truths
}

fn branch_channel_works(victim: &VictimProgram) -> bool {
    let Some(probe) = BranchTargetProbe::locate(victim) else {
        return false;
    };
    let mut system = System::new(UarchConfig::default());
    let pid = system.spawn(victim.program().clone());
    probe.leak_directions(&mut system, pid, 100_000) == victim.directions()
}

fn main() {
    let a = 0xdead_beefu64;
    let b = 65537u64;
    let configs: Vec<(&str, VictimConfig, bool)> = vec![
        ("unhardened", VictimConfig::unhardened(), false),
        ("balanced + align16", VictimConfig::paper_hardened(), false),
        ("balanced + align16 + CFR", VictimConfig::with_cfr(7), false),
        ("balanced + CFR + IBPB", VictimConfig::with_cfr(7), true),
        (
            "data-oblivious (cmov)",
            VictimConfig::data_oblivious(),
            false,
        ),
    ];

    println!("# Defense matrix (§5, Figure 8): does the channel recover the secret?");
    let widths = [26, 8, 8, 8];
    println!("{}", row(&["victim", "count", "branch", "nv-u"], &widths));
    let mark = |works: bool| if works { "LEAKS" } else { "safe" }.to_string();
    for (name, config, barrier) in configs {
        let victim = GcdVictim::build(a, b, &config).expect("victim builds");
        let count = count_channel_works(&config);
        let branch = branch_channel_works(&victim);
        let nv = nv_u_works(&victim, barrier);
        println!(
            "{}",
            row(&[name.into(), mark(count), mark(branch), mark(nv)], &widths)
        );
    }
    println!("# paper: only data-oblivious programming stops NightVision (§8.2)");
}
