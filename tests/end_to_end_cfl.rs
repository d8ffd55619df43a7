//! End-to-end control-flow-leakage attacks (§5, §7.2) across the whole
//! stack: victims built by `nv-victims`, scheduled by `nv-os`, attacked
//! through `nightvision` on the `nv-uarch` core.

use nightvision::{NoiseModel, NvUser};
use nv_os::System;
use nv_uarch::{CpuGeneration, UarchConfig};
use nv_victims::{BnCmpVictim, GcdVictim, RsaKeygen, VictimConfig};

fn leak(victim: &nv_victims::VictimProgram, config: UarchConfig) -> Vec<bool> {
    let mut system = System::new(config);
    let pid = system.spawn(victim.program().clone());
    let mut attacker = NvUser::for_victim(victim, NoiseModel::none()).expect("attacker");
    let readings = attacker
        .leak_directions(&mut system, pid, 100_000)
        .expect("attack");
    NvUser::infer_directions(&readings)
}

#[test]
fn gcd_keys_leak_across_many_runs() {
    // 20 independent key generations; every direction recovered exactly.
    let mut keygen = RsaKeygen::new(0x5eed);
    for _ in 0..20 {
        let run = keygen.next_run();
        let victim = GcdVictim::build(run.secret, run.public, &VictimConfig::paper_hardened())
            .expect("victim");
        assert_eq!(
            leak(&victim, UarchConfig::default()),
            victim.directions(),
            "secret {:#x}",
            run.secret
        );
    }
}

#[test]
fn attack_works_on_every_cpu_generation() {
    // §2.3: the behaviour is consistent across SkyLake..IceLake. The rig
    // must use the generation's aliasing distance.
    use nightvision::{AttackerRig, PwSpec};
    use nv_isa::{Assembler, VirtAddr};
    use nv_uarch::{Core, Machine};
    for generation in CpuGeneration::all() {
        let config = UarchConfig::for_generation(generation);
        let distance = 1u64 << generation.tag_cutoff_bit();
        let mut asm = Assembler::new(VirtAddr::new(0x40_0200));
        for _ in 0..12 {
            asm.nop();
        }
        asm.halt();
        let mut victim = Machine::new(asm.finish().unwrap());
        let mut core = Core::new(config);
        let pw = PwSpec::new(VirtAddr::new(0x40_0200), 12).unwrap();
        let mut rig = AttackerRig::with_alias_distance(vec![pw], distance).unwrap();
        rig.calibrate(&mut core).unwrap();
        core.reset_frontend();
        core.run(&mut victim, 100);
        assert_eq!(
            rig.probe(&mut core).unwrap().to_vec(),
            vec![true],
            "{generation:?} must leak at distance {distance:#x}"
        );
    }
}

#[test]
fn wrong_alias_distance_fails_on_icelake() {
    // An 8 GiB-aliased rig does not collide under IceLake's 34-bit cutoff.
    use nightvision::{AttackerRig, PwSpec};
    use nv_isa::{Assembler, VirtAddr};
    use nv_uarch::{Core, Machine};
    let config = UarchConfig::for_generation(CpuGeneration::IceLake);
    let mut asm = Assembler::new(VirtAddr::new(0x40_0200));
    for _ in 0..12 {
        asm.nop();
    }
    asm.halt();
    let mut victim = Machine::new(asm.finish().unwrap());
    let mut core = Core::new(config);
    let pw = PwSpec::new(VirtAddr::new(0x40_0200), 12).unwrap();
    let mut rig = AttackerRig::with_alias_distance(vec![pw], 1 << 33).unwrap();
    rig.calibrate(&mut core).unwrap();
    core.reset_frontend();
    core.run(&mut victim, 100);
    assert_eq!(
        rig.probe(&mut core).unwrap().to_vec(),
        vec![false],
        "8 GiB aliasing must not work on IceLake"
    );
}

#[test]
fn cfr_and_alignment_do_not_stop_the_attack() {
    let victim = GcdVictim::build(0xfeed_f00d, 65537, &VictimConfig::with_cfr(123)).unwrap();
    assert_eq!(leak(&victim, UarchConfig::default()), victim.directions());
}

#[test]
fn bn_cmp_hundred_runs_are_perfect() {
    // §7.2: 100% accuracy across 100 different runs.
    let mut keygen = RsaKeygen::new(31337);
    for _ in 0..100 {
        let a = keygen.next_run().secret | 1;
        let b = keygen.next_run().secret | 1;
        let victim = BnCmpVictim::build(&[a], &[b], &VictimConfig::paper_hardened()).unwrap();
        assert_eq!(leak(&victim, UarchConfig::default()), victim.directions());
    }
}

#[test]
fn noisy_gcd_accuracy_is_about_99_percent() {
    // §7.2's 99.3% under the calibrated noise model (large sample).
    let mut keygen = RsaKeygen::new(2023);
    let mut total = 0usize;
    let mut correct = 0usize;
    for run_idx in 0..60 {
        let run = keygen.next_run();
        let victim =
            GcdVictim::build(run.secret, run.public, &VictimConfig::paper_hardened()).unwrap();
        let mut system = System::new(UarchConfig::default());
        let pid = system.spawn(victim.program().clone());
        let mut attacker = NvUser::for_victim(&victim, NoiseModel::paper_gcd(run_idx)).unwrap();
        let readings = attacker.leak_directions(&mut system, pid, 100_000).unwrap();
        let inferred = NvUser::infer_directions(&readings);
        total += victim.directions().len();
        correct += inferred
            .iter()
            .zip(victim.directions())
            .filter(|(a, b)| a == b)
            .count();
    }
    let accuracy = correct as f64 / total as f64;
    assert!(
        (0.97..1.0).contains(&accuracy),
        "noisy accuracy {accuracy} should sit near the paper's 0.993"
    );
}

#[test]
fn data_oblivious_rewrite_is_the_working_mitigation() {
    let victim = GcdVictim::build(0xfeed_f00d, 65537, &VictimConfig::data_oblivious()).unwrap();
    assert!(NvUser::for_victim(&victim, NoiseModel::none()).is_err());
}

#[test]
fn btb_hardening_mitigations_block_the_attack() {
    // §8.2: flushing and domain isolation jam the channel — every slice
    // reads the same pattern, so the inferred sequence is a constant
    // guess, not the secret.
    use nv_os::BtbMitigation;
    let victim = GcdVictim::build(0xbeef_1235, 65537, &VictimConfig::paper_hardened()).unwrap();
    for mitigation in [BtbMitigation::FlushOnSwitch, BtbMitigation::DomainIsolation] {
        let mut system = System::with_mitigation(UarchConfig::default(), mitigation);
        let pid = system.spawn(victim.program().clone());
        let mut attacker = NvUser::for_victim(&victim, NoiseModel::none()).unwrap();
        let readings = attacker.leak_directions(&mut system, pid, 100_000).unwrap();
        let inferred = NvUser::infer_directions(&readings);
        assert_ne!(
            inferred,
            victim.directions(),
            "{mitigation:?} must not leak the exact secret"
        );
        // The readings carry no per-iteration information: they are all
        // identical.
        assert!(
            readings.windows(2).all(|w| w[0] == w[1]),
            "{mitigation:?} should make every slice look the same"
        );
    }
}

#[test]
fn modexp_private_exponent_leaks_bit_for_bit() {
    // Square-and-multiply with a balanced dummy multiply: the classic RSA
    // target. The leaked direction sequence IS the private exponent.
    use nv_victims::ModExpVictim;
    for exponent in [0b1u64, 0b1011_0111, 0xbeef, (1 << 15) | 1] {
        let victim =
            ModExpVictim::build(7, exponent, 1_000_003, &VictimConfig::paper_hardened()).unwrap();
        let inferred = leak(&victim, UarchConfig::default());
        let leaked: u64 = inferred
            .iter()
            .enumerate()
            .map(|(i, &bit)| (bit as u64) << i)
            .sum();
        assert_eq!(leaked, exponent, "exponent recovered verbatim");
    }
}

#[test]
fn modexp_under_cfr_still_leaks() {
    use nv_victims::ModExpVictim;
    let victim = ModExpVictim::build(5, 0b1_1001_0101, 9973, &VictimConfig::with_cfr(17)).unwrap();
    assert_eq!(leak(&victim, UarchConfig::default()), victim.directions());
}

#[test]
fn modexp_data_oblivious_is_safe() {
    use nv_victims::ModExpVictim;
    let victim = ModExpVictim::build(5, 0b1011, 9973, &VictimConfig::data_oblivious()).unwrap();
    assert!(NvUser::for_victim(&victim, NoiseModel::none()).is_err());
}

#[test]
fn excess_preemptions_are_detected_and_discarded() {
    // §5.2: without sched_yield synchronization the attacker's slices
    // sometimes contain no victim progress; monitoring both sides detects
    // those (neither window matches) and the attack discards them. With
    // scheduling noise as the *only* noise, detection is exact and the
    // recovery stays perfect.
    let run = RsaKeygen::new(77).next_run();
    let victim = GcdVictim::build(run.secret, run.public, &VictimConfig::paper_hardened()).unwrap();
    let mut system = System::new(UarchConfig::default());
    let pid = system.spawn(victim.program().clone());
    // Seed chosen so the 5% preemption noise actually fires within this
    // victim's ~35 slices (not every seed does at that rate).
    let noise = NoiseModel {
        flip_prob: 0.0,
        ..NoiseModel::preemptive(6)
    };
    let mut attacker = NvUser::for_victim(&victim, noise).unwrap();
    let readings = attacker.leak_directions(&mut system, pid, 100_000).unwrap();
    // More slices than iterations (the excess preemptions) ...
    assert!(readings.len() > victim.directions().len());
    let discarded = readings.iter().filter(|r| r.inferred.is_none()).count();
    assert_eq!(
        discarded,
        readings.len() - victim.directions().len(),
        "every excess slice detected, every real one kept"
    );
    // ... and the secret is still recovered exactly.
    assert_eq!(NvUser::infer_directions(&readings), victim.directions());
}

#[test]
fn unsynchronized_mode_with_misreads_degrades_by_misalignment() {
    // §8.1: with *both* scheduling and measurement noise, a dropped real
    // slice desynchronizes the attacker — the limitation the paper assigns
    // to the preemptive-scheduling technique. Averaged over runs the
    // attack still recovers most bits, but individual runs can shear.
    let mut keygen = RsaKeygen::new(99);
    let mut accuracies = Vec::new();
    for seed in 0..15u64 {
        let run = keygen.next_run();
        let victim =
            GcdVictim::build(run.secret, run.public, &VictimConfig::paper_hardened()).unwrap();
        let mut system = System::new(UarchConfig::default());
        let pid = system.spawn(victim.program().clone());
        let mut attacker = NvUser::for_victim(&victim, NoiseModel::preemptive(seed)).unwrap();
        let readings = attacker.leak_directions(&mut system, pid, 100_000).unwrap();
        let inferred = NvUser::infer_directions(&readings);
        accuracies.push(NvUser::accuracy(&inferred, victim.directions()));
    }
    let mean = accuracies.iter().sum::<f64>() / accuracies.len() as f64;
    assert!(mean >= 0.8, "mean unsynchronized accuracy {mean} collapsed");
    let perfect = accuracies.iter().filter(|&&a| a == 1.0).count();
    assert!(
        perfect >= accuracies.len() / 2,
        "most runs should still be exact ({perfect}/{})",
        accuracies.len()
    );
}
