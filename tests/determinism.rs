//! Reproducibility guarantees: every layer of the stack is a pure
//! function of its seeds and inputs, so the figures regenerate
//! bit-for-bit.

use nightvision::{NoiseModel, NvSupervisor, NvUser};
use nv_bench::noise::run_sweep;
use nv_bench::obs_profile::{campaign_profile, profile_nv_s};
use nv_corpus::{generate, CorpusConfig};
use nv_isa::VirtAddr;
use nv_obs::Recorder;
use nv_os::{Enclave, System};
use nv_uarch::{Core, Machine, Perturbation, UarchConfig};
use nv_victims::compile::{compile_gcd, CompileOptions};
use nv_victims::{GcdVictim, RsaKeygen, VictimConfig};

#[test]
fn simulator_runs_are_bit_identical() {
    let image = compile_gcd(
        &CompileOptions::default(),
        VirtAddr::new(0x40_0000),
        0xabc_def,
        65537,
    )
    .unwrap();
    let run = || {
        let mut machine = Machine::new(image.program().clone());
        let mut core = Core::new(UarchConfig::default());
        core.run(&mut machine, 1_000_000);
        (
            core.cycle(),
            core.stats(),
            machine.state().reg(nv_isa::Reg::R0),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn nv_s_extractions_are_identical() {
    let image = compile_gcd(&CompileOptions::default(), VirtAddr::new(0x40_0000), 48, 18).unwrap();
    let extract = || {
        let mut enclave = Enclave::new(image.program().clone());
        let mut core = Core::new(UarchConfig::default());
        NvSupervisor::default()
            .extract_trace(&mut enclave, &mut core)
            .unwrap()
            .pcs()
    };
    assert_eq!(extract(), extract());
}

#[test]
fn noisy_nv_u_is_seed_deterministic() {
    let run = RsaKeygen::new(1).next_run();
    let victim = GcdVictim::build(run.secret, run.public, &VictimConfig::paper_hardened()).unwrap();
    let attack = |seed: u64| {
        let mut system = System::new(UarchConfig::default());
        let pid = system.spawn(victim.program().clone());
        let mut attacker = NvUser::for_victim(&victim, NoiseModel::paper_gcd(seed)).unwrap();
        let readings = attacker.leak_directions(&mut system, pid, 100_000).unwrap();
        NvUser::infer_directions(&readings)
    };
    assert_eq!(attack(7), attack(7));
    // Determinism, not constancy: some seed in a small range must differ
    // (the noise model actually fires).
    let base = attack(0);
    assert!(
        (1..40).any(|seed| attack(seed) != base),
        "noise model never fired across 40 seeds"
    );
}

#[test]
fn noise_sweep_is_identical_across_thread_counts() {
    // The fault injector's seeds come from per-trial child streams, so
    // the whole eviction × jitter sweep — injected faults and all — is a
    // pure function of its master seed. This is the `repro_noise_sweep`
    // determinism contract at test scale.
    let serial = run_sweep(3, 1).to_json();
    for threads in [2, 8] {
        assert_eq!(
            serial,
            run_sweep(3, threads).to_json(),
            "noise sweep diverged at {threads} threads"
        );
    }
}

#[test]
fn quiet_perturbation_leaves_simulation_byte_identical() {
    // `Perturbation::none()` must not merely inject nothing: it must make
    // the core bit-indistinguishable from one that predates the injector,
    // even after noisy state is torn down via `set_perturbation`.
    let image = compile_gcd(
        &CompileOptions::default(),
        VirtAddr::new(0x40_0000),
        0xabc_def,
        65537,
    )
    .unwrap();
    let run = |core: &mut Core| {
        let mut machine = Machine::new(image.program().clone());
        core.run(&mut machine, 1_000_000);
        (
            core.cycle(),
            core.stats(),
            machine.state().reg(nv_isa::Reg::R0),
        )
    };
    let baseline = run(&mut Core::new(UarchConfig::default()));
    let mut explicit_none = Core::new(UarchConfig {
        perturbation: Perturbation::none(),
        ..UarchConfig::default()
    });
    assert_eq!(run(&mut explicit_none), baseline);
    let mut reset_to_none = Core::new(UarchConfig {
        perturbation: Perturbation::paper_calibrated(77),
        ..UarchConfig::default()
    });
    reset_to_none.set_perturbation(Perturbation::none());
    assert_eq!(run(&mut reset_to_none), baseline);
}

#[test]
fn observed_metrics_are_identical_across_thread_counts() {
    // `campaign_profile` merges per-trial recorder metrics in trial-index
    // order, so the aggregate JSON — counters, penalty cycles, phase
    // histograms — is byte-identical for any worker count.
    let (serial_results, serial_metrics) = campaign_profile(5, 1);
    let serial_json = serial_metrics.to_json();
    for threads in [2, 8] {
        let (results, metrics) = campaign_profile(5, threads);
        assert_eq!(
            serial_results, results,
            "observed campaign results diverged at {threads} threads"
        );
        assert_eq!(
            serial_json,
            metrics.to_json(),
            "observed campaign metrics diverged at {threads} threads"
        );
    }
}

#[test]
fn attached_recorder_leaves_simulation_byte_identical() {
    // Observability must observe, not perturb: the same run with an
    // *enabled* recorder attached retires the same instructions in the
    // same cycles as the bare core — and repeated observed runs agree
    // with each other down to the metrics JSON.
    let image = compile_gcd(
        &CompileOptions::default(),
        VirtAddr::new(0x40_0000),
        0xabc_def,
        65537,
    )
    .unwrap();
    let run = |core: &mut Core| {
        let mut machine = Machine::new(image.program().clone());
        core.run(&mut machine, 1_000_000);
        (
            core.cycle(),
            core.stats(),
            machine.state().reg(nv_isa::Reg::R0),
        )
    };
    let baseline = run(&mut Core::new(UarchConfig::default()));
    let observed = || {
        let mut core = Core::new(UarchConfig::default());
        core.attach_obs(Recorder::new(1 << 12));
        let result = run(&mut core);
        let metrics = core.detach_obs().unwrap().metrics();
        (result, metrics.to_json())
    };
    let (first_result, first_metrics) = observed();
    assert_eq!(first_result, baseline);
    assert_eq!(observed(), (first_result, first_metrics));
}

#[test]
fn nv_s_profile_is_reproducible() {
    // The full observed NV-S extraction is a pure function of its inputs:
    // same phase breakdown, same event counts, run after run.
    let a = profile_nv_s();
    let b = profile_nv_s();
    assert_eq!(a.steps, b.steps);
    assert_eq!(a.resolved_pcs, b.resolved_pcs);
    assert_eq!(a.metrics.to_json(), b.metrics.to_json());
}

#[test]
fn corpus_and_keygen_are_pure_functions_of_seeds() {
    let c1 = generate(&CorpusConfig {
        functions: 64,
        ..CorpusConfig::default()
    });
    let c2 = generate(&CorpusConfig {
        functions: 64,
        ..CorpusConfig::default()
    });
    for (a, b) in c1.functions().iter().zip(c2.functions()) {
        assert_eq!(a.static_offsets(), b.static_offsets());
        assert_eq!(a.dynamic_offsets(), b.dynamic_offsets());
    }
    assert_eq!(RsaKeygen::new(9).runs(10), RsaKeygen::new(9).runs(10));
}

#[test]
fn cfr_randomization_depends_only_on_its_seed() {
    let build = |seed| {
        GcdVictim::build(48, 18, &VictimConfig::with_cfr(seed))
            .unwrap()
            .program()
            .symbol("gcd.cfr_trampoline")
            .unwrap()
    };
    assert_eq!(build(5), build(5));
    assert_ne!(build(5), build(6));
}
