//! Reproduces the **§7.2 control-flow-leakage evaluation**:
//!
//! * GCD (mbedTLS-style binary GCD inside RSA key generation), hardened
//!   with branch balancing and `-falign-jumps=16`, attacked by NV-U over
//!   100 runs of ~30 balanced-branch iterations each. Paper: **99.3 %**
//!   direction accuracy.
//! * bn_cmp (IPP-Crypto-style big-number compare), same hardening, 100
//!   runs. Paper: **100 %**.
//!
//! Runs fan out across worker threads through the campaign engine; the
//! printed numbers are byte-identical for any `--threads` value.
//!
//! Flags: `--victim gcd|bn-cmp|modexp|both` (default both), `--runs N`
//! (default 100), `--threads N` (default 1), `--noiseless` (disable the
//! environmental noise model).

use nightvision::campaign::Campaign;
use nightvision::{NoiseModel, NvUser};
use nv_bench::{arg_present, arg_value, threads_flag};
use nv_os::System;
use nv_uarch::UarchConfig;
use nv_victims::{BnCmpVictim, GcdVictim, ModExpVictim, RsaKeygen, VictimConfig};

fn gcd_experiment(runs: usize, noiseless: bool, threads: usize) {
    // Keygen is a sequential stream: draw every run's operands up front
    // (cheap), then fan the expensive attacks out.
    let samples = RsaKeygen::new(2023).runs(runs);
    let (total_iters, correct) = Campaign::new(runs)
        .threads(threads)
        .run(|trial| {
            let sample = &samples[trial.index];
            let victim = GcdVictim::build(
                sample.secret,
                sample.public,
                &VictimConfig::paper_hardened(),
            )
            .expect("victim builds");
            let mut system = System::new(UarchConfig::default());
            let pid = system.spawn(victim.program().clone());
            let noise = if noiseless {
                NoiseModel::none()
            } else {
                NoiseModel::paper_gcd(trial.index as u64)
            };
            let mut attacker = NvUser::for_victim(&victim, noise).expect("attacker builds");
            let readings = attacker
                .leak_directions(&mut system, pid, 100_000)
                .expect("attack completes");
            let inferred = NvUser::infer_directions(&readings);
            let truth = victim.directions();
            let correct = inferred.iter().zip(truth).filter(|(a, b)| a == b).count();
            (truth.len(), correct)
        })
        .into_iter()
        .fold((0usize, 0usize), |(iters, ok), (trial_iters, trial_ok)| {
            (iters + trial_iters, ok + trial_ok)
        });
    let accuracy = 100.0 * correct as f64 / total_iters as f64;
    println!(
        "GCD  : {runs} runs, {total_iters} balanced-branch iterations, accuracy {accuracy:.1}%"
    );
    println!("       paper reports 99.3% (noise on) / relies on a noise-free slice being exact");
}

fn bn_cmp_experiment(runs: usize, threads: usize) {
    let mut keygen = RsaKeygen::new(99);
    let operands: Vec<(u64, u64)> = (0..runs)
        .map(|_| (keygen.next_run().secret | 1, keygen.next_run().secret | 1))
        .collect();
    let correct = Campaign::new(runs)
        .threads(threads)
        .run(|trial| {
            let (a, b) = operands[trial.index];
            let victim = BnCmpVictim::build(&[a], &[b], &VictimConfig::paper_hardened())
                .expect("victim builds");
            let mut system = System::new(UarchConfig::default());
            let pid = system.spawn(victim.program().clone());
            let mut attacker =
                NvUser::for_victim(&victim, NoiseModel::none()).expect("attacker builds");
            let readings = attacker
                .leak_directions(&mut system, pid, 10_000)
                .expect("attack completes");
            NvUser::infer_directions(&readings) == victim.directions()
        })
        .into_iter()
        .fold(0usize, |count, ok| count + usize::from(ok));
    println!(
        "bn_cmp: {runs} runs, accuracy {:.1}%  (paper reports 100%)",
        100.0 * correct as f64 / runs as f64
    );
}

/// Beyond the paper's two victims: leak a full RSA private exponent from
/// balanced square-and-multiply (the textbook target every control-flow
/// channel is ultimately after).
fn modexp_experiment(runs: usize, threads: usize) {
    let perfect = Campaign::new(runs)
        .master_seed(0xe0e0)
        .threads(threads)
        .run(|mut trial| {
            let modulus = 1_000_003u64;
            let base = trial.rng.gen_range(2..modulus);
            let exponent = trial.rng.gen_range(3u64..(1 << 16)) | 1;
            let victim =
                ModExpVictim::build(base, exponent, modulus, &VictimConfig::paper_hardened())
                    .expect("victim builds");
            let mut system = System::new(UarchConfig::default());
            let pid = system.spawn(victim.program().clone());
            let mut attacker =
                NvUser::for_victim(&victim, NoiseModel::none()).expect("attacker builds");
            let readings = attacker
                .leak_directions(&mut system, pid, 100_000)
                .expect("attack completes");
            let inferred = NvUser::infer_directions(&readings);
            // Reassemble the exponent from the leaked bits (LSB first).
            let leaked: u64 = inferred
                .iter()
                .enumerate()
                .map(|(i, &bit)| (bit as u64) << i)
                .sum();
            leaked == exponent
        })
        .into_iter()
        .fold(0usize, |count, ok| count + usize::from(ok));
    println!(
        "modexp: {runs} runs, full private exponent recovered in {:.1}% of runs",
        100.0 * perfect as f64 / runs as f64
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let runs: usize = arg_value(&args, "--runs")
        .and_then(|v| v.parse().ok())
        .unwrap_or(100);
    let victim = arg_value(&args, "--victim").unwrap_or_else(|| "both".into());
    let noiseless = arg_present(&args, "--noiseless");
    let threads = threads_flag(&args);
    println!("# §7.2 control-flow leakage reproduction (balanced + -falign-jumps=16)");
    if victim == "gcd" || victim == "both" {
        gcd_experiment(runs, noiseless, threads);
    }
    if victim == "bn-cmp" || victim == "both" {
        bn_cmp_experiment(runs, threads);
    }
    if victim == "modexp" || victim == "both" {
        modexp_experiment(runs, threads);
    }
}
