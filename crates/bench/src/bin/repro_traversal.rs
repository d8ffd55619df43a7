//! Sweeps `N`, the number of prediction windows chained per NV-Core call
//! in the NV-S discovery pass (Fig. 10: "the first pass takes 128/N
//! enclave executions"), measuring the attack's run budget and extraction
//! quality.
//!
//! Expected: the enclave-execution count follows `⌈128/N⌉ + 6` exactly
//! (counted from the extraction's `recon` and `extraction_run` spans and
//! asserted against that formula); extraction quality is N-independent
//! (each window measures its own BTB set, so chaining is free
//! parallelism).

use std::collections::BTreeSet;

use nightvision::{fingerprint, trace, NvSupervisor, SupervisorConfig};
use nv_bench::default_gcd;
use nv_isa::VirtAddr;
use nv_obs::{Phase, Recorder};
use nv_os::Enclave;
use nv_uarch::{Core, UarchConfig};

fn main() {
    let image = default_gcd();
    let reference: BTreeSet<u64> = image.static_pc_offsets().into_iter().collect();

    println!("# Fig. 10 traversal fan-out: N windows per NV-Core call");
    println!("N    enclave runs (discovery+refine+byte)   self-similarity");
    for n in [1usize, 2, 4, 8, 16] {
        let config = SupervisorConfig {
            windows_per_call: n,
        };
        let mut enclave = Enclave::new(image.program().clone());
        let mut core = Core::new(UarchConfig::default());
        core.attach_obs(Recorder::new(0));
        let extracted = NvSupervisor::new(config)
            .extract_trace(&mut enclave, &mut core)
            .expect("extraction");
        let metrics = core.detach_obs().expect("attached").metrics();
        let spans = |name| metrics.phase(Phase::Custom(name)).map_or(0, |s| s.count);
        let runs = spans("recon") + spans("extraction_run");
        let victim_set = trace::slice_extracted(&extracted)
            .into_iter()
            .max_by_key(|f| f.len())
            .map(|f| f.offset_set())
            .unwrap_or_default();
        let similarity = fingerprint::similarity(&victim_set, &reference);
        // Fig. 10: 1 reconnaissance + ceil(128/N) sweeps + 4 halvings + 1 byte.
        assert_eq!(runs, 1 + 128u64.div_ceil(n as u64) + 4 + 1, "N = {n}");
        println!(
            "{n:<4} {runs:>6} ({} sweep runs)              {:>6.1}%",
            128usize.div_ceil(n),
            similarity * 100.0
        );
    }
    println!("# paper (Fig. 10, N=2): 64 sweep runs; our default N=8 needs 16");
    println!("# N > 16 is rejected: each window costs two LBR records per probe,");
    println!("# and the LBR keeps only 32 — the fan-out's physical budget");
    let too_many: Vec<nightvision::PwSpec> = (0..17)
        .map(|i| nightvision::PwSpec::new(VirtAddr::new(0x40_0000 + i * 32), 32).expect("window"))
        .collect();
    let rejected = nightvision::AttackerRig::new(too_many);
    println!("17-window rig: {}", rejected.expect_err("must be rejected"));
}
