//! Reproduces the **§4.1 IBRS/IBPB finding**: Intel's Spectre-v2
//! mitigations flush only indirect-branch predictor state, so
//! NightVision's direct-jump BTB entries — and the victim-induced updates
//! to them — survive the barriers.
//!
//! Three scenarios are measured with NV-Core:
//! 1. no barrier (control);
//! 2. IBPB issued between the victim fragment and the probe;
//! 3. a full BTB flush (the §8.2 mitigation that *does* jam the channel).

use nightvision::{AttackerRig, PwSpec};
use nv_bench::nop_fragment;
use nv_isa::VirtAddr;
use nv_uarch::{Core, UarchConfig};

fn run_scenario(name: &str, barrier: impl Fn(&mut Core)) {
    let pw = PwSpec::new(VirtAddr::new(0x40_0700), 16).expect("window");
    let mut core = Core::new(UarchConfig::default());
    let mut rig = AttackerRig::new(vec![pw]).expect("rig");
    rig.calibrate(&mut core).expect("calibrate");

    // Quiet probe with the barrier: false positives?
    barrier(&mut core);
    let quiet = rig.probe(&mut core).expect("probe")[0];

    // Victim fragment + barrier: does the signal survive?
    let mut v = nop_fragment(0x40_0700, 16);
    core.reset_frontend();
    core.run(&mut v, 100);
    barrier(&mut core);
    let signal = rig.probe(&mut core).expect("probe")[0];

    println!("{name:<22} quiet-probe-match={quiet:<5}  victim-signal-match={signal}");
}

fn main() {
    println!("# §4.1: IBRS/IBPB vs NightVision's direct-jump BTB state");
    run_scenario("no barrier", |_| {});
    run_scenario("IBPB (indirect only)", |core| {
        core.btb_mut().indirect_predictor_barrier();
    });
    run_scenario("full BTB flush", |core| core.btb_mut().flush());
    println!("# expected: IBPB behaves exactly like no barrier (signal survives,");
    println!("# no false positives); only a full flush disturbs the channel —");
    println!("# and it jams it (quiet probes look like matches), as §8.2 argues.");
}
