//! Quickstart: the NightVision channel in ~60 lines.
//!
//! 1. Build a victim whose code executes (or not) inside a chosen range.
//! 2. Build an attacker rig monitoring that range from 8 GiB away.
//! 3. Prime, let the victim run, probe — and read the answer.
//!
//! Run with: `cargo run --example quickstart`

use nightvision::{AttackerRig, PwSpec};
use nv_isa::{Assembler, VirtAddr};
use nv_uarch::{Core, Machine, UarchConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A "victim": straight-line code at 0x40_1000 — no branches at all.
    // Classic BTB attacks see nothing here; NightVision does.
    let mut asm = Assembler::new(VirtAddr::new(0x40_1000));
    for _ in 0..12 {
        asm.nop();
    }
    asm.halt();
    let mut victim = Machine::new(asm.finish()?);

    // One shared core = one shared BTB.
    let mut core = Core::new(UarchConfig::default());

    // Monitor the 16-byte range [0x40_1000, 0x40_1010). The rig's snippet
    // lives at +8 GiB, where the BTB's truncated tags cannot tell the
    // difference (Takeaway 2 of the paper).
    let window = PwSpec::new(VirtAddr::new(0x40_1000), 16)?;
    let mut rig = AttackerRig::new(vec![window])?;
    rig.calibrate(&mut core)?;

    // Quiet probe: nothing ran, nothing matched.
    assert_eq!(rig.probe(&mut core)?.to_vec(), vec![false]);
    println!("quiet probe          -> no match (as expected)");

    // The victim executes its nops: each one that aliases the primed
    // entry false-hits it, and the entry is deallocated (Takeaway 1).
    core.reset_frontend();
    core.run(&mut victim, 100);
    let matched = rig.probe(&mut core)?[0];
    println!("probe after victim   -> match = {matched}");
    assert!(matched, "the victim's nops must leak their addresses");

    // And the probe re-primed the channel for the next measurement.
    assert_eq!(rig.probe(&mut core)?.to_vec(), vec![false]);
    println!("follow-up probe      -> no match (channel re-armed)");

    println!("\nNightVision observed *non-control-transfer* instructions through the BTB.");
    Ok(())
}
