//! The NV-S inner loop is allocation-free once warm: a rig's prime,
//! probe, move and calibration, and the core's single step and speculative
//! run-ahead over calls and returns, take nothing from the heap; a whole
//! extraction builds one rig per window shape.
//!
//! A counting global allocator tallies every allocation made on the
//! calling thread, so tests running in parallel do not disturb each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use nightvision::{AttackerRig, NvSupervisor, PwSpec};
use nv_isa::{Assembler, VirtAddr};
use nv_os::Enclave;
use nv_uarch::{Core, Machine, UarchConfig};
use nv_victims::{GcdVictim, VictimConfig};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

impl Counting {
    fn count() {
        // `try_with`: allocations during thread teardown go uncounted.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Counting::count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Counting::count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Counting::count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations `work` makes on this thread.
fn allocations(work: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    work();
    ALLOCATIONS.with(Cell::get) - before
}

const ROUNDS: usize = 1_000;

#[test]
fn prime_and_probe_allocate_nothing_once_warm() {
    // The NV-S sweep rig: eight 32-byte windows, and a victim that runs
    // through two of them between prime and probe.
    let base = 0x40_0000;
    let pws = (0..8)
        .map(|w| PwSpec::new(VirtAddr::new(base + 32 * w), 32).unwrap())
        .collect();
    let mut rig = AttackerRig::new(pws).unwrap();
    let mut asm = Assembler::new(VirtAddr::new(base + 40));
    for _ in 0..40 {
        asm.nop();
    }
    asm.halt();
    let mut victim = Machine::new(asm.finish().unwrap());
    let mut core = Core::new(UarchConfig::default());
    rig.calibrate(&mut core).unwrap();

    let mut round = |core: &mut Core| {
        rig.prime(core).unwrap();
        victim.state_mut().set_pc(VirtAddr::new(base + 40));
        core.reset_frontend();
        core.run(&mut victim, 100);
        let matched = rig.probe(core).unwrap();
        assert_eq!(
            *matched,
            [false, true, true, false, false, false, false, false]
        );
        black_box(matched);
    };
    for _ in 0..10 {
        round(&mut core);
    }
    let made = allocations(|| {
        for _ in 0..ROUNDS {
            round(&mut core);
        }
    });
    assert_eq!(made, 0, "{made} allocations in {ROUNDS} prime/probe rounds");
}

#[test]
fn stepping_and_speculating_over_calls_allocate_nothing_once_warm() {
    // A loop calling a function that calls another. The run-ahead after
    // each step speculates through calls (stack writes into the memory
    // overlay, RSB pushes) and returns (RSB pops), all of which must be
    // rolled back.
    let mut asm = Assembler::new(VirtAddr::new(0x40_0000));
    asm.label("top");
    asm.call("f");
    asm.jmp32("top");
    asm.label("f");
    asm.nop();
    asm.call("g");
    asm.ret();
    asm.label("g");
    asm.nop();
    asm.ret();
    let mut machine = Machine::new(asm.finish().unwrap());
    let mut core = Core::new(UarchConfig::default());

    let mut round = |core: &mut Core| {
        black_box(core.step(&mut machine));
        core.speculate_ahead(&machine, 8);
    };
    for _ in 0..10 {
        round(&mut core);
    }
    let speculated = core.stats().speculated;
    let made = allocations(|| {
        for _ in 0..ROUNDS {
            round(&mut core);
        }
    });
    assert_eq!(core.stats().speculated - speculated, 8 * ROUNDS as u64);
    assert_eq!(
        made, 0,
        "{made} allocations in {ROUNDS} step/speculate rounds"
    );
}

#[test]
fn moving_and_calibrating_a_rig_allocate_nothing_once_warm() {
    // An NV-S refinement rig: one 8-byte window, moved from step to step
    // by odd distances (so its bundle masks are re-walked) and by whole
    // pages, and calibrated at each stop.
    let window = |start: u64| [PwSpec::new(VirtAddr::new(start), 8).unwrap()];
    let stops = [0x40_0130, 0x40_0113, 0x40_1113, 0x40_0f2d].map(window);
    let mut rig = AttackerRig::new(stops[0].to_vec()).unwrap();
    let mut core = Core::new(UarchConfig::default());

    let mut round = |core: &mut Core| {
        for stop in &stops {
            assert!(rig.retarget(stop));
            rig.calibrate(core).unwrap();
        }
    };
    for _ in 0..10 {
        round(&mut core);
    }
    let made = allocations(|| {
        for _ in 0..ROUNDS {
            round(&mut core);
        }
    });
    assert_eq!(
        made, 0,
        "{made} allocations in {ROUNDS} move/calibrate rounds"
    );
}

#[test]
fn an_extraction_builds_one_rig_per_window_shape() {
    // A paper-hardened GCD enclave of 68 steps. Rebuilding a rig whenever
    // a step's windows move made 3,629 allocations per warm extraction;
    // one rig per shape (the 8 x 32 B sweep, then 16, 8, 4 and 2 B) leaves
    // about 500: the runs' window buffers, the step records and five rig
    // builds.
    let victim = GcdVictim::build(27, 12, &VictimConfig::paper_hardened()).unwrap();
    let mut enclave = Enclave::new(victim.program().clone());
    let mut core = Core::new(UarchConfig::default());
    let supervisor = NvSupervisor::default();
    let mut extract = || supervisor.extract_trace(&mut enclave, &mut core).unwrap();
    let steps = extract().len();
    let made = allocations(|| {
        black_box(extract());
    });
    assert!(
        made <= 1_000,
        "{made} allocations in one extraction of {steps} steps"
    );
}
