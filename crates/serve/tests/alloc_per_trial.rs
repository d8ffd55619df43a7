//! A warm NV-Core job allocates a bounded number of times per trial: each
//! trial clones the calibrated core and the pre-decoded victim fragment
//! the job runner keeps, instead of building, calibrating and decoding
//! them again.
//!
//! A counting global allocator tallies every allocation made on the
//! calling thread; a one-thread campaign runs its trials there.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use nv_serve::job::{run_job, JobSpec};

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

const TRIALS: usize = 32;

/// Allocations on this thread of one `run_job` of `spec` into a fresh
/// checkpoint.
fn job_allocations(spec: &JobSpec, name: &str) -> u64 {
    let path =
        std::env::temp_dir().join(format!("nv_serve_alloc_{name}_{}.ckpt", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let before = ALLOCATIONS.with(Cell::get);
    let report = run_job(1, spec, &path, None, |_| {}).expect("the job runs");
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    let _ = std::fs::remove_file(&path);
    assert_eq!(report.completed, TRIALS as u64);
    allocations
}

#[test]
fn a_warm_nv_core_job_stays_under_its_per_trial_allocation_bound() {
    let spec = JobSpec::nv_core(TRIALS, 0xa110_c8ed);
    // The first run fills the process-wide chain, calibrated core and
    // every fragment this spec draws; the second is the warm one.
    job_allocations(&spec, "cold");
    let warm = job_allocations(&spec, "warm");
    let per_trial = warm as f64 / TRIALS as f64;
    eprintln!("warm NV-Core job: {warm} allocations, {per_trial:.1} per trial");
    assert!(
        per_trial <= BOUND,
        "{per_trial:.1} allocations per trial exceed the bound of {BOUND}"
    );
}

/// Allocations per warm trial, job overhead included. Cloning the
/// calibrated core and the cached fragment makes 29.9 here; a trial that
/// builds its own core, calibrates a fresh chain clone on it and
/// assembles and decodes its fragment made 45.7.
const BOUND: f64 = 36.0;
