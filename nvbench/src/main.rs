//! The NightVision benchmark.
//!
//! ```text
//! nvbench --workload <nvs-extract|nvu-leak|serve-small> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` a run sets the workload up five times (reporting the
//! median set-up time), measures it for `--seconds`, checks every output
//! against ground truth and prints the end-to-end metrics, with host time
//! scaled to a nominal host speed by a reference kernel timed between
//! measurement windows (see `util::reference_s`). With
//! `--trace 1` it prints the per-layer ledger instead: the workload run
//! untraced and traced (spans from this program's own calls), the
//! simulated-statistics digest at campaign threads 1 and 2, direct-drive
//! timings of every layer, and the NV-S reconciliation. The last line of
//! standard output is one JSON object; the exit code is 0 only when every
//! correctness check passed.

mod layers;
mod nvs;
mod nvu;
mod serve;
mod util;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use util::{percentile, ratio, Budget, Ledger, Outcome, Scratch, Tracer};

/// Counts allocations while [`COUNTING`] is set, for `allocs_per_trial`.
struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static UNCOUNTED: Cell<bool> = const { Cell::new(false) };
}

fn count_allocation() {
    if COUNTING.load(Ordering::Relaxed) && !UNCOUNTED.try_with(Cell::get).unwrap_or(true) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Leaves the calling thread's allocations out of `allocs_per_trial`
/// (and off its shared counter), for threads that are not the workload.
fn uncounted_thread() {
    UNCOUNTED.with(|uncounted| uncounted.set(true));
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the same as `GlobalAlloc`'s; counting only touches atomics
// and a constant-initialised thread-local flag, neither of which allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// The end-to-end metrics every untraced run prints, with their units.
const END_TO_END: [&str; 7] = [
    "setup_s",
    "peak_rss_mb",
    "ok_frac",
    "accuracy",
    "ops_per_s",
    "op_ms_p50",
    "op_ms_tail",
];

/// The per-layer metrics every traced run prints.
const PER_LAYER: [&str; 52] = [
    "victims.build_us",
    "uarch.predecode_us",
    "uarch.fetch_ns",
    "uarch.core.step_ns",
    "uarch.core.steps",
    "uarch.core.retired",
    "uarch.core.squashes",
    "uarch.core.speculated",
    "uarch.core.fused_pairs",
    "uarch.btb.lookups",
    "uarch.btb.hit_ratio",
    "uarch.btb.allocations",
    "uarch.btb.deallocations",
    "uarch.btb.evictions",
    "os.single_step_ns",
    "os.enclave_reset_us",
    "os.system_run_us",
    "os.slices",
    "rig.build_us",
    "rig.calibrate_us",
    "rig.prime_us",
    "rig.probe_us",
    "rig.calibrations",
    "rig.probes",
    "nvs.passes",
    "nvs.steps",
    "nvs.resolved_pcs",
    "nvs.extract_ms",
    "nvs.step_share",
    "nvs.rig_share",
    "nvs.unexplained_frac",
    "nvu.leak_us",
    "nvu.slices_per_run",
    "nvu.discarded_frac",
    "campaign.trial_overhead_us_t1",
    "campaign.trial_overhead_us_t2",
    "checkpoint.append_us",
    "obs.events",
    "obs.dropped_events",
    "serve.admit_us",
    "serve.first_update_ms",
    "serve.stream_ms",
    "serve.run_job_ms",
    "serve.overhead_ms",
    "serve.wire.encode_ns",
    "serve.wire.decode_ns",
    "serve.journal.append_us",
    "serve.peak_queue_depth",
    "serve.rejected",
    "allocs_per_trial",
    "trace_overhead_frac",
    "host.cpus",
];

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Share of `--seconds` each half of a traced run measures.
const TRACED_HALF: f64 = 0.4;

/// One benchmark workload.
pub trait Workload: Sized + Sync {
    /// The tail percentile reported: the highest with ≥ 10 samples beyond
    /// it at [`Workload::MIN_OPS`].
    const TAIL_PCT: f64;
    const MIN_OPS: usize;
    /// Seeded inputs built at set-up: enough that a run rarely repeats one.
    const POOL: usize;
    /// What one operation is, for the printed table.
    const OP: &'static str;
    /// The unit of useful work `ops_per_s` counts.
    const UNIT: &'static str;

    /// Builds `pool` seeded inputs plus whatever runs them, and warms up.
    fn setup(seed: u64, pool: usize, scratch: &Scratch) -> Self;
    /// Runs operations until `budget` is spent.
    fn measure(&self, budget: Budget, tracer: &Tracer) -> Outcome;
    /// Puts the workload's per-layer metrics, using the spans `tracer`
    /// recorded; returns the simulated-statistics digest.
    fn layers(&self, tracer: &Tracer, scratch: &Scratch, ledger: &mut Ledger) -> u64;
    /// Puts the metrics of this workload's attack path measured on a small
    /// fixed probe, for runs of the other workloads.
    fn reference(seed: u64, scratch: &Scratch, ledger: &mut Ledger);
    fn teardown(self) {}
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .ok_or(format!("missing {flag}"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} takes a whole number"))
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: value("--workload")?.to_string(),
        seed: number("--seed")?,
        seconds: seconds as f64,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            _ => return Err("--trace takes 0 or 1".into()),
        },
    })
}

struct Run {
    ledger: Ledger,
    attempted: usize,
    failed: usize,
}

fn end_to_end<W: Workload>(outcome: &Outcome, setup_s: f64, ledger: &mut Ledger) {
    let summary = outcome.summary(W::TAIL_PCT);
    ledger.put("setup_s", setup_s, "s");
    ledger.put("peak_rss_mb", outcome.peak_rss_mb, "MiB");
    ledger.put(
        "ok_frac",
        1.0 - ratio(outcome.failed as f64, outcome.attempted as f64),
        "ratio",
    );
    ledger.put("accuracy", outcome.accuracy(), "ratio");
    ledger.put("ops_per_s", summary.ops_per_s, "1/s");
    ledger.put("op_ms_p50", summary.p50_ms, "ms");
    ledger.put("op_ms_tail", summary.tail_ms, "ms");
    ledger.note(format!(
        "{} {}s in {:.2} s; timings are medians over {} windows of {} s, scaled to a host \
         whose reference burst takes {} s; op_ms_tail is p{}; ops_per_s counts {}; \
         setup_s is the median of {SETUP_REPS} set-ups",
        outcome.attempted,
        W::OP,
        summary.wall_s,
        summary.windows,
        util::WINDOW_S,
        util::REFERENCE_NOMINAL_S,
        W::TAIL_PCT,
        W::UNIT,
    ));
    let by_window = |values: &[f64]| -> String {
        let shown: Vec<String> = values.iter().map(|v| format!("{v:.2}")).collect();
        shown.join(" ")
    };
    ledger.note(format!(
        "ops_per_s by window: {}",
        by_window(&summary.window_rates)
    ));
    ledger.note(format!(
        "host factor by window: {}",
        by_window(&summary.window_hosts)
    ));
}

fn traced<W: Workload>(w: &W, args: &Args, scratch: &Scratch, ledger: &mut Ledger) -> Outcome {
    let half = Budget {
        seconds: args.seconds * TRACED_HALF,
        min_ops: W::MIN_OPS,
    };
    let plain = w.measure(half, &Tracer::new(false));
    let tracer = Tracer::new(true);
    ALLOCATIONS.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let traced = w.measure(half, &tracer);
    COUNTING.store(false, Ordering::Relaxed);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed);
    ledger.put(
        "allocs_per_trial",
        ratio(allocations as f64, traced.trials as f64),
        "count",
    );
    let (plain_rate, traced_rate) = (
        plain.summary(W::TAIL_PCT).ops_per_s,
        traced.summary(W::TAIL_PCT).ops_per_s,
    );
    ledger.put(
        "trace_overhead_frac",
        ratio(plain_rate, traced_rate) - 1.0,
        "ratio",
    );
    ledger.note(format!(
        "ops_per_s untraced {plain_rate:.2}, traced {traced_rate:.2} (host-scaled)"
    ));
    let digest = w.layers(&tracer, scratch, ledger);
    ledger.note(format!(
        "simulated-statistics digest {digest:016x} (identical at campaign threads 1 and 2)"
    ));
    let own = args.workload.as_str();
    if own != "nvs-extract" {
        nvs::Nvs::reference(args.seed, scratch, ledger);
    }
    if own != "nvu-leak" {
        nvu::Nvu::reference(args.seed, scratch, ledger);
    }
    if own != "serve-small" {
        serve::Serve::reference(args.seed, scratch, ledger);
    }
    layers::infra_layers(scratch, ledger);
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    ledger.put("host.cpus", cpus as f64, "count");

    let path = Path::new(".nvbench").join(format!("trace-{own}-{}.json", args.seed));
    match tracer.write_chrome(&path) {
        Ok(()) => ledger.note(format!("spans written to {}", path.display())),
        Err(err) => ledger.note(format!("spans not written: {err}")),
    }
    let mut outcome = traced;
    outcome.attempted += plain.attempted;
    outcome.failed += plain.failed;
    outcome
}

fn run<W: Workload>(args: &Args) -> Run {
    let scratch = Scratch::new(&args.workload).expect("create scratch directory");
    let mut setups = Vec::new();
    let mut state: Option<W> = None;
    let reps = if args.trace { 1 } else { SETUP_REPS };
    for _ in 0..reps {
        if let Some(old) = state.take() {
            old.teardown();
        }
        let before = util::reference_s();
        let start = Instant::now();
        state = Some(W::setup(args.seed, W::POOL, &scratch));
        let setup_s = start.elapsed().as_secs_f64();
        setups.push(setup_s / util::host_factor(before, util::reference_s()));
    }
    let w = state.expect("set up at least once");
    let mut ledger = Ledger::default();
    let outcome = if args.trace {
        traced(&w, args, &scratch, &mut ledger)
    } else {
        let budget = Budget {
            seconds: args.seconds,
            min_ops: W::MIN_OPS,
        };
        let outcome = w.measure(budget, &Tracer::new(false));
        end_to_end::<W>(&outcome, percentile(&setups, 50.0), &mut ledger);
        outcome
    };
    w.teardown();
    util::stop_reference();
    Run {
        ledger,
        attempted: outcome.attempted,
        failed: outcome.failed,
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("nvbench: {err}");
            eprintln!(
                "usage: nvbench --workload <nvs-extract|nvu-leak|serve-small> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let run = match args.workload.as_str() {
        "nvs-extract" => run::<nvs::Nvs>(&args),
        "nvu-leak" => run::<nvu::Nvu>(&args),
        "serve-small" => run::<serve::Serve>(&args),
        other => {
            eprintln!("nvbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };

    let expected: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut names: Vec<&str> = run.ledger.entries.iter().map(|e| e.name.as_str()).collect();
    names.sort_unstable();
    let mut want = expected.to_vec();
    want.sort_unstable();
    assert_eq!(
        names, want,
        "the run must print exactly the declared metrics"
    );

    for note in &run.ledger.notes {
        println!("# {note}");
    }
    let mut metrics = Vec::new();
    for e in &run.ledger.entries {
        println!("{:<32} {:>16.6} {}", e.name, e.value, e.unit);
        metrics.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            e.name, e.value, e.unit
        ));
    }
    let correct = run.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.attempted,
        run.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
