//! Fault-tolerant campaign demonstration: trial quarantine, watchdog
//! deadlines, retry sub-streams, and checkpoint/resume identity.
//!
//! Four demos, all on the real NV-Core attack stack:
//!
//! 1. **quarantine** — a campaign with injected panics (every 7th trial,
//!    offset 3) and wedged cores that blow the watchdog deadline (every
//!    7th, offset 5) completes under `FailurePolicy::Quarantine`, each
//!    casualty recorded as a typed `TrialOutcome`;
//! 2. **retry** — flaky first attempts heal under `FailurePolicy::Retry`
//!    because retries draw fresh deterministic rng sub-streams; the
//!    merged nv-obs metrics count exactly the retries taken;
//! 3. **resume** — the campaign is killed after `k` checkpointed trials
//!    and resumed from the surviving file; output is byte-identical to
//!    an uninterrupted run at 1, 2 and 8 worker threads;
//! 4. **corruption** — a torn trailing checkpoint record plus a garbage
//!    line are dropped, counted in the typed `ResumeReport`, and
//!    truncated away — never fatal — and resume still reproduces the
//!    baseline exactly.
//!
//! Writes `BENCH_resilience.json` (override with `--out PATH`).
//! Flags: `--trials N` (default 42),
//! `--threads N`, `--smoke` (fewer trials, writes to
//! `target/BENCH_resilience_smoke.json` so CI does not dirty the
//! checked-in baseline). Output is byte-identical for any `--threads`
//! value.

use nightvision::campaign::panic_message;
use nv_bench::resilience::{run_suite, DEADLINE_STEPS};
use nv_bench::{write_output, Args};

fn main() {
    let mut args = Args::parse();
    let smoke = args.switch("--smoke");
    let trials = args
        .get::<usize>("--trials", if smoke { 14 } else { 42 })
        .max(7);
    let threads = args.threads();
    let out_path = args.out_path("--out", "BENCH_resilience", smoke);
    args.finish();

    // The demos inject panics on purpose (they are caught and converted
    // to typed outcomes); keep those out of stderr while letting any
    // unexpected panic print as usual.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let message = panic_message(info.payload());
        let injected = message.contains("injected fault") || message.contains("simulated SIGKILL");
        if !injected {
            default_hook(info);
        }
    }));

    // The worker count is deliberately absent from the output: results
    // must be byte-identical for any --threads value.
    println!(
        "# fault-tolerant campaigns: {trials} trial(s)/demo, watchdog budget {DEADLINE_STEPS} steps"
    );
    let report = run_suite(trials, threads, &[1, 2, 8]);

    let q = &report.quarantine;
    println!(
        "quarantine: {}/{} completed, {} quarantined ({} panicked, {} deadline-exceeded), \
         completion rate {:.1}%",
        q.completed,
        q.trials,
        q.quarantined,
        q.panicked,
        q.deadline_exceeded,
        100.0 * q.completion_rate()
    );
    let r = &report.retry;
    println!(
        "retry: {} flaky first attempts healed in {} observed retries; all {} trials completed",
        r.flaky_trials, r.retries_observed, r.trials
    );
    let s = &report.resume;
    println!(
        "resume: killed after {} of {} checkpointed trials; identical at {:?} threads \
         (re-executed {:?})",
        s.kill_at, s.trials, s.thread_counts, s.reexecuted
    );
    let c = &report.corruption;
    println!(
        "corruption: {} damaged record(s) dropped on reopen; resume identical: {}",
        c.dropped_records, c.resume_identical
    );

    // The acceptance gates double as runtime assertions.
    assert!(
        q.completion_rate() >= 0.6,
        "quarantined campaign completion rate {:.3} below the 0.6 floor",
        q.completion_rate()
    );
    assert_eq!(
        q.completed + q.quarantined,
        q.trials,
        "quarantine census does not cover the campaign"
    );
    assert!(r.all_completed, "retry demo left trials incomplete");
    assert!(
        s.resume_identical,
        "kill-and-resume output diverged from the uninterrupted baseline"
    );
    assert!(
        c.dropped_records >= 1 && c.resume_identical,
        "checkpoint corruption was not absorbed"
    );

    write_output(&out_path, &report.to_json());
    println!("\nresult: OK  (wrote {out_path})");
}
