//! Observability profile of the attack stack (the `nv_obs` layer's own
//! acceptance driver).
//!
//! Runs three measurements and writes them to `BENCH_obs.json` (override
//! with `--out PATH`):
//!
//! 1. one observed NV-S trace extraction — attack-phase span breakdown
//!    (calibrate/prime/victim-fragment/probe/vote/retry plus the NV-S
//!    `recon` and `extraction_run` spans) and µarch event counters;
//! 2. an observed noisy NV-Core campaign through `Campaign::run` with a
//!    recorder per trial, re-run at several `--threads` values and
//!    asserted byte-identical;
//! 3. the disabled-mode overhead of the instrumentation hooks: the GCD
//!    simulation with an attached-but-disabled recorder must run within
//!    2 % of the plain core.
//!
//! Also exports the NV-S recorder as a Chrome trace-event file (default
//! `obs_trace.json`, `--trace PATH` to override) loadable in Perfetto /
//! `chrome://tracing`.
//!
//! Flags: `--trials N` (default 24), `--threads N`, `--rounds N`
//! (overhead bench rounds of 10 alternating batch pairs, default 3),
//! `--smoke` (few trials, outputs
//! under `target/` so CI does not dirty the checked-in baseline).

use nv_bench::obs_profile::{
    campaign_profile, measure_disabled_overhead, profile_nv_s, OVERHEAD_LIMIT,
};
use nv_bench::{write_output, Args};
use nv_obs::export::chrome_trace;

fn main() {
    let mut args = Args::parse();
    let smoke = args.switch("--smoke");
    let trials = args
        .get::<usize>("--trials", if smoke { 6 } else { 24 })
        .max(1);
    let rounds = args.get::<usize>("--rounds", 3).max(1);
    let threads = args.threads();
    let out_path = args.out_path("--out", "BENCH_obs", smoke);
    let trace_path = args.out_path("--trace", "obs_trace", smoke);
    args.finish();

    // 1. One full NV-S extraction, observed.
    println!("# NV-S extraction, observed");
    let nv_s = profile_nv_s();
    println!(
        "{} dynamic steps measured, {} PCs resolved",
        nv_s.steps, nv_s.resolved_pcs
    );
    print!("{}", nv_s.metrics.summary_table());

    // 2. The observed campaign, re-run across thread counts. The merged
    // metrics must be byte-identical for every value — the same contract
    // every repro binary inherits from the campaign engine.
    println!("\n# observed campaign: {trials} noisy NV-Core trial(s)");
    let (results, metrics) = campaign_profile(trials, threads);
    for probe_threads in [1usize, 2, 8] {
        if probe_threads == threads {
            continue;
        }
        let (other_results, other_metrics) = campaign_profile(trials, probe_threads);
        assert_eq!(
            results, other_results,
            "campaign results diverged at {probe_threads} threads"
        );
        assert_eq!(
            metrics.to_json(),
            other_metrics.to_json(),
            "campaign metrics diverged at {probe_threads} threads"
        );
    }
    println!(
        "matched windows/trial: {:.2} mean (thread-count oblivious: verified)",
        results.iter().sum::<usize>() as f64 / results.len() as f64
    );
    print!("{}", metrics.summary_table());

    // 3. Disabled-mode overhead of the instrumentation hooks.
    println!("\n# disabled-recorder overhead ({rounds} interleaved round(s), min-of)");
    let overhead = measure_disabled_overhead(rounds);
    println!(
        "baseline {:.1} ns/iter, disabled-obs {:.1} ns/iter, ratio {:.4} (limit {OVERHEAD_LIMIT})",
        overhead.baseline_ns,
        overhead.disabled_ns,
        overhead.ratio()
    );
    assert!(
        overhead.within_limit(),
        "disabled-mode observability overhead {:.4} exceeds the {OVERHEAD_LIMIT} limit",
        overhead.ratio()
    );

    // Chrome trace-event export of the NV-S run.
    let trace = chrome_trace(&[(0, "nv-s extraction", &nv_s.recorder)]);
    write_output(&trace_path, &trace);

    let json = format!(
        "{{\n  \"bench\": \"obs_profile\",\n  \"trials\": {trials},\n  \
         \"nv_s\": {{\"steps\": {}, \"resolved_pcs\": {}, \"metrics\": {}}},\n  \
         \"campaign\": {},\n  \
         \"overhead\": {{\"baseline_ns_per_iter\": {:.1}, \"disabled_ns_per_iter\": {:.1}, \
         \"ratio\": {:.4}, \"limit\": {OVERHEAD_LIMIT}, \"overhead_ok\": {}}}\n}}\n",
        nv_s.steps,
        nv_s.resolved_pcs,
        nv_s.metrics.to_json(),
        metrics.to_json(),
        overhead.baseline_ns,
        overhead.disabled_ns,
        overhead.ratio(),
        overhead.within_limit()
    );
    write_output(&out_path, &json);
    println!("\nwrote Chrome trace: {trace_path} (open in Perfetto or chrome://tracing)");
    println!("\nresult: OK  (wrote {out_path})");
}
