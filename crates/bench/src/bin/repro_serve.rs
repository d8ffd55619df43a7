//! Extraction-as-a-service load test: throughput, overload and
//! kill-the-server crash recovery against the nv-serve campaign server.
//!
//! Three demos (see [`nv_bench::serve_load`]):
//!
//! 1. **throughput** — a flood of concurrent small NV-Core jobs plus a
//!    few full NV-S extractions; reports p50/p99 latency and jobs/sec
//!    with a census proving every job completed and nothing failed
//!    untyped;
//! 2. **overload** — a tiny queue under a flood must answer the surplus
//!    with *typed* `queue_full` rejections, the reported depth never
//!    exceeding the cap, attempts = accepted + rejected exactly;
//! 3. **kill/resume** — the server runs as a real child process
//!    (this binary re-invoked with `--serve`) and is `SIGKILL`ed
//!    mid-load; a restart on the same spool finishes every journaled
//!    job with digests byte-identical to an uninterrupted baseline, at
//!    server worker counts 1, 2 and 8.
//!
//! Writes `BENCH_serve.json` (override with `--out PATH`).
//! Flags: `--jobs N` (small-job count),
//! `--smoke` (smaller load, writes to `target/BENCH_serve_smoke.json`
//! so CI does not dirty the checked-in baseline). `--serve --spool P
//! --workers N` is the internal child-server mode.

use nv_bench::serve_load::{
    overload_demo, resume_demo, serve_if_child, throughput_demo, ServeReport,
};
use nv_bench::{write_output, Args};

fn main() {
    let mut args = Args::parse();
    serve_if_child(&mut args);
    let smoke = args.switch("--smoke");
    let small_jobs = args
        .get::<usize>("--jobs", if smoke { 48 } else { 2500 })
        .max(8);
    let out_path = args.out_path("--out", "BENCH_serve", smoke);
    args.finish();

    let (nvs_jobs, clients, workers) = if smoke { (1, 4, 2) } else { (3, 8, 4) };
    let (resume_jobs, resume_trials) = if smoke { (4, 2048) } else { (6, 4096) };

    println!(
        "# extraction-as-a-service load test: {small_jobs} small job(s), {nvs_jobs} NV-S job(s), \
         {clients} client(s), {workers} server worker(s)"
    );

    let throughput = throughput_demo(small_jobs, 2, nvs_jobs, clients, workers);
    println!(
        "throughput: {}/{} jobs completed, p50 {:.2} ms, p99 {:.2} ms, {:.1} jobs/s, \
         {} untyped failure(s)",
        throughput.completed,
        throughput.small_jobs + throughput.nvs_jobs,
        throughput.p50_ms,
        throughput.p99_ms,
        throughput.jobs_per_sec,
        throughput.untyped_failures
    );

    let overload = overload_demo(24, 4, 3);
    println!(
        "overload: {} attempt(s) -> {} accepted + {} typed rejection(s), \
         peak depth {} <= cap {}",
        overload.attempts,
        overload.accepted,
        overload.rejected,
        overload.peak_queue_depth,
        overload.queue_cap
    );

    let exe = std::env::current_exe().expect("locate repro_serve binary");
    let resume = resume_demo(&exe, &[1, 2, 8], resume_jobs, resume_trials);
    for leg in &resume.legs {
        println!(
            "resume: workers {} -> {} job(s) resumed after SIGKILL, identical: {}",
            leg.workers, leg.resumed, leg.identical
        );
    }

    // The acceptance gates double as runtime assertions.
    assert_eq!(
        throughput.completed,
        (throughput.small_jobs + throughput.nvs_jobs) as u64,
        "throughput census does not cover the load"
    );
    assert_eq!(
        throughput.untyped_failures, 0,
        "a failure escaped the typed protocol"
    );
    assert!(
        overload.rejections_typed,
        "overload did not produce typed queue_full rejections"
    );
    assert!(overload.census_balanced, "overload census does not balance");
    assert!(
        resume.resume_identical(),
        "kill-and-restart digests diverged from the uninterrupted baseline"
    );
    assert!(
        resume.kill_effective,
        "no leg had in-flight jobs at the kill; the demo proved nothing"
    );

    let report = ServeReport {
        throughput,
        overload,
        resume,
    };
    write_output(&out_path, &report.to_json());
    println!("\nresult: OK  (wrote {out_path})");
}
