//! Chaos transport test: deterministic network fault injection against
//! the nv-serve campaign server, with client session resume across a
//! `SIGKILL` of the server behind the proxy.
//!
//! Two demos (see [`nv_bench::chaos_load`]):
//!
//! 1. **intensity sweep** — a fixed job population driven by resilient
//!    clients through the chaos proxy at several fault intensities
//!    (the quiet 0-fault control cell included); at every intensity the
//!    census must hold: every job in exactly one typed terminal state,
//!    no trial outcome lost or duplicated, every digest byte-identical
//!    to the quiet baseline;
//! 2. **kill drill** — the server runs as a real child process (this
//!    binary re-invoked with `--serve`) behind an *active* chaos proxy
//!    and is `SIGKILL`ed mid-load; the proxy is retargeted at a restart
//!    on the same spool and the same client sessions must resume their
//!    streams to byte-identical digests at server worker counts 1, 2
//!    and 8.
//!
//! Writes `BENCH_chaos.json` (override with `--out PATH`). Flags:
//! `--jobs N` (jobs per cell), `--smoke`
//! (smaller load, writes to `target/BENCH_chaos_smoke.json` so CI does
//! not dirty the checked-in baseline). `--serve --spool P --workers N`
//! is the internal child-server mode.

use nv_bench::chaos_load::{intensity_sweep, kill_drill, ChaosReport};
use nv_bench::serve_load::serve_if_child;
use nv_bench::{write_output, Args};

fn main() {
    let mut args = Args::parse();
    serve_if_child(&mut args);
    let smoke = args.switch("--smoke");
    let jobs = args
        .get::<usize>("--jobs", if smoke { 3 } else { 6 })
        .max(2);
    let out_path = args.out_path("--out", "BENCH_chaos", smoke);
    args.finish();

    let trials = if smoke { 6 } else { 8 };
    let intensities: &[f64] = if smoke {
        &[0.0, 0.6]
    } else {
        &[0.0, 0.3, 0.6, 0.9]
    };
    // Drill jobs are long (trials-wise) so the SIGKILL reliably lands
    // while they are running; trials stay under the server's update
    // ring capacity so nothing ages out of a live resume.
    let (drill_jobs, drill_trials, drill_intensity) = if smoke {
        (3, 1500, 0.4)
    } else {
        (4, 3000, 0.4)
    };

    println!(
        "# chaos transport test: {jobs} job(s) x {} trial(s) per cell, intensities {intensities:?}",
        trials
    );

    let cells = intensity_sweep(intensities, jobs, trials);
    for cell in &cells {
        println!(
            "sweep: intensity {:.2} -> {}/{} done, identical: {}, census exact: {}, \
             faults: {:?}",
            cell.intensity,
            cell.completed,
            cell.jobs,
            cell.identical,
            cell.census_exact,
            cell.faults
        );
    }

    let exe = std::env::current_exe().expect("locate repro_chaos binary");
    let drill = kill_drill(&exe, &[1, 2, 8], drill_jobs, drill_trials, drill_intensity);
    for leg in &drill.legs {
        println!(
            "drill: workers {} -> {} job(s) resumed after SIGKILL through chaos, \
             identical: {}, census exact: {}",
            leg.workers, leg.resumed, leg.identical, leg.census_exact
        );
    }

    // The acceptance gates double as runtime assertions.
    for cell in &cells {
        assert_eq!(
            cell.completed, cell.jobs as u64,
            "intensity {:.2}: a job never reached its typed terminal",
            cell.intensity
        );
        assert!(
            cell.identical,
            "intensity {:.2}: a digest diverged from the quiet baseline",
            cell.intensity
        );
        assert!(
            cell.census_exact,
            "intensity {:.2}: a trial outcome was lost or duplicated",
            cell.intensity
        );
    }
    let quiet = &cells[0];
    assert_eq!(
        quiet.injected(),
        0,
        "the quiet control cell injected faults: {:?}",
        quiet.faults
    );
    assert!(
        cells.iter().any(|c| c.injected() > 0),
        "no cell injected any fault; the sweep proved nothing"
    );
    assert!(
        drill.resume_identical(),
        "a client session crossed the SIGKILL to a wrong or incomplete result"
    );
    assert!(
        drill.kill_effective,
        "no leg had in-flight jobs at the kill; the drill proved nothing"
    );

    let report = ChaosReport {
        trials,
        cells,
        drill,
    };
    assert!(report.all_green(), "report census disagrees with the gates");
    write_output(&out_path, &report.to_json());
    println!("\nresult: OK  (wrote {out_path})");
}
