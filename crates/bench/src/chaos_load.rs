//! Chaos-transport campaign demos for the nv-serve server, behind the
//! `repro_chaos` binary.
//!
//! Two demos:
//!
//! 1. **intensity sweep** — the same fixed job population is driven by
//!    resilient clients through a [`ChaosProxy`] at several fault
//!    intensities, the quiet 0-fault cell included as the control. At
//!    every intensity the census must hold: every admitted job lands in
//!    exactly one typed terminal state, no trial outcome is lost or
//!    duplicated, and every digest is byte-identical to the quiet
//!    baseline;
//! 2. **kill drill** — the server runs as a real child process behind
//!    the proxy and is `SIGKILL`ed mid-load while resilient clients are
//!    streaming through active chaos. The proxy is retargeted at a
//!    restart on the same spool and the *same client sessions* must
//!    ride across the crash — resuming their streams, deduplicating the
//!    replay, and landing the baseline digests at server worker counts
//!    1, 2 and 8.
//!
//! Everything is deterministic up to scheduling: the fault schedule is
//! a pure function of [`CHAOS_SEED`] and the job population is a pure
//! function of [`SEED_BASE`].

use std::path::Path;
use std::time::Duration;

use nv_serve::{
    submit_resilient, ChaosPlan, ChaosProxy, Client, FaultCounts, JobSpec, ResilientOutcome,
    RetryPolicy, Server, ServerConfig,
};

use crate::serve_load::{
    baseline_digests, scratch_dir, small_job, spawn_server, wait_until_running, SEED_BASE,
};

/// Master seed for every fault schedule in the suite.
pub const CHAOS_SEED: u64 = 0xc4a0_5eed;

/// The fixed job population shared by the sweep and the baseline.
fn population(jobs: usize, trials: usize) -> Vec<JobSpec> {
    (0..jobs)
        .map(|i| small_job(trials, SEED_BASE ^ 0xc4a0 ^ i as u64))
        .collect()
}

/// A reconnect policy generous enough to outlast scripted chaos (and,
/// in the drill, a full server restart) without ever masking a wedge:
/// the failure budget still bounds total stuck time.
fn chaos_policy() -> RetryPolicy {
    RetryPolicy {
        max_failures: 400,
        base_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(250),
        connect_timeout: Duration::from_secs(2),
    }
}

/// Census of one intensity cell.
#[derive(Clone, Debug)]
pub struct ChaosCell {
    /// Fault intensity (0 = the quiet control cell).
    pub intensity: f64,
    /// Jobs driven through the proxy.
    pub jobs: usize,
    /// Jobs that landed the `Done` terminal.
    pub completed: u64,
    /// Every digest matched the quiet baseline.
    pub identical: bool,
    /// Every job landed exactly one typed terminal and delivered each
    /// trial outcome exactly once.
    pub census_exact: bool,
    /// Faults the proxy actually injected for this cell.
    pub faults: FaultCounts,
}

impl ChaosCell {
    /// Faults the proxy injected in this cell (accepted connections are
    /// not faults).
    pub fn injected(&self) -> u64 {
        let f = self.faults;
        f.resets + f.cuts + f.corruptions + f.stalls + f.partial_writes + f.duplicates
    }
}

/// Drives the job population through a chaos proxy at each intensity
/// against an in-process server, one fresh server + proxy per cell.
///
/// # Panics
///
/// Panics on server, proxy or spool I/O failure (this is an experiment
/// driver).
pub fn intensity_sweep(intensities: &[f64], jobs: usize, trials: usize) -> Vec<ChaosCell> {
    let specs = population(jobs, trials);
    let baseline = baseline_digests(&specs);
    let policy = chaos_policy();

    let mut cells = Vec::new();
    for (cell, &intensity) in intensities.iter().enumerate() {
        let spool = scratch_dir(&format!("chaos_cell_{cell}"));
        let mut config = ServerConfig::new(&spool);
        config.workers = 2;
        config.queue_cap = 1024;
        config.tenant_quota = 1024;
        let server = Server::start(config).expect("start cell server");
        let plan = ChaosPlan::at_intensity(CHAOS_SEED ^ cell as u64, intensity);
        let proxy = ChaosProxy::start(server.addr(), plan).expect("start chaos proxy");
        let addr = proxy.addr();

        let outcomes: Vec<Result<ResilientOutcome, _>> = std::thread::scope(|scope| {
            let handles: Vec<_> = specs
                .iter()
                .enumerate()
                .map(|(i, spec)| {
                    let spec = *spec;
                    let policy = &policy;
                    scope.spawn(move || {
                        submit_resilient(addr, "acme", &spec, 0x1d30 + i as u64, policy)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });

        let tally = census(&outcomes, &baseline, trials);
        let faults = proxy.faults();
        proxy.shutdown();
        server.shutdown();
        let _ = std::fs::remove_dir_all(&spool);
        cells.push(ChaosCell {
            intensity,
            jobs,
            completed: tally.completed,
            identical: tally.identical,
            census_exact: tally.census_exact && tally.digest_only == 0,
            faults,
        });
    }
    cells
}

/// What a batch of resilient outcomes added up to.
struct Census {
    /// Jobs that landed `Done`.
    completed: u64,
    /// Every digest matched the baseline.
    identical: bool,
    /// No trial outcome was duplicated, none was lost except behind an
    /// explicit digest-only degradation.
    census_exact: bool,
    /// Jobs that degraded to the journaled digest-only terminal
    /// (`passes == 0`): the job finished in a previous server life and
    /// its in-memory update ring died with that process. The digest is
    /// still byte-checked; only the per-trial replay is unavailable.
    digest_only: u64,
}

/// Folds resilient outcomes into a [`Census`] against the baseline
/// digests.
fn census(
    outcomes: &[Result<ResilientOutcome, nv_serve::ClientError>],
    baseline: &[u64],
    trials: usize,
) -> Census {
    let want: Vec<u64> = (0..trials as u64).collect();
    let mut tally = Census {
        completed: 0,
        identical: true,
        census_exact: true,
        digest_only: 0,
    };
    for (i, outcome) in outcomes.iter().enumerate() {
        match outcome {
            Ok(ResilientOutcome::Done(finished)) => {
                tally.completed += 1;
                tally.identical &= finished.report.digest == baseline[i];
                let mut indexes: Vec<u64> = finished.updates.iter().map(|u| u.index).collect();
                indexes.sort_unstable();
                if finished.report.passes == 0 {
                    // Digest-only terminal: whatever updates were seen
                    // before the crash must still be duplicate-free and
                    // in range.
                    tally.digest_only += 1;
                    let mut unique = indexes.clone();
                    unique.dedup();
                    tally.census_exact &= unique.len() == indexes.len()
                        && indexes.iter().all(|&ix| ix < trials as u64);
                } else {
                    tally.census_exact &= indexes == want;
                }
            }
            // Anything but `Done` fails the census: nothing in these
            // demos rejects or cancels.
            _ => {
                tally.identical = false;
                tally.census_exact = false;
            }
        }
    }
    tally
}

/// One worker-count leg of the kill drill.
#[derive(Clone, Debug)]
pub struct ChaosResumeLeg {
    /// Server worker threads for this leg.
    pub workers: usize,
    /// Jobs the restarted server resumed from the journal.
    pub resumed: u64,
    /// Every digest matched the uninterrupted baseline.
    pub identical: bool,
    /// Per-job trial census held across the crash.
    pub census_exact: bool,
    /// Jobs that degraded to the journaled digest-only terminal (they
    /// finished entirely in the killed life; digests still checked).
    pub digest_only: u64,
    /// Faults injected over both server lives of this leg.
    pub faults: FaultCounts,
}

/// The kill drill across all worker counts.
#[derive(Clone, Debug)]
pub struct ChaosResumeReport {
    /// Jobs per leg.
    pub jobs: usize,
    /// Trials per job.
    pub trials: usize,
    /// Fault intensity the drill ran under.
    pub intensity: f64,
    /// One leg per server worker count.
    pub legs: Vec<ChaosResumeLeg>,
    /// At least one leg had unfinished jobs at the kill.
    pub kill_effective: bool,
}

impl ChaosResumeReport {
    /// Every leg reproduced the baseline digests exactly.
    pub fn resume_identical(&self) -> bool {
        self.legs
            .iter()
            .all(|leg| leg.identical && leg.census_exact)
    }
}

/// `SIGKILL`s a real child-process server behind an *active* chaos
/// proxy mid-load, restarts it on the same spool, retargets the proxy,
/// and proves the same resilient client sessions ride across the crash
/// to byte-identical digests.
///
/// `exe` is the `repro_chaos` binary itself (it doubles as the server
/// via `--serve`).
///
/// # Panics
///
/// Panics on process or socket failure, or if a client session never
/// reaches a terminal state.
pub fn kill_drill(
    exe: &Path,
    worker_counts: &[usize],
    jobs: usize,
    trials: usize,
    intensity: f64,
) -> ChaosResumeReport {
    let specs = population(jobs, trials);
    let baseline = baseline_digests(&specs);
    let policy = chaos_policy();

    let mut legs = Vec::new();
    let mut resumed_total = 0u64;
    for &workers in worker_counts {
        let spool = scratch_dir(&format!("chaos_drill_w{workers}"));
        let (mut child, server_addr) = spawn_server(exe, &spool, workers);
        let plan = ChaosPlan::at_intensity(CHAOS_SEED ^ 0xd011 ^ workers as u64, intensity);
        let proxy = ChaosProxy::start(server_addr, plan).expect("start drill proxy");
        let addr = proxy.addr();

        let (outcomes, resumed) = std::thread::scope(|scope| {
            let clients: Vec<_> = specs
                .iter()
                .enumerate()
                .map(|(i, spec)| {
                    let spec = *spec;
                    let policy = &policy;
                    scope.spawn(move || {
                        submit_resilient(addr, "acme", &spec, 0xd211 + i as u64, policy)
                    })
                })
                .collect();

            // Kill mid-load: as soon as the first job is off the queue
            // and running (polled directly, not through the proxy),
            // SIGKILL through to a restart and swing the proxy to the
            // second life. Clients only ever see the proxy address; the
            // crash is theirs to survive.
            wait_until_running(server_addr, 1, Duration::from_secs(120));
            child.kill().expect("SIGKILL child server");
            let _ = child.wait();
            let (second, second_addr) = spawn_server(exe, &spool, workers);
            child = second;
            proxy.retarget(second_addr);

            let outcomes: Vec<_> = clients
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect();
            let mut stats_client = Client::connect(second_addr).expect("connect stats client");
            let resumed = stats_client
                .stats()
                .expect("restarted server stats")
                .resumed;
            (outcomes, resumed)
        });

        let tally = census(&outcomes, &baseline, trials);
        resumed_total += resumed;
        child.kill().expect("stop child server");
        let _ = child.wait();
        let faults = proxy.faults();
        proxy.shutdown();
        let _ = std::fs::remove_dir_all(&spool);
        legs.push(ChaosResumeLeg {
            workers,
            resumed,
            identical: tally.identical,
            census_exact: tally.census_exact,
            digest_only: tally.digest_only,
            faults,
        });
    }

    ChaosResumeReport {
        jobs,
        trials,
        intensity,
        legs,
        kill_effective: resumed_total > 0,
    }
}

/// The full chaos suite, rendered to `BENCH_chaos.json`.
#[derive(Clone, Debug)]
pub struct ChaosReport {
    /// Trials per job in the sweep.
    pub trials: usize,
    /// One census per intensity, quiet cell first.
    pub cells: Vec<ChaosCell>,
    /// The kill drill.
    pub drill: ChaosResumeReport,
}

fn faults_json(f: &FaultCounts) -> String {
    format!(
        "{{\"connections\": {}, \"resets\": {}, \"cuts\": {}, \"corruptions\": {}, \
         \"stalls\": {}, \"partial_writes\": {}, \"duplicates\": {}}}",
        f.connections, f.resets, f.cuts, f.corruptions, f.stalls, f.partial_writes, f.duplicates
    )
}

impl ChaosReport {
    /// Every cell and every drill leg held the census.
    pub fn all_green(&self) -> bool {
        self.cells
            .iter()
            .all(|c| c.identical && c.census_exact && c.completed == c.jobs as u64)
            && self.drill.resume_identical()
    }

    /// Renders the suite as a `BENCH_chaos.json` document (hand-rolled —
    /// the workspace owns all of its dependencies).
    pub fn to_json(&self) -> String {
        let cells: Vec<String> = self
            .cells
            .iter()
            .map(|c| {
                format!(
                    "{{\"intensity\": {:.2}, \"jobs\": {}, \"completed\": {}, \
                     \"identical\": {}, \"census_exact\": {}, \"faults\": {}}}",
                    c.intensity,
                    c.jobs,
                    c.completed,
                    c.identical,
                    c.census_exact,
                    faults_json(&c.faults)
                )
            })
            .collect();
        let legs: Vec<String> = self
            .drill
            .legs
            .iter()
            .map(|leg| {
                format!(
                    "{{\"workers\": {}, \"resumed\": {}, \"identical\": {}, \
                     \"census_exact\": {}, \"digest_only\": {}, \"faults\": {}}}",
                    leg.workers,
                    leg.resumed,
                    leg.identical,
                    leg.census_exact,
                    leg.digest_only,
                    faults_json(&leg.faults)
                )
            })
            .collect();
        format!(
            "{{\n  \"bench\": \"chaos\",\n  \"seed\": {},\n  \"trials\": {},\n  \
             \"cells\": [{}],\n  \
             \"drill\": {{\"jobs\": {}, \"trials\": {}, \"intensity\": {:.2}, \
             \"legs\": [{}], \"kill_effective\": {}, \"resume_identical\": {}}}\n}}\n",
            CHAOS_SEED,
            self.trials,
            cells.join(", "),
            self.drill.jobs,
            self.drill.trials,
            self.drill.intensity,
            legs.join(", "),
            self.drill.kill_effective,
            self.drill.resume_identical(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_cell_holds_the_census_with_zero_faults() {
        let cells = intensity_sweep(&[0.0], 2, 3);
        let cell = &cells[0];
        assert_eq!(cell.completed, 2);
        assert!(cell.identical && cell.census_exact);
        assert_eq!(
            cell.injected(),
            0,
            "the control cell must inject nothing: {:?}",
            cell.faults
        );
    }

    #[test]
    fn a_faulty_cell_still_lands_identical_digests() {
        let cells = intensity_sweep(&[0.8], 2, 4);
        let cell = &cells[0];
        assert_eq!(cell.completed, 2);
        assert!(cell.identical && cell.census_exact);
    }

    #[test]
    fn report_renders_flat_json() {
        let report = ChaosReport {
            trials: 4,
            cells: vec![ChaosCell {
                intensity: 0.0,
                jobs: 2,
                completed: 2,
                identical: true,
                census_exact: true,
                faults: FaultCounts::default(),
            }],
            drill: ChaosResumeReport {
                jobs: 2,
                trials: 4,
                intensity: 0.4,
                legs: vec![ChaosResumeLeg {
                    workers: 1,
                    resumed: 1,
                    identical: true,
                    census_exact: true,
                    digest_only: 0,
                    faults: FaultCounts::default(),
                }],
                kill_effective: true,
            },
        };
        assert!(report.all_green());
        let json = report.to_json();
        for key in [
            "\"bench\": \"chaos\"",
            "\"cells\":",
            "\"drill\":",
            "\"kill_effective\": true",
            "\"resume_identical\": true",
            "\"faults\":",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }
}
