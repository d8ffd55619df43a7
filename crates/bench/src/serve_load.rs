//! Load, overload and crash-recovery demos for the nv-serve campaign
//! server, behind the `repro_serve` binary.
//!
//! Three demos:
//!
//! 1. **throughput** — many concurrent small NV-Core jobs plus a few
//!    full NV-S extraction jobs against an in-process server; per-job
//!    p50/p99 latency and jobs/sec, with a census proving every
//!    submitted job completed and no failure was untyped;
//! 2. **overload** — a deliberately tiny queue under a flood: the
//!    surplus must bounce as *typed* `queue_full` rejections whose
//!    reported depth never exceeds the cap, and the admission census
//!    must balance exactly (attempts = accepted + rejected);
//! 3. **kill/resume** — the server runs as a real child process and is
//!    `SIGKILL`ed mid-load; a restart on the same spool must finish
//!    every journaled job and reproduce byte-identical digests at
//!    server worker counts 1, 2 and 8.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use nv_serve::job::run_job;
use nv_serve::proto::RejectReason;
use nv_serve::{Client, JobSpec, Server, ServerConfig, Submission};

use crate::Args;

/// Seed base for the demo job population.
pub const SEED_BASE: u64 = 0x5e7_e000;

/// A fresh scratch path under the temp directory, unique per call: the
/// process id keeps concurrent processes apart and a process-wide counter
/// keeps concurrent demos (e.g. tests on parallel threads) apart.
pub(crate) fn scratch_dir(name: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let mut path = std::env::temp_dir();
    path.push(format!("nv_repro_{name}_{}_{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&path);
    path
}

/// Uninterrupted-baseline digests for `specs`, computed directly
/// through the same job runner the server uses.
pub(crate) fn baseline_digests(specs: &[JobSpec]) -> Vec<u64> {
    specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let path = scratch_dir(&format!("baseline_{i}")).with_extension("ckpt");
            let report = run_job(0, spec, &path, None, |_| {}).expect("baseline job");
            let _ = std::fs::remove_file(&path);
            report.digest
        })
        .collect()
}

/// A small NV-Core extraction job — the bread-and-butter tenant request.
pub fn small_job(trials: usize, seed: u64) -> JobSpec {
    let mut spec = JobSpec::nv_core(trials, seed);
    spec.threads = 1;
    spec
}

/// The `p`-th percentile (0..=100) of `sorted` (ascending), by the
/// nearest-rank method.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

/// Census and latency distribution of the throughput demo.
#[derive(Clone, Debug)]
pub struct ThroughputReport {
    /// Small NV-Core jobs submitted.
    pub small_jobs: usize,
    /// Full NV-S extraction jobs submitted.
    pub nvs_jobs: usize,
    /// Jobs the server reported complete.
    pub completed: u64,
    /// Typed rejections (must be 0 — the queue is sized for the load).
    pub rejected: u64,
    /// Client-visible failures that were *not* typed protocol messages.
    pub untyped_failures: usize,
    /// Median small-job latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile small-job latency, milliseconds.
    pub p99_ms: f64,
    /// Wall-clock throughput over the whole demo.
    pub jobs_per_sec: f64,
}

/// Floods an in-process server with `small_jobs` NV-Core jobs from
/// `clients` concurrent connections, plus `nvs_jobs` full NV-S
/// extractions riding along.
///
/// # Panics
///
/// Panics on server or spool I/O failure (this is an experiment driver).
pub fn throughput_demo(
    small_jobs: usize,
    small_trials: usize,
    nvs_jobs: usize,
    clients: usize,
    workers: usize,
) -> ThroughputReport {
    let spool = scratch_dir("serve_throughput");
    let mut config = ServerConfig::new(&spool);
    config.workers = workers;
    config.queue_cap = small_jobs + nvs_jobs + 1;
    config.tenant_quota = small_jobs + nvs_jobs + 1;
    let server = Server::start(config).expect("start throughput server");
    let addr = server.addr();

    let latencies: Mutex<Vec<f64>> = Mutex::new(Vec::new());
    let untyped: Mutex<usize> = Mutex::new(0);
    let started = Instant::now();
    std::thread::scope(|scope| {
        // NV-S heavyweights ride alongside the small-job flood.
        scope.spawn(|| {
            let mut client = Client::connect(addr).expect("connect NV-S client");
            for i in 0..nvs_jobs {
                let spec = JobSpec::nv_s(SEED_BASE ^ i as u64);
                match client.submit_and_wait("nvs-tenant", &spec) {
                    Ok(Ok(finished)) => assert!(
                        finished.report.digest != 0,
                        "NV-S job produced an empty digest"
                    ),
                    Ok(Err(reason)) => panic!("NV-S job rejected: {reason}"),
                    Err(_) => *untyped.lock().unwrap() += 1,
                }
            }
        });
        for c in 0..clients {
            let latencies = &latencies;
            let untyped = &untyped;
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect load client");
                let tenant = format!("tenant-{c}");
                let mut i = c;
                while i < small_jobs {
                    let spec = small_job(small_trials, SEED_BASE + i as u64);
                    let t0 = Instant::now();
                    match client.submit_and_wait(&tenant, &spec) {
                        Ok(Ok(finished)) => {
                            assert_eq!(
                                finished.report.completed as usize, small_trials,
                                "job {i} left trials incomplete"
                            );
                            latencies
                                .lock()
                                .unwrap()
                                .push(t0.elapsed().as_secs_f64() * 1e3);
                        }
                        Ok(Err(reason)) => panic!("sized queue rejected job {i}: {reason}"),
                        Err(_) => *untyped.lock().unwrap() += 1,
                    }
                    i += clients;
                }
            });
        }
    });
    let elapsed = started.elapsed().as_secs_f64();

    let mut stats_client = Client::connect(addr).expect("connect stats client");
    let stats = stats_client.stats().expect("server stats");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&spool);

    let mut latencies = latencies.into_inner().unwrap();
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    ThroughputReport {
        small_jobs,
        nvs_jobs,
        completed: stats.completed,
        rejected: stats.rejected,
        untyped_failures: untyped.into_inner().unwrap(),
        p50_ms: percentile(&latencies, 50.0),
        p99_ms: percentile(&latencies, 99.0),
        jobs_per_sec: (small_jobs + nvs_jobs) as f64 / elapsed,
    }
}

/// Census of the overload demo.
#[derive(Clone, Debug)]
pub struct OverloadReport {
    /// Submissions attempted.
    pub attempts: usize,
    /// Admitted.
    pub accepted: u64,
    /// Bounced with a typed `queue_full` rejection.
    pub rejected: u64,
    /// The configured queue cap.
    pub queue_cap: u64,
    /// Deepest queue the server ever reported.
    pub peak_queue_depth: u64,
    /// Every rejection was typed `queue_full` with depth ≤ cap.
    pub rejections_typed: bool,
    /// attempts = accepted + rejected, and the server completed every
    /// admitted job.
    pub census_balanced: bool,
}

/// Trials of the overload demo's blocker job. Each is a full NV-S
/// extraction, tens of milliseconds, so uncancelled the blocker outlasts
/// any flood by orders of magnitude. Once cancelled, each remaining trial
/// stops at its first cancellation check.
const BLOCKER_TRIALS: usize = 1_000;

/// Floods a tiny queue until it bounces, then drains it.
///
/// Before the flood, a blocker job occupies the single worker until the
/// flood is over, so no flood job can leave the queue while the flood
/// runs: at most `queue_cap` of them (one more if the worker picks up the
/// blocker mid-flood) are admitted, however fast the worker is. The
/// blocker is then cancelled and stays out of the census.
///
/// # Panics
///
/// Panics on server I/O failure or an unexpected rejection reason.
pub fn overload_demo(attempts: usize, trials: usize, queue_cap: usize) -> OverloadReport {
    let spool = scratch_dir("serve_overload");
    let mut config = ServerConfig::new(&spool);
    config.workers = 1;
    config.queue_cap = queue_cap;
    config.tenant_quota = attempts + 1;
    let server = Server::start(config).expect("start overload server");

    let blocker = match Client::connect(server.addr())
        .expect("connect blocker client")
        .submit(
            "blocker",
            &JobSpec {
                trials: BLOCKER_TRIALS,
                ..JobSpec::nv_s(SEED_BASE ^ 0xb10c)
            },
        )
        .expect("submit blocker")
    {
        Submission::Accepted { job, .. } => job,
        Submission::Rejected(reason) => panic!("blocker rejected: {reason}"),
    };

    let mut accepted = 0u64;
    let mut rejected = 0u64;
    let mut rejections_typed = true;
    // Keep accepted connections alive so the flood is genuinely
    // concurrent; drop them all at once after the flood.
    let mut live = Vec::new();
    for i in 0..attempts {
        let mut client = Client::connect(server.addr()).expect("connect flood client");
        match client
            .submit(
                "flood",
                &small_job(trials, SEED_BASE ^ (0xf100d + i as u64)),
            )
            .expect("submit during flood")
        {
            Submission::Accepted { .. } => {
                accepted += 1;
                live.push(client);
            }
            Submission::Rejected(RejectReason::QueueFull { depth, cap }) => {
                rejected += 1;
                rejections_typed &= depth <= cap && cap == queue_cap as u64;
            }
            Submission::Rejected(other) => {
                panic!("unexpected rejection under overload: {other}");
            }
        }
    }
    drop(live);
    Client::connect(server.addr())
        .expect("connect cancel client")
        .cancel(blocker)
        .expect("cancel blocker");
    assert!(
        server.wait_idle(Duration::from_secs(300)),
        "overload demo did not drain"
    );

    let mut stats_client = Client::connect(server.addr()).expect("connect stats client");
    let stats = stats_client.stats().expect("server stats");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&spool);

    OverloadReport {
        attempts,
        accepted,
        rejected,
        queue_cap: queue_cap as u64,
        peak_queue_depth: stats.peak_queue_depth,
        rejections_typed: rejections_typed && rejected > 0,
        census_balanced: accepted + rejected == attempts as u64
            && stats.submitted == accepted + 1
            && stats.completed == accepted
            && stats.peak_queue_depth <= queue_cap as u64,
    }
}

/// One worker-count leg of the kill/resume demo.
#[derive(Clone, Debug)]
pub struct ResumeLeg {
    /// Server worker-pool size for this leg.
    pub workers: usize,
    /// Jobs the restarted server resumed from the journal.
    pub resumed: u64,
    /// Every job digest matched the uninterrupted baseline.
    pub identical: bool,
}

/// The kill/resume demo across server worker counts.
#[derive(Clone, Debug)]
pub struct ServeResumeReport {
    /// Jobs submitted per leg.
    pub jobs: usize,
    /// Trials per job.
    pub trials: usize,
    /// One leg per worker count.
    pub legs: Vec<ResumeLeg>,
    /// At least one leg actually had in-flight jobs at the kill — the
    /// `SIGKILL` landed mid-load, not after quiescence.
    pub kill_effective: bool,
}

impl ServeResumeReport {
    /// Every leg reproduced the baseline digests exactly.
    pub fn resume_identical(&self) -> bool {
        self.legs.iter().all(|leg| leg.identical)
    }
}

/// Spawns `exe --serve` as a child server process on `spool` and waits
/// for its `LISTENING` line.
pub(crate) fn spawn_server(exe: &Path, spool: &Path, workers: usize) -> (Child, SocketAddr) {
    let mut child = Command::new(exe)
        .arg("--serve")
        .arg("--spool")
        .arg(spool)
        .arg("--workers")
        .arg(workers.to_string())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn child server");
    let stdout = child.stdout.take().expect("child stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read child LISTENING line");
    let addr = line
        .trim()
        .strip_prefix("LISTENING ")
        .unwrap_or_else(|| panic!("child said {line:?}, expected LISTENING <addr>"))
        .parse()
        .expect("parse child address");
    (child, addr)
}

/// The flags of the internal child-server mode, `--serve --spool P
/// --workers N` as `spawn_server` passes them; `None` without `--serve`.
pub fn child_server_flags(args: &mut Args) -> Option<(PathBuf, usize)> {
    args.switch("--serve")
        .then(|| (args.required("--spool"), args.get("--workers", 1)))
}

/// The child-server mode of `repro_serve` and `repro_chaos`. With
/// `--serve`, checks the remaining flags, starts a server on the spool,
/// prints its bound address as `LISTENING <addr>` and parks until
/// killed. Otherwise returns and leaves the flags to the caller.
///
/// # Panics
///
/// Panics if the server cannot start on the spool.
pub fn serve_if_child(args: &mut Args) {
    use std::io::Write;
    let Some((spool, workers)) = child_server_flags(args) else {
        return;
    };
    args.finish();
    let mut config = ServerConfig::new(&spool);
    config.workers = workers;
    config.queue_cap = 1024;
    config.tenant_quota = 1024;
    let server = Server::start(config).expect("start child server");
    println!("LISTENING {}", server.addr());
    std::io::stdout().flush().expect("flush LISTENING line");
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

pub(crate) fn poll_status(addr: SocketAddr, job: u64, deadline: Duration) -> (String, u64) {
    let started = Instant::now();
    loop {
        // Reconnect per poll: a status probe must not depend on the
        // server's connection state across a kill.
        if let Ok(mut client) = Client::connect(addr) {
            if let Ok((state, digest)) = client.status(job) {
                if state == "done" || state == "failed" || started.elapsed() > deadline {
                    return (state, digest);
                }
            }
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Polls `job`'s status, reconnecting per poll, until it leaves the
/// queue: from then on a kill lands while the job runs, provided the job
/// outlasts one status round trip.
pub(crate) fn wait_until_running(addr: SocketAddr, job: u64, deadline: Duration) {
    let started = Instant::now();
    while started.elapsed() < deadline {
        if let Ok(mut client) = Client::connect(addr) {
            if let Ok((state, _)) = client.status(job) {
                if state != "queued" && state != "unknown" {
                    return;
                }
            }
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Kills a real child-process server mid-load at each worker count and
/// proves the restart reproduces byte-identical digests.
///
/// `exe` is the `repro_serve` binary itself (it doubles as the server
/// via `--serve`).
///
/// # Panics
///
/// Panics on process or socket failure, or if a resumed job never
/// finishes.
pub fn resume_demo(
    exe: &Path,
    worker_counts: &[usize],
    jobs: usize,
    trials: usize,
) -> ServeResumeReport {
    let specs: Vec<JobSpec> = (0..jobs)
        .map(|i| small_job(trials, SEED_BASE ^ 0x6b11 ^ i as u64))
        .collect();
    let baseline = baseline_digests(&specs);

    let mut legs = Vec::new();
    let mut resumed_total = 0u64;
    for &workers in worker_counts {
        let spool = scratch_dir(&format!("serve_resume_w{workers}"));

        // Load the first life and SIGKILL it once the last job has
        // started. Jobs start in submission order, so the kill leaves that
        // job in flight as long as it runs longer than a status round
        // trip; `trials` must size the jobs for that.
        let (mut child, addr) = spawn_server(exe, &spool, workers);
        for spec in &specs {
            let mut client = Client::connect(addr).expect("connect submit client");
            match client.submit("acme", spec).expect("submit to child server") {
                Submission::Accepted { .. } => {}
                Submission::Rejected(reason) => panic!("child rejected a sized load: {reason}"),
            }
            // The connection drops here; the job keeps running server-side.
        }
        wait_until_running(addr, jobs as u64, Duration::from_secs(120));
        child.kill().expect("SIGKILL child server");
        let _ = child.wait();

        // Second life on the same spool: the journal re-queues whatever
        // had not finished.
        let (mut child, addr) = spawn_server(exe, &spool, workers);
        let mut identical = true;
        for (i, want) in baseline.iter().enumerate() {
            let job = (i + 1) as u64;
            let (state, digest) = poll_status(addr, job, Duration::from_secs(240));
            assert_eq!(state, "done", "job {job} did not finish after restart");
            identical &= digest == *want;
        }
        let mut stats_client = Client::connect(addr).expect("connect stats client");
        let stats = stats_client.stats().expect("restarted server stats");
        resumed_total += stats.resumed;
        child.kill().expect("stop child server");
        let _ = child.wait();
        let _ = std::fs::remove_dir_all(&spool);

        legs.push(ResumeLeg {
            workers,
            resumed: stats.resumed,
            identical,
        });
    }

    ServeResumeReport {
        jobs,
        trials,
        legs,
        kill_effective: resumed_total > 0,
    }
}

/// The full demo suite, rendered to `BENCH_serve.json`.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// Throughput census and latency distribution.
    pub throughput: ThroughputReport,
    /// Overload census.
    pub overload: OverloadReport,
    /// Kill/resume identity.
    pub resume: ServeResumeReport,
}

impl ServeReport {
    /// Renders the suite as a `BENCH_serve.json` document (hand-rolled —
    /// the workspace owns all of its dependencies).
    pub fn to_json(&self) -> String {
        let t = &self.throughput;
        let o = &self.overload;
        let r = &self.resume;
        let legs: Vec<String> = r
            .legs
            .iter()
            .map(|leg| {
                format!(
                    "{{\"workers\": {}, \"resumed\": {}, \"identical\": {}}}",
                    leg.workers, leg.resumed, leg.identical
                )
            })
            .collect();
        format!(
            "{{\n  \"bench\": \"serve\",\n  \
             \"throughput\": {{\"small_jobs\": {}, \"nvs_jobs\": {}, \"completed\": {}, \
             \"rejected\": {}, \"untyped_failures\": {}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \
             \"jobs_per_sec\": {:.1}}},\n  \
             \"overload\": {{\"attempts\": {}, \"accepted\": {}, \"rejected\": {}, \
             \"queue_cap\": {}, \"peak_queue_depth\": {}, \"overload_rejected_typed\": {}, \
             \"census_balanced\": {}}},\n  \
             \"resume\": {{\"jobs\": {}, \"trials\": {}, \"legs\": [{}], \
             \"kill_effective\": {}, \"resume_identical\": {}}}\n}}\n",
            t.small_jobs,
            t.nvs_jobs,
            t.completed,
            t.rejected,
            t.untyped_failures,
            t.p50_ms,
            t.p99_ms,
            t.jobs_per_sec,
            o.attempts,
            o.accepted,
            o.rejected,
            o.queue_cap,
            o.peak_queue_depth,
            o.rejections_typed,
            o.census_balanced,
            r.jobs,
            r.trials,
            legs.join(", "),
            r.kill_effective,
            r.resume_identical(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(percentile(&sorted, 50.0), 5.0);
        assert_eq!(percentile(&sorted, 99.0), 10.0);
        assert_eq!(percentile(&sorted, 100.0), 10.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.5], 99.0), 7.5);
    }

    #[test]
    fn overload_census_balances_at_test_scale() {
        let report = overload_demo(8, 3, 2);
        assert!(report.rejections_typed);
        assert!(report.census_balanced);
        assert!(report.peak_queue_depth <= report.queue_cap);
    }
}
