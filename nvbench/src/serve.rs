//! `serve-small`: a closed loop in which each of two client connections
//! waits for its job before submitting the next, against an in-process
//! nv-serve server with two workers on loopback. Jobs are NV-Core
//! campaigns of 1..=32 trials.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use nightvision::campaign::{Campaign, Trial};
use nightvision::checkpoint::fnv1a64;
use nightvision::{AttackError, NvCore, PwSpec, Resilience};
use nv_isa::{Assembler, Program, VirtAddr};
use nv_obs::{EventKind, Metrics, Recorder};
use nv_rand::Rng;
use nv_serve::job::run_job;
use nv_serve::{Client, JobReport, JobSpec, Response, Server, ServerConfig, Submission};
use nv_uarch::{Core, Machine, UarchConfig};

use crate::layers;
use crate::util::{
    mean, mean_ns, peak_rss_mb, thread_oblivious, windowed, Budget, Ledger, Outcome, Scratch,
    SimTally, Tracer, OBS_CAPACITY, THREADS,
};
use crate::Workload;

const SALT: u64 = 0x6e76_7365_7276_6531;

/// Largest trial count of a job.
const MAX_TRIALS: usize = 32;

/// Jobs whose simulated statistics are tallied.
const STATS_OPS: usize = 8;

/// Base of the NV-Core monitored region and its two 16-byte windows, as
/// the serve job runner uses them.
const MON: u64 = 0x40_0900;

fn chain() -> Vec<PwSpec> {
    (0..2u64)
        .map(|i| PwSpec::new(VirtAddr::new(MON + 0x40 * i), 16).expect("window"))
        .collect()
}

fn fragment(entry: u64, nops: usize) -> Program {
    let mut asm = Assembler::new(VirtAddr::new(entry));
    for _ in 0..nops {
        asm.nop();
    }
    asm.halt();
    asm.finish().expect("victim fragment assembles")
}

/// The serve job runner's NV-Core trial, driven through the public
/// attack API on a core the benchmark owns, so its µarch counters can be
/// read. Its values must reproduce the served job's digest.
fn nv_core_trial(trial: &mut Trial, core: &mut Core) -> Result<u64, AttackError> {
    trial.arm(core);
    let below = trial.rng.gen_range(0..4u64) * 0x40;
    let nops = 8 + trial.rng.gen_range(0..96u64) as usize;
    let mut nv = NvCore::with_resilience(chain(), Resilience::none())?;
    nv.begin(core)?;
    let matched = nv.measure(core, |core| {
        core.reset_frontend();
        let mut victim = Machine::new(fragment(MON - below, nops));
        core.run(&mut victim, 4_000);
    })?;
    let signature = matched
        .iter()
        .enumerate()
        .fold(0u64, |s, (i, &hit)| s | (u64::from(hit) << i));
    Ok(signature << 32 | (below / 0x40) << 16 | nops as u64)
}

/// The event counts and dropped-event count of a job report's metrics.
fn parse_metrics(json: &str) -> Metrics {
    let mut metrics = Metrics::default();
    let events = json
        .split("\"events\": {")
        .nth(1)
        .and_then(|rest| rest.split('}').next())
        .unwrap_or("");
    for pair in events.split(", ") {
        let Some((name, count)) = pair.split_once(": ") else {
            continue;
        };
        let name = name.trim_matches('"');
        if let Some(kind) = EventKind::ALL.iter().find(|k| k.name() == name) {
            metrics.event_counts[kind.index()] = count.parse().unwrap_or(0);
        }
    }
    metrics.dropped_events = json
        .split("\"dropped_events\": ")
        .nth(1)
        .map(|rest| {
            rest.chars()
                .take_while(char::is_ascii_digit)
                .collect::<String>()
        })
        .and_then(|digits| digits.parse().ok())
        .unwrap_or(0);
    metrics
}

/// One served job as the client saw it.
struct Job {
    ms: f64,
    trials: usize,
    matched: bool,
    ok: bool,
}

pub struct Serve {
    specs: Vec<JobSpec>,
    /// Digest and host milliseconds of a direct `run_job` of each spec.
    digests: Vec<u64>,
    run_job_ms: Vec<f64>,
    server: Server,
    /// Checkpoint path for the statistics pass's direct runs.
    tally_ckpt: PathBuf,
}

/// Trial counts cover 1..=32 evenly, in an order and with master seeds
/// drawn from the seed.
fn specs(seed: u64, n: usize) -> Vec<JobSpec> {
    let mut rng = Rng::seed_from_u64(seed ^ SALT);
    let mut counts: Vec<usize> = (0..n).map(|i| i % MAX_TRIALS + 1).collect();
    for i in (1..counts.len()).rev() {
        counts.swap(i, rng.gen_range(0..=i));
    }
    counts
        .into_iter()
        .map(|trials| JobSpec::nv_core(trials, rng.next_u64()))
        .collect()
}

static SPOOLS: AtomicUsize = AtomicUsize::new(0);

/// Runs `spec` with no server: the job's digest and compute floor.
fn direct(spec: &JobSpec, checkpoint: &Path) -> JobReport {
    let _ = std::fs::remove_file(checkpoint);
    let report = run_job(0, spec, checkpoint, None, |_| {}).expect("direct run_job");
    let _ = std::fs::remove_file(checkpoint);
    report
}

impl Serve {
    fn job(&self, client: &mut Client, i: usize, tracer: &Tracer) -> Job {
        let index = i % self.specs.len();
        let spec = &self.specs[index];
        let op = i as u64;
        let failed = |start: Instant| Job {
            ms: start.elapsed().as_secs_f64() * 1e3,
            trials: spec.trials,
            matched: false,
            ok: false,
        };
        let start = Instant::now();
        tracer.span(op, "serve.job", || {
            let submitted = tracer.span(op, "serve.admit", || client.submit("bench", spec));
            let accepted = Instant::now();
            if !matches!(submitted, Ok(Submission::Accepted { .. })) {
                return failed(start);
            }
            let mut first = None;
            let mut updates = 0;
            loop {
                match client.next_update() {
                    Ok(Response::Trial(update)) => {
                        let now = Instant::now();
                        if first.is_none() {
                            tracer.record(op, "serve.first_update", accepted, now);
                            first = Some(now);
                        }
                        updates += usize::from(update.outcome == "completed");
                    }
                    Ok(Response::Done(report)) => {
                        let done = Instant::now();
                        tracer.record(op, "serve.stream", first.unwrap_or(accepted), done);
                        let matched = report.digest == self.digests[index];
                        return Job {
                            ms: (done - start).as_secs_f64() * 1e3,
                            trials: spec.trials,
                            matched,
                            ok: matched
                                && report.completed as usize == spec.trials
                                && updates == spec.trials,
                        };
                    }
                    _ => return failed(start),
                }
            }
        })
    }

    /// Direct `run_job` of the first `n` specs at `threads` campaign
    /// threads, plus the same trials replayed on benchmark-owned cores for
    /// their µarch counters.
    fn tally(&self, n: usize) -> SimTally {
        let specs = &self.specs[..n.min(self.specs.len())];
        thread_oblivious(|threads| {
            let mut tally = SimTally::default();
            for spec in specs {
                let report = direct(&JobSpec { threads, ..*spec }, &self.tally_ckpt);
                tally.metrics.merge(&parse_metrics(&report.metrics_json));
                tally.outputs.push(report.digest);
                let values = Campaign::new(spec.trials)
                    .master_seed(spec.master_seed)
                    .deadline_steps(spec.deadline_steps)
                    .threads(threads)
                    .run(|mut trial| {
                        let mut core = Core::new(UarchConfig::default());
                        core.attach_obs(Recorder::new(OBS_CAPACITY));
                        let value = nv_core_trial(&mut trial, &mut core).expect("NV-Core trial");
                        let recorder = core.detach_obs().expect("recorder stays attached");
                        (value, core.stats(), core.btb().stats(), recorder.metrics())
                    });
                let mut bytes = Vec::new();
                for (index, (value, core, btb, metrics)) in values.iter().enumerate() {
                    bytes.extend_from_slice(&(index as u64).to_le_bytes());
                    bytes.extend_from_slice(b"completed");
                    bytes.extend_from_slice(&value.to_le_bytes());
                    tally.add_core(core);
                    tally.add_btb(btb);
                    tally.metrics.merge(metrics);
                }
                assert_eq!(
                    fnv1a64(&bytes),
                    report.digest,
                    "replayed NV-Core trials disagree with the served job"
                );
                tally.ops += spec.trials as u64;
                tally.count("jobs", 1);
            }
            tally
        })
    }

    fn attack_metrics(&self, tracer: &Tracer, ledger: &mut Ledger) {
        let run_job_ms = mean(&self.run_job_ms);
        ledger.put("serve.admit_us", tracer.mean_ms("serve.admit") * 1e3, "us");
        ledger.put(
            "serve.first_update_ms",
            tracer.mean_ms("serve.first_update"),
            "ms",
        );
        ledger.put("serve.stream_ms", tracer.mean_ms("serve.stream"), "ms");
        ledger.put("serve.run_job_ms", run_job_ms, "ms");
        ledger.put(
            "serve.overhead_ms",
            tracer.mean_ms("serve.job") - run_job_ms,
            "ms",
        );
        let stats = Client::connect(self.server.addr())
            .and_then(|mut client| client.stats().map_err(std::io::Error::other))
            .expect("server stats");
        ledger.put(
            "serve.peak_queue_depth",
            stats.peak_queue_depth as f64,
            "count",
        );
        ledger.put("serve.rejected", stats.rejected as f64, "count");
    }
}

impl Workload for Serve {
    const TAIL_PCT: f64 = 99.0;
    const MIN_OPS: usize = 1000;
    const POOL: usize = 64;
    const OP: &'static str = "job";
    const UNIT: &'static str = "jobs completed";

    fn setup(seed: u64, pool: usize, scratch: &Scratch) -> Serve {
        let specs = specs(seed, pool);
        let spool = scratch.path(&format!("spool-{}", SPOOLS.fetch_add(1, Ordering::Relaxed)));
        let mut config = ServerConfig::new(spool);
        config.workers = THREADS;
        let server = Server::start(config).expect("start server");
        let floors = Campaign::new(specs.len()).threads(THREADS).run(|trial| {
            let start = Instant::now();
            let report = direct(
                &specs[trial.index],
                &scratch.path(&format!("direct-{}", trial.index)),
            );
            (report.digest, start.elapsed().as_secs_f64() * 1e3)
        });
        let serve = Serve {
            specs,
            digests: floors.iter().map(|f| f.0).collect(),
            run_job_ms: floors.iter().map(|f| f.1).collect(),
            server,
            tally_ckpt: scratch.path("tally.ckpt"),
        };
        // Warm-up: one served job before anything is timed.
        let mut client = Client::connect(serve.server.addr()).expect("connect");
        assert!(
            serve.job(&mut client, 0, &Tracer::new(false)).ok,
            "warm-up job failed"
        );
        serve
    }

    fn measure(&self, budget: Budget, tracer: &Tracer) -> Outcome {
        let rss_at_min_ops = std::sync::OnceLock::new();
        let mut clients: Vec<Client> = (0..THREADS)
            .map(|_| Client::connect(self.server.addr()).expect("connect"))
            .collect();
        let mut outcome = Outcome::default();
        windowed(
            &mut outcome,
            budget,
            |first, stop| {
                let next = AtomicUsize::new(first);
                std::thread::scope(|scope| {
                    let threads: Vec<_> = clients
                        .iter_mut()
                        .map(|client| {
                            let (next, rss) = (&next, &rss_at_min_ops);
                            scope.spawn(move || {
                                let mut jobs = Vec::new();
                                loop {
                                    let i = next.fetch_add(1, Ordering::Relaxed);
                                    if stop(i) {
                                        return jobs;
                                    }
                                    jobs.push(self.job(client, i, tracer));
                                    if i + 1 == budget.min_ops {
                                        let _ = rss.set(peak_rss_mb());
                                    }
                                }
                            })
                        })
                        .collect();
                    threads
                        .into_iter()
                        .flat_map(|t| t.join().expect("client thread"))
                        .collect()
                })
            },
            |outcome, job: Job| {
                outcome.attempt(job.ok, budget.min_ops);
                outcome.trials += job.trials as u64;
                outcome.checked += 1;
                outcome.right += u64::from(job.matched);
                outcome.record(job.ms, 1.0);
            },
        );
        if let Some(&rss) = rss_at_min_ops.get() {
            outcome.peak_rss_mb = rss;
        }
        outcome
    }

    fn layers(&self, tracer: &Tracer, _scratch: &Scratch, ledger: &mut Ledger) -> u64 {
        let tally = self.tally(STATS_OPS);
        tally.put_counters(ledger);
        self.attack_metrics(tracer, ledger);
        layers::put_rig(ledger, &layers::rig_cost(&chain()));
        let build_ns = mean_ns(16, 30.0, |i| 8 + i % 96, |nops| fragment(MON, nops));
        ledger.put("victims.build_us", build_ns / 1e3, "us");
        let programs: Vec<Program> = (0..4)
            .map(|k| fragment(MON - 0x40 * k, 8 + 32 * k as usize))
            .collect();
        layers::program_layers(&programs, ledger);
        tally.digest()
    }

    fn reference(seed: u64, scratch: &Scratch, ledger: &mut Ledger) {
        let serve = Serve::setup(seed, 16, scratch);
        let tracer = Tracer::new(true);
        serve.measure(Budget::ops(32), &tracer);
        serve.attack_metrics(&tracer, ledger);
        serve.teardown();
    }

    fn teardown(self) {
        self.server.shutdown();
    }
}
