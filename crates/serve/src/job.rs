//! Extraction jobs: what a tenant submits and how a worker runs it.
//!
//! A [`JobSpec`] names one of two workloads on the real attack stack —
//! NV-Core overlap campaigns (many small trials) or NV-S full-trace
//! extractions (few large trials) — plus the campaign knobs: trial
//! count, master seed, worker threads, watchdog deadline, retry budget
//! and an optional deterministic flake rate for exercising the healing
//! path.
//!
//! [`run_job`] executes the spec through the `nightvision` campaign
//! engine's checkpointed resume path, so every completed trial is
//! durable the moment it finishes. The job is one campaign pass under
//! `FailurePolicy::Retry`: a failed attempt is retried at once, up to the
//! spec's budget. Because attempt `k` of trial `i` draws an rng stream
//! that depends only on `(master_seed, i, k)`, a trial always completes
//! with the value of its *first succeeding attempt*, no matter where a
//! crash cut the pass — which is exactly what makes kill-and-restart
//! byte-identical.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

use nightvision::campaign::{panic_message, Campaign, Trial};
use nightvision::checkpoint::fnv1a64;
use nightvision::{
    AttackError, CampaignCheckpoint, CheckpointError, FailurePolicy, NvCore, NvSupervisor, PwSpec,
    Resilience, SupervisorConfig, TrialOutcome,
};
use nv_isa::{Assembler, VirtAddr};
use nv_os::Enclave;
use nv_uarch::{Core, Machine, UarchConfig};
use nv_victims::{GcdVictim, VictimConfig};

use crate::proto::{JobReport, TrialUpdate};

/// Base of the monitored region (the alias-friendly neighbourhood the
/// bench suite uses).
const MON: u64 = 0x40_0900;

/// Windows in the NV-Core probed chain.
const WINDOWS: usize = 2;

/// Which attack workload a job runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum JobKind {
    /// Many small NV-Core overlap measurements (§4.1 primitive).
    NvCore,
    /// Few large NV-S full PC-trace extractions (§6.3) of a GCD enclave.
    NvS,
}

impl JobKind {
    /// The wire tag.
    pub fn tag(self) -> &'static str {
        match self {
            JobKind::NvCore => "nv_core",
            JobKind::NvS => "nv_s",
        }
    }
}

/// Everything the server needs to run a job deterministically.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct JobSpec {
    /// The workload.
    pub kind: JobKind,
    /// Trials in the campaign.
    pub trials: usize,
    /// Master seed; every trial stream derives from it.
    pub master_seed: u64,
    /// Campaign worker threads (0 = size for the host).
    pub threads: usize,
    /// Per-trial watchdog budget in retirement steps (0 = none).
    pub deadline_steps: u64,
    /// Extra attempts a failed trial may take
    /// (`FailurePolicy::Retry { budget }`).
    pub retry_budget: usize,
    /// Injected per-attempt flake rate, in failures per million, drawn
    /// from the attempt's own rng stream — deterministic in
    /// `(master_seed, trial, attempt)`, so healing is reproducible.
    pub flake_ppm: u32,
}

impl JobSpec {
    /// A small clean NV-Core job (the load-test workhorse).
    pub fn nv_core(trials: usize, master_seed: u64) -> JobSpec {
        JobSpec {
            kind: JobKind::NvCore,
            trials,
            master_seed,
            threads: 1,
            deadline_steps: 20_000,
            retry_budget: 0,
            flake_ppm: 0,
        }
    }

    /// A single-trial NV-S extraction job.
    pub fn nv_s(master_seed: u64) -> JobSpec {
        JobSpec {
            kind: JobKind::NvS,
            trials: 1,
            master_seed,
            threads: 1,
            deadline_steps: 0,
            retry_budget: 0,
            flake_ppm: 0,
        }
    }

    /// The spec's config fingerprint, mixed into the checkpoint key so a
    /// resumed job refuses a checkpoint written under different knobs.
    pub fn fingerprint(&self) -> u64 {
        fnv1a64(format!("nv-serve job v1 {}", self.encode_fields()).as_bytes())
    }
}

/// Why a job could not run to a report.
#[derive(Debug)]
pub enum JobError {
    /// The job's checkpoint could not be opened.
    Checkpoint(CheckpointError),
    /// The campaign engine aborted (e.g. checkpoint appends started
    /// failing mid-run — persistence loss is job-fatal).
    Aborted {
        /// The abort message.
        detail: String,
    },
    /// The job's cancellation flag was raised: a wire-level `Cancel` (or
    /// a drain deadline) stopped the job. Completed trials stay in the
    /// checkpoint, so an un-cancelled resubmission picks up where the
    /// cancel landed.
    Cancelled,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Checkpoint(err) => write!(f, "checkpoint: {err}"),
            JobError::Aborted { detail } => write!(f, "campaign aborted: {detail}"),
            JobError::Cancelled => write!(f, "job cancelled"),
        }
    }
}

impl std::error::Error for JobError {}

impl From<CheckpointError> for JobError {
    fn from(err: CheckpointError) -> Self {
        JobError::Checkpoint(err)
    }
}

/// The NV-Core probed chain, assembled and pre-decoded once per process
/// but never calibrated: every trial calibrates its own clone on the
/// trial's fresh core, so each trial value is what a chain built for that
/// trial alone would measure.
fn nv_core_chain() -> &'static NvCore {
    static CHAIN: OnceLock<NvCore> = OnceLock::new();
    CHAIN.get_or_init(|| {
        let pws = (0..WINDOWS as u64)
            .map(|i| PwSpec::new(VirtAddr::new(MON + 0x40 * i), 16).expect("window"))
            .collect();
        NvCore::with_resilience(pws, Resilience::none()).expect("the NV-Core chain builds")
    })
}

/// One clean NV-Core overlap measurement driven by the trial's stream;
/// returns a compact signature of the verdicts plus the geometry that
/// produced them, so resume identity is checkable bit-for-bit.
fn nv_core_trial(trial: &mut Trial, cancel: Option<&Arc<AtomicBool>>) -> Result<u64, AttackError> {
    let mut core = Core::new(UarchConfig::default());
    trial.arm(&mut core);
    if let Some(flag) = cancel {
        core.set_cancel_flag(Arc::clone(flag));
    }
    let below = trial.rng.gen_range(0..4u64) * 0x40;
    let nops = 8 + trial.rng.gen_range(0..96u64) as usize;
    let entry = MON - below;
    let mut nv = nv_core_chain().clone();
    nv.begin(&mut core)?;
    let matched = nv.measure(&mut core, |core| {
        core.reset_frontend();
        let mut asm = Assembler::new(VirtAddr::new(entry));
        for _ in 0..nops {
            asm.nop();
        }
        asm.halt();
        let mut victim = Machine::new(asm.finish().expect("victim fragment assembles"));
        core.run(&mut victim, 4_000);
    })?;
    let mut signature = 0u64;
    for (i, hit) in matched.iter().enumerate() {
        signature |= (*hit as u64) << i;
    }
    Ok(signature << 32 | (below / 0x40) << 16 | nops as u64)
}

/// One NV-S full-trace extraction of a GCD enclave with operands drawn
/// from the trial stream; returns the FNV digest of the extracted PCs.
fn nv_s_trial(trial: &mut Trial, cancel: Option<&Arc<AtomicBool>>) -> Result<u64, AttackError> {
    let a = trial.rng.gen_range(1..=60u64);
    let b = trial.rng.gen_range(1..=60u64);
    let victim = GcdVictim::build(a, b, &VictimConfig::default()).expect("gcd victim assembles");
    let mut enclave = Enclave::new(victim.program().clone());
    let mut core = Core::new(UarchConfig::default());
    trial.arm(&mut core);
    if let Some(flag) = cancel {
        core.set_cancel_flag(Arc::clone(flag));
    }
    let extracted =
        NvSupervisor::new(SupervisorConfig::default()).extract_trace(&mut enclave, &mut core)?;
    let mut bytes = Vec::new();
    for pc in extracted.pcs() {
        bytes.extend_from_slice(&pc.value().to_le_bytes());
    }
    Ok(fnv1a64(&bytes))
}

/// One attempt of one trial per the spec: an injected flake first (drawn
/// from the attempt's own stream), then the real workload.
fn run_attempt(
    spec: &JobSpec,
    trial: &mut Trial,
    cancel: Option<&Arc<AtomicBool>>,
) -> Result<u64, AttackError> {
    if spec.flake_ppm > 0 && trial.rng.gen_range(0..1_000_000u64) < u64::from(spec.flake_ppm) {
        return Err(AttackError::NotCalibrated);
    }
    match spec.kind {
        JobKind::NvCore => nv_core_trial(trial, cancel),
        JobKind::NvS => nv_s_trial(trial, cancel),
    }
}

fn outcome_tag<T>(outcome: &TrialOutcome<T>) -> &'static str {
    match outcome {
        TrialOutcome::Completed(_) => "completed",
        TrialOutcome::Failed(AttackError::Cancelled) => "cancelled",
        TrialOutcome::Failed(_) => "failed",
        TrialOutcome::Panicked { .. } => "panicked",
        TrialOutcome::DeadlineExceeded { .. } => "deadline",
    }
}

/// The job-identity digest: FNV-1a-64 over the index-ordered outcome
/// vector (kind tag plus value). Byte-identical digests mean
/// byte-identical campaigns — the witness the kill/resume benches check.
fn outcome_digest(outcomes: &[TrialOutcome<u64>]) -> u64 {
    let mut bytes = Vec::with_capacity(outcomes.len() * 16);
    for (index, outcome) in outcomes.iter().enumerate() {
        bytes.extend_from_slice(&(index as u64).to_le_bytes());
        bytes.extend_from_slice(outcome_tag(outcome).as_bytes());
        bytes.extend_from_slice(&outcome.completed().copied().unwrap_or(0).to_le_bytes());
    }
    fnv1a64(&bytes)
}

/// Runs `spec` to a [`JobReport`], streaming [`TrialUpdate`]s through
/// `on_update` as trials finish: live completions as they happen,
/// checkpoint-resumed completions after the campaign pass, terminal
/// failures last.
///
/// The checkpoint at `checkpoint_path` makes the job resumable: calling
/// `run_job` again after a kill (same spec, same path) skips completed
/// trials and converges to the identical report.
///
/// `cancel`, when present, is polled before and after the pass and
/// attached to every trial's core, so a raised flag stops the job both
/// between trials and *inside* one (at the attack layers' cooperative
/// watchdog checks). Streamed updates carry `seq: 0`; the server's
/// stream buffer assigns real sequence numbers at publish time.
///
/// # Errors
///
/// [`JobError::Checkpoint`] if the checkpoint cannot be opened (or was
/// written by a different spec), [`JobError::Aborted`] if the campaign
/// engine aborted, [`JobError::Cancelled`] if the cancellation flag was
/// observed.
pub fn run_job(
    job: u64,
    spec: &JobSpec,
    checkpoint_path: &Path,
    cancel: Option<&Arc<AtomicBool>>,
    on_update: impl Fn(TrialUpdate) + Sync,
) -> Result<JobReport, JobError> {
    let cancelled = || cancel.is_some_and(|flag| flag.load(Ordering::Relaxed));
    if cancelled() {
        return Err(JobError::Cancelled);
    }
    let mut campaign = Campaign::new(spec.trials)
        .master_seed(spec.master_seed)
        .threads(spec.threads.max(1))
        .failure_policy(FailurePolicy::Retry {
            budget: spec.retry_budget,
        });
    if spec.deadline_steps > 0 {
        campaign = campaign.deadline_steps(spec.deadline_steps);
    }
    let checkpoint =
        CampaignCheckpoint::open(checkpoint_path, campaign.checkpoint_key(spec.fingerprint()))?;
    // Exactly the trials `Campaign::resume` skips: their closures never
    // run, so they stream after the pass instead of live.
    let resumed = |index: usize| {
        checkpoint
            .data(index)
            .is_some_and(|data| data.parse::<u64>().is_ok())
    };
    let update = |index: usize, outcome: &str, value: u64, resumed: bool| TrialUpdate {
        job,
        seq: 0,
        index: index as u64,
        outcome: outcome.to_string(),
        value,
        resumed,
    };

    let pass = catch_unwind(AssertUnwindSafe(|| {
        campaign.resume(&checkpoint, |mut trial| {
            let index = trial.index;
            let value = run_attempt(spec, &mut trial, cancel)?;
            on_update(update(index, "completed", value, false));
            Ok(value)
        })
    }));
    let (outcomes, metrics) = pass.map_err(|payload| JobError::Aborted {
        detail: panic_message(payload.as_ref()),
    })?;
    for (index, outcome) in outcomes.iter().enumerate() {
        if let TrialOutcome::Completed(value) = outcome {
            if resumed(index) {
                on_update(update(index, "completed", *value, true));
            }
        }
    }
    if cancelled() {
        return Err(JobError::Cancelled);
    }
    for (index, outcome) in outcomes.iter().enumerate() {
        if !outcome.is_completed() {
            on_update(update(index, outcome_tag(outcome), 0, false));
        }
    }

    let completed = outcomes.iter().filter(|o| o.is_completed()).count() as u64;
    Ok(JobReport {
        job,
        trials: spec.trials as u64,
        completed,
        quarantined: spec.trials as u64 - completed,
        resumed_trials: (0..spec.trials).filter(|&index| resumed(index)).count() as u64,
        passes: 1,
        digest: outcome_digest(&outcomes),
        metrics_json: metrics.to_json(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    fn scratch(name: &str) -> std::path::PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!("nv_serve_job_{name}_{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn nv_core_job_completes_and_digest_is_thread_invariant() {
        // The digest is pinned to the value of runner code that assembled
        // a fresh chain for every trial, at every thread count.
        for threads in [1, 2] {
            let mut spec = JobSpec::nv_core(32, 0x5eed_0019);
            spec.threads = threads;
            let path = scratch(&format!("core_t{threads}"));
            let report = run_job(1, &spec, &path, None, |_| {}).unwrap();
            assert_eq!(report.completed, 32);
            assert_eq!(report.quarantined, 0);
            assert_eq!(report.passes, 1);
            assert_eq!(report.digest, 0xde45_24fc_82ee_5778, "threads {threads}");
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn flaky_job_heals_in_one_retry_pass() {
        // A heavy deterministic flake rate: most first attempts fail and
        // are retried at once within the budget, in one campaign pass, to
        // the same pinned digest at any thread count. A trial keeps the
        // value of its first succeeding attempt, so the digest does not
        // depend on how attempts are grouped into passes; one trial span
        // per trial shows that no trial ran twice.
        for threads in [1, 2] {
            let mut spec = JobSpec::nv_core(24, 0xf1a6_0019);
            spec.threads = threads;
            spec.flake_ppm = 400_000;
            spec.retry_budget = 15;
            let path = scratch(&format!("flaky_t{threads}"));
            let report = run_job(2, &spec, &path, None, |_| {}).unwrap();
            assert_eq!(
                report.completed, 24,
                "400k ppm flakes must heal within a budget of 15"
            );
            assert_eq!(report.passes, 1, "threads {threads}");
            assert_eq!(report.digest, 0x2607_4f25_7e78_e15a, "threads {threads}");
            assert!(
                report.metrics_json.contains("\"trial\": {\"count\": 24,"),
                "one trial span per trial: {}",
                report.metrics_json
            );
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn killed_job_resumes_byte_identical() {
        let spec = JobSpec::nv_core(6, 0xdead);
        let clean_path = scratch("resume_clean");
        let baseline = run_job(4, &spec, &clean_path, None, |_| {}).unwrap();
        let _ = std::fs::remove_file(&clean_path);

        // Simulated kill: run half the trials directly into the job's
        // checkpoint, then hand the file to run_job as a restarted server
        // would.
        let path = scratch("resume_killed");
        {
            let base = Campaign::new(spec.trials)
                .master_seed(spec.master_seed)
                .deadline_steps(spec.deadline_steps);
            let key = base.checkpoint_key(spec.fingerprint());
            let ckpt = CampaignCheckpoint::open(&path, key).unwrap();
            for index in 0..3 {
                let mut trial = Trial {
                    index,
                    rng: nv_rand::Rng::stream(spec.master_seed, index as u64),
                    deadline: Some(spec.deadline_steps),
                };
                let value = nv_core_trial(&mut trial, None).unwrap();
                ckpt.append(index, &value.to_string()).unwrap();
            }
        }
        let mut resumed_updates = 0u64;
        let updates = Mutex::new(Vec::new());
        let report = run_job(4, &spec, &path, None, |u| {
            updates.lock().unwrap().push(u);
        })
        .unwrap();
        for update in updates.lock().unwrap().iter() {
            if update.resumed {
                resumed_updates += 1;
            }
        }
        assert_eq!(report.digest, baseline.digest, "resume must be identical");
        assert_eq!(report.resumed_trials, 3);
        assert_eq!(resumed_updates, 3, "resumed trials must still stream");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn pre_raised_cancel_flag_stops_the_job_before_any_trial() {
        let spec = JobSpec::nv_core(6, 0xca);
        let path = scratch("cancel_pre");
        let flag = Arc::new(AtomicBool::new(true));
        let ran = Mutex::new(0u64);
        let result = run_job(6, &spec, &path, Some(&flag), |_| {
            *ran.lock().unwrap() += 1;
        });
        assert!(matches!(result, Err(JobError::Cancelled)));
        assert_eq!(*ran.lock().unwrap(), 0, "no update may stream");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn cancelled_job_keeps_its_checkpoint_and_resumes_clean() {
        // Cancel after the first streamed trial; the completed prefix must
        // survive in the checkpoint and an un-cancelled rerun converges to
        // the clean digest.
        let spec = JobSpec::nv_core(5, 0xcab);
        let clean_path = scratch("cancel_clean");
        let baseline = run_job(7, &spec, &clean_path, None, |_| {}).unwrap();
        let _ = std::fs::remove_file(&clean_path);

        let path = scratch("cancel_mid");
        let flag = Arc::new(AtomicBool::new(false));
        let raiser = Arc::clone(&flag);
        let result = run_job(7, &spec, &path, Some(&flag), move |_| {
            raiser.store(true, Ordering::Relaxed);
        });
        assert!(matches!(result, Err(JobError::Cancelled)));
        let report = run_job(7, &spec, &path, None, |_| {}).unwrap();
        assert_eq!(report.digest, baseline.digest);
        assert!(
            report.resumed_trials >= 1,
            "the pre-cancel completion must have been checkpointed"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mid_trial_cancellation_surfaces_as_cancelled_attack_error() {
        // Drive one trial directly with a raised flag: the cooperative
        // watchdog check inside the attack layers must observe it.
        let mut trial = Trial {
            index: 0,
            rng: nv_rand::Rng::stream(0xf1a9, 0),
            deadline: Some(20_000),
        };
        let flag = Arc::new(AtomicBool::new(true));
        let err = nv_core_trial(&mut trial, Some(&flag)).unwrap_err();
        assert!(matches!(err, AttackError::Cancelled), "{err}");
    }

    #[test]
    fn nv_s_job_digest_is_stable() {
        let spec = JobSpec::nv_s(0x6cd);
        let path_a = scratch("nvs_a");
        let path_b = scratch("nvs_b");
        let a = run_job(5, &spec, &path_a, None, |_| {}).unwrap();
        let b = run_job(5, &spec, &path_b, None, |_| {}).unwrap();
        assert_eq!(a.completed, 1);
        assert_eq!(a.digest, b.digest);
        let _ = std::fs::remove_file(&path_a);
        let _ = std::fs::remove_file(&path_b);
    }
}
