//! Shared engine for the fault-tolerance demo (`repro_resilience`).
//!
//! Exercises the supervised campaign paths end to end on the real attack
//! stack (NV-Core overlap measurements on a simulated core):
//!
//! * **quarantine** — a campaign where a fixed fraction of trials is
//!   sabotaged (injected panics, and wedged cores that blow the watchdog
//!   deadline) still completes under
//!   [`FailurePolicy::Quarantine`], with every casualty recorded as a
//!   typed [`TrialOutcome`] instead of a process abort;
//! * **retry** — flaky trials (a fault drawn from the attempt's own rng
//!   stream) heal under [`FailurePolicy::Retry`], because each retry
//!   draws a fresh deterministic sub-stream; the lifecycle events in the
//!   merged [`nv_obs`] metrics count exactly the retries taken;
//! * **resume** — a campaign killed after `k` completed trials (the
//!   process dies mid-run; the checkpoint survives) resumes to output
//!   byte-identical to an uninterrupted run, at 1/2/8 worker threads;
//! * **corruption** — a torn or garbage trailing checkpoint record is
//!   dropped, counted in the typed `ResumeReport`, and truncated away —
//!   never fatal — and resume still converges to the identical output.
//!
//! Every aggregate is deterministic: trial streams come from
//! `nv_rand::Rng::stream(master_seed, index)`, fault injection is keyed
//! on the trial index or the trial's own stream, and campaign merges are
//! trial-index-ordered. `--threads` changes wall-clock time only.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use nightvision::campaign::{Campaign, Trial};
use nightvision::{
    AttackError, CampaignCheckpoint, FailurePolicy, NvCore, PwSpec, Resilience, TrialOutcome,
};
use nv_isa::{Assembler, VirtAddr};
use nv_obs::EventKind;
use nv_uarch::{Core, Machine, UarchConfig};

/// Base of the monitored region (same alias-friendly neighbourhood the
/// other benches use).
const MON: u64 = 0x40_0900;

/// Windows in the probed chain.
const WINDOWS: usize = 2;

/// Master seed for every demo campaign.
pub const MASTER_SEED: u64 = 0x5e11_f00d;

/// Per-trial watchdog budget in retirement steps. Clean trials finish in
/// well under half of this; the injected wedge spins past it.
pub const DEADLINE_STEPS: u64 = 20_000;

fn chain() -> Vec<PwSpec> {
    (0..WINDOWS as u64)
        .map(|i| PwSpec::new(VirtAddr::new(MON + 0x40 * i), 16).expect("window"))
        .collect()
}

fn build_victim(entry: u64, nops: usize) -> Machine {
    let mut asm = Assembler::new(VirtAddr::new(entry));
    for _ in 0..nops {
        asm.nop();
    }
    asm.halt();
    Machine::new(asm.finish().expect("victim fragment assembles"))
}

/// One clean NV-Core overlap measurement, driven entirely by the trial's
/// rng stream. Returns a compact signature (window-overlap bitmask plus
/// the victim geometry that produced it) so resume identity can be
/// checked bit-for-bit.
///
/// # Panics
///
/// Panics if the measured overlap contradicts the victim geometry — on a
/// quiet simulated core the primitive is exact, so a mismatch is a bug.
pub fn clean_trial(trial: &mut Trial) -> Result<u64, AttackError> {
    let mut core = Core::new(UarchConfig::default());
    trial.arm(&mut core);
    // Geometry drawn from the trial stream: the fragment starts 0..4
    // windows below MON and runs long enough to cross 0..=2 of them.
    let below = trial.rng.gen_range(0..4u64) * 0x40;
    let nops = 8 + trial.rng.gen_range(0..96u64) as usize;
    let entry = MON - below;
    let mut nv = NvCore::with_resilience(chain(), Resilience::none())?;
    nv.begin(&mut core)?;
    let matched = nv.measure(&mut core, |core| {
        core.reset_frontend();
        let mut victim = build_victim(entry, nops);
        core.run(&mut victim, 4_000);
    })?;
    let mut signature = 0u64;
    for (i, hit) in matched.iter().enumerate() {
        // 1-byte nops plus the halt: instructions retire at
        // [entry, entry + nops].
        let window = MON + 0x40 * i as u64;
        let expected = entry + nops as u64 >= window;
        assert_eq!(
            *hit, expected,
            "window {i} verdict contradicts geometry (entry {entry:#x}, {nops} nops)"
        );
        signature |= (*hit as u64) << i;
    }
    Ok(signature << 32 | (below / 0x40) << 16 | nops as u64)
}

/// A trial wedged the way a lost enclave wedges: the core spins far past
/// the watchdog budget, so the next probe pass reports
/// [`AttackError::DeadlineExceeded`] instead of hanging the campaign.
fn wedged_trial(trial: &mut Trial) -> Result<u64, AttackError> {
    let mut core = Core::new(UarchConfig::default());
    trial.arm(&mut core);
    let mut nv = NvCore::with_resilience(chain(), Resilience::none())?;
    nv.begin(&mut core)?;
    nv.measure(&mut core, |core| {
        // The "victim" never halts; the run-loop step cap stands in for
        // wall-clock time and blows straight through the deadline.
        let mut asm = Assembler::new(VirtAddr::new(MON - 0x200));
        asm.label("spin");
        asm.jmp8("spin");
        let mut victim = Machine::new(asm.finish().expect("wedge assembles"));
        core.run(&mut victim, DEADLINE_STEPS * 4);
    })?;
    unreachable!("the wedged probe pass must trip the watchdog");
}

/// Outcome census of the quarantine demo.
#[derive(Clone, Copy, Debug)]
pub struct QuarantineReport {
    /// Trials in the campaign.
    pub trials: usize,
    /// Trials that completed normally.
    pub completed: usize,
    /// Trials quarantined, for any reason.
    pub quarantined: usize,
    /// Trials quarantined after an injected panic.
    pub panicked: usize,
    /// Trials quarantined by the watchdog deadline.
    pub deadline_exceeded: usize,
}

impl QuarantineReport {
    /// Fraction of trials that completed.
    pub fn completion_rate(&self) -> f64 {
        self.completed as f64 / self.trials as f64
    }
}

/// Runs a campaign where every 7th trial (offset 3) panics and every 7th
/// (offset 5) wedges, under `Quarantine`: the campaign must complete with
/// the sabotage recorded as typed outcomes.
///
/// # Panics
///
/// Panics if an injected fault is misclassified (e.g. a wedge surfacing
/// as anything but `DeadlineExceeded`) or sabotage leaks into the
/// completed set.
pub fn quarantine_demo(trials: usize, threads: usize) -> QuarantineReport {
    let (outcomes, _) = Campaign::new(trials)
        .master_seed(MASTER_SEED)
        .threads(threads)
        .deadline_steps(DEADLINE_STEPS)
        .failure_policy(FailurePolicy::Quarantine {
            max_failures: trials,
        })
        .run_supervised(|mut trial| match trial.index % 7 {
            3 => panic!("injected fault: trial {} lost its enclave", trial.index),
            5 => wedged_trial(&mut trial),
            _ => clean_trial(&mut trial),
        });
    let mut report = QuarantineReport {
        trials,
        completed: 0,
        quarantined: 0,
        panicked: 0,
        deadline_exceeded: 0,
    };
    for (index, outcome) in outcomes.iter().enumerate() {
        match outcome {
            TrialOutcome::Completed(_) => {
                assert!(
                    index % 7 != 3 && index % 7 != 5,
                    "sabotaged trial {index} reported completion"
                );
                report.completed += 1;
            }
            TrialOutcome::Failed(err) => {
                panic!("unexpected typed failure in trial {index}: {err}")
            }
            TrialOutcome::Panicked { message } => {
                assert_eq!(index % 7, 3, "unexpected panic in trial {index}: {message}");
                report.panicked += 1;
                report.quarantined += 1;
            }
            TrialOutcome::DeadlineExceeded { consumed, limit } => {
                assert_eq!(index % 7, 5, "unexpected deadline in trial {index}");
                assert!(
                    consumed >= limit,
                    "deadline outcome with consumed {consumed} < limit {limit}"
                );
                report.deadline_exceeded += 1;
                report.quarantined += 1;
            }
        }
    }
    report
}

/// Result of the retry demo.
#[derive(Clone, Copy, Debug)]
pub struct RetryReport {
    /// Trials in the campaign.
    pub trials: usize,
    /// Trials whose first attempt was sabotaged.
    pub flaky_trials: usize,
    /// `TrialRetried` lifecycle events in the merged metrics.
    pub retries_observed: u64,
    /// Whether every trial ultimately completed.
    pub all_completed: bool,
}

/// Runs a campaign where every 4th trial fails its first attempt, under
/// `Retry`: the retry draws a fresh deterministic sub-stream, the trial
/// heals, and the merged metrics count exactly the retries taken.
///
/// # Panics
///
/// Panics if the observed retry count disagrees with the injected flake
/// schedule.
pub fn retry_demo(trials: usize, threads: usize) -> RetryReport {
    let first_attempts = AtomicUsize::new(0);
    let (outcomes, metrics) = Campaign::new(trials)
        .master_seed(MASTER_SEED ^ 0x11)
        .threads(threads)
        .deadline_steps(DEADLINE_STEPS)
        .failure_policy(FailurePolicy::Retry { budget: 2 })
        .run_supervised(|mut trial| {
            if trial.index % 4 == 1 {
                // The attempt's own stream decides the flake: attempt 0
                // draws the plain-run stream (sabotaged here), retries
                // draw fresh sub-streams and pass.
                let first_draw = trial.rng.next_u64();
                let attempt0 =
                    nv_rand::Rng::stream(MASTER_SEED ^ 0x11, trial.index as u64).next_u64();
                if first_draw == attempt0 {
                    first_attempts.fetch_add(1, Ordering::Relaxed);
                    return Err(AttackError::NotCalibrated);
                }
            }
            clean_trial(&mut trial)
        });
    let flaky = (0..trials).filter(|i| i % 4 == 1).count();
    let retries = metrics.count(EventKind::TrialRetried);
    let report = RetryReport {
        trials,
        flaky_trials: flaky,
        retries_observed: retries,
        all_completed: outcomes.iter().all(|o| o.is_completed()),
    };
    assert!(
        report.all_completed,
        "a flaky trial failed to heal on retry"
    );
    assert_eq!(
        retries, flaky as u64,
        "retry count must equal the number of sabotaged first attempts"
    );
    assert_eq!(first_attempts.load(Ordering::Relaxed), flaky);
    report
}

/// Result of the kill-and-resume demo.
#[derive(Clone, Debug)]
pub struct ResumeReport {
    /// Trials in the campaign.
    pub trials: usize,
    /// Completed-trial count at which the campaign was killed.
    pub kill_at: usize,
    /// Worker counts the resumed run was checked at.
    pub thread_counts: Vec<usize>,
    /// Whether every resumed run matched the uninterrupted baseline
    /// bit-for-bit.
    pub resume_identical: bool,
    /// Trials the resumed run actually re-executed (per thread count).
    pub reexecuted: Vec<usize>,
}

fn demo_campaign(trials: usize, threads: usize) -> Campaign {
    Campaign::new(trials)
        .master_seed(MASTER_SEED ^ 0x22)
        .threads(threads)
        .deadline_steps(DEADLINE_STEPS)
}

/// Runs the campaign against `path`, killing the process (simulated: a
/// panic that unwinds out of the campaign) once `kill_at` trials have
/// completed and checkpointed. Returns how many trials had made it to
/// the checkpoint when the "process" died.
fn run_until_killed(campaign: &Campaign, path: &Path, kill_at: usize) -> usize {
    let key = campaign.checkpoint_key(fingerprint());
    let checkpoint = CampaignCheckpoint::open(path, key).expect("open checkpoint");
    let completed = AtomicUsize::new(checkpoint.completed_trials());
    let result = catch_unwind(AssertUnwindSafe(|| {
        campaign.resume(&checkpoint, |mut trial| {
            if completed.load(Ordering::SeqCst) >= kill_at {
                panic!("simulated SIGKILL after {kill_at} checkpointed trials");
            }
            let value = clean_trial(&mut trial)?;
            completed.fetch_add(1, Ordering::SeqCst);
            Ok(value)
        })
    }));
    assert!(
        result.is_err() || kill_at >= campaign_trials(campaign),
        "the kill must fire unless the checkpoint already covers the campaign"
    );
    // Count what actually reached disk: reopen like a fresh process would.
    CampaignCheckpoint::open(path, key)
        .expect("reopen checkpoint")
        .completed_trials()
}

fn campaign_trials(campaign: &Campaign) -> usize {
    campaign.checkpoint_key(0).trials as usize
}

/// Config fingerprint shared by every resume-demo campaign.
fn fingerprint() -> u64 {
    nightvision::checkpoint::fnv1a64(b"repro_resilience clean_trial v1")
}

/// Kill-at-`k` + resume identity: the uninterrupted baseline and the
/// killed-then-resumed run must produce byte-identical outcome vectors at
/// every requested thread count.
///
/// # Panics
///
/// Panics on checkpoint I/O failure; identity violations are reported in
/// the returned [`ResumeReport`] (and asserted by the caller).
pub fn resume_demo(trials: usize, kill_at: usize, thread_counts: &[usize]) -> ResumeReport {
    let baseline = demo_campaign(trials, 1)
        .run_supervised(|mut t| clean_trial(&mut t))
        .0;
    let mut identical = true;
    let mut reexecuted = Vec::new();
    for &threads in thread_counts {
        let campaign = demo_campaign(trials, threads);
        let path = scratch_path(&format!("resume_t{threads}"));
        // Kill a *serial* run so exactly `kill_at` trials reach the
        // checkpoint — with parallel workers the kill races trial
        // completion and the surviving count would leak scheduling
        // nondeterminism into the report. (tests/resilience.rs covers
        // parallel kills, where the count is not reported.)
        let survived = run_until_killed(&demo_campaign(trials, 1), &path, kill_at);
        assert_eq!(
            survived,
            kill_at.min(trials),
            "a serial kill must checkpoint exactly kill_at trials"
        );
        let key = campaign.checkpoint_key(fingerprint());
        let checkpoint = CampaignCheckpoint::open(&path, key).expect("reopen after kill");
        let ran = AtomicUsize::new(0);
        let (resumed, _) = campaign.resume(&checkpoint, |mut trial| {
            ran.fetch_add(1, Ordering::Relaxed);
            clean_trial(&mut trial)
        });
        identical &= resumed == baseline;
        reexecuted.push(ran.load(Ordering::Relaxed));
        let _ = std::fs::remove_file(&path);
    }
    ResumeReport {
        trials,
        kill_at,
        thread_counts: thread_counts.to_vec(),
        resume_identical: identical,
        reexecuted,
    }
}

/// Result of the checkpoint-corruption demo.
#[derive(Clone, Copy, Debug)]
pub struct CorruptionReport {
    /// Records dropped when the damaged file was reopened.
    pub dropped_records: usize,
    /// Whether the resumed run still matched the baseline exactly.
    pub resume_identical: bool,
}

/// Tears the final checkpoint record (simulating a crash mid-`write`) and
/// appends garbage, then reopens and resumes: the damage must be dropped
/// and reported in the typed `ResumeReport` — never fatal — and the
/// resumed output must still match the uninterrupted baseline.
///
/// # Panics
///
/// Panics if reopening the damaged checkpoint fails outright (corruption
/// must degrade to re-execution, not to an error).
pub fn corruption_demo(trials: usize, threads: usize) -> CorruptionReport {
    use std::io::Write;
    let baseline = demo_campaign(trials, 1)
        .run_supervised(|mut t| clean_trial(&mut t))
        .0;
    let campaign = demo_campaign(trials, threads);
    let path = scratch_path("corrupt");
    let kill_at = trials / 2;
    // Serial kill for the same reason as resume_demo: the surviving
    // record count must not depend on worker scheduling.
    run_until_killed(&demo_campaign(trials, 1), &path, kill_at);
    {
        // Tear the last record mid-frame and add a line of garbage — the
        // two corruption shapes a crash plus a dirty page can leave.
        let contents = std::fs::read_to_string(&path).expect("read checkpoint");
        let torn = &contents[..contents.len() - 7];
        let mut file = std::fs::File::create(&path).expect("rewrite checkpoint");
        file.write_all(torn.as_bytes()).expect("write torn");
        file.write_all(b"{\"len\": 9999, \"crc\": 0, \"body\": {}}\n")
            .expect("write garbage");
    }
    let key = campaign.checkpoint_key(fingerprint());
    let checkpoint = CampaignCheckpoint::open(&path, key).expect("damaged checkpoint must open");
    let dropped = checkpoint.dropped_records();
    assert!(dropped >= 1, "the torn tail must be counted as dropped");
    let (resumed, _) = campaign.resume(&checkpoint, |mut trial| clean_trial(&mut trial));
    let _ = std::fs::remove_file(&path);
    CorruptionReport {
        dropped_records: dropped,
        resume_identical: resumed == baseline,
    }
}

fn scratch_path(name: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("nv_resilience_{name}_{}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

/// The full demo suite, rendered to `BENCH_resilience.json`.
#[derive(Clone, Debug)]
pub struct ResilienceReport {
    /// Quarantine census.
    pub quarantine: QuarantineReport,
    /// Retry census.
    pub retry: RetryReport,
    /// Kill/resume identity.
    pub resume: ResumeReport,
    /// Corruption tolerance.
    pub corruption: CorruptionReport,
}

/// Runs all four demos.
pub fn run_suite(trials: usize, threads: usize, thread_counts: &[usize]) -> ResilienceReport {
    let quarantine = quarantine_demo(trials, threads);
    let retry = retry_demo(trials, threads);
    let resume = resume_demo(trials, trials / 2, thread_counts);
    let corruption = corruption_demo(trials, threads);
    ResilienceReport {
        quarantine,
        retry,
        resume,
        corruption,
    }
}

impl ResilienceReport {
    /// Renders the suite as a `BENCH_resilience.json` document
    /// (hand-rolled — the workspace owns all of its dependencies).
    pub fn to_json(&self) -> String {
        let q = &self.quarantine;
        let r = &self.retry;
        let s = &self.resume;
        let c = &self.corruption;
        let threads: Vec<String> = s.thread_counts.iter().map(|t| t.to_string()).collect();
        let reexec: Vec<String> = s.reexecuted.iter().map(|n| n.to_string()).collect();
        format!(
            "{{\n  \"bench\": \"resilience\",\n  \"trials\": {},\n  \
             \"quarantine\": {{\"completed\": {}, \"quarantined\": {}, \"panicked\": {}, \
             \"deadline_exceeded\": {}, \"completion_rate\": {:.4}}},\n  \
             \"retry\": {{\"flaky_trials\": {}, \"retries_observed\": {}, \
             \"all_completed\": {}}},\n  \
             \"resume\": {{\"kill_at\": {}, \"threads\": [{}], \"reexecuted\": [{}], \
             \"resume_identical\": {}}},\n  \
             \"corruption\": {{\"dropped_records\": {}, \"corrupt_record_dropped\": {}, \
             \"resume_identical\": {}}}\n}}\n",
            q.trials,
            q.completed,
            q.quarantined,
            q.panicked,
            q.deadline_exceeded,
            q.completion_rate(),
            r.flaky_trials,
            r.retries_observed,
            r.all_completed,
            s.kill_at,
            threads.join(", "),
            reexec.join(", "),
            s.resume_identical,
            c.dropped_records,
            c.dropped_records >= 1,
            c.resume_identical,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quarantine_census_matches_the_injection_schedule() {
        let report = quarantine_demo(14, 2);
        assert_eq!(report.panicked, 2);
        assert_eq!(report.deadline_exceeded, 2);
        assert_eq!(report.completed, 10);
        assert!(report.completion_rate() > 0.6);
    }

    #[test]
    fn retry_heals_every_flaky_trial() {
        let report = retry_demo(9, 2);
        assert!(report.all_completed);
        assert_eq!(report.retries_observed, report.flaky_trials as u64);
    }

    #[test]
    fn kill_and_resume_is_identical_across_thread_counts() {
        let report = resume_demo(8, 3, &[1, 2]);
        assert!(report.resume_identical);
        for &ran in &report.reexecuted {
            assert!(ran <= 8 - 3, "resume re-executed checkpointed trials");
        }
    }

    #[test]
    fn corruption_is_dropped_not_fatal() {
        let report = corruption_demo(6, 2);
        assert!(report.dropped_records >= 1);
        assert!(report.resume_identical);
    }
}
