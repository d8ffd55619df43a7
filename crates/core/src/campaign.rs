//! Multi-threaded trial campaigns with deterministic merging.
//!
//! The paper's accuracy numbers are *averages over many noisy trials*:
//! §7.2 runs the GCD attack 100 times, Fig. 12/13 score tens of thousands
//! of corpus functions, and every number is only as trustworthy as the
//! trial count behind it. Trials are embarrassingly parallel — each is a
//! pure function of `(master_seed, trial_index)` — so this module fans
//! them out across `std::thread` workers while keeping the merged result
//! **byte-identical for any thread count**:
//!
//! * every trial gets its own [`nv_rand::Rng::stream`] child generator,
//!   derived from the campaign's master seed and the trial index — never
//!   from scheduling order;
//! * workers claim runs of indices from a shared atomic counter, each
//!   run a share of what is left (no per-thread pre-partitioning, so
//!   stragglers don't idle the pool, and one claim covers many cheap
//!   trials);
//! * results land in their trial-index slot and are returned in index
//!   order, so folds over the output are oblivious to which worker ran
//!   which trial.
//!
//! Three entry points share one worker loop:
//!
//! * [`Campaign::run`] — plain trials; the first panic aborts the
//!   campaign and re-raises on the caller;
//! * [`Campaign::run_supervised`] — fallible trials whose panics, typed
//!   errors and deadline overruns become [`TrialOutcome`]s under the
//!   configured [`FailurePolicy`], plus the campaign's lifecycle
//!   [`Metrics`] (trial spans, retries, quarantines);
//! * [`Campaign::resume`] — `run_supervised` for `u64`-valued trials
//!   against a [`CampaignCheckpoint`]: recorded trials are skipped, fresh
//!   completions are appended, and a kill at any point resumes to the
//!   uninterrupted output.
//!
//! # Examples
//!
//! ```
//! use nightvision::campaign::Campaign;
//!
//! let sums: Vec<u64> = Campaign::new(8)
//!     .master_seed(42)
//!     .threads(4)
//!     .run(|mut trial| (0..100).map(|_| trial.rng.gen_range(0..10u64)).sum());
//! // Same seed, any thread count: identical output.
//! let serial: Vec<u64> = Campaign::new(8)
//!     .master_seed(42)
//!     .run(|mut trial| (0..100).map(|_| trial.rng.gen_range(0..10u64)).sum());
//! assert_eq!(sums, serial);
//! ```

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use nv_obs::{EventKind, Metrics, ObsEvent, Phase, Recorder};
use nv_rand::Rng;

use crate::checkpoint::{CampaignCheckpoint, CheckpointKey};
use crate::error::AttackError;

/// Event records each supervised trial's lifecycle recorder retains.
const LIFECYCLE_EVENTS: usize = 64;

/// One trial's execution context: its index within the campaign and its
/// private child generator (stream `index` of the campaign's master seed).
#[derive(Debug)]
pub struct Trial {
    /// The trial's index, `0..trials`.
    pub index: usize,
    /// The trial's independent random stream. Deterministic in
    /// `(master_seed, index)` — never in worker identity or timing.
    pub rng: Rng,
    /// The campaign's per-trial watchdog budget in retirement steps
    /// ([`Campaign::deadline_steps`]), if one was configured. Arm it on
    /// the trial's core with [`Trial::arm`].
    pub deadline: Option<u64>,
}

impl Trial {
    /// Arms the campaign's watchdog deadline (if any) on `core`, so the
    /// attack layers' run loops convert a wedged trial into
    /// [`AttackError::DeadlineExceeded`]. A no-op when the campaign has no
    /// deadline configured.
    pub fn arm(&self, core: &mut nv_uarch::Core) {
        if let Some(limit) = self.deadline {
            core.arm_watchdog(limit);
        }
    }
}

/// How one trial finished under [`Campaign::run_supervised`].
#[derive(Clone, PartialEq, Debug)]
pub enum TrialOutcome<T> {
    /// The trial's closure returned `Ok`.
    Completed(T),
    /// The trial's final attempt returned a typed error (other than a
    /// deadline).
    Failed(AttackError),
    /// The trial's final attempt panicked; the payload's message was
    /// captured.
    Panicked {
        /// The panic message (`&str`/`String` payloads; anything else is
        /// described generically).
        message: String,
    },
    /// The trial's final attempt blew its watchdog deadline.
    DeadlineExceeded {
        /// Retirement steps consumed since arming.
        consumed: u64,
        /// The armed budget.
        limit: u64,
    },
}

impl<T> TrialOutcome<T> {
    /// Whether the trial completed.
    pub fn is_completed(&self) -> bool {
        matches!(self, TrialOutcome::Completed(_))
    }

    /// The completed value, if any.
    pub fn completed(&self) -> Option<&T> {
        match self {
            TrialOutcome::Completed(value) => Some(value),
            _ => None,
        }
    }

    /// Consumes the outcome into its completed value, if any.
    pub fn into_completed(self) -> Option<T> {
        match self {
            TrialOutcome::Completed(value) => Some(value),
            _ => None,
        }
    }
}

/// What a supervised campaign does with a trial whose final attempt did
/// not complete.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum FailurePolicy {
    /// First failure aborts the whole campaign — [`Campaign::run`]'s
    /// semantics. A panicking trial re-raises its original payload on the
    /// calling thread; a typed error or deadline panics with a descriptive
    /// message.
    #[default]
    Abort,
    /// Record the failure as a typed [`TrialOutcome`] and carry on, up to
    /// `max_failures` failed trials; one more aborts the campaign (a
    /// systematically broken campaign should not burn its full budget).
    Quarantine {
        /// Failed trials tolerated before the campaign aborts.
        max_failures: usize,
    },
    /// Re-run a failed trial up to `budget` more times, each attempt on a
    /// fresh deterministic sub-stream of the trial's RNG stream (attempt 0
    /// is the stream [`Campaign::run`] would use, so completions without
    /// retries are byte-identical to unsupervised runs). A trial that
    /// fails all `budget + 1` attempts is quarantined with its final
    /// outcome; other trials are never perturbed.
    Retry {
        /// Additional attempts per trial.
        budget: usize,
    },
}

/// A parallel trial campaign: `trials` executions of a closure, fanned out
/// over `threads` workers, merged in trial-index order.
#[derive(Clone, Copy, Debug)]
pub struct Campaign {
    trials: usize,
    threads: usize,
    master_seed: u64,
    policy: FailurePolicy,
    deadline: Option<u64>,
}

impl Campaign {
    /// A campaign of `trials` trials on one thread with master seed 0.
    #[must_use]
    pub fn new(trials: usize) -> Campaign {
        Campaign {
            trials,
            threads: 1,
            master_seed: 0,
            policy: FailurePolicy::Abort,
            deadline: None,
        }
    }

    /// Sets the worker-thread count. `0` means "size for this host":
    /// it resolves to [`std::thread::available_parallelism`] (falling
    /// back to 1 if the host cannot report it), so servers can spawn
    /// per-host-sized pools without config plumbing. The thread count
    /// affects wall-clock time only, never results — `threads(0)` output
    /// is byte-identical to any explicit count.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Campaign {
        self.threads = if threads == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            threads
        };
        self
    }

    /// Sets the master seed that every trial's child stream derives from.
    #[must_use]
    pub fn master_seed(mut self, seed: u64) -> Campaign {
        self.master_seed = seed;
        self
    }

    /// Sets the failure policy of [`Campaign::run_supervised`] and
    /// [`Campaign::resume`]. [`Campaign::run`] ignores it — plain runs
    /// always abort on failure.
    #[must_use]
    pub fn failure_policy(mut self, policy: FailurePolicy) -> Campaign {
        self.policy = policy;
        self
    }

    /// Sets a per-trial watchdog budget in retirement steps. Trials
    /// receive it as [`Trial::deadline`] and arm it on their core with
    /// [`Trial::arm`]; under supervision a trial that exceeds it becomes
    /// a [`TrialOutcome::DeadlineExceeded`] instead of a hung worker.
    #[must_use]
    pub fn deadline_steps(mut self, steps: u64) -> Campaign {
        self.deadline = Some(steps);
        self
    }

    /// Number of trials.
    #[must_use]
    pub fn trials(&self) -> usize {
        self.trials
    }

    /// The [`CheckpointKey`] identifying this campaign's checkpoints:
    /// master seed, trial count, and the caller's config fingerprint
    /// (hash a canonical config description with
    /// [`crate::checkpoint::fnv1a64`]).
    #[must_use]
    pub fn checkpoint_key(&self, config_fingerprint: u64) -> CheckpointKey {
        CheckpointKey {
            master_seed: self.master_seed,
            trials: self.trials as u64,
            config_fingerprint,
        }
    }

    /// Runs the campaign and returns one result per trial, in trial-index
    /// order.
    ///
    /// The closure must be a pure function of the [`Trial`] it receives
    /// (plus immutable captured state) for the determinism guarantee to
    /// hold; the engine guarantees the rest.
    ///
    /// # Panics
    ///
    /// Propagates panics from trial closures: the first panicking trial
    /// aborts the campaign — the remaining workers stop claiming new
    /// trials — and the trial's **original panic payload** is re-raised
    /// on the calling thread with [`std::panic::resume_unwind`], so
    /// `catch_unwind` callers and test harnesses see the real message,
    /// not a generic join failure.
    pub fn run<T, F>(&self, trial_fn: F) -> Vec<T>
    where
        T: Send,
        F: Fn(Trial) -> T + Sync,
    {
        self.engine(|index, _| Ok(trial_fn(self.trial(index, 0)))).0
    }

    /// Runs the campaign under supervision: every trial's panics, typed
    /// errors and watchdog-deadline overruns become per-trial
    /// [`TrialOutcome`]s handled per the configured [`FailurePolicy`],
    /// instead of unconditionally aborting the run.
    ///
    /// Completed trials are byte-identical to what [`Campaign::run`]
    /// computes for the same `(master_seed, index)` — supervision wraps
    /// the trial, it never touches its RNG stream — and results arrive in
    /// trial-index order regardless of thread count, exactly like `run`.
    ///
    /// The returned [`Metrics`] hold the engine's own lifecycle record:
    /// one [`Phase::Trial`] span per trial, and an
    /// [`ObsEvent::TrialRetried`] per retry attempt and an
    /// [`ObsEvent::TrialQuarantined`] per written-off trial under
    /// [`Phase::Retry`]/[`Phase::Quarantine`] spans. They too are
    /// byte-identical at any thread count.
    ///
    /// # Panics
    ///
    /// Under [`FailurePolicy::Abort`], the first failing trial aborts the
    /// campaign (panics re-raise their original payload). Under
    /// [`FailurePolicy::Quarantine`], exceeding `max_failures` aborts.
    pub fn run_supervised<T, F>(&self, trial_fn: F) -> (Vec<TrialOutcome<T>>, Metrics)
    where
        T: Send,
        F: Fn(Trial) -> Result<T, AttackError> + Sync,
    {
        let failures = AtomicUsize::new(0);
        self.engine(|index, metrics| {
            observed(metrics, |rec| {
                self.supervise(index, rec, &failures, &trial_fn)
            })
        })
    }

    /// [`Campaign::run_supervised`] against a [`CampaignCheckpoint`]:
    /// trials already recorded in the checkpoint are *skipped* (their
    /// values are returned as [`TrialOutcome::Completed`]), the rest run
    /// normally and append their values as they complete. Killing the
    /// process at any point and calling `resume` again with a re-opened
    /// checkpoint yields output byte-identical to an uninterrupted run —
    /// at any thread count and any interruption point.
    ///
    /// Values are stored as decimal strings; a record that does not parse
    /// as a `u64` is treated as absent and its trial re-runs. On top of
    /// the supervised lifecycle events, skipped trials emit
    /// [`ObsEvent::CheckpointResumed`] and fresh completions emit
    /// [`ObsEvent::CheckpointAppended`], both under [`Phase::Checkpoint`]
    /// spans. If the checkpoint dropped a torn or corrupt tail when it was
    /// opened ([`CampaignCheckpoint::resume_report`]), the metrics count
    /// one [`EventKind::CheckpointTorn`] so daemons surface the damage in
    /// scrapes instead of losing it on stderr.
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint's key does not match this campaign's
    /// master seed and trial count (open the file via
    /// [`CampaignCheckpoint::open`] with [`Campaign::checkpoint_key`] to
    /// get the fingerprint check too), if checkpoint appends start
    /// failing mid-run (persistence loss is campaign-fatal), or per the
    /// failure policy exactly like [`Campaign::run_supervised`].
    pub fn resume<F>(
        &self,
        checkpoint: &CampaignCheckpoint,
        trial_fn: F,
    ) -> (Vec<TrialOutcome<u64>>, Metrics)
    where
        F: Fn(Trial) -> Result<u64, AttackError> + Sync,
    {
        let key = checkpoint.key();
        assert!(
            key.master_seed == self.master_seed && key.trials == self.trials as u64,
            "checkpoint {} was opened for seed {:#x}/{} trials, campaign has seed {:#x}/{} trials",
            checkpoint.path().display(),
            key.master_seed,
            key.trials,
            self.master_seed,
            self.trials,
        );
        let failures = AtomicUsize::new(0);
        let (outcomes, mut metrics) = self.engine(|index, metrics| {
            observed(metrics, |rec| {
                let trial = index as u64;
                if let Some(value) = checkpoint.data(index).and_then(|data| data.parse().ok()) {
                    rec.enter(Phase::Checkpoint, 0);
                    rec.event(0, ObsEvent::CheckpointResumed { trial });
                    rec.exit(Phase::Checkpoint, 0);
                    return Ok(TrialOutcome::Completed(value));
                }
                let outcome = self.supervise(index, rec, &failures, &trial_fn)?;
                if let TrialOutcome::Completed(value) = outcome {
                    rec.enter(Phase::Checkpoint, 0);
                    if let Err(err) = checkpoint.append(index, &value.to_string()) {
                        // Losing persistence mid-run is campaign-fatal: a
                        // caller trusting the checkpoint must never
                        // discover at resume time that completions
                        // silently vanished.
                        return Err(Box::new(format!(
                            "checkpoint append failed for trial {index}: {err}"
                        )));
                    }
                    rec.event(0, ObsEvent::CheckpointAppended { trial });
                    rec.exit(Phase::Checkpoint, 0);
                }
                Ok(outcome)
            })
        });
        if checkpoint.resume_report().is_torn() {
            metrics.event_counts[EventKind::CheckpointTorn.index()] += 1;
        }
        (outcomes, metrics)
    }

    /// Attempt `attempt` of trial `index`.
    #[inline]
    fn trial(&self, index: usize, attempt: usize) -> Trial {
        Trial {
            index,
            rng: attempt_rng(self.master_seed, index, attempt),
            deadline: self.deadline,
        }
    }

    /// The one worker loop behind every entry point. `run_one` takes a
    /// trial index and the claiming worker's metrics; its `Err` (or a
    /// panic escaping it) aborts the campaign: the other workers stop
    /// claiming trials and the payload re-raises on the calling thread.
    /// Results return in trial-index order with every worker's metrics
    /// merged — [`Metrics::merge`] only adds, so the sum is the same for
    /// any split of trials across workers.
    fn engine<T, F>(&self, run_one: F) -> (Vec<T>, Metrics)
    where
        T: Send,
        F: Fn(usize, &mut Metrics) -> Result<T, Payload> + Sync,
    {
        let next = AtomicUsize::new(0);
        let abort = AtomicBool::new(false);
        let workers = self.threads.min(self.trials).max(1);
        // Workers claim runs of consecutive indices sized to a share of
        // what is left (guided self-scheduling): long runs while the queue
        // is long keep claims — one atomic each — rare, and single trials
        // at the tail keep the workers balanced. Each worker keeps its
        // `(start, results)` runs and its metrics privately, with no shared
        // lock on the result path. Catching here (`AssertUnwindSafe` is
        // sound: a panicked trial's state is abandoned and its payload
        // re-raised below, so no broken invariant is ever observed) raises
        // the abort flag on every escape route, and every worker checks it
        // before each trial, so survivors stop promptly instead of draining
        // the queue.
        let worker = || {
            let mut runs = Vec::new();
            let mut metrics = Metrics::default();
            'claim: loop {
                let left = self.trials.saturating_sub(next.load(Ordering::Relaxed));
                let len = (left / (2 * workers)).max(1);
                let start = next.fetch_add(len, Ordering::Relaxed);
                if start >= self.trials {
                    break;
                }
                let mut run = Vec::with_capacity(len);
                for index in start..(start + len).min(self.trials) {
                    if abort.load(Ordering::SeqCst) {
                        break 'claim;
                    }
                    match catch_unwind(AssertUnwindSafe(|| run_one(index, &mut metrics))) {
                        Ok(Ok(result)) => run.push(result),
                        Ok(Err(payload)) | Err(payload) => {
                            abort.store(true, Ordering::SeqCst);
                            return Err(payload);
                        }
                    }
                }
                runs.push((start, run));
            }
            Ok((runs, metrics))
        };
        // The calling thread is always one of the workers, so a
        // one-worker campaign spawns nothing.
        let finished: Vec<_> = std::thread::scope(|scope| {
            let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(worker)).collect();
            let mut finished = vec![worker()];
            finished.extend(helpers.into_iter().map(|helper| {
                helper
                    .join()
                    .expect("campaign worker died outside a trial closure")
            }));
            finished
        });
        let mut runs = Vec::new();
        let mut metrics = Metrics::default();
        for worker in finished {
            let (worker_runs, worker_metrics) =
                worker.unwrap_or_else(|payload| resume_unwind(payload));
            runs.extend(worker_runs);
            metrics.merge(&worker_metrics);
        }
        runs.sort_unstable_by_key(|&(start, _)| start);
        let mut results = Vec::with_capacity(self.trials);
        for (_, run) in runs {
            results.extend(run);
        }
        assert_eq!(results.len(), self.trials, "every trial index was claimed");
        (results, metrics)
    }

    /// Runs trial `index` to its final outcome, retrying per policy, and
    /// applies the failure policy: `Err` carries the payload the campaign
    /// must abort with.
    fn supervise<T>(
        &self,
        index: usize,
        rec: &mut Recorder,
        failures: &AtomicUsize,
        trial_fn: &impl Fn(Trial) -> Result<T, AttackError>,
    ) -> Result<TrialOutcome<T>, Payload> {
        let budget = match self.policy {
            FailurePolicy::Retry { budget } => budget,
            _ => 0,
        };
        let trial = index as u64;
        let mut attempt = 0;
        let (outcome, payload) = loop {
            if attempt > 0 {
                let attempt = attempt as u64;
                rec.event(0, ObsEvent::TrialRetried { trial, attempt });
                rec.enter(Phase::Retry, 0);
            }
            // A panicked attempt's state is abandoned; the recorder only
            // ever gains append-only records, and `finish` closes any span
            // the panic left open.
            let result = catch_unwind(AssertUnwindSafe(|| trial_fn(self.trial(index, attempt))));
            if attempt > 0 {
                rec.exit(Phase::Retry, 0);
            }
            let (outcome, payload) = match result {
                Ok(Ok(value)) => return Ok(TrialOutcome::Completed(value)),
                Ok(Err(AttackError::DeadlineExceeded { consumed, limit })) => {
                    (TrialOutcome::DeadlineExceeded { consumed, limit }, None)
                }
                Ok(Err(error)) => (TrialOutcome::Failed(error), None),
                Err(payload) => {
                    let message = panic_message(payload.as_ref());
                    (TrialOutcome::Panicked { message }, Some(payload))
                }
            };
            // A cancelled trial must not burn its retry budget: every
            // further attempt would observe the same raised flag and fail
            // identically, only slower.
            if attempt == budget || matches!(outcome, TrialOutcome::Failed(AttackError::Cancelled))
            {
                break (outcome, payload);
            }
            attempt += 1;
        };

        match self.policy {
            FailurePolicy::Abort => {
                return Err(match (payload, outcome) {
                    (Some(payload), _) => payload,
                    (None, TrialOutcome::Failed(error)) => Box::new(format!(
                        "trial {index} failed under FailurePolicy::Abort: {error}"
                    )),
                    (None, TrialOutcome::DeadlineExceeded { consumed, limit }) => {
                        Box::new(format!(
                            "trial {index} exceeded its deadline under FailurePolicy::Abort: \
                             {consumed} of {limit} steps"
                        ))
                    }
                    (None, _) => unreachable!("panicked outcomes keep their payload"),
                })
            }
            FailurePolicy::Quarantine { max_failures } => {
                let failed_so_far = failures.fetch_add(1, Ordering::SeqCst) + 1;
                if failed_so_far > max_failures {
                    return Err(Box::new(format!(
                        "campaign aborted: {failed_so_far} failed trials exceed \
                         FailurePolicy::Quarantine {{ max_failures: {max_failures} }}"
                    )));
                }
            }
            // Retries exhausted: the trial is written off exactly like a
            // quarantined one, without a cap — the retry budget itself
            // bounds the wasted work.
            FailurePolicy::Retry { .. } => {}
        }
        rec.enter(Phase::Quarantine, 0);
        rec.event(0, ObsEvent::TrialQuarantined { trial });
        rec.exit(Phase::Quarantine, 0);
        Ok(outcome)
    }
}

/// A caught panic payload.
type Payload = Box<dyn Any + Send + 'static>;

/// Runs one supervised trial on a fresh lifecycle recorder, opened on a
/// [`Phase::Trial`] span, and folds the recorder into the worker's
/// `metrics`.
fn observed<T>(
    metrics: &mut Metrics,
    body: impl FnOnce(&mut Recorder) -> Result<T, Payload>,
) -> Result<T, Payload> {
    let mut recorder = Recorder::new(LIFECYCLE_EVENTS);
    recorder.enter(Phase::Trial, 0);
    let result = body(&mut recorder)?;
    recorder.finish();
    metrics.merge(&recorder.metrics());
    Ok(result)
}

/// The RNG stream for one attempt of one trial. Attempt 0 is the trial's
/// own stream — byte-identical to [`Campaign::run`] — and attempt `k` is
/// the `k`-th [`Rng::split`] drawn from a fresh copy of that stream, so
/// every retry sees fresh deterministic randomness that depends only on
/// `(master_seed, index, attempt)`, never on other trials or timing.
#[inline]
fn attempt_rng(master_seed: u64, index: usize, attempt: usize) -> Rng {
    let mut parent = Rng::stream(master_seed, index as u64);
    if attempt == 0 {
        return parent;
    }
    let mut child = parent.split();
    for _ in 1..attempt {
        child = parent.split();
    }
    child
}

/// Best-effort extraction of a panic payload's message: `&str` and
/// `String` payloads verbatim, anything else described generically.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trial_signature(mut trial: Trial) -> (usize, Vec<u64>) {
        (trial.index, (0..16).map(|_| trial.rng.next_u64()).collect())
    }

    #[test]
    fn results_arrive_in_index_order() {
        let results = Campaign::new(64).threads(8).run(|t| t.index);
        assert_eq!(results, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn thread_count_never_changes_results() {
        let baseline = Campaign::new(33).master_seed(0xfeed).run(trial_signature);
        for threads in [2, 3, 8, 16] {
            let parallel = Campaign::new(33)
                .master_seed(0xfeed)
                .threads(threads)
                .run(trial_signature);
            assert_eq!(baseline, parallel, "diverged at {threads} threads");
        }
    }

    #[test]
    fn master_seed_changes_streams() {
        let a = Campaign::new(4).master_seed(1).run(trial_signature);
        let b = Campaign::new(4).master_seed(2).run(trial_signature);
        assert_ne!(a, b);
    }

    #[test]
    fn trial_streams_are_pairwise_distinct() {
        let results = Campaign::new(32).threads(4).run(trial_signature);
        for i in 0..results.len() {
            for j in i + 1..results.len() {
                assert_ne!(results[i].1, results[j].1, "trials {i}/{j} share a stream");
            }
        }
    }

    #[test]
    fn zero_trials_and_zero_threads_are_fine() {
        let empty: Vec<usize> = Campaign::new(0).threads(0).run(|t| t.index);
        assert!(empty.is_empty());
        assert_eq!(Campaign::new(3).threads(0).run(|t| t.index), vec![0, 1, 2]);
    }

    #[test]
    fn more_threads_than_trials() {
        assert_eq!(Campaign::new(2).threads(64).run(|t| t.index), vec![0, 1]);
    }

    #[test]
    fn panic_payload_survives_across_workers() {
        // The original panic message — not a generic join-failure string —
        // must reach the caller (the `.expect` it replaces destroyed it).
        let result = std::panic::catch_unwind(|| {
            Campaign::new(16).threads(4).run(|t| {
                if t.index == 3 {
                    panic!("trial 3 exploded with code 0x2a");
                }
                t.index
            })
        });
        let payload = result.expect_err("campaign must propagate the panic");
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .expect("payload is a panic message");
        assert_eq!(message, "trial 3 exploded with code 0x2a");
    }

    #[test]
    fn panic_payload_survives_on_the_serial_path() {
        let result = std::panic::catch_unwind(|| {
            Campaign::new(4).run(|t| {
                if t.index == 2 {
                    panic!("serial trial 2 exploded");
                }
                t.index
            })
        });
        let payload = result.expect_err("campaign must propagate the panic");
        assert_eq!(
            payload.downcast_ref::<&str>().copied(),
            Some("serial trial 2 exploded")
        );
    }

    #[test]
    fn panicking_trial_aborts_instead_of_draining_the_queue() {
        // Trial 0 panics immediately; every other trial sleeps, so workers
        // check the abort flag between trials. Without the flag the pool
        // would drain all remaining trials; with it, each worker finishes
        // at most the trial it was already running.
        let completed = AtomicUsize::new(0);
        let trials = 64;
        let result = std::panic::catch_unwind(|| {
            Campaign::new(trials).threads(4).run(|t| {
                if t.index == 0 {
                    panic!("abort the campaign");
                }
                std::thread::sleep(std::time::Duration::from_millis(5));
                completed.fetch_add(1, Ordering::SeqCst);
            })
        });
        assert!(result.is_err());
        let drained = completed.load(Ordering::SeqCst);
        assert!(
            drained < trials / 2,
            "abort flag must stop the queue from draining: {drained}/{trials} trials ran"
        );
    }

    #[test]
    fn supervised_completions_match_plain_run_exactly() {
        let plain = Campaign::new(12).master_seed(7).run(trial_signature);
        for threads in [1, 2, 8] {
            let supervised = Campaign::new(12)
                .master_seed(7)
                .threads(threads)
                .run_supervised(|trial| Ok(trial_signature(trial)))
                .0;
            let values: Vec<_> = supervised
                .into_iter()
                .map(|o| o.into_completed().expect("all trials complete"))
                .collect();
            assert_eq!(plain, values, "diverged at {threads} threads");
        }
    }

    #[test]
    fn quarantine_records_typed_outcomes_and_continues() {
        let (outcomes, metrics) = Campaign::new(10)
            .threads(4)
            .failure_policy(FailurePolicy::Quarantine { max_failures: 10 })
            .run_supervised(|trial| match trial.index {
                2 => panic!("trial 2 lost its enclave"),
                5 => Err(AttackError::NotCalibrated),
                7 => Err(AttackError::DeadlineExceeded {
                    consumed: 600,
                    limit: 500,
                }),
                i => Ok(i),
            });
        assert_eq!(metrics.count(EventKind::TrialQuarantined), 3);
        assert_eq!(outcomes.len(), 10);
        assert_eq!(
            outcomes[2],
            TrialOutcome::Panicked {
                message: "trial 2 lost its enclave".into()
            }
        );
        assert_eq!(
            outcomes[5],
            TrialOutcome::Failed(AttackError::NotCalibrated)
        );
        assert_eq!(
            outcomes[7],
            TrialOutcome::DeadlineExceeded {
                consumed: 600,
                limit: 500
            }
        );
        let completed = outcomes.iter().filter(|o| o.is_completed()).count();
        assert_eq!(completed, 7);
    }

    #[test]
    fn quarantine_capacity_overflow_aborts() {
        let result = std::panic::catch_unwind(|| {
            Campaign::new(8)
                .failure_policy(FailurePolicy::Quarantine { max_failures: 2 })
                .run_supervised(|trial| -> Result<usize, AttackError> {
                    Err(AttackError::NotCalibrated).map(|()| trial.index)
                })
        });
        let payload = result.expect_err("third failure must abort");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .expect("abort payload is a message");
        assert!(message.contains("max_failures: 2"), "{message}");
    }

    #[test]
    fn abort_policy_reraises_the_original_panic_payload() {
        let result = std::panic::catch_unwind(|| {
            Campaign::new(8).threads(2).run_supervised(|trial| {
                if trial.index == 3 {
                    panic!("supervised abort keeps the payload");
                }
                Ok(trial.index)
            })
        });
        let payload = result.expect_err("Abort policy must propagate");
        assert_eq!(
            payload.downcast_ref::<&str>().copied(),
            Some("supervised abort keeps the payload")
        );
    }

    #[test]
    fn retry_draws_fresh_substreams_without_perturbing_neighbours() {
        use std::sync::Mutex;
        // Trial 4 fails on its first two attempts; every attempt logs the
        // first u64 of its stream so we can pin the sub-stream schedule.
        let draws: Mutex<Vec<u64>> = Mutex::new(Vec::new());
        let attempts = AtomicUsize::new(0);
        let (outcomes, _) = Campaign::new(8)
            .master_seed(0xbeef)
            .failure_policy(FailurePolicy::Retry { budget: 3 })
            .run_supervised(|mut trial| {
                let first = trial.rng.next_u64();
                if trial.index == 4 {
                    draws.lock().unwrap().push(first);
                    if attempts.fetch_add(1, Ordering::SeqCst) < 2 {
                        return Err(AttackError::NotCalibrated);
                    }
                }
                Ok((trial.index, first))
            });
        assert!(outcomes.iter().all(|o| o.is_completed()));
        // Attempt 0 uses the stream plain `run` would; later attempts draw
        // distinct deterministic sub-streams.
        let expected_first = Rng::stream(0xbeef, 4).next_u64();
        let logged = draws.lock().unwrap().clone();
        assert_eq!(logged.len(), 3);
        assert_eq!(logged[0], expected_first);
        assert_ne!(logged[1], logged[0]);
        assert_ne!(logged[2], logged[1]);
        assert_eq!(logged[1], attempt_rng(0xbeef, 4, 1).next_u64());
        assert_eq!(logged[2], attempt_rng(0xbeef, 4, 2).next_u64());
        // Neighbouring trials still completed on their untouched streams.
        assert_eq!(
            outcomes[3].completed(),
            Some(&(3, Rng::stream(0xbeef, 3).next_u64()))
        );
    }

    #[test]
    fn supervised_outcomes_are_thread_count_oblivious() {
        let supervised = |threads: usize| {
            Campaign::new(16)
                .master_seed(0x50f7)
                .threads(threads)
                .failure_policy(FailurePolicy::Quarantine { max_failures: 16 })
                .run_supervised(|mut trial| {
                    let value = trial.rng.next_u64();
                    if trial.index % 5 == 3 {
                        return Err(AttackError::NotCalibrated);
                    }
                    Ok(value)
                })
                .0
        };
        let baseline = supervised(1);
        for threads in [2, 8] {
            assert_eq!(baseline, supervised(threads), "diverged at {threads}");
        }
    }

    #[test]
    fn supervised_runs_emit_lifecycle_events_deterministically() {
        let run = |threads: usize| {
            Campaign::new(9)
                .master_seed(3)
                .threads(threads)
                .failure_policy(FailurePolicy::Retry { budget: 1 })
                .run_supervised(|trial| {
                    // Trials 1 and 6 fail every attempt; trial 4 would
                    // fail only if retries shared streams with attempt 0.
                    if trial.index == 1 || trial.index == 6 {
                        return Err(AttackError::NotCalibrated);
                    }
                    Ok(trial.index)
                })
        };
        let (outcomes, metrics) = run(1);
        assert_eq!(outcomes.iter().filter(|o| o.is_completed()).count(), 7);
        // 2 failing trials × 1 retry each.
        assert_eq!(metrics.count(EventKind::TrialRetried), 2);
        assert_eq!(metrics.count(EventKind::TrialQuarantined), 2);
        assert_eq!(metrics.phase(Phase::Retry).unwrap().count, 2);
        assert_eq!(metrics.phase(Phase::Quarantine).unwrap().count, 2);
        assert_eq!(metrics.phase(Phase::Trial).unwrap().count, 9);
        assert_eq!(metrics.trials, 9);
        for threads in [2, 8] {
            let (other_outcomes, other_metrics) = run(threads);
            assert_eq!(outcomes, other_outcomes, "outcomes diverged at {threads}");
            assert_eq!(
                metrics.to_json(),
                other_metrics.to_json(),
                "metrics diverged at {threads} threads"
            );
        }
    }

    #[test]
    fn deadline_is_delivered_to_trials_and_armable() {
        use nv_uarch::{Core, UarchConfig};
        let outcomes = Campaign::new(2)
            .deadline_steps(50)
            .failure_policy(FailurePolicy::Quarantine { max_failures: 2 })
            .run_supervised(|trial| {
                assert_eq!(trial.deadline, Some(50));
                let mut core = Core::new(UarchConfig::default());
                trial.arm(&mut core);
                assert_eq!(core.watchdog(), Some((0, 50)));
                Ok(trial.index)
            })
            .0;
        assert!(outcomes.iter().all(|o| o.is_completed()));
        // Without deadline_steps, trials see None and arm() is a no-op.
        Campaign::new(1)
            .run_supervised(|trial| {
                assert_eq!(trial.deadline, None);
                let mut core = Core::new(UarchConfig::default());
                trial.arm(&mut core);
                assert_eq!(core.watchdog(), None);
                Ok(())
            })
            .0
            .into_iter()
            .for_each(|o| assert!(o.is_completed()));
    }

    #[test]
    fn worker_count_is_clamped_to_the_trial_count() {
        // 64 requested workers over 3 trials must not spawn idle threads
        // or change results — both engines clamp to min(threads, trials).
        let plain = Campaign::new(3)
            .master_seed(9)
            .threads(64)
            .run(trial_signature);
        assert_eq!(plain, Campaign::new(3).master_seed(9).run(trial_signature));
        let supervised = Campaign::new(3)
            .master_seed(9)
            .threads(64)
            .run_supervised(|trial| Ok(trial_signature(trial)))
            .0;
        let values: Vec<_> = supervised
            .into_iter()
            .map(|o| o.into_completed().unwrap())
            .collect();
        assert_eq!(plain, values);
    }

    fn ckpt_path(name: &str) -> std::path::PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!("nv_campaign_{name}_{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn resume_skips_checkpointed_trials_and_matches_an_uninterrupted_run() {
        let campaign = Campaign::new(12).master_seed(0xcafe).threads(4);
        let trial_fn = |mut trial: Trial| Ok(trial.rng.next_u64());
        let uninterrupted = campaign.run_supervised(trial_fn).0;

        let path = ckpt_path("resume_prefix");
        let key = campaign.checkpoint_key(0x1234);
        {
            // Pre-seed the checkpoint with a prefix of completed trials, as
            // if the process died after trial 5.
            let ckpt = CampaignCheckpoint::open(&path, key).unwrap();
            for (index, outcome) in uninterrupted.iter().take(6).enumerate() {
                ckpt.append(index, &outcome.completed().unwrap().to_string())
                    .unwrap();
            }
        }
        let ckpt = CampaignCheckpoint::open(&path, key).unwrap();
        let executed = AtomicUsize::new(0);
        let (resumed, metrics) = campaign.resume(&ckpt, |trial| {
            executed.fetch_add(1, Ordering::SeqCst);
            trial_fn(trial)
        });
        assert_eq!(resumed, uninterrupted);
        assert_eq!(metrics.count(EventKind::CheckpointResumed), 6);
        assert_eq!(metrics.count(EventKind::CheckpointAppended), 6);
        assert_eq!(metrics.phase(Phase::Checkpoint).unwrap().count, 12);
        assert_eq!(executed.load(Ordering::SeqCst), 6, "prefix must be skipped");
        // The checkpoint now covers every trial; a further resume runs none.
        let ckpt = CampaignCheckpoint::open(&path, key).unwrap();
        assert_eq!(ckpt.completed_trials(), 12);
        let (resumed, _) = campaign.resume(&ckpt, |_| {
            panic!("no trial should run once the checkpoint is complete")
        });
        assert_eq!(resumed, uninterrupted);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn threads_zero_resolves_to_host_parallelism_and_stays_byte_identical() {
        let auto = Campaign::new(24).master_seed(9).threads(0);
        let host = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        assert_eq!(auto.threads, host, "threads(0) must size for the host");
        let auto_results = auto.run(trial_signature);
        for explicit in [1, 2, 8] {
            let results = Campaign::new(24)
                .master_seed(9)
                .threads(explicit)
                .run(trial_signature);
            assert_eq!(
                auto_results, results,
                "threads(0) diverged from threads({explicit})"
            );
        }
    }

    #[test]
    fn unparsable_record_reruns_its_trial() {
        let trials = 8;
        let campaign = Campaign::new(trials).master_seed(3).threads(4);
        let trial_fn = |mut trial: Trial| Ok(trial.rng.next_u64());
        let uninterrupted = campaign.run_supervised(trial_fn).0;
        let path = ckpt_path("resume_unparsable");
        let key = campaign.checkpoint_key(0);
        {
            let ckpt = CampaignCheckpoint::open(&path, key).unwrap();
            ckpt.append(0, "not a number").unwrap();
            ckpt.append(1, &uninterrupted[1].completed().unwrap().to_string())
                .unwrap();
        }
        let ckpt = CampaignCheckpoint::open(&path, key).unwrap();
        let executed = std::sync::Mutex::new(Vec::new());
        let (resumed, _) = campaign.resume(&ckpt, |trial| {
            executed.lock().unwrap().push(trial.index);
            trial_fn(trial)
        });
        assert_eq!(resumed, uninterrupted);
        let mut executed = executed.into_inner().unwrap();
        executed.sort_unstable();
        assert_eq!(executed, [0, 2, 3, 4, 5, 6, 7], "only trial 1 is skipped");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_counts_a_torn_checkpoint_in_metrics() {
        let campaign = Campaign::new(4).master_seed(5);
        let path = ckpt_path("resume_torn_metric");
        let key = campaign.checkpoint_key(0);
        {
            let ckpt = CampaignCheckpoint::open(&path, key).unwrap();
            ckpt.append(0, "7").unwrap();
        }
        {
            use std::io::Write;
            let mut file = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            file.write_all(b"torn tail with no newline").unwrap();
        }
        let ckpt = CampaignCheckpoint::open(&path, key).unwrap();
        assert!(ckpt.resume_report().is_torn());
        let trial_fn = |mut trial: Trial| Ok(trial.rng.next_u64());
        let (outcomes, metrics) = campaign.resume(&ckpt, trial_fn);
        assert_eq!(outcomes.len(), 4);
        assert_eq!(metrics.count(EventKind::CheckpointTorn), 1);
        // Open-time recovery truncated the tail, so the next resume of the
        // now-complete checkpoint reports an intact log and counts nothing.
        let ckpt = CampaignCheckpoint::open(&path, key).unwrap();
        assert!(!ckpt.resume_report().is_torn());
        let (_, metrics) = campaign.resume(&ckpt, trial_fn);
        assert_eq!(metrics.count(EventKind::CheckpointTorn), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_rejects_a_checkpoint_for_a_different_campaign() {
        let path = ckpt_path("resume_mismatch");
        let key = Campaign::new(8).master_seed(1).checkpoint_key(0);
        let ckpt = CampaignCheckpoint::open(&path, key).unwrap();
        let other = Campaign::new(9).master_seed(1);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| other.resume(&ckpt, |_| Ok(0))));
        assert!(result.is_err(), "trial-count mismatch must be rejected");
        let _ = std::fs::remove_file(&path);
    }
}
