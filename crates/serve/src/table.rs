//! The job table: the server's one job state machine, without I/O.
//!
//! Live admission, the workers, wire-level cancellation and journal
//! replay all change it through the same transitions (DESIGN.md §11
//! tabulates them). Each returns what its caller must still do — the
//! journal [`Record`] to append, the stream to end — and the server does
//! it; replay has nothing to do. A replayed table keeps no finished
//! rings (`queue_cap` is 0 until [`JobTable::boot`]), so a job that ended
//! in a previous life answers with its terminal alone.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};

use crate::job::JobSpec;
use crate::journal::Record;
use crate::proto::{JobReport, RejectReason, Response, ServerStats, TrialUpdate};

/// Per-job outcome-ring capacity: the oldest buffered updates age out
/// beyond it, bounding memory against huge jobs. A resuming client whose
/// cursor predates the ring sees the gap in [`Response::Resuming::oldest`].
const RING_CAP: usize = 4096;

/// A job's outcome stream, behind its own lock.
pub(crate) type Stream = Arc<Mutex<JobStream>>;

/// The terminal of a cancelled job.
pub(crate) fn cancelled(job: u64) -> Response {
    Response::Cancelled {
        job,
        state: "cancelled".to_string(),
    }
}

/// Where a job is in its lifecycle.
pub(crate) enum JobState {
    Queued,
    /// Running; raising the flag cancels it at the trial's next
    /// cooperative check.
    Running(Arc<AtomicBool>),
    /// Finished, with its outcome digest.
    Done(u64),
    /// Failed, with the error detail its stream ended on.
    Failed(String),
    Cancelled,
}

impl JobState {
    /// The state as `status` and `cancel` name it on the wire.
    fn tag(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running(_) => "running",
            JobState::Done(_) => "done",
            JobState::Failed(_) => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    fn is_live(&self) -> bool {
        matches!(self, JobState::Queued | JobState::Running(_))
    }
}

/// One job in the job table.
struct JobEntry {
    state: JobState,
    /// The outcome stream: kept while the job is live and while it is
    /// among the `queue_cap` most recently finished jobs.
    stream: Option<Stream>,
}

/// One job's buffered outcome stream: sequence-numbered updates in a
/// bounded ring, live subscribers, and the cached terminal response.
#[derive(Default)]
pub(crate) struct JobStream {
    ring: VecDeque<TrialUpdate>,
    /// Updates published so far: the last one's sequence number.
    published: u64,
    terminal: Option<Response>,
    pub(crate) subscribers: Vec<Sender<Response>>,
}

impl JobStream {
    /// Appends one update to the ring (assigning its sequence number)
    /// and fans it out to live subscribers.
    pub(crate) fn publish(&mut self, mut update: TrialUpdate) {
        self.published += 1;
        update.seq = self.published;
        self.ring.push_back(update.clone());
        while self.ring.len() > RING_CAP {
            self.ring.pop_front();
        }
        self.subscribers
            .retain(|tx| tx.send(Response::Trial(update.clone())).is_ok());
    }

    /// Caches the terminal response and delivers it to every live
    /// subscriber, ending their streams.
    pub(crate) fn end(&mut self, response: Response) {
        for tx in self.subscribers.drain(..) {
            let _ = tx.send(response.clone());
        }
        self.terminal = Some(response);
    }

    /// Buffered updates past `cursor`, the terminal if the job ended, a
    /// live subscription otherwise.
    pub(crate) fn attach(&mut self, cursor: u64) -> Attached {
        let replay = Vec::from_iter(self.ring.iter().filter(|u| u.seq > cursor).cloned());
        let terminal = self.terminal.clone();
        let live = terminal.is_none().then(|| {
            let (tx, rx) = mpsc::channel();
            self.subscribers.push(tx);
            rx
        });
        Attached {
            replay,
            terminal,
            live,
            oldest: self.ring.front().map_or(0, |u| u.seq),
        }
    }
}

/// What a connection got when it attached to a job's stream.
pub(crate) struct Attached {
    /// Buffered updates past the client's cursor, in sequence order.
    pub(crate) replay: Vec<TrialUpdate>,
    /// The cached terminal, if the job already ended.
    pub(crate) terminal: Option<Response>,
    /// Live subscription; present exactly when there is no terminal yet.
    pub(crate) live: Option<Receiver<Response>>,
    /// Oldest sequence number still buffered (0 = empty ring).
    pub(crate) oldest: u64,
}

/// What an admission asks of its caller.
#[cfg_attr(test, derive(PartialEq, Debug))]
pub(crate) enum Admission {
    /// The idempotency key names this job, admitted earlier.
    Existing(u64),
    /// Refused (and counted).
    Rejected(RejectReason),
    /// Journal and flush this accept record, then [`JobTable::apply`] it.
    Accept(Record),
}

/// A job a worker took off the queue.
pub(crate) struct Started {
    pub(crate) job: u64,
    pub(crate) spec: JobSpec,
    pub(crate) cancel: Arc<AtomicBool>,
    pub(crate) stream: Stream,
}

/// Where a cancel landed (the state it found, as the ack names it) and
/// what it asks of its caller: the record to journal, and the stream to
/// end with [`cancelled`] when the job was queued and ended right here.
pub(crate) struct Cancel {
    pub(crate) landed: &'static str,
    pub(crate) record: Option<Record>,
    pub(crate) ended: Option<Stream>,
}

struct QueuedJob {
    job: u64,
    tenant: String,
    spec: JobSpec,
}

/// Every job of this life and every journaled one; see the module doc.
/// The default is the empty table journal replay starts from.
#[derive(Default)]
pub(crate) struct JobTable {
    queue: VecDeque<QueuedJob>,
    tenants: HashMap<String, usize>,
    jobs: HashMap<u64, JobEntry>,
    /// Finished jobs that still hold their rings, oldest first.
    retained: VecDeque<u64>,
    idem_index: HashMap<(String, u64), u64>,
    /// Running jobs, with the tenant whose slot each holds.
    running: HashMap<u64, String>,
    /// The highest job id ever accepted (0 = none).
    last_job: u64,
    /// The counters `stats` serves; the queue depth and cap, the
    /// draining flag and the metrics are filled in when read.
    census: ServerStats,
    /// Admission's queue bound, and the number of finished rings kept.
    queue_cap: usize,
    tenant_quota: usize,
    /// Admissions are refused once set.
    pub(crate) draining: bool,
    /// Workers stop taking jobs once set.
    pub(crate) shutdown: bool,
}

impl JobTable {
    /// Starts a new life on a replayed table: sets its limits and counts
    /// every pending job (re-queued in id order, holding its tenant slot)
    /// as resumed, not submitted. Returns the resumed job ids.
    pub(crate) fn boot(&mut self, queue_cap: usize, tenant_quota: usize) -> Vec<u64> {
        self.queue_cap = queue_cap;
        self.tenant_quota = tenant_quota;
        let pending = self.queue.len() as u64;
        self.census = ServerStats {
            resumed: pending,
            peak_queue_depth: pending,
            ..ServerStats::default()
        };
        self.queue.iter().map(|queued| queued.job).collect()
    }

    /// Admission control: a duplicate idempotency key answers its
    /// original job (the spec on the wire is ignored); draining, a full
    /// queue or a tenant over quota refuse; otherwise the accept record
    /// of the next job id, which changes nothing until it is applied.
    pub(crate) fn admit(&mut self, tenant: &str, spec: JobSpec, idem: u64) -> Admission {
        if idem != 0 {
            if let Some(&job) = self.idem_index.get(&(tenant.to_string(), idem)) {
                return Admission::Existing(job);
            }
        }
        let active = self.tenants.get(tenant).copied().unwrap_or(0);
        let refusal = if self.draining || self.shutdown {
            RejectReason::Draining
        } else if self.queue.len() >= self.queue_cap {
            RejectReason::QueueFull {
                depth: self.queue.len() as u64,
                cap: self.queue_cap as u64,
            }
        } else if active >= self.tenant_quota {
            RejectReason::TenantQuota {
                active: active as u64,
                quota: self.tenant_quota as u64,
            }
        } else {
            return Admission::Accept(Record::Accept {
                job: self.last_job + 1,
                tenant: tenant.to_string(),
                spec,
                idem,
            });
        };
        self.census.rejected += 1;
        Admission::Rejected(refusal)
    }

    /// Applies one durable journal record: live, once admission's accept
    /// is flushed; at boot, every replayed record in file order. An
    /// accept queues the job with an empty stream; a done finishes it
    /// (done beats cancel); a cancel goes through [`JobTable::cancel`].
    pub(crate) fn apply(&mut self, record: Record) {
        match record {
            Record::Accept {
                job,
                tenant,
                spec,
                idem,
            } => {
                self.last_job = self.last_job.max(job);
                if idem != 0 {
                    self.idem_index.insert((tenant.clone(), idem), job);
                }
                *self.tenants.entry(tenant.clone()).or_insert(0) += 1;
                self.queue.push_back(QueuedJob { job, tenant, spec });
                let depth = self.queue.len() as u64;
                self.census.peak_queue_depth = self.census.peak_queue_depth.max(depth);
                let stream = Some(Stream::default());
                let state = JobState::Queued;
                self.jobs.insert(job, JobEntry { state, stream });
                self.census.submitted += 1;
            }
            Record::Done { job, digest } => drop(self.finish(job, JobState::Done(digest))),
            Record::Cancel { job } => drop(self.cancel(job)),
            Record::Boot => {}
        }
    }

    /// Takes the oldest queued job for a worker, with a fresh cancel flag.
    pub(crate) fn start(&mut self) -> Option<Started> {
        let QueuedJob { job, tenant, spec } = self.queue.pop_front()?;
        let cancel = Arc::new(AtomicBool::new(false));
        let entry = self.jobs.get_mut(&job).expect("queued job in table");
        entry.state = JobState::Running(Arc::clone(&cancel));
        let stream = entry.stream.clone().expect("a live job keeps its stream");
        self.running.insert(job, tenant);
        Some(Started {
            job,
            spec,
            cancel,
            stream,
        })
    }

    /// The stream an attach to `job` reads: the job's own while kept,
    /// else a one-off stream holding only its terminal — a digest-only
    /// `Done` (`passes: 0`, `trials` being the caller's best knowledge of
    /// the job size, 0 when unknown), `Cancelled`, or a failure `Error`.
    /// `None` for an unknown job.
    pub(crate) fn target(&self, job: u64, trials: u64) -> Option<Stream> {
        let entry = self.jobs.get(&job)?;
        if let Some(stream) = &entry.stream {
            return Some(Arc::clone(stream));
        }
        let terminal = match &entry.state {
            &JobState::Done(digest) => Response::Done(JobReport {
                job,
                trials,
                completed: 0,
                quarantined: 0,
                resumed_trials: 0,
                passes: 0,
                digest,
                metrics_json: "{}".to_string(),
            }),
            JobState::Cancelled => cancelled(job),
            JobState::Failed(detail) => Response::Error {
                detail: detail.clone(),
            },
            // A live job always holds its stream.
            JobState::Queued | JobState::Running(_) => return None,
        };
        let terminal = Some(terminal);
        Some(Arc::new(Mutex::new(JobStream {
            terminal,
            ..JobStream::default()
        })))
    }

    /// Moves `job` to its terminal state `end`, returning its queue or
    /// worker slot and its tenant slot. A done job stays done. The job's
    /// ring is kept while it is among the `queue_cap` most recently
    /// finished; the oldest beyond that are dropped. Returns the job's
    /// stream, for the caller to end.
    pub(crate) fn finish(&mut self, job: u64, end: JobState) -> Option<Stream> {
        let tenant = match self.jobs.get(&job).map(|entry| &entry.state)? {
            JobState::Queued => {
                let at = self.queue.iter().position(|queued| queued.job == job);
                at.and_then(|at| self.queue.remove(at))
                    .map(|queued| queued.tenant)
            }
            JobState::Running(_) => self.running.remove(&job),
            JobState::Done(_) => return None,
            JobState::Failed(_) | JobState::Cancelled => None,
        };
        if let Some(Entry::Occupied(mut active)) = tenant.map(|t| self.tenants.entry(t)) {
            *active.get_mut() -= 1;
            if *active.get() == 0 {
                active.remove();
            }
        }
        if matches!(end, JobState::Done(_)) {
            self.census.completed += 1;
        }
        let entry = self.jobs.get_mut(&job).expect("looked up above");
        entry.state = end;
        let stream = entry.stream.clone();
        self.retained.push_back(job);
        while self.retained.len() > self.queue_cap {
            let oldest = self.retained.pop_front();
            if let Some(entry) = oldest.and_then(|job| self.jobs.get_mut(&job)) {
                entry.stream = None;
            }
        }
        stream
    }

    /// A cancel: a queued job ends here, a running job has its flag
    /// raised and ends at its next cooperative check, and a finished or
    /// unknown job is left as it is.
    pub(crate) fn cancel(&mut self, job: u64) -> Cancel {
        let state = self.jobs.get(&job).map(|entry| &entry.state);
        let landed = state.map_or("unknown", JobState::tag);
        let record = Some(Record::Cancel { job });
        let (record, ended) = match state {
            Some(JobState::Running(flag)) => {
                flag.store(true, Ordering::Relaxed);
                (record, None)
            }
            Some(JobState::Queued) => (record, self.finish(job, JobState::Cancelled)),
            _ => (None, None),
        };
        Cancel {
            landed,
            record,
            ended,
        }
    }

    /// Stops the workers and abandons the queue to the journal (the next
    /// start resumes it). Returns the streams of live jobs, which will not
    /// end in this life.
    pub(crate) fn shut_down(&mut self) -> Vec<Stream> {
        self.shutdown = true;
        self.queue.clear();
        let live = self.jobs.values().filter(|entry| entry.state.is_live());
        live.filter_map(|entry| entry.stream.clone()).collect()
    }

    /// Queued and running jobs, in id order.
    pub(crate) fn live_jobs(&self) -> Vec<u64> {
        let live = self.jobs.iter().filter(|(_, entry)| entry.state.is_live());
        let mut live: Vec<u64> = live.map(|(&job, _)| job).collect();
        live.sort_unstable();
        live
    }

    /// Jobs queued or running.
    pub(crate) fn pending(&self) -> usize {
        self.queue.len() + self.running.len()
    }

    /// The answer to `status`.
    pub(crate) fn status(&self, job: u64) -> Response {
        let state = self.jobs.get(&job).map(|entry| &entry.state);
        let digest = match state {
            Some(&JobState::Done(digest)) => digest,
            _ => 0,
        };
        let state = state.map_or("unknown", JobState::tag).to_string();
        Response::Status { job, state, digest }
    }

    /// The answer to `stats`, with the server's rendered metrics.
    pub(crate) fn stats(&self, metrics_json: String) -> ServerStats {
        ServerStats {
            queue_depth: self.queue.len() as u64,
            queue_cap: self.queue_cap as u64,
            draining: self.draining,
            metrics_json,
            ..self.census.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    //! The explorer: seeded random schedules of submissions (with and
    //! without idempotency keys), cancels, worker starts, publishes,
    //! attaches, finishes, journal writes and crashes drive the table and
    //! a reference model written from DESIGN.md §11's rules. After every
    //! operation the two must agree; after every schedule each prefix of
    //! the journal must replay to the model's post-crash state, and a real
    //! journal file must read back the same records.

    use std::collections::BTreeMap;

    use nightvision::checkpoint::FramedLog;
    use nv_rand::Rng;

    use super::*;
    use crate::journal::JobJournal;

    /// A table's state in comparable form.
    #[derive(PartialEq, Debug)]
    pub(crate) struct Snapshot {
        /// Each job's state tag, its digest when done, and whether it
        /// keeps a stream.
        pub(crate) jobs: BTreeMap<u64, (&'static str, u64, bool)>,
        /// Queued jobs in queue order, with tenant and spec.
        pub(crate) queue: Vec<(u64, String, JobSpec)>,
        pub(crate) running: BTreeMap<u64, String>,
        pub(crate) tenants: BTreeMap<String, usize>,
        pub(crate) idem: BTreeMap<(String, u64), u64>,
        pub(crate) next_job: u64,
        /// Submitted, completed, rejected, resumed, peak queue depth.
        pub(crate) census: [u64; 5],
    }

    impl Snapshot {
        /// Queued job ids, in queue order.
        pub(crate) fn pending(&self) -> Vec<u64> {
            self.queue.iter().map(|queued| queued.0).collect()
        }

        pub(crate) fn done(&self, job: u64) -> Option<u64> {
            match self.jobs.get(&job) {
                Some(&("done", digest, _)) => Some(digest),
                _ => None,
            }
        }

        pub(crate) fn cancelled(&self, job: u64) -> bool {
            matches!(self.jobs.get(&job), Some(("cancelled", ..)))
        }
    }

    fn digest(state: &JobState) -> u64 {
        match state {
            &JobState::Done(digest) => digest,
            _ => 0,
        }
    }

    impl JobTable {
        pub(crate) fn snapshot(&self) -> Snapshot {
            let census = &self.census;
            Snapshot {
                jobs: (self.jobs.iter())
                    .map(|(&job, e)| (job, (e.state.tag(), digest(&e.state), e.stream.is_some())))
                    .collect(),
                queue: (self.queue.iter())
                    .map(|queued| (queued.job, queued.tenant.clone(), queued.spec))
                    .collect(),
                running: self.running.clone().into_iter().collect(),
                tenants: self.tenants.clone().into_iter().collect(),
                idem: self.idem_index.clone().into_iter().collect(),
                next_job: self.last_job + 1,
                census: [
                    census.submitted,
                    census.completed,
                    census.rejected,
                    census.resumed,
                    census.peak_queue_depth,
                ],
            }
        }
    }

    const QUEUE_CAP: usize = 2;
    const QUOTA: usize = 2;
    const WORKERS: usize = 2;
    const MAX_JOBS: usize = 6;
    const TENANTS: [&str; 2] = ["acme", "globex"];
    /// The job size attach callers pass, echoed by digest-only terminals.
    const TRIALS: u64 = 7;
    /// Schedules per run: about 1 s of the debug workspace test.
    const SCHEDULES: u64 = 1_500;
    const STEPS: usize = 48;

    /// A job's state in the model.
    #[derive(Clone, PartialEq, Debug)]
    enum Want {
        Queued,
        /// Running; `cancel` once a cancel raised its flag.
        Running {
            cancel: bool,
        },
        Done(u64),
        Failed(String),
        Cancelled,
    }

    impl Want {
        fn tag(&self) -> &'static str {
            match self {
                Want::Queued => "queued",
                Want::Running { .. } => "running",
                Want::Done(_) => "done",
                Want::Failed(_) => "failed",
                Want::Cancelled => "cancelled",
            }
        }

        fn is_live(&self) -> bool {
            matches!(self, Want::Queued | Want::Running { .. })
        }
    }

    struct ModelJob {
        tenant: String,
        spec: JobSpec,
        idem: u64,
        state: Want,
        /// Updates published in this life.
        published: u64,
    }

    /// The reference model: every rule restated over plain collections.
    #[derive(Default)]
    struct Model {
        jobs: BTreeMap<u64, ModelJob>,
        queue: VecDeque<u64>,
        /// Jobs finished in this life that keep their rings, oldest first.
        retained: VecDeque<u64>,
        /// Submitted, completed, rejected, resumed, peak queue depth.
        census: [u64; 5],
    }

    impl Model {
        fn next_job(&self) -> u64 {
            self.jobs.keys().last().map_or(1, |&last| last + 1)
        }

        /// What admission must answer: a known `(tenant, key)` names its
        /// original job; a full queue, then an exhausted quota, refuse;
        /// otherwise the next id is accepted.
        fn decide(&self, tenant: &str, spec: JobSpec, idem: u64) -> Admission {
            let mut original = self.jobs.iter();
            let original =
                original.find(|(_, j)| idem != 0 && j.tenant == tenant && j.idem == idem);
            if let Some((&job, _)) = original {
                return Admission::Existing(job);
            }
            let active = (self.jobs.values())
                .filter(|j| j.tenant == tenant && j.state.is_live())
                .count();
            Admission::Rejected(if self.queue.len() >= QUEUE_CAP {
                RejectReason::QueueFull {
                    depth: self.queue.len() as u64,
                    cap: QUEUE_CAP as u64,
                }
            } else if active >= QUOTA {
                RejectReason::TenantQuota {
                    active: active as u64,
                    quota: QUOTA as u64,
                }
            } else {
                return Admission::Accept(Record::Accept {
                    job: self.next_job(),
                    tenant: tenant.to_string(),
                    spec,
                    idem,
                });
            })
        }

        fn accept(&mut self, job: u64, tenant: &str, spec: JobSpec, idem: u64) {
            let entry = ModelJob {
                tenant: tenant.to_string(),
                spec,
                idem,
                state: Want::Queued,
                published: 0,
            };
            self.jobs.insert(job, entry);
            self.queue.push_back(job);
            self.census[0] += 1;
            self.census[4] = self.census[4].max(self.queue.len() as u64);
        }

        /// Ends a queued or running job; the `QUEUE_CAP` most recently
        /// finished keep their rings.
        fn finish(&mut self, job: u64, end: Want) {
            self.queue.retain(|&queued| queued != job);
            if matches!(end, Want::Done(_)) {
                self.census[1] += 1;
            }
            self.jobs.get_mut(&job).expect("known job").state = end;
            self.retained.push_back(job);
            if self.retained.len() > QUEUE_CAP {
                self.retained.pop_front();
            }
        }

        fn ring(&self, job: u64) -> bool {
            self.jobs[&job].state.is_live() || self.retained.contains(&job)
        }

        /// The state a restart recovers from durable `records`: a job with
        /// a done record is done, whichever of done and cancel came first;
        /// else a job with a cancel record is cancelled; every other job
        /// is queued again in id order, counted as resumed. That includes
        /// a job that failed, since failures are not journaled, and one
        /// whose cancel never reached the file. No finished job keeps a
        /// ring.
        fn recover(records: &[Record]) -> Model {
            let mut model = Model::default();
            for record in records {
                match record {
                    Record::Accept {
                        job,
                        tenant,
                        spec,
                        idem,
                    } => model.accept(*job, tenant, *spec, *idem),
                    Record::Done { job, digest } => {
                        model.jobs.get_mut(job).expect("accepted").state = Want::Done(*digest);
                    }
                    Record::Cancel { job } => {
                        let entry = model.jobs.get_mut(job).expect("accepted");
                        if !matches!(entry.state, Want::Done(_)) {
                            entry.state = Want::Cancelled;
                        }
                    }
                    Record::Boot => {}
                }
            }
            let queued = model.jobs.iter().filter(|(_, j)| j.state == Want::Queued);
            model.queue = queued.map(|(&job, _)| job).collect();
            let pending = model.queue.len() as u64;
            model.census = [0, 0, 0, pending, pending];
            model
        }

        fn snapshot(&self) -> Snapshot {
            let live = || self.jobs.iter().filter(|(_, j)| j.state.is_live());
            let mut tenants = BTreeMap::new();
            for (_, j) in live() {
                *tenants.entry(j.tenant.clone()).or_insert(0) += 1;
            }
            let done = |state: &Want| match state {
                &Want::Done(digest) => digest,
                _ => 0,
            };
            Snapshot {
                jobs: (self.jobs.iter())
                    .map(|(&job, j)| (job, (j.state.tag(), done(&j.state), self.ring(job))))
                    .collect(),
                queue: (self.queue.iter())
                    .map(|job| (*job, self.jobs[job].tenant.clone(), self.jobs[job].spec))
                    .collect(),
                running: live()
                    .filter(|(_, j)| j.state != Want::Queued)
                    .map(|(&job, j)| (job, j.tenant.clone()))
                    .collect(),
                tenants,
                idem: (self.jobs.iter())
                    .filter(|(_, j)| j.idem != 0)
                    .map(|(&job, j)| ((j.tenant.clone(), j.idem), job))
                    .collect(),
                next_job: self.next_job(),
                census: self.census,
            }
        }
    }

    /// The terminal an attach must find: the worker's own on a kept ring,
    /// a digest-only `Done` (`passes: 0`) without one.
    fn terminal(job: u64, state: &Want, ring: bool) -> Response {
        match state {
            &Want::Done(digest) => Response::Done(JobReport {
                job,
                trials: TRIALS,
                completed: 0,
                quarantined: 0,
                resumed_trials: 0,
                passes: u64::from(ring),
                digest,
                metrics_json: "{}".to_string(),
            }),
            Want::Cancelled => cancelled(job),
            Want::Failed(detail) => Response::Error {
                detail: detail.clone(),
            },
            live => unreachable!("a {} job has no terminal", live.tag()),
        }
    }

    /// A restart: every durable record through the table's own
    /// transitions, then a new life. Returns the resumed job ids too.
    fn replay(records: &[Record]) -> (JobTable, Vec<u64>) {
        let mut table = JobTable::default();
        for record in records {
            table.apply(record.clone());
        }
        let resumed = table.boot(QUEUE_CAP, QUOTA);
        (table, resumed)
    }

    /// One schedule: the table under test, the model, and the server's
    /// part (the journal, the workers).
    struct Explorer {
        rng: Rng,
        seed: u64,
        step: usize,
        table: JobTable,
        model: Model,
        /// Durable records, in file order.
        journal: Vec<Record>,
        /// Cancel records not yet written: the server appends them after
        /// releasing the table lock, so a worker's done record can
        /// overtake them and a crash can lose them.
        unwritten: Vec<Record>,
        workers: Vec<Started>,
    }

    impl Explorer {
        fn new(seed: u64) -> Explorer {
            Explorer {
                rng: Rng::seed_from_u64(seed),
                seed,
                step: 0,
                table: replay(&[]).0,
                model: Model::recover(&[]),
                journal: Vec::new(),
                unwritten: Vec::new(),
                workers: Vec::new(),
            }
        }

        fn at(&self) -> String {
            format!("seed {} step {}", self.seed, self.step)
        }

        /// A job id to aim at: half the time a live one if any, else any
        /// known job or an unknown one.
        fn any_job(&mut self) -> u64 {
            let live = self.model.jobs.iter().filter(|(_, j)| j.state.is_live());
            let live: Vec<u64> = live.map(|(&job, _)| job).collect();
            if !live.is_empty() && self.rng.gen_bool(0.5) {
                return live[self.rng.gen_range(0..live.len())];
            }
            self.rng.gen_range(0..=self.model.next_job())
        }

        fn run(&mut self) {
            for step in 0..STEPS {
                self.step = step;
                match self.rng.gen_range(0..20u32) {
                    0..=3 => self.submit(),
                    4 | 5 => self.cancel(),
                    6..=8 => self.start(),
                    9 | 10 => self.publish(),
                    11..=13 => self.finish(),
                    14 | 15 => self.attach(),
                    16..=18 => self.journal.append(&mut self.unwritten),
                    _ => self.crash(),
                }
                self.check();
            }
            self.check_journal();
        }

        fn submit(&mut self) {
            let tenant = TENANTS[self.rng.gen_range(0..TENANTS.len())];
            let idem = self.rng.gen_range(0..3u64);
            let spec = JobSpec::nv_core(self.rng.gen_range(1..5usize), self.rng.next_u64());
            let want = self.model.decide(tenant, spec, idem);
            if matches!(want, Admission::Accept(_)) && self.model.jobs.len() == MAX_JOBS {
                return;
            }
            let got = self.table.admit(tenant, spec, idem);
            assert_eq!(got, want, "{}", self.at());
            match got {
                Admission::Rejected(_) => self.model.census[2] += 1,
                // The accept record's write failed: nothing changes, and
                // the id is not used up.
                Admission::Accept(_) if self.rng.gen_bool(0.1) => {}
                Admission::Accept(record) => {
                    self.journal.push(record.clone());
                    self.table.apply(record);
                    self.model.accept(self.model.next_job(), tenant, spec, idem);
                }
                Admission::Existing(_) => {}
            }
        }

        fn cancel(&mut self) {
            let job = self.any_job();
            let state = self.model.jobs.get(&job).map(|j| j.state.clone());
            let got = self.table.cancel(job);
            let at = self.at();
            assert_eq!(
                got.landed,
                state.as_ref().map_or("unknown", Want::tag),
                "{at}"
            );
            let live = state.as_ref().is_some_and(Want::is_live);
            assert_eq!(got.record, live.then_some(Record::Cancel { job }), "{at}");
            assert_eq!(got.ended.is_some(), state == Some(Want::Queued), "{at}");
            if let Some(stream) = got.ended {
                stream.lock().unwrap().end(cancelled(job));
                self.model.finish(job, Want::Cancelled);
            } else if live {
                self.model.jobs.get_mut(&job).unwrap().state = Want::Running { cancel: true };
            }
            self.unwritten.extend(got.record);
        }

        fn start(&mut self) {
            if self.workers.len() == WORKERS {
                return;
            }
            let got = self.table.start();
            let want = self.model.queue.pop_front();
            let want = want.map(|job| (job, self.model.jobs[&job].spec));
            assert_eq!(got.as_ref().map(|s| (s.job, s.spec)), want, "{}", self.at());
            if let Some(started) = got {
                let job = self.model.jobs.get_mut(&started.job).unwrap();
                job.state = Want::Running { cancel: false };
                self.workers.push(started);
            }
        }

        fn publish(&mut self) {
            if self.workers.is_empty() {
                return;
            }
            let worker = &self.workers[self.rng.gen_range(0..self.workers.len())];
            let job = self.model.jobs.get_mut(&worker.job).unwrap();
            let update = TrialUpdate {
                job: worker.job,
                seq: 0,
                index: job.published,
                outcome: "completed".to_string(),
                value: worker.job,
                resumed: false,
            };
            worker.stream.lock().unwrap().publish(update);
            job.published += 1;
        }

        /// A worker ends its job as the server's does: the done (or
        /// retried cancel) record is durable before the job is finished.
        /// A raised flag ends the job cancelled unless it finishes first.
        fn finish(&mut self) {
            if self.workers.is_empty() {
                return;
            }
            let worker = self
                .workers
                .swap_remove(self.rng.gen_range(0..self.workers.len()));
            let job = worker.job;
            let Want::Running { cancel } = self.model.jobs[&job].state else {
                panic!("{}: a worker's job is running", self.at());
            };
            assert_eq!(
                worker.cancel.load(Ordering::Relaxed),
                cancel,
                "{}",
                self.at()
            );
            let end = match self.rng.gen_range(0..3u32) {
                0 if cancel => Want::Cancelled,
                0 | 1 => Want::Done(self.rng.next_u64()),
                _ => Want::Failed(format!("job {job} failed")),
            };
            let state = match &end {
                &Want::Done(digest) => {
                    self.journal.push(Record::Done { job, digest });
                    JobState::Done(digest)
                }
                Want::Cancelled => {
                    self.journal.push(Record::Cancel { job });
                    JobState::Cancelled
                }
                Want::Failed(detail) => JobState::Failed(detail.clone()),
                live => unreachable!("job {job} ended {}", live.tag()),
            };
            let stream = self
                .table
                .finish(job, state)
                .expect("a running job has a stream");
            assert!(Arc::ptr_eq(&stream, &worker.stream), "{}", self.at());
            stream.lock().unwrap().end(terminal(job, &end, true));
            self.model.finish(job, end);
        }

        fn attach(&mut self) {
            let job = self.any_job();
            let target = self.table.target(job, TRIALS);
            let Some(want) = self.model.jobs.get(&job) else {
                assert!(target.is_none(), "{}: unknown job {job}", self.at());
                return;
            };
            let cursor = self.rng.gen_range(0..=want.published + 1);
            let got = target.expect("a known job").lock().unwrap().attach(cursor);
            let ring = self.model.ring(job);
            let seqs: Vec<u64> = got.replay.iter().map(|u| u.seq).collect();
            let want_seqs: Vec<u64> = (cursor + 1..=want.published).filter(|_| ring).collect();
            let at = self.at();
            assert_eq!(seqs, want_seqs, "{at}: job {job} cursor {cursor}");
            assert_eq!(got.oldest, u64::from(ring && want.published > 0), "{at}");
            let ended = !want.state.is_live();
            let terminal = ended.then(|| terminal(job, &want.state, ring));
            assert_eq!(got.terminal, terminal, "{at}: job {job}");
            assert_eq!(got.live.is_some(), !ended, "{at}");
        }

        fn crash(&mut self) {
            // Whatever was not written dies with the process.
            self.unwritten.clear();
            self.workers.clear();
            let recovered = Model::recover(&self.journal);
            for (job, before) in &self.model.jobs {
                let cancel = self.journal.contains(&Record::Cancel { job: *job });
                let want = match &before.state {
                    done @ Want::Done(_) => done.clone(),
                    _ if cancel => Want::Cancelled,
                    _ => Want::Queued,
                };
                assert_eq!(recovered.jobs[job].state, want, "{}: job {job}", self.at());
            }
            let (table, resumed) = replay(&self.journal);
            assert_eq!(resumed, Vec::from(recovered.queue.clone()), "{}", self.at());
            self.table = table;
            self.model = recovered;
            self.journal.push(Record::Boot);
        }

        fn check(&mut self) {
            let got = self.table.snapshot();
            assert_eq!(got, self.model.snapshot(), "{}", self.at());
            // Each job is in exactly one state: queued jobs are in the
            // queue, running ones hold a worker slot, and only those two
            // are live; at most `QUEUE_CAP` finished jobs keep rings.
            let mut rings = 0;
            for (job, &(state, _, ring)) in &got.jobs {
                assert_eq!(state == "queued", got.pending().contains(job));
                assert_eq!(state == "running", got.running.contains_key(job));
                let live = matches!(state, "queued" | "running");
                assert!(
                    ring || !live,
                    "{}: live job {job} without a ring",
                    self.at()
                );
                rings += usize::from(ring && !live);
            }
            assert!(rings <= QUEUE_CAP, "{}", self.at());
            // Every idempotency key answers its original job.
            for ((tenant, key), job) in got.idem {
                let spec = JobSpec::nv_core(1, 0);
                let answer = self.table.admit(&tenant, spec, key);
                assert_eq!(answer, Admission::Existing(job), "{}", self.at());
            }
        }

        /// Every journal prefix is a crash point, and a real journal file
        /// reads back the records written to it.
        fn check_journal(&self) {
            for end in 0..=self.journal.len() {
                let prefix = &self.journal[..end];
                let want = Model::recover(prefix).snapshot();
                assert_eq!(
                    replay(prefix).0.snapshot(),
                    want,
                    "seed {} prefix {end}",
                    self.seed
                );
            }
            let mut path = std::env::temp_dir();
            path.push(format!("nv_serve_explorer_{}", std::process::id()));
            let _ = std::fs::remove_file(&path);
            let (journal, _) = JobJournal::open(&path).unwrap();
            for record in &self.journal {
                journal.append(record).unwrap();
            }
            drop(journal);
            let mut read = Vec::new();
            FramedLog::open(&path, |body| {
                read.extend(body.and_then(Record::parse));
                Ok::<_, std::io::Error>(true)
            })
            .unwrap();
            assert_eq!(read, self.journal, "seed {}", self.seed);
            let (_, replayed) = JobJournal::open(&path).unwrap();
            let boots = self.journal.iter().filter(|&r| *r == Record::Boot);
            assert_eq!(replayed.boots, boots.count() as u64);
            let mut table = replayed.table;
            table.boot(QUEUE_CAP, QUOTA);
            assert_eq!(table.snapshot(), replay(&self.journal).0.snapshot());
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn random_schedules_match_the_reference_model() {
        for seed in 0..SCHEDULES {
            Explorer::new(seed).run();
        }
    }
}
