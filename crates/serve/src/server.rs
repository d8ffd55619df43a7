//! The campaign server: admission control, a bounded job queue, a
//! supervised worker pool, journaled crash recovery, and a
//! chaos-hardened connection layer.
//!
//! Life of a job:
//!
//! 1. a connection thread decodes a `submit` frame and runs **admission**
//!    under the state lock: draining ⇒ typed reject; bounded queue full
//!    ⇒ typed reject; tenant over quota ⇒ typed reject; otherwise the
//!    job id is assigned, the admission is **journaled and flushed**,
//!    and only then does `Accepted` leave the server — a job the client
//!    saw accepted is a job a `kill -9` cannot lose. A non-zero
//!    idempotency key makes resubmission safe: the same `(tenant, key)`
//!    returns the original job instead of admitting a duplicate;
//! 2. a worker pops the job and runs it through
//!    [`crate::job::run_job`] — checkpointed trials, watchdog deadlines,
//!    retries within the job's budget — publishing every [`Response::Trial`]
//!    into the job's **outcome ring**, a bounded per-job buffer of
//!    sequence-numbered updates. Connections (the submitter, and any
//!    later `resume_stream`) subscribe to the ring: a client that lost
//!    its connection reconnects and replays only what it has not seen.
//!    A connection drains every update already queued for it and writes
//!    them as one batch of frames;
//! 3. the final [`Response::Done`] (or typed `Cancelled`/`Error`) is the
//!    stream's cached terminal; the completion is journaled and the
//!    per-job checkpoint deleted;
//! 4. the finished job keeps its ring while it is among the
//!    `queue_cap` most recently finished jobs: a client that lost its
//!    connection gets as long to come back as a job admitted behind a
//!    full queue waits to start, and the rings kept are bounded by the
//!    same knob as the queue. After that the entry keeps only the
//!    outcome (a digest for `Done`), and a `resume_stream` gets the
//!    terminal alone (`oldest: 0`; a digest-only `Done` carries
//!    `passes: 0`), exactly as for a job from a previous life.
//!
//! Each job is one entry in one job table: its state (queued, running
//! with its cancel flag, done with its digest, failed, cancelled) and its
//! stream while the stream is kept. `status`, `cancel` and every attach
//! read that one entry, for jobs of this life and journaled ones alike.
//!
//! The connection layer assumes a hostile network: per-connection read
//! *and* write deadlines (a non-reading peer is dropped and counted, not
//! allowed to wedge a writer), an idle deadline that reaps half-open
//! connections (heartbeat pings keep a quiet client alive), wire-level
//! job cancellation that reaches *inside* a running trial through the
//! core's cooperative watchdog check, and a drain deadline that converts
//! stragglers into typed cancellations instead of hanging shutdown.
//!
//! On restart the journal is replayed: accepted-but-unfinished jobs are
//! re-queued (their checkpoints resume them mid-campaign), finished jobs
//! keep answering status queries with their digests, cancelled jobs stay
//! cancelled, and idempotency keys keep deduplicating. Server lifecycle
//! is observable: admissions, rejections, resumes, completions,
//! cancellations, stream re-attachments, stalled writers and reaped
//! connections all count in the nv-obs metrics served by `stats`.

use std::collections::{HashMap, VecDeque};
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use nv_obs::{ObsEvent, Recorder};

use crate::job::{run_job, JobError, JobSpec};
use crate::journal::JobJournal;
use crate::proto::{JobReport, RejectReason, Request, Response, ServerStats, TrialUpdate};
use crate::wire::{encode_frame, is_protocol_violation, read_frame, WireError};

/// How long a blocked reader waits per poll before re-checking shutdown
/// and the idle deadline.
const READ_POLL: Duration = Duration::from_millis(200);

/// Per-job outcome-ring capacity: the oldest buffered updates age out
/// beyond it, bounding memory against huge jobs. A resuming client whose
/// cursor predates the ring sees the gap in [`Response::Resuming::oldest`].
const RING_CAP: usize = 4096;

/// Per-connection transfer deadline. A peer that stops reading long
/// enough to stall a response write this long is dropped (and counted),
/// never allowed to wedge a worker or connection thread; a request frame
/// whose first byte has arrived must deliver the rest within it.
const WRITE_TIMEOUT: Duration = Duration::from_secs(2);

/// Whether an I/O error is a socket read or write deadline expiring.
fn is_timeout(kind: std::io::ErrorKind) -> bool {
    matches!(
        kind,
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// The terminal of a cancelled job.
fn cancelled(job: u64) -> Response {
    Response::Cancelled {
        job,
        state: "cancelled".to_string(),
    }
}

/// The error answering an attach to a job the server does not know.
fn unknown_job(job: u64) -> Response {
    Response::Error {
        detail: format!("unknown job {job}"),
    }
}

/// Appends `response` to `batch` as one encoded frame.
fn push_frame(batch: &mut Vec<u8>, response: &Response) {
    batch.extend_from_slice(&encode_frame(&response.encode()));
}

/// Server tuning knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; use port 0 to let the OS pick.
    pub addr: String,
    /// Worker-pool size (0 = size for the host, like
    /// `Campaign::threads(0)`).
    pub workers: usize,
    /// Bounded queue cap: admissions beyond it are rejected typed.
    pub queue_cap: usize,
    /// Max queued-plus-running jobs per tenant.
    pub tenant_quota: usize,
    /// Directory for the journal and per-job checkpoints.
    pub spool: PathBuf,
    /// Per-connection idle deadline: a connection that starts no frame
    /// (not even a ping) for this long between requests is reaped.
    pub idle_timeout: Duration,
}

impl ServerConfig {
    /// A loopback server spooling into `spool`.
    pub fn new(spool: impl Into<PathBuf>) -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            queue_cap: 64,
            tenant_quota: 64,
            spool: spool.into(),
            idle_timeout: Duration::from_secs(60),
        }
    }
}

/// Where a job is in its lifecycle.
enum JobState {
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
    stream: Option<Arc<Mutex<JobStream>>>,
}

impl JobEntry {
    fn queued() -> JobEntry {
        JobEntry {
            state: JobState::Queued,
            stream: Some(Arc::default()),
        }
    }
}

#[derive(Default)]
struct Counters {
    submitted: u64,
    completed: u64,
    rejected: u64,
    resumed: u64,
}

struct QueuedJob {
    job: u64,
    tenant: String,
    spec: JobSpec,
}

/// One job's buffered outcome stream: sequence-numbered updates in a
/// bounded ring, live subscribers, and the cached terminal response.
#[derive(Default)]
struct JobStream {
    ring: VecDeque<TrialUpdate>,
    /// Updates published so far: the last one's sequence number.
    published: u64,
    terminal: Option<Response>,
    subscribers: Vec<Sender<Response>>,
}

impl JobStream {
    /// Appends one update to the ring (assigning its sequence number)
    /// and fans it out to live subscribers.
    fn publish(&mut self, mut update: TrialUpdate) {
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
    fn end(&mut self, response: Response) {
        for tx in self.subscribers.drain(..) {
            let _ = tx.send(response.clone());
        }
        self.terminal = Some(response);
    }

    /// Buffered updates past `cursor`, the terminal if the job ended, a
    /// live subscription otherwise.
    fn attach(&mut self, cursor: u64) -> Attached {
        let replay: Vec<TrialUpdate> = self
            .ring
            .iter()
            .filter(|u| u.seq > cursor)
            .cloned()
            .collect();
        let terminal = self.terminal.clone();
        let live = if terminal.is_none() {
            let (tx, rx) = mpsc::channel();
            self.subscribers.push(tx);
            Some(rx)
        } else {
            None
        };
        Attached {
            replay,
            terminal,
            live,
            oldest: self.ring.front().map_or(0, |u| u.seq),
        }
    }
}

/// What a connection got when it attached to a job's stream.
struct Attached {
    /// Buffered updates past the client's cursor, in sequence order.
    replay: Vec<TrialUpdate>,
    /// The cached terminal, if the job already ended.
    terminal: Option<Response>,
    /// Live subscription; present exactly when there is no terminal yet.
    live: Option<Receiver<Response>>,
    /// Oldest sequence number still buffered (0 = empty ring).
    oldest: u64,
}

struct State {
    queue: VecDeque<QueuedJob>,
    tenants: HashMap<String, usize>,
    /// The job table: every job of this life and every journaled one.
    jobs: HashMap<u64, JobEntry>,
    /// Finished jobs that still hold their rings, oldest first.
    retained: VecDeque<u64>,
    idem_index: HashMap<(String, u64), u64>,
    next_job: u64,
    running: usize,
    draining: bool,
    shutdown: bool,
    peak_depth: usize,
    counters: Counters,
}

impl State {
    /// Moves `job` to its terminal `state` and returns its stream. The
    /// oldest retained rings beyond `keep` are dropped.
    fn finish(&mut self, job: u64, state: JobState, keep: usize) -> Option<Arc<Mutex<JobStream>>> {
        let entry = self.jobs.get_mut(&job)?;
        entry.state = state;
        let stream = entry.stream.clone();
        self.retained.push_back(job);
        while self.retained.len() > keep {
            let oldest = self.retained.pop_front();
            if let Some(entry) = oldest.and_then(|job| self.jobs.get_mut(&job)) {
                entry.stream = None;
            }
        }
        stream
    }

    /// Returns one of `tenant`'s active-job slots.
    fn release_tenant(&mut self, tenant: &str) {
        if let Some(active) = self.tenants.get_mut(tenant) {
            *active = active.saturating_sub(1);
            if *active == 0 {
                self.tenants.remove(tenant);
            }
        }
    }
}

/// Delivers a job's terminal response on its stream.
fn end_stream(stream: &Mutex<JobStream>, response: Response) {
    stream.lock().expect("job stream poisoned").end(response);
}

struct Inner {
    config: ServerConfig,
    // A job's stream lock is never taken while `state` is held, so
    // publishing an update never waits behind an admission's journal
    // write.
    state: Mutex<State>,
    work_ready: Condvar,
    idle: Condvar,
    journal: JobJournal,
    recorder: Mutex<Recorder>,
    /// Boot epoch: journal boots including this life. Sequence numbers
    /// are per-epoch; clients compare epochs across reconnects.
    epoch: u64,
}

impl Inner {
    fn observe(&self, event: ObsEvent) {
        self.recorder
            .lock()
            .expect("server recorder poisoned")
            .event(0, event);
    }

    fn checkpoint_path(&self, job: u64) -> PathBuf {
        self.config.spool.join(format!("job_{job}.ckpt"))
    }

    fn is_shutdown(&self) -> bool {
        self.state.lock().expect("server state poisoned").shutdown
    }

    /// Writes one response; see [`Inner::send_frames`].
    fn send_response(&self, stream: &mut TcpStream, response: &Response) -> bool {
        self.send_frames(stream, &encode_frame(&response.encode()))
    }

    /// Writes encoded frames with one `write_all`, converting a blown
    /// write deadline into a counted, typed drop instead of a wedged
    /// thread.
    fn send_frames(&self, stream: &mut TcpStream, frames: &[u8]) -> bool {
        match stream.write_all(frames) {
            Ok(()) => true,
            Err(err) => {
                if is_timeout(err.kind()) {
                    self.observe(ObsEvent::ConnWriteStalled {
                        timeout_ms: WRITE_TIMEOUT.as_millis() as u64,
                    });
                }
                false
            }
        }
    }

    /// Attaches to a job's stream at `cursor`. A finished job without a
    /// ring gets its terminal alone: a digest-only `Done` (`passes: 0`,
    /// `trials` being the caller's best knowledge of the job size, 0
    /// when unknown), `Cancelled`, or a failure `Error`. `None` when the
    /// job table does not know the job.
    fn attach(&self, job: u64, cursor: u64, trials: u64) -> Option<Attached> {
        let state = self.state.lock().expect("server state poisoned");
        let entry = state.jobs.get(&job)?;
        if let Some(stream) = entry.stream.clone() {
            drop(state);
            let attached = stream.lock().expect("job stream poisoned").attach(cursor);
            return Some(attached);
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
        Some(Attached {
            replay: Vec::new(),
            terminal: Some(terminal),
            live: None,
            oldest: 0,
        })
    }

    /// Admission control. On success the job is journaled, queued, and
    /// has an (empty) outcome stream to attach to. A duplicate
    /// idempotency key short-circuits to the original job — the spec on
    /// the wire is ignored in favour of the one already admitted.
    fn admit(
        &self,
        tenant: &str,
        spec: JobSpec,
        idem: u64,
    ) -> Result<Result<u64, RejectReason>, std::io::Error> {
        let mut state = self.state.lock().expect("server state poisoned");
        if idem != 0 {
            if let Some(&job) = state.idem_index.get(&(tenant.to_string(), idem)) {
                return Ok(Ok(job));
            }
        }
        if state.draining || state.shutdown {
            state.counters.rejected += 1;
            drop(state);
            self.observe(ObsEvent::JobRejected { reason: "draining" });
            return Ok(Err(RejectReason::Draining));
        }
        if state.queue.len() >= self.config.queue_cap {
            let depth = state.queue.len() as u64;
            state.counters.rejected += 1;
            drop(state);
            self.observe(ObsEvent::JobRejected {
                reason: "queue_full",
            });
            return Ok(Err(RejectReason::QueueFull {
                depth,
                cap: self.config.queue_cap as u64,
            }));
        }
        let active = state.tenants.get(tenant).copied().unwrap_or(0);
        if active >= self.config.tenant_quota {
            state.counters.rejected += 1;
            drop(state);
            self.observe(ObsEvent::JobRejected {
                reason: "tenant_quota",
            });
            return Ok(Err(RejectReason::TenantQuota {
                active: active as u64,
                quota: self.config.tenant_quota as u64,
            }));
        }

        let job = state.next_job;
        // Durable before visible: flush the admission record while still
        // holding the lock, so ids are journaled in order and a crash
        // between "accepted" and "queued" cannot happen.
        self.journal.record_accept(job, tenant, &spec, idem)?;
        state.next_job += 1;
        if idem != 0 {
            state.idem_index.insert((tenant.to_string(), idem), job);
        }
        *state.tenants.entry(tenant.to_string()).or_insert(0) += 1;
        state.queue.push_back(QueuedJob {
            job,
            tenant: tenant.to_string(),
            spec,
        });
        state.peak_depth = state.peak_depth.max(state.queue.len());
        state.jobs.insert(job, JobEntry::queued());
        state.counters.submitted += 1;
        drop(state);
        self.observe(ObsEvent::JobAdmitted { job });
        self.work_ready.notify_one();
        Ok(Ok(job))
    }

    /// Executes a wire-level cancellation, returning the ack that tells
    /// the client where the cancel landed.
    fn cancel_job(&self, job: u64) -> Response {
        let mut state = self.state.lock().expect("server state poisoned");
        let entry_state = state.jobs.get(&job).map(|entry| &entry.state);
        let landed = entry_state.map_or("unknown", JobState::tag);
        if let Some(JobState::Running(flag)) = entry_state {
            flag.store(true, Ordering::Relaxed);
        }
        match landed {
            "queued" => {
                if let Some(at) = state.queue.iter().position(|q| q.job == job) {
                    let queued = state.queue.remove(at).expect("position is in range");
                    state.release_tenant(&queued.tenant);
                }
                let stream = state.finish(job, JobState::Cancelled, self.config.queue_cap);
                drop(state);
                // Durable and terminal right here: the job will never
                // run, in this life or any other.
                let _ = self.journal.record_cancel(job);
                self.observe(ObsEvent::JobCancelled { job });
                if let Some(stream) = stream {
                    end_stream(&stream, cancelled(job));
                }
                self.idle.notify_all();
            }
            "running" => {
                drop(state);
                // Durable now; the worker publishes the terminal when
                // the trial's cooperative check observes the flag.
                let _ = self.journal.record_cancel(job);
            }
            _ => {}
        }
        Response::Cancelled {
            job,
            state: landed.to_string(),
        }
    }

    fn stats(&self) -> ServerStats {
        let state = self.state.lock().expect("server state poisoned");
        let metrics_json = {
            let mut recorder = self.recorder.lock().expect("server recorder poisoned");
            recorder.finish();
            recorder.metrics().to_json()
        };
        ServerStats {
            submitted: state.counters.submitted,
            completed: state.counters.completed,
            rejected: state.counters.rejected,
            resumed: state.counters.resumed,
            queue_depth: state.queue.len() as u64,
            peak_queue_depth: state.peak_depth as u64,
            queue_cap: self.config.queue_cap as u64,
            draining: state.draining,
            metrics_json,
        }
    }

    fn status(&self, job: u64) -> Response {
        let state = self.state.lock().expect("server state poisoned");
        let (state_tag, digest) = match state.jobs.get(&job).map(|entry| &entry.state) {
            Some(&JobState::Done(digest)) => ("done", digest),
            Some(other) => (other.tag(), 0),
            None => ("unknown", 0),
        };
        Response::Status {
            job,
            state: state_tag.to_string(),
            digest,
        }
    }

    fn worker_loop(&self) {
        loop {
            let (queued, cancel_flag, stream) = {
                let mut state = self.state.lock().expect("server state poisoned");
                loop {
                    if state.shutdown {
                        return;
                    }
                    if let Some(job) = state.queue.pop_front() {
                        state.running += 1;
                        let flag = Arc::new(AtomicBool::new(false));
                        let entry = state.jobs.get_mut(&job.job).expect("queued job in table");
                        entry.state = JobState::Running(Arc::clone(&flag));
                        let stream = entry.stream.clone().expect("a live job keeps its stream");
                        break (job, flag, stream);
                    }
                    state = self.work_ready.wait(state).expect("server state poisoned");
                }
            };

            let QueuedJob { job, tenant, spec } = queued;
            let path = self.checkpoint_path(job);
            let result = catch_unwind(AssertUnwindSafe(|| {
                run_job(job, &spec, &path, Some(&cancel_flag), |update| {
                    stream.lock().expect("job stream poisoned").publish(update);
                })
            }));

            let (end_state, final_response) = match result {
                Ok(Ok(report)) => {
                    // Journal the completion before deleting the
                    // checkpoint: a crash between the two re-runs nothing
                    // (the done record wins); the reverse order would
                    // re-run the whole job from zero.
                    let journaled = self.journal.record_done(job, report.digest);
                    if journaled.is_ok() {
                        let _ = std::fs::remove_file(&path);
                    }
                    self.observe(ObsEvent::JobCompleted { job });
                    (JobState::Done(report.digest), Response::Done(report))
                }
                Ok(Err(JobError::Cancelled)) => {
                    // The checkpoint survives: completed trials stay
                    // durable for an un-cancelled resubmission. The
                    // cancel record is already journaled by `cancel_job`,
                    // which every cancellation goes through; this second
                    // write retries it in case that one failed.
                    let _ = self.journal.record_cancel(job);
                    self.observe(ObsEvent::JobCancelled { job });
                    (JobState::Cancelled, cancelled(job))
                }
                Ok(Err(err)) => {
                    let detail = format!("job {job} failed: {err}");
                    (JobState::Failed(detail.clone()), Response::Error { detail })
                }
                Err(_) => {
                    let detail = format!("job {job} panicked outside the campaign engine");
                    (JobState::Failed(detail.clone()), Response::Error { detail })
                }
            };
            let mut state = self.state.lock().expect("server state poisoned");
            if matches!(end_state, JobState::Done(_)) {
                state.counters.completed += 1;
            }
            state.finish(job, end_state, self.config.queue_cap);
            state.running -= 1;
            state.release_tenant(&tenant);
            let quiescent = state.running == 0 && state.queue.is_empty();
            drop(state);
            end_stream(&stream, final_response);
            if quiescent {
                self.idle.notify_all();
            }
        }
    }

    /// Serves one connection. Requests are read through a buffer, so a
    /// frame costs one `recv` however its header and payload split.
    fn handle_connection(&self, stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(READ_POLL));
        let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
        let mut reader = BufReader::new(stream);
        loop {
            let mut frame = RequestReader {
                inner: self,
                reader: &mut reader,
                stalled: Duration::ZERO,
                started: false,
            };
            let read = read_frame(&mut frame);
            let deadline = frame.deadline();
            let payload = match read {
                Ok(payload) => payload,
                Err(WireError::Io(kind)) if is_timeout(kind) => {
                    // Half-open or abandoned (no frame started within the
                    // idle deadline), or stalled mid-frame (the rest did
                    // not follow within the write deadline). A timeout
                    // while shutting down is not a reap.
                    if !self.is_shutdown() {
                        self.observe(ObsEvent::ConnIdleReaped {
                            timeout_ms: deadline.as_millis() as u64,
                        });
                    }
                    return;
                }
                Err(err) => {
                    // Hostile or damaged peer: answer typed, then hang up.
                    // A clean close between frames is no violation.
                    if is_protocol_violation(&err) {
                        let _ = self.send_response(
                            reader.get_mut(),
                            &Response::Error {
                                detail: err.to_string(),
                            },
                        );
                    }
                    return;
                }
            };
            let stream = reader.get_mut();
            let request = match Request::decode(&payload) {
                Ok(request) => request,
                Err(err) => {
                    let _ = self.send_response(
                        stream,
                        &Response::Error {
                            detail: err.to_string(),
                        },
                    );
                    return;
                }
            };
            let keep_going = match request {
                Request::Submit { tenant, spec, idem } => {
                    self.handle_submit(stream, &tenant, spec, idem)
                }
                Request::Status { job } => self.send_response(stream, &self.status(job)),
                Request::Stats => self.send_response(stream, &Response::Stats(self.stats())),
                Request::Drain => {
                    let pending = {
                        let mut state = self.state.lock().expect("server state poisoned");
                        state.draining = true;
                        (state.queue.len() + state.running) as u64
                    };
                    self.send_response(stream, &Response::Draining { pending })
                }
                Request::Ping { nonce } => self.send_response(stream, &Response::Pong { nonce }),
                Request::Cancel { job } => {
                    let ack = self.cancel_job(job);
                    self.send_response(stream, &ack)
                }
                Request::ResumeStream { job, last_seen_seq } => {
                    self.handle_resume(stream, job, last_seen_seq)
                }
            };
            if !keep_going {
                return;
            }
        }
    }

    fn handle_submit(
        &self,
        stream: &mut TcpStream,
        tenant: &str,
        spec: JobSpec,
        idem: u64,
    ) -> bool {
        let trials = spec.trials as u64;
        match self.admit(tenant, spec, idem) {
            Ok(Ok(job)) => {
                if !self.send_response(
                    stream,
                    &Response::Accepted {
                        job,
                        epoch: self.epoch,
                    },
                ) {
                    return false;
                }
                match self.attach(job, 0, trials) {
                    Some(attached) => self.pump_attached(stream, job, attached),
                    None => self.send_response(stream, &unknown_job(job)),
                }
            }
            Ok(Err(reason)) => self.send_response(stream, &Response::Rejected { reason }),
            Err(err) => {
                let _ = self.send_response(
                    stream,
                    &Response::Error {
                        detail: format!("admission journaling failed: {err}"),
                    },
                );
                false
            }
        }
    }

    fn handle_resume(&self, stream: &mut TcpStream, job: u64, last_seen_seq: u64) -> bool {
        let Some(attached) = self.attach(job, last_seen_seq, 0) else {
            return self.send_response(stream, &unknown_job(job));
        };
        self.observe(ObsEvent::StreamResumed {
            job,
            from_seq: last_seen_seq,
        });
        if !self.send_response(
            stream,
            &Response::Resuming {
                job,
                epoch: self.epoch,
                oldest: attached.oldest,
            },
        ) {
            return false;
        }
        self.pump_attached(stream, job, attached)
    }

    /// Replays buffered updates, then follows the live subscription (or
    /// the cached terminal) until the job's last word. Whatever is queued
    /// when the connection gets to write goes out as one batch: the
    /// replay with any cached terminal, then each live response with
    /// every response already queued behind it, up to the terminal.
    fn pump_attached(&self, stream: &mut TcpStream, job: u64, attached: Attached) -> bool {
        let mut batch = Vec::new();
        for update in attached.replay {
            push_frame(&mut batch, &Response::Trial(update));
        }
        if let Some(terminal) = attached.terminal {
            push_frame(&mut batch, &terminal);
            return self.send_frames(stream, &batch);
        }
        if !batch.is_empty() && !self.send_frames(stream, &batch) {
            return false;
        }
        let rx = attached
            .live
            .expect("attach without terminal must subscribe");
        loop {
            match rx.recv_timeout(READ_POLL) {
                Ok(response) => {
                    batch.clear();
                    let mut next = Some(response);
                    let mut last = false;
                    while let Some(response) = next {
                        last = matches!(
                            response,
                            Response::Done(_) | Response::Error { .. } | Response::Cancelled { .. }
                        );
                        push_frame(&mut batch, &response);
                        next = if last { None } else { rx.try_recv().ok() };
                    }
                    if !self.send_frames(stream, &batch) {
                        // Client gone; the job keeps running and stays
                        // resumable via `resume_stream`.
                        return false;
                    }
                    if last {
                        return true;
                    }
                }
                Err(mpsc::RecvTimeoutError::Timeout) if !self.is_shutdown() => {}
                Err(_) => {
                    // Shutting down, or shutdown cleared the subscribers
                    // (the job was still live); the journal will resume it.
                    let _ = self.send_response(
                        stream,
                        &Response::Error {
                            detail: format!(
                                "job {job} interrupted by shutdown; it will resume on restart"
                            ),
                        },
                    );
                    return false;
                }
            }
        }
    }
}

/// A connection's reader for one request frame. Read-poll timeouts are
/// waited out, before the first byte and inside the frame alike, so a
/// slowly delivered frame is not lost. The timeout surfaces once the
/// server shuts down, or once the stalls add up to the deadline: the idle
/// deadline until the frame's first byte arrives, the write deadline for
/// the rest. So a length field that claims bytes which never come (a
/// corrupted header, a peer gone mid-frame) costs the connection
/// seconds, not the idle deadline.
struct RequestReader<'a> {
    inner: &'a Inner,
    reader: &'a mut BufReader<TcpStream>,
    /// Read-poll time waited out so far: before the first byte, or since.
    stalled: Duration,
    /// Whether the frame's first byte has arrived.
    started: bool,
}

impl RequestReader<'_> {
    /// The stall budget that applies now.
    fn deadline(&self) -> Duration {
        if self.started {
            WRITE_TIMEOUT
        } else {
            self.inner.config.idle_timeout
        }
    }
}

impl Read for RequestReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        loop {
            match self.reader.read(buf) {
                Err(err) if is_timeout(err.kind()) => {
                    self.stalled += READ_POLL;
                    if self.stalled >= self.deadline() || self.inner.is_shutdown() {
                        return Err(err);
                    }
                }
                result => {
                    if !self.started && matches!(result, Ok(n) if n > 0) {
                        self.started = true;
                        self.stalled = Duration::ZERO;
                    }
                    return result;
                }
            }
        }
    }
}

/// A running campaign server. Dropping it does *not* stop the threads;
/// call [`Server::shutdown`] (or [`Server::shutdown_with_deadline`]).
pub struct Server {
    inner: Arc<Inner>,
    local_addr: SocketAddr,
    /// Returns the connection threads still running when it stopped.
    acceptor: Option<JoinHandle<Vec<JoinHandle<()>>>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds, replays the journal (re-queuing in-flight jobs), appends a
    /// boot record (advancing the epoch), and spawns the acceptor and
    /// worker pool.
    ///
    /// # Errors
    ///
    /// I/O failure binding the listener or opening the spool/journal.
    pub fn start(config: ServerConfig) -> std::io::Result<Server> {
        std::fs::create_dir_all(&config.spool)?;
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let (journal, replay) = JobJournal::open(config.spool.join("jobs.jsonl"))?;
        journal.record_boot()?;
        let epoch = replay.boots + 1;

        let workers = if config.workers == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            config.workers
        };

        let mut state = State {
            queue: VecDeque::new(),
            tenants: HashMap::new(),
            jobs: HashMap::new(),
            retained: VecDeque::new(),
            idem_index: replay.idem.into_iter().collect(),
            next_job: replay.next_job,
            running: 0,
            draining: false,
            shutdown: false,
            peak_depth: 0,
            counters: Counters::default(),
        };
        // Jobs that ended in a previous life have no ring.
        let ended = |job_state| JobEntry {
            state: job_state,
            stream: None,
        };
        for (&job, &digest) in &replay.done {
            state.jobs.insert(job, ended(JobState::Done(digest)));
        }
        for &job in &replay.cancelled {
            state.jobs.insert(job, ended(JobState::Cancelled));
        }
        // Re-queue every in-flight job from the journal. Resumed jobs
        // bypass the admission cap: they hold an admission from a
        // previous life, and refusing them would strand their journal
        // entries forever.
        for pending in &replay.pending {
            *state.tenants.entry(pending.tenant.clone()).or_insert(0) += 1;
            state.jobs.insert(pending.job, JobEntry::queued());
            state.queue.push_back(QueuedJob {
                job: pending.job,
                tenant: pending.tenant.clone(),
                spec: pending.spec,
            });
            state.counters.resumed += 1;
        }
        state.peak_depth = state.queue.len();

        let inner = Arc::new(Inner {
            config,
            state: Mutex::new(state),
            work_ready: Condvar::new(),
            idle: Condvar::new(),
            journal,
            recorder: Mutex::new(Recorder::new(1024)),
            epoch,
        });
        if replay.report.is_torn() {
            inner.observe(ObsEvent::CheckpointTorn {
                records: replay.report.dropped_records as u64,
                bytes: replay.report.dropped_bytes,
            });
        }
        for pending in &replay.pending {
            inner.observe(ObsEvent::JobResumed { job: pending.job });
        }
        inner.work_ready.notify_all();

        let worker_handles: Vec<JoinHandle<()>> = (0..workers)
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || inner.worker_loop())
            })
            .collect();

        let acceptor = {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || {
                let mut connections: Vec<JoinHandle<()>> = Vec::new();
                loop {
                    let accepted = listener.accept();
                    if inner.is_shutdown() {
                        return connections;
                    }
                    if let Ok((stream, _)) = accepted {
                        // Resilient clients reconnect on every retry: keep
                        // only the handles of connections still open.
                        connections.retain(|handle| !handle.is_finished());
                        let conn_inner = Arc::clone(&inner);
                        connections.push(std::thread::spawn(move || {
                            conn_inner.handle_connection(stream)
                        }));
                    }
                }
            })
        };

        Ok(Server {
            inner,
            local_addr,
            acceptor: Some(acceptor),
            workers: worker_handles,
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The server's boot epoch (count of journal boots including this
    /// life).
    pub fn epoch(&self) -> u64 {
        self.inner.epoch
    }

    /// Jobs currently queued or running.
    pub fn pending_jobs(&self) -> usize {
        let state = self.inner.state.lock().expect("server state poisoned");
        state.queue.len() + state.running
    }

    /// Blocks until the queue is empty and no job is running, or the
    /// timeout elapses. Returns whether quiescence was reached.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        let mut state = self.inner.state.lock().expect("server state poisoned");
        while !state.queue.is_empty() || state.running > 0 {
            let now = std::time::Instant::now();
            if now >= deadline {
                return false;
            }
            let (next, _) = self
                .inner
                .idle
                .wait_timeout(state, deadline - now)
                .expect("server state poisoned");
            state = next;
        }
        true
    }

    /// Stops accepting, abandons queued jobs to the journal (a restart
    /// resumes them), finishes jobs already running, and joins every
    /// thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    /// Graceful drain with a deadline: stops admitting, waits up to
    /// `deadline` for in-flight work to finish, then **cancels** the
    /// stragglers — queued jobs become terminal `Cancelled` immediately,
    /// running jobs have their flags raised and end at their next
    /// cooperative check — instead of hanging shutdown on them. Returns
    /// whether the drain was clean (nothing had to be cancelled).
    pub fn shutdown_with_deadline(mut self, deadline: Duration) -> bool {
        {
            let mut state = self.inner.state.lock().expect("server state poisoned");
            state.draining = true;
        }
        let clean = self.wait_idle(deadline);
        if !clean {
            let mut live: Vec<u64> = {
                let state = self.inner.state.lock().expect("server state poisoned");
                let live = state.jobs.iter().filter(|(_, entry)| entry.state.is_live());
                live.map(|(&job, _)| job).collect()
            };
            live.sort_unstable();
            for job in live {
                self.inner.cancel_job(job);
            }
            // Running trials observe their flags at the next cooperative
            // watchdog check; give them a moment to become typed
            // cancellations rather than join-hangs.
            let _ = self.wait_idle(Duration::from_secs(30));
        }
        self.stop_and_join();
        clean
    }

    fn stop_and_join(&mut self) {
        let live_streams: Vec<Arc<Mutex<JobStream>>> = {
            let mut state = self.inner.state.lock().expect("server state poisoned");
            state.shutdown = true;
            // Queued jobs go back to the journal: the next start resumes
            // them. Their subscribers are unblocked below.
            state.queue.clear();
            state
                .jobs
                .values()
                .filter(|entry| entry.state.is_live())
                .filter_map(|entry| entry.stream.clone())
                .collect()
        };
        // Unblock connections pumping streams that will never end in
        // this life.
        for stream in live_streams {
            stream
                .lock()
                .expect("job stream poisoned")
                .subscribers
                .clear();
        }
        self.inner.work_ready.notify_all();
        // Unblock the acceptor with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        let connections = self
            .acceptor
            .take()
            .and_then(|acceptor| acceptor.join().ok())
            .unwrap_or_default();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        for connection in connections {
            let _ = connection.join();
        }
    }
}
