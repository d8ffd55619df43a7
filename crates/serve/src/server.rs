//! The campaign server: the threads, locks, sockets and journal writes
//! around the job table (`table.rs`), which holds every job lifecycle
//! rule and does no I/O.
//!
//! Life of a job, by the thread that moves it:
//!
//! 1. a connection thread decodes a `submit` frame and runs admission
//!    under the table lock. An accepted job's record is **journaled and
//!    flushed** under that lock, before the job becomes visible, and only
//!    then does `Accepted` leave the server: a job the client saw
//!    accepted is a job a `kill -9` cannot lose;
//! 2. a worker takes the job and runs it through [`crate::job::run_job`]
//!    (checkpointed trials, watchdog deadlines, retries within the job's
//!    budget), publishing every [`Response::Trial`] into the job's
//!    outcome ring. Connections (the submitter, and any later
//!    `resume_stream`) subscribe to the ring and write every update
//!    already queued for them as one batch of frames;
//! 3. the worker journals the completion (or the cancellation), deletes
//!    the job's checkpoint, finishes the job in the table and ends its
//!    stream with the terminal. A cancel that finds the job queued does
//!    the same from the connection thread that received it.
//!
//! A job's stream lock is never taken while the table lock is held, so
//! publishing an update never waits behind an admission's journal write.
//!
//! The connection layer assumes a hostile network (DESIGN.md §12): read
//! *and* write deadlines per connection, an idle deadline that reaps
//! half-open connections, cancellation that reaches inside a running
//! trial, and a drain deadline that cancels stragglers.
//!
//! On restart the journal's records replay through the table's own
//! transitions, and the jobs still pending are queued again. Admissions,
//! rejections, resumes, completions, cancellations, stream
//! re-attachments, stalled writers and reaped connections all count in
//! the nv-obs metrics served by `stats`.

use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use nv_obs::{ObsEvent, Recorder};

use crate::job::{run_job, JobError, JobSpec};
use crate::journal::{JobJournal, Record};
use crate::proto::{Request, Response, ServerStats};
use crate::table::{cancelled, Admission, Attached, JobState, JobTable, Started};
use crate::wire::{encode_frame, is_protocol_violation, read_frame, WireError};

/// How long a blocked reader waits per poll before re-checking shutdown
/// and the idle deadline.
const READ_POLL: Duration = Duration::from_millis(200);

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

struct Inner {
    config: ServerConfig,
    // A job's stream lock is never taken while `table` is held, so
    // publishing an update never waits behind an admission's journal
    // write.
    table: Mutex<JobTable>,
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

    fn table(&self) -> MutexGuard<'_, JobTable> {
        self.table.lock().expect("job table poisoned")
    }

    fn checkpoint_path(&self, job: u64) -> PathBuf {
        self.config.spool.join(format!("job_{job}.ckpt"))
    }

    /// Appends `record` to the journal. Once a done or cancel record is
    /// durable the job never runs again, in this life or any other, so its
    /// checkpoint is deleted; the reverse order would let a crash between
    /// the two re-run a finished job from zero.
    fn append(&self, record: &Record) -> std::io::Result<()> {
        self.journal.append(record)?;
        if let Record::Done { job, .. } | Record::Cancel { job } = *record {
            let _ = std::fs::remove_file(self.checkpoint_path(job));
        }
        Ok(())
    }

    fn is_shutdown(&self) -> bool {
        self.table().shutdown
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

    /// Attaches to a job's stream at `cursor`; see [`JobTable::target`].
    /// `None` when the job table does not know the job.
    fn attach(&self, job: u64, cursor: u64, trials: u64) -> Option<Attached> {
        let stream = self.table().target(job, trials)?;
        let attached = stream.lock().expect("job stream poisoned").attach(cursor);
        Some(attached)
    }

    /// Admission control (see [`JobTable::admit`]): the admitted job, or
    /// the reply that refuses it.
    fn admit(&self, tenant: &str, spec: JobSpec, idem: u64) -> Result<u64, Response> {
        let mut table = self.table();
        let record = match table.admit(tenant, spec, idem) {
            Admission::Existing(job) => return Ok(job),
            Admission::Rejected(reason) => {
                drop(table);
                self.observe(ObsEvent::JobRejected {
                    reason: reason.tag(),
                });
                return Err(Response::Rejected { reason });
            }
            Admission::Accept(record) => record,
        };
        // Durable before visible: flush the admission record while still
        // holding the lock, so ids are journaled in order and a crash
        // between "accepted" and "queued" cannot happen.
        if let Err(err) = self.journal.append(&record) {
            let detail = format!("admission journaling failed: {err}");
            return Err(Response::Error { detail });
        }
        let Record::Accept { job, .. } = record else {
            unreachable!("admission accepts with an accept record")
        };
        table.apply(record);
        drop(table);
        self.observe(ObsEvent::JobAdmitted { job });
        self.work_ready.notify_one();
        Ok(job)
    }

    /// Executes a wire-level cancellation, returning the ack that tells
    /// the client where the cancel landed.
    fn cancel_job(&self, job: u64) -> Response {
        let cancel = self.table().cancel(job);
        // Durable now. A queued job is terminal right here and will never
        // run, in this life or any other; a running job's worker
        // publishes the terminal when the trial's cooperative check
        // observes the flag.
        if let Some(record) = &cancel.record {
            let _ = self.append(record);
        }
        if let Some(stream) = cancel.ended {
            self.observe(ObsEvent::JobCancelled { job });
            let mut stream = stream.lock().expect("job stream poisoned");
            stream.end(cancelled(job));
            self.idle.notify_all();
        }
        Response::Cancelled {
            job,
            state: cancel.landed.to_string(),
        }
    }

    fn stats(&self) -> ServerStats {
        let table = self.table();
        let mut recorder = self.recorder.lock().expect("server recorder poisoned");
        recorder.finish();
        table.stats(recorder.metrics().to_json())
    }

    fn worker_loop(&self) {
        loop {
            let started = {
                let mut table = self.table();
                loop {
                    if table.shutdown {
                        return;
                    }
                    if let Some(started) = table.start() {
                        break started;
                    }
                    table = self.work_ready.wait(table).expect("job table poisoned");
                }
            };

            let Started {
                job,
                spec,
                cancel,
                stream,
            } = started;
            let path = self.checkpoint_path(job);
            let result = catch_unwind(AssertUnwindSafe(|| {
                run_job(job, &spec, &path, Some(&cancel), |update| {
                    stream.lock().expect("job stream poisoned").publish(update);
                })
            }));

            let (end, final_response) = match result {
                Ok(Ok(report)) => {
                    let _ = self.append(&Record::Done {
                        job,
                        digest: report.digest,
                    });
                    self.observe(ObsEvent::JobCompleted { job });
                    (JobState::Done(report.digest), Response::Done(report))
                }
                Ok(Err(JobError::Cancelled)) => {
                    // `cancel_job` journaled the cancel already; this
                    // retries it in case that write failed.
                    let _ = self.append(&Record::Cancel { job });
                    self.observe(ObsEvent::JobCancelled { job });
                    (JobState::Cancelled, cancelled(job))
                }
                failure => {
                    let detail = match failure {
                        Ok(Err(err)) => format!("job {job} failed: {err}"),
                        _ => format!("job {job} panicked outside the campaign engine"),
                    };
                    (JobState::Failed(detail.clone()), Response::Error { detail })
                }
            };
            let mut table = self.table();
            table.finish(job, end);
            let quiescent = table.pending() == 0;
            drop(table);
            let mut stream = stream.lock().expect("job stream poisoned");
            stream.end(final_response);
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
            let read = read_frame(&mut frame).and_then(|payload| Request::decode(&payload));
            let deadline = frame.deadline();
            let request = match read {
                Ok(request) => request,
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
                    // Hostile or damaged peer, or a frame that is no
                    // request: answer typed, then hang up. A clean close
                    // between frames is no violation.
                    if is_protocol_violation(&err) {
                        let detail = err.to_string();
                        let _ = self.send_response(reader.get_mut(), &Response::Error { detail });
                    }
                    return;
                }
            };
            let stream = reader.get_mut();
            let keep_going = match request {
                Request::Submit { tenant, spec, idem } => {
                    self.handle_submit(stream, &tenant, spec, idem)
                }
                Request::Status { job } => {
                    let status = self.table().status(job);
                    self.send_response(stream, &status)
                }
                Request::Stats => self.send_response(stream, &Response::Stats(self.stats())),
                Request::Drain => {
                    let pending = {
                        let mut table = self.table();
                        table.draining = true;
                        table.pending() as u64
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
        let job = match self.admit(tenant, spec, idem) {
            Ok(job) => job,
            // A rejected client may submit again; after a journal failure
            // the connection closes.
            Err(reply) => {
                let rejected = matches!(reply, Response::Rejected { .. });
                return self.send_response(stream, &reply) && rejected;
            }
        };
        let accepted = Response::Accepted {
            job,
            epoch: self.epoch,
        };
        if !self.send_response(stream, &accepted) {
            return false;
        }
        let attached = self.attach(job, 0, trials);
        self.pump_attached(
            stream,
            job,
            attached.expect("an admitted job is in the table"),
        )
    }

    fn handle_resume(&self, stream: &mut TcpStream, job: u64, last_seen_seq: u64) -> bool {
        let Some(attached) = self.attach(job, last_seen_seq, 0) else {
            let detail = format!("unknown job {job}");
            return self.send_response(stream, &Response::Error { detail });
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
        journal.append(&Record::Boot)?;
        let epoch = replay.boots + 1;

        let workers = if config.workers == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            config.workers
        };

        // Every in-flight job from the journal is queued again. Resumed
        // jobs bypass the admission cap: they hold an admission from a
        // previous life, and refusing them would strand their journal
        // entries forever.
        let mut table = replay.table;
        let resumed = table.boot(config.queue_cap, config.tenant_quota);
        let inner = Arc::new(Inner {
            config,
            table: Mutex::new(table),
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
        for job in resumed {
            inner.observe(ObsEvent::JobResumed { job });
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
        self.inner.table().pending()
    }

    /// Blocks until the queue is empty and no job is running, or the
    /// timeout elapses. Returns whether quiescence was reached.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        let mut table = self.inner.table();
        while table.pending() > 0 {
            let now = std::time::Instant::now();
            if now >= deadline {
                return false;
            }
            let (next, _) = self
                .inner
                .idle
                .wait_timeout(table, deadline - now)
                .expect("job table poisoned");
            table = next;
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
        self.inner.table().draining = true;
        let clean = self.wait_idle(deadline);
        if !clean {
            let live = self.inner.table().live_jobs();
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
        // Queued jobs go back to the journal: the next start resumes
        // them. Unblock connections pumping streams that will never end
        // in this life.
        let live_streams = self.inner.table().shut_down();
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
