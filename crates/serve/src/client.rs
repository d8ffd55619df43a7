//! A blocking client for the campaign server, and a resilient
//! submit-to-completion driver built on it.
//!
//! One [`Client`] wraps one TCP connection. [`Client::submit`] returns
//! the assigned job id (or the typed rejection); the caller then drains
//! the update stream with [`Client::next_update`] until the terminal
//! [`Response::Done`] (or a typed `cancelled`/error frame).
//! [`Client::submit_and_wait`] does the whole dance and hands back the
//! final report plus every streamed trial update.
//!
//! On a hostile network, one connection is not enough:
//! [`submit_resilient`] submits under an idempotency key and survives
//! any number of dropped connections — it reconnects with capped
//! exponential backoff, re-attaches to the job's outcome stream with
//! [`Client::resume_stream`] from the last sequence number it saw, and
//! deduplicates across reconnects (by sequence number within a server
//! epoch, by trial index across server restarts). The reassembled
//! update stream is byte-for-byte what an unbroken connection would
//! have carried.
//!
//! Connections carry a default write deadline so a stalled server
//! cannot wedge a client in `write(2)` forever; *read* timeouts stay
//! opt-in because a blocking wait for a long trial is the common case.
//! Responses are read through a buffer, so a batch of streamed updates
//! costs one `recv`, not four per frame.

use std::collections::HashSet;
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::proto::{JobReport, RejectReason, Request, Response, ServerStats, TrialUpdate};
use crate::wire::{read_frame, write_frame, WireError};

/// Default per-connection write deadline (see module docs).
pub const DEFAULT_WRITE_TIMEOUT: Duration = Duration::from_secs(2);

/// Everything a client call can fail with.
#[derive(Clone, PartialEq, Debug)]
pub enum ClientError {
    /// Transport or framing failure.
    Wire(WireError),
    /// The server answered with a frame the call did not expect.
    Unexpected {
        /// What arrived instead.
        got: String,
    },
    /// The server reported a job failure.
    Server {
        /// The server's error detail.
        detail: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Wire(err) => write!(f, "wire error: {err}"),
            ClientError::Unexpected { got } => write!(f, "unexpected response: {got}"),
            ClientError::Server { detail } => write!(f, "server error: {detail}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<WireError> for ClientError {
    fn from(err: WireError) -> Self {
        ClientError::Wire(err)
    }
}

impl From<std::io::Error> for ClientError {
    fn from(err: std::io::Error) -> Self {
        ClientError::Wire(WireError::Io(err.kind()))
    }
}

/// What a submission came back as.
#[derive(Clone, PartialEq, Debug)]
pub enum Submission {
    /// Admitted; trial updates will stream on this connection.
    Accepted {
        /// The server-assigned job id.
        job: u64,
        /// The server's boot epoch; sequence numbers are only comparable
        /// within one epoch.
        epoch: u64,
    },
    /// Refused, with the typed reason.
    Rejected(RejectReason),
}

/// A finished job as seen from the client side.
#[derive(Clone, PartialEq, Debug)]
pub struct FinishedJob {
    /// The final report.
    pub report: JobReport,
    /// Every trial update streamed before the report, in arrival order.
    pub updates: Vec<TrialUpdate>,
}

/// One blocking connection to a campaign server.
#[derive(Debug)]
pub struct Client {
    /// Reads responses through a buffer; requests go to the inner stream.
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects to `addr`.
    ///
    /// # Errors
    ///
    /// I/O failure connecting.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        Client::configure(stream)
    }

    /// Connects to `addr`, giving up after `timeout` per resolved
    /// address — a black-holed server costs a bounded wait, not a
    /// kernel-default one.
    ///
    /// # Errors
    ///
    /// I/O failure resolving or connecting (the last address's error).
    pub fn connect_timeout(addr: impl ToSocketAddrs, timeout: Duration) -> std::io::Result<Client> {
        let mut last_err = None;
        for resolved in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&resolved, timeout) {
                Ok(stream) => return Client::configure(stream),
                Err(err) => last_err = Some(err),
            }
        }
        Err(last_err.unwrap_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "address resolved to nothing",
            )
        }))
    }

    fn configure(stream: TcpStream) -> std::io::Result<Client> {
        stream.set_nodelay(true)?;
        stream.set_write_timeout(Some(DEFAULT_WRITE_TIMEOUT))?;
        Ok(Client {
            reader: BufReader::new(stream),
        })
    }

    /// Sets (or clears) the read timeout for responses.
    ///
    /// # Errors
    ///
    /// I/O failure configuring the socket.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// Overrides (or clears) the default write deadline.
    ///
    /// # Errors
    ///
    /// I/O failure configuring the socket.
    pub fn set_write_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.reader.get_ref().set_write_timeout(timeout)
    }

    fn send(&mut self, request: &Request) -> Result<(), ClientError> {
        write_frame(self.reader.get_mut(), &request.encode())?;
        Ok(())
    }

    fn recv(&mut self) -> Result<Response, ClientError> {
        let payload = read_frame(&mut self.reader)?;
        Ok(Response::decode(&payload)?)
    }

    /// Submits a job and reads the admission verdict.
    ///
    /// # Errors
    ///
    /// Wire failure, or a frame that is neither `accepted` nor
    /// `rejected`.
    pub fn submit(
        &mut self,
        tenant: &str,
        spec: &crate::job::JobSpec,
    ) -> Result<Submission, ClientError> {
        self.submit_idem(tenant, spec, 0)
    }

    /// Submits a job under an idempotency key (0 = none). Resubmitting
    /// the same `(tenant, key)` — same connection, a new one, or after a
    /// server restart — returns the original job instead of admitting a
    /// duplicate.
    ///
    /// # Errors
    ///
    /// Wire failure, or a frame that is neither `accepted` nor
    /// `rejected`.
    pub fn submit_idem(
        &mut self,
        tenant: &str,
        spec: &crate::job::JobSpec,
        idem: u64,
    ) -> Result<Submission, ClientError> {
        self.send(&Request::Submit {
            tenant: tenant.to_string(),
            spec: *spec,
            idem,
        })?;
        match self.recv()? {
            Response::Accepted { job, epoch } => Ok(Submission::Accepted { job, epoch }),
            Response::Rejected { reason } => Ok(Submission::Rejected(reason)),
            Response::Error { detail } => Err(ClientError::Server { detail }),
            other => Err(ClientError::Unexpected {
                got: other.encode(),
            }),
        }
    }

    /// Reads the next frame of a job's update stream.
    ///
    /// Returns `Trial` updates until the terminal `Done` or `Cancelled`;
    /// after a terminal the stream is finished and the connection is
    /// reusable.
    ///
    /// # Errors
    ///
    /// Wire failure, a server `error` frame, or an out-of-protocol frame.
    pub fn next_update(&mut self) -> Result<Response, ClientError> {
        match self.recv()? {
            update @ (Response::Trial(_) | Response::Done(_) | Response::Cancelled { .. }) => {
                Ok(update)
            }
            Response::Error { detail } => Err(ClientError::Server { detail }),
            other => Err(ClientError::Unexpected {
                got: other.encode(),
            }),
        }
    }

    /// Submits and, if accepted, blocks until the job finishes.
    ///
    /// # Errors
    ///
    /// Anything [`Client::submit`] or [`Client::next_update`] can fail
    /// with; a wire-cancelled job surfaces as a typed server error.
    pub fn submit_and_wait(
        &mut self,
        tenant: &str,
        spec: &crate::job::JobSpec,
    ) -> Result<Result<FinishedJob, RejectReason>, ClientError> {
        match self.submit(tenant, spec)? {
            Submission::Rejected(reason) => Ok(Err(reason)),
            Submission::Accepted { .. } => {
                let mut updates = Vec::new();
                loop {
                    match self.next_update()? {
                        Response::Trial(update) => updates.push(update),
                        Response::Done(report) => return Ok(Ok(FinishedJob { report, updates })),
                        Response::Cancelled { job, .. } => {
                            return Err(ClientError::Server {
                                detail: format!("job {job} was cancelled"),
                            })
                        }
                        other => {
                            return Err(ClientError::Unexpected {
                                got: other.encode(),
                            })
                        }
                    }
                }
            }
        }
    }

    /// Re-attaches to a job's outcome stream from just past
    /// `last_seen_seq`. Returns the server's `(epoch, oldest buffered
    /// seq)`; the stream then continues via [`Client::next_update`]. If
    /// the returned epoch differs from the one the cursor was observed
    /// in, the cursor was meaningless — drop the connection and resume
    /// again from 0, deduplicating by trial index.
    ///
    /// # Errors
    ///
    /// Wire failure, a server `error` frame (unknown job), or an
    /// out-of-protocol frame.
    pub fn resume_stream(
        &mut self,
        job: u64,
        last_seen_seq: u64,
    ) -> Result<(u64, u64), ClientError> {
        self.send(&Request::ResumeStream { job, last_seen_seq })?;
        match self.recv()? {
            Response::Resuming { epoch, oldest, .. } => Ok((epoch, oldest)),
            Response::Error { detail } => Err(ClientError::Server { detail }),
            other => Err(ClientError::Unexpected {
                got: other.encode(),
            }),
        }
    }

    /// Heartbeat: round-trips `nonce` through the server. Keeps an
    /// otherwise-quiet connection inside the server's idle deadline and
    /// proves the peer is alive.
    ///
    /// # Errors
    ///
    /// Wire failure or an out-of-protocol frame.
    pub fn ping(&mut self, nonce: u64) -> Result<u64, ClientError> {
        self.send(&Request::Ping { nonce })?;
        match self.recv()? {
            Response::Pong { nonce } => Ok(nonce),
            Response::Error { detail } => Err(ClientError::Server { detail }),
            other => Err(ClientError::Unexpected {
                got: other.encode(),
            }),
        }
    }

    /// Cancels a job. Returns where the cancel landed: `"queued"` (never
    /// ran, terminal immediately), `"running"` (flag raised; the job
    /// ends at its next cooperative check), `"done"`/`"failed"`/
    /// `"cancelled"` (too late / already over), or `"unknown"`.
    ///
    /// # Errors
    ///
    /// Wire failure or an out-of-protocol frame.
    pub fn cancel(&mut self, job: u64) -> Result<String, ClientError> {
        self.send(&Request::Cancel { job })?;
        match self.recv()? {
            Response::Cancelled { state, .. } => Ok(state),
            Response::Error { detail } => Err(ClientError::Server { detail }),
            other => Err(ClientError::Unexpected {
                got: other.encode(),
            }),
        }
    }

    /// Queries a job's lifecycle state and digest.
    ///
    /// # Errors
    ///
    /// Wire failure or an out-of-protocol frame.
    pub fn status(&mut self, job: u64) -> Result<(String, u64), ClientError> {
        self.send(&Request::Status { job })?;
        match self.recv()? {
            Response::Status { state, digest, .. } => Ok((state, digest)),
            Response::Error { detail } => Err(ClientError::Server { detail }),
            other => Err(ClientError::Unexpected {
                got: other.encode(),
            }),
        }
    }

    /// Fetches server-wide counters and metrics.
    ///
    /// # Errors
    ///
    /// Wire failure or an out-of-protocol frame.
    pub fn stats(&mut self) -> Result<ServerStats, ClientError> {
        self.send(&Request::Stats)?;
        match self.recv()? {
            Response::Stats(stats) => Ok(stats),
            Response::Error { detail } => Err(ClientError::Server { detail }),
            other => Err(ClientError::Unexpected {
                got: other.encode(),
            }),
        }
    }

    /// Asks the server to drain: finish what is queued, reject new work.
    /// Returns the number of jobs still pending.
    ///
    /// # Errors
    ///
    /// Wire failure or an out-of-protocol frame.
    pub fn drain(&mut self) -> Result<u64, ClientError> {
        self.send(&Request::Drain)?;
        match self.recv()? {
            Response::Draining { pending } => Ok(pending),
            Response::Error { detail } => Err(ClientError::Server { detail }),
            other => Err(ClientError::Unexpected {
                got: other.encode(),
            }),
        }
    }
}

/// Reconnect policy for [`submit_resilient`].
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Consecutive connection/stream failures tolerated before giving
    /// up. Any successfully received update resets the count.
    pub max_failures: u32,
    /// First backoff; doubles per consecutive failure.
    pub base_backoff: Duration,
    /// Backoff cap.
    pub max_backoff: Duration,
    /// Per-address connect deadline.
    pub connect_timeout: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_failures: 8,
            base_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
            connect_timeout: Duration::from_secs(2),
        }
    }
}

impl RetryPolicy {
    fn backoff(&self, consecutive_failures: u32) -> Duration {
        let doubled = self
            .base_backoff
            .saturating_mul(1u32 << consecutive_failures.saturating_sub(1).min(16));
        doubled.min(self.max_backoff)
    }
}

/// How a resilient submission ended.
#[derive(Clone, PartialEq, Debug)]
pub enum ResilientOutcome {
    /// The job finished; updates are deduplicated and in trial order of
    /// first delivery — byte-identical to an unbroken stream.
    Done(FinishedJob),
    /// Admission refused, typed.
    Rejected(RejectReason),
    /// The job was cancelled (wire-level or drain-deadline).
    Cancelled {
        /// The cancelled job's id.
        job: u64,
    },
}

/// Submits `spec` under idempotency key `idem` and drives it to a
/// terminal state across any number of broken connections and server
/// restarts (see module docs for the resume/dedup rules). `idem` must
/// be non-zero: it is what makes a re-sent `submit` attach to the
/// original job instead of admitting a duplicate.
///
/// # Errors
///
/// The last failure once `policy.max_failures` consecutive attempts
/// have failed, or a typed server error if the job itself failed.
pub fn submit_resilient(
    addr: SocketAddr,
    tenant: &str,
    spec: &crate::job::JobSpec,
    idem: u64,
    policy: &RetryPolicy,
) -> Result<ResilientOutcome, ClientError> {
    assert!(
        idem != 0,
        "resilient submission requires an idempotency key"
    );
    let mut failures: u32 = 0;
    let mut job: Option<u64> = None;
    let mut epoch: u64 = 0;
    let mut last_seen_seq: u64 = 0;
    let mut seen_indexes: HashSet<u64> = HashSet::new();
    let mut updates: Vec<TrialUpdate> = Vec::new();
    let mut last_error = ClientError::Server {
        detail: "no attempt made".to_string(),
    };

    'attempt: loop {
        if failures > policy.max_failures {
            return Err(last_error);
        }
        if failures > 0 {
            std::thread::sleep(policy.backoff(failures));
        }

        let mut client = match Client::connect_timeout(addr, policy.connect_timeout) {
            Ok(client) => client,
            Err(err) => {
                last_error = err.into();
                failures += 1;
                continue 'attempt;
            }
        };

        if let Some(job_id) = job {
            // Reconnecting: ask after the job's fate first — a job that
            // ended while we were away needs no stream.
            match client.status(job_id) {
                Ok((state, _)) => match state.as_str() {
                    "cancelled" => return Ok(ResilientOutcome::Cancelled { job: job_id }),
                    "failed" => {
                        return Err(ClientError::Server {
                            detail: format!("job {job_id} failed ({last_error})"),
                        })
                    }
                    _ => {}
                },
                Err(err) => {
                    last_error = err;
                    failures += 1;
                    continue 'attempt;
                }
            }
            match client.resume_stream(job_id, last_seen_seq) {
                Ok((server_epoch, _oldest)) => {
                    if server_epoch != epoch {
                        // Server restarted: sequence numbers are
                        // per-epoch, so the cursor we just sent was
                        // meaningless and may have skipped fresh
                        // updates. Reset it and reattach from zero;
                        // trial-index dedup absorbs any overlap.
                        epoch = server_epoch;
                        last_seen_seq = 0;
                        failures += 1;
                        continue 'attempt;
                    }
                }
                Err(err) => {
                    last_error = err;
                    failures += 1;
                    continue 'attempt;
                }
            }
        } else {
            match client.submit_idem(tenant, spec, idem) {
                Ok(Submission::Accepted {
                    job: accepted,
                    epoch: server_epoch,
                }) => {
                    job = Some(accepted);
                    epoch = server_epoch;
                }
                Ok(Submission::Rejected(reason)) => return Ok(ResilientOutcome::Rejected(reason)),
                Err(err) => {
                    last_error = err;
                    failures += 1;
                    continue 'attempt;
                }
            }
        }

        loop {
            match client.next_update() {
                Ok(Response::Trial(update)) => {
                    failures = 0;
                    last_seen_seq = last_seen_seq.max(update.seq);
                    if seen_indexes.insert(update.index) {
                        updates.push(update);
                    }
                }
                Ok(Response::Done(report)) => {
                    return Ok(ResilientOutcome::Done(FinishedJob { report, updates }))
                }
                Ok(Response::Cancelled { job: cancelled, .. }) => {
                    return Ok(ResilientOutcome::Cancelled { job: cancelled })
                }
                Ok(other) => {
                    return Err(ClientError::Unexpected {
                        got: other.encode(),
                    })
                }
                Err(err) => {
                    // Shutdown-interruption errors and plain wire drops
                    // both land here; the status probe on the next
                    // attempt separates "retry" from "the job failed".
                    last_error = err;
                    failures += 1;
                    continue 'attempt;
                }
            }
        }
    }
}
