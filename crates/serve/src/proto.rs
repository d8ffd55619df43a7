//! The campaign-server message vocabulary, on top of [`crate::wire`]
//! frames.
//!
//! Payloads are flat, hand-rolled JSON objects (the workspace owns all
//! of its dependencies, so there is no serde): every field is either an
//! unsigned number or a string escaped with the same rules as the
//! checkpoint journal ([`nv_obs::export::escape`]). Because
//! `"` is always escaped inside string values, searching for the literal
//! `"key": ` pattern cannot be spoofed by field *content* — a hostile
//! tenant name cannot inject fields.
//!
//! Decoders are total: any missing or ill-typed field becomes
//! [`WireError::BadMessage`], never a panic.

use std::ops::RangeInclusive;

use nv_obs::export::{escape, field_bool, field_str, field_u64};

use crate::job::{JobKind, JobSpec};
use crate::wire::WireError;

pub(crate) fn missing(key: &str) -> WireError {
    WireError::BadMessage {
        detail: format!("missing or ill-typed field \"{key}\""),
    }
}

/// Why the server refused a job at admission. Typed — a client can
/// distinguish back-pressure from quota policy from shutdown and react
/// accordingly (back off, shed load, fail over).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RejectReason {
    /// The bounded job queue is full; retry with back-off.
    QueueFull {
        /// Queue depth at rejection time.
        depth: u64,
        /// The configured cap the depth had reached.
        cap: u64,
    },
    /// The tenant has too many jobs queued or running.
    TenantQuota {
        /// The tenant's active jobs at rejection time.
        active: u64,
        /// The configured per-tenant quota.
        quota: u64,
    },
    /// The server is draining and accepts no new work.
    Draining,
}

impl RejectReason {
    /// The reason's stable snake_case label.
    pub(crate) fn tag(&self) -> &'static str {
        match self {
            RejectReason::QueueFull { .. } => "queue_full",
            RejectReason::TenantQuota { .. } => "tenant_quota",
            RejectReason::Draining => "draining",
        }
    }
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::QueueFull { depth, cap } => {
                write!(f, "queue full ({depth} of {cap})")
            }
            RejectReason::TenantQuota { active, quota } => {
                write!(f, "tenant quota exhausted ({active} of {quota})")
            }
            RejectReason::Draining => write!(f, "server draining"),
        }
    }
}

/// A client request.
#[derive(Clone, PartialEq, Debug)]
pub enum Request {
    /// Submit a job; the server streams updates back on this connection.
    Submit {
        /// The submitting tenant (quota accounting key).
        tenant: String,
        /// What to run.
        spec: JobSpec,
        /// Client-chosen idempotency key; `0` means none. A re-submission
        /// with the same tenant and a non-zero key returns the original
        /// job instead of admitting a duplicate, so a client that lost the
        /// `Accepted` reply to a dropped connection can retry blind.
        idem: u64,
    },
    /// Query one job's state (e.g. a job resumed after a crash, whose
    /// submitting connection is long gone).
    Status {
        /// The job id.
        job: u64,
    },
    /// Query server-wide counters and metrics.
    Stats,
    /// Stop admitting work; finish what is queued.
    Drain,
    /// Liveness heartbeat; the server answers [`Response::Pong`] with the
    /// same nonce. Keeps the connection inside the server's idle deadline
    /// and lets a client distinguish a slow job from a dead peer.
    Ping {
        /// Echo token, returned verbatim in the pong.
        nonce: u64,
    },
    /// Cancel a queued or running job. Queued jobs are dropped; running
    /// jobs have their core's cancellation flag raised and terminate at
    /// the next cooperative watchdog check with a typed `cancelled`
    /// outcome.
    Cancel {
        /// The job id.
        job: u64,
    },
    /// Re-attach to a job's outcome stream after a dropped connection.
    /// The server answers [`Response::Resuming`], replays every buffered
    /// update with `seq > last_seen_seq`, then continues live.
    ResumeStream {
        /// The job id.
        job: u64,
        /// Highest sequence number the client already holds (0 = none).
        last_seen_seq: u64,
    },
}

impl Request {
    /// Renders the request as a frame payload.
    pub fn encode(&self) -> String {
        match self {
            Request::Submit { tenant, spec, idem } => format!(
                "{{\"op\": \"submit\", \"tenant\": \"{}\", \"idem\": {idem}, {}}}",
                escape(tenant),
                spec.encode_fields()
            ),
            Request::Status { job } => {
                format!("{{\"op\": \"status\", \"job\": {job}}}")
            }
            Request::Stats => "{\"op\": \"stats\"}".to_string(),
            Request::Drain => "{\"op\": \"drain\"}".to_string(),
            Request::Ping { nonce } => {
                format!("{{\"op\": \"ping\", \"nonce\": {nonce}}}")
            }
            Request::Cancel { job } => {
                format!("{{\"op\": \"cancel\", \"job\": {job}}}")
            }
            Request::ResumeStream { job, last_seen_seq } => format!(
                "{{\"op\": \"resume_stream\", \"job\": {job}, \"last_seen_seq\": {last_seen_seq}}}"
            ),
        }
    }

    /// Parses a frame payload.
    ///
    /// # Errors
    ///
    /// [`WireError::BadMessage`] on anything that is not a well-formed
    /// request.
    pub fn decode(payload: &str) -> Result<Request, WireError> {
        let op = field_str(payload, "op").ok_or_else(|| missing("op"))?;
        match op.as_str() {
            "submit" => Ok(Request::Submit {
                tenant: field_str(payload, "tenant").ok_or_else(|| missing("tenant"))?,
                spec: JobSpec::decode_fields(payload)?,
                // Absent on frames (and journal accept records) written
                // before idempotency keys existed; 0 means none.
                idem: field_u64(payload, "idem").unwrap_or(0),
            }),
            "status" => Ok(Request::Status {
                job: field_u64(payload, "job").ok_or_else(|| missing("job"))?,
            }),
            "stats" => Ok(Request::Stats),
            "drain" => Ok(Request::Drain),
            "ping" => Ok(Request::Ping {
                nonce: field_u64(payload, "nonce").ok_or_else(|| missing("nonce"))?,
            }),
            "cancel" => Ok(Request::Cancel {
                job: field_u64(payload, "job").ok_or_else(|| missing("job"))?,
            }),
            "resume_stream" => Ok(Request::ResumeStream {
                job: field_u64(payload, "job").ok_or_else(|| missing("job"))?,
                last_seen_seq: field_u64(payload, "last_seen_seq")
                    .ok_or_else(|| missing("last_seen_seq"))?,
            }),
            other => Err(WireError::BadMessage {
                detail: format!("unknown op \"{other}\""),
            }),
        }
    }
}

/// One streamed per-trial outcome.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TrialUpdate {
    /// The job the trial belongs to.
    pub job: u64,
    /// Per-job monotone sequence number (1-based) assigned by the server
    /// when the update is buffered. A resuming client hands its highest
    /// seen value back in [`Request::ResumeStream`]; updates at or below
    /// it are not replayed.
    pub seq: u64,
    /// The trial index within the job.
    pub index: u64,
    /// Outcome kind: `completed`, `failed`, `panicked`, `deadline`.
    pub outcome: String,
    /// The trial's value (0 for non-completions).
    pub value: u64,
    /// Whether the trial was resumed from a checkpoint rather than run
    /// by this server process.
    pub resumed: bool,
}

/// The final account of one finished job.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct JobReport {
    /// The job id.
    pub job: u64,
    /// Trials in the job.
    pub trials: u64,
    /// Trials that completed.
    pub completed: u64,
    /// Trials written off after exhausting every retry pass.
    pub quarantined: u64,
    /// Trials this process skipped because a checkpoint already had them.
    pub resumed_trials: u64,
    /// 1 for a job this server life ran (one campaign pass, retries
    /// included); 0 for a digest-only terminal, whose counts are
    /// unknown.
    pub passes: u64,
    /// FNV-1a-64 digest over the index-ordered outcome vector — the
    /// byte-identity witness for resume checks.
    pub digest: u64,
    /// The job's merged nv-obs metrics, rendered to JSON.
    pub metrics_json: String,
}

/// Server-wide counters, snapshotted by [`Request::Stats`].
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ServerStats {
    /// Jobs admitted in this life (journal-resumed ones count as
    /// `resumed` instead).
    pub submitted: u64,
    /// Jobs finished.
    pub completed: u64,
    /// Jobs refused at admission, any reason.
    pub rejected: u64,
    /// Jobs re-queued from the journal at startup.
    pub resumed: u64,
    /// Current queue depth.
    pub queue_depth: u64,
    /// Highest queue depth ever observed.
    pub peak_queue_depth: u64,
    /// The configured queue cap.
    pub queue_cap: u64,
    /// Whether the server is draining.
    pub draining: bool,
    /// Server lifecycle metrics, rendered to JSON.
    pub metrics_json: String,
}

/// A server response.
#[derive(Clone, PartialEq, Debug)]
pub enum Response {
    /// The job was admitted; updates will stream on this connection.
    Accepted {
        /// The assigned job id.
        job: u64,
        /// The server's boot epoch (count of journal boots). A resuming
        /// client that sees a different epoch knows the server restarted:
        /// sequence numbers restarted with it, so the client resets its
        /// cursor and deduplicates replays by trial index instead.
        epoch: u64,
    },
    /// The job was refused, with a typed reason.
    Rejected {
        /// Why.
        reason: RejectReason,
    },
    /// One per-trial outcome.
    Trial(TrialUpdate),
    /// The job finished; last message of a submit stream.
    Done(JobReport),
    /// Answer to [`Request::Status`].
    Status {
        /// The job id queried.
        job: u64,
        /// `queued`, `running`, `done` or `unknown`.
        state: String,
        /// The job digest (0 unless `done`).
        digest: u64,
    },
    /// Answer to [`Request::Stats`].
    Stats(ServerStats),
    /// Answer to [`Request::Drain`].
    Draining {
        /// Jobs still queued or running.
        pending: u64,
    },
    /// Answer to [`Request::Ping`].
    Pong {
        /// The nonce from the ping, echoed back.
        nonce: u64,
    },
    /// Answer to [`Request::Cancel`], and the terminal message of a
    /// stream whose job was cancelled.
    Cancelled {
        /// The job id.
        job: u64,
        /// Where the cancel landed: `queued` (dropped before running),
        /// `running` (flag raised, trial will observe it), `done` (too
        /// late, the job already finished) or `unknown`.
        state: String,
    },
    /// Answer to [`Request::ResumeStream`]: replayed updates follow.
    Resuming {
        /// The job id.
        job: u64,
        /// The server's boot epoch (see [`Response::Accepted`]).
        epoch: u64,
        /// Oldest sequence number still buffered (0 = nothing buffered
        /// yet). If the client's cursor is older than `oldest - 1`, some
        /// updates have aged out of the ring and the replay has a gap.
        oldest: u64,
    },
    /// The server rejected the *message* (protocol violation).
    Error {
        /// What went wrong.
        detail: String,
    },
}

impl Response {
    /// Renders the response as a frame payload.
    pub fn encode(&self) -> String {
        match self {
            Response::Accepted { job, epoch } => {
                format!("{{\"re\": \"accepted\", \"job\": {job}, \"epoch\": {epoch}}}")
            }
            Response::Rejected { reason } => {
                let (a, b) = match reason {
                    RejectReason::QueueFull { depth, cap } => (*depth, *cap),
                    RejectReason::TenantQuota { active, quota } => (*active, *quota),
                    RejectReason::Draining => (0, 0),
                };
                format!(
                    "{{\"re\": \"rejected\", \"reason\": \"{}\", \"observed\": {a}, \
                     \"limit\": {b}}}",
                    reason.tag()
                )
            }
            Response::Trial(u) => format!(
                "{{\"re\": \"trial\", \"job\": {}, \"seq\": {}, \"index\": {}, \
                 \"outcome\": \"{}\", \"value\": {}, \"resumed\": {}}}",
                u.job,
                u.seq,
                u.index,
                escape(&u.outcome),
                u.value,
                u.resumed
            ),
            Response::Done(r) => format!(
                "{{\"re\": \"done\", \"job\": {}, \"trials\": {}, \"completed\": {}, \
                 \"quarantined\": {}, \"resumed_trials\": {}, \"passes\": {}, \
                 \"digest\": {}, \"metrics\": \"{}\"}}",
                r.job,
                r.trials,
                r.completed,
                r.quarantined,
                r.resumed_trials,
                r.passes,
                r.digest,
                escape(&r.metrics_json)
            ),
            Response::Status { job, state, digest } => format!(
                "{{\"re\": \"status\", \"job\": {job}, \"state\": \"{}\", \"digest\": {digest}}}",
                escape(state)
            ),
            Response::Stats(s) => format!(
                "{{\"re\": \"stats\", \"submitted\": {}, \"completed\": {}, \"rejected\": {}, \
                 \"resumed\": {}, \"queue_depth\": {}, \"peak_queue_depth\": {}, \
                 \"queue_cap\": {}, \"draining\": {}, \"metrics\": \"{}\"}}",
                s.submitted,
                s.completed,
                s.rejected,
                s.resumed,
                s.queue_depth,
                s.peak_queue_depth,
                s.queue_cap,
                s.draining,
                escape(&s.metrics_json)
            ),
            Response::Draining { pending } => {
                format!("{{\"re\": \"draining\", \"pending\": {pending}}}")
            }
            Response::Pong { nonce } => {
                format!("{{\"re\": \"pong\", \"nonce\": {nonce}}}")
            }
            Response::Cancelled { job, state } => format!(
                "{{\"re\": \"cancelled\", \"job\": {job}, \"state\": \"{}\"}}",
                escape(state)
            ),
            Response::Resuming { job, epoch, oldest } => format!(
                "{{\"re\": \"resuming\", \"job\": {job}, \"epoch\": {epoch}, \
                 \"oldest\": {oldest}}}"
            ),
            Response::Error { detail } => {
                format!("{{\"re\": \"error\", \"detail\": \"{}\"}}", escape(detail))
            }
        }
    }

    /// Parses a frame payload.
    ///
    /// # Errors
    ///
    /// [`WireError::BadMessage`] on anything that is not a well-formed
    /// response.
    pub fn decode(payload: &str) -> Result<Response, WireError> {
        let re = field_str(payload, "re").ok_or_else(|| missing("re"))?;
        let job = || field_u64(payload, "job").ok_or_else(|| missing("job"));
        match re.as_str() {
            "accepted" => Ok(Response::Accepted {
                job: job()?,
                epoch: field_u64(payload, "epoch").ok_or_else(|| missing("epoch"))?,
            }),
            "rejected" => {
                let tag = field_str(payload, "reason").ok_or_else(|| missing("reason"))?;
                let a = field_u64(payload, "observed").ok_or_else(|| missing("observed"))?;
                let b = field_u64(payload, "limit").ok_or_else(|| missing("limit"))?;
                let reason = match tag.as_str() {
                    "queue_full" => RejectReason::QueueFull { depth: a, cap: b },
                    "tenant_quota" => RejectReason::TenantQuota {
                        active: a,
                        quota: b,
                    },
                    "draining" => RejectReason::Draining,
                    other => {
                        return Err(WireError::BadMessage {
                            detail: format!("unknown reject reason \"{other}\""),
                        })
                    }
                };
                Ok(Response::Rejected { reason })
            }
            "trial" => Ok(Response::Trial(TrialUpdate {
                job: job()?,
                seq: field_u64(payload, "seq").ok_or_else(|| missing("seq"))?,
                index: field_u64(payload, "index").ok_or_else(|| missing("index"))?,
                outcome: field_str(payload, "outcome").ok_or_else(|| missing("outcome"))?,
                value: field_u64(payload, "value").ok_or_else(|| missing("value"))?,
                resumed: field_bool(payload, "resumed").ok_or_else(|| missing("resumed"))?,
            })),
            "done" => Ok(Response::Done(JobReport {
                job: job()?,
                trials: field_u64(payload, "trials").ok_or_else(|| missing("trials"))?,
                completed: field_u64(payload, "completed").ok_or_else(|| missing("completed"))?,
                quarantined: field_u64(payload, "quarantined")
                    .ok_or_else(|| missing("quarantined"))?,
                resumed_trials: field_u64(payload, "resumed_trials")
                    .ok_or_else(|| missing("resumed_trials"))?,
                passes: field_u64(payload, "passes").ok_or_else(|| missing("passes"))?,
                digest: field_u64(payload, "digest").ok_or_else(|| missing("digest"))?,
                metrics_json: field_str(payload, "metrics").ok_or_else(|| missing("metrics"))?,
            })),
            "status" => Ok(Response::Status {
                job: job()?,
                state: field_str(payload, "state").ok_or_else(|| missing("state"))?,
                digest: field_u64(payload, "digest").ok_or_else(|| missing("digest"))?,
            }),
            "stats" => Ok(Response::Stats(ServerStats {
                submitted: field_u64(payload, "submitted").ok_or_else(|| missing("submitted"))?,
                completed: field_u64(payload, "completed").ok_or_else(|| missing("completed"))?,
                rejected: field_u64(payload, "rejected").ok_or_else(|| missing("rejected"))?,
                resumed: field_u64(payload, "resumed").ok_or_else(|| missing("resumed"))?,
                queue_depth: field_u64(payload, "queue_depth")
                    .ok_or_else(|| missing("queue_depth"))?,
                peak_queue_depth: field_u64(payload, "peak_queue_depth")
                    .ok_or_else(|| missing("peak_queue_depth"))?,
                queue_cap: field_u64(payload, "queue_cap").ok_or_else(|| missing("queue_cap"))?,
                draining: field_bool(payload, "draining").ok_or_else(|| missing("draining"))?,
                metrics_json: field_str(payload, "metrics").ok_or_else(|| missing("metrics"))?,
            })),
            "draining" => Ok(Response::Draining {
                pending: field_u64(payload, "pending").ok_or_else(|| missing("pending"))?,
            }),
            "pong" => Ok(Response::Pong {
                nonce: field_u64(payload, "nonce").ok_or_else(|| missing("nonce"))?,
            }),
            "cancelled" => Ok(Response::Cancelled {
                job: job()?,
                state: field_str(payload, "state").ok_or_else(|| missing("state"))?,
            }),
            "resuming" => Ok(Response::Resuming {
                job: job()?,
                epoch: field_u64(payload, "epoch").ok_or_else(|| missing("epoch"))?,
                oldest: field_u64(payload, "oldest").ok_or_else(|| missing("oldest"))?,
            }),
            "error" => Ok(Response::Error {
                detail: field_str(payload, "detail").ok_or_else(|| missing("detail"))?,
            }),
            other => Err(WireError::BadMessage {
                detail: format!("unknown response \"{other}\""),
            }),
        }
    }
}

impl JobSpec {
    /// Renders the spec as the flat fields of a submit/journal body (no
    /// surrounding braces, so callers can prepend their own fields).
    pub fn encode_fields(&self) -> String {
        format!(
            "\"kind\": \"{}\", \"trials\": {}, \"seed\": {}, \"threads\": {}, \
             \"deadline_steps\": {}, \"retry_budget\": {}, \"flake_ppm\": {}",
            self.kind.tag(),
            self.trials,
            self.master_seed,
            self.threads,
            self.deadline_steps,
            self.retry_budget,
            self.flake_ppm
        )
    }

    /// Parses the flat fields written by [`JobSpec::encode_fields`].
    ///
    /// # Errors
    ///
    /// [`WireError::BadMessage`] on a missing or ill-typed field, an
    /// unknown kind, or a trial count, thread count or flake rate out of
    /// range ([`MAX_TRIALS`], [`MAX_THREADS`], at most one million ppm).
    pub fn decode_fields(body: &str) -> Result<JobSpec, WireError> {
        let kind = match field_str(body, "kind")
            .ok_or_else(|| missing("kind"))?
            .as_str()
        {
            "nv_core" => JobKind::NvCore,
            "nv_s" => JobKind::NvS,
            other => {
                return Err(WireError::BadMessage {
                    detail: format!("unknown job kind \"{other}\""),
                })
            }
        };
        Ok(JobSpec {
            kind,
            trials: field_in(body, "trials", 1..=MAX_TRIALS)? as usize,
            master_seed: field_u64(body, "seed").ok_or_else(|| missing("seed"))?,
            threads: field_in(body, "threads", 0..=MAX_THREADS)? as usize,
            deadline_steps: field_u64(body, "deadline_steps")
                .ok_or_else(|| missing("deadline_steps"))?,
            retry_budget: field_u64(body, "retry_budget").ok_or_else(|| missing("retry_budget"))?
                as usize,
            flake_ppm: field_in(body, "flake_ppm", 0..=1_000_000)? as u32,
        })
    }
}

/// Most trials one job may ask for (ten times the largest job any caller
/// builds): a job allocates per-trial state before it runs, and a restart
/// replays its journaled spec.
pub const MAX_TRIALS: u64 = 1_000_000;

/// Most campaign worker threads (OS threads) one job may ask for.
pub const MAX_THREADS: u64 = 64;

/// Reads a number field that must lie in `range`.
fn field_in(body: &str, key: &str, range: RangeInclusive<u64>) -> Result<u64, WireError> {
    let value = field_u64(body, key).ok_or_else(|| missing(key))?;
    range
        .contains(&value)
        .then_some(value)
        .ok_or_else(|| WireError::BadMessage {
            detail: format!("field \"{key}\" is {value}, outside {range:?}"),
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> JobSpec {
        JobSpec {
            kind: JobKind::NvCore,
            trials: 4,
            master_seed: 0xbeef,
            threads: 2,
            deadline_steps: 20_000,
            retry_budget: 3,
            flake_ppm: 250_000,
        }
    }

    #[test]
    fn requests_roundtrip() {
        for req in [
            Request::Submit {
                tenant: "acme \"quoted\", \"trials\": 9".to_string(),
                spec: spec(),
                idem: 0x1de4,
            },
            Request::Status { job: 7 },
            Request::Stats,
            Request::Drain,
            Request::Ping { nonce: 0xabcd },
            Request::Cancel { job: 11 },
            Request::ResumeStream {
                job: 11,
                last_seen_seq: 37,
            },
        ] {
            assert_eq!(Request::decode(&req.encode()).unwrap(), req);
        }
    }

    #[test]
    fn hostile_tenant_name_cannot_inject_fields() {
        // The tenant string carries what looks like a trials field; the
        // escaped quotes must keep it inert.
        let req = Request::Submit {
            tenant: "evil\", \"trials\": 1".to_string(),
            spec: spec(),
            idem: 0,
        };
        let decoded = Request::decode(&req.encode()).unwrap();
        let Request::Submit {
            tenant, spec: s, ..
        } = decoded
        else {
            panic!("submit expected");
        };
        assert_eq!(tenant, "evil\", \"trials\": 1");
        assert_eq!(s.trials, 4);
    }

    #[test]
    fn responses_roundtrip() {
        for resp in [
            Response::Accepted { job: 3, epoch: 2 },
            Response::Rejected {
                reason: RejectReason::QueueFull { depth: 8, cap: 8 },
            },
            Response::Rejected {
                reason: RejectReason::TenantQuota {
                    active: 2,
                    quota: 2,
                },
            },
            Response::Rejected {
                reason: RejectReason::Draining,
            },
            Response::Trial(TrialUpdate {
                job: 3,
                seq: 9,
                index: 1,
                outcome: "completed".to_string(),
                value: 42,
                resumed: true,
            }),
            Response::Done(JobReport {
                job: 3,
                trials: 4,
                completed: 4,
                quarantined: 0,
                resumed_trials: 2,
                passes: 1,
                digest: 0xdead_beef,
                metrics_json: "{\"trials\": 4}".to_string(),
            }),
            Response::Status {
                job: 9,
                state: "done".to_string(),
                digest: 12,
            },
            Response::Stats(ServerStats {
                submitted: 10,
                completed: 8,
                rejected: 1,
                resumed: 1,
                queue_depth: 1,
                peak_queue_depth: 4,
                queue_cap: 8,
                draining: false,
                metrics_json: "{}".to_string(),
            }),
            Response::Draining { pending: 2 },
            Response::Pong { nonce: 0x9e110 },
            Response::Cancelled {
                job: 6,
                state: "running".to_string(),
            },
            Response::Resuming {
                job: 6,
                epoch: 1,
                oldest: 4,
            },
            Response::Error {
                detail: "bad frame".to_string(),
            },
        ] {
            assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        }
    }

    #[test]
    fn submit_without_idem_decodes_with_key_zero() {
        // Journal accept records written before idempotency keys existed
        // have no "idem" field; they must keep replaying.
        let legacy = format!(
            "{{\"op\": \"submit\", \"tenant\": \"t\", {}}}",
            spec().encode_fields()
        );
        let Request::Submit { idem, .. } = Request::decode(&legacy).unwrap() else {
            panic!("submit expected");
        };
        assert_eq!(idem, 0);
    }

    #[test]
    fn malformed_messages_are_typed_errors() {
        for bad in [
            "",
            "{}",
            "{\"op\": \"warp\"}",
            "{\"op\": \"submit\"}",
            "{\"op\": \"submit\", \"tenant\": \"t\", \"kind\": \"nv_core\", \"trials\": 0, \
             \"seed\": 1, \"threads\": 1, \"deadline_steps\": 0, \"retry_budget\": 0, \
             \"flake_ppm\": 0}",
            "{\"re\": \"nothing\"}",
            "{\"op\": \"ping\"}",
            "{\"op\": \"cancel\"}",
            "{\"op\": \"resume_stream\", \"job\": 1}",
            "{\"re\": \"pong\"}",
            "{\"re\": \"cancelled\", \"job\": 1}",
            "{\"re\": \"resuming\", \"job\": 1, \"epoch\": 0}",
        ] {
            let req = Request::decode(bad);
            let resp = Response::decode(bad);
            assert!(
                matches!(req, Err(WireError::BadMessage { .. }))
                    && matches!(resp, Err(WireError::BadMessage { .. })),
                "{bad:?} must decode to BadMessage, got {req:?} / {resp:?}"
            );
        }
    }

    #[test]
    fn out_of_range_job_specs_are_rejected() {
        // Decoding only: none of these specs is ever run.
        let decode = |edit: fn(&mut JobSpec)| {
            let mut spec = spec();
            edit(&mut spec);
            JobSpec::decode_fields(&spec.encode_fields()).map(|_| ())
        };
        for ok in [
            (|s: &mut JobSpec| s.trials = 100_000) as fn(&mut JobSpec),
            |s| s.trials = MAX_TRIALS as usize,
            |s| s.threads = 0,
            |s| s.threads = MAX_THREADS as usize,
            |s| s.flake_ppm = 1_000_000,
        ] {
            assert_eq!(decode(ok), Ok(()));
        }
        for bad in [
            (|s: &mut JobSpec| s.trials = 0) as fn(&mut JobSpec),
            |s| s.trials = MAX_TRIALS as usize + 1,
            |s| s.trials = 1_000_000_000_000,
            |s| s.threads = MAX_THREADS as usize + 1,
            |s| s.threads = 100_000,
            |s| s.flake_ppm = 1_000_001,
        ] {
            assert!(matches!(decode(bad), Err(WireError::BadMessage { .. })));
        }
        // A rate past u32 must be refused, not wrapped into range.
        let wrapping = spec()
            .encode_fields()
            .replace("\"flake_ppm\": 250000", "\"flake_ppm\": 4294967396");
        assert!(matches!(
            JobSpec::decode_fields(&wrapping),
            Err(WireError::BadMessage { .. })
        ));
    }
}
