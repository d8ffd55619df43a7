//! The server's crash journal: every admitted job is durable before the
//! client hears "accepted".
//!
//! A record schema on the workspace's one crash-tolerant log,
//! [`FramedLog`] (the campaign checkpoint's line format and torn-tail
//! policy):
//!
//! * `accept` — job id, tenant, full [`JobSpec`] and the client's
//!   idempotency key, written at admission *before* the `Accepted`
//!   response leaves the server;
//! * `done` — job id and outcome digest, written when the job's report
//!   is final;
//! * `cancel` — job id, written when a wire-level cancellation lands, so
//!   a cancelled job is never resurrected by a replay;
//! * `boot` — written once per server start. The count of boot records
//!   is the server's *epoch*: a client resuming a stream compares epochs
//!   to learn that sequence numbers restarted.
//!
//! A restarted server replays the journal: `accept` without `done` or
//! `cancel` is an in-flight job to re-queue (its per-job checkpoint
//! carries whatever trials already completed); `done` records serve
//! status queries for jobs that finished in a previous life, and the
//! idempotency keys of accept records are re-indexed so duplicate
//! submissions stay duplicates across restarts. A record is durable only
//! with its newline: a torn tail — the crash landed mid-append, or before
//! the final `\n` — is dropped, counted in a [`ResumeReport`] and
//! physically truncated by [`FramedLog::open`].

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use nightvision::checkpoint::{FramedLog, ResumeReport};
use nv_obs::export::{escape, field_str, field_u64};

use crate::job::JobSpec;

/// One in-flight job recovered from the journal.
#[derive(Clone, PartialEq, Debug)]
pub struct PendingJob {
    /// The job id assigned at admission.
    pub job: u64,
    /// The submitting tenant.
    pub tenant: String,
    /// The job spec.
    pub spec: JobSpec,
    /// The client's idempotency key (0 = none).
    pub idem: u64,
}

/// What replaying the journal recovered.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct JournalState {
    /// Jobs accepted but not finished, in admission order.
    pub pending: Vec<PendingJob>,
    /// Digests of jobs that finished in previous lives, by job id.
    pub done: BTreeMap<u64, u64>,
    /// The next job id a fresh admission should use.
    pub next_job: u64,
    /// Jobs cancelled in any life (and therefore never re-queued).
    pub cancelled: BTreeSet<u64>,
    /// Idempotency index recovered from accept records: `(tenant, key)`
    /// to job id, for non-zero keys only.
    pub idem: BTreeMap<(String, u64), u64>,
    /// Boot records replayed — the epoch of the life that wrote the last
    /// one. The opening server appends its own boot record *after*
    /// replay, so its epoch is `boots + 1`.
    pub boots: u64,
    /// Torn/corrupt trailing records dropped (and truncated) at replay.
    pub report: ResumeReport,
}

/// The append half of the journal.
#[derive(Debug)]
pub struct JobJournal {
    log: FramedLog,
}

impl JobJournal {
    /// Opens (creating if absent) the journal at `path`, replaying what
    /// is already there.
    ///
    /// # Errors
    ///
    /// I/O failure opening or reading the file. Malformed *content* is
    /// never an error: replay stops at the first bad line, reports it in
    /// [`JournalState`], and truncates it away.
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<(JobJournal, JournalState)> {
        let mut state = JournalState {
            next_job: 1,
            ..JournalState::default()
        };
        let mut accepted: BTreeMap<u64, PendingJob> = BTreeMap::new();
        let (log, report) = FramedLog::open(path, |body| {
            let Some(entry) = body.and_then(parse_record) else {
                return Ok::<_, std::io::Error>(false);
            };
            match entry {
                Record::Accept(pending) => {
                    state.next_job = state.next_job.max(pending.job + 1);
                    if pending.idem != 0 {
                        state
                            .idem
                            .insert((pending.tenant.clone(), pending.idem), pending.job);
                    }
                    accepted.insert(pending.job, pending);
                }
                Record::Done { job, digest } => {
                    state.next_job = state.next_job.max(job + 1);
                    accepted.remove(&job);
                    state.cancelled.remove(&job);
                    state.done.insert(job, digest);
                }
                Record::Cancel { job } => {
                    state.next_job = state.next_job.max(job + 1);
                    // A cancel after done is a no-op (the cancel lost the
                    // race); otherwise the job must not be re-queued.
                    if !state.done.contains_key(&job) {
                        accepted.remove(&job);
                        state.cancelled.insert(job);
                    }
                }
                Record::Boot => {
                    state.boots += 1;
                }
            }
            Ok(true)
        })?;
        state.report = report;
        state.pending = accepted.into_values().collect();
        Ok((JobJournal { log }, state))
    }

    /// The journal's file path.
    pub fn path(&self) -> &Path {
        self.log.path()
    }

    /// Records an admission. Flushed before returning, so a job the
    /// client saw accepted is a job a restart will resume.
    ///
    /// # Errors
    ///
    /// I/O failure; the caller must fail the admission, not ignore it.
    pub fn record_accept(
        &self,
        job: u64,
        tenant: &str,
        spec: &JobSpec,
        idem: u64,
    ) -> std::io::Result<()> {
        let body = format!(
            "{{\"rec\": \"accept\", \"job\": {job}, \"tenant\": \"{}\", \"idem\": {idem}, {}}}",
            escape(tenant),
            spec.encode_fields()
        );
        self.log.append(&body)
    }

    /// Records a completion with its identity digest.
    ///
    /// # Errors
    ///
    /// I/O failure.
    pub fn record_done(&self, job: u64, digest: u64) -> std::io::Result<()> {
        self.log.append(&format!(
            "{{\"rec\": \"done\", \"job\": {job}, \"digest\": {digest}}}"
        ))
    }

    /// Records a wire-level cancellation, so a replay never resurrects
    /// the job.
    ///
    /// # Errors
    ///
    /// I/O failure.
    pub fn record_cancel(&self, job: u64) -> std::io::Result<()> {
        self.log
            .append(&format!("{{\"rec\": \"cancel\", \"job\": {job}}}"))
    }

    /// Records a server start. Called once by the server *after* replay —
    /// never implicitly by [`JobJournal::open`], so read-only replays (and
    /// torn-tail repairs) leave the file byte-identical.
    ///
    /// # Errors
    ///
    /// I/O failure.
    pub fn record_boot(&self) -> std::io::Result<()> {
        self.log.append("{\"rec\": \"boot\"}")
    }
}

enum Record {
    Accept(PendingJob),
    Done { job: u64, digest: u64 },
    Cancel { job: u64 },
    Boot,
}

fn parse_record(body: &str) -> Option<Record> {
    match field_str(body, "rec")?.as_str() {
        "accept" => Some(Record::Accept(PendingJob {
            job: field_u64(body, "job")?,
            tenant: field_str(body, "tenant")?,
            spec: JobSpec::decode_fields(body).ok()?,
            // Absent on records written before idempotency keys existed.
            idem: field_u64(body, "idem").unwrap_or(0),
        })),
        "done" => Some(Record::Done {
            job: field_u64(body, "job")?,
            digest: field_u64(body, "digest")?,
        }),
        "cancel" => Some(Record::Cancel {
            job: field_u64(body, "job")?,
        }),
        "boot" => Some(Record::Boot),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use std::fs::OpenOptions;
    use std::path::PathBuf;

    use super::*;
    use crate::job::JobKind;

    fn scratch(name: &str) -> PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!("nv_serve_journal_{name}_{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    fn spec(seed: u64) -> JobSpec {
        JobSpec {
            kind: JobKind::NvCore,
            trials: 3,
            master_seed: seed,
            threads: 1,
            deadline_steps: 0,
            retry_budget: 1,
            flake_ppm: 0,
        }
    }

    #[test]
    fn replay_recovers_pending_jobs_and_next_id() {
        let path = scratch("replay");
        {
            let (journal, state) = JobJournal::open(&path).unwrap();
            assert_eq!(
                state,
                JournalState {
                    next_job: 1,
                    ..JournalState::default()
                }
            );
            journal.record_accept(1, "acme", &spec(1), 0).unwrap();
            journal.record_accept(2, "acme", &spec(2), 0).unwrap();
            journal.record_accept(3, "globex", &spec(3), 0).unwrap();
            journal.record_done(2, 0xd16e57).unwrap();
        }
        let (_journal, state) = JobJournal::open(&path).unwrap();
        assert_eq!(state.next_job, 4);
        assert_eq!(state.done.get(&2), Some(&0xd16e57));
        let pending: Vec<u64> = state.pending.iter().map(|p| p.job).collect();
        assert_eq!(pending, vec![1, 3], "done jobs must not be re-queued");
        assert_eq!(state.pending[0].tenant, "acme");
        assert_eq!(state.pending[1].spec, spec(3));
        assert_eq!(state.report.dropped_records, 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn cancel_records_keep_jobs_out_of_pending() {
        let path = scratch("cancel");
        {
            let (journal, _) = JobJournal::open(&path).unwrap();
            journal.record_accept(1, "acme", &spec(1), 0).unwrap();
            journal.record_accept(2, "acme", &spec(2), 0).unwrap();
            journal.record_cancel(1).unwrap();
            // Cancel that lost the race to done: done must win.
            journal.record_accept(3, "acme", &spec(3), 0).unwrap();
            journal.record_done(3, 77).unwrap();
            journal.record_cancel(3).unwrap();
        }
        let (_journal, state) = JobJournal::open(&path).unwrap();
        let pending: Vec<u64> = state.pending.iter().map(|p| p.job).collect();
        assert_eq!(pending, vec![2], "cancelled jobs must not resurrect");
        assert!(state.cancelled.contains(&1));
        assert!(
            !state.cancelled.contains(&3),
            "a done job is done, not cancelled"
        );
        assert_eq!(state.done.get(&3), Some(&77));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn boot_records_count_epochs_and_idem_keys_reindex() {
        let path = scratch("boot");
        {
            let (journal, state) = JobJournal::open(&path).unwrap();
            assert_eq!(state.boots, 0);
            journal.record_boot().unwrap();
            journal.record_accept(1, "acme", &spec(1), 0xaaaa).unwrap();
            journal
                .record_accept(2, "globex", &spec(2), 0xaaaa)
                .unwrap();
            journal.record_accept(3, "acme", &spec(3), 0).unwrap();
        }
        {
            let (journal, state) = JobJournal::open(&path).unwrap();
            assert_eq!(state.boots, 1);
            journal.record_boot().unwrap();
        }
        let (_journal, state) = JobJournal::open(&path).unwrap();
        assert_eq!(state.boots, 2);
        // Same key under different tenants indexes two distinct jobs;
        // key 0 is never indexed.
        assert_eq!(state.idem.get(&("acme".to_string(), 0xaaaa)), Some(&1));
        assert_eq!(state.idem.get(&("globex".to_string(), 0xaaaa)), Some(&2));
        assert_eq!(state.idem.len(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_dropped_counted_and_truncated() {
        let path = scratch("torn");
        {
            let (journal, _) = JobJournal::open(&path).unwrap();
            journal.record_accept(1, "acme", &spec(1), 0).unwrap();
        }
        let intact_len = std::fs::metadata(&path).unwrap().len();
        {
            use std::io::Write;
            let mut file = OpenOptions::new().append(true).open(&path).unwrap();
            file.write_all(b"{\"len\": 40, \"crc\": 1, \"body\"")
                .unwrap();
        }
        let (journal, state) = JobJournal::open(&path).unwrap();
        assert_eq!(state.pending.len(), 1);
        assert_eq!(state.report.dropped_records, 1);
        assert!(state.report.dropped_bytes > 0);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), intact_len);
        // Post-repair appends survive the next replay.
        journal.record_done(1, 9).unwrap();
        drop(journal);
        let (_journal, state) = JobJournal::open(&path).unwrap();
        assert!(state.pending.is_empty());
        assert_eq!(state.done.get(&1), Some(&9));
        assert_eq!(state.report.dropped_records, 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_record_missing_only_its_newline_is_torn() {
        let path = scratch("newline");
        {
            let (journal, _) = JobJournal::open(&path).unwrap();
            journal.record_accept(1, "acme", &spec(1), 0).unwrap();
            journal.record_accept(2, "acme", &spec(2), 0).unwrap();
        }
        // A crash between the record's last body byte and its newline:
        // the frame still checks, but the record was never durable.
        let mut bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes.pop(), Some(b'\n'));
        std::fs::write(&path, &bytes).unwrap();
        let (journal, state) = JobJournal::open(&path).unwrap();
        let pending: Vec<u64> = state.pending.iter().map(|p| p.job).collect();
        assert_eq!(pending, vec![1]);
        assert_eq!(state.report.dropped_records, 1);
        journal.record_done(1, 9).unwrap();
        journal.record_accept(3, "acme", &spec(3), 0).unwrap();
        drop(journal);
        // Appends after the repair were not glued onto the torn record.
        let (_journal, state) = JobJournal::open(&path).unwrap();
        assert_eq!(state.report, ResumeReport::default());
        assert_eq!(state.done.get(&1), Some(&9));
        let pending: Vec<u64> = state.pending.iter().map(|p| p.job).collect();
        assert_eq!(pending, vec![3]);
        assert_eq!(state.next_job, 4, "job ids must never be reissued");
        let _ = std::fs::remove_file(&path);
    }
}
