//! The server's crash journal: every admitted job is durable before the
//! client hears "accepted".
//!
//! A record schema on the workspace's one crash-tolerant log,
//! [`FramedLog`] (the campaign checkpoint's line format and torn-tail
//! policy), with four kinds of record: `accept` (job id, tenant, full
//! [`JobSpec`] and idempotency key, flushed before `Accepted` leaves the
//! server), `done` (job id and outcome digest), `cancel` (job id, so a
//! replay never resurrects the job) and `boot` (one per server start:
//! their count is the epoch).
//!
//! Replay folds every record through the job table's own transitions,
//! the ones the live server uses, so a restarted server knows exactly
//! what the killed one had made durable (DESIGN.md §11 tabulates them).
//! A record is durable only with its newline: a torn tail — the crash
//! landed mid-append, or before the final `\n` — is dropped, counted in
//! a [`ResumeReport`] and physically truncated by [`FramedLog::open`].

use std::path::Path;

use nightvision::checkpoint::{FramedLog, ResumeReport};
use nv_obs::export::{escape, field_str, field_u64};

use crate::job::JobSpec;
use crate::table::JobTable;

/// What replaying the journal recovered.
pub struct Replay {
    /// The job table every record was folded into.
    pub(crate) table: JobTable,
    /// Boot records replayed: the epoch of the life that wrote the last
    /// one. The opening server's own boot record makes it `boots + 1`.
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
    /// [`Replay::report`], and truncates it away.
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<(JobJournal, Replay)> {
        let mut table = JobTable::default();
        let mut boots = 0;
        let (log, report) = FramedLog::open(path, |body| {
            let Some(record) = body.and_then(Record::parse) else {
                return Ok::<_, std::io::Error>(false);
            };
            boots += u64::from(record == Record::Boot);
            table.apply(record);
            Ok(true)
        })?;
        Ok((
            JobJournal { log },
            Replay {
                table,
                boots,
                report,
            },
        ))
    }

    /// Appends one record, flushed before returning.
    pub(crate) fn append(&self, record: &Record) -> std::io::Result<()> {
        self.log.append(&record.encode())
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
        let tenant = tenant.to_string();
        let spec = *spec;
        self.append(&Record::Accept {
            job,
            tenant,
            spec,
            idem,
        })
    }

    /// Records a completion with its identity digest.
    ///
    /// # Errors
    ///
    /// I/O failure.
    pub fn record_done(&self, job: u64, digest: u64) -> std::io::Result<()> {
        self.append(&Record::Done { job, digest })
    }
}

/// One journal record.
#[derive(Clone, PartialEq, Debug)]
pub(crate) enum Record {
    /// An admission, written before the client hears `accepted`.
    Accept {
        job: u64,
        tenant: String,
        spec: JobSpec,
        /// The client's idempotency key (0 = none).
        idem: u64,
    },
    /// A completion with its outcome digest.
    Done { job: u64, digest: u64 },
    /// A wire-level cancellation.
    Cancel { job: u64 },
    /// A server start, appended after replay, never by [`JobJournal::open`]
    /// itself, so read-only replays leave the file byte-identical.
    Boot,
}

impl Record {
    fn encode(&self) -> String {
        match self {
            Record::Accept {
                job,
                tenant,
                spec,
                idem,
            } => format!(
                "{{\"rec\": \"accept\", \"job\": {job}, \"tenant\": \"{}\", \"idem\": {idem}, {}}}",
                escape(tenant),
                spec.encode_fields()
            ),
            Record::Done { job, digest } => {
                format!("{{\"rec\": \"done\", \"job\": {job}, \"digest\": {digest}}}")
            }
            Record::Cancel { job } => format!("{{\"rec\": \"cancel\", \"job\": {job}}}"),
            Record::Boot => "{\"rec\": \"boot\"}".to_string(),
        }
    }

    pub(crate) fn parse(body: &str) -> Option<Record> {
        let job = || field_u64(body, "job");
        match field_str(body, "rec")?.as_str() {
            "accept" => Some(Record::Accept {
                job: job()?,
                tenant: field_str(body, "tenant")?,
                spec: JobSpec::decode_fields(body).ok()?,
                // Absent on records written before idempotency keys existed.
                idem: field_u64(body, "idem").unwrap_or(0),
            }),
            "done" => Some(Record::Done {
                job: job()?,
                digest: field_u64(body, "digest")?,
            }),
            "cancel" => Some(Record::Cancel { job: job()? }),
            "boot" => Some(Record::Boot),
            _ => None,
        }
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
            let (journal, replay) = JobJournal::open(&path).unwrap();
            assert_eq!(replay.table.snapshot(), JobTable::default().snapshot());
            assert_eq!((replay.boots, replay.report), (0, ResumeReport::default()));
            journal.record_accept(1, "acme", &spec(1), 0).unwrap();
            journal.record_accept(2, "acme", &spec(2), 0).unwrap();
            journal.record_accept(3, "globex", &spec(3), 0).unwrap();
            journal.record_done(2, 0xd16e57).unwrap();
        }
        let (_journal, replay) = JobJournal::open(&path).unwrap();
        let state = replay.table.snapshot();
        assert_eq!(state.next_job, 4);
        assert_eq!(state.done(2), Some(0xd16e57));
        assert_eq!(
            state.pending(),
            vec![1, 3],
            "done jobs must not be re-queued"
        );
        assert_eq!(state.queue[0].1, "acme");
        assert_eq!(state.queue[1].2, spec(3));
        assert_eq!(replay.report.dropped_records, 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn cancel_records_keep_jobs_out_of_pending() {
        let path = scratch("cancel");
        {
            let (journal, _) = JobJournal::open(&path).unwrap();
            journal.record_accept(1, "acme", &spec(1), 0).unwrap();
            journal.record_accept(2, "acme", &spec(2), 0).unwrap();
            journal.append(&Record::Cancel { job: 1 }).unwrap();
            // Cancel that lost the race to done: done must win.
            journal.record_accept(3, "acme", &spec(3), 0).unwrap();
            journal.record_done(3, 77).unwrap();
            journal.append(&Record::Cancel { job: 3 }).unwrap();
        }
        let (_journal, replay) = JobJournal::open(&path).unwrap();
        let state = replay.table.snapshot();
        assert_eq!(
            state.pending(),
            vec![2],
            "cancelled jobs must not resurrect"
        );
        assert!(state.cancelled(1));
        assert!(!state.cancelled(3), "a done job is done, not cancelled");
        assert_eq!(state.done(3), Some(77));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn boot_records_count_epochs_and_idem_keys_reindex() {
        let path = scratch("boot");
        {
            let (journal, replay) = JobJournal::open(&path).unwrap();
            assert_eq!(replay.boots, 0);
            journal.append(&Record::Boot).unwrap();
            journal.record_accept(1, "acme", &spec(1), 0xaaaa).unwrap();
            journal
                .record_accept(2, "globex", &spec(2), 0xaaaa)
                .unwrap();
            journal.record_accept(3, "acme", &spec(3), 0).unwrap();
        }
        {
            let (journal, replay) = JobJournal::open(&path).unwrap();
            assert_eq!(replay.boots, 1);
            journal.append(&Record::Boot).unwrap();
        }
        let (_journal, replay) = JobJournal::open(&path).unwrap();
        assert_eq!(replay.boots, 2);
        let state = replay.table.snapshot();
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
        let (journal, replay) = JobJournal::open(&path).unwrap();
        assert_eq!(replay.table.snapshot().pending().len(), 1);
        assert_eq!(replay.report.dropped_records, 1);
        assert!(replay.report.dropped_bytes > 0);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), intact_len);
        // Post-repair appends survive the next replay.
        journal.record_done(1, 9).unwrap();
        drop(journal);
        let (_journal, replay) = JobJournal::open(&path).unwrap();
        let state = replay.table.snapshot();
        assert!(state.pending().is_empty());
        assert_eq!(state.done(1), Some(9));
        assert_eq!(replay.report.dropped_records, 0);
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
        let (journal, replay) = JobJournal::open(&path).unwrap();
        assert_eq!(replay.table.snapshot().pending(), vec![1]);
        assert_eq!(replay.report.dropped_records, 1);
        journal.record_done(1, 9).unwrap();
        journal.record_accept(3, "acme", &spec(3), 0).unwrap();
        drop(journal);
        // Appends after the repair were not glued onto the torn record.
        let (_journal, replay) = JobJournal::open(&path).unwrap();
        assert_eq!(replay.report, ResumeReport::default());
        let state = replay.table.snapshot();
        assert_eq!(state.done(1), Some(9));
        assert_eq!(state.pending(), vec![3]);
        assert_eq!(state.next_job, 4, "job ids must never be reissued");
        let _ = std::fs::remove_file(&path);
    }
}
