//! Zero-dependency campaign checkpointing on one crash-tolerant log.
//!
//! [`FramedLog`] owns the line format and the torn-tail policy; the
//! [`CampaignCheckpoint`] here and the `nv-serve` job journal are record
//! schemas on top of it.
//!
//! * **Framing** — every line is `{"len": N, "crc": C, "body": {...}}\n`
//!   where `N` is the body's byte length and `C` its FNV-1a 64 checksum.
//!   A record is durable only with its newline: a line whose frame check
//!   fails, or a final line that never got its `\n`, is torn. The first
//!   torn line and every line after it are dropped (an append-only log
//!   has nothing trustworthy past its first tear) and physically
//!   truncated, so the next append lands on an intact log. The damage is
//!   surfaced as a typed [`ResumeReport`] (and, on observed resume paths,
//!   as an `nv_obs::ObsEvent::CheckpointTorn` metric) — never as an
//!   stderr warning a daemonized server would lose.
//! * **Keying** — a [`CampaignCheckpoint`]'s first line is a header
//!   carrying the campaign's master seed, trial count and a
//!   caller-supplied config fingerprint ([`CheckpointKey`]). Opening a
//!   checkpoint under a different key is a typed error that leaves the
//!   file untouched, so results from one experiment can never silently
//!   leak into another.
//! * **Payloads** — a checkpoint records completed trials' results as
//!   caller-encoded strings (escaped into JSON), so an interrupted
//!   campaign resumes without redoing them ([`Campaign::resume`]); a
//!   trial whose payload fails to decode is simply re-run.
//!
//! Everything is hand-rolled `std`: no serde, no external crates, per the
//! workspace's offline-build constraint.
//!
//! [`Campaign::resume`]: crate::campaign::Campaign::resume

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use nv_obs::export::{escape, field_str, field_u64};

/// Format magic carried in every checkpoint header.
pub const CHECKPOINT_MAGIC: &str = "nv-campaign-checkpoint-v1";

/// FNV-1a 64-bit hash — the checkpoint's frame checksum and the
/// recommended way to fingerprint a config description string.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// What [`FramedLog::open`] had to drop to recover a usable record set:
/// the torn/corrupt trailing records of a crashed append, if any.
/// Returned typed (instead of warned on stderr) so a long-running server
/// can surface it in metrics.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ResumeReport {
    /// Trailing records dropped as torn or corrupt.
    pub dropped_records: usize,
    /// Bytes those dropped records spanned (newlines included).
    pub dropped_bytes: u64,
}

impl ResumeReport {
    /// Whether the file tail was damaged at all.
    pub fn is_torn(&self) -> bool {
        self.dropped_records > 0
    }
}

/// Identity of the campaign a checkpoint belongs to. Two campaigns with
/// the same key produce interchangeable checkpoints; any difference makes
/// [`CampaignCheckpoint::open`] refuse the file.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CheckpointKey {
    /// The campaign's master seed.
    pub master_seed: u64,
    /// The campaign's trial count.
    pub trials: u64,
    /// Caller-supplied fingerprint of everything else that shapes a
    /// trial's result (attack config, victim, noise model...). Hash a
    /// canonical description string with [`fnv1a64`].
    pub config_fingerprint: u64,
}

/// Why a checkpoint could not be opened.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem-level failure.
    Io(std::io::Error),
    /// The file exists but its header is missing or unreadable — it is
    /// not a checkpoint (or it tore before the header landed).
    BadHeader {
        /// The offending file.
        path: PathBuf,
    },
    /// The file is a valid checkpoint for a *different* campaign.
    KeyMismatch {
        /// The key the caller expected.
        expected: CheckpointKey,
        /// The key found in the file's header.
        found: CheckpointKey,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(err) => write!(f, "checkpoint I/O failed: {err}"),
            CheckpointError::BadHeader { path } => {
                write!(f, "{} is not a campaign checkpoint", path.display())
            }
            CheckpointError::KeyMismatch { expected, found } => write!(
                f,
                "checkpoint belongs to a different campaign: expected \
                 seed {:#x}/{} trials/config {:#x}, found seed {:#x}/{} trials/config {:#x}",
                expected.master_seed,
                expected.trials,
                expected.config_fingerprint,
                found.master_seed,
                found.trials,
                found.config_fingerprint,
            ),
        }
    }
}

impl Error for CheckpointError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CheckpointError::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(err: std::io::Error) -> Self {
        CheckpointError::Io(err)
    }
}

/// An append-only file of framed lines (see the module docs): the one
/// owner of the line format and the torn-tail policy. Appends go through
/// an internal mutex, so a shared `&FramedLog` is safe on every thread.
#[derive(Debug)]
pub struct FramedLog {
    path: PathBuf,
    writer: Mutex<File>,
}

impl FramedLog {
    /// Opens (creating if absent) the log at `path`, handing each line to
    /// `take` in order: `Some(body)` for an intact frame, `None` for a
    /// torn, corrupt or newline-less one. `take` answers `Ok(true)` to
    /// keep the line and `Ok(false)` to treat it and everything after it
    /// as torn; that tail is counted in the returned [`ResumeReport`] and
    /// truncated away. An `Err` from `take` refuses the file and leaves it
    /// untouched.
    ///
    /// # Errors
    ///
    /// `take`'s error, or an I/O failure reading, repairing or opening
    /// the file.
    pub fn open<E: From<std::io::Error>>(
        path: impl AsRef<Path>,
        mut take: impl FnMut(Option<&str>) -> Result<bool, E>,
    ) -> Result<(FramedLog, ResumeReport), E> {
        let path = path.as_ref().to_path_buf();
        // Bytes, not a `String`: a tear can split a multi-byte character,
        // and that must fail one line's frame check, not the whole read.
        let existing = match std::fs::read(&path) {
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            read => read?,
        };
        let mut kept = 0;
        for line in existing.split_inclusive(|&b| b == b'\n') {
            let text = line
                .strip_suffix(b"\n")
                .and_then(|line| std::str::from_utf8(line).ok());
            if !take(text.and_then(parse_frame))? {
                break;
            }
            kept += line.len();
        }
        let tail = &existing[kept..];
        let report = ResumeReport {
            dropped_records: tail.split_inclusive(|&b| b == b'\n').count(),
            dropped_bytes: tail.len() as u64,
        };
        let writer = OpenOptions::new().create(true).append(true).open(&path)?;
        // Physically truncate what was not kept: left in place, the torn
        // tail would glue the next append onto garbage and lose every
        // later record at the *next* open.
        if report.is_torn() {
            writer.set_len(kept as u64)?;
        }
        let writer = Mutex::new(writer);
        Ok((FramedLog { path, writer }, report))
    }

    /// The log's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one framed record. The whole line, newline included,
    /// lands in one `write_all`, so a crash can tear at most the final
    /// record — exactly what [`FramedLog::open`] drops.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn append(&self, body: &str) -> std::io::Result<()> {
        let line = frame(body);
        let mut writer = self.writer.lock().expect("framed log writer poisoned");
        writer.write_all(line.as_bytes())?;
        writer.flush()
    }
}

/// Wraps a record body in the line format.
fn frame(body: &str) -> String {
    format!(
        "{{\"len\": {}, \"crc\": {}, \"body\": {body}}}\n",
        body.len(),
        fnv1a64(body.as_bytes())
    )
}

/// Validates one line's framing ([`frame`]'s inverse, newline stripped)
/// and returns the body; `None` on a torn or checksum-failing line.
fn parse_frame(line: &str) -> Option<&str> {
    let rest = line.strip_prefix("{\"len\": ")?;
    let (len, rest) = rest.split_once(", \"crc\": ")?;
    let (crc, rest) = rest.split_once(", \"body\": ")?;
    let body = rest.strip_suffix('}')?;
    (len.parse() == Ok(body.len()) && crc.parse() == Ok(fnv1a64(body.as_bytes()))).then_some(body)
}

/// An open, validated campaign checkpoint: the completed-trial records
/// loaded at open time plus an append handle for new completions.
///
/// Appends are thread-safe ([`FramedLog::append`]), so a shared
/// `&CampaignCheckpoint` is safe to use from every campaign worker. The
/// in-memory view is a snapshot from open time; re-open the file to
/// observe records appended since (the resume path does exactly that).
#[derive(Debug)]
pub struct CampaignCheckpoint {
    key: CheckpointKey,
    completed: BTreeMap<usize, String>,
    report: ResumeReport,
    log: FramedLog,
}

impl CampaignCheckpoint {
    /// Opens (creating if absent) the checkpoint at `path` for the
    /// campaign identified by `key`.
    ///
    /// Existing records are loaded and validated; truncated or corrupt
    /// trailing records are dropped, and the damage is reported typed via
    /// [`CampaignCheckpoint::resume_report`] (count also available as
    /// [`CampaignCheckpoint::dropped_records`]) so callers — in particular
    /// the `nv-serve` campaign server — can surface it in metrics.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::KeyMismatch`] if the file belongs to a different
    /// campaign, [`CheckpointError::BadHeader`] if it is not a checkpoint
    /// at all, [`CheckpointError::Io`] on filesystem failure. A refused
    /// file is left untouched.
    pub fn open(path: impl AsRef<Path>, key: CheckpointKey) -> Result<Self, CheckpointError> {
        let path = path.as_ref();
        let mut completed = BTreeMap::new();
        let mut has_header = false;
        let (log, report) = FramedLog::open(path, |body| {
            if !has_header {
                // A first line that is not an intact header is not a
                // checkpoint (or tore before the header landed): refused,
                // never truncated.
                has_header = true;
                return match body.and_then(parse_header) {
                    Some(found) if found == key => Ok(true),
                    Some(found) => Err(CheckpointError::KeyMismatch {
                        expected: key,
                        found,
                    }),
                    None => Err(CheckpointError::BadHeader {
                        path: path.to_path_buf(),
                    }),
                };
            }
            match body.and_then(parse_record) {
                Some((trial, data)) if (trial as u64) < key.trials => {
                    // Later duplicates win: a record re-appended after a
                    // resume supersedes the original.
                    completed.insert(trial, data);
                    Ok(true)
                }
                // A torn frame, a checksum failure, or an out-of-range
                // index that happened to pass the checksum: everything
                // from here on is untrustworthy in an append-only log.
                _ => Ok(false),
            }
        })?;
        if !has_header {
            log.append(&format!(
                "{{\"magic\": \"{CHECKPOINT_MAGIC}\", \"seed\": {}, \"trials\": {}, \
                 \"config\": {}}}",
                key.master_seed, key.trials, key.config_fingerprint
            ))?;
        }
        Ok(CampaignCheckpoint {
            key,
            completed,
            report,
            log,
        })
    }

    /// The key this checkpoint was opened under.
    pub fn key(&self) -> CheckpointKey {
        self.key
    }

    /// The checkpoint's file path.
    pub fn path(&self) -> &Path {
        self.log.path()
    }

    /// Number of completed-trial records loaded at open time.
    pub fn completed_trials(&self) -> usize {
        self.completed.len()
    }

    /// Whether `trial` had a valid record at open time.
    pub fn has(&self, trial: usize) -> bool {
        self.completed.contains_key(&trial)
    }

    /// The encoded payload recorded for `trial` at open time, if any.
    pub fn data(&self, trial: usize) -> Option<&str> {
        self.completed.get(&trial).map(String::as_str)
    }

    /// Corrupt/truncated trailing records dropped at open time.
    pub fn dropped_records(&self) -> usize {
        self.report.dropped_records
    }

    /// The typed account of what open-time recovery had to drop. A fresh
    /// or undamaged file reports all-zero.
    pub fn resume_report(&self) -> ResumeReport {
        self.report
    }

    /// Appends a completed trial's encoded result ([`FramedLog::append`]:
    /// thread-safe, one `write_all` per record).
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn append(&self, trial: usize, data: &str) -> std::io::Result<()> {
        self.log.append(&format!(
            "{{\"trial\": {trial}, \"data\": \"{}\"}}",
            escape(data)
        ))
    }
}

/// Parses a header body into its key.
fn parse_header(body: &str) -> Option<CheckpointKey> {
    (field_str(body, "magic")? == CHECKPOINT_MAGIC).then_some(CheckpointKey {
        master_seed: field_u64(body, "seed")?,
        trials: field_u64(body, "trials")?,
        config_fingerprint: field_u64(body, "config")?,
    })
}

/// Parses a completed-trial record body.
fn parse_record(body: &str) -> Option<(usize, String)> {
    let trial = usize::try_from(field_u64(body, "trial")?).ok()?;
    Some((trial, field_str(body, "data")?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!("nv_ckpt_{name}_{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    fn key() -> CheckpointKey {
        CheckpointKey {
            master_seed: 0xabcd,
            trials: 10,
            config_fingerprint: fnv1a64(b"unit-test-config"),
        }
    }

    #[test]
    fn roundtrips_records_across_reopen() {
        let path = temp_path("roundtrip");
        {
            let ckpt = CampaignCheckpoint::open(&path, key()).unwrap();
            assert_eq!(ckpt.completed_trials(), 0);
            ckpt.append(3, "thirty-three").unwrap();
            ckpt.append(0, "zero \"quoted\" \\ backslash\nnewline")
                .unwrap();
        }
        let ckpt = CampaignCheckpoint::open(&path, key()).unwrap();
        assert_eq!(ckpt.completed_trials(), 2);
        assert_eq!(ckpt.data(3), Some("thirty-three"));
        assert_eq!(ckpt.data(0), Some("zero \"quoted\" \\ backslash\nnewline"));
        assert!(!ckpt.has(1));
        assert_eq!(ckpt.dropped_records(), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn key_mismatch_is_rejected() {
        let path = temp_path("mismatch");
        drop(CampaignCheckpoint::open(&path, key()).unwrap());
        let other = CheckpointKey {
            master_seed: 0x9999,
            ..key()
        };
        let before = std::fs::read(&path).unwrap();
        match CampaignCheckpoint::open(&path, other) {
            Err(CheckpointError::KeyMismatch { expected, found }) => {
                assert_eq!(expected, other);
                assert_eq!(found, key());
            }
            other => panic!("expected KeyMismatch, got {other:?}"),
        }
        assert_eq!(
            std::fs::read(&path).unwrap(),
            before,
            "a refused open must not touch the file"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn non_checkpoint_file_is_a_bad_header() {
        let path = temp_path("badheader");
        // With and without a final newline: a file that is not a
        // checkpoint is refused, never truncated as a torn tail.
        for text in ["this is not a checkpoint\n", "no newline at all"] {
            std::fs::write(&path, text).unwrap();
            assert!(matches!(
                CampaignCheckpoint::open(&path, key()),
                Err(CheckpointError::BadHeader { .. })
            ));
            assert_eq!(std::fs::read(&path).unwrap(), text.as_bytes());
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_trailing_record_is_dropped_not_fatal() {
        let path = temp_path("torn");
        {
            let ckpt = CampaignCheckpoint::open(&path, key()).unwrap();
            ckpt.append(1, "one").unwrap();
            ckpt.append(2, "two").unwrap();
        }
        // Simulate a crash mid-append: half a framed line, no newline.
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(b"{\"len\": 999, \"crc\": 123, \"body\": {\"tri")
            .unwrap();
        drop(file);
        let ckpt = CampaignCheckpoint::open(&path, key()).unwrap();
        assert_eq!(ckpt.completed_trials(), 2);
        assert_eq!(ckpt.dropped_records(), 1);
        assert_eq!(ckpt.data(2), Some("two"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_record_missing_only_its_newline_is_torn() {
        let path = temp_path("newline");
        {
            let ckpt = CampaignCheckpoint::open(&path, key()).unwrap();
            ckpt.append(1, "one").unwrap();
            ckpt.append(2, "two").unwrap();
        }
        // A crash between the record's last body byte and its newline:
        // the frame still checks, but the record was never durable.
        let mut bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes.pop(), Some(b'\n'));
        std::fs::write(&path, &bytes).unwrap();
        let ckpt = CampaignCheckpoint::open(&path, key()).unwrap();
        assert!(!ckpt.has(2));
        assert_eq!(ckpt.dropped_records(), 1);
        ckpt.append(3, "three").unwrap();
        ckpt.append(4, "four").unwrap();
        drop(ckpt);
        // Appends after the repair were not glued onto the torn record.
        let ckpt = CampaignCheckpoint::open(&path, key()).unwrap();
        assert_eq!(ckpt.resume_report(), ResumeReport::default());
        assert_eq!(ckpt.completed_trials(), 3);
        assert_eq!(ckpt.data(1), Some("one"));
        assert_eq!(ckpt.data(3), Some("three"));
        assert_eq!(ckpt.data(4), Some("four"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_tear_inside_a_multibyte_character_is_dropped() {
        let path = temp_path("utf8");
        {
            let ckpt = CampaignCheckpoint::open(&path, key()).unwrap();
            ckpt.append(1, "one").unwrap();
            ckpt.append(2, "caf\u{e9}").unwrap();
        }
        // Cut after the first byte of the two-byte 'é'.
        let mut bytes = std::fs::read(&path).unwrap();
        let lead = bytes.iter().rposition(|&b| b == 0xc3).unwrap();
        bytes.truncate(lead + 1);
        std::fs::write(&path, &bytes).unwrap();
        let ckpt = CampaignCheckpoint::open(&path, key()).unwrap();
        assert_eq!(ckpt.dropped_records(), 1);
        assert_eq!(ckpt.data(1), Some("one"));
        assert!(!ckpt.has(2));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn records_after_a_corrupt_one_are_dropped_too() {
        let path = temp_path("tail");
        {
            let ckpt = CampaignCheckpoint::open(&path, key()).unwrap();
            ckpt.append(1, "one").unwrap();
        }
        // A checksum-failing line followed by a well-formed record: the
        // well-formed one is *after* the tear, so it must not be trusted.
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(b"{\"len\": 5, \"crc\": 1, \"body\": {\"x\": 1}}\n")
            .unwrap();
        file.write_all(frame("{\"trial\": 3, \"data\": \"stale\"}").as_bytes())
            .unwrap();
        drop(file);
        let ckpt = CampaignCheckpoint::open(&path, key()).unwrap();
        assert_eq!(ckpt.completed_trials(), 1);
        assert!(!ckpt.has(3));
        assert_eq!(ckpt.dropped_records(), 2, "the tear and everything after");
        // Recovery truncated the distrusted tail, so records appended
        // *after* this open are on an intact log and survive the next one.
        ckpt.append(4, "four-after-repair").unwrap();
        drop(ckpt);
        let ckpt = CampaignCheckpoint::open(&path, key()).unwrap();
        assert_eq!(ckpt.completed_trials(), 2);
        assert!(ckpt.has(4));
        assert!(!ckpt.has(3), "the distrusted record must not resurface");
        assert_eq!(ckpt.dropped_records(), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_report_accounts_records_and_bytes() {
        let path = temp_path("report");
        {
            let ckpt = CampaignCheckpoint::open(&path, key()).unwrap();
            ckpt.append(1, "one").unwrap();
            assert_eq!(ckpt.resume_report(), ResumeReport::default());
            assert!(!ckpt.resume_report().is_torn());
        }
        let intact_len = std::fs::metadata(&path).unwrap().len();
        let garbage = b"{\"len\": 3, \"crc\": 9, \"body\": {\"x\"\nhalf a torn lin";
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(garbage).unwrap();
        drop(file);
        let ckpt = CampaignCheckpoint::open(&path, key()).unwrap();
        let report = ckpt.resume_report();
        assert!(report.is_torn());
        assert_eq!(report.dropped_records, 2);
        // The torn tail has no trailing newline, so the exact byte count
        // (with the per-line +1 only for complete lines) must still cover
        // everything past the last intact record.
        assert_eq!(report.dropped_bytes, garbage.len() as u64);
        // Recovery physically truncates the torn tail, so appends made
        // after this open land on an intact log and the *next* open is
        // clean — nothing recovered here is lost later.
        assert_eq!(std::fs::metadata(&path).unwrap().len(), intact_len);
        ckpt.append(2, "two").unwrap();
        drop(ckpt);
        let reopened = CampaignCheckpoint::open(&path, key()).unwrap();
        assert_eq!(reopened.resume_report(), ResumeReport::default());
        assert_eq!(reopened.completed_trials(), 2);
        assert_eq!(reopened.data(2), Some("two"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn out_of_range_trial_index_counts_as_corruption() {
        let path = temp_path("range");
        {
            let ckpt = CampaignCheckpoint::open(&path, key()).unwrap();
            ckpt.append(99, "beyond the trial count").unwrap();
        }
        let ckpt = CampaignCheckpoint::open(&path, key()).unwrap();
        assert_eq!(ckpt.completed_trials(), 0);
        assert_eq!(ckpt.dropped_records(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn frame_bytes_are_pinned() {
        // The on-disk format: changing it strands every existing file.
        let body = "{\"trial\": 7, \"data\": \"x\"}";
        assert_eq!(
            frame(body),
            "{\"len\": 25, \"crc\": 8953197420222766420, \"body\": {\"trial\": 7, \"data\": \"x\"}}\n"
        );
        assert_eq!(parse_frame(frame(body).trim_end()), Some(body));
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
