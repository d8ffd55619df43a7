//! The typed event model: what the instrumented layers report.
//!
//! Events are the one record of front-end activity the whole stack
//! shares: plain `u64` addresses instead of `VirtAddr` (so this crate sits
//! below every other crate in the workspace), a stable [`EventKind`] index
//! for O(1) counting, and per-event argument rendering for the
//! Chrome-trace exporter. Squash events name their cause with
//! `nv_uarch::SquashCause::name`.

/// One observable microarchitectural or injected event.
///
/// Addresses are raw `u64` virtual addresses; producers convert from
/// their own address types at the emission site.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ObsEvent {
    /// A taken transfer allocated (or refreshed) a BTB entry.
    BtbAllocate {
        /// PC of the allocating transfer.
        pc: u64,
        /// Its target.
        target: u64,
    },
    /// A BTB entry was deallocated after a false hit.
    BtbDeallocate {
        /// The dead entry's branch PC (tag-aliased view of the fetcher).
        pc: u64,
        /// Whether the triggering instruction was speculative.
        speculative: bool,
    },
    /// A BTB lookup false-hit: the predicted location decoded to a
    /// non-transfer instruction or fell mid-instruction (Takeaway 1).
    BtbFalseHit {
        /// Fetch PC at which the false hit materialized.
        pc: u64,
        /// `true` if the predicted byte fell inside an instruction,
        /// `false` if a non-transfer instruction ended there.
        mid_instruction: bool,
    },
    /// A BTB entry was evicted by the fault injector or a competing
    /// process model (not by the predictor's own replacement).
    BtbEvict {
        /// Targeted set index.
        set: u32,
        /// Targeted way index.
        way: u32,
        /// Whether a valid entry was actually displaced.
        displaced: bool,
    },
    /// A taken control transfer retired and was recorded in the LBR.
    LbrRecord {
        /// PC of the retired transfer.
        from: u64,
        /// Its target.
        to: u64,
        /// The record's elapsed-cycles field (after any injected jitter).
        elapsed: u64,
        /// Whether the transfer was mispredicted.
        mispredicted: bool,
    },
    /// The LBR elapsed-cycle computation clamped a non-monotone delta to
    /// the 1-cycle floor instead of silently saturating to zero.
    LbrClamped {
        /// PC of the affected record.
        from: u64,
        /// How far backwards the retire cycle stepped.
        shortfall: u64,
    },
    /// The pipeline squashed (misprediction, false hit, RSB mismatch).
    Squash {
        /// PC of the offending instruction.
        pc: u64,
        /// Stable cause label (mirrors `nv_uarch::SquashCause` variants).
        cause: &'static str,
        /// Penalty charged, in cycles.
        penalty: u64,
    },
    /// Decode resteered fetch for a direct unconditional transfer the BTB
    /// missed — the cheap front-end redirect, not a full squash.
    Resteer {
        /// PC of the resteering transfer.
        pc: u64,
        /// Resolved target.
        target: u64,
        /// Penalty charged, in cycles.
        penalty: u64,
    },
    /// The fault injector added measurement jitter to an LBR record.
    InjectedJitter {
        /// PC of the jittered record.
        pc: u64,
        /// Cycles added to the record's elapsed field.
        cycles: u64,
    },
    /// The fault injector raised a spurious preemption squash.
    InjectedSquash {
        /// PC the preemption interrupted.
        pc: u64,
        /// Penalty charged, in cycles.
        penalty: u64,
    },
    /// A supervised campaign retried a failed trial on a fresh
    /// deterministic sub-stream of its RNG.
    TrialRetried {
        /// Trial index within the campaign.
        trial: u64,
        /// The retry attempt number (1 = first retry).
        attempt: u64,
    },
    /// A supervised campaign quarantined a trial: its final attempt failed
    /// and the campaign carried on without it.
    TrialQuarantined {
        /// Trial index within the campaign.
        trial: u64,
    },
    /// A campaign checkpoint persisted a completed trial's result.
    CheckpointAppended {
        /// Trial index within the campaign.
        trial: u64,
    },
    /// A resumed campaign skipped a trial whose result was already in its
    /// checkpoint.
    CheckpointResumed {
        /// Trial index within the campaign.
        trial: u64,
    },
    /// A checkpoint or journal file was reopened with a torn or corrupt
    /// tail: the unreadable trailing records were dropped and their
    /// trials/jobs will re-run. A daemonized server surfaces this in its
    /// metrics instead of losing it on stderr.
    CheckpointTorn {
        /// Records dropped from the file's tail.
        records: u64,
        /// Bytes those records spanned.
        bytes: u64,
    },
    /// The campaign server admitted a job past admission control.
    JobAdmitted {
        /// Server-assigned job id.
        job: u64,
    },
    /// The campaign server rejected a submission with a typed reason.
    JobRejected {
        /// Stable snake_case label of the rejection reason.
        reason: &'static str,
    },
    /// A restarted campaign server re-enqueued a journaled in-flight job.
    JobResumed {
        /// Server-assigned job id.
        job: u64,
    },
    /// The campaign server finished a job (all trials accounted for).
    JobCompleted {
        /// Server-assigned job id.
        job: u64,
    },
    /// A wire-level cancellation terminated a job before completion.
    JobCancelled {
        /// Server-assigned job id.
        job: u64,
    },
    /// A client re-attached to a job's outcome stream with
    /// `resume_stream`, replaying updates after its cursor.
    StreamResumed {
        /// Server-assigned job id.
        job: u64,
        /// The client's `last_seen_seq` cursor.
        from_seq: u64,
    },
    /// A connection write blew its deadline (a stalled or non-reading
    /// peer); the connection was dropped instead of wedging a writer.
    ConnWriteStalled {
        /// The write deadline that expired, in milliseconds.
        timeout_ms: u64,
    },
    /// A half-open connection sent no frame (not even a ping) within the
    /// idle deadline and was reaped.
    ConnIdleReaped {
        /// The idle deadline that expired, in milliseconds.
        timeout_ms: u64,
    },
}

/// The event's kind — a dense index for counter arrays and a stable name
/// for exporters.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum EventKind {
    /// [`ObsEvent::BtbAllocate`].
    BtbAllocate,
    /// [`ObsEvent::BtbDeallocate`].
    BtbDeallocate,
    /// [`ObsEvent::BtbFalseHit`].
    BtbFalseHit,
    /// [`ObsEvent::BtbEvict`].
    BtbEvict,
    /// [`ObsEvent::LbrRecord`].
    LbrRecord,
    /// [`ObsEvent::LbrClamped`].
    LbrClamped,
    /// [`ObsEvent::Squash`].
    Squash,
    /// [`ObsEvent::Resteer`].
    Resteer,
    /// [`ObsEvent::InjectedJitter`].
    InjectedJitter,
    /// [`ObsEvent::InjectedSquash`].
    InjectedSquash,
    /// [`ObsEvent::TrialRetried`].
    TrialRetried,
    /// [`ObsEvent::TrialQuarantined`].
    TrialQuarantined,
    /// [`ObsEvent::CheckpointAppended`].
    CheckpointAppended,
    /// [`ObsEvent::CheckpointResumed`].
    CheckpointResumed,
    /// [`ObsEvent::CheckpointTorn`].
    CheckpointTorn,
    /// [`ObsEvent::JobAdmitted`].
    JobAdmitted,
    /// [`ObsEvent::JobRejected`].
    JobRejected,
    /// [`ObsEvent::JobResumed`].
    JobResumed,
    /// [`ObsEvent::JobCompleted`].
    JobCompleted,
    /// [`ObsEvent::JobCancelled`].
    JobCancelled,
    /// [`ObsEvent::StreamResumed`].
    StreamResumed,
    /// [`ObsEvent::ConnWriteStalled`].
    ConnWriteStalled,
    /// [`ObsEvent::ConnIdleReaped`].
    ConnIdleReaped,
}

impl EventKind {
    /// Number of kinds (the counter-array length).
    pub const COUNT: usize = 23;

    /// Every kind, in counter order.
    pub const ALL: [EventKind; EventKind::COUNT] = [
        EventKind::BtbAllocate,
        EventKind::BtbDeallocate,
        EventKind::BtbFalseHit,
        EventKind::BtbEvict,
        EventKind::LbrRecord,
        EventKind::LbrClamped,
        EventKind::Squash,
        EventKind::Resteer,
        EventKind::InjectedJitter,
        EventKind::InjectedSquash,
        EventKind::TrialRetried,
        EventKind::TrialQuarantined,
        EventKind::CheckpointAppended,
        EventKind::CheckpointResumed,
        EventKind::CheckpointTorn,
        EventKind::JobAdmitted,
        EventKind::JobRejected,
        EventKind::JobResumed,
        EventKind::JobCompleted,
        EventKind::JobCancelled,
        EventKind::StreamResumed,
        EventKind::ConnWriteStalled,
        EventKind::ConnIdleReaped,
    ];

    /// Whether this kind is emitted by the campaign fault-tolerance layer
    /// or the extraction service (`nv-serve`) rather than the simulated
    /// microarchitecture. Lifecycle kinds are omitted from metrics JSON
    /// when their count is zero, so metrics from unsupervised runs render
    /// byte-identically to before these kinds existed.
    pub fn is_lifecycle(self) -> bool {
        matches!(
            self,
            EventKind::TrialRetried
                | EventKind::TrialQuarantined
                | EventKind::CheckpointAppended
                | EventKind::CheckpointResumed
                | EventKind::CheckpointTorn
                | EventKind::JobAdmitted
                | EventKind::JobRejected
                | EventKind::JobResumed
                | EventKind::JobCompleted
                | EventKind::JobCancelled
                | EventKind::StreamResumed
                | EventKind::ConnWriteStalled
                | EventKind::ConnIdleReaped
        )
    }

    /// Dense index in `0..COUNT`.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case name used in metrics JSON and Chrome traces.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::BtbAllocate => "btb_allocate",
            EventKind::BtbDeallocate => "btb_deallocate",
            EventKind::BtbFalseHit => "btb_false_hit",
            EventKind::BtbEvict => "btb_evict",
            EventKind::LbrRecord => "lbr_record",
            EventKind::LbrClamped => "lbr_clamped",
            EventKind::Squash => "squash",
            EventKind::Resteer => "resteer",
            EventKind::InjectedJitter => "injected_jitter",
            EventKind::InjectedSquash => "injected_squash",
            EventKind::TrialRetried => "trial_retried",
            EventKind::TrialQuarantined => "trial_quarantined",
            EventKind::CheckpointAppended => "checkpoint_appended",
            EventKind::CheckpointResumed => "checkpoint_resumed",
            EventKind::CheckpointTorn => "checkpoint_torn",
            EventKind::JobAdmitted => "job_admitted",
            EventKind::JobRejected => "job_rejected",
            EventKind::JobResumed => "job_resumed",
            EventKind::JobCompleted => "job_completed",
            EventKind::JobCancelled => "job_cancelled",
            EventKind::StreamResumed => "stream_resumed",
            EventKind::ConnWriteStalled => "conn_write_stalled",
            EventKind::ConnIdleReaped => "conn_idle_reaped",
        }
    }
}

impl ObsEvent {
    /// The event's [`EventKind`].
    pub fn kind(&self) -> EventKind {
        match self {
            ObsEvent::BtbAllocate { .. } => EventKind::BtbAllocate,
            ObsEvent::BtbDeallocate { .. } => EventKind::BtbDeallocate,
            ObsEvent::BtbFalseHit { .. } => EventKind::BtbFalseHit,
            ObsEvent::BtbEvict { .. } => EventKind::BtbEvict,
            ObsEvent::LbrRecord { .. } => EventKind::LbrRecord,
            ObsEvent::LbrClamped { .. } => EventKind::LbrClamped,
            ObsEvent::Squash { .. } => EventKind::Squash,
            ObsEvent::Resteer { .. } => EventKind::Resteer,
            ObsEvent::InjectedJitter { .. } => EventKind::InjectedJitter,
            ObsEvent::InjectedSquash { .. } => EventKind::InjectedSquash,
            ObsEvent::TrialRetried { .. } => EventKind::TrialRetried,
            ObsEvent::TrialQuarantined { .. } => EventKind::TrialQuarantined,
            ObsEvent::CheckpointAppended { .. } => EventKind::CheckpointAppended,
            ObsEvent::CheckpointResumed { .. } => EventKind::CheckpointResumed,
            ObsEvent::CheckpointTorn { .. } => EventKind::CheckpointTorn,
            ObsEvent::JobAdmitted { .. } => EventKind::JobAdmitted,
            ObsEvent::JobRejected { .. } => EventKind::JobRejected,
            ObsEvent::JobResumed { .. } => EventKind::JobResumed,
            ObsEvent::JobCompleted { .. } => EventKind::JobCompleted,
            ObsEvent::JobCancelled { .. } => EventKind::JobCancelled,
            ObsEvent::StreamResumed { .. } => EventKind::StreamResumed,
            ObsEvent::ConnWriteStalled { .. } => EventKind::ConnWriteStalled,
            ObsEvent::ConnIdleReaped { .. } => EventKind::ConnIdleReaped,
        }
    }

    /// Cycles of penalty/latency the event contributed, if it is a timing
    /// event (squashes, resteers); `None` for pure state events.
    pub fn penalty(&self) -> Option<u64> {
        match self {
            ObsEvent::Squash { penalty, .. }
            | ObsEvent::Resteer { penalty, .. }
            | ObsEvent::InjectedSquash { penalty, .. } => Some(*penalty),
            _ => None,
        }
    }

    /// Renders the event's payload as a Chrome-trace `args` JSON object.
    pub fn args_json(&self) -> String {
        match *self {
            ObsEvent::BtbAllocate { pc, target } => {
                format!("{{\"pc\": \"{pc:#x}\", \"target\": \"{target:#x}\"}}")
            }
            ObsEvent::BtbDeallocate { pc, speculative } => {
                format!("{{\"pc\": \"{pc:#x}\", \"speculative\": {speculative}}}")
            }
            ObsEvent::BtbFalseHit {
                pc,
                mid_instruction,
            } => {
                format!("{{\"pc\": \"{pc:#x}\", \"mid_instruction\": {mid_instruction}}}")
            }
            ObsEvent::BtbEvict {
                set,
                way,
                displaced,
            } => {
                format!("{{\"set\": {set}, \"way\": {way}, \"displaced\": {displaced}}}")
            }
            ObsEvent::LbrRecord {
                from,
                to,
                elapsed,
                mispredicted,
            } => format!(
                "{{\"from\": \"{from:#x}\", \"to\": \"{to:#x}\", \"elapsed\": {elapsed}, \
                 \"mispredicted\": {mispredicted}}}"
            ),
            ObsEvent::LbrClamped { from, shortfall } => {
                format!("{{\"from\": \"{from:#x}\", \"shortfall\": {shortfall}}}")
            }
            ObsEvent::Squash { pc, cause, penalty } => {
                format!("{{\"pc\": \"{pc:#x}\", \"cause\": \"{cause}\", \"penalty\": {penalty}}}")
            }
            ObsEvent::Resteer {
                pc,
                target,
                penalty,
            } => format!(
                "{{\"pc\": \"{pc:#x}\", \"target\": \"{target:#x}\", \"penalty\": {penalty}}}"
            ),
            ObsEvent::InjectedJitter { pc, cycles } => {
                format!("{{\"pc\": \"{pc:#x}\", \"cycles\": {cycles}}}")
            }
            ObsEvent::InjectedSquash { pc, penalty } => {
                format!("{{\"pc\": \"{pc:#x}\", \"penalty\": {penalty}}}")
            }
            ObsEvent::TrialRetried { trial, attempt } => {
                format!("{{\"trial\": {trial}, \"attempt\": {attempt}}}")
            }
            ObsEvent::TrialQuarantined { trial }
            | ObsEvent::CheckpointAppended { trial }
            | ObsEvent::CheckpointResumed { trial } => {
                format!("{{\"trial\": {trial}}}")
            }
            ObsEvent::CheckpointTorn { records, bytes } => {
                format!("{{\"records\": {records}, \"bytes\": {bytes}}}")
            }
            ObsEvent::JobAdmitted { job }
            | ObsEvent::JobResumed { job }
            | ObsEvent::JobCompleted { job }
            | ObsEvent::JobCancelled { job } => {
                format!("{{\"job\": {job}}}")
            }
            ObsEvent::JobRejected { reason } => {
                format!("{{\"reason\": \"{reason}\"}}")
            }
            ObsEvent::StreamResumed { job, from_seq } => {
                format!("{{\"job\": {job}, \"from_seq\": {from_seq}}}")
            }
            ObsEvent::ConnWriteStalled { timeout_ms } | ObsEvent::ConnIdleReaped { timeout_ms } => {
                format!("{{\"timeout_ms\": {timeout_ms}}}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_indices_are_dense_and_match_all() {
        for (i, kind) in EventKind::ALL.iter().enumerate() {
            assert_eq!(kind.index(), i);
        }
    }

    #[test]
    fn kind_names_are_unique() {
        let mut names: Vec<_> = EventKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EventKind::COUNT);
    }

    #[test]
    fn lifecycle_kinds_are_exactly_the_campaign_and_serve_ones() {
        let lifecycle: Vec<_> = EventKind::ALL
            .iter()
            .filter(|k| k.is_lifecycle())
            .map(|k| k.name())
            .collect();
        assert_eq!(
            lifecycle,
            [
                // Campaign fault tolerance.
                "trial_retried",
                "trial_quarantined",
                "checkpoint_appended",
                "checkpoint_resumed",
                // The extraction service.
                "checkpoint_torn",
                "job_admitted",
                "job_rejected",
                "job_resumed",
                "job_completed",
                "job_cancelled",
                "stream_resumed",
                "conn_write_stalled",
                "conn_idle_reaped"
            ]
        );
    }

    #[test]
    fn penalty_only_for_timing_events() {
        let squash = ObsEvent::Squash {
            pc: 1,
            cause: "wrong_target",
            penalty: 17,
        };
        assert_eq!(squash.penalty(), Some(17));
        let alloc = ObsEvent::BtbAllocate { pc: 1, target: 2 };
        assert_eq!(alloc.penalty(), None);
    }

    #[test]
    fn args_render_as_json_objects() {
        for event in [
            ObsEvent::BtbAllocate { pc: 16, target: 32 },
            ObsEvent::LbrRecord {
                from: 1,
                to: 2,
                elapsed: 3,
                mispredicted: true,
            },
            ObsEvent::BtbEvict {
                set: 4,
                way: 1,
                displaced: false,
            },
        ] {
            let args = event.args_json();
            assert!(args.starts_with('{') && args.ends_with('}'), "{args}");
        }
    }
}
