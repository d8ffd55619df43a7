//! Squash causes: *why* the front end threw fetched work away.
//!
//! The core reports every squash and false-hit deallocation to the
//! attached [`nv_obs::Recorder`]; a squash event names its cause with
//! [`SquashCause::name`].

/// Why a BTB entry was deallocated or a squash occurred.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SquashCause {
    /// Predicted branch location decoded to a non-control-transfer
    /// instruction (Takeaway 1's false hit).
    FalseHitNonTransfer,
    /// Predicted branch location fell inside an instruction, not at a
    /// boundary.
    FalseHitMidInstruction,
    /// Taken branch whose BTB target was wrong.
    WrongTarget,
    /// Conditional branch predicted taken (BTB hit) but not taken.
    WrongDirection,
    /// Taken branch the BTB did not predict at all.
    BtbMissTaken,
    /// Return mispredicted by the RSB.
    RsbMismatch,
    /// Injected spurious squash — an asynchronous preemption/interrupt
    /// from the fault injector ([`crate::Perturbation`]), not a
    /// misprediction of the running program.
    SpuriousPreemption,
}

impl SquashCause {
    /// Stable snake_case label, used by the observability layer
    /// (`nv_obs::ObsEvent::Squash { cause, .. }`) and exporters.
    pub fn name(self) -> &'static str {
        match self {
            SquashCause::FalseHitNonTransfer => "false_hit_non_transfer",
            SquashCause::FalseHitMidInstruction => "false_hit_mid_instruction",
            SquashCause::WrongTarget => "wrong_target",
            SquashCause::WrongDirection => "wrong_direction",
            SquashCause::BtbMissTaken => "btb_miss_taken",
            SquashCause::RsbMismatch => "rsb_mismatch",
            SquashCause::SpuriousPreemption => "spurious_preemption",
        }
    }
}
