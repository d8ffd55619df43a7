//! # nv-uarch — the microarchitectural substrate of the NightVision
//! reproduction
//!
//! A cycle-annotated model of an Intel-style superscalar front end with the
//! two BTB behaviours reverse-engineered by the paper:
//!
//! 1. **Non-control-transfer instructions update the BTB** (Takeaway 1,
//!    §2.3): a BTB hit whose predicted location decodes to a non-branch is a
//!    *false hit*; the entry is deallocated as soon as decode notices — even
//!    for instructions that never retire.
//! 2. **Prediction-window range semantics** (Takeaway 2, §2.4): a lookup
//!    hits any same-set, same-(truncated)-tag entry whose 5-bit offset is ≥
//!    the fetch PC's offset; the smallest qualifying offset wins.
//!
//! On top of these it provides everything the attack framework measures
//! through: an [`Lbr`] with per-record elapsed cycles, an RSB for returns,
//! macro-fusion of `cmp/test + jcc` pairs (§7.3), IBRS/IBPB barriers that
//! flush only indirect entries (§4.1), and a speculative-overshoot mode for
//! single-stepping attacks (§6.3).
//!
//! ## Example: the false-hit deallocation in five lines
//!
//! ```
//! use nv_uarch::{Btb, BtbGeometry, BranchKind};
//! use nv_isa::VirtAddr;
//!
//! let mut btb = Btb::new(BtbGeometry::default());
//! btb.allocate(VirtAddr::new(0x1000), VirtAddr::new(0x2000), BranchKind::DirectJump);
//! let hit = btb.lookup(VirtAddr::new(0x1000 + (1 << 33))).expect("aliases");
//! btb.deallocate(hit.set, hit.way); // what the core does on a false hit
//! assert!(btb.lookup(VirtAddr::new(0x1000)).is_none());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod btb;
mod config;
mod core;
mod decoded;
mod events;
mod exec;
mod lbr;
mod mem;
mod perturb;

/// The random-program generator of the differential suites in `tests/`,
/// shared with the unit tests that need crate-private access.
#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod test_programs;

pub use btb::{BranchKind, Btb, BtbHit, BtbStats, DomainId};
pub use config::{BtbGeometry, CpuGeneration, TimingModel, UarchConfig};
pub use core::{Core, CoreStats, Machine, RetiredInst, RunExit, StepResult};
pub use decoded::DecodedImage;
pub use events::SquashCause;
pub use exec::{execute, ArchState, ControlOutcome, ExecOutcome, MemAccess};
pub use lbr::{Lbr, LbrRecord, LBR_DEPTH};
pub use mem::{Bus, Memory, SpecOverlay};
pub use perturb::Perturbation;

/// The observability layer ([`nv_obs`]) the core reports into — re-exported
/// so instrumented callers need not depend on the crate separately.
pub use nv_obs as obs;
