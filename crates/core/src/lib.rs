//! # nightvision — the attack framework (the paper's core contribution)
//!
//! NightVision extracts *byte-granular dynamic PCs* from a co-located
//! victim through two previously unexploited BTB behaviours (§2): false-hit
//! deallocation by non-control-transfer instructions, and prediction-window
//! range-query lookup semantics.
//!
//! The crate is organized exactly like the paper's attack stack (§3–§6):
//!
//! * [`PwSpec`]/[`AttackerRig`] — prediction-window snippets (nops + a
//!   2-byte jump) placed 8 GiB from the victim so they alias in the BTB,
//!   with LBR-based probe measurement;
//! * [`NvCore`] — the Prime+Probe primitive of §4.1: determine whether a
//!   victim execution fragment overlapped attacker-chosen address ranges;
//! * [`NvUser`] — the user-level control-flow-leakage attack of §5,
//!   defeating branch balancing, `-falign-jumps=16` and CFR;
//! * [`NvSupervisor`] — the supervisor-level full PC-trace extraction of
//!   §6.3: SGX-style single-stepping, controlled-channel page numbers, and
//!   binary-search PW traversal down to byte granularity;
//! * [`trace`] — PC-trace slicing at call/ret boundaries and
//!   normalization (§6.4 step 1);
//! * [`fingerprint`] — set-intersection function fingerprinting (§6.4
//!   step 2);
//! * [`seq_fingerprint`] — the order-aware, DNA-alignment-style variant
//!   the paper sketches as future work (§8.3);
//! * [`baselines`] — prior-attack stand-ins (instruction counting à la
//!   CopyCat, branch-PC probing à la BranchShadowing) used to show that
//!   the defenses which stop *them* do not stop NightVision;
//! * [`campaign`] — the multi-threaded trial-campaign engine: fans noisy
//!   Prime+Probe trials out across worker threads with per-trial
//!   `nv_rand` child streams, merging results in trial-index order so
//!   aggregates are byte-identical for any thread count. Its supervised
//!   paths (`run_supervised`, `resume`) add fault tolerance: per-trial
//!   panic/error/deadline outcomes under a configurable
//!   [`FailurePolicy`], watchdog step budgets armed on the core, and
//!   [`checkpoint`]-backed resume that skips completed trials;
//! * [`checkpoint`] — zero-dependency, crash-tolerant campaign
//!   checkpointing (length- and checksum-framed JSONL keyed by master
//!   seed, trial count and config fingerprint).
//!
//! Every attack layer is instrumented for the [`nv_obs`] observability
//! crate: attach a recorder to the `Core` (`Core::attach_obs`) and the
//! rig/NV-Core/NV-U/NV-S paths report calibrate/prime/probe/vote/retry
//! and victim-fragment spans plus typed µarch events into it, and
//! `nv_obs::Metrics::merge` sums per-trial aggregates in any order. With
//! no recorder attached, every path is byte-identical to the
//! uninstrumented build.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub mod campaign;
pub mod checkpoint;
mod error;
pub mod fingerprint;
mod nv_core;
mod nv_supervisor;
mod nv_user;
mod pw;
mod rig;
pub mod seq_fingerprint;
pub mod trace;

pub use campaign::{FailurePolicy, TrialOutcome};
pub use checkpoint::{CampaignCheckpoint, CheckpointError, CheckpointKey, ResumeReport};
pub use error::{AttackError, ProbeFailureCause};
pub use nv_core::NvCore;
pub use nv_supervisor::{ExtractedTrace, NvSupervisor, StepMeasurement, SupervisorConfig};
pub use nv_user::{NoiseModel, NvUser, SliceReading};
pub use pw::{PwSpec, DEFAULT_ALIAS_DISTANCE};
pub use rig::{AttackerRig, Matches, Resilience};
