//! nv-serve — extraction-as-a-service for NightVision campaigns.
//!
//! A hardened, resumable, multi-tenant campaign server built only on
//! `std` (`TcpListener` + a worker pool). Tenants submit extraction
//! jobs — a victim recipe, trial count, seed and resilience knobs — over
//! a length- and FNV-checksummed framed wire protocol; the server shards
//! trials through the existing supervised campaign engine and streams
//! per-trial outcomes plus nv-obs metric snapshots back incrementally.
//!
//! Robustness properties, each pinned by tests:
//!
//! * **admission control** — a bounded queue and per-tenant quotas turn
//!   overload into typed [`proto::RejectReason`]s, never into unbounded
//!   memory;
//! * **durability** — every accepted job is journaled before the client
//!   hears `accepted`; `kill -9` mid-load plus a restart resumes every
//!   in-flight job and reproduces byte-identical results at any worker
//!   count;
//! * **healing** — a failed trial is retried at once within the job's
//!   retry budget, in the job's one campaign pass, deterministically (a
//!   trial's value is its first-succeeding attempt's, wherever a crash
//!   cut the pass);
//! * **hostility** — every malformed frame maps to a typed
//!   [`wire::WireError`]; the decoders never panic on wire input;
//! * **chaos tolerance** — a seeded, replayable chaos proxy ([`chaos`])
//!   injects resets, mid-frame cuts, corruption, stalls and duplicate
//!   delivery between client and server; idempotency-keyed submission
//!   and sequence-numbered stream resume ([`client::submit_resilient`])
//!   reassemble byte-identical results through all of it;
//! * **cancellation** — a wire-level `cancel` reaches inside a running
//!   trial through the core's cooperative watchdog check and comes back
//!   as a typed terminal state, never a dangling job.
//!
//! Layering: [`wire`] (framing) → [`proto`] (messages) → [`job`] (one
//! job through the campaign engine) → the job table (every job's
//! lifecycle, no I/O) → [`journal`] (crash journal, replayed through the
//! table's own transitions) → [`server`] (threads, sockets and journal
//! writes around the table) / [`client`] → [`chaos`] (fault-injecting
//! relay for tests and drills).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod client;
pub mod job;
pub mod journal;
pub mod proto;
pub mod server;
mod table;
pub mod wire;

pub use chaos::{ChaosPlan, ChaosProxy, FaultCounts};
pub use client::{
    submit_resilient, Client, ClientError, FinishedJob, ResilientOutcome, RetryPolicy, Submission,
};
pub use job::{JobError, JobKind, JobSpec};
pub use journal::JobJournal;
pub use proto::{JobReport, RejectReason, Request, Response, ServerStats, TrialUpdate};
pub use server::{Server, ServerConfig};
pub use wire::{WireError, MAX_PAYLOAD};
