//! # nv-bench — figure regeneration and benchmarks
//!
//! One `repro_*` binary per figure/result of the paper's evaluation:
//!
//! | binary | reproduces |
//! |---|---|
//! | `repro_fig2` | Figure 2 — Experiment 1 cycle sweep (§2.3) |
//! | `repro_fig4` | Figure 4 — Experiment 2 cycle sweep (§2.4) |
//! | `repro_nvcore` | Figure 5/7 — PW overlap cases and chained PWs (§4.1) |
//! | `repro_cfl` | §7.2 — control-flow leakage accuracy (GCD, bn_cmp) |
//! | `repro_defenses` | §5/Fig. 8 — defense matrix vs. baselines and NV-U |
//! | `repro_fig12` | Figure 12 — similarity ranking over the corpus |
//! | `repro_fig13` | Figure 13 — version / optimization robustness |
//! | `repro_fusion_ablation` | §7.3 — macro-fusion and speculation ablations |
//! | `repro_ibrs` | §4.1 — IBRS/IBPB ineffectiveness |
//! | `repro_obs_profile` | observability profile: NV-S phase breakdown, campaign metrics, disabled-overhead ≤ 2 % |
//! | `repro_resilience` | fault tolerance: quarantine/retry/deadline outcomes, kill-and-resume checkpoint identity |
//! | `repro_serve` | extraction-as-a-service: server throughput, typed overload rejection, SIGKILL-and-restart job identity |
//! | `repro_chaos` | chaos transport: fault-injection intensity sweep census, SIGKILL-through-proxy client session resume |
//!
//! The library half holds the shared experiment plumbing so the binaries
//! stay declarative.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos_load;
pub mod experiments;
pub mod noise;
pub mod obs_profile;
pub mod resilience;
pub mod serve_load;

use std::collections::BTreeSet;

use nightvision::{fingerprint, trace, NvSupervisor, SupervisorConfig};
use nv_isa::VirtAddr;
use nv_os::Enclave;
use nv_uarch::{Core, UarchConfig};

/// Parses `--flag value` style arguments; returns the value following
/// `flag`, if present.
pub fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// `true` if the bare flag is present.
pub fn arg_present(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// Parses the shared `--threads N` flag (default 1). Thread count affects
/// wall-clock time only: every binary routes trials through the
/// [`nightvision::campaign`] engine, whose merged output is byte-identical
/// for any value.
pub fn threads_flag(args: &[String]) -> usize {
    arg_value(args, "--threads")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
        .max(1)
}

/// Runs the full NV-S attack against `program` loaded as an enclave and
/// returns the sliced, normalized function-level offset sets, paired with
/// their entry addresses.
///
/// # Panics
///
/// Panics if the attack fails (these binaries are experiment drivers).
pub fn nv_s_function_sets(
    program: &nv_isa::Program,
    uarch: &UarchConfig,
    supervisor: &SupervisorConfig,
) -> Vec<(VirtAddr, BTreeSet<u64>)> {
    let mut enclave = Enclave::new(program.clone());
    let mut core = Core::new(*uarch);
    let extracted = NvSupervisor::new(*supervisor)
        .extract_trace(&mut enclave, &mut core)
        .expect("NV-S extraction");
    trace::slice_extracted(&extracted)
        .into_iter()
        .map(|f| (f.entry, f.offset_set()))
        .collect()
}

/// The largest sliced function of an NV-S run — the victim function of
/// interest in single-call images.
pub fn nv_s_main_function_set(program: &nv_isa::Program) -> BTreeSet<u64> {
    nv_s_function_sets(
        program,
        &UarchConfig::default(),
        &SupervisorConfig::default(),
    )
    .into_iter()
    .max_by_key(|(_, set)| set.len())
    .map(|(_, set)| set)
    .unwrap_or_default()
}

/// Like [`nv_s_main_function_set`] but preserving execution order — the
/// input of the §8.3 sequence fingerprint.
pub fn nv_s_main_function_trace(program: &nv_isa::Program) -> Vec<u64> {
    let mut enclave = Enclave::new(program.clone());
    let mut core = Core::new(UarchConfig::default());
    let extracted = NvSupervisor::default()
        .extract_trace(&mut enclave, &mut core)
        .expect("NV-S extraction");
    trace::slice_extracted(&extracted)
        .into_iter()
        .max_by_key(|f| f.len())
        .map(|f| f.offsets)
        .unwrap_or_default()
}

/// Step budget for [`reference_dynamic_trace`]: generous for every victim
/// in the suite, small enough to catch runaway reference binaries.
pub const REFERENCE_TRACE_MAX_STEPS: u64 = 1_000_000;

/// The reference execution ran out of its step budget before terminating.
///
/// Returned instead of silently truncating: a truncated reference trace
/// would quietly deflate every similarity percentage computed against it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ReferenceTraceTruncated {
    /// The exhausted step budget.
    pub max_steps: u64,
    /// In-function offsets collected before the budget ran out.
    pub collected: usize,
}

impl std::fmt::Display for ReferenceTraceTruncated {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "reference binary did not terminate within {} steps ({} in-function offsets collected); \
             the trace would be truncated and similarity percentages corrupted",
            self.max_steps, self.collected
        )
    }
}

impl std::error::Error for ReferenceTraceTruncated {}

/// The attacker-side *reference* dynamic trace: run the (owned) reference
/// binary architecturally and record the retired PCs within the function,
/// normalized to its entry (§6.4's offline preparation, sequence flavor).
///
/// # Errors
///
/// Fails with [`ReferenceTraceTruncated`] if the reference binary does not
/// halt, fault or exit within [`REFERENCE_TRACE_MAX_STEPS`] steps — a
/// partial trace is an error, not an answer, because downstream similarity
/// percentages would be silently wrong.
pub fn reference_dynamic_trace(
    program: &nv_isa::Program,
    entry: VirtAddr,
    end: VirtAddr,
) -> Result<Vec<u64>, ReferenceTraceTruncated> {
    use nv_uarch::Machine;
    let mut machine = Machine::new(program.clone());
    let mut core = Core::new(UarchConfig::default());
    let mut offsets = Vec::new();
    for _ in 0..REFERENCE_TRACE_MAX_STEPS {
        let step = core.step(&mut machine);
        for retired in step.retired() {
            if retired.pc >= entry && retired.pc < end {
                offsets.push((retired.pc - entry) as u64);
            }
        }
        if step.halted || step.fault.is_some() || step.syscall == Some(0) {
            return Ok(offsets);
        }
    }
    Err(ReferenceTraceTruncated {
        max_steps: REFERENCE_TRACE_MAX_STEPS,
        collected: offsets.len(),
    })
}

/// Similarity of an extracted set against a reference, as a percentage.
pub fn similarity_pct(victim: &BTreeSet<u64>, reference: &BTreeSet<u64>) -> f64 {
    fingerprint::similarity(victim, reference) * 100.0
}

/// Renders one row of a fixed-width table.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(cell, width)| format!("{cell:>width$}"))
        .collect::<Vec<_>>()
        .join("  ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arg_parsing() {
        let args: Vec<String> = ["--runs", "5", "--full"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(arg_value(&args, "--runs").as_deref(), Some("5"));
        assert_eq!(arg_value(&args, "--victim"), None);
        assert!(arg_present(&args, "--full"));
        assert!(!arg_present(&args, "--quick"));
    }

    #[test]
    fn table_rows_align() {
        let line = row(&["a".into(), "12".into()], &[4, 6]);
        assert_eq!(line, "   a      12");
    }
}
