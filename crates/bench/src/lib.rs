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
//! | `repro_geometry` | BTB geometry ablation: tag cutoff × alias distance, associativity |
//! | `repro_mitigations` | §8.2 — BTB flush and domain-isolation mitigations |
//! | `repro_noise_sweep` | NV-Core accuracy under injected eviction/jitter/squash noise |
//! | `repro_seq_fingerprint` | §8.3 — ordered-trace (DNA-style) fingerprinting vs. the §6.4 set |
//! | `repro_traversal` | Figure 10 — NV-S discovery fan-out vs. enclave-run budget |
//!
//! The library half holds the shared experiment plumbing so the binaries
//! stay declarative: the §2 experiment drivers ([`experiments`]), the
//! flag parser ([`Args`]) and the output writer ([`write_output`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos_load;
pub mod experiments;
pub mod noise;
pub mod obs_profile;
pub mod resilience;
pub mod serve_load;

use std::collections::BTreeSet;

use nightvision::{fingerprint, trace, NvSupervisor, PwSpec, SupervisorConfig};
use nv_isa::{Assembler, VirtAddr};
use nv_os::Enclave;
use nv_uarch::{Core, Machine, UarchConfig};
use nv_victims::compile::{compile_gcd, CompileOptions, CompiledFunction};

/// The command line of a repro binary: `--flag value` pairs and bare
/// switches. Each getter consumes the first occurrence of its flag;
/// [`Args::finish`] then rejects a malformed or missing value and any
/// argument no getter consumed, so a typo never silently becomes a
/// default.
#[derive(Debug)]
pub struct Args {
    bin: String,
    args: Vec<String>,
    used: Vec<bool>,
    error: Option<String>,
}

impl Args {
    /// The process's own arguments (`std::env::args`).
    pub fn parse() -> Self {
        let mut argv = std::env::args();
        let bin = argv.next().unwrap_or_default();
        Self::new(bin.rsplit('/').next().unwrap_or_default(), argv.collect())
    }

    fn new(bin: &str, args: Vec<String>) -> Self {
        Self {
            bin: bin.to_owned(),
            used: vec![false; args.len()],
            args,
            error: None,
        }
    }

    fn take(&mut self, flag: &str) -> Option<usize> {
        let at = self.args.iter().position(|a| a == flag)?;
        self.used[at] = true;
        Some(at)
    }

    /// `true` if the bare switch `flag` is present.
    pub fn switch(&mut self, flag: &str) -> bool {
        self.take(flag).is_some()
    }

    /// The value following `flag`, if the flag is present.
    fn value<T: std::str::FromStr>(&mut self, flag: &str) -> Option<T> {
        let at = self.take(flag)?;
        let error = match self.args.get(at + 1).filter(|v| !v.starts_with("--")) {
            None => format!("{flag} needs a value"),
            Some(raw) => {
                self.used[at + 1] = true;
                match raw.parse() {
                    Ok(value) => return Some(value),
                    Err(_) => format!("invalid value '{raw}' for {flag}"),
                }
            }
        };
        self.error.get_or_insert(error);
        None
    }

    /// The value following `flag`, or `default` if the flag is absent.
    pub fn get<T: std::str::FromStr>(&mut self, flag: &str, default: T) -> T {
        self.value(flag).unwrap_or(default)
    }

    /// The value following `flag`, which must be present.
    pub fn required<T: std::str::FromStr + Default>(&mut self, flag: &str) -> T {
        self.value(flag).unwrap_or_else(|| {
            self.error.get_or_insert(format!("{flag} is required"));
            T::default()
        })
    }

    /// The shared `--threads N` flag (default 1, at least 1). Thread count
    /// affects wall-clock time only: every binary routes trials through
    /// the [`nightvision::campaign`] engine, whose merged output is
    /// byte-identical for any value.
    pub fn threads(&mut self) -> usize {
        self.get("--threads", 1).max(1)
    }

    /// The first malformed or missing value, or the first argument no
    /// getter consumed.
    fn check(&self) -> Result<(), String> {
        if let Some(error) = &self.error {
            return Err(error.clone());
        }
        let Some(at) = self.used.iter().position(|&used| !used) else {
            return Ok(());
        };
        let arg = &self.args[at];
        match at.checked_sub(1).map(|prev| &self.args[prev]) {
            Some(switch) if switch.starts_with("--") && !arg.starts_with("--") => {
                Err(format!("{switch} takes no value, got '{arg}'"))
            }
            _ => Err(format!("unexpected argument '{arg}'")),
        }
    }

    /// Ends parsing: on a malformed or missing value, or an argument no
    /// getter consumed, prints `<bin>: <error>` to stderr and exits with
    /// status 2.
    pub fn finish(&self) {
        if let Err(error) = self.check() {
            eprintln!("{}: {error}", self.bin);
            std::process::exit(2);
        }
    }

    /// Where a binary writes a document: the value of `flag`, else
    /// `target/<stem>_smoke.json` under `smoke` (so CI never dirties a
    /// checked-in baseline), else `<stem>.json`.
    pub fn out_path(&mut self, flag: &str, stem: &str, smoke: bool) -> String {
        self.value(flag).unwrap_or_else(|| {
            if smoke {
                format!("target/{stem}_smoke.json")
            } else {
                format!("{stem}.json")
            }
        })
    }
}

/// Writes `contents` to `path`, creating its parent directory first.
///
/// # Panics
///
/// Panics if the directory or file cannot be written.
pub fn write_output(path: &str, contents: &str) {
    if let Some(parent) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(parent).expect("create output directory");
    }
    std::fs::write(path, contents).expect("write output file");
}

/// `windows` 16-byte prediction windows chained at `mon + 0x40·i` (the
/// Figure 7 optimization).
pub fn window_chain(mon: u64, windows: usize) -> Vec<PwSpec> {
    (0..windows as u64)
        .map(|i| PwSpec::new(VirtAddr::new(mon + 0x40 * i), 16).expect("window"))
        .collect()
}

/// A victim fragment at `entry`: `nops` one-byte nops, then `halt`.
pub fn nop_fragment(entry: u64, nops: usize) -> Machine {
    let mut asm = Assembler::new(VirtAddr::new(entry));
    for _ in 0..nops {
        asm.nop();
    }
    asm.halt();
    Machine::new(asm.finish().expect("victim fragment assembles"))
}

/// The GCD victim as the fingerprinting and profiling experiments compile
/// it: default options, loaded at `0x40_0000`, operands `0xbeef_1235` and
/// 65537.
pub fn default_gcd() -> CompiledFunction {
    compile_gcd(
        &CompileOptions::default(),
        VirtAddr::new(0x40_0000),
        0xbeef_1235,
        65537,
    )
    .expect("GCD compiles")
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
pub fn row(cells: &[impl std::fmt::Display], widths: &[usize]) -> String {
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

    fn args(argv: &[&str]) -> Args {
        Args::new("repro_test", argv.iter().map(|a| a.to_string()).collect())
    }

    #[test]
    fn values_parse_and_default() {
        let mut a = args(&["--runs", "5", "--victim", "gcd"]);
        assert_eq!(a.get("--runs", 100usize), 5);
        assert_eq!(a.get("--victim", "both".to_string()), "gcd");
        assert_eq!(a.get("--top", 10usize), 10);
        assert!(!a.switch("--full"));
        assert_eq!(a.check(), Ok(()));
    }

    #[test]
    fn malformed_and_missing_values_are_rejected() {
        let mut a = args(&["--runs", "abc"]);
        assert_eq!(a.get("--runs", 100usize), 100);
        assert_eq!(a.check(), Err("invalid value 'abc' for --runs".into()));

        let mut a = args(&["--out", "--smoke"]);
        assert!(a.switch("--smoke"));
        assert_eq!(a.value::<String>("--out"), None);
        assert_eq!(a.check(), Err("--out needs a value".into()));
    }

    #[test]
    fn unknown_flags_are_rejected() {
        let mut a = args(&["--smoke", "--trails", "5"]);
        assert!(a.switch("--smoke"));
        assert_eq!(a.get("--trials", 6usize), 6);
        assert_eq!(a.check(), Err("unexpected argument '--trails'".into()));
    }

    #[test]
    fn a_switch_takes_no_value() {
        let mut a = args(&["--full", "175168"]);
        assert!(a.switch("--full"));
        assert_eq!(a.get("--functions", 20_000usize), 20_000);
        assert_eq!(a.check(), Err("--full takes no value, got '175168'".into()));
    }

    #[test]
    fn threads_clamp_to_one() {
        assert_eq!(args(&["--threads", "0"]).threads(), 1);
        assert_eq!(args(&["--threads", "4"]).threads(), 4);
        assert_eq!(args(&[]).threads(), 1);
    }

    #[test]
    fn child_server_flags_parse() {
        let mut a = args(&["--serve", "--spool", "spool", "--workers", "8"]);
        let flags = serve_load::child_server_flags(&mut a);
        assert_eq!(flags, Some(("spool".into(), 8)));
        assert_eq!(a.check(), Ok(()));

        let mut a = args(&["--serve", "--workers", "2"]);
        serve_load::child_server_flags(&mut a);
        assert_eq!(a.check(), Err("--spool is required".into()));

        let mut a = args(&["--smoke"]);
        assert_eq!(serve_load::child_server_flags(&mut a), None);
        assert!(a.check().is_err(), "--smoke is left to the caller");
    }

    #[test]
    fn table_rows_align() {
        let line = row(&["a", "12"], &[4, 6]);
        assert_eq!(line, "   a      12");
    }
}
