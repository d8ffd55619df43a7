//! NV-S: supervisor-level full PC-trace extraction (§4.3, §6.3).
//!
//! The attack combines four supervisor capabilities:
//!
//! 1. **Single-stepping** (SGX-Step): exactly one retirement unit per timer
//!    interrupt — [`nv_os::Enclave::single_step`];
//! 2. **Controlled channel**: code pages are kept non-executable; the page
//!    fault raised when the enclave crosses onto a page reveals the page
//!    *number* of the upcoming instruction (Fig. 9 lines 2–4);
//! 3. **NV-Core**: per stepped instruction, prime attacker PWs, step,
//!    probe — learning which page-offset ranges the instruction (and its
//!    speculative shadow) covered. Probing re-runs the attacker chain, so
//!    each probe is the next step's prime;
//! 4. **PW traversal** (Fig. 10): across deterministic re-executions,
//!    windows shrink from 32 bytes down to a single byte — first a sweep of
//!    128 disjoint 32-byte windows (`128/N` runs), then a binary search in
//!    the lowest matched window, then a final ±1-byte disambiguation that
//!    exploits the lookup's `offset ≥ PC` lower bound (Takeaway 2).

use std::ops::Range;

use nv_isa::{VirtAddr, BLOCK_BYTES, PAGE_BYTES};
use nv_obs::Phase;
use nv_os::{Enclave, StepExit};
use nv_uarch::Core;

use crate::error::{AttackError, ProbeFailureCause};
use crate::pw::PwSpec;
use crate::rig::{AttackerRig, Resilience};

/// Configuration of the NV-S attack.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SupervisorConfig {
    /// Windows primed per NV-Core call in the discovery pass (`N` of
    /// Fig. 10; the first pass takes `128 / N` enclave executions).
    pub windows_per_call: usize,
    /// Per-run step budget (defensive bound against wedged enclaves).
    pub max_steps: usize,
    /// §6.3 candidate disambiguation: when a step's measured PC equals the
    /// *next* step's, the earlier one is (almost always) the speculated
    /// branch target that the next step then architecturally reached —
    /// "ruling out the repeated candidates". Ruled-out steps report no PC.
    pub rule_out_repeats: bool,
    /// Noise resilience. `votes > 1` repeats every extraction run that
    /// many times — the enclave re-executes deterministically, so whole
    /// runs are NV-S's natural voting unit — and majority-votes each
    /// step's window matches; `retry_budget` re-runs failed passes before
    /// giving up with [`AttackError::RetriesExhausted`].
    pub resilience: Resilience,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            windows_per_call: 8,
            max_steps: 200_000,
            rule_out_repeats: true,
            resilience: Resilience::none(),
        }
    }
}

/// The measurement for one dynamic retirement unit.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StepMeasurement {
    /// The extracted PC, if the traversal resolved one.
    pub pc: Option<VirtAddr>,
    /// Page number from the controlled channel.
    pub page: u64,
    /// Whether the unit touched data memory (the access-bit channel used
    /// by call/ret detection, §6.4).
    pub data_access: bool,
}

/// The extracted dynamic PC trace.
#[derive(Clone, Debug, Default)]
pub struct ExtractedTrace {
    steps: Vec<StepMeasurement>,
}

impl ExtractedTrace {
    /// Per-step measurements in execution order.
    pub fn steps(&self) -> &[StepMeasurement] {
        &self.steps
    }

    /// The resolved PCs in order (unresolved steps skipped).
    pub fn pcs(&self) -> Vec<VirtAddr> {
        self.steps.iter().filter_map(|s| s.pc).collect()
    }

    /// Number of dynamic retirement units measured.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// `true` if no steps were measured.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Fraction of steps whose PC exactly matches `truth` (position-wise).
    /// Evaluation helper; the attacker cannot compute this.
    pub fn accuracy_against(&self, truth: &[VirtAddr]) -> f64 {
        if truth.is_empty() {
            return 1.0;
        }
        let correct = self
            .steps
            .iter()
            .zip(truth)
            .filter(|(m, t)| m.pc == Some(**t))
            .count();
        correct as f64 / truth.len() as f64
    }
}

/// Per-step working state of the traversal.
#[derive(Clone, Debug)]
struct StepState {
    page: u64,
    data_access: bool,
    /// Lowest matched 32-byte window (page offset of its start).
    lowest_window: Option<u64>,
    /// Current refinement interval (page offsets, half-open).
    lo: u64,
    hi: u64,
    /// Final resolved page offset.
    resolved: Option<u64>,
}

/// The NV-S attacker.
///
/// # Examples
///
/// Extracting the full dynamic PC trace of a private enclave:
///
/// ```
/// use nightvision::NvSupervisor;
/// use nv_os::Enclave;
/// use nv_isa::{Assembler, VirtAddr, Reg};
/// use nv_uarch::{Core, UarchConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut asm = Assembler::new(VirtAddr::new(0x40_0000));
/// asm.mov_ri(Reg::R0, 7);   // 7 bytes at offset 0
/// asm.add_ri8(Reg::R0, 1);  // 4 bytes at offset 7
/// asm.halt();               // offset 11
/// let mut enclave = Enclave::new(asm.finish()?);
/// let mut core = Core::new(UarchConfig::default());
///
/// let trace = NvSupervisor::default().extract_trace(&mut enclave, &mut core)?;
/// let pcs = trace.pcs();
/// assert_eq!(pcs[0], VirtAddr::new(0x40_0000));
/// assert_eq!(pcs[1], VirtAddr::new(0x40_0007));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, Default)]
pub struct NvSupervisor {
    config: SupervisorConfig,
}

impl NvSupervisor {
    /// Creates an attacker with the given configuration.
    pub fn new(config: SupervisorConfig) -> Self {
        NvSupervisor { config }
    }

    /// Runs the complete multi-pass attack of Fig. 9/Fig. 10 and returns
    /// the extracted trace. The enclave is reset between passes
    /// (deterministic re-execution).
    ///
    /// # Errors
    ///
    /// Propagates rig failures; fails if the enclave exceeds the step
    /// budget or wedges.
    pub fn extract_trace(
        &self,
        enclave: &mut Enclave,
        core: &mut Core,
    ) -> Result<ExtractedTrace, AttackError> {
        // Reconnaissance run: page numbers, data accesses, step count.
        core.obs_enter(Phase::Custom("recon"));
        let recon = self.reconnaissance(enclave, core);
        core.obs_exit(Phase::Custom("recon"));
        let mut steps = recon?;
        // One rig for the whole extraction, built once per window shape and
        // moved between steps ([`AttackerRig::retarget`]).
        let mut rig = None;

        // Pass 1 (Fig. 10): sweep 128 disjoint 32-byte windows, N per run.
        // N is capped by the LBR budget (two records per window per probe).
        let n = self
            .config
            .windows_per_call
            .clamp(1, nv_uarch::LBR_DEPTH / 2);
        let windows_per_page = (PAGE_BYTES / BLOCK_BYTES) as usize; // 128
        let mut group = 0;
        while group < windows_per_page {
            let count = n.min(windows_per_page - group);
            let offsets: Vec<u64> = (group..group + count)
                .map(|w| w as u64 * BLOCK_BYTES)
                .collect();
            core.obs_enter(Phase::Custom("extraction_run"));
            let sweep = self.window_sweep_run(enclave, core, &mut rig, &mut steps, &offsets);
            core.obs_exit(Phase::Custom("extraction_run"));
            sweep?;
            group += count;
        }
        for state in &mut steps {
            if let Some(window) = state.lowest_window {
                state.lo = window;
                state.hi = window + BLOCK_BYTES;
            } else {
                state.resolved = None;
                state.lo = u64::MAX; // nothing matched: give up on this step
                state.hi = u64::MAX;
            }
        }

        // Passes 2..: binary-search the lowest matched window down to a
        // 2-byte interval (one run per halving).
        let halvings = (BLOCK_BYTES as f64).log2() as u32 - 1; // 32 -> 2
        for _ in 0..halvings {
            core.obs_enter(Phase::Custom("extraction_run"));
            let refine = self.refine_run(enclave, core, &mut rig, &mut steps);
            core.obs_exit(Phase::Custom("extraction_run"));
            refine?;
        }

        // Final run: disambiguate the two remaining candidate bytes using
        // the lookup lower bound.
        core.obs_enter(Phase::Custom("extraction_run"));
        let last = self.final_byte_run(enclave, core, &mut rig, &mut steps);
        core.obs_exit(Phase::Custom("extraction_run"));
        last?;

        let mut measurements: Vec<StepMeasurement> = steps
            .into_iter()
            .map(|s| StepMeasurement {
                pc: s
                    .resolved
                    .map(|offset| VirtAddr::new(s.page * PAGE_BYTES + offset)),
                page: s.page,
                data_access: s.data_access,
            })
            .collect();

        // §6.3 candidate rule-out: the speculative overshoot of step i
        // runs ahead into step i+1's instruction (and, at taken branches,
        // its target), so a step whose measured base equals the *next*
        // step's base was measuring its successor's speculative footprint,
        // not itself. Drop those PCs rather than report wrong ones.
        if self.config.rule_out_repeats {
            for i in 0..measurements.len().saturating_sub(1) {
                if measurements[i].pc.is_some() && measurements[i].pc == measurements[i + 1].pc {
                    measurements[i].pc = None;
                }
            }
        }

        Ok(ExtractedTrace {
            steps: measurements,
        })
    }

    /// Run 0: drive the enclave start-to-finish under the controlled
    /// channel alone, learning per-step page numbers and data accesses.
    fn reconnaissance(
        &self,
        enclave: &mut Enclave,
        core: &mut Core,
    ) -> Result<Vec<StepState>, AttackError> {
        enclave.reset();
        let pages: Vec<u64> = enclave.code_pages().to_vec();
        for &page in &pages {
            enclave.page_table_mut().set_executable(page, false);
        }
        let mut steps = Vec::new();
        let mut current_page = None;
        for _ in 0..self.config.max_steps {
            AttackError::check_deadline(core)?;
            match enclave.single_step(core) {
                step if matches!(step.exit, StepExit::PageFault { .. }) => {
                    let StepExit::PageFault { page } = step.exit else {
                        unreachable!()
                    };
                    // Fig. 9 lines 2-4: make the next page executable,
                    // everything else non-executable.
                    for &p in &pages {
                        enclave.page_table_mut().set_executable(p, p == page);
                    }
                    current_page = Some(page);
                }
                step => {
                    // A step retired before the controlled channel ever
                    // reported a page: the channel is wedged.
                    let page = current_page
                        .ok_or(AttackError::probe_failed(ProbeFailureCause::ChainWedged))?;
                    steps.push(StepState {
                        page,
                        data_access: !step.data_pages.is_empty(),
                        lowest_window: None,
                        lo: 0,
                        hi: 0,
                        resolved: None,
                    });
                    match step.exit {
                        StepExit::Finished => return Ok(steps),
                        StepExit::Retired => {}
                        StepExit::Wedged => {
                            return Err(AttackError::probe_failed(ProbeFailureCause::ChainWedged))
                        }
                        StepExit::PageFault { .. } => unreachable!(),
                    }
                }
            }
        }
        Err(AttackError::probe_failed(
            ProbeFailureCause::StepBudgetExhausted {
                consumed: self.config.max_steps as u64,
                limit: self.config.max_steps as u64,
            },
        ))
    }

    /// One enclave execution measuring every step against the same group
    /// of 32-byte windows (offsets are page-relative).
    fn window_sweep_run(
        &self,
        enclave: &mut Enclave,
        core: &mut Core,
        rig: &mut Option<AttackerRig>,
        steps: &mut [StepState],
        window_offsets: &[u64],
    ) -> Result<(), AttackError> {
        self.stepped_run(
            enclave,
            core,
            rig,
            steps,
            |state, schedule| {
                let base = VirtAddr::new(state.page * PAGE_BYTES);
                schedule.extend(window_offsets.iter().map(|&offset| {
                    PwSpec::new(base.offset(offset), BLOCK_BYTES).expect("32B window is valid")
                }));
            },
            |state, pws, matched| {
                for (pw, &hit) in pws.iter().zip(matched) {
                    if hit {
                        let offset = pw.start().page_offset();
                        state.lowest_window =
                            Some(state.lowest_window.map_or(offset, |low| low.min(offset)));
                    }
                }
            },
        )
    }

    /// One enclave execution halving each step's candidate interval.
    fn refine_run(
        &self,
        enclave: &mut Enclave,
        core: &mut Core,
        rig: &mut Option<AttackerRig>,
        steps: &mut [StepState],
    ) -> Result<(), AttackError> {
        self.stepped_run(
            enclave,
            core,
            rig,
            steps,
            |state, schedule| {
                if state.lo == u64::MAX || state.hi - state.lo <= 2 {
                    return;
                }
                let mid = state.lo + (state.hi - state.lo) / 2;
                let base = VirtAddr::new(state.page * PAGE_BYTES);
                schedule.push(
                    PwSpec::from_range(base.offset(state.lo), base.offset(mid))
                        .expect("refinement interval >= 2 bytes"),
                );
            },
            |state, _pws, matched| {
                if state.lo == u64::MAX || state.hi - state.lo <= 2 {
                    return;
                }
                let mid = state.lo + (state.hi - state.lo) / 2;
                if matched.first().copied().unwrap_or(false) {
                    state.hi = mid;
                } else {
                    state.lo = mid;
                }
            },
        )
    }

    /// Final run: for each step with interval `[x, x+2)`, prime a window
    /// whose signal byte is `x`. A match means the fetch started at or
    /// below `x`, i.e. the instruction starts at `x`; otherwise `x+1`.
    fn final_byte_run(
        &self,
        enclave: &mut Enclave,
        core: &mut Core,
        rig: &mut Option<AttackerRig>,
        steps: &mut [StepState],
    ) -> Result<(), AttackError> {
        self.stepped_run(
            enclave,
            core,
            rig,
            steps,
            |state, schedule| {
                if state.lo == u64::MAX {
                    return;
                }
                let base = VirtAddr::new(state.page * PAGE_BYTES);
                let x = base.offset(state.lo);
                schedule.push(PwSpec::from_range(x - 1u64, x.offset(1)).expect("2-byte window"));
            },
            |state, _pws, matched| {
                if state.lo == u64::MAX {
                    return;
                }
                state.resolved = Some(if matched.first().copied().unwrap_or(false) {
                    state.lo
                } else {
                    state.lo + 1
                });
            },
        )
    }

    /// The shared per-run driver. `choose_pws` appends a step's windows
    /// (in address order, possibly none) to the run's schedule, which is
    /// built once: `steps` stays immutable while votes are tallied, so
    /// every re-execution probes the identical windows. With
    /// `resilience.votes == 1` this is one pass of
    /// [`NvSupervisor::stepped_run_once`]; with more votes the
    /// deterministic enclave is re-executed `votes` times — the whole run
    /// is NV-S's voting unit, since a probe pass consumes its own signal
    /// and only a fresh re-execution can reproduce it — and each step's
    /// window matches are decided by majority before a single `record`
    /// pass applies them. Runs that fail with a probe error are re-run up
    /// to `resilience.retry_budget` times. `rig` is the extraction's rig,
    /// lent to every run; a run that fails drops it.
    fn stepped_run(
        &self,
        enclave: &mut Enclave,
        core: &mut Core,
        rig: &mut Option<AttackerRig>,
        steps: &mut [StepState],
        choose_pws: impl Fn(&StepState, &mut Vec<PwSpec>),
        mut record: impl FnMut(&mut StepState, &[PwSpec], &[bool]),
    ) -> Result<(), AttackError> {
        let resilience = self.config.resilience;
        let votes = resilience.votes.max(1);
        let schedule = Schedule::build(steps, choose_pws);
        // Per scheduled window, its matches over the completed runs, and
        // over the current run: merged only if the run completes, since a
        // failed run's partial measurements must not influence the vote.
        let mut tally = vec![0usize; schedule.pws.len()];
        let mut run_tally = vec![0usize; schedule.pws.len()];
        let mut completed = 0usize;
        let mut retries_left = resilience.retry_budget;
        let mut retries_used = 0usize;
        while completed < votes {
            run_tally.fill(0);
            let result = self.stepped_run_once(enclave, core, rig, &schedule, |index, matched| {
                let counts = &mut run_tally[schedule.starts[index]..];
                for (count, &m) in counts.iter_mut().zip(matched) {
                    *count += usize::from(m);
                }
            });
            if result.is_err() {
                // A failed pass may leave the rig's stack unbalanced, so
                // the next run builds afresh.
                *rig = None;
            }
            match result {
                Ok(()) => {
                    for (total, run) in tally.iter_mut().zip(&run_tally) {
                        *total += run;
                    }
                    completed += 1;
                }
                Err(err @ AttackError::ProbeFailed { .. }) => {
                    if retries_left == 0 {
                        if retries_used == 0 {
                            // No retries were configured: propagate the
                            // underlying failure unchanged (legacy
                            // behaviour of the un-voted path).
                            return Err(err);
                        }
                        let AttackError::ProbeFailed { cause, .. } = err else {
                            unreachable!("guarded by the match arm");
                        };
                        return Err(AttackError::RetriesExhausted {
                            retries: retries_used,
                            budget: resilience.retry_budget,
                            last: cause,
                        });
                    }
                    retries_left -= 1;
                    retries_used += 1;
                }
                Err(other) => return Err(other),
            }
        }
        let mut matched = Vec::new();
        for (index, state) in steps.iter_mut().enumerate() {
            let window_range = schedule.range(index);
            if window_range.is_empty() {
                continue;
            }
            matched.clear();
            matched.extend(
                tally[window_range.clone()]
                    .iter()
                    .map(|&count| 2 * count > votes),
            );
            record(state, &schedule.pws[window_range], &matched);
        }
        Ok(())
    }

    /// One extraction run: reset, controlled channel, and per step: take
    /// the step's windows from `schedule`, step, probe, and report the
    /// matches to `observe` (keyed by step index). The rig is calibrated
    /// at the run's first measured step and whenever the windows change;
    /// otherwise the previous step's probe is this step's prime, and an
    /// unmeasured step in between costs one re-prime. `rig` carries the
    /// rig from run to run: new windows of its shape move it
    /// ([`AttackerRig::retarget`]), so a rig is built once per shape.
    fn stepped_run_once(
        &self,
        enclave: &mut Enclave,
        core: &mut Core,
        rig: &mut Option<AttackerRig>,
        schedule: &Schedule,
        mut observe: impl FnMut(usize, &[bool]),
    ) -> Result<(), AttackError> {
        enclave.reset();
        let pages: Vec<u64> = enclave.code_pages().to_vec();
        for &page in &pages {
            enclave.page_table_mut().set_executable(page, false);
        }
        // Whether `rig` has been calibrated in this run.
        let mut calibrated = false;
        // Whether the victim stepped unmeasured since the rig's last probe,
        // which may have disturbed the entries it primed.
        let mut stale = false;
        // Page faults are absorbed inside the step loop below, so each outer
        // iteration retires exactly one instruction and `index` can double as
        // the step budget counter.
        for index in 0..self.config.max_steps {
            AttackError::check_deadline(core)?;
            if index >= schedule.steps() {
                return Ok(());
            }
            let pws = &schedule.pws[schedule.range(index)];
            // Prime: calibrating primes the rig, and so does the previous
            // step's probe, unless the victim stepped unmeasured since.
            // Each run calibrates afresh at its first measured step. The
            // windows are scheduled in address order, the order a rig keeps
            // them in, so the rig's own windows say whether it can stay as
            // it is or move ([`AttackerRig::retarget`]).
            if pws.is_empty() {
                stale = true;
            } else {
                match rig {
                    Some(rig) if calibrated && rig.pws() == pws => {
                        if stale {
                            rig.prime(core)?;
                        }
                    }
                    _ => {
                        let reused = rig
                            .as_mut()
                            .is_some_and(|rig| rig.pws() == pws || rig.retarget(pws));
                        if !reused {
                            *rig = Some(AttackerRig::new(pws.to_vec())?);
                        }
                        rig.as_mut().expect("just set").calibrate(core)?;
                        calibrated = true;
                    }
                }
                stale = false;
            }
            // Step (handling controlled-channel faults transparently).
            let step = loop {
                let step = enclave.single_step(core);
                match step.exit {
                    StepExit::PageFault { page } => {
                        for &p in &pages {
                            enclave.page_table_mut().set_executable(p, p == page);
                        }
                        // A fault may have disturbed nothing, but re-prime
                        // for hygiene before the real step.
                        if let Some(rig) = rig.as_mut() {
                            if !pws.is_empty() {
                                rig.prime(core)?;
                            }
                        }
                    }
                    StepExit::Wedged => {
                        return Err(AttackError::probe_failed(ProbeFailureCause::ChainWedged))
                    }
                    _ => break step,
                }
            };
            // Probe.
            if !pws.is_empty() {
                if let Some(rig) = rig.as_mut() {
                    let matched = rig.probe(core)?;
                    observe(index, &matched);
                }
            }
            if matches!(step.exit, StepExit::Finished) {
                return Ok(());
            }
        }
        Err(AttackError::probe_failed(
            ProbeFailureCause::StepBudgetExhausted {
                consumed: self.config.max_steps as u64,
                limit: self.config.max_steps as u64,
            },
        ))
    }
}

/// One extraction run's window schedule: every step's windows back to
/// back in one buffer, step `i`'s at `starts[i]..starts[i + 1]`.
#[derive(Debug)]
struct Schedule {
    pws: Vec<PwSpec>,
    starts: Vec<usize>,
}

impl Schedule {
    /// The schedule `choose_pws` appends for each of `steps`.
    fn build(steps: &[StepState], choose_pws: impl Fn(&StepState, &mut Vec<PwSpec>)) -> Self {
        let mut pws = Vec::new();
        let mut starts = Vec::with_capacity(steps.len() + 1);
        starts.push(0);
        for state in steps {
            choose_pws(state, &mut pws);
            starts.push(pws.len());
        }
        Schedule { pws, starts }
    }

    /// Steps scheduled.
    fn steps(&self) -> usize {
        self.starts.len() - 1
    }

    /// Where step `index`'s windows lie in [`Schedule::pws`].
    fn range(&self, index: usize) -> Range<usize> {
        self.starts[index]..self.starts[index + 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nv_isa::{Assembler, Cond, Reg};
    use nv_obs::Recorder;
    use nv_uarch::{Perturbation, UarchConfig};
    use nv_victims::{GcdVictim, VictimConfig};

    fn extract(build: impl FnOnce(&mut Assembler)) -> (ExtractedTrace, Vec<VirtAddr>) {
        let mut asm = Assembler::new(VirtAddr::new(0x40_0000));
        build(&mut asm);
        let program = asm.finish().unwrap();
        let truth = Enclave::ground_truth_trace(program.clone(), UarchConfig::default());

        let mut enclave = Enclave::new(program);
        let mut core = Core::new(UarchConfig::default());
        let trace = NvSupervisor::default()
            .extract_trace(&mut enclave, &mut core)
            .unwrap();
        (trace, truth)
    }

    fn straight_line(asm: &mut Assembler) {
        asm.mov_ri(Reg::R0, 1); // 7 bytes
        asm.add_ri8(Reg::R0, 2); // 4
        asm.nop(); // 1
        asm.mul_rr(Reg::R0, Reg::R0); // 4
        asm.mov_abs(Reg::R1, 42); // 10
        asm.halt();
    }

    #[test]
    fn straight_line_code_extracted_exactly() {
        let (trace, truth) = extract(straight_line);
        assert_eq!(trace.len(), truth.len());
        assert_eq!(
            trace.accuracy_against(&truth),
            1.0,
            "extracted {:?} vs truth {:?}",
            trace.pcs(),
            truth
        );
    }

    #[test]
    fn rigs_are_calibrated_once_and_every_probe_primes_the_next_step() {
        // The straight-line program: six steps, all in the page's first
        // 32-byte block, at offsets 0, 7, 11, 12, 16 and 26 (the halt).
        // Each of the 21 runs (16 sweep, 4 halvings, 1 final) probes every
        // step once and re-primes once, after the page fault on entry. A
        // rig is calibrated only where the windows change from one step to
        // the next: once per sweep run (all steps share a page) = 16;
        // halving runs 1-4 measure the intervals [0,32); [0,16) x4 and
        // [16,32) x2; [0,8) [0,8) [8,16) [8,16) [16,24) [24,32); then six
        // distinct ones = 1 + 2 + 4 + 6; the final run six distinct
        // two-byte windows = 6.
        let mut asm = Assembler::new(VirtAddr::new(0x40_0000));
        straight_line(&mut asm);
        let mut enclave = Enclave::new(asm.finish().unwrap());
        let mut core = Core::new(UarchConfig::default());
        core.attach_obs(Recorder::new(0));
        let trace = NvSupervisor::default()
            .extract_trace(&mut enclave, &mut core)
            .unwrap();
        assert_eq!(trace.len(), 6);
        let metrics = core.detach_obs().unwrap().metrics();
        let spans = |phase| metrics.phase(phase).map_or(0, |stats| stats.count);
        assert_eq!(spans(Phase::Calibrate), 16 + (1 + 2 + 4 + 6) + 6);
        assert_eq!(spans(Phase::Probe), 21 * 6);
        assert_eq!(spans(Phase::Prime), 21);
    }

    #[test]
    fn every_run_calibrates_at_its_first_measured_step() {
        // Three votes re-run each schedule back to back, so a sweep run's
        // next vote starts on the windows its last step probed. The rig is
        // carried over but still calibrated afresh: three times the counts
        // of the single-vote extraction above.
        let mut asm = Assembler::new(VirtAddr::new(0x40_0000));
        straight_line(&mut asm);
        let mut enclave = Enclave::new(asm.finish().unwrap());
        let mut core = Core::new(UarchConfig::default());
        core.attach_obs(Recorder::new(0));
        let supervisor = NvSupervisor::new(SupervisorConfig {
            resilience: Resilience {
                votes: 3,
                retry_budget: 0,
            },
            ..SupervisorConfig::default()
        });
        let trace = supervisor.extract_trace(&mut enclave, &mut core).unwrap();
        assert_eq!(trace.len(), 6);
        let metrics = core.detach_obs().unwrap().metrics();
        let spans = |phase| metrics.phase(phase).map_or(0, |stats| stats.count);
        assert_eq!(spans(Phase::Calibrate), 3 * (16 + (1 + 2 + 4 + 6) + 6));
        assert_eq!(spans(Phase::Probe), 3 * 21 * 6);
    }

    #[test]
    fn an_unmeasured_step_is_not_reported_by_the_next_probe() {
        // Step 1 runs inside the monitored window [64, 96) but measures
        // nothing; step 2 runs far from it. Step 2's probe must read
        // quiet: the rig is re-primed after the unmeasured step rather
        // than trusting the probe of step 0.
        let base = VirtAddr::new(0x40_0000);
        let mut asm = Assembler::new(base);
        asm.jmp32("inside");
        asm.pad_to(base.offset(64));
        asm.label("inside");
        asm.jmp32("far");
        asm.pad_to(base.offset(200));
        asm.label("far");
        asm.nop();
        asm.halt();
        let mut enclave = Enclave::new(asm.finish().unwrap());
        let mut core = Core::new(UarchConfig::default());
        let supervisor = NvSupervisor::default();
        let mut steps = supervisor.reconnaissance(&mut enclave, &mut core).unwrap();
        assert_eq!(steps.len(), 4);
        steps[1].lo = u64::MAX;
        let window = PwSpec::new(base.offset(64), BLOCK_BYTES).unwrap();
        let schedule = Schedule::build(&steps, |state, schedule| {
            if state.lo != u64::MAX {
                schedule.push(window);
            }
        });
        let mut matched = vec![None; steps.len()];
        supervisor
            .stepped_run_once(
                &mut enclave,
                &mut core,
                &mut None,
                &schedule,
                |index, hits| {
                    matched[index] = Some(hits[0]);
                },
            )
            .unwrap();
        assert_eq!(matched[1], None);
        assert_eq!(matched[2], Some(false), "{matched:?}");
    }

    #[test]
    fn byte_granularity_across_block_boundaries() {
        let (trace, truth) = extract(|asm| {
            // Straddle several 32-byte blocks with odd-length instructions.
            for i in 0..20 {
                if i % 3 == 0 {
                    asm.nop();
                } else {
                    asm.add_ri8(Reg::R2, 1);
                }
            }
            asm.halt();
        });
        assert!(trace.accuracy_against(&truth) >= 0.95);
    }

    #[test]
    fn taken_jumps_are_located_at_their_start() {
        let (trace, truth) = extract(|asm| {
            asm.nop();
            asm.jmp32("target"); // 5 bytes at 0x40_0001
            asm.nop();
            asm.nop();
            asm.label("target");
            asm.add_ri8(Reg::R0, 1);
            asm.halt();
        });
        let pcs = trace.pcs();
        assert!(
            pcs.contains(&VirtAddr::new(0x40_0001)),
            "jump start extracted: {pcs:?} (truth {truth:?})"
        );
        assert!(trace.accuracy_against(&truth) >= 0.75);
    }

    #[test]
    fn data_accesses_flow_through() {
        let (trace, _) = extract(|asm| {
            asm.mov_ri(Reg::R1, 0x9000);
            asm.store(Reg::R1, 0, Reg::R0);
            asm.halt();
        });
        let flags: Vec<bool> = trace.steps().iter().map(|s| s.data_access).collect();
        assert!(!flags[0], "mov");
        assert!(flags[1], "store");
    }

    #[test]
    fn loop_iterations_appear_repeatedly() {
        // Without the §6.3 rule-out, a tight loop's repeated PCs stay in
        // the trace (polluted by speculated loop-back targets, so the
        // *body* PC dominates); with it, consecutive duplicates collapse.
        let mut asm = Assembler::new(VirtAddr::new(0x40_0000));
        asm.mov_ri(Reg::R0, 3);
        asm.label("loop");
        asm.sub_ri8(Reg::R0, 1);
        asm.cmp_ri8(Reg::R0, 0);
        asm.jcc8(Cond::Ne, "loop");
        asm.halt();
        let program = asm.finish().unwrap();

        let extract_with = |rule_out: bool| {
            let mut enclave = Enclave::new(program.clone());
            let mut core = Core::new(UarchConfig::default());
            NvSupervisor::new(SupervisorConfig {
                rule_out_repeats: rule_out,
                ..SupervisorConfig::default()
            })
            .extract_trace(&mut enclave, &mut core)
            .unwrap()
        };

        let raw = extract_with(false);
        let body = VirtAddr::new(0x40_0007);
        let hits = raw.pcs().iter().filter(|&&pc| pc == body).count();
        assert!(hits >= 3, "raw trace {:?}", raw.pcs());

        // Every extracted PC is a *valid executed instruction start*: the
        // §6.3 speculation ambiguity can substitute a speculated branch
        // target's PC (the paper's mismeasurement class) but never
        // fabricates mid-instruction addresses here.
        let mut valid = [
            VirtAddr::new(0x40_0000),
            VirtAddr::new(0x40_0007),
            VirtAddr::new(0x40_000b),
            VirtAddr::new(0x40_0011),
        ];
        valid.sort();
        for pc in raw.pcs() {
            assert!(valid.binary_search(&pc).is_ok(), "bad pc {pc}");
        }

        // The rule-out pass keeps only the architecturally confirmed
        // entries of each duplicate run.
        let ruled = extract_with(true);
        assert!(ruled.pcs().len() < raw.pcs().len());
        assert!(ruled.pcs().contains(&body));
        assert_eq!(ruled.len(), raw.len(), "steps counted identically");
    }

    #[test]
    fn voted_extraction_matches_single_shot() {
        // NV-S's voting unit is the whole deterministic enclave re-run.
        // On a quiet core every re-execution is identical, so 3-vote
        // majority extraction must agree bit-for-bit with the single-shot
        // path; under mild injected jitter the adaptive margins absorb
        // the noise and the voted trace still matches.
        let mut asm = Assembler::new(VirtAddr::new(0x40_0000));
        asm.mov_ri(Reg::R0, 2);
        asm.label("loop");
        asm.sub_ri8(Reg::R0, 1);
        asm.cmp_ri8(Reg::R0, 0);
        asm.jcc8(Cond::Ne, "loop");
        asm.halt();
        let program = asm.finish().unwrap();

        let extract_with = |resilience: Resilience, perturbation: Perturbation| {
            let mut enclave = Enclave::new(program.clone());
            let mut core = Core::new(UarchConfig {
                perturbation,
                ..UarchConfig::default()
            });
            NvSupervisor::new(SupervisorConfig {
                resilience,
                ..SupervisorConfig::default()
            })
            .extract_trace(&mut enclave, &mut core)
            .unwrap()
            .pcs()
        };

        let single = extract_with(Resilience::none(), Perturbation::none());
        let voted = extract_with(
            Resilience {
                votes: 3,
                retry_budget: 2,
            },
            Perturbation::none(),
        );
        assert_eq!(voted, single);

        let jitter = Perturbation {
            seed: 13,
            eviction_interval: 0,
            jitter_amplitude: 2,
            squash_per_million: 0,
        };
        assert_eq!(extract_with(Resilience::paper_robust(), jitter), single);
    }

    #[test]
    fn voted_extraction_of_hardened_gcd_survives_evictions_and_jitter() {
        // A branchy, page-spanning victim under cross-tenant evictions and
        // timer jitter (and, at paper-calibrated noise, preemption
        // squashes): whole-run voting must still reproduce the quiet
        // single-shot trace exactly.
        let victim = GcdVictim::build(27, 12, &VictimConfig::paper_hardened()).unwrap();
        let extract_with = |resilience: Resilience, perturbation: Perturbation| {
            let mut enclave = Enclave::new(victim.program().clone());
            let mut core = Core::new(UarchConfig {
                perturbation,
                ..UarchConfig::default()
            });
            NvSupervisor::new(SupervisorConfig {
                resilience,
                ..SupervisorConfig::default()
            })
            .extract_trace(&mut enclave, &mut core)
            .unwrap()
            .pcs()
        };

        let quiet = extract_with(Resilience::none(), Perturbation::none());
        assert!(!quiet.is_empty());
        let evict_and_jitter = Perturbation {
            seed: 7,
            eviction_interval: 900,
            jitter_amplitude: 5,
            squash_per_million: 0,
        };
        for noise in [evict_and_jitter, Perturbation::paper_calibrated(7)] {
            assert_eq!(
                extract_with(Resilience::paper_robust(), noise),
                quiet,
                "{noise:?}"
            );
        }
    }

    #[test]
    fn fused_pairs_measure_the_leading_instruction() {
        let (trace, _) = extract(|asm| {
            asm.mov_ri(Reg::R0, 1);
            asm.cmp_ri8(Reg::R0, 1); // 4 bytes at 0x40_0007, fuses with:
            asm.jcc8(Cond::Eq, "t"); // 2 bytes at 0x40_000b
            asm.label("t");
            asm.halt();
        });
        let pcs = trace.pcs();
        // §7.3: only the leading instruction of a fused pair is measured.
        assert!(pcs.contains(&VirtAddr::new(0x40_0007)));
        assert!(
            !pcs.contains(&VirtAddr::new(0x40_000b)),
            "the fused jcc must be invisible to single-stepping: {pcs:?}"
        );
    }
}
