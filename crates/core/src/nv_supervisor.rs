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
//!    128 disjoint 32-byte windows (`⌈128/N⌉` runs), then a binary search
//!    in the lowest matched window, then a final ±1-byte disambiguation
//!    that exploits the lookup's `offset ≥ PC` lower bound (Takeaway 2).
//!
//! [`NvSupervisor::extract_trace`] writes Fig. 10's run count out as a
//! list of passes — one reconnaissance run, `⌈128/N⌉` sweep runs, four
//! halvings and one final-byte run — and drives the enclave through each
//! with the same controlled-channel loop.

use std::iter;
use std::ops::Range;

use nv_isa::{VirtAddr, BLOCK_BYTES, PAGE_BYTES};
use nv_obs::Phase;
use nv_os::{Enclave, StepExit};
use nv_uarch::Core;

use crate::error::{AttackError, ProbeFailureCause};
use crate::pw::PwSpec;
use crate::rig::AttackerRig;

/// Per-run step budget (defensive bound against wedged enclaves).
const MAX_STEPS: usize = 200_000;

/// Configuration of the NV-S attack.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SupervisorConfig {
    /// Windows primed per NV-Core call in the discovery pass (`N` of
    /// Fig. 10; the first pass takes `⌈128 / N⌉` enclave executions).
    pub windows_per_call: usize,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            windows_per_call: 8,
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
    /// Candidate page offsets (half-open): the lowest matched 32-byte
    /// window, halved by each refinement run; `None` if no window matched.
    candidate: Option<Range<u64>>,
    /// Final resolved page offset.
    resolved: Option<u64>,
}

/// One enclave execution of Fig. 10, named by what it measures per step.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Pass<'a> {
    /// Run 0: the controlled channel alone. It measures nothing and
    /// records each step's page number and data access.
    Recon,
    /// Every step against the same group of 32-byte windows (page
    /// offsets); a step's candidate is the lowest window that matched.
    Sweep(&'a [u64]),
    /// Halves each step's candidate: a match keeps the lower half.
    Halve,
    /// For a step with candidate `[x, x+2)`, a window whose signal byte is
    /// `x`. A match means the fetch started at or below `x`, i.e. the
    /// instruction starts at `x`; otherwise it starts at `x+1`.
    FinalByte,
}

impl Pass<'_> {
    /// Pushes the step's windows, in address order (possibly none).
    fn windows(self, state: &StepState, pws: &mut Vec<PwSpec>) {
        let base = VirtAddr::new(state.page * PAGE_BYTES);
        match (self, &state.candidate) {
            (Pass::Sweep(offsets), _) => pws.extend(offsets.iter().map(|&offset| {
                PwSpec::new(base.offset(offset), BLOCK_BYTES).expect("32B window is valid")
            })),
            (Pass::Halve, Some(c)) if c.end - c.start > 2 => pws.push(
                PwSpec::from_range(base.offset(c.start), base.offset(midpoint(c)))
                    .expect("refinement interval >= 2 bytes"),
            ),
            (Pass::FinalByte, Some(c)) => {
                let x = base.offset(c.start);
                pws.push(PwSpec::from_range(x - 1u64, x.offset(1)).expect("2-byte window"));
            }
            _ => {}
        }
    }

    /// Applies the matches of the step's windows `pws` to its state.
    fn record(self, state: &mut StepState, pws: &[PwSpec], matched: &[bool]) {
        match (self, &mut state.candidate) {
            (Pass::Sweep(_), candidate) => {
                for (pw, _) in pws.iter().zip(matched).filter(|(_, &hit)| hit) {
                    let offset = pw.start().page_offset();
                    if candidate.as_ref().is_none_or(|c| offset < c.start) {
                        *candidate = Some(offset..offset + BLOCK_BYTES);
                    }
                }
            }
            (Pass::Halve, Some(c)) => {
                let mid = midpoint(c);
                if matched[0] {
                    c.end = mid;
                } else {
                    c.start = mid;
                }
            }
            (Pass::FinalByte, Some(c)) => {
                state.resolved = Some(if matched[0] { c.start } else { c.start + 1 });
            }
            _ => {}
        }
    }
}

fn midpoint(interval: &Range<u64>) -> u64 {
    interval.start + (interval.end - interval.start) / 2
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
    /// the extracted trace: `1 + ⌈128/N⌉ + 4 + 1` runs, each under a
    /// `recon` or `extraction_run` span. The enclave is reset between runs
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
        // Fig. 10: reconnaissance; the sweep of 128 disjoint 32-byte
        // windows, N per run (N is capped by the LBR budget, two records
        // per window per probe); halvings of the lowest matched window down
        // to 2 bytes; the final byte.
        let n = self
            .config
            .windows_per_call
            .clamp(1, nv_uarch::LBR_DEPTH / 2);
        let windows: Vec<u64> = (0..PAGE_BYTES).step_by(BLOCK_BYTES as usize).collect();
        let halvings = BLOCK_BYTES.trailing_zeros() - 1; // 32 -> 2 bytes
        let passes = iter::once(Pass::Recon)
            .chain(windows.chunks(n).map(Pass::Sweep))
            .chain((0..halvings).map(|_| Pass::Halve))
            .chain(iter::once(Pass::FinalByte));

        let mut steps = Vec::new();
        // One rig for the whole extraction, built once per window shape and
        // moved between steps ([`AttackerRig::retarget`]).
        let mut rig = None;
        for pass in passes {
            let span = Phase::Custom(match pass {
                Pass::Recon => "recon",
                _ => "extraction_run",
            });
            core.obs_enter(span);
            let run = stepped_run(pass, enclave, core, &mut rig, &mut steps);
            core.obs_exit(span);
            run?;
        }

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
        rule_out_repeats(&mut measurements);
        Ok(ExtractedTrace {
            steps: measurements,
        })
    }
}

/// §6.3 candidate rule-out: the speculative overshoot of step i runs ahead
/// into step i+1's instruction (and, at taken branches, its target), so a
/// step whose measured PC equals the *next* step's was measuring its
/// successor's speculative footprint, not itself. Those steps report no PC
/// rather than a wrong one.
fn rule_out_repeats(measurements: &mut [StepMeasurement]) {
    for i in 1..measurements.len() {
        if measurements[i - 1].pc.is_some() && measurements[i - 1].pc == measurements[i].pc {
            measurements[i - 1].pc = None;
        }
    }
}

/// One enclave execution of `pass`. [`NvSupervisor::extract_trace`] calls
/// it once per entry of its pass list, so the runs are Fig. 10's count.
/// Each run is: reset, the controlled channel (every code
/// page non-executable, and the faulting page made executable at each
/// fault, Fig. 9 lines 2-4), and per step: `pass` puts the step's windows
/// in a buffer, the victim steps, the rig probes, and `pass` applies the
/// matches to the step's state. A step's windows depend on its own state
/// alone, which only its own matches change, so every step is measured
/// against the windows it had when the run began. The first failure
/// propagates unchanged.
///
/// [`Pass::Recon`] has no steps to measure yet: it appends one state per
/// retired step, with the page of the last fault, and a step that retires
/// before any fault means the channel is wedged. Later runs end after the
/// last step it found. The step budget counts retired steps, not page
/// faults, in every run: recon too fails once 200,000 steps have retired,
/// which only an enclave that runs that long can tell.
///
/// `rig` carries the rig from run to run. A step whose windows are the
/// rig's own keeps it: the previous step's probe is this step's prime,
/// and only an unmeasured step in between (or a run boundary) costs a
/// re-prime. New windows of the rig's shape move it
/// ([`AttackerRig::retarget`]) with its calibration, and it is primed
/// once. Only a new shape builds and calibrates a rig, so each shape is
/// calibrated once per extraction.
fn stepped_run(
    pass: Pass,
    enclave: &mut Enclave,
    core: &mut Core,
    rig: &mut Option<AttackerRig>,
    steps: &mut Vec<StepState>,
) -> Result<(), AttackError> {
    enclave.reset();
    let pages: Vec<u64> = enclave.code_pages().to_vec();
    for &page in &pages {
        enclave.page_table_mut().set_executable(page, false);
    }
    // The page of the last fault, which the current step runs on.
    let mut page = None;
    // The current step's windows.
    let mut pws = Vec::new();
    // Whether the entries the rig primed may have been disturbed since
    // its last probe: the run just began, or the victim stepped
    // unmeasured since.
    let mut stale = true;
    // Page faults are absorbed inside the step loop below, so each outer
    // iteration retires exactly one instruction and `index` can double as
    // the step budget counter.
    for index in 0..MAX_STEPS {
        AttackError::check_deadline(core)?;
        pws.clear();
        match steps.get(index) {
            Some(state) => pass.windows(state, &mut pws),
            None if pass != Pass::Recon => return Ok(()),
            None => {}
        }
        // Prime: calibrating or moving the rig primes it, and so does
        // the previous step's probe, unless the victim stepped
        // unmeasured since. The windows are chosen in address order, the
        // order a rig keeps them in, so the rig's own windows say whether
        // it can stay as it is or move ([`AttackerRig::retarget`]).
        if pws.is_empty() {
            stale = true;
        } else {
            // A moved rig's entries still sit at its old windows.
            let moved = rig
                .as_mut()
                .is_some_and(|rig| rig.pws() != pws.as_slice() && rig.retarget(&pws));
            match rig {
                Some(rig) if rig.pws() == pws.as_slice() => {
                    if stale || moved {
                        rig.prime(core)?;
                    }
                }
                _ => rig.insert(AttackerRig::new(pws.clone())?).calibrate(core)?,
            }
            #[cfg(test)]
            tests::check_ready(rig.as_ref().expect("set above"), core, moved);
            stale = false;
        }
        // Step (handling controlled-channel faults transparently).
        let step = loop {
            let step = enclave.single_step(core);
            match step.exit {
                StepExit::PageFault { page: fault } => {
                    for &p in &pages {
                        enclave.page_table_mut().set_executable(p, p == fault);
                    }
                    page = Some(fault);
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
                pass.record(&mut steps[index], &pws, &matched);
            }
        }
        if pass == Pass::Recon {
            let page = page.ok_or(AttackError::probe_failed(ProbeFailureCause::ChainWedged))?;
            steps.push(StepState {
                page,
                data_access: !step.data_pages.is_empty(),
                candidate: None,
                resolved: None,
            });
        }
        if matches!(step.exit, StepExit::Finished) {
            return Ok(());
        }
    }
    Err(AttackError::probe_failed(
        ProbeFailureCause::StepBudgetExhausted {
            consumed: MAX_STEPS as u64,
            limit: MAX_STEPS as u64,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nv_isa::{Assembler, Cond, Program, Reg, Segment};
    use nv_obs::Recorder;
    use nv_uarch::UarchConfig;
    use nv_victims::{BnCmpVictim, GcdVictim, VictimConfig};
    use std::cell::Cell;

    thread_local! {
        /// Steps [`check_ready`] has checked on this thread, `None` while
        /// checking is off.
        static CHECKED: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
    }

    /// What `stepped_run` relies on once a measured step's rig is ready,
    /// checked on copies of the rig and the live core so that the run
    /// goes on unchanged: a moved rig carries exactly the calibration a
    /// copy of it takes there, and a probe with no victim step between
    /// reads every window quiet, so the rig is primed. Counts checked
    /// steps and moves while [`CHECKED`] is on.
    pub(super) fn check_ready(rig: &AttackerRig, core: &Core, moved: bool) {
        let Some((steps, moves)) = CHECKED.get() else {
            return;
        };
        assert!(
            !moved || rig.carries_its_calibration(core),
            "moved to {:?}",
            rig.pws()
        );
        let quiet = rig.clone().probe(&mut core.clone());
        assert!(
            quiet.as_deref().is_ok_and(|hits| !hits.contains(&true)),
            "{:?} at {:?}",
            quiet,
            rig.pws()
        );
        CHECKED.set(Some((steps + 1, moves + usize::from(moved))));
    }

    #[test]
    fn a_moved_rig_carries_its_calibration_and_is_primed() {
        // The proof obligation for carried baselines, at every measured
        // step of three extractions on a quiet core: the paper-hardened
        // GCD and a one- and a three-limb bn_cmp.
        let config = VictimConfig::paper_hardened();
        let victims = [
            GcdVictim::build(27, 12, &config),
            BnCmpVictim::build(&[7], &[5], &config),
            BnCmpVictim::build(&[1, 2, 3], &[1, 9, 3], &config),
        ];
        CHECKED.set(Some((0, 0)));
        for victim in victims {
            let mut enclave = Enclave::new(victim.unwrap().program().clone());
            let mut core = Core::new(UarchConfig::default());
            NvSupervisor::default()
                .extract_trace(&mut enclave, &mut core)
                .unwrap();
        }
        let (steps, moves) = CHECKED.take().unwrap();
        assert!(steps > 3000 && moves > 350, "{steps} steps, {moves} moves");
    }

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

    fn straight_line_program() -> Program {
        let mut asm = Assembler::new(VirtAddr::new(0x40_0000));
        straight_line(&mut asm);
        asm.finish().unwrap()
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
        // rig is calibrated once per shape: the 8 x 32 B sweep, then one
        // window of 16, 8, 4 and 2 B (the final run's 2-byte windows share
        // the last halving's shape) = 5. It is moved, and primed there,
        // wherever the windows change within a shape: at the first step of
        // sweep runs 2-16 (15); halving runs 1-4 measure the intervals
        // [0,32); [0,16) x4 and [16,32) x2; [0,8) [0,8) [8,16) [8,16)
        // [16,24) [24,32); then six distinct ones, so they move 0, 1, 3
        // and 5 times; the final run moves at each of its six distinct
        // two-byte windows (6). No run starts on the windows the previous
        // one ended with, so none re-primes a kept rig.
        let mut enclave = Enclave::new(straight_line_program());
        let mut core = Core::new(UarchConfig::default());
        core.attach_obs(Recorder::new(0));
        let trace = NvSupervisor::default()
            .extract_trace(&mut enclave, &mut core)
            .unwrap();
        assert_eq!(trace.len(), 6);
        let metrics = core.detach_obs().unwrap().metrics();
        let spans = |phase| metrics.phase(phase).map_or(0, |stats| stats.count);
        assert_eq!(spans(Phase::Calibrate), 5);
        assert_eq!(spans(Phase::Probe), 21 * 6);
        assert_eq!(spans(Phase::Prime), 21 + 15 + (1 + 3 + 5) + 6);
    }

    /// The steps the reconnaissance run finds in `enclave`.
    fn recon(enclave: &mut Enclave, core: &mut Core) -> Vec<StepState> {
        let mut steps = Vec::new();
        stepped_run(Pass::Recon, enclave, core, &mut None, &mut steps).unwrap();
        steps
    }

    #[test]
    fn three_windows_per_call_run_fig_10s_count_with_a_remainder_group() {
        // 128 windows in groups of three: 42 full groups and one of two.
        // The runs are 1 recon + 43 sweeps + 4 halvings + 1 final byte, and
        // a rig is calibrated once per shape: 3 x 32 B, 2 x 32 B, then one
        // window of 16, 8, 4 and 2 B.
        let mut enclave = Enclave::new(straight_line_program());
        let mut core = Core::new(UarchConfig::default());
        core.attach_obs(Recorder::new(0));
        let trace = NvSupervisor::new(SupervisorConfig {
            windows_per_call: 3,
        })
        .extract_trace(&mut enclave, &mut core)
        .unwrap();
        assert_eq!(trace.len(), 6);
        let metrics = core.detach_obs().unwrap().metrics();
        let spans = |phase| metrics.phase(phase).map_or(0, |stats| stats.count);
        assert_eq!(spans(Phase::Custom("recon")), 1);
        assert_eq!(spans(Phase::Custom("extraction_run")), 43 + 4 + 1);
        assert_eq!(spans(Phase::Calibrate), 6);
    }

    #[test]
    fn a_rig_kept_across_runs_is_calibrated_once() {
        // Three runs measure every step of the straight-line program
        // against one fixed window, so each run starts on exactly the
        // windows the rig carried over from the previous run's last step.
        // The rig is calibrated once, in the first run; each later run
        // re-primes it at its first step (the victim ran to completion in
        // between) and again after the page fault on entry, like the first
        // run. The deterministic re-executions read the same matches.
        let mut enclave = Enclave::new(straight_line_program());
        let mut core = Core::new(UarchConfig::default());
        let steps = recon(&mut enclave, &mut core);
        assert_eq!(steps.len(), 6);
        let window = PwSpec::new(VirtAddr::new(0x40_0000), BLOCK_BYTES).unwrap();
        core.attach_obs(Recorder::new(0));
        let mut rig = None;
        let mut runs = Vec::new();
        for _ in 0..3 {
            let mut measured = steps.clone();
            stepped_run(
                Pass::Sweep(&[0]),
                &mut enclave,
                &mut core,
                &mut rig,
                &mut measured,
            )
            .unwrap();
            assert_eq!(rig.as_ref().map(AttackerRig::pws), Some(&[window][..]));
            runs.push(
                measured
                    .into_iter()
                    .map(|s| s.candidate)
                    .collect::<Vec<_>>(),
            );
        }
        assert!(runs[0].iter().all(|c| *c == Some(0..32)), "{runs:?}");
        assert!(runs.iter().all(|run| *run == runs[0]), "{runs:?}");
        let metrics = core.detach_obs().unwrap().metrics();
        let spans = |phase| metrics.phase(phase).map_or(0, |stats| stats.count);
        assert_eq!(spans(Phase::Calibrate), 1);
        assert_eq!(spans(Phase::Prime), 1 + 2 * 2);
        assert_eq!(spans(Phase::Probe), 3 * 6);
    }

    #[test]
    fn an_unmeasured_step_is_not_reported_by_the_next_probe() {
        // Halving the candidate [64, 128) measures the window [64, 96).
        // Step 1 runs inside it but has no candidate, so it measures
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
        let mut steps = recon(&mut enclave, &mut core);
        assert_eq!(steps.len(), 4);
        for (i, state) in steps.iter_mut().enumerate() {
            state.candidate = (i != 1).then_some(64..128);
        }
        stepped_run(Pass::Halve, &mut enclave, &mut core, &mut None, &mut steps).unwrap();
        let candidates: Vec<_> = steps.into_iter().map(|s| s.candidate).collect();
        assert_eq!(candidates[1], None);
        assert_eq!(candidates[2], Some(96..128), "{candidates:?}");
    }

    /// Extracts `program` on a core prepared by `arm` and returns the error
    /// with the `recon` and `extraction_run` spans the extraction opened.
    fn extraction_error(program: Program, arm: impl FnOnce(&mut Core)) -> (AttackError, u64, u64) {
        let mut enclave = Enclave::new(program);
        let mut core = Core::new(UarchConfig::default());
        core.attach_obs(Recorder::new(0));
        arm(&mut core);
        let err = NvSupervisor::default()
            .extract_trace(&mut enclave, &mut core)
            .unwrap_err();
        let metrics = core.detach_obs().unwrap().metrics();
        let spans = |name| metrics.phase(Phase::Custom(name)).map_or(0, |s| s.count);
        (err, spans("recon"), spans("extraction_run"))
    }

    #[test]
    fn an_enclave_decoding_garbage_wedges_the_recon_run() {
        let base = VirtAddr::new(0x40_0000);
        let mut program = Program::new();
        program
            .add_segment(Segment::new(base, vec![0xff; 16]))
            .unwrap();
        program.set_entry(base);
        let (err, recon, runs) = extraction_error(program, |_| {});
        assert_eq!(
            err,
            AttackError::probe_failed(ProbeFailureCause::ChainWedged)
        );
        assert_eq!((recon, runs), (1, 0));
    }

    #[test]
    fn an_enclave_that_never_halts_exhausts_the_step_budget() {
        let mut asm = Assembler::new(VirtAddr::new(0x40_0000));
        asm.label("spin");
        asm.jmp8("spin");
        let (err, recon, runs) = extraction_error(asm.finish().unwrap(), |_| {});
        assert_eq!(
            err,
            AttackError::probe_failed(ProbeFailureCause::StepBudgetExhausted {
                consumed: 200_000,
                limit: 200_000,
            })
        );
        assert_eq!((recon, runs), (1, 0));
    }

    #[test]
    fn an_armed_watchdog_stops_the_recon_run() {
        let (err, recon, runs) =
            extraction_error(straight_line_program(), |core| core.arm_watchdog(3));
        assert_eq!(
            err,
            AttackError::DeadlineExceeded {
                consumed: 3,
                limit: 3
            }
        );
        assert_eq!((recon, runs), (1, 0));
    }

    #[test]
    fn an_armed_watchdog_stops_a_sweep_run() {
        let (err, recon, runs) =
            extraction_error(straight_line_program(), |core| core.arm_watchdog(2_000));
        // The check runs before each victim step, so the rig's chain runs
        // since the last one overshoot the limit; the seventh sweep run
        // is the one that crosses it.
        assert_eq!(
            err,
            AttackError::DeadlineExceeded {
                consumed: 2_017,
                limit: 2_000
            }
        );
        assert_eq!((recon, runs), (1, 7));
    }

    #[test]
    fn a_raised_cancel_flag_stops_the_extraction() {
        let flag = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(true));
        let (err, recon, runs) =
            extraction_error(straight_line_program(), |core| core.set_cancel_flag(flag));
        assert_eq!(err, AttackError::Cancelled);
        assert_eq!((recon, runs), (1, 0));
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
    fn repeated_measurements_are_ruled_out() {
        let pcs = [
            Some(1),
            Some(1),
            Some(2),
            None,
            Some(2),
            Some(3),
            Some(3),
            Some(3),
        ];
        let mut measured = pcs.map(|pc: Option<u64>| StepMeasurement {
            pc: pc.map(VirtAddr::new),
            page: 0,
            data_access: false,
        });
        rule_out_repeats(&mut measured);
        // Only a PC equal to the *next* step's goes; an unresolved step
        // between two equal PCs keeps both.
        assert_eq!(
            measured.map(|m| m.pc.map(VirtAddr::value)),
            [None, Some(1), Some(2), None, Some(2), None, None, Some(3)]
        );
    }

    #[test]
    fn loop_iterations_appear_repeatedly() {
        // A tight loop's repeated PCs are polluted by speculated loop-back
        // targets, so the *body* PC dominates; the §6.3 rule-out keeps
        // only the architecturally confirmed entry of each duplicate run.
        let mut asm = Assembler::new(VirtAddr::new(0x40_0000));
        asm.mov_ri(Reg::R0, 3);
        asm.label("loop");
        asm.sub_ri8(Reg::R0, 1);
        asm.cmp_ri8(Reg::R0, 0);
        asm.jcc8(Cond::Ne, "loop");
        asm.halt();
        let program = asm.finish().unwrap();
        let truth = Enclave::ground_truth_trace(program.clone(), UarchConfig::default());
        let mut enclave = Enclave::new(program);
        let mut core = Core::new(UarchConfig::default());
        let trace = NvSupervisor::default()
            .extract_trace(&mut enclave, &mut core)
            .unwrap();
        assert_eq!(trace.len(), truth.len(), "steps counted identically");
        let pcs = trace.pcs();
        assert!(pcs.contains(&VirtAddr::new(0x40_0007)), "{pcs:?}");
        assert!(pcs.windows(2).all(|pair| pair[0] != pair[1]), "{pcs:?}");

        // Every extracted PC is a *valid executed instruction start*: the
        // §6.3 speculation ambiguity can substitute a speculated branch
        // target's PC (the paper's mismeasurement class) but never
        // fabricates mid-instruction addresses here.
        let valid = [0x40_0000, 0x40_0007, 0x40_000b, 0x40_0011].map(VirtAddr::new);
        for pc in pcs {
            assert!(valid.contains(&pc), "bad pc {pc}");
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
