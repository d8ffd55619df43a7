//! The attacker rig: PW snippet code generation, prime, probe and
//! LBR-based measurement.
//!
//! One rig owns one attacker program containing a *chain* of PW snippets
//! (Fig. 7): each snippet fills its monitored range (aliased 8 GiB away)
//! with nops and ends with a direct jump to the next snippet; the last
//! jump lands on a `ret` back to the measurement harness. Priming executes
//! the chain once (allocating one BTB entry per snippet jump); probing
//! executes it again and reads, for every jump, the elapsed-cycles field
//! of the *following* LBR record — the §2.3 measurement.

use nv_isa::{Assembler, Program, VirtAddr};
use nv_obs::Phase;
use nv_uarch::{Core, LbrRecord, Machine, RunExit, LBR_DEPTH};

use crate::error::{AttackError, ProbeFailureCause};
use crate::pw::{PwSpec, DEFAULT_ALIAS_DISTANCE};

/// Syscall number the harness raises when a probe pass completes
/// (`nv_os::syscalls::CHECKPOINT`).
const CHECKPOINT: u8 = 2;

/// Base margin (cycles) above the calibrated floor that counts as a
/// misprediction. Half the default squash penalty keeps both false
/// positives and false negatives at zero in a noise-free system;
/// calibration widens it per window by the spread it observes
/// ([`AttackerRig::calibrate`]).
const BASE_MARGIN: u64 = 4;

/// Calibration passes for [`AttackerRig::calibrate`]. In a quiet system
/// every pass measures the same values, so the derived thresholds
/// degenerate to the legacy fixed-margin behaviour exactly.
const CALIBRATION_PASSES: usize = 5;

/// Robust-probing parameters: how many majority-vote probes to take and
/// how many failed passes to retry before giving up.
///
/// [`Resilience::none`] (the default) is a single un-retried probe —
/// byte-identical to [`AttackerRig::probe`]. [`Resilience::paper_robust`]
/// is the 5-vote configuration the noise sweep evaluates.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Resilience {
    /// Probe passes to majority-vote over (≥ 1). Between passes the caller
    /// must replay the victim, since probing re-primes the chain and
    /// consumes the signal.
    pub votes: usize,
    /// Failed passes tolerated across the whole measurement: each failure
    /// burns one retry (re-prime, replay, re-probe); exhaustion raises
    /// [`AttackError::RetriesExhausted`].
    pub retry_budget: usize,
}

impl Resilience {
    /// One probe, no retries — the legacy single-shot behaviour.
    pub const fn none() -> Self {
        Resilience {
            votes: 1,
            retry_budget: 0,
        }
    }

    /// 5-vote majority with a retry budget of 8 — the configuration under
    /// which the noise sweep holds ≥ 95 % accuracy at paper-calibrated
    /// noise (`repro_noise_sweep`).
    pub const fn paper_robust() -> Self {
        Resilience {
            votes: 5,
            retry_budget: 8,
        }
    }
}

impl Default for Resilience {
    /// [`Resilience::none`].
    fn default() -> Self {
        Resilience::none()
    }
}

/// Per-window, per-signal decision thresholds derived by calibration:
/// the quiet-case floor plus an adaptive margin sized to the spread the
/// calibration passes observed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct WindowBaseline {
    /// Smallest quiet elapsed value of the window's own jump record.
    own_floor: u64,
    /// Margin above `own_floor` that still reads as quiet.
    own_margin: u64,
    /// Smallest quiet elapsed value of the record following the jump.
    next_floor: u64,
    /// Margin above `next_floor` that still reads as quiet.
    next_margin: u64,
}

impl WindowBaseline {
    /// Derives a `(floor, margin)` pair from one signal's quiet samples:
    /// the floor is the minimum, the margin is [`BASE_MARGIN`] widened by
    /// the observed spread up to the median. Using the median (not the
    /// max) keeps one outlier pass — e.g. a calibration pass hit by an
    /// injected preemption — from inflating the threshold past the
    /// squash-penalty signal it must keep detecting.
    fn derive(samples: &mut [u64]) -> (u64, u64) {
        debug_assert!(!samples.is_empty());
        samples.sort_unstable();
        let floor = samples[0];
        let median = samples[samples.len() / 2];
        (floor, BASE_MARGIN + (median - floor))
    }
}

/// A primed-and-probeable chain of PW snippets.
///
/// # Examples
///
/// Detecting whether a victim executed instructions inside a range:
///
/// ```
/// use nightvision::{AttackerRig, PwSpec};
/// use nv_isa::{Assembler, VirtAddr};
/// use nv_uarch::{Core, Machine, UarchConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Victim: nops at 0x40_0100.
/// let mut asm = Assembler::new(VirtAddr::new(0x40_0100));
/// for _ in 0..8 { asm.nop(); }
/// asm.halt();
/// let mut victim = Machine::new(asm.finish()?);
///
/// let mut core = Core::new(UarchConfig::default());
/// let pw = PwSpec::new(VirtAddr::new(0x40_0100), 8)?;
/// let mut rig = AttackerRig::new(vec![pw])?;
/// rig.calibrate(&mut core)?;
///
/// core.run(&mut victim, 100); // victim runs on the same core
/// let matched = rig.probe(&mut core)?;
/// assert_eq!(matched, vec![true]);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct AttackerRig {
    machine: Machine,
    entry: VirtAddr,
    jmp_addrs: Vec<VirtAddr>,
    pws: Vec<PwSpec>,
    /// Per-window thresholds from the last successful calibration; empty
    /// until then (a rig always has at least one window).
    baseline: Vec<WindowBaseline>,
    /// Per window, the `(own, next)` elapsed fields of the last measured
    /// pass. Reused across passes.
    elapsed: Vec<(u64, u64)>,
    /// Calibration samples, reused across calibrations: per window, its
    /// `own` samples followed by its `next` samples, one per pass.
    samples: Vec<u64>,
}

impl AttackerRig {
    /// Builds a rig monitoring `pws` with the default 8 GiB alias distance.
    ///
    /// # Errors
    ///
    /// See [`AttackerRig::with_alias_distance`].
    pub fn new(pws: Vec<PwSpec>) -> Result<Self, AttackError> {
        AttackerRig::with_alias_distance(pws, DEFAULT_ALIAS_DISTANCE)
    }

    /// Builds a rig whose snippets live `alias_distance` bytes above the
    /// monitored ranges (8 GiB for 33-bit tag cutoffs, 16 GiB for
    /// IceLake).
    ///
    /// # Errors
    ///
    /// * [`AttackError::OverlappingPws`] — monitored ranges overlap, so
    ///   their snippets would collide;
    /// * [`AttackError::ChainExceedsLbr`] — more windows than one LBR
    ///   readout can measure (the paper's chains face the same 32-record
    ///   budget);
    /// * [`AttackError::Snippet`] — snippet assembly failed (e.g. a short
    ///   window whose continuation jump cannot reach the next snippet).
    ///
    /// # Panics
    ///
    /// Panics if `pws` is empty.
    pub fn with_alias_distance(
        mut pws: Vec<PwSpec>,
        alias_distance: u64,
    ) -> Result<Self, AttackError> {
        assert!(!pws.is_empty(), "a rig needs at least one window");
        // Each window produces two LBR records per pass (its jump and its
        // trampoline); the earliest must still be resident when the probe
        // reads the LBR back.
        let max_windows = LBR_DEPTH / 2;
        if pws.len() > max_windows {
            return Err(AttackError::ChainExceedsLbr {
                windows: pws.len(),
                max: max_windows,
            });
        }
        pws.sort_by_key(PwSpec::start);
        for pair in pws.windows(2) {
            if pair[0].overlaps(&pair[1]) {
                return Err(AttackError::OverlappingPws {
                    at: pair[1].start(),
                });
            }
        }

        // Chains of several windows route through per-window trampolines
        // in the (non-aliasing) harness area so that each window's two
        // penalty signals land in *its own* pair of LBR records: the steal
        // squash (false hit during the window's own fetch) delays the
        // window's jump, and a deallocated entry's resteer delays the
        // trampoline that follows it. Short (< 5 byte) windows use a
        // 2-byte jump that cannot reach the harness; they are therefore
        // only allowed in single-window rigs, where their continuation sits
        // directly after the snippet (a `ret`, which allocates nothing).
        let narrow = pws.iter().any(|pw| pw.len() < 5);
        if narrow && pws.len() > 1 {
            return Err(AttackError::OverlappingPws { at: pws[1].start() });
        }
        let first_snippet = pws[0].start().offset(alias_distance);
        let mut asm = Assembler::new(first_snippet);
        let mut jmp_addrs = Vec::with_capacity(pws.len());
        for (i, pw) in pws.iter().enumerate() {
            let snippet_start = pw.start().offset(alias_distance);
            let snippet_end = pw.end().offset(alias_distance);
            asm.org(snippet_start).map_err(AttackError::Snippet)?;
            asm.label(format!("pw{i}"));
            // Fill with nops, then a jump whose last byte is end-1.
            let jmp_len = if pw.len() >= 5 { 5 } else { 2 };
            asm.pad_to(snippet_end - jmp_len);
            let jmp_addr = if jmp_len == 5 {
                asm.jmp32(&format!("tramp{i}"))
            } else {
                asm.jmp8("fin_local")
            };
            jmp_addrs.push(jmp_addr);
        }
        if narrow {
            // Continuation directly after the single snippet.
            asm.label("fin_local");
            asm.ret();
        }
        // Harness, ~1 MiB past the snippets: far enough that victims of
        // ordinary size cannot alias it. The extra 0x2000 shifts the
        // harness by 256 BTB sets (bits 5..14), so the harness's own call
        // and trampolines never contend with the monitored windows' sets —
        // at low associativity such self-conflicts would drown the signal.
        let harness = pws
            .last()
            .expect("nonempty")
            .end()
            .offset(alias_distance + 0x10_2000);
        asm.org(harness).map_err(AttackError::Snippet)?;
        let entry = asm.label("entry");
        asm.entry_here();
        asm.call("pw0");
        asm.syscall(CHECKPOINT);
        asm.halt();
        if !narrow {
            for i in 0..pws.len() {
                asm.label(format!("tramp{i}"));
                if i + 1 == pws.len() {
                    asm.ret();
                } else {
                    asm.jmp32(&format!("pw{}", i + 1));
                }
            }
        }

        let program: Program = asm.finish().map_err(AttackError::Snippet)?;
        Ok(AttackerRig {
            machine: Machine::new(program),
            entry,
            jmp_addrs,
            pws,
            baseline: Vec::new(),
            elapsed: Vec::new(),
            samples: Vec::new(),
        })
    }

    /// The monitored windows, sorted by address.
    pub fn pws(&self) -> &[PwSpec] {
        &self.pws
    }

    /// Per window (in address order), the aliased address of the byte its
    /// snippet jump's BTB entry is indexed by — the jump's *last* byte,
    /// since entries are end-byte-indexed. This is the exact entry a
    /// competing process must displace to corrupt that window's reading,
    /// which is how `NvUser`'s noise model produces physically-grounded
    /// bit flips.
    pub fn snippet_entry_pcs(&self) -> Vec<VirtAddr> {
        self.jmp_addrs
            .iter()
            .zip(&self.pws)
            .map(|(&jmp, pw)| {
                let jmp_len: u64 = if pw.len() >= 5 { 5 } else { 2 };
                jmp.offset(jmp_len - 1)
            })
            .collect()
    }

    /// Runs the snippet chain once on `core`, leaving one BTB entry per
    /// window — the *prime* step of NV-Core.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::ProbeFailed`] if the chain did not complete.
    pub fn prime(&mut self, core: &mut Core) -> Result<(), AttackError> {
        core.obs_enter(Phase::Prime);
        let result = self.run_chain(core);
        core.obs_exit(Phase::Prime);
        result
    }

    /// Calibrates the no-victim baseline: primes, then samples
    /// [`CALIBRATION_PASSES`] quiet probe passes and derives a per-window
    /// *adaptive margin* from the observed spread. Must be called once
    /// before [`AttackerRig::probe`].
    ///
    /// In a noise-free system every pass is identical, so the floor equals
    /// the legacy single-pass baseline and the margin stays at
    /// [`BASE_MARGIN`] — the thresholds (and therefore every probe
    /// decision) are unchanged. Under injected noise the margin widens to
    /// absorb the jitter the environment actually exhibits.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::ProbeFailed`] if any pass fails.
    pub fn calibrate(&mut self, core: &mut Core) -> Result<(), AttackError> {
        core.obs_enter(Phase::Calibrate);
        let result = self.calibrate_inner(core);
        core.obs_exit(Phase::Calibrate);
        result
    }

    fn calibrate_inner(&mut self, core: &mut Core) -> Result<(), AttackError> {
        self.run_chain(core)?; // prime
        self.samples.clear();
        self.samples
            .resize(2 * CALIBRATION_PASSES * self.pws.len(), 0);
        for pass in 0..CALIBRATION_PASSES {
            self.measured_pass(core)?;
            for (window, &(own, next)) in self.elapsed.iter().enumerate() {
                let own_at = 2 * CALIBRATION_PASSES * window + pass;
                self.samples[own_at] = own;
                self.samples[own_at + CALIBRATION_PASSES] = next;
            }
        }
        // Only a calibration whose every pass succeeded replaces the
        // previous baseline.
        self.baseline.clear();
        for window in self.samples.chunks_exact_mut(2 * CALIBRATION_PASSES) {
            let (own, next) = window.split_at_mut(CALIBRATION_PASSES);
            let (own_floor, own_margin) = WindowBaseline::derive(own);
            let (next_floor, next_margin) = WindowBaseline::derive(next);
            self.baseline.push(WindowBaseline {
                own_floor,
                own_margin,
                next_floor,
                next_margin,
            });
        }
        Ok(())
    }

    /// Probes: re-runs the chain, returning for every window whether its
    /// entry was disturbed since the last prime/probe (deallocated by a
    /// victim false hit, or stolen by a victim branch). Probing re-primes
    /// the chain as a side effect, exactly like the paper's NV-Core loop.
    ///
    /// # Errors
    ///
    /// * [`AttackError::NotCalibrated`] — call
    ///   [`AttackerRig::calibrate`] first;
    /// * [`AttackError::ProbeFailed`] — the chain did not complete.
    pub fn probe(&mut self, core: &mut Core) -> Result<Vec<bool>, AttackError> {
        core.obs_enter(Phase::Probe);
        let result = self.probe_inner(core);
        core.obs_exit(Phase::Probe);
        result
    }

    fn probe_inner(&mut self, core: &mut Core) -> Result<Vec<bool>, AttackError> {
        if self.baseline.is_empty() {
            return Err(AttackError::NotCalibrated);
        }
        self.measured_pass(core)?;
        Ok(self
            .elapsed
            .iter()
            .zip(&self.baseline)
            .map(|(&(own, next), base)| {
                // A *stolen* prediction squashes while the window's own
                // snippet fetches (its jump's record); a *deallocated*
                // entry makes the jump itself miss, delaying what follows
                // (the trampoline's record).
                own > base.own_floor + base.own_margin || next > base.next_floor + base.next_margin
            })
            .collect())
    }

    /// Noise-robust probe: takes `resilience.votes` probe passes, calling
    /// `replay` before every pass after the first to re-establish the
    /// victim's disturbance (probing re-primes the chain, so the signal is
    /// consumed by each pass), and majority-votes per window. Failed
    /// passes are retried — re-prime, `replay`, probe again — up to
    /// `resilience.retry_budget` times across the whole measurement.
    ///
    /// With [`Resilience::none`] this is exactly one [`AttackerRig::probe`]
    /// call and `replay` is never invoked.
    ///
    /// # Errors
    ///
    /// * [`AttackError::NotCalibrated`] — call
    ///   [`AttackerRig::calibrate`] first;
    /// * [`AttackError::RetriesExhausted`] — the retry budget ran out.
    ///
    /// # Panics
    ///
    /// Panics if `resilience.votes` is zero.
    pub fn probe_robust(
        &mut self,
        core: &mut Core,
        resilience: Resilience,
        mut replay: impl FnMut(&mut Core),
    ) -> Result<Vec<bool>, AttackError> {
        assert!(resilience.votes >= 1, "majority voting needs >= 1 vote");
        if self.baseline.is_empty() {
            return Err(AttackError::NotCalibrated);
        }
        let mut counts = vec![0usize; self.pws.len()];
        let mut retries_left = resilience.retry_budget;
        let mut retries_used = 0usize;
        for vote in 0..resilience.votes {
            if vote > 0 {
                replay(core);
            }
            core.obs_enter(Phase::Vote);
            loop {
                match self.probe(core) {
                    Ok(matches) => {
                        for (count, matched) in counts.iter_mut().zip(&matches) {
                            *count += usize::from(*matched);
                        }
                        break;
                    }
                    Err(AttackError::ProbeFailed { cause, .. }) => {
                        if retries_left == 0 {
                            core.obs_exit(Phase::Vote);
                            return Err(AttackError::RetriesExhausted {
                                retries: retries_used,
                                budget: resilience.retry_budget,
                                last: cause,
                            });
                        }
                        retries_left -= 1;
                        retries_used += 1;
                        // Recover: re-prime (a failure here surfaces via
                        // the retried probe) and replay the victim so the
                        // disturbance the failed pass consumed is back.
                        core.obs_enter(Phase::Retry);
                        let _ = self.prime(core);
                        replay(core);
                        core.obs_exit(Phase::Retry);
                    }
                    Err(other) => {
                        core.obs_exit(Phase::Vote);
                        return Err(other);
                    }
                }
            }
            core.obs_exit(Phase::Vote);
        }
        Ok(counts
            .into_iter()
            .map(|count| 2 * count > resilience.votes)
            .collect())
    }

    /// One chain execution with LBR measurement: leaves in `self.elapsed`,
    /// per window, the elapsed-cycles fields of that window's jump record
    /// and of the record following it.
    fn measured_pass(&mut self, core: &mut Core) -> Result<(), AttackError> {
        core.lbr_mut().clear();
        self.run_chain(core)?;
        read_windows(core.lbr().as_slices(), &self.jmp_addrs, &mut self.elapsed).map_err(
            |(window, cause)| AttackError::ProbeFailed {
                window: Some(window),
                jump: Some(self.jmp_addrs[window]),
                cause,
            },
        )
    }

    fn run_chain(&mut self, core: &mut Core) -> Result<(), AttackError> {
        // A supervised trial whose watchdog already expired must not start
        // another pass: the chain run itself is step-bounded, but the retry
        // and voting loops above would otherwise spin on it indefinitely.
        AttackError::check_deadline(core)?;
        self.machine.state_mut().set_pc(self.entry);
        // The attacker is context-switched in: transient front-end state is
        // gone, predictor contents (the signal) survive.
        core.reset_frontend();
        let budget = 64 + 16 * self.pws.len() as u64;
        match core.run(&mut self.machine, budget) {
            RunExit::Syscall(code) if code == CHECKPOINT => Ok(()),
            RunExit::StepLimit => Err(AttackError::probe_failed(
                ProbeFailureCause::StepBudgetExhausted {
                    consumed: budget,
                    limit: budget,
                },
            )),
            _ => Err(AttackError::probe_failed(ProbeFailureCause::ChainWedged)),
        }
    }
}

/// Reads one measured pass back from the LBR records, given oldest to
/// newest as the ring's two contiguous runs ([`nv_uarch::Lbr::as_slices`]):
/// replaces `elapsed` with, per window in chain order, the elapsed-cycles
/// fields of the record of its jump `jmps[window]` and of the record after
/// it.
///
/// The chain executes the windows in address order, so each window's
/// records lie strictly after the previous window's: the search for a
/// window's jump resumes there rather than at the front, so a stale
/// duplicate record (possible under retried/interrupted passes) can never
/// be silently matched in place of the current pass's record.
///
/// # Errors
///
/// The first failing window, in chain order, with its cause:
/// [`ProbeFailureCause::LbrRecordMissing`] if no record of its jump follows
/// the previous window's, or no record follows its jump's;
/// [`ProbeFailureCause::LbrRecordAmbiguous`] if a second record of its jump
/// follows the matched one.
fn read_windows(
    (older, newer): (&[LbrRecord], &[LbrRecord]),
    jmps: &[VirtAddr],
    elapsed: &mut Vec<(u64, u64)>,
) -> Result<(), (usize, ProbeFailureCause)> {
    let len = older.len() + newer.len();
    let at = |i: usize| older.get(i).unwrap_or_else(|| &newer[i - older.len()]);
    elapsed.clear();
    let mut cursor = 0;
    for (window, &jmp) in jmps.iter().enumerate() {
        let missing = (window, ProbeFailureCause::LbrRecordMissing);
        let idx = (cursor..len).find(|&i| at(i).from == jmp).ok_or(missing)?;
        if (idx + 1..len).any(|i| at(i).from == jmp) {
            return Err((window, ProbeFailureCause::LbrRecordAmbiguous));
        }
        if idx + 1 == len {
            return Err(missing);
        }
        elapsed.push((at(idx).elapsed, at(idx + 1).elapsed));
        cursor = idx + 1;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nv_isa::Assembler;
    use nv_uarch::{Machine, UarchConfig};

    fn core() -> Core {
        Core::new(UarchConfig::default())
    }

    fn victim_nops(base: u64, count: usize) -> Machine {
        let mut asm = Assembler::new(VirtAddr::new(base));
        for _ in 0..count {
            asm.nop();
        }
        asm.halt();
        Machine::new(asm.finish().unwrap())
    }

    #[test]
    fn quiet_probe_reports_no_match() {
        let pw = PwSpec::new(VirtAddr::new(0x40_0100), 16).unwrap();
        let mut rig = AttackerRig::new(vec![pw]).unwrap();
        let mut core = core();
        rig.calibrate(&mut core).unwrap();
        for _ in 0..5 {
            assert_eq!(rig.probe(&mut core).unwrap(), vec![false]);
        }
    }

    #[test]
    fn victim_nops_in_range_are_detected() {
        let pw = PwSpec::new(VirtAddr::new(0x40_0100), 16).unwrap();
        let mut rig = AttackerRig::new(vec![pw]).unwrap();
        let mut core = core();
        rig.calibrate(&mut core).unwrap();
        let mut victim = victim_nops(0x40_0100, 20);
        core.reset_frontend();
        core.run(&mut victim, 100);
        assert_eq!(rig.probe(&mut core).unwrap(), vec![true]);
        // The probe re-primed: with no further victim activity the next
        // probe is quiet again.
        assert_eq!(rig.probe(&mut core).unwrap(), vec![false]);
    }

    #[test]
    fn victim_outside_range_is_not_detected() {
        let pw = PwSpec::new(VirtAddr::new(0x40_0100), 16).unwrap();
        let mut rig = AttackerRig::new(vec![pw]).unwrap();
        let mut core = core();
        rig.calibrate(&mut core).unwrap();
        // Victim executes just past the monitored range.
        let mut victim = victim_nops(0x40_0110, 20);
        core.reset_frontend();
        core.run(&mut victim, 100);
        assert_eq!(rig.probe(&mut core).unwrap(), vec![false]);
    }

    #[test]
    fn victim_taken_branch_in_range_is_detected() {
        // Fig. 5 cases 1/2: the victim's PW ends with a taken jump inside
        // the attacker's range — entry stealing.
        let pw = PwSpec::new(VirtAddr::new(0x40_0100), 16).unwrap();
        let mut rig = AttackerRig::new(vec![pw]).unwrap();
        let mut core = core();
        rig.calibrate(&mut core).unwrap();
        let mut asm = Assembler::new(VirtAddr::new(0x40_00f8));
        asm.nop();
        asm.nop();
        asm.nop();
        asm.nop();
        asm.jmp32("out"); // bytes fc..100: ends at 0x40_0100, inside the range
        asm.label("out");
        asm.halt();
        let mut victim = Machine::new(asm.finish().unwrap());
        core.reset_frontend();
        core.run(&mut victim, 100);
        assert_eq!(rig.probe(&mut core).unwrap(), vec![true]);
    }

    #[test]
    fn chained_windows_measure_independently() {
        let pws = vec![
            PwSpec::new(VirtAddr::new(0x40_0100), 16).unwrap(),
            PwSpec::new(VirtAddr::new(0x40_0140), 16).unwrap(),
            PwSpec::new(VirtAddr::new(0x40_0180), 16).unwrap(),
        ];
        let mut rig = AttackerRig::new(pws).unwrap();
        let mut core = core();
        rig.calibrate(&mut core).unwrap();
        // Victim touches only the middle window.
        let mut victim = victim_nops(0x40_0140, 16);
        core.reset_frontend();
        core.run(&mut victim, 100);
        assert_eq!(rig.probe(&mut core).unwrap(), vec![false, true, false]);
    }

    #[test]
    fn every_probe_primes_the_next_round() {
        // NV-S calibrates a rig once and then relies on each probe having
        // re-primed the chain. One 8 x 32 B sweep chain, calibrated once:
        // every later round must report exactly the window the victim
        // touched since the previous probe, and nothing after a round in
        // which the victim did not run.
        let base = 0x40_0000;
        let pws = (0..8)
            .map(|w| PwSpec::new(VirtAddr::new(base + 32 * w), 32).unwrap())
            .collect();
        let mut rig = AttackerRig::new(pws).unwrap();
        let mut core = core();
        rig.calibrate(&mut core).unwrap();
        let rounds = [3, 0, 7, 5, 1, 6, 2, 4].map(Some);
        for touched in rounds.into_iter().chain([None]).chain(rounds) {
            let mut expected = vec![false; 8];
            if let Some(window) = touched {
                expected[window] = true;
                let mut victim = victim_nops(base + 32 * window as u64 + 8, 4);
                core.reset_frontend();
                core.run(&mut victim, 100);
            }
            assert_eq!(rig.probe(&mut core).unwrap(), expected, "{touched:?}");
        }
    }

    #[test]
    fn two_byte_window_works() {
        // The minimal snippet: a bare 2-byte jump.
        let pw = PwSpec::new(VirtAddr::new(0x40_0104), 2).unwrap();
        let mut rig = AttackerRig::new(vec![pw]).unwrap();
        let mut core = core();
        rig.calibrate(&mut core).unwrap();
        let mut victim = victim_nops(0x40_0100, 12);
        core.reset_frontend();
        core.run(&mut victim, 100);
        assert_eq!(rig.probe(&mut core).unwrap(), vec![true]);
    }

    #[test]
    fn two_byte_window_respects_fetch_lower_bound() {
        // A victim fetching *above* the signal byte must not match —
        // the range-query lower bound (Takeaway 2) is what gives NV-S its
        // byte granularity.
        let pw = PwSpec::new(VirtAddr::new(0x40_0104), 2).unwrap();
        let mut rig = AttackerRig::new(vec![pw]).unwrap();
        let mut core = core();
        rig.calibrate(&mut core).unwrap();
        let mut victim = victim_nops(0x40_0106, 12); // starts past 0x40_0105
        core.reset_frontend();
        core.run(&mut victim, 100);
        assert_eq!(rig.probe(&mut core).unwrap(), vec![false]);
    }

    #[test]
    fn overlapping_windows_rejected() {
        let pws = vec![
            PwSpec::new(VirtAddr::new(0x40_0100), 16).unwrap(),
            PwSpec::new(VirtAddr::new(0x40_0108), 16).unwrap(),
        ];
        assert!(matches!(
            AttackerRig::new(pws),
            Err(AttackError::OverlappingPws { .. })
        ));
    }

    #[test]
    fn probe_before_calibrate_errors() {
        let pw = PwSpec::new(VirtAddr::new(0x40_0100), 16).unwrap();
        let mut rig = AttackerRig::new(vec![pw]).unwrap();
        let mut core = core();
        assert!(matches!(
            rig.probe(&mut core),
            Err(AttackError::NotCalibrated)
        ));
    }

    #[test]
    fn survives_ibpb_barrier() {
        // §4.1: IBRS/IBPB flush only indirect entries; the rig's direct
        // jumps survive, so the attack still works.
        let pw = PwSpec::new(VirtAddr::new(0x40_0100), 16).unwrap();
        let mut rig = AttackerRig::new(vec![pw]).unwrap();
        let mut core = core();
        rig.calibrate(&mut core).unwrap();
        core.btb_mut().indirect_predictor_barrier();
        assert_eq!(
            rig.probe(&mut core).unwrap(),
            vec![false],
            "entries survive"
        );
        let mut victim = victim_nops(0x40_0100, 20);
        core.reset_frontend();
        core.run(&mut victim, 100);
        core.btb_mut().indirect_predictor_barrier();
        assert_eq!(
            rig.probe(&mut core).unwrap(),
            vec![true],
            "signal survives the barrier too"
        );
    }

    #[test]
    fn adaptive_margin_absorbs_calibrated_jitter() {
        // Under LBR jitter alone (no evictions), calibration must widen
        // the margins enough that quiet probes stay mostly quiet, while a
        // real victim disturbance (a full squash penalty) still reads as a
        // match. Jitter amplitude 5 < squash 17 leaves room for both.
        use nv_uarch::Perturbation;
        let mut core = Core::new(UarchConfig {
            perturbation: Perturbation {
                seed: 21,
                eviction_interval: 0,
                jitter_amplitude: 5,
                squash_per_million: 0,
            },
            ..UarchConfig::default()
        });
        let pw = PwSpec::new(VirtAddr::new(0x40_0100), 16).unwrap();
        let mut rig = AttackerRig::new(vec![pw]).unwrap();
        rig.calibrate(&mut core).unwrap();
        let quiet_matches = (0..20)
            .filter(|_| rig.probe(&mut core).unwrap() == vec![true])
            .count();
        assert!(
            quiet_matches <= 4,
            "adaptive margin should absorb most jitter: {quiet_matches}/20 false positives"
        );
        // A genuine victim still trips the detector.
        let mut victim = victim_nops(0x40_0100, 20);
        core.reset_frontend();
        core.run(&mut victim, 100);
        assert_eq!(rig.probe(&mut core).unwrap(), vec![true]);
    }

    #[test]
    fn probe_robust_with_no_resilience_matches_probe() {
        let pw = PwSpec::new(VirtAddr::new(0x40_0100), 16).unwrap();
        let mut rig = AttackerRig::new(vec![pw]).unwrap();
        let mut core = core();
        rig.calibrate(&mut core).unwrap();
        let mut victim = victim_nops(0x40_0100, 20);
        core.reset_frontend();
        core.run(&mut victim, 100);
        let mut replayed = false;
        let result = rig
            .probe_robust(&mut core, Resilience::none(), |_| replayed = true)
            .unwrap();
        assert_eq!(result, vec![true]);
        assert!(!replayed, "a single vote never replays");
    }

    #[test]
    fn probe_robust_votes_replay_the_victim() {
        // With 5 votes the victim is replayed 4 times; every vote sees the
        // disturbance, so the majority is unanimous. Without the replay
        // the probe's own re-prime would erase the signal after vote 1 and
        // the majority would flip to quiet — which is the bug class this
        // API exists to avoid.
        let pw = PwSpec::new(VirtAddr::new(0x40_0100), 16).unwrap();
        let mut rig = AttackerRig::new(vec![pw]).unwrap();
        let mut core = core();
        rig.calibrate(&mut core).unwrap();
        let mut victim = victim_nops(0x40_0100, 20);
        core.reset_frontend();
        core.run(&mut victim, 100);
        let mut replays = 0;
        let result = rig
            .probe_robust(&mut core, Resilience::paper_robust(), |core| {
                replays += 1;
                let mut victim = victim_nops(0x40_0100, 20);
                core.reset_frontend();
                core.run(&mut victim, 100);
            })
            .unwrap();
        assert_eq!(result, vec![true]);
        assert_eq!(replays, 4);
        // Quiet afterwards (nothing replayed the victim since).
        let quiet = rig
            .probe_robust(&mut core, Resilience::paper_robust(), |_| {})
            .unwrap();
        assert_eq!(quiet, vec![false]);
    }

    #[test]
    fn probe_robust_exhausts_retry_budget_with_structured_error() {
        // Wedge the chain permanently by overwriting the harness: point
        // the rig's entry PC at unmapped memory so every pass faults.
        let pw = PwSpec::new(VirtAddr::new(0x40_0100), 16).unwrap();
        let mut rig = AttackerRig::new(vec![pw]).unwrap();
        let mut core = core();
        rig.calibrate(&mut core).unwrap();
        rig.entry = VirtAddr::new(0xdead_0000);
        let err = rig
            .probe_robust(
                &mut core,
                Resilience {
                    votes: 3,
                    retry_budget: 2,
                },
                |_| {},
            )
            .unwrap_err();
        match err {
            AttackError::RetriesExhausted {
                retries,
                budget,
                last,
            } => {
                assert_eq!(retries, 2);
                assert_eq!(budget, 2);
                assert_eq!(last, ProbeFailureCause::ChainWedged);
            }
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
    }

    #[test]
    fn probe_failure_carries_window_context() {
        // Truncate the LBR before the readout: the first window's record
        // is missing and the error must say which one.
        let pw = PwSpec::new(VirtAddr::new(0x40_0100), 16).unwrap();
        let mut rig = AttackerRig::new(vec![pw]).unwrap();
        let mut core = core();
        rig.calibrate(&mut core).unwrap();
        // Sabotage: give the harness an unreachable budget by wedging via
        // a bogus entry, then check the run_chain-level cause too.
        let saved = rig.entry;
        rig.entry = VirtAddr::new(0xdead_0000);
        let err = rig.probe(&mut core).unwrap_err();
        assert!(matches!(
            err,
            AttackError::ProbeFailed {
                cause: ProbeFailureCause::ChainWedged,
                ..
            }
        ));
        rig.entry = saved;
        assert_eq!(rig.probe(&mut core).unwrap(), vec![false]);
    }

    #[test]
    fn snippet_entry_pcs_are_end_byte_indexed() {
        let pws = vec![
            PwSpec::new(VirtAddr::new(0x40_0100), 16).unwrap(),
            PwSpec::new(VirtAddr::new(0x40_0140), 16).unwrap(),
        ];
        let rig = AttackerRig::new(pws).unwrap();
        let entries = rig.snippet_entry_pcs();
        // Each window's jump fills the last 5 bytes; its entry byte is the
        // aliased window end minus one.
        let alias = DEFAULT_ALIAS_DISTANCE;
        assert_eq!(
            entries,
            vec![
                VirtAddr::new(0x40_0110 + alias - 1),
                VirtAddr::new(0x40_0150 + alias - 1),
            ]
        );
    }

    #[test]
    fn full_btb_flush_defeats_the_rig() {
        // The mitigation the paper recommends (§8.2): constant BTB
        // flushing removes the signal *and* the baseline prime.
        let pw = PwSpec::new(VirtAddr::new(0x40_0100), 16).unwrap();
        let mut rig = AttackerRig::new(vec![pw]).unwrap();
        let mut core = core();
        rig.calibrate(&mut core).unwrap();
        core.btb_mut().flush();
        // Without victim activity the probe *looks* like a match — the
        // attacker cannot distinguish a flush from a victim touch, i.e.
        // the channel is jammed.
        assert_eq!(rig.probe(&mut core).unwrap(), vec![true]);
    }

    /// LBR records `from -> from + 1`, each with `elapsed` equal to its
    /// position, so readouts name the records they picked.
    fn records(froms: &[u64]) -> Vec<LbrRecord> {
        froms
            .iter()
            .enumerate()
            .map(|(i, &from)| LbrRecord {
                from: VirtAddr::new(from),
                to: VirtAddr::new(from + 1),
                cycle: i as u64,
                elapsed: i as u64,
                mispredicted: false,
            })
            .collect()
    }

    /// [`read_windows`] on `froms`, checked to give the same answer at
    /// every split of the records into the ring's two runs.
    fn read(froms: &[u64], jmps: &[u64]) -> Result<Vec<(u64, u64)>, (usize, ProbeFailureCause)> {
        let records = records(froms);
        let jmps: Vec<VirtAddr> = jmps.iter().copied().map(VirtAddr::new).collect();
        let mut results = (0..=records.len()).map(|split| {
            let mut elapsed = vec![(7, 7)];
            read_windows(records.split_at(split), &jmps, &mut elapsed).map(|()| elapsed)
        });
        let first = results.next().expect("at least one split");
        assert!(results.all(|r| r == first), "split changed the readout");
        first
    }

    #[test]
    fn readout_picks_each_jump_and_its_successor() {
        // call, then per window its jump and trampoline; a stale record of
        // window 1's jump *before* window 0's is skipped, not ambiguous.
        let froms = [0x20, 0x99, 0x10, 0x11, 0x20, 0x21, 0x30];
        assert_eq!(read(&froms, &[0x10, 0x20]), Ok(vec![(2, 3), (4, 5)]));
    }

    #[test]
    fn readout_without_a_jump_record_is_missing() {
        let missing = Err((0, ProbeFailureCause::LbrRecordMissing));
        assert_eq!(read(&[], &[0x10]), missing);
        assert_eq!(read(&[0x30, 0x31], &[0x10]), missing);
        // Window 1's only jump record precedes window 0's.
        assert_eq!(
            read(&[0x20, 0x10, 0x11], &[0x10, 0x20]),
            Err((1, ProbeFailureCause::LbrRecordMissing))
        );
    }

    #[test]
    fn readout_with_the_jump_as_last_record_is_missing() {
        assert_eq!(
            read(&[0x10, 0x11, 0x20], &[0x10, 0x20]),
            Err((1, ProbeFailureCause::LbrRecordMissing))
        );
    }

    #[test]
    fn readout_with_a_duplicate_after_the_match_is_ambiguous() {
        assert_eq!(
            read(&[0x10, 0x11, 0x20, 0x21, 0x20, 0x22], &[0x10, 0x20]),
            Err((1, ProbeFailureCause::LbrRecordAmbiguous))
        );
        // A duplicate right after the match is as ambiguous.
        assert_eq!(
            read(&[0x10, 0x10, 0x11], &[0x10]),
            Err((0, ProbeFailureCause::LbrRecordAmbiguous))
        );
        // The earlier window's failure wins over a later window's: window
        // 0 is ambiguous before window 1 would be found missing.
        assert_eq!(
            read(&[0x10, 0x11, 0x10, 0x12], &[0x10, 0x20]),
            Err((0, ProbeFailureCause::LbrRecordAmbiguous))
        );
    }

    #[test]
    fn readout_of_a_real_pass_with_a_trailing_duplicate_is_ambiguous() {
        let pws = vec![
            PwSpec::new(VirtAddr::new(0x40_0100), 16).unwrap(),
            PwSpec::new(VirtAddr::new(0x40_0140), 16).unwrap(),
        ];
        let mut rig = AttackerRig::new(pws).unwrap();
        let mut core = core();
        rig.calibrate(&mut core).unwrap();
        // A second record of window 1's jump, as a retried pass could
        // leave behind, makes the readout unattributable.
        let jump = rig.jmp_addrs[1];
        let mut lbr = core.lbr().clone();
        lbr.record(jump, jump, u64::MAX, false);
        let result = read_windows(lbr.as_slices(), &rig.jmp_addrs, &mut rig.elapsed);
        assert_eq!(result, Err((1, ProbeFailureCause::LbrRecordAmbiguous)));
    }
}
