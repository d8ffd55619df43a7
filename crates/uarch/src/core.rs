//! The simulated core: superscalar-style fetch with prediction windows,
//! BTB-directed prediction, squash accounting, LBR, RSB, macro-fusion and
//! speculative overshoot.
//!
//! The model is instruction-granular but performs BTB interactions at
//! prediction-window (PW) granularity, matching §2.2: a BTB lookup happens
//! whenever fetch enters a new 32-byte block (or resteers), and its result —
//! "the next branch in this window is at offset `o` with target `t`" — is
//! held until the flow either reaches offset `o`, leaves the window, or
//! squashes.

use std::collections::VecDeque;
use std::sync::Arc;

use nv_isa::{Inst, InstKind, IsaError, Program, VirtAddr};
use nv_obs::{ObsEvent, Phase, Recorder};

use crate::btb::{BranchKind, Btb, BtbHit};
use crate::config::UarchConfig;
use crate::decoded::{BundleVerdict, DecodedImage, SegmentHint};
use crate::events::SquashCause;
use crate::exec::{execute, ArchState, ControlOutcome, ExecOutcome, MemAccess};
use crate::lbr::Lbr;
use crate::mem::{Bus, Memory, SparePages, SpecOverlay};
use crate::perturb::{PerturbState, Perturbation};

/// A program plus its architectural state and data memory: everything that
/// belongs to a software context (the OS crate wraps this in a process).
///
/// The program is held as a shared [`DecodedImage`]: the pre-decode tables
/// are built once at construction and shared (cheaply, via `Arc`) across
/// clones and resets — e.g. the enclave re-executions of NV-S and the
/// per-trial machines of a campaign.
#[derive(Clone, Debug)]
pub struct Machine {
    image: Arc<DecodedImage>,
    state: ArchState,
    memory: Memory,
}

impl Machine {
    /// Default top-of-stack for fresh machines.
    pub const STACK_TOP: u64 = 0x7f00_0000_0000;

    /// Creates a machine with the PC at the program entry and an empty
    /// stack at [`Machine::STACK_TOP`]. Pre-decodes the whole image.
    pub fn new(program: Program) -> Self {
        Machine::from_image(Arc::new(DecodedImage::new(program)))
    }

    /// Creates a machine around an already pre-decoded image, sharing its
    /// tables instead of rebuilding them.
    pub fn from_image(image: Arc<DecodedImage>) -> Self {
        let entry = image.program().entry().unwrap_or(VirtAddr::new(0));
        let mut state = ArchState::new(entry);
        state.set_reg(nv_isa::Reg::SP, Self::STACK_TOP);
        Machine {
            image,
            state,
            memory: Memory::new(),
        }
    }

    /// Rewinds to the freshly-constructed state (PC at entry, empty stack
    /// and memory) without re-decoding the image. Deterministic
    /// re-execution — NV-S resets its enclave once per extraction pass —
    /// pays only for the architectural state, never for decode.
    pub fn reset(&mut self) {
        let entry = self.image.program().entry().unwrap_or(VirtAddr::new(0));
        self.state = ArchState::new(entry);
        self.state.set_reg(nv_isa::Reg::SP, Self::STACK_TOP);
        self.memory = Memory::new();
    }

    /// The program image.
    pub fn program(&self) -> &Program {
        self.image.program()
    }

    /// The pre-decoded image.
    pub fn image(&self) -> &DecodedImage {
        &self.image
    }

    /// Moves the program `shift` bytes ([`Program::rebase`]) without
    /// decoding it again: the decoded instructions hold relative
    /// displacements, and only the fetch-bundle summaries are re-walked,
    /// when `shift` is not a whole number of 32-byte blocks. The image is
    /// copied first if other machines share it; otherwise nothing is
    /// allocated. The architectural state and data memory stay as they
    /// are: the caller points the PC into the moved code.
    pub fn rebase(&mut self, shift: i64) {
        Arc::make_mut(&mut self.image).rebase(shift);
    }

    /// Architectural state.
    pub fn state(&self) -> &ArchState {
        &self.state
    }

    /// Mutable architectural state.
    pub fn state_mut(&mut self) -> &mut ArchState {
        &mut self.state
    }

    /// Data memory.
    pub fn memory(&self) -> &Memory {
        &self.memory
    }

    /// Current PC (shorthand for `state().pc()`).
    pub fn pc(&self) -> VirtAddr {
        self.state.pc()
    }

    fn parts_mut(&mut self) -> (&DecodedImage, &mut ArchState, &mut Memory) {
        (&self.image, &mut self.state, &mut self.memory)
    }
}

/// The active prediction window.
#[derive(Clone, Copy, Debug)]
struct PwState {
    /// 32-byte block the window covers.
    block: VirtAddr,
    /// Predicted next branch in the window, `(branch_pc, target)`, if the
    /// lookup hit.
    pending: Option<(VirtAddr, VirtAddr)>,
}

impl PwState {
    /// No active window. Its block is never a block base (those are
    /// 32-byte aligned), so the next fetch always opens a window.
    const CLOSED: PwState = PwState {
        block: VirtAddr::new(1),
        pending: None,
    };
}

/// One retired instruction, as reported by [`Core::step`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RetiredInst {
    /// Its PC.
    pub pc: VirtAddr,
    /// The decoded instruction.
    pub inst: Inst,
    /// Taken-transfer target, if it transferred control.
    pub taken: Option<VirtAddr>,
    /// Data access, if any.
    pub mem_access: Option<MemAccess>,
}

/// Result of one [`Core::step`] call (one *retirement unit*: a single
/// instruction, or a macro-fused `cmp/test + jcc` pair — §7.3).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StepResult {
    /// The (leading) retired instruction, absent only on a fetch fault.
    pub first: Option<RetiredInst>,
    /// The fused conditional branch, when a pair retired together.
    pub second: Option<RetiredInst>,
    /// Syscall raised by the instruction, if any.
    pub syscall: Option<u8>,
    /// `true` if the machine executed `hlt`.
    pub halted: bool,
    /// Decode/fetch fault, if the PC pointed at garbage.
    pub fault: Option<IsaError>,
    /// Core cycles consumed by this step (including penalties).
    pub cycles: u64,
}

impl StepResult {
    /// Number of instructions retired in this step (0, 1 or 2).
    pub fn retired_count(&self) -> usize {
        self.first.iter().count() + self.second.iter().count()
    }

    /// Iterates over the retired instructions.
    pub fn retired(&self) -> impl Iterator<Item = &RetiredInst> {
        self.first.iter().chain(self.second.iter())
    }

    /// `true` if a fused pair retired.
    pub fn fused(&self) -> bool {
        self.second.is_some()
    }
}

/// Why [`Core::run`] returned.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RunExit {
    /// The machine executed `hlt`.
    Halted,
    /// A syscall was raised (PC already points past it).
    Syscall(u8),
    /// A fetch/decode fault wedged the machine.
    Fault(IsaError),
    /// The step budget ran out.
    StepLimit,
}

/// Aggregate counters for core activity.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CoreStats {
    /// `step` invocations.
    pub steps: u64,
    /// Instructions retired.
    pub retired: u64,
    /// Squashes (any cause).
    pub squashes: u64,
    /// BTB entries deallocated by false hits.
    pub false_hit_deallocs: u64,
    /// Correctly predicted taken transfers.
    pub correct_predictions: u64,
    /// Macro-fused pairs retired.
    pub fused_pairs: u64,
    /// Instructions processed speculatively past a step boundary.
    pub speculated: u64,
}

/// Outcome of the internal per-instruction front-end pass. The instruction
/// is borrowed from the pre-decoded image rather than copied.
#[derive(Clone, Copy)]
struct ExecStep<'a> {
    pc: VirtAddr,
    inst: &'a Inst,
    outcome: ExecOutcome,
}

impl ExecStep<'_> {
    fn retired(self) -> RetiredInst {
        RetiredInst {
            pc: self.pc,
            inst: *self.inst,
            taken: self.outcome.control.taken_target(),
            mem_access: self.outcome.mem_access,
        }
    }
}

/// The simulated core.
///
/// # Examples
///
/// Running a tiny program and observing the BTB allocate an entry for its
/// jump:
///
/// ```
/// use nv_uarch::{Core, Machine, UarchConfig};
/// use nv_isa::{Assembler, VirtAddr};
///
/// # fn main() -> Result<(), nv_isa::IsaError> {
/// let mut asm = Assembler::new(VirtAddr::new(0x40_0000));
/// asm.jmp8("end");
/// asm.label("end");
/// asm.halt();
/// let mut machine = Machine::new(asm.finish()?);
///
/// let mut core = Core::new(UarchConfig::default());
/// core.run(&mut machine, 10);
/// assert_eq!(core.btb_mut().lookup(VirtAddr::new(0x40_0000)).is_some(), true);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Core {
    config: UarchConfig,
    btb: Btb,
    lbr: Lbr,
    rsb: VecDeque<VirtAddr>,
    /// The RSB as it stood before the current speculation, restored by
    /// swapping it back in (squash recovery). Kept between speculations
    /// so that neither the save nor the restore allocates once warm.
    rsb_saved: VecDeque<VirtAddr>,
    /// Page buffers of the last speculation's memory overlay, reused by
    /// the next one.
    spec_pages: SparePages,
    cycle: u64,
    pw: PwState,
    /// The decode tables the fetch path used last.
    segment_hint: SegmentHint,
    stats: CoreStats,
    /// Fault injector; `None` when `config.perturbation` is quiet, so the
    /// noise-free path is provably unchanged.
    perturb: Option<PerturbState>,
    /// Observability recorder; `None` (the default) costs one check per
    /// `run`/`step`/`speculate_ahead` call, so unobserved runs are
    /// provably unchanged.
    obs: Option<Box<Recorder>>,
    /// Watchdog deadline; `None` (the default) means no supervision. The
    /// watchdog never alters execution itself — it only exposes how many
    /// retirement steps have elapsed since arming, and cooperative callers
    /// (the attack layers' run loops) convert expiry into a typed error.
    watchdog: Option<WatchdogState>,
    /// External cancellation flag; `None` (the default) means the core is
    /// not cancellable. Like the watchdog, the flag never alters execution
    /// itself — cooperative callers poll [`Core::cancel_requested`] at the
    /// same sites they poll the watchdog and convert a raised flag into a
    /// typed error. The server's wire-level `Cancel` sets it from another
    /// thread, which is why it is an `Arc<AtomicBool>` and not a bool.
    cancel: Option<Arc<std::sync::atomic::AtomicBool>>,
}

/// Armed watchdog bookkeeping: consumption is derived from the step
/// counter, so supervision adds zero cost to the retirement hot loop.
#[derive(Clone, Copy, Debug)]
struct WatchdogState {
    /// Step budget granted at arming time.
    limit: u64,
    /// `stats.steps` when the watchdog was armed.
    armed_at: u64,
}

impl Core {
    /// Creates a core with empty predictors.
    pub fn new(config: UarchConfig) -> Self {
        Core {
            config,
            btb: Btb::new(config.geometry),
            lbr: Lbr::new(),
            rsb: VecDeque::new(),
            rsb_saved: VecDeque::new(),
            spec_pages: SparePages::default(),
            cycle: 0,
            pw: PwState::CLOSED,
            segment_hint: SegmentHint::default(),
            stats: CoreStats::default(),
            perturb: PerturbState::from_config(config.perturbation),
            obs: None,
            watchdog: None,
            cancel: None,
        }
    }

    /// Arms (or re-arms) the watchdog with a budget of `limit_steps`
    /// retirement steps, counted from the core's current step total.
    ///
    /// The watchdog is passive: stepping past the budget is not stopped
    /// here. Callers running untrusted or potentially wedged workloads
    /// poll [`Core::watchdog_expired`] (the attack layers do this at the
    /// top of every run loop) and bail out with a typed deadline error.
    pub fn arm_watchdog(&mut self, limit_steps: u64) {
        self.watchdog = Some(WatchdogState {
            limit: limit_steps,
            armed_at: self.stats.steps,
        });
    }

    /// Disarms the watchdog; consumption tracking stops.
    pub fn disarm_watchdog(&mut self) {
        self.watchdog = None;
    }

    /// `(consumed, limit)` for an armed watchdog — retirement steps spent
    /// since arming against the armed budget — or `None` when disarmed.
    pub fn watchdog(&self) -> Option<(u64, u64)> {
        self.watchdog
            .map(|w| (self.stats.steps.saturating_sub(w.armed_at), w.limit))
    }

    /// Whether an armed watchdog's budget is spent. Always `false` when
    /// disarmed, so unsupervised paths behave exactly as before.
    pub fn watchdog_expired(&self) -> bool {
        matches!(self.watchdog(), Some((consumed, limit)) if consumed >= limit)
    }

    /// Attaches an external cancellation flag. The owner (e.g. the
    /// campaign server's connection handler) raises the flag from another
    /// thread; cooperative run loops observe it via
    /// [`Core::cancel_requested`] at their watchdog polling sites.
    pub fn set_cancel_flag(&mut self, flag: Arc<std::sync::atomic::AtomicBool>) {
        self.cancel = Some(flag);
    }

    /// Whether an attached cancellation flag has been raised. Always
    /// `false` when no flag is attached, so uncancellable runs behave
    /// exactly as before.
    pub fn cancel_requested(&self) -> bool {
        self.cancel
            .as_ref()
            .is_some_and(|flag| flag.load(std::sync::atomic::Ordering::Relaxed))
    }

    /// Reconfigures fault injection in place, restarting the injector's
    /// RNG stream from the new config's seed. [`Perturbation::none`]
    /// removes the injector entirely.
    pub fn set_perturbation(&mut self, perturbation: Perturbation) {
        self.config.perturbation = perturbation;
        self.perturb = PerturbState::from_config(perturbation);
    }

    /// The configuration the core was built with.
    pub fn config(&self) -> &UarchConfig {
        &self.config
    }

    /// Read access to the BTB.
    pub fn btb(&self) -> &Btb {
        &self.btb
    }

    /// Mutable access to the BTB (flushes, barriers, direct probing).
    pub fn btb_mut(&mut self) -> &mut Btb {
        &mut self.btb
    }

    /// The LBR.
    pub fn lbr(&self) -> &Lbr {
        &self.lbr
    }

    /// Mutable LBR access (the attacker clears it between measurements).
    pub fn lbr_mut(&mut self) -> &mut Lbr {
        &mut self.lbr
    }

    /// Current core cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Activity counters.
    pub fn stats(&self) -> CoreStats {
        self.stats
    }

    /// Attaches an observability recorder: from now on the core reports
    /// typed [`ObsEvent`]s (allocations, false-hit deallocations,
    /// squashes, resteers, LBR records, injected faults) into it at the
    /// current cycle. Replaces any previously attached recorder.
    pub fn attach_obs(&mut self, recorder: Recorder) {
        self.obs = Some(Box::new(recorder));
    }

    /// Detaches and returns the recorder, restoring the unobserved (and
    /// overhead-free) configuration. Open spans are closed first so the
    /// returned recorder's aggregates are complete.
    pub fn detach_obs(&mut self) -> Option<Recorder> {
        self.obs.take().map(|mut boxed| {
            boxed.finish();
            *boxed
        })
    }

    /// The attached recorder, if any.
    pub fn obs(&self) -> Option<&Recorder> {
        self.obs.as_deref()
    }

    /// Opens an attack-phase span at the current cycle (no-op when no
    /// recorder is attached).
    pub fn obs_enter(&mut self, phase: Phase) {
        if let Some(obs) = self.obs.as_deref_mut() {
            obs.enter(phase, self.cycle);
        }
    }

    /// Closes the innermost span of `phase` at the current cycle (no-op
    /// when no recorder is attached).
    pub fn obs_exit(&mut self, phase: Phase) {
        if let Some(obs) = self.obs.as_deref_mut() {
            obs.exit(phase, self.cycle);
        }
    }

    /// Whether events are to be reported at all: a recorder is attached
    /// *and* enabled. Decided once per [`Core::run`], [`Core::step`] or
    /// [`Core::speculate_ahead`] call, which then runs the matching
    /// instantiation of the fetch path — so an unobserved core, or one
    /// with a disabled recorder, tests nothing at the emission sites.
    fn observing(&self) -> bool {
        self.obs.as_deref().is_some_and(Recorder::is_enabled)
    }

    /// Reports one event to the attached recorder at the current cycle.
    #[inline]
    fn obs_event(&mut self, event: ObsEvent) {
        if let Some(obs) = self.obs.as_deref_mut() {
            obs.event(self.cycle, event);
        }
    }

    /// Discards transient front-end state (the active PW). Called on
    /// context switches and interrupts; predictor state (BTB, RSB) is
    /// deliberately *not* cleared — that residue is the side channel.
    pub fn reset_frontend(&mut self) {
        self.pw = PwState::CLOSED;
    }

    /// Executes one retirement unit: one instruction, or a macro-fused
    /// `cmp/test + jcc` pair when fusion is enabled (§7.3).
    pub fn step(&mut self, machine: &mut Machine) -> StepResult {
        if self.observing() {
            self.step_with::<true>(machine)
        } else {
            self.step_with::<false>(machine)
        }
    }

    fn step_with<const OBSERVE: bool>(&mut self, machine: &mut Machine) -> StepResult {
        let cycle_before = self.cycle;
        let (image, state, memory) = machine.parts_mut();
        let first = match self.exec_one::<false, OBSERVE, _>(image, state, memory) {
            Ok(first) => first,
            // A fetch fault retires nothing and reports no cycles, even if
            // the front end charged a squash before decode failed.
            Err(fault) => {
                return StepResult {
                    first: None,
                    second: None,
                    syscall: None,
                    halted: false,
                    fault: Some(*fault),
                    cycles: 0,
                }
            }
        };
        self.stats.steps += 1;
        self.stats.retired += 1;
        let second = self.fuse_next::<OBSERVE>(image, state, memory, &first);
        StepResult {
            first: Some(first.retired()),
            second: second.map(ExecStep::retired),
            syscall: first.outcome.syscall,
            halted: first.outcome.halt,
            fault: None,
            cycles: self.cycle - cycle_before,
        }
    }

    /// Runs until halt, syscall, fault or `max_steps` retirement units.
    ///
    /// Exactly `max_steps` calls of [`Core::step`] stopping at the first
    /// fault, halt or syscall, without building their [`StepResult`]s.
    pub fn run(&mut self, machine: &mut Machine, max_steps: u64) -> RunExit {
        if self.observing() {
            self.run_with::<true>(machine, max_steps)
        } else {
            self.run_with::<false>(machine, max_steps)
        }
    }

    fn run_with<const OBSERVE: bool>(&mut self, machine: &mut Machine, max_steps: u64) -> RunExit {
        let (image, state, memory) = machine.parts_mut();
        for _ in 0..max_steps {
            let first = match self.exec_one::<false, OBSERVE, _>(image, state, memory) {
                Ok(first) => first,
                Err(fault) => return RunExit::Fault(*fault),
            };
            self.stats.steps += 1;
            self.stats.retired += 1;
            if first.outcome.halt {
                return RunExit::Halted;
            }
            if let Some(code) = first.outcome.syscall {
                return RunExit::Syscall(code);
            }
            self.fuse_next::<OBSERVE>(image, state, memory, &first);
        }
        RunExit::StepLimit
    }

    /// The second half of a retirement unit: when `first` macro-fuses with
    /// an immediately following conditional branch in the same 64-byte
    /// line, executes and retires that branch.
    #[inline]
    fn fuse_next<'i, const OBSERVE: bool>(
        &mut self,
        image: &'i DecodedImage,
        state: &mut ArchState,
        memory: &mut Memory,
        first: &ExecStep<'_>,
    ) -> Option<ExecStep<'i>> {
        let fuses = self.config.fusion
            && first.inst.is_fusible_flag_setter()
            && first.outcome.syscall.is_none()
            && !first.outcome.halt
            && state.pc().value() / 64 == first.pc.value() / 64
            && image
                .probe(state.pc(), &mut self.segment_hint)
                .is_some_and(|next| next.inst.kind() == InstKind::CondBranch);
        if !fuses {
            return None;
        }
        let second = self
            .exec_one::<false, OBSERVE, _>(image, state, memory)
            .ok()?;
        self.stats.retired += 1;
        self.stats.fused_pairs += 1;
        Some(second)
    }

    /// Models the front end running ahead of a single-stepped instruction:
    /// up to `depth` further instructions are fetched and pseudo-executed,
    /// applying their **BTB side effects** (false-hit deallocations,
    /// allocations) without retiring architecturally (§6.3).
    ///
    /// Architectural state and memory are untouched; the RSB is restored
    /// afterwards (squash recovery); the active PW is discarded, as the
    /// interrupt redirects fetch anyway.
    pub fn speculate_ahead(&mut self, machine: &Machine, depth: usize) {
        if depth > 0 {
            if self.observing() {
                self.speculate_with::<true>(machine, depth);
            } else {
                self.speculate_with::<false>(machine, depth);
            }
        }
        self.pw = PwState::CLOSED;
    }

    fn speculate_with<const OBSERVE: bool>(&mut self, machine: &Machine, depth: usize) {
        let mut state = machine.state().clone();
        let spare = std::mem::take(&mut self.spec_pages);
        let mut overlay = SpecOverlay::reusing(machine.memory(), spare);
        self.rsb_saved.clone_from(&self.rsb);
        let saved_cycle = self.cycle;
        for _ in 0..depth {
            match self.exec_one::<true, OBSERVE, _>(machine.image(), &mut state, &mut overlay) {
                Ok(step) => {
                    self.stats.speculated += 1;
                    if step.outcome.halt || step.outcome.syscall.is_some() {
                        break;
                    }
                }
                Err(_) => break,
            }
        }
        self.spec_pages = overlay.into_spare();
        std::mem::swap(&mut self.rsb, &mut self.rsb_saved);
        self.cycle = saved_cycle;
    }

    /// Applies the fault injector's due effects for one retirement unit:
    /// competing-process BTB evictions scheduled up to the current cycle,
    /// and possibly a spurious preemption squash. Architectural path only
    /// — injected faults model the outside world, which does not run
    /// faster because the victim's front end speculates.
    fn perturb_tick<const OBSERVE: bool>(&mut self, pc: VirtAddr) {
        let Some(perturb) = self.perturb.as_mut() else {
            return;
        };
        let geometry = self.config.geometry;
        let evictions = perturb.due_evictions(self.cycle, &geometry);
        let preempted = perturb.spurious_squash();
        for (set, way) in evictions {
            let evicted = self.btb.evict_entry(set, way);
            if OBSERVE {
                self.obs_event(ObsEvent::BtbEvict {
                    set: set as u32,
                    way: way as u32,
                    displaced: evicted,
                });
            }
        }
        if preempted {
            let penalty = self.config.timing.squash_penalty;
            self.cycle += penalty;
            self.stats.squashes += 1;
            // The asynchronous interrupt redirects fetch, discarding the
            // in-flight prediction window (predictor state survives, as on
            // a real context switch).
            self.pw = PwState::CLOSED;
            if OBSERVE {
                self.obs_event(ObsEvent::InjectedSquash {
                    pc: pc.value(),
                    penalty,
                });
            }
        }
    }

    /// Deallocates a falsified BTB entry and, on the architectural path,
    /// charges the squash that refetches past it.
    fn false_hit<const SPECULATIVE: bool, const OBSERVE: bool>(
        &mut self,
        pc: VirtAddr,
        hit: &BtbHit,
        cause: SquashCause,
    ) {
        self.btb.deallocate(hit.set, hit.way);
        self.stats.false_hit_deallocs += 1;
        if OBSERVE {
            self.obs_event(ObsEvent::BtbFalseHit {
                pc: pc.value(),
                mid_instruction: cause == SquashCause::FalseHitMidInstruction,
            });
            self.obs_event(ObsEvent::BtbDeallocate {
                pc: hit.branch_pc.value(),
                speculative: SPECULATIVE,
            });
        }
        if !SPECULATIVE {
            let penalty = self.config.timing.squash_penalty;
            self.cycle += penalty;
            self.stats.squashes += 1;
            if OBSERVE {
                self.obs_event(ObsEvent::Squash {
                    pc: pc.value(),
                    cause: cause.name(),
                    penalty,
                });
            }
        }
    }

    /// The per-instruction front-end + execute pass.
    ///
    /// `SPECULATIVE` suppresses cycle accounting, LBR records and stats
    /// that describe architectural retirement, but *keeps* BTB state
    /// changes — the paper's key point is that deallocation happens at
    /// decode, before retirement (§2.2). `OBSERVE` reports events to the
    /// attached recorder.
    ///
    /// Always inlined: called out of line, moving its result and the
    /// retirement bookkeeping around it costs about a fifth of a rig pass.
    #[inline(always)]
    fn exec_one<'i, const SPECULATIVE: bool, const OBSERVE: bool, M: Bus>(
        &mut self,
        image: &'i DecodedImage,
        state: &mut ArchState,
        mem: &mut M,
    ) -> Result<ExecStep<'i>, Box<IsaError>> {
        let pc = state.pc();

        // (0) Fault injection: the outside world (competing processes,
        // interrupts) acts between this core's retirement units.
        if !SPECULATIVE && self.perturb.is_some() {
            self.perturb_tick::<OBSERVE>(pc);
        }

        // One table probe serves both the window check and the decode.
        let entry = image.probe(pc, &mut self.segment_hint);

        // (1) Prediction-window maintenance: look up the BTB when fetch
        // enters a new 32-byte block, and verify the prediction against
        // the *decoded fetch bundle*. The false-hit check is a property of
        // bundle decode, not of retirement: the front end fetches up to
        // the predicted branch location and the decoders immediately see
        // whether a control transfer really ends there (§2.2 — this is why
        // entries die "as soon as instruction decoding finishes and even
        // if the instruction causing the false hit doesn't retire").
        if self.pw.block != pc.block_base() {
            let mut pending = None;
            while let Some(hit) = self.btb.lookup(pc) {
                let verdict = entry.map_or(BundleVerdict::MidInstruction, |e| {
                    e.bundle.verdict(hit.branch_pc)
                });
                let cause = match verdict {
                    BundleVerdict::BranchEndsThere => {
                        pending = Some((hit.branch_pc, hit.target));
                        break;
                    }
                    // Fetch redirects at the earlier transfer; the
                    // prediction is dropped but the entry survives.
                    BundleVerdict::CutShortByEarlierTransfer => break,
                    BundleVerdict::NonTransferThere => SquashCause::FalseHitNonTransfer,
                    BundleVerdict::MidInstruction => SquashCause::FalseHitMidInstruction,
                };
                // False hit: deallocate and squash; the front end refetches
                // and looks the window up again (it may hit another,
                // lower-priority entry — this is what Experiment 2 observes
                // after jmp L2's entry dies).
                self.false_hit::<SPECULATIVE, OBSERVE>(pc, &hit, cause);
            }
            self.pw = PwState {
                block: pc.block_base(),
                pending,
            };
        }

        // (2) Decode (from the same probe).
        let Some(entry) = entry else {
            // A fetch fault is the cold path: the precise error comes from
            // the uncached decoder, boxed to keep the hot path's return
            // value small.
            let fault = image
                .decode_at(pc)
                .expect_err("the decode cache covers every decodable byte");
            return Err(Box::new(fault));
        };
        let inst = &entry.inst;
        let len = inst.len() as u64;
        let last_byte = pc.offset(len - 1);

        let timing = self.config.timing;
        // The predicted target, if the window predicts a branch ending here.
        let mut pred_here = self
            .pw
            .pending
            .and_then(|(branch_pc, target)| (branch_pc == last_byte).then_some(target));

        // (2b) Boundary-straddling instructions: a branch whose last byte
        // falls in the *next* 32-byte block is indexed in that block's
        // set, so its prediction comes from the next block's lookup — the
        // front end fetches that block before the instruction completes.
        if pred_here.is_none() && last_byte.block_base() != pc.block_base() {
            if let Some(hit) = self.btb.lookup(last_byte.block_base()) {
                if hit.branch_pc == last_byte && inst.is_control_transfer() {
                    pred_here = Some(hit.target);
                } else if hit.branch_pc <= last_byte {
                    // The next block's prediction points into this
                    // instruction's tail bytes: a false hit, detected when
                    // the straddling instruction decodes.
                    self.false_hit::<SPECULATIVE, OBSERVE>(
                        pc,
                        &hit,
                        SquashCause::FalseHitMidInstruction,
                    );
                }
                // A predicted branch further into the next block is left
                // for the next block's own PW maintenance.
            }
        }

        // (3) Execute architecturally.
        let outcome = execute(inst, state, mem);

        // (4) Resolve the (bundle-verified) prediction against reality.
        let mut penalty = 0u64;
        let mut mispredicted = false;

        match outcome.control {
            ControlOutcome::Taken { target } => {
                let kind = inst.kind();
                let squash = match kind {
                    InstKind::Ret => {
                        // Return prediction needs both halves: a BTB entry
                        // marking "a return ends here" (so fetch knows to
                        // redirect at all) and the RSB supplying the
                        // target. The RSB pops at every ret retirement.
                        let rsb_top = self.rsb.pop_back();
                        match pred_here {
                            Some(_) if rsb_top == Some(target) => None,
                            Some(_) => Some(SquashCause::RsbMismatch),
                            None => Some(SquashCause::BtbMissTaken),
                        }
                    }
                    _ => match pred_here {
                        Some(predicted) if predicted == target => None,
                        Some(_) => Some(SquashCause::WrongTarget),
                        // A taken transfer the BTB did not predict (miss,
                        // or the prediction pointed further down the
                        // window).
                        None => Some(SquashCause::BtbMissTaken),
                    },
                };
                match squash {
                    None => self.stats.correct_predictions += 1,
                    // Direct unconditional targets resolve at decode (cheap
                    // resteer); everything else squashes.
                    Some(SquashCause::BtbMissTaken)
                        if matches!(kind, InstKind::DirectJump | InstKind::DirectCall) =>
                    {
                        penalty = timing.resteer_penalty;
                        mispredicted = true;
                        if OBSERVE {
                            self.obs_event(ObsEvent::Resteer {
                                pc: pc.value(),
                                target: target.value(),
                                penalty,
                            });
                        }
                    }
                    Some(cause) => {
                        penalty = timing.squash_penalty;
                        mispredicted = true;
                        if OBSERVE {
                            self.obs_event(ObsEvent::Squash {
                                pc: pc.value(),
                                cause: cause.name(),
                                penalty,
                            });
                        }
                    }
                }
                // Every taken transfer allocates; for returns the entry is
                // the "there is a return here" marker.
                let bkind = BranchKind::from_inst_kind(kind)
                    .expect("a taken transfer maps to a branch kind");
                self.btb.allocate(last_byte, target, bkind);
                if OBSERVE {
                    self.obs_event(ObsEvent::BtbAllocate {
                        pc: pc.value(),
                        target: target.value(),
                    });
                }
                if matches!(kind, InstKind::DirectCall | InstKind::IndirectCall) {
                    if self.rsb.len() == self.config.rsb_depth {
                        self.rsb.pop_front();
                    }
                    self.rsb.push_back(pc.offset(len));
                }
                self.pw = PwState::CLOSED;
            }
            ControlOutcome::NotTaken if pred_here.is_some() => {
                // Bundle-verified branch, predicted taken, fell through:
                // direction misprediction. The entry survives — direction
                // is the conditional predictor's job, not the BTB's.
                penalty = timing.squash_penalty;
                mispredicted = true;
                if OBSERVE {
                    self.obs_event(ObsEvent::Squash {
                        pc: pc.value(),
                        cause: SquashCause::WrongDirection.name(),
                        penalty,
                    });
                }
                self.pw = PwState::CLOSED;
            }
            ControlOutcome::NotTaken | ControlOutcome::NotTransfer => {
                // Smooth fall-through; leaving the block ends the PW. The
                // bundle verification guarantees no prediction can point
                // inside a non-transfer instruction here.
                if self.pw.block != outcome.next_pc.block_base() {
                    self.pw = PwState::CLOSED;
                }
            }
        }

        // (5) Cycle accounting and LBR (architectural path only).
        //
        // The instruction itself retires after its execution cost; the
        // squash/resteer penalty delays whatever fetches *next*. This is
        // why the paper reads the misprediction of `jmp L1` out of the
        // elapsed-cycles field of the *subsequent* `ret`'s LBR record
        // (§2.3): the penalty lands in the following record's interval.
        if !SPECULATIVE {
            let mut cost = timing.base_cost;
            if matches!(*inst, Inst::MulRr(..)) {
                cost += timing.mul_extra;
            }
            if outcome.mem_access.is_some() {
                cost += timing.mem_extra;
            }
            self.cycle += cost;
            if let ControlOutcome::Taken { target } = outcome.control {
                let jitter = self.perturb.as_mut().map_or(0, PerturbState::draw_jitter);
                let clamped =
                    self.lbr
                        .record_jittered(pc, target, self.cycle, mispredicted, jitter);
                if OBSERVE {
                    if jitter > 0 {
                        self.obs_event(ObsEvent::InjectedJitter {
                            pc: pc.value(),
                            cycles: jitter,
                        });
                    }
                    if let Some(shortfall) = clamped {
                        self.obs_event(ObsEvent::LbrClamped {
                            from: pc.value(),
                            shortfall,
                        });
                    }
                    let elapsed = self.lbr.last().map_or(0, |r| r.elapsed);
                    self.obs_event(ObsEvent::LbrRecord {
                        from: pc.value(),
                        to: target.value(),
                        elapsed,
                        mispredicted,
                    });
                }
            }
            self.cycle += penalty;
            if penalty > 0 {
                self.stats.squashes += 1;
            }
        }

        Ok(ExecStep { pc, inst, outcome })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nv_isa::{Assembler, Cond, Reg};

    fn fresh_core() -> Core {
        Core::new(UarchConfig::default())
    }

    fn assemble(build: impl FnOnce(&mut Assembler)) -> Machine {
        let mut asm = Assembler::new(VirtAddr::new(0x40_0000));
        build(&mut asm);
        Machine::new(asm.finish().expect("assembly"))
    }

    #[test]
    fn watchdog_tracks_step_consumption() {
        let mut machine = assemble(|asm| {
            for _ in 0..8 {
                asm.nop();
            }
            asm.halt();
        });
        let mut core = fresh_core();
        assert_eq!(core.watchdog(), None);
        assert!(!core.watchdog_expired());
        core.arm_watchdog(6);
        assert_eq!(core.watchdog(), Some((0, 6)));
        core.run(&mut machine, 3);
        assert_eq!(core.watchdog(), Some((3, 6)));
        assert!(!core.watchdog_expired());
        core.run(&mut machine, 10);
        let (consumed, limit) = core.watchdog().expect("still armed");
        assert!(consumed >= limit, "{consumed} >= {limit}");
        assert!(core.watchdog_expired());
        core.disarm_watchdog();
        assert_eq!(core.watchdog(), None);
        assert!(!core.watchdog_expired());
    }

    #[test]
    fn rearming_the_watchdog_resets_its_baseline() {
        let mut machine = assemble(|asm| {
            for _ in 0..8 {
                asm.nop();
            }
            asm.halt();
        });
        let mut core = fresh_core();
        core.arm_watchdog(2);
        core.run(&mut machine, 4);
        assert!(core.watchdog_expired());
        core.arm_watchdog(100);
        assert_eq!(core.watchdog(), Some((0, 100)));
        assert!(!core.watchdog_expired());
    }

    #[test]
    fn straight_line_code_runs_to_halt() {
        let mut machine = assemble(|asm| {
            asm.mov_ri(Reg::R0, 5);
            asm.add_ri8(Reg::R0, 3);
            asm.halt();
        });
        let mut core = fresh_core();
        let exit = core.run(&mut machine, 100);
        assert_eq!(exit, RunExit::Halted);
        assert_eq!(machine.state().reg(Reg::R0), 8);
        assert!(core.cycle() > 0);
    }

    #[test]
    fn taken_jump_allocates_btb_entry_and_predicts_next_time() {
        let mut machine = assemble(|asm| {
            asm.label("loop");
            asm.add_ri8(Reg::R0, 1);
            asm.cmp_ri8(Reg::R0, 10);
            asm.jcc8(Cond::Ne, "loop");
            asm.halt();
        });
        let mut core = Core::new(UarchConfig {
            fusion: false,
            ..UarchConfig::default()
        });
        let exit = core.run(&mut machine, 1000);
        assert_eq!(exit, RunExit::Halted);
        // 9 taken iterations: the first is a miss, later ones predicted.
        assert!(core.stats().correct_predictions >= 7);
        let entry = core.btb_mut().lookup(VirtAddr::new(0x40_0000 + 7));
        assert!(entry.is_some(), "loop branch has a BTB entry");
    }

    #[test]
    fn false_hit_on_nop_deallocates_entry() {
        // Allocate an entry via a jump, then execute an aliased nop 8 GiB
        // away: Takeaway 1 says the entry must be deallocated.
        let mut machine = assemble(|asm| {
            asm.label("jump_home");
            asm.jmp8("after"); // 2-byte jump at 0x40_0000
            asm.label("after");
            asm.syscall(0); // checkpoint
            asm.org(VirtAddr::new(0x40_0000 + (1 << 33))).unwrap();
            asm.label("alias");
            asm.nop();
            asm.nop();
            asm.nop();
            asm.halt();
        });
        let mut core = fresh_core();
        // Run the jump.
        let exit = core.run(&mut machine, 10);
        assert_eq!(exit, RunExit::Syscall(0));
        assert!(core.btb_mut().lookup(VirtAddr::new(0x40_0000)).is_some());
        // Steer the machine to the aliased nops.
        machine
            .state_mut()
            .set_pc(VirtAddr::new(0x40_0000 + (1 << 33)));
        core.reset_frontend();
        let exit = core.run(&mut machine, 10);
        assert_eq!(exit, RunExit::Halted);
        assert!(
            core.btb_mut().lookup(VirtAddr::new(0x40_0000)).is_none(),
            "aliased non-transfer deallocated the entry"
        );
        assert!(core.stats().false_hit_deallocs >= 1);
    }

    #[test]
    fn false_hit_costs_squash_penalty() {
        let mut machine = assemble(|asm| {
            asm.label("jump_home");
            asm.jmp8("after");
            asm.label("after");
            asm.syscall(0);
            asm.org(VirtAddr::new(0x40_0000 + (1 << 33))).unwrap();
            for _ in 0..4 {
                asm.nop();
            }
            asm.halt();
        });
        // With collision.
        let mut core = fresh_core();
        core.run(&mut machine, 10);
        machine
            .state_mut()
            .set_pc(VirtAddr::new(0x40_0000 + (1 << 33)));
        core.reset_frontend();
        let start = core.cycle();
        core.run(&mut machine, 10);
        let with_collision = core.cycle() - start;

        // Without priming the entry (fresh core).
        let mut machine2 = assemble(|asm| {
            asm.org(VirtAddr::new(0x40_0000 + (1 << 33))).unwrap();
            for _ in 0..4 {
                asm.nop();
            }
            asm.halt();
        });
        let mut core2 = fresh_core();
        let start2 = core2.cycle();
        core2.run(&mut machine2, 10);
        let without_collision = core2.cycle() - start2;

        assert!(
            with_collision >= without_collision + fresh_core().config().timing.squash_penalty,
            "false hit must cost a squash: {with_collision} vs {without_collision}"
        );
    }

    #[test]
    fn call_ret_pair_predicted_by_rsb() {
        // Returns need a warm BTB entry *and* a matching RSB: the first
        // execution mispredicts (cold BTB), a second one is clean.
        let mut machine = assemble(|asm| {
            asm.mov_ri(Reg::R10, 2);
            asm.label("again");
            asm.call("f");
            asm.sub_ri8(Reg::R10, 1);
            asm.cmp_ri8(Reg::R10, 0);
            asm.jcc8(Cond::Ne, "again");
            asm.halt();
            asm.label("f");
            asm.ret();
        });
        let mut core = Core::new(UarchConfig {
            fusion: false,
            ..UarchConfig::default()
        });
        let exit = core.run(&mut machine, 50);
        assert_eq!(exit, RunExit::Halted);
        let rets: Vec<_> = core
            .lbr()
            .iter()
            .filter(|r| r.from == machine.program().symbol("f").unwrap())
            .collect();
        assert_eq!(rets.len(), 2, "two returns recorded");
        assert!(rets[0].mispredicted, "cold return mispredicts");
        assert!(!rets[1].mispredicted, "warm return is BTB+RSB predicted");
    }

    #[test]
    fn speculation_leaves_the_rsb_as_it_was() {
        // A loop over a 20-deep call chain d0 -> ... -> d19 -> leaf, each
        // level `call next; ret` in its own 32-byte block, so that no
        // level's fetch disturbs another's BTB entries. One whole round
        // warms the BTB for every call and return; in the second, eighteen
        // calls fill the 16-deep RSB and wrap it, and running ahead from
        // d17 then speculates three more (wrapping) calls and nine returns.
        const LEVELS: usize = 20;
        let mut machine = assemble(|asm| {
            asm.label("top");
            asm.call("d0");
            asm.jmp32("top");
            for level in 0..LEVELS {
                asm.align(32);
                asm.label(format!("d{level}"));
                if level + 1 == LEVELS {
                    asm.call("leaf");
                } else {
                    asm.call(&format!("d{}", level + 1));
                }
                asm.ret();
            }
            asm.align(32);
            asm.label("leaf");
            asm.ret();
        });
        let mut core = fresh_core();
        let round = 2 * (LEVELS + 1) + 1;
        for _ in 0..round + 18 {
            core.step(&mut machine);
        }
        assert_eq!(machine.pc(), machine.program().symbol("d17").unwrap());
        assert_eq!(core.rsb.len(), core.config.rsb_depth, "the RSB is full");
        let before = core.rsb.clone();
        core.speculate_ahead(&machine, 12);
        assert_eq!(core.stats().speculated, 12);
        assert_eq!(core.rsb, before, "squash recovery restores the RSB");

        // The restored RSB still supplies every return's target: each of
        // the next nine returns is predicted when it retires.
        core.lbr_mut().clear();
        for _ in 0..12 {
            core.step(&mut machine);
        }
        let rets: Vec<_> = core
            .lbr()
            .iter()
            .filter(|r| machine.program().decode_at(r.from).unwrap() == Inst::Ret)
            .collect();
        assert_eq!(rets.len(), 9);
        assert!(rets.iter().all(|r| !r.mispredicted), "{rets:?}");
    }

    #[test]
    fn lbr_elapsed_shows_mispredict_gap() {
        // jmp -> ret back-to-back: after priming, elapsed is small; a
        // deallocated entry makes the jmp unpredicted and elapsed grows.
        let mut machine = assemble(|asm| {
            asm.label("F1");
            asm.jmp8("L1");
            asm.label("L1");
            asm.syscall(0);
            asm.halt();
        });
        let mut core = fresh_core();
        // First run: allocates.
        core.run(&mut machine, 10);
        // Second run: predicted.
        machine.state_mut().set_pc(VirtAddr::new(0x40_0000));
        core.reset_frontend();
        core.lbr_mut().clear();
        core.run(&mut machine, 10);
        let predicted = core.lbr().find_from(VirtAddr::new(0x40_0000)).unwrap();
        assert!(!predicted.mispredicted);

        // Deallocate by hand and rerun: mispredicted, larger elapsed gap.
        let hit = core.btb_mut().lookup(VirtAddr::new(0x40_0000)).unwrap();
        core.btb_mut().deallocate(hit.set, hit.way);
        machine.state_mut().set_pc(VirtAddr::new(0x40_0000));
        core.reset_frontend();
        core.lbr_mut().clear();
        core.run(&mut machine, 10);
        let mispredicted = core.lbr().find_from(VirtAddr::new(0x40_0000)).unwrap();
        assert!(mispredicted.mispredicted);
    }

    #[test]
    fn fusion_retires_cmp_jcc_as_one_step() {
        let mut machine = assemble(|asm| {
            asm.mov_ri(Reg::R0, 1);
            asm.cmp_ri8(Reg::R0, 1);
            asm.jcc8(Cond::Eq, "target");
            asm.halt();
            asm.label("target");
            asm.halt();
        });
        let mut core = fresh_core();
        let _mov = core.step(&mut machine);
        let fused = core.step(&mut machine);
        assert!(fused.fused(), "cmp+jcc retire together");
        assert_eq!(fused.retired_count(), 2);
        assert_eq!(core.stats().fused_pairs, 1);
        assert_eq!(
            fused.second.unwrap().taken,
            Some(machine.program().symbol("target").unwrap())
        );
    }

    #[test]
    fn fusion_disabled_retires_separately() {
        let mut machine = assemble(|asm| {
            asm.cmp_ri8(Reg::R0, 0);
            asm.jcc8(Cond::Eq, "t");
            asm.label("t");
            asm.halt();
        });
        let mut core = Core::new(UarchConfig {
            fusion: false,
            ..UarchConfig::default()
        });
        let step = core.step(&mut machine);
        assert!(!step.fused());
        assert_eq!(step.retired_count(), 1);
    }

    #[test]
    fn speculation_deallocates_without_retiring() {
        // Prime an entry aliasing the insts *after* a syscall; single-step
        // the syscall; speculation must run ahead and deallocate.
        let mut machine = assemble(|asm| {
            asm.syscall(0); // 0x40_0000..0x40_0002
            asm.nop(); // 0x40_0002
            asm.nop();
            asm.halt();
        });
        let mut core = fresh_core();
        // Prime: entry whose low bits equal the nop at 0x40_0002.
        use crate::btb::BranchKind;
        core.btb_mut().allocate(
            VirtAddr::new(0x40_0002 + (1 << 33)),
            VirtAddr::new(0x9999),
            BranchKind::DirectJump,
        );
        let step = core.step(&mut machine);
        assert_eq!(step.syscall, Some(0));
        let pc_before = machine.pc();
        core.speculate_ahead(&machine, 4);
        assert_eq!(machine.pc(), pc_before, "speculation is non-architectural");
        assert!(
            core.btb_mut().lookup(VirtAddr::new(0x40_0002)).is_none(),
            "speculative nop fetch deallocated the aliased entry"
        );
        assert!(core.stats().speculated > 0);
    }

    #[test]
    fn speculative_stores_never_commit() {
        let mut machine = assemble(|asm| {
            asm.mov_ri(Reg::R1, 0x5000);
            asm.syscall(0);
            asm.mov_ri(Reg::R2, 77);
            asm.store(Reg::R1, 0, Reg::R2);
            asm.halt();
        });
        let mut core = fresh_core();
        let exit = core.run(&mut machine, 10);
        assert_eq!(exit, RunExit::Syscall(0));
        core.speculate_ahead(&machine, 4);
        assert_eq!(
            machine.memory().read_u64(VirtAddr::new(0x5000)),
            0,
            "speculative store dropped"
        );
        // Architectural execution commits it.
        core.run(&mut machine, 10);
        assert_eq!(machine.memory().read_u64(VirtAddr::new(0x5000)), 77);
    }

    #[test]
    fn mid_instruction_false_hit_deallocates() {
        // Entry points at offset 2, which is *inside* the 7-byte mov at the
        // aliased address: a mid-instruction false hit.
        let mut machine = assemble(|asm| {
            asm.mov_ri(Reg::R0, 1); // 7 bytes at 0x40_0000
            asm.halt();
        });
        let mut core = fresh_core();
        use crate::btb::BranchKind;
        let alias = VirtAddr::new(0x40_0002 + (1 << 33));
        core.btb_mut()
            .allocate(alias, VirtAddr::new(0x1234), BranchKind::DirectJump);
        core.run(&mut machine, 10);
        assert!(core.btb_mut().lookup(VirtAddr::new(0x40_0002)).is_none());
        assert!(core.stats().false_hit_deallocs >= 1);
    }

    #[test]
    fn fault_on_garbage_pc() {
        let mut machine = assemble(|asm| {
            asm.nop();
        });
        machine.state_mut().set_pc(VirtAddr::new(0xdead_0000));
        let mut core = fresh_core();
        let step = core.step(&mut machine);
        assert!(step.fault.is_some());
        assert_eq!(step.retired_count(), 0);
    }

    #[test]
    fn quiet_perturbation_changes_nothing() {
        // `Perturbation::none()` (with any seed) must leave cycle counts,
        // LBR contents and stats byte-identical to the default core.
        let build = |asm: &mut Assembler| {
            asm.mov_ri(Reg::R0, 0);
            asm.label("loop");
            asm.add_ri8(Reg::R0, 1);
            asm.cmp_ri8(Reg::R0, 20);
            asm.jcc8(Cond::Ne, "loop");
            asm.halt();
        };
        let mut plain_machine = assemble(build);
        let mut plain = fresh_core();
        assert_eq!(plain.run(&mut plain_machine, 1000), RunExit::Halted);

        let mut quiet_machine = assemble(build);
        let mut quiet = Core::new(UarchConfig {
            perturbation: Perturbation {
                seed: 0xdead_beef, // a seed alone must not enable noise
                ..Perturbation::none()
            },
            ..UarchConfig::default()
        });
        assert_eq!(quiet.run(&mut quiet_machine, 1000), RunExit::Halted);

        assert_eq!(plain.cycle(), quiet.cycle());
        assert_eq!(plain.stats(), quiet.stats());
        assert_eq!(plain.btb().stats(), quiet.btb().stats());
        let plain_lbr: Vec<_> = plain.lbr().iter().copied().collect();
        let quiet_lbr: Vec<_> = quiet.lbr().iter().copied().collect();
        assert_eq!(plain_lbr, quiet_lbr);
        assert_eq!(quiet.btb().stats().external_evictions, 0);
    }

    #[test]
    fn noisy_perturbation_fires_and_replays_deterministically() {
        use nv_obs::EventKind;
        let noisy = Perturbation {
            seed: 7,
            eviction_interval: 5,
            jitter_amplitude: 3,
            squash_per_million: 50_000,
        };
        let run = || {
            let mut machine = assemble(|asm| {
                asm.mov_ri(Reg::R0, 0);
                asm.label("loop");
                asm.add_ri8(Reg::R0, 1);
                asm.cmp_ri8(Reg::R0, 50);
                asm.jcc8(Cond::Ne, "loop");
                asm.halt();
            });
            let mut core = Core::new(UarchConfig {
                perturbation: noisy,
                ..UarchConfig::default()
            });
            core.attach_obs(Recorder::new(4096));
            assert_eq!(core.run(&mut machine, 10_000), RunExit::Halted);
            let lbr: Vec<_> = core.lbr().iter().copied().collect();
            let recorder = core.detach_obs().expect("recorder attached");
            let events: Vec<_> = recorder.events().copied().collect();
            let metrics = recorder.metrics();
            (
                core.cycle(),
                core.stats(),
                core.btb().stats(),
                lbr,
                events,
                metrics,
            )
        };
        let first = run();
        assert_eq!(first, run(), "same seed must replay identically");
        // The injector actually perturbed something. (Random evictions
        // mostly land on invalid ways — the BTB holds a handful of entries
        // out of 4096 — so assert on the injection events, not on lucky
        // displacements.)
        assert!(first.5.count(EventKind::BtbEvict) > 0, "evictions fired");
        assert!(first.5.count(EventKind::InjectedJitter) > 0, "jitter fired");
        // And reconfiguring back to quiet removes the injector.
        let mut core = Core::new(UarchConfig {
            perturbation: noisy,
            ..UarchConfig::default()
        });
        core.set_perturbation(Perturbation::none());
        let mut machine = assemble(|asm| {
            asm.jmp8("end");
            asm.label("end");
            asm.halt();
        });
        core.run(&mut machine, 10);
        assert_eq!(core.btb().stats().external_evictions, 0);
    }

    #[test]
    fn observed_run_matches_unobserved_and_captures_events() {
        use nv_obs::EventKind;
        let build = |asm: &mut Assembler| {
            asm.mov_ri(Reg::R0, 0);
            asm.label("loop");
            asm.add_ri8(Reg::R0, 1);
            asm.cmp_ri8(Reg::R0, 10);
            asm.jcc8(Cond::Ne, "loop");
            asm.halt();
        };
        let mut plain_machine = assemble(build);
        let mut plain = fresh_core();
        assert_eq!(plain.run(&mut plain_machine, 1000), RunExit::Halted);

        let mut observed_machine = assemble(build);
        let mut observed = fresh_core();
        observed.attach_obs(Recorder::new(1024));
        observed.obs_enter(Phase::Custom("loop_run"));
        assert_eq!(observed.run(&mut observed_machine, 1000), RunExit::Halted);
        observed.obs_exit(Phase::Custom("loop_run"));

        // Observation must not change the simulation.
        assert_eq!(plain.cycle(), observed.cycle());
        assert_eq!(plain.stats(), observed.stats());
        assert_eq!(plain.btb().stats(), observed.btb().stats());

        let rec = observed.detach_obs().expect("recorder attached");
        assert!(observed.obs().is_none());
        let metrics = rec.metrics();
        assert!(
            metrics.count(EventKind::BtbAllocate) >= 9,
            "taken loop edges"
        );
        assert!(metrics.count(EventKind::LbrRecord) >= 9);
        // Cold first iteration + warm direction flip at loop exit squash.
        assert!(metrics.count(EventKind::Squash) >= 1);
        let span = metrics
            .phase(Phase::Custom("loop_run"))
            .expect("span closed");
        assert_eq!(span.count, 1);
        assert_eq!(span.total_cycles, plain.cycle());
        assert_eq!(metrics.squash_cycles, {
            let squashes: u64 = rec
                .events()
                .filter_map(|t| match t.event {
                    ObsEvent::Squash { penalty, .. } => Some(penalty),
                    _ => None,
                })
                .sum();
            squashes
        });
    }

    #[test]
    fn obs_captures_false_hit_and_deallocation() {
        use nv_obs::EventKind;
        let mut machine = assemble(|asm| {
            asm.jmp8("after");
            asm.label("after");
            asm.syscall(0);
            asm.org(VirtAddr::new(0x40_0000 + (1 << 33))).unwrap();
            asm.nop();
            asm.nop();
            asm.halt();
        });
        let mut core = fresh_core();
        core.attach_obs(Recorder::new(256));
        core.run(&mut machine, 10);
        machine
            .state_mut()
            .set_pc(VirtAddr::new(0x40_0000 + (1 << 33)));
        core.reset_frontend();
        core.run(&mut machine, 10);
        let metrics = core.detach_obs().unwrap().metrics();
        assert!(metrics.count(EventKind::BtbFalseHit) >= 1);
        assert!(metrics.count(EventKind::BtbDeallocate) >= 1);
    }

    #[test]
    fn run_exits_on_step_limit() {
        let mut machine = assemble(|asm| {
            asm.label("spin");
            asm.jmp8("spin");
        });
        let mut core = fresh_core();
        assert_eq!(core.run(&mut machine, 50), RunExit::StepLimit);
    }
}
