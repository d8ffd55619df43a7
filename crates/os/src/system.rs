//! The scheduler: processes sharing one core, one BTB.

use nv_isa::Program;
use nv_uarch::{Core, RunExit, StepResult, UarchConfig};

use crate::process::{Pid, Process, ProcessStatus};
use crate::syscalls;

/// BTB-hardening policy applied by the OS at context switches (§8.2).
///
/// The paper: "NightVision can be mitigated by constantly flushing BTB
/// state, or enforcing strict isolation between security domains. However,
/// neither approach has been adopted by current processors, due to the
/// performance cost and implementation complexity."
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum BtbMitigation {
    /// Stock behaviour: predictor state survives context switches.
    #[default]
    None,
    /// Flush the whole BTB on every context switch.
    FlushOnSwitch,
    /// Tag predictor entries with a per-process security domain and match
    /// only same-domain entries (Lee et al. / Zhao et al. [38, 70]).
    DomainIsolation,
}

/// Why [`System::run`] handed control back.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RunOutcome {
    /// The process called `sched_yield`.
    Yielded,
    /// The process exited (halt or `EXIT` syscall).
    Exited,
    /// The process raised a non-scheduling syscall.
    Syscall(u8),
    /// The process faulted on a bad fetch.
    Faulted,
    /// The step budget ran out.
    StepLimit,
}

impl RunOutcome {
    /// `true` if the process yielded.
    pub fn yielded(&self) -> bool {
        matches!(self, RunOutcome::Yielded)
    }

    /// `true` if the process exited.
    pub fn exited(&self) -> bool {
        matches!(self, RunOutcome::Exited)
    }
}

/// Processes multiplexed onto one simulated core.
///
/// Because every process executes on the same [`Core`], they share its BTB,
/// LBR and RSB — the co-location assumption of the user-level attacker
/// model (§3). A context switch resets only the transient front-end state;
/// predictor contents survive, which *is* the side channel.
///
/// # Examples
///
/// See the crate-level example.
#[derive(Clone, Debug)]
pub struct System {
    core: Core,
    processes: Vec<Process>,
    last_scheduled: Option<Pid>,
    mitigation: BtbMitigation,
}

impl System {
    /// Creates a system with an empty process table and no BTB hardening.
    pub fn new(config: UarchConfig) -> Self {
        System::with_mitigation(config, BtbMitigation::None)
    }

    /// Creates a system applying a BTB-hardening policy (§8.2).
    pub fn with_mitigation(config: UarchConfig, mitigation: BtbMitigation) -> Self {
        let mut core = Core::new(config);
        if mitigation == BtbMitigation::DomainIsolation {
            core.btb_mut().set_domain_isolation(true);
        }
        System {
            core,
            processes: Vec::new(),
            last_scheduled: None,
            mitigation,
        }
    }

    /// The active hardening policy.
    pub fn mitigation(&self) -> BtbMitigation {
        self.mitigation
    }

    /// Spawns a process from a program image.
    pub fn spawn(&mut self, program: Program) -> Pid {
        let pid = Pid::new(self.processes.len() as u32);
        self.processes.push(Process::new(pid, program));
        pid
    }

    /// The shared core.
    pub fn core(&self) -> &Core {
        &self.core
    }

    /// Mutable core access (BTB flushes, LBR reads — the attacker's tools).
    pub fn core_mut(&mut self) -> &mut Core {
        &mut self.core
    }

    /// A process by pid.
    ///
    /// # Panics
    ///
    /// Panics if `pid` was not produced by this system's
    /// [`System::spawn`].
    pub fn process(&self, pid: Pid) -> &Process {
        &self.processes[pid.value() as usize]
    }

    /// Mutable process access.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is unknown.
    pub fn process_mut(&mut self, pid: Pid) -> &mut Process {
        &mut self.processes[pid.value() as usize]
    }

    /// Applies the context-switch path (front-end reset + mitigation) for
    /// a switch to *attacker-owned* execution that is driven directly on
    /// the core rather than through a spawned process (the NV-U rig runs
    /// its snippets this way). Without this, a measurement harness would
    /// accidentally evade `FlushOnSwitch`/`DomainIsolation`.
    pub fn schedule_attacker(&mut self) {
        self.context_switch_to(Pid::new(u32::MAX));
    }

    fn context_switch_to(&mut self, pid: Pid) {
        if self.last_scheduled != Some(pid) {
            // The interrupt/switch path drains the front end; whether
            // predictor state survives depends on the hardening policy.
            self.core.reset_frontend();
            match self.mitigation {
                BtbMitigation::None => {}
                BtbMitigation::FlushOnSwitch => self.core.btb_mut().flush(),
                BtbMitigation::DomainIsolation => {
                    self.core
                        .btb_mut()
                        .set_domain((pid.value() as u16).wrapping_add(1));
                }
            }
            self.last_scheduled = Some(pid);
        }
    }

    /// Executes one retirement unit of `pid` on the shared core.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is unknown.
    pub fn step(&mut self, pid: Pid) -> StepResult {
        self.context_switch_to(pid);
        let process = &mut self.processes[pid.value() as usize];
        let result = self.core.step(process.machine_mut());
        if result.halted || result.syscall == Some(syscalls::EXIT) {
            process.set_status(ProcessStatus::Exited);
        } else if result.fault.is_some() {
            process.set_status(ProcessStatus::Faulted);
        }
        result
    }

    /// Runs `pid` until it yields, exits, faults, raises another syscall or
    /// exhausts `max_steps`.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is unknown.
    pub fn run(&mut self, pid: Pid, max_steps: u64) -> RunOutcome {
        self.context_switch_to(pid);
        if self.process(pid).status() != ProcessStatus::Ready {
            return RunOutcome::Exited;
        }
        let process = &mut self.processes[pid.value() as usize];
        match self.core.run(process.machine_mut(), max_steps) {
            RunExit::Halted => {
                process.set_status(ProcessStatus::Exited);
                RunOutcome::Exited
            }
            RunExit::Syscall(syscalls::EXIT) => {
                process.set_status(ProcessStatus::Exited);
                RunOutcome::Exited
            }
            RunExit::Syscall(syscalls::YIELD) => RunOutcome::Yielded,
            RunExit::Syscall(code) => RunOutcome::Syscall(code),
            RunExit::Fault(_) => {
                process.set_status(ProcessStatus::Faulted);
                RunOutcome::Faulted
            }
            RunExit::StepLimit => RunOutcome::StepLimit,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nv_isa::{Assembler, Reg, VirtAddr};
    use nv_uarch::BranchKind;

    fn yield_then_exit_program(base: u64) -> Program {
        let mut asm = Assembler::new(VirtAddr::new(base));
        asm.syscall(syscalls::YIELD);
        asm.syscall(syscalls::YIELD);
        asm.halt();
        asm.finish().unwrap()
    }

    #[test]
    fn round_trip_yields() {
        let mut system = System::new(UarchConfig::default());
        let a = system.spawn(yield_then_exit_program(0x10_0000));
        let b = system.spawn(yield_then_exit_program(0x20_0000));
        assert!(system.run(a, 100).yielded());
        assert!(system.run(b, 100).yielded());
        assert!(system.run(a, 100).yielded());
        assert!(system.run(a, 100).exited());
        assert!(system.run(b, 100).yielded());
        assert!(system.run(b, 100).exited());
        // Running an exited process reports exited.
        assert!(system.run(a, 100).exited());
    }

    #[test]
    fn processes_share_the_btb() {
        // Process A allocates a BTB entry; after a context switch, process
        // B's aliased nops deallocate it — co-location in action.
        let mut asm = Assembler::new(VirtAddr::new(0x40_0000));
        asm.label("jump");
        asm.jmp8("next");
        asm.label("next");
        asm.syscall(syscalls::YIELD);
        asm.halt();
        let victim = asm.finish().unwrap();

        let mut asm = Assembler::new(VirtAddr::new(0x40_0000 + (1 << 33)));
        for _ in 0..4 {
            asm.nop();
        }
        asm.syscall(syscalls::YIELD);
        asm.halt();
        let attacker = asm.finish().unwrap();

        let mut system = System::new(UarchConfig::default());
        let v = system.spawn(victim);
        let a = system.spawn(attacker);
        assert!(system.run(v, 100).yielded());
        assert!(
            system
                .core()
                .btb()
                .entry_at(VirtAddr::new(0x40_0001))
                .is_some(),
            "victim jump allocated"
        );
        assert!(system.run(a, 100).yielded());
        assert!(
            system
                .core()
                .btb()
                .entry_at(VirtAddr::new(0x40_0001))
                .is_none(),
            "attacker nops deallocated the victim's entry across the switch"
        );
    }

    #[test]
    fn exit_syscall_terminates() {
        let mut asm = Assembler::new(VirtAddr::new(0x30_0000));
        asm.mov_ri(Reg::R0, 1);
        asm.syscall(syscalls::EXIT);
        asm.nop();
        let mut system = System::new(UarchConfig::default());
        let pid = system.spawn(asm.finish().unwrap());
        assert!(system.run(pid, 100).exited());
        assert_eq!(system.process(pid).status(), ProcessStatus::Exited);
    }

    #[test]
    fn custom_syscalls_surface_to_the_caller() {
        let mut asm = Assembler::new(VirtAddr::new(0x30_0000));
        asm.syscall(syscalls::CHECKPOINT);
        asm.halt();
        let mut system = System::new(UarchConfig::default());
        let pid = system.spawn(asm.finish().unwrap());
        assert_eq!(
            system.run(pid, 100),
            RunOutcome::Syscall(syscalls::CHECKPOINT)
        );
    }

    #[test]
    fn fault_is_reported_and_sticky() {
        let mut asm = Assembler::new(VirtAddr::new(0x30_0000));
        asm.nop();
        let mut system = System::new(UarchConfig::default());
        let pid = system.spawn(asm.finish().unwrap());
        system
            .process_mut(pid)
            .machine_mut()
            .state_mut()
            .set_pc(VirtAddr::new(0xbad_0000));
        assert_eq!(system.run(pid, 100), RunOutcome::Faulted);
        assert_eq!(system.process(pid).status(), ProcessStatus::Faulted);
    }

    #[test]
    fn step_limit_reported() {
        let mut asm = Assembler::new(VirtAddr::new(0x30_0000));
        asm.label("spin");
        asm.jmp8("spin");
        let mut system = System::new(UarchConfig::default());
        let pid = system.spawn(asm.finish().unwrap());
        assert_eq!(system.run(pid, 10), RunOutcome::StepLimit);
    }

    #[test]
    fn flush_on_switch_clears_the_btb() {
        let jumpy = |base: u64| {
            let mut asm = Assembler::new(VirtAddr::new(base));
            asm.jmp8("on");
            asm.label("on");
            asm.syscall(syscalls::YIELD);
            asm.halt();
            asm.finish().unwrap()
        };
        let mut system =
            System::with_mitigation(UarchConfig::default(), BtbMitigation::FlushOnSwitch);
        let a = system.spawn(jumpy(0x10_0000));
        let b = system.spawn(yield_then_exit_program(0x20_0000));
        system.run(a, 100);
        assert!(
            system.core().btb().occupancy() > 0,
            "process A's jump left an entry"
        );
        // Switching to (branchless) B flushes A's entries.
        system.run(b, 100);
        assert_eq!(
            system.core().btb().occupancy(),
            0,
            "the switch must have flushed everything"
        );
    }

    #[test]
    fn domain_isolation_separates_processes() {
        // The cross-process deallocation of `processes_share_the_btb`
        // must NOT happen under domain isolation.
        let mut asm = Assembler::new(VirtAddr::new(0x40_0000));
        asm.label("jump");
        asm.jmp8("next");
        asm.label("next");
        asm.syscall(syscalls::YIELD);
        asm.halt();
        let victim = asm.finish().unwrap();

        let mut asm = Assembler::new(VirtAddr::new(0x40_0000 + (1 << 33)));
        for _ in 0..4 {
            asm.nop();
        }
        asm.syscall(syscalls::YIELD);
        asm.halt();
        let attacker = asm.finish().unwrap();

        let mut system =
            System::with_mitigation(UarchConfig::default(), BtbMitigation::DomainIsolation);
        let v = system.spawn(victim);
        let a = system.spawn(attacker);
        assert!(system.run(v, 100).yielded());
        assert!(
            system
                .core()
                .btb()
                .entry_at(VirtAddr::new(0x40_0001))
                .is_some(),
            "victim jump allocated in its own domain"
        );
        assert!(system.run(a, 100).yielded());
        assert!(
            system
                .core()
                .btb()
                .entry_at(VirtAddr::new(0x40_0001))
                .is_some(),
            "attacker nops cannot see (or deallocate) the victim's entry"
        );
    }

    #[test]
    fn context_switch_resets_frontend_but_not_predictors() {
        let mut system = System::new(UarchConfig::default());
        let a = system.spawn(yield_then_exit_program(0x10_0000));
        let b = system.spawn(yield_then_exit_program(0x20_0000));
        system.core_mut().btb_mut().allocate(
            VirtAddr::new(0x999),
            VirtAddr::new(0x1000),
            BranchKind::DirectJump,
        );
        system.run(a, 100);
        system.run(b, 100);
        assert!(
            system.core().btb().entry_at(VirtAddr::new(0x999)).is_some(),
            "BTB contents survive context switches"
        );
    }
}
