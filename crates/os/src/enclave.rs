//! An SGX-like enclave: opaque code, single-stepping, page-fault channel.
//!
//! The enclave models the §6 threat setting:
//!
//! * **Code confidentiality** (SGX PCL, §6.1): the API exposes the set of
//!   code *page numbers* (the OS maps the enclave, so page-table layout is
//!   architecturally visible) but provides no way to read code bytes or the
//!   current PC. Evaluation-only ground-truth accessors are clearly marked.
//! * **Single-stepping** (SGX-Step, §6.3): [`Enclave::single_step`] retires
//!   exactly one retirement unit and then lets the front end run ahead
//!   speculatively, so BTB state reflects a few *non-retired* instructions
//!   too — the measurement ambiguity NV-S has to disambiguate.
//! * **Controlled channel** (§6.3): execute permissions are
//!   supervisor-controlled per page; stepping onto a non-executable page
//!   reports a fault (with the page number) instead of retiring, and data
//!   accesses set accessed/dirty bits the supervisor can harvest.

use nv_isa::{Program, VirtAddr, PAGE_BYTES};
use nv_uarch::{Core, Machine, UarchConfig};

use crate::pagetable::PageTable;
use crate::syscalls;

/// How a single step of the enclave ended.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StepExit {
    /// One retirement unit retired normally.
    Retired,
    /// Fetch faulted on a non-executable page; nothing retired.
    PageFault {
        /// Page number of the faulting fetch.
        page: u64,
    },
    /// The enclave finished (halt or `EXIT`) during this step.
    Finished,
    /// The enclave decoded garbage and is wedged.
    Wedged,
}

/// Supervisor-visible result of one single step.
#[derive(Clone, Debug)]
pub struct EnclaveStep {
    /// How the step ended.
    pub exit: StepExit,
    /// Number of instructions retired (2 for a macro-fused pair — the
    /// supervisor observes retirement *units*, so fusion hides the second
    /// instruction, §7.3).
    pub fused: bool,
    /// Data pages touched by the retired unit (the access-bit channel).
    pub data_pages: Vec<u64>,
}

/// An enclave: a machine whose code is private to the attacker.
///
/// # Examples
///
/// ```
/// use nv_os::{Enclave, StepExit};
/// use nv_isa::{Assembler, VirtAddr};
/// use nv_uarch::{Core, UarchConfig};
///
/// # fn main() -> Result<(), nv_isa::IsaError> {
/// let mut asm = Assembler::new(VirtAddr::new(0x40_0000));
/// asm.nop();
/// asm.halt();
/// let mut enclave = Enclave::new(asm.finish()?);
/// let mut core = Core::new(UarchConfig::default());
/// let step = enclave.single_step(&mut core);
/// assert_eq!(step.exit, StepExit::Retired);        // the nop
/// let step = enclave.single_step(&mut core);
/// assert_eq!(step.exit, StepExit::Finished);       // the halt
/// assert!(enclave.is_finished());
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Enclave {
    machine: Machine,
    page_table: PageTable,
    code_pages: Vec<u64>,
    finished: bool,
    retired_units: u64,
}

impl Enclave {
    /// Loads a program into a fresh enclave.
    pub fn new(program: Program) -> Self {
        let mut code_pages: Vec<u64> = program
            .segments()
            .iter()
            .flat_map(|segment| {
                let first = segment.base().page_number();
                let last = segment.end().offset(PAGE_BYTES - 1).page_number();
                first..last
            })
            .collect();
        code_pages.sort_unstable();
        code_pages.dedup();
        let machine = Machine::new(program);
        Enclave {
            machine,
            page_table: PageTable::new(),
            code_pages,
            finished: false,
            retired_units: 0,
        }
    }

    /// Page numbers holding enclave code. The OS maps the enclave, so this
    /// layout is legitimately attacker-visible; the *contents* are not.
    pub fn code_pages(&self) -> &[u64] {
        &self.code_pages
    }

    /// The supervisor-controlled page table.
    pub fn page_table(&self) -> &PageTable {
        &self.page_table
    }

    /// Mutable page-table access (revoking execute is the controlled
    /// channel).
    pub fn page_table_mut(&mut self) -> &mut PageTable {
        &mut self.page_table
    }

    /// `true` once the enclave has halted or exited.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Retirement units completed so far.
    pub fn retired_units(&self) -> u64 {
        self.retired_units
    }

    /// Restarts the enclave from scratch (fresh machine state). NV-S relies
    /// on deterministic re-execution across passes (§6.3: "the first pass
    /// takes 128/N enclave executions"); the machine's pre-decoded image is
    /// shared across resets, so each pass pays only for architectural
    /// state, not for re-decoding the code.
    pub fn reset(&mut self) {
        self.machine.reset();
        self.finished = false;
        self.retired_units = 0;
    }

    /// Executes exactly one retirement unit under a precise timer
    /// interrupt, then models the speculative overshoot of the front end
    /// (§6.3 "Impact of Speculative Execution").
    ///
    /// Honors the controlled channel: stepping while the current PC's page
    /// is non-executable faults without retiring anything.
    pub fn single_step(&mut self, core: &mut Core) -> EnclaveStep {
        if self.finished {
            return EnclaveStep {
                exit: StepExit::Finished,
                fused: false,
                data_pages: Vec::new(),
            };
        }
        let pc = self.machine.pc();
        if !self.page_table.can_execute(pc) {
            return EnclaveStep {
                exit: StepExit::PageFault {
                    page: pc.page_number(),
                },
                fused: false,
                data_pages: Vec::new(),
            };
        }
        // The interrupt delivery re-steers fetch, so the step starts clean.
        core.reset_frontend();
        let result = core.step(&mut self.machine);
        if result.fault.is_some() {
            self.finished = true;
            return EnclaveStep {
                exit: StepExit::Wedged,
                fused: false,
                data_pages: Vec::new(),
            };
        }
        self.retired_units += 1;
        let mut data_pages = Vec::new();
        for retired in result.retired() {
            self.page_table.record_access(retired.pc, false);
            if let Some(access) = retired.mem_access {
                self.page_table.record_access(access.addr, access.write);
                data_pages.push(access.addr.page_number());
            }
        }
        data_pages.sort_unstable();
        data_pages.dedup();

        let finished = result.halted || result.syscall == Some(syscalls::EXIT);
        if finished {
            self.finished = true;
        } else {
            // The timer interrupt arrives after retirement, but the front
            // end has already fetched ahead — with BTB consequences.
            let depth = core.config().speculation_depth;
            core.speculate_ahead(&self.machine, depth);
        }
        EnclaveStep {
            exit: if finished {
                StepExit::Finished
            } else {
                StepExit::Retired
            },
            fused: result.fused(),
            data_pages,
        }
    }

    /// **Evaluation-only ground truth**: the true current PC. Real SGX
    /// never reveals this; the benchmarks use it to score attack accuracy.
    pub fn ground_truth_pc(&self) -> VirtAddr {
        self.machine.pc()
    }

    /// **Evaluation-only ground truth**: the true PC of every retirement
    /// unit of `program`, from a fresh enclave single-stepped to its end
    /// on a fresh `uarch` core.
    pub fn ground_truth_trace(program: Program, uarch: UarchConfig) -> Vec<VirtAddr> {
        let mut enclave = Enclave::new(program);
        let mut core = Core::new(uarch);
        let mut truth = Vec::new();
        loop {
            truth.push(enclave.ground_truth_pc());
            if enclave.single_step(&mut core).exit != StepExit::Retired {
                return truth;
            }
        }
    }

    /// **Evaluation-only ground truth**: the underlying machine.
    pub fn ground_truth_machine(&self) -> &Machine {
        &self.machine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nv_isa::{Assembler, Reg};
    use nv_uarch::UarchConfig;

    fn enclave_with(build: impl FnOnce(&mut Assembler)) -> Enclave {
        let mut asm = Assembler::new(VirtAddr::new(0x40_0000));
        build(&mut asm);
        Enclave::new(asm.finish().unwrap())
    }

    #[test]
    fn code_pages_cover_all_segments() {
        let mut asm = Assembler::new(VirtAddr::new(0x40_0000));
        asm.nop();
        asm.org(VirtAddr::new(0x40_2010)).unwrap();
        asm.nop();
        let enclave = Enclave::new(asm.finish().unwrap());
        assert_eq!(enclave.code_pages(), &[0x400, 0x402]);
    }

    #[test]
    fn single_step_retires_one_unit() {
        let mut enclave = enclave_with(|asm| {
            asm.mov_ri(Reg::R0, 1);
            asm.add_ri8(Reg::R0, 2);
            asm.halt();
        });
        let mut core = Core::new(UarchConfig::default());
        assert_eq!(enclave.single_step(&mut core).exit, StepExit::Retired);
        assert_eq!(enclave.retired_units(), 1);
        assert_eq!(enclave.single_step(&mut core).exit, StepExit::Retired);
        assert_eq!(enclave.single_step(&mut core).exit, StepExit::Finished);
        assert!(enclave.is_finished());
        assert_eq!(enclave.ground_truth_machine().state().reg(Reg::R0), 3);
    }

    #[test]
    fn fused_pair_is_one_retirement_unit() {
        let mut enclave = enclave_with(|asm| {
            asm.cmp_ri8(Reg::R0, 0);
            asm.jcc8(nv_isa::Cond::Eq, "t");
            asm.label("t");
            asm.halt();
        });
        let mut core = Core::new(UarchConfig::default());
        let step = enclave.single_step(&mut core);
        assert_eq!(step.exit, StepExit::Retired);
        assert!(step.fused, "cmp+jcc fuse into one observable step");
        assert_eq!(enclave.retired_units(), 1);
    }

    #[test]
    fn page_fault_channel_reveals_page_numbers() {
        let mut enclave = enclave_with(|asm| {
            asm.nop();
            asm.halt();
        });
        let mut core = Core::new(UarchConfig::default());
        let page = enclave.code_pages()[0];
        enclave.page_table_mut().set_executable(page, false);
        let step = enclave.single_step(&mut core);
        assert_eq!(step.exit, StepExit::PageFault { page });
        assert_eq!(enclave.retired_units(), 0, "fault retires nothing");
        // Re-enable and continue.
        enclave.page_table_mut().set_executable(page, true);
        assert_eq!(enclave.single_step(&mut core).exit, StepExit::Retired);
    }

    #[test]
    fn data_accesses_reported_and_recorded() {
        let mut enclave = enclave_with(|asm| {
            asm.mov_ri(Reg::R1, 0x9000);
            asm.store(Reg::R1, 0, Reg::R0);
            asm.halt();
        });
        let mut core = Core::new(UarchConfig::default());
        enclave.single_step(&mut core); // mov
        let step = enclave.single_step(&mut core); // store
        assert_eq!(step.data_pages, vec![0x9]);
        assert!(enclave.page_table().perms(0x9).dirty);
    }

    #[test]
    fn reset_replays_deterministically() {
        let mut enclave = enclave_with(|asm| {
            asm.mov_ri(Reg::R0, 7);
            asm.halt();
        });
        let mut core = Core::new(UarchConfig::default());
        while !enclave.is_finished() {
            enclave.single_step(&mut core);
        }
        let first = enclave.retired_units();
        enclave.reset();
        assert!(!enclave.is_finished());
        while !enclave.is_finished() {
            enclave.single_step(&mut core);
        }
        assert_eq!(enclave.retired_units(), first);
    }

    #[test]
    fn speculation_overshoot_touches_btb_after_step() {
        use nv_uarch::BranchKind;
        let mut enclave = enclave_with(|asm| {
            asm.nop(); // stepped instruction
            asm.nop(); // speculated
            asm.nop();
            asm.halt();
        });
        let mut core = Core::new(UarchConfig::default());
        // Prime an entry aliasing the *second* nop.
        core.btb_mut().allocate(
            VirtAddr::new(0x40_0001 + (1 << 33)),
            VirtAddr::new(0x1234),
            BranchKind::DirectJump,
        );
        enclave.single_step(&mut core);
        assert!(
            core.btb().entry_at(VirtAddr::new(0x40_0001)).is_none(),
            "speculated nop deallocated the aliased entry without retiring"
        );
    }
}
