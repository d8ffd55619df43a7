//! A small label-based assembler.
//!
//! The paper's experiments depend on *exact* byte placement: the 2-byte
//! `jmp` of Experiment 1 must sit at `[F1, F1+1]`, attacker code must live
//! exactly 4/8 GiB from victim code, and basic blocks must be alignable to
//! 16/32 bytes. The assembler therefore exposes explicit instruction widths
//! (`jmp8` vs `jmp32`), an `org` directive that starts a new far-away
//! segment, and alignment padding built from real (executable) nops.

use std::collections::BTreeMap;

use crate::{encode_into, Cond, Inst, IsaError, Program, Reg, Segment, VirtAddr};

/// Width of a branch-displacement fixup.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum FixupWidth {
    Rel8,
    Rel32,
}

/// A pending reference to a (possibly not-yet-defined) label.
#[derive(Clone, Debug)]
struct Fixup {
    /// Index of the segment holding the instruction.
    segment: usize,
    /// Byte offset of the *instruction start* within the segment.
    inst_offset: usize,
    /// Byte offset of the displacement field within the instruction.
    field_offset: usize,
    /// Encoded instruction length (displacements are end-relative).
    inst_len: usize,
    /// Displacement width.
    width: FixupWidth,
    /// Referenced label.
    label: String,
}

/// Label-based assembler producing a [`Program`].
///
/// # Examples
///
/// Assembling the skeleton of the paper's Experiment 1 (§2.3): a jump
/// victim `F1` and, 8 GiB away, a nop sled `F2` that aliases it in the BTB:
///
/// ```
/// use nv_isa::{Assembler, VirtAddr};
///
/// # fn main() -> Result<(), nv_isa::IsaError> {
/// let mut asm = Assembler::new(VirtAddr::new(0x10));
/// asm.label("F1");
/// asm.jmp8("L1");
/// asm.label("L1");
/// asm.ret();
/// asm.org(VirtAddr::new(0x10 + (1 << 33)))?; // 8 GiB away: BTB-aliased
/// asm.label("F2");
/// for _ in 0..8 { asm.nop(); }
/// asm.ret();
/// let program = asm.finish()?;
/// assert!(program.symbol("F1").unwrap()
///     .aliases(program.symbol("F2").unwrap(), 33));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Assembler {
    segments: Vec<(VirtAddr, Vec<u8>)>,
    labels: BTreeMap<String, VirtAddr>,
    fixups: Vec<Fixup>,
    abs_fixups: Vec<AbsFixup>,
    inst_starts: Vec<VirtAddr>,
    entry: Option<VirtAddr>,
}

impl Assembler {
    /// Creates an assembler whose first segment starts at `base`.
    pub fn new(base: VirtAddr) -> Self {
        Assembler {
            segments: vec![(base, Vec::new())],
            labels: BTreeMap::new(),
            fixups: Vec::new(),
            abs_fixups: Vec::new(),
            inst_starts: Vec::new(),
            entry: None,
        }
    }

    /// Current cursor: the address the next instruction will occupy.
    pub fn here(&self) -> VirtAddr {
        let (base, bytes) = self
            .segments
            .last()
            .expect("assembler always has a segment");
        base.offset(bytes.len() as u64)
    }

    /// Defines `name` at the current cursor.
    ///
    /// Duplicate definitions are detected at [`Assembler::finish`].
    pub fn label(&mut self, name: impl Into<String>) -> VirtAddr {
        let here = self.here();
        let name = name.into();
        if self.labels.insert(name.clone(), here).is_some() {
            // Remember the duplicate; finish() reports it.
            self.fixups.push(Fixup {
                segment: usize::MAX,
                inst_offset: 0,
                field_offset: 0,
                inst_len: 0,
                width: FixupWidth::Rel8,
                label: format!("\u{0}dup\u{0}{name}"),
            });
        }
        here
    }

    /// Marks the current cursor as the program entry point.
    pub fn entry_here(&mut self) -> VirtAddr {
        let here = self.here();
        self.entry = Some(here);
        here
    }

    /// Starts a new segment at `addr` (must not move backwards).
    ///
    /// Used to place code far away in the address space — e.g. the paper's
    /// 4/8 GiB padding between victim and attacker — without materializing
    /// gigabytes of padding bytes.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::OrgBackwards`] if `addr` precedes the cursor.
    pub fn org(&mut self, addr: VirtAddr) -> Result<(), IsaError> {
        let cursor = self.here();
        if addr < cursor {
            return Err(IsaError::OrgBackwards {
                cursor,
                requested: addr,
            });
        }
        if addr == cursor {
            return Ok(());
        }
        self.segments.push((addr, Vec::new()));
        Ok(())
    }

    /// Pads with executable nops until the cursor is `align`-aligned.
    ///
    /// This is the `-falign-jumps` building block: padding consists of wide
    /// nops (x86-style) so the padded region stays executable.
    ///
    /// # Panics
    ///
    /// Panics if `align` is not a power of two.
    pub fn align(&mut self, align: u64) {
        let target = self.here().align_up(align);
        self.pad_to(target);
    }

    /// Pads with executable nops up to exactly `target`.
    ///
    /// Does nothing if the cursor is already at or past `target`.
    pub fn pad_to(&mut self, target: VirtAddr) {
        loop {
            let gap = target - self.here();
            if gap <= 0 {
                break;
            }
            let chunk = (gap as u64).min(15);
            match chunk {
                1 => self.nop(),
                n => self.nop_n(n as u8),
            };
        }
    }

    /// Emits an already-built instruction, returning its address.
    pub fn emit(&mut self, inst: Inst) -> VirtAddr {
        let at = self.here();
        let (_, bytes) = self.segments.last_mut().expect("segment exists");
        encode_into(&inst, bytes);
        self.inst_starts.push(at);
        at
    }

    fn emit_fixup(
        &mut self,
        inst: Inst,
        field_offset: usize,
        width: FixupWidth,
        label: &str,
    ) -> VirtAddr {
        let at = self.emit(inst);
        let segment = self.segments.len() - 1;
        let seg_len = self.segments[segment].1.len();
        self.fixups.push(Fixup {
            segment,
            inst_offset: seg_len - inst.len(),
            field_offset,
            inst_len: inst.len(),
            width,
            label: label.to_string(),
        });
        at
    }

    // ----- one method per instruction ------------------------------------

    /// Emits a 1-byte `nop`.
    pub fn nop(&mut self) -> VirtAddr {
        self.emit(Inst::Nop)
    }

    /// Emits an `n`-byte wide nop (`2..=15`).
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `n` is out of range; the encoder asserts.
    pub fn nop_n(&mut self, n: u8) -> VirtAddr {
        self.emit(Inst::NopN(n))
    }

    /// Emits `ret`.
    pub fn ret(&mut self) -> VirtAddr {
        self.emit(Inst::Ret)
    }

    /// Emits `hlt`.
    pub fn halt(&mut self) -> VirtAddr {
        self.emit(Inst::Halt)
    }

    /// Emits `syscall code`.
    pub fn syscall(&mut self, code: u8) -> VirtAddr {
        self.emit(Inst::Syscall(code))
    }

    /// Emits `push reg`.
    pub fn push(&mut self, reg: Reg) -> VirtAddr {
        self.emit(Inst::Push(reg))
    }

    /// Emits `pop reg`.
    pub fn pop(&mut self, reg: Reg) -> VirtAddr {
        self.emit(Inst::Pop(reg))
    }

    /// Emits `mov dst, src`.
    pub fn mov_rr(&mut self, dst: Reg, src: Reg) -> VirtAddr {
        self.emit(Inst::MovRr(dst, src))
    }

    /// Emits `mov dst, imm32` (sign-extended).
    pub fn mov_ri(&mut self, dst: Reg, imm: i32) -> VirtAddr {
        self.emit(Inst::MovRi(dst, imm))
    }

    /// Emits the 10-byte `movabs dst, imm64`.
    pub fn mov_abs(&mut self, dst: Reg, imm: u64) -> VirtAddr {
        self.emit(Inst::MovAbs(dst, imm))
    }

    /// Emits `movabs dst, <label address>`, fixed up at finish.
    pub fn mov_label(&mut self, dst: Reg, label: &str) -> VirtAddr {
        // Encode with a zero immediate; record as an absolute fixup by
        // re-using the Rel32 machinery is impossible (64-bit), so absolute
        // label loads get their own fixup channel below.
        let at = self.emit(Inst::MovAbs(dst, 0));
        let segment = self.segments.len() - 1;
        let seg_len = self.segments[segment].1.len();
        self.abs_fixups.push(AbsFixup {
            segment,
            field_offset: seg_len - 8,
            label: label.to_string(),
        });
        at
    }

    /// Emits `lea dst, [base + disp]`.
    pub fn lea(&mut self, dst: Reg, base: Reg, disp: i32) -> VirtAddr {
        self.emit(Inst::Lea(dst, base, disp))
    }

    /// Emits `add dst, src`.
    pub fn add_rr(&mut self, dst: Reg, src: Reg) -> VirtAddr {
        self.emit(Inst::AddRr(dst, src))
    }

    /// Emits `sub dst, src`.
    pub fn sub_rr(&mut self, dst: Reg, src: Reg) -> VirtAddr {
        self.emit(Inst::SubRr(dst, src))
    }

    /// Emits `or dst, src`.
    pub fn or_rr(&mut self, dst: Reg, src: Reg) -> VirtAddr {
        self.emit(Inst::OrRr(dst, src))
    }

    /// Emits `add dst, imm8`.
    pub fn add_ri8(&mut self, dst: Reg, imm: i8) -> VirtAddr {
        self.emit(Inst::AddRi8(dst, imm))
    }

    /// Emits `sub dst, imm8`.
    pub fn sub_ri8(&mut self, dst: Reg, imm: i8) -> VirtAddr {
        self.emit(Inst::SubRi8(dst, imm))
    }

    /// Emits `and dst, imm8`.
    pub fn and_ri8(&mut self, dst: Reg, imm: i8) -> VirtAddr {
        self.emit(Inst::AndRi8(dst, imm))
    }

    /// Emits `shl dst, imm`.
    pub fn shl_ri(&mut self, dst: Reg, imm: u8) -> VirtAddr {
        self.emit(Inst::ShlRi(dst, imm))
    }

    /// Emits `shr dst, imm`.
    pub fn shr_ri(&mut self, dst: Reg, imm: u8) -> VirtAddr {
        self.emit(Inst::ShrRi(dst, imm))
    }

    /// Emits `mul dst, src`.
    pub fn mul_rr(&mut self, dst: Reg, src: Reg) -> VirtAddr {
        self.emit(Inst::MulRr(dst, src))
    }

    /// Emits `neg reg`.
    pub fn neg(&mut self, reg: Reg) -> VirtAddr {
        self.emit(Inst::Neg(reg))
    }

    /// Emits `not reg`.
    pub fn not(&mut self, reg: Reg) -> VirtAddr {
        self.emit(Inst::Not(reg))
    }

    /// Emits `cmp a, b`.
    pub fn cmp_rr(&mut self, a: Reg, b: Reg) -> VirtAddr {
        self.emit(Inst::CmpRr(a, b))
    }

    /// Emits `cmp a, imm8`.
    pub fn cmp_ri8(&mut self, a: Reg, imm: i8) -> VirtAddr {
        self.emit(Inst::CmpRi8(a, imm))
    }

    /// Emits `ld dst, [base + disp8]`.
    pub fn load(&mut self, dst: Reg, base: Reg, disp: i8) -> VirtAddr {
        self.emit(Inst::Load(dst, base, disp))
    }

    /// Emits `st [base + disp8], src`.
    pub fn store(&mut self, base: Reg, disp: i8, src: Reg) -> VirtAddr {
        self.emit(Inst::Store(base, disp, src))
    }

    /// Emits `st [base + disp32], src`.
    pub fn store32(&mut self, base: Reg, disp: i32, src: Reg) -> VirtAddr {
        self.emit(Inst::Store32(base, disp, src))
    }

    /// Emits a 2-byte conditional branch to `label`.
    pub fn jcc8(&mut self, cond: Cond, label: &str) -> VirtAddr {
        self.emit_fixup(Inst::Jcc(cond, 0), 1, FixupWidth::Rel8, label)
    }

    /// Emits a 6-byte conditional branch to `label`.
    pub fn jcc32(&mut self, cond: Cond, label: &str) -> VirtAddr {
        self.emit_fixup(Inst::Jcc32(cond, 0), 1, FixupWidth::Rel32, label)
    }

    /// Emits the paper's workhorse: a 2-byte direct jump to `label`.
    pub fn jmp8(&mut self, label: &str) -> VirtAddr {
        self.emit_fixup(Inst::JmpRel8(0), 1, FixupWidth::Rel8, label)
    }

    /// Emits a 5-byte direct jump to `label`.
    pub fn jmp32(&mut self, label: &str) -> VirtAddr {
        self.emit_fixup(Inst::JmpRel32(0), 1, FixupWidth::Rel32, label)
    }

    /// Emits a 5-byte direct call to `label`.
    pub fn call(&mut self, label: &str) -> VirtAddr {
        self.emit_fixup(Inst::CallRel32(0), 1, FixupWidth::Rel32, label)
    }

    /// Emits `jmp *reg`.
    pub fn jmp_ind(&mut self, reg: Reg) -> VirtAddr {
        self.emit(Inst::JmpInd(reg))
    }

    /// Emits `call *reg`.
    pub fn call_ind(&mut self, reg: Reg) -> VirtAddr {
        self.emit(Inst::CallInd(reg))
    }

    /// Emits `setcc reg` (reg = 1 if the condition holds, else 0).
    pub fn setcc(&mut self, cond: Cond, reg: Reg) -> VirtAddr {
        self.emit(Inst::Setcc(cond, reg))
    }

    /// Emits `cmovcc dst, src`.
    pub fn cmov(&mut self, cond: Cond, dst: Reg, src: Reg) -> VirtAddr {
        self.emit(Inst::Cmov(cond, dst, src))
    }

    // ----------------------------------------------------------------------

    /// Resolves all fixups and produces the final [`Program`].
    ///
    /// # Errors
    ///
    /// * [`IsaError::UndefinedLabel`] — a branch references an unknown label;
    /// * [`IsaError::DuplicateLabel`] — a label was defined twice;
    /// * [`IsaError::DisplacementOverflow`] — a `rel8`/`rel32` target is out
    ///   of reach;
    /// * [`IsaError::OverlappingSegments`] — `org` segments collide.
    pub fn finish(mut self) -> Result<Program, IsaError> {
        // Report duplicate labels first (recorded as sentinel fixups).
        for fixup in &self.fixups {
            if fixup.segment == usize::MAX {
                let name = fixup
                    .label
                    .trim_start_matches('\u{0}')
                    .trim_start_matches("dup")
                    .trim_start_matches('\u{0}');
                return Err(IsaError::DuplicateLabel(name.to_string()));
            }
        }
        // Patch relative fixups.
        for fixup in std::mem::take(&mut self.fixups) {
            let target = *self
                .labels
                .get(&fixup.label)
                .ok_or_else(|| IsaError::UndefinedLabel(fixup.label.clone()))?;
            let (base, bytes) = &mut self.segments[fixup.segment];
            let inst_addr = base.offset(fixup.inst_offset as u64);
            let next = inst_addr.offset(fixup.inst_len as u64);
            let disp = target - next;
            let field = fixup.inst_offset + fixup.field_offset;
            match fixup.width {
                FixupWidth::Rel8 => {
                    let small = i8::try_from(disp).map_err(|_| IsaError::DisplacementOverflow {
                        from: inst_addr,
                        to: target,
                        width: 8,
                    })?;
                    bytes[field] = small as u8;
                }
                FixupWidth::Rel32 => {
                    let wide = i32::try_from(disp).map_err(|_| IsaError::DisplacementOverflow {
                        from: inst_addr,
                        to: target,
                        width: 32,
                    })?;
                    bytes[field..field + 4].copy_from_slice(&wide.to_le_bytes());
                }
            }
        }
        // Patch absolute fixups.
        for fixup in std::mem::take(&mut self.abs_fixups) {
            let target = *self
                .labels
                .get(&fixup.label)
                .ok_or_else(|| IsaError::UndefinedLabel(fixup.label.clone()))?;
            let (_, bytes) = &mut self.segments[fixup.segment];
            bytes[fixup.field_offset..fixup.field_offset + 8]
                .copy_from_slice(&target.value().to_le_bytes());
        }
        // Build the program.
        let mut program = Program::new();
        for (base, bytes) in self.segments {
            if !bytes.is_empty() {
                program.add_segment(Segment::new(base, bytes))?;
            }
        }
        for (name, addr) in self.labels {
            program.define_symbol(name, addr);
        }
        for addr in self.inst_starts {
            program.record_inst_start(addr);
        }
        if let Some(entry) = self.entry {
            program.set_entry(entry);
        }
        program.seal();
        Ok(program)
    }
}

/// Absolute (64-bit label address) fixup for `mov_label`.
#[derive(Clone, Debug)]
struct AbsFixup {
    segment: usize,
    field_offset: usize,
    label: String,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Inst;

    #[test]
    fn forward_and_backward_references_resolve() {
        let mut asm = Assembler::new(VirtAddr::new(0x100));
        asm.label("top");
        asm.jmp8("bottom"); // forward
        asm.label("bottom");
        asm.jmp8("top"); // backward
        let program = asm.finish().unwrap();
        let top = program.symbol("top").unwrap();
        let bottom = program.symbol("bottom").unwrap();
        let first = program.decode_at(top).unwrap();
        let second = program.decode_at(bottom).unwrap();
        assert_eq!(first.direct_target(top), Some(bottom));
        assert_eq!(second.direct_target(bottom), Some(top));
    }

    #[test]
    fn undefined_label_is_an_error() {
        let mut asm = Assembler::new(VirtAddr::new(0));
        asm.jmp8("nowhere");
        assert!(matches!(
            asm.finish(),
            Err(IsaError::UndefinedLabel(name)) if name == "nowhere"
        ));
    }

    #[test]
    fn duplicate_label_is_an_error() {
        let mut asm = Assembler::new(VirtAddr::new(0));
        asm.label("twice");
        asm.nop();
        asm.label("twice");
        assert!(matches!(
            asm.finish(),
            Err(IsaError::DuplicateLabel(name)) if name == "twice"
        ));
    }

    #[test]
    fn rel8_overflow_detected() {
        let mut asm = Assembler::new(VirtAddr::new(0));
        asm.jmp8("far");
        for _ in 0..200 {
            asm.nop();
        }
        asm.label("far");
        asm.ret();
        assert!(matches!(
            asm.finish(),
            Err(IsaError::DisplacementOverflow { width: 8, .. })
        ));
    }

    #[test]
    fn rel32_reaches_what_rel8_cannot() {
        let mut asm = Assembler::new(VirtAddr::new(0));
        asm.jmp32("far");
        for _ in 0..200 {
            asm.nop();
        }
        asm.label("far");
        asm.ret();
        let program = asm.finish().unwrap();
        let inst = program.decode_at(VirtAddr::new(0)).unwrap();
        assert_eq!(inst.direct_target(VirtAddr::new(0)), program.symbol("far"));
    }

    #[test]
    fn org_creates_far_segments() {
        let mut asm = Assembler::new(VirtAddr::new(0x1000));
        asm.nop();
        asm.org(VirtAddr::new(0x1000 + (1 << 33))).unwrap();
        asm.label("far");
        asm.ret();
        let program = asm.finish().unwrap();
        assert_eq!(program.segments().len(), 2);
        assert_eq!(
            program.symbol("far"),
            Some(VirtAddr::new(0x1000 + (1 << 33)))
        );
    }

    #[test]
    fn org_backwards_is_an_error() {
        let mut asm = Assembler::new(VirtAddr::new(0x1000));
        asm.nop();
        assert!(matches!(
            asm.org(VirtAddr::new(0x500)),
            Err(IsaError::OrgBackwards { .. })
        ));
    }

    #[test]
    fn org_to_cursor_is_a_noop() {
        let mut asm = Assembler::new(VirtAddr::new(0x1000));
        asm.nop();
        asm.org(VirtAddr::new(0x1001)).unwrap();
        asm.ret();
        let program = asm.finish().unwrap();
        assert_eq!(program.segments().len(), 1);
    }

    #[test]
    fn align_pads_with_executable_nops() {
        let mut asm = Assembler::new(VirtAddr::new(0x101));
        asm.align(32);
        assert_eq!(asm.here(), VirtAddr::new(0x120));
        asm.ret();
        let program = asm.finish().unwrap();
        // Every padding byte region decodes as nops from its start.
        let mut pc = VirtAddr::new(0x101);
        while pc < VirtAddr::new(0x120) {
            let inst = program.decode_at(pc).unwrap();
            assert_eq!(inst.mnemonic(), "nop");
            pc += inst.len() as u64;
        }
    }

    #[test]
    fn pad_to_long_gap_uses_wide_nops() {
        let mut asm = Assembler::new(VirtAddr::new(0));
        asm.pad_to(VirtAddr::new(100));
        assert_eq!(asm.here(), VirtAddr::new(100));
        // 100 = 6*15 + 10, so at most 7 instructions.
        let program = asm.finish().unwrap();
        assert!(program.inst_starts().len() <= 8);
    }

    #[test]
    fn mov_label_loads_absolute_address() {
        let mut asm = Assembler::new(VirtAddr::new(0x2000));
        asm.mov_label(Reg::R7, "data");
        asm.ret();
        asm.label("data");
        let program = asm.finish().unwrap();
        let inst = program.decode_at(VirtAddr::new(0x2000)).unwrap();
        assert_eq!(
            inst,
            Inst::MovAbs(Reg::R7, program.symbol("data").unwrap().value())
        );
    }

    #[test]
    fn entry_here_sets_entry() {
        let mut asm = Assembler::new(VirtAddr::new(0x3000));
        asm.nop();
        asm.entry_here();
        asm.ret();
        let program = asm.finish().unwrap();
        assert_eq!(program.entry(), Some(VirtAddr::new(0x3001)));
    }

    #[test]
    fn exact_layout_of_experiment1_jump() {
        // jmp8 is exactly 2 bytes, as required by the paper's F1 layout.
        let mut asm = Assembler::new(VirtAddr::new(0x1e));
        asm.label("F1");
        asm.jmp8("L1");
        asm.label("L1");
        asm.ret();
        let program = asm.finish().unwrap();
        assert_eq!(program.symbol("L1"), Some(VirtAddr::new(0x20)));
    }
}
