//! Program images: sparse code segments, symbols and ground truth.
//!
//! A [`Program`] is what the assembler produces and what the OS loader maps
//! into a process. It holds raw code bytes (possibly in widely separated
//! segments — the paper places attacker code 4/8 GiB away from the victim so
//! the two alias in the BTB), a symbol table, and the ground-truth set of
//! instruction start addresses used by tests and by the evaluation harness
//! to score attack accuracy.

use std::collections::BTreeMap;
use std::fmt;

use crate::{decode, Inst, IsaError, VirtAddr, MAX_INST_BYTES};

/// A contiguous run of code bytes at a fixed virtual address.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Segment {
    base: VirtAddr,
    bytes: Vec<u8>,
}

impl Segment {
    /// Creates a segment from its base address and raw bytes.
    pub fn new(base: VirtAddr, bytes: Vec<u8>) -> Self {
        Segment { base, bytes }
    }

    /// Base virtual address of the segment.
    pub fn base(&self) -> VirtAddr {
        self.base
    }

    /// First address past the segment.
    pub fn end(&self) -> VirtAddr {
        self.base.offset(self.bytes.len() as u64)
    }

    /// The raw bytes of the segment.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Number of bytes in the segment.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// `true` if the segment holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Reads the byte at `addr`, if it falls inside this segment.
    pub fn read(&self, addr: VirtAddr) -> Option<u8> {
        if addr >= self.base && addr < self.end() {
            Some(self.bytes[(addr - self.base) as usize])
        } else {
            None
        }
    }
}

/// An assembled program: code segments + symbols + instruction boundaries.
///
/// # Examples
///
/// ```
/// use nv_isa::{Assembler, VirtAddr, Inst};
///
/// # fn main() -> Result<(), nv_isa::IsaError> {
/// let mut asm = Assembler::new(VirtAddr::new(0x1000));
/// asm.label("f");
/// asm.nop();
/// asm.ret();
/// let program = asm.finish()?;
///
/// let f = program.symbol("f").unwrap();
/// assert_eq!(program.decode_at(f)?, Inst::Nop);
/// assert!(program.is_inst_start(f.offset(1)));  // the ret
/// assert!(!program.is_inst_start(f.offset(2)));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Program {
    segments: Vec<Segment>,
    symbols: BTreeMap<String, VirtAddr>,
    inst_starts: Vec<VirtAddr>,
    entry: Option<VirtAddr>,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Self {
        Program::default()
    }

    /// Adds a code segment.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::OverlappingSegments`] if the new segment overlaps
    /// an existing one.
    pub fn add_segment(&mut self, segment: Segment) -> Result<(), IsaError> {
        for existing in &self.segments {
            let overlap = segment.base() < existing.end() && existing.base() < segment.end();
            if overlap && !segment.is_empty() && !existing.is_empty() {
                let at = segment.base().max(existing.base());
                return Err(IsaError::OverlappingSegments { at });
            }
        }
        self.segments.push(segment);
        self.segments.sort_by_key(Segment::base);
        Ok(())
    }

    /// Merges another program's segments, symbols and boundaries into this
    /// one. Used to co-locate attacker and victim images in one address
    /// space.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::OverlappingSegments`] on code overlap and
    /// [`IsaError::DuplicateLabel`] on symbol clashes.
    pub fn merge(&mut self, other: &Program) -> Result<(), IsaError> {
        for segment in &other.segments {
            self.add_segment(segment.clone())?;
        }
        for (name, addr) in &other.symbols {
            if self.symbols.contains_key(name) {
                return Err(IsaError::DuplicateLabel(name.clone()));
            }
            self.symbols.insert(name.clone(), *addr);
        }
        self.inst_starts.extend(other.inst_starts.iter().copied());
        self.inst_starts.sort_unstable();
        self.inst_starts.dedup();
        Ok(())
    }

    /// Defines a symbol.
    pub fn define_symbol(&mut self, name: impl Into<String>, addr: VirtAddr) {
        self.symbols.insert(name.into(), addr);
    }

    /// Looks up a symbol's address.
    pub fn symbol(&self, name: &str) -> Option<VirtAddr> {
        self.symbols.get(name).copied()
    }

    /// Iterates over `(name, address)` pairs in name order.
    pub fn symbols(&self) -> impl Iterator<Item = (&str, VirtAddr)> {
        self.symbols
            .iter()
            .map(|(name, addr)| (name.as_str(), *addr))
    }

    /// The program's entry point, defaulting to the lowest segment base.
    pub fn entry(&self) -> Option<VirtAddr> {
        self.entry
            .or_else(|| self.segments.first().map(Segment::base))
    }

    /// Sets the entry point explicitly.
    pub fn set_entry(&mut self, entry: VirtAddr) {
        self.entry = Some(entry);
    }

    /// Moves the whole program `shift` bytes (wrapping, like all address
    /// arithmetic): segment bases, symbols, instruction starts and the
    /// entry. The code bytes stay as they are, so only position-independent
    /// code (relative branches, as the attacker rigs use) keeps its meaning.
    /// The caller keeps the moved image clear of the address-space wrap, so
    /// segments stay in order.
    pub fn rebase(&mut self, shift: i64) {
        for segment in &mut self.segments {
            segment.base = segment.base.offset_signed(shift);
        }
        for addr in self
            .symbols
            .values_mut()
            .chain(&mut self.inst_starts)
            .chain(&mut self.entry)
        {
            *addr = addr.offset_signed(shift);
        }
    }

    /// The code segments, sorted by base address.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Reads the code byte at `addr`, or `None` outside all segments.
    pub fn read_byte(&self, addr: VirtAddr) -> Option<u8> {
        // Segments are sorted; find the last segment starting at or before addr.
        let idx = self
            .segments
            .partition_point(|segment| segment.base() <= addr);
        idx.checked_sub(1).and_then(|i| self.segments[i].read(addr))
    }

    /// Copies up to [`MAX_INST_BYTES`] code bytes starting at `addr` into a
    /// fixed buffer, returning the buffer and the number of valid bytes.
    pub fn read_window(&self, addr: VirtAddr) -> ([u8; MAX_INST_BYTES], usize) {
        let mut buf = [0u8; MAX_INST_BYTES];
        // Fast path: the whole window lies inside one segment, so a single
        // segment lookup and one memcpy replace up to MAX_INST_BYTES
        // per-byte binary searches.
        let idx = self
            .segments
            .partition_point(|segment| segment.base() <= addr);
        let mut count = 0;
        if let Some(i) = idx.checked_sub(1) {
            let segment = &self.segments[i];
            if addr < segment.end() {
                let off = (addr - segment.base()) as usize;
                let avail = (segment.len() - off).min(MAX_INST_BYTES);
                buf[..avail].copy_from_slice(&segment.bytes()[off..off + avail]);
                count = avail;
                if count == MAX_INST_BYTES {
                    return (buf, count);
                }
            }
        }
        // Slow path: the window starts outside any segment or runs off the
        // end of one; continue byte-wise so windows straddling into an
        // adjacent (touching) segment read exactly as before.
        while count < MAX_INST_BYTES {
            match self.read_byte(addr.offset(count as u64)) {
                Some(byte) => {
                    buf[count] = byte;
                    count += 1;
                }
                None => break,
            }
        }
        (buf, count)
    }

    /// Decodes the instruction at `addr` straight from the code bytes.
    ///
    /// # Errors
    ///
    /// Propagates decode errors; decoding from a misaligned address may
    /// yield a *different valid instruction*, exactly like hardware.
    pub fn decode_at(&self, addr: VirtAddr) -> Result<Inst, IsaError> {
        let (buf, len) = self.read_window(addr);
        decode(&buf[..len])
    }

    /// Records a ground-truth instruction start (used by the assembler).
    pub fn record_inst_start(&mut self, addr: VirtAddr) {
        self.inst_starts.push(addr);
    }

    /// Finalizes ground-truth bookkeeping after bulk insertion.
    pub fn seal(&mut self) {
        self.inst_starts.sort_unstable();
        self.inst_starts.dedup();
    }

    /// `true` if a real instruction starts at `addr`.
    ///
    /// This is *ground truth* available to the simulator and the evaluation
    /// harness, not to the modelled attacker.
    pub fn is_inst_start(&self, addr: VirtAddr) -> bool {
        self.inst_starts.binary_search(&addr).is_ok()
    }

    /// All ground-truth instruction start addresses, sorted.
    pub fn inst_starts(&self) -> &[VirtAddr] {
        &self.inst_starts
    }

    /// Instruction starts within `[start, end)`, e.g. one function's body.
    pub fn inst_starts_in(&self, start: VirtAddr, end: VirtAddr) -> &[VirtAddr] {
        let lo = self.inst_starts.partition_point(|&a| a < start);
        let hi = self.inst_starts.partition_point(|&a| a < end);
        &self.inst_starts[lo..hi]
    }

    /// Total code bytes across all segments.
    pub fn code_size(&self) -> usize {
        self.segments.iter().map(Segment::len).sum()
    }

    /// Disassembles the instructions in `[start, end)` for debugging.
    ///
    /// Undecodable bytes are shown as `(bad)` and skipped one byte at a
    /// time.
    pub fn disassemble(&self, start: VirtAddr, end: VirtAddr) -> String {
        let mut out = String::new();
        let mut pc = start;
        while pc < end {
            match self.decode_at(pc) {
                Ok(inst) => {
                    out.push_str(&format!("{pc}: {inst}\n"));
                    pc += inst.len() as u64;
                }
                Err(_) => {
                    out.push_str(&format!("{pc}: (bad)\n"));
                    pc += 1;
                }
            }
        }
        out
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "program: {} segment(s), {} bytes, {} symbols",
            self.segments.len(),
            self.code_size(),
            self.symbols.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{encode, Assembler, Reg};

    fn two_segment_program() -> Program {
        let mut program = Program::new();
        program
            .add_segment(Segment::new(VirtAddr::new(0x1000), encode(&Inst::Nop)))
            .unwrap();
        program
            .add_segment(Segment::new(
                VirtAddr::new(0x2_0000_1000),
                encode(&Inst::Ret),
            ))
            .unwrap();
        program.seal();
        program
    }

    #[test]
    fn read_byte_across_segments() {
        let program = two_segment_program();
        assert_eq!(program.read_byte(VirtAddr::new(0x1000)), Some(0x00));
        assert_eq!(program.read_byte(VirtAddr::new(0x2_0000_1000)), Some(0x01));
        assert_eq!(program.read_byte(VirtAddr::new(0x1001)), None);
        assert_eq!(program.read_byte(VirtAddr::new(0)), None);
    }

    #[test]
    fn overlapping_segments_rejected() {
        let mut program = Program::new();
        program
            .add_segment(Segment::new(VirtAddr::new(0x100), vec![0; 16]))
            .unwrap();
        let err = program
            .add_segment(Segment::new(VirtAddr::new(0x10f), vec![0; 4]))
            .unwrap_err();
        assert!(matches!(err, IsaError::OverlappingSegments { .. }));
        // Touching (adjacent) segments are fine.
        program
            .add_segment(Segment::new(VirtAddr::new(0x110), vec![0; 4]))
            .unwrap();
    }

    #[test]
    fn decode_at_reads_program_bytes() {
        let mut asm = Assembler::new(VirtAddr::new(0x400));
        asm.mov_ri(Reg::R2, 7);
        asm.ret();
        let program = asm.finish().unwrap();
        assert_eq!(
            program.decode_at(VirtAddr::new(0x400)).unwrap(),
            Inst::MovRi(Reg::R2, 7)
        );
        assert_eq!(program.decode_at(VirtAddr::new(0x407)).unwrap(), Inst::Ret);
    }

    #[test]
    fn inst_start_queries() {
        let mut asm = Assembler::new(VirtAddr::new(0));
        asm.nop(); // 0
        asm.add_rr(Reg::R0, Reg::R1); // 1..4
        asm.ret(); // 4
        let program = asm.finish().unwrap();
        assert!(program.is_inst_start(VirtAddr::new(0)));
        assert!(program.is_inst_start(VirtAddr::new(1)));
        assert!(!program.is_inst_start(VirtAddr::new(2)));
        assert!(!program.is_inst_start(VirtAddr::new(3)));
        assert!(program.is_inst_start(VirtAddr::new(4)));
        let starts = program.inst_starts_in(VirtAddr::new(1), VirtAddr::new(5));
        assert_eq!(starts, &[VirtAddr::new(1), VirtAddr::new(4)]);
    }

    #[test]
    fn merge_combines_everything() {
        let mut a = Assembler::new(VirtAddr::new(0x1000));
        a.label("victim");
        a.nop();
        let mut victim = a.finish().unwrap();

        let mut b = Assembler::new(VirtAddr::new(0x2_0000_0000));
        b.label("attacker");
        b.ret();
        let attacker = b.finish().unwrap();

        victim.merge(&attacker).unwrap();
        assert!(victim.symbol("victim").is_some());
        assert!(victim.symbol("attacker").is_some());
        assert!(victim.is_inst_start(VirtAddr::new(0x2_0000_0000)));
    }

    #[test]
    fn merge_rejects_duplicate_symbols() {
        let mut a = Assembler::new(VirtAddr::new(0x1000));
        a.label("f");
        a.nop();
        let mut first = a.finish().unwrap();

        let mut b = Assembler::new(VirtAddr::new(0x2000));
        b.label("f");
        b.nop();
        let second = b.finish().unwrap();

        assert!(matches!(
            first.merge(&second),
            Err(IsaError::DuplicateLabel(_))
        ));
    }

    #[test]
    fn rebase_equals_assembling_at_the_new_base() {
        // Relative branches, a symbol, a second segment and an explicit
        // entry: everything but the bytes moves.
        let build = |base: u64| {
            let mut asm = Assembler::new(VirtAddr::new(base));
            asm.label("f");
            asm.nop();
            asm.jmp32("g");
            asm.org(VirtAddr::new(base + 0x1000)).unwrap();
            asm.label("g");
            asm.entry_here();
            asm.ret();
            asm.finish().unwrap()
        };
        let mut program = build(0x1000);
        program.rebase(0x2_0000_0023);
        assert_eq!(program, build(0x2_0000_1023));
        program.rebase(-0x2_0000_0023);
        assert_eq!(program, build(0x1000));
    }

    #[test]
    fn entry_defaults_to_lowest_segment() {
        let program = two_segment_program();
        assert_eq!(program.entry(), Some(VirtAddr::new(0x1000)));
        let mut program = program;
        program.set_entry(VirtAddr::new(0x2_0000_1000));
        assert_eq!(program.entry(), Some(VirtAddr::new(0x2_0000_1000)));
    }

    #[test]
    fn disassembly_lists_instructions() {
        let mut asm = Assembler::new(VirtAddr::new(0x10));
        asm.nop();
        asm.ret();
        let program = asm.finish().unwrap();
        let listing = program.disassemble(VirtAddr::new(0x10), VirtAddr::new(0x12));
        assert!(listing.contains("nop"));
        assert!(listing.contains("ret"));
    }

    #[test]
    fn display_summarizes() {
        let program = two_segment_program();
        let text = program.to_string();
        assert!(text.contains("2 segment(s)"));
    }
}
