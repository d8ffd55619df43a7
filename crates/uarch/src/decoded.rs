//! Pre-decoded program images: the simulator front end's decode cache.
//!
//! Every modelled fetch, bundle verification and speculative overshoot
//! needs the instruction at some (frequently misaligned) byte address, and
//! program images never change after load. [`DecodedImage`] therefore
//! decodes **every byte offset of every code segment once**, at
//! construction, into a dense per-segment table of `Option<(Inst, len)>` —
//! exactly the structure a hardware pre-decode/µop cache maintains for hot
//! fetch lines. Misaligned addresses are included on purpose: the attack
//! depends on hardware-style decode at non-instruction-start bytes (a BTB
//! false hit steers fetch mid-instruction, §2.2), so the cache must answer
//! those queries too, with the same result the raw byte decoder gives.
//!
//! Eager per-byte decode is sound because [`Program`] segments are
//! immutable once assembled: nothing in the simulator writes code bytes.
//! Images that *differ* (e.g. CFR victims re-randomized per seed) are
//! different `Program` values and get their own fresh `DecodedImage` when
//! their [`crate::Machine`] is built.

use nv_isa::{Inst, IsaError, Program, VirtAddr};

/// Dense decode table for one code segment: entry `i` caches the decode
/// result at `base + i`, with `None` for bytes that do not decode.
#[derive(Clone, PartialEq, Eq, Debug)]
struct SegmentTable {
    base: VirtAddr,
    entries: Vec<Option<(Inst, u8)>>,
}

/// A program image plus its eagerly pre-decoded per-byte instruction
/// tables.
///
/// Lookups cost one binary search over segments plus a direct index —
/// replacing a fresh 15-byte window reassembly (one binary search *per
/// byte*) and a full decode on every fetch.
///
/// # Examples
///
/// ```
/// use nv_isa::{Assembler, Inst, VirtAddr};
/// use nv_uarch::DecodedImage;
///
/// # fn main() -> Result<(), nv_isa::IsaError> {
/// let mut asm = Assembler::new(VirtAddr::new(0x1000));
/// asm.nop();
/// asm.ret();
/// let image = DecodedImage::new(asm.finish()?);
/// assert_eq!(image.decode_at(VirtAddr::new(0x1000))?, Inst::Nop);
/// assert_eq!(image.decode_at(VirtAddr::new(0x1001))?, Inst::Ret);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DecodedImage {
    program: Program,
    tables: Vec<SegmentTable>,
}

impl DecodedImage {
    /// Pre-decodes every byte offset of every segment of `program`.
    pub fn new(program: Program) -> Self {
        let tables = program
            .segments()
            .iter()
            .map(|segment| {
                let base = segment.base();
                let entries = (0..segment.len())
                    .map(|off| {
                        let addr = base.offset(off as u64);
                        program
                            .decode_at(addr)
                            .ok()
                            .map(|inst| (inst, inst.len() as u8))
                    })
                    .collect();
                SegmentTable { base, entries }
            })
            .collect();
        DecodedImage { program, tables }
    }

    /// The underlying (immutable) program image.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Cached decode result at `addr`: `Some((inst, len))` if the bytes
    /// there decode, `None` for undecodable bytes *and* addresses outside
    /// the image.
    #[inline]
    pub fn get(&self, addr: VirtAddr) -> Option<(Inst, u8)> {
        self.entry(addr).copied()
    }

    /// [`DecodedImage::get`] by reference, for the core's fetch path.
    #[inline]
    pub(crate) fn entry(&self, addr: VirtAddr) -> Option<&(Inst, u8)> {
        // Tables are sorted by base (the program sorts its segments); find
        // the last table starting at or before addr, mirroring
        // Program::read_byte so cached and uncached lookups agree even for
        // degenerate (empty-segment) layouts.
        let idx = self.tables.partition_point(|table| table.base <= addr);
        let table = &self.tables[idx.checked_sub(1)?];
        table.entries.get((addr - table.base) as usize)?.as_ref()
    }

    /// Decodes the instruction at `addr`, from the cache.
    ///
    /// # Errors
    ///
    /// Exactly the errors [`Program::decode_at`] returns: the miss path
    /// falls back to the raw byte decoder so fault values (opcode, window
    /// length, ...) are identical to the uncached front end's.
    #[inline]
    pub fn decode_at(&self, addr: VirtAddr) -> Result<Inst, IsaError> {
        match self.get(addr) {
            Some((inst, _len)) => Ok(inst),
            // Cold path: decode faults wedge the machine and out-of-image
            // fetches are rare, so recomputing the precise error here costs
            // nothing in the hot loop.
            None => self.program.decode_at(addr),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nv_isa::{Assembler, Reg, Segment};

    #[test]
    fn aligned_and_misaligned_lookups_match_uncached_decode() {
        let mut asm = Assembler::new(VirtAddr::new(0x40_0000));
        asm.mov_ri(Reg::R0, 0x1234_5678); // multi-byte: misaligned offsets differ
        asm.add_rr(Reg::R0, Reg::R1);
        asm.jmp8("end");
        asm.label("end");
        asm.ret();
        let program = asm.finish().unwrap();
        let image = DecodedImage::new(program.clone());
        for off in 0..32u64 {
            let addr = VirtAddr::new(0x40_0000 + off);
            assert_eq!(
                image.decode_at(addr),
                program.decode_at(addr),
                "divergence at {addr}"
            );
        }
    }

    #[test]
    fn get_reports_cached_length() {
        let mut asm = Assembler::new(VirtAddr::new(0x1000));
        asm.mov_abs(Reg::R3, u64::MAX); // 10-byte movabs
        let image = DecodedImage::new(asm.finish().unwrap());
        let (inst, len) = image.get(VirtAddr::new(0x1000)).unwrap();
        assert_eq!(len as usize, inst.len());
        assert_eq!(len, 10);
    }

    #[test]
    fn out_of_image_addresses_miss_and_error_like_uncached() {
        let mut program = Program::new();
        program
            .add_segment(Segment::new(VirtAddr::new(0x2000), vec![0x00; 4]))
            .unwrap();
        let image = DecodedImage::new(program.clone());
        for addr in [
            VirtAddr::new(0),
            VirtAddr::new(0x1fff),
            VirtAddr::new(0x2004),
        ] {
            assert_eq!(image.get(addr), None);
            assert_eq!(image.decode_at(addr), program.decode_at(addr));
        }
    }

    #[test]
    fn windows_straddling_touching_segments_decode_identically() {
        // A 10-byte movabs split across two touching segments: bytes 0..3
        // in the first, 3..10 in the second. Decoding from any offset of
        // the first segment needs window bytes from the second.
        let bytes = nv_isa::encode(&Inst::MovAbs(Reg::R1, 0xdead_beef_cafe_f00d));
        assert_eq!(bytes.len(), 10);
        let mut program = Program::new();
        program
            .add_segment(Segment::new(VirtAddr::new(0x3000), bytes[..3].to_vec()))
            .unwrap();
        program
            .add_segment(Segment::new(VirtAddr::new(0x3003), bytes[3..].to_vec()))
            .unwrap();
        let image = DecodedImage::new(program.clone());
        for off in 0..10u64 {
            let addr = VirtAddr::new(0x3000 + off);
            assert_eq!(
                image.decode_at(addr),
                program.decode_at(addr),
                "divergence at {addr}"
            );
        }
        assert_eq!(
            image.decode_at(VirtAddr::new(0x3000)).unwrap(),
            Inst::MovAbs(Reg::R1, 0xdead_beef_cafe_f00d)
        );
    }
}
