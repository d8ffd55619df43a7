//! Pre-decoded program images: the simulator front end's decode cache.
//!
//! Every modelled fetch, bundle verification and speculative overshoot
//! needs the instruction at some (frequently misaligned) byte address, and
//! an image may move whole, but its bytes never change. [`DecodedImage`]
//! therefore decodes **every byte offset of every code segment once**, at
//! construction, into a dense per-segment table — exactly the structure a
//! hardware pre-decode/µop cache maintains for hot fetch lines. Each entry
//! also summarizes the fetch bundle starting at its byte, so the front end
//! checks a BTB prediction against the decoded bundle without walking it.
//! Misaligned addresses are included on purpose: the attack depends on
//! hardware-style decode at non-instruction-start bytes (a BTB false hit
//! steers fetch mid-instruction, §2.2), so the cache must answer those
//! queries too, with the same result the raw byte decoder gives.
//!
//! Eager per-byte decode is sound because [`Program`] segments are
//! immutable once assembled: nothing in the simulator writes code bytes.
//! Moving an image ([`DecodedImage::rebase`], used by the attacker rigs
//! that follow their windows across a page) keeps every decoded
//! instruction, since branch displacements are relative, and re-walks only
//! the bundle summaries when the block offsets change. Images that
//! *differ* (e.g. CFR victims re-randomized per seed) are different
//! `Program` values and get their own fresh `DecodedImage` when their
//! [`crate::Machine`] is built.

use nv_isa::{decode, Inst, IsaError, Program, VirtAddr, BLOCK_BYTES, MAX_INST_BYTES};

/// Outcome of checking a BTB prediction against the decoded fetch bundle.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum BundleVerdict {
    /// A control-transfer instruction really ends at the predicted byte.
    BranchEndsThere,
    /// A non-control-transfer instruction ends at the predicted byte
    /// (Takeaway 1's false hit).
    NonTransferThere,
    /// The predicted byte falls inside an instruction, or the bytes do not
    /// decode at all.
    MidInstruction,
    /// An *unconditional* transfer ends before the predicted byte: decode
    /// redirects fetch there and the predicted location is never examined.
    /// The entry is neither used nor falsified.
    CutShortByEarlierTransfer,
}

/// The fetch bundle decoded from one start byte to the end of its 32-byte
/// block, summarized per block offset so that checking a prediction
/// against it is two bit tests.
///
/// The bundle is the instruction sequence the decoders see when fetch
/// starts at that byte: conditional branches are walked through (they
/// carry no prediction of their own there, so fetch proceeds along the
/// fall-through) and the first unconditional transfer cuts it short.
/// Bit `o` of each mask describes the byte at block offset `o`:
///
/// | `ends` | `transfers` | verdict for a prediction at `o`   |
/// |--------|-------------|-----------------------------------|
/// | 1      | 1           | a control transfer ends there     |
/// | 1      | 0           | a non-transfer ends there         |
/// | 0      | 1           | past the unconditional cut        |
/// | 0      | 0           | mid-instruction or undecodable    |
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct Bundle {
    ends: u32,
    transfers: u32,
}

impl Bundle {
    /// Every byte reads as mid-instruction: the bundle of an instruction
    /// that straddles its block's end.
    const OPAQUE: Bundle = Bundle {
        ends: 0,
        transfers: 0,
    };

    /// Summarizes the bundle that starts with `inst` at `pc`, given the
    /// summary of the bundle starting right after it (`None` if the bytes
    /// there do not decode).
    fn starting_with(pc: VirtAddr, inst: Inst, rest: Option<Bundle>) -> Bundle {
        let last = pc.offset(inst.len() as u64 - 1);
        if last.block_base() != pc.block_base() {
            return Bundle::OPAQUE;
        }
        let bit = 1u32 << last.block_offset();
        let kind = inst.kind();
        let mut bundle = Bundle {
            ends: bit,
            transfers: if kind.is_control_transfer() { bit } else { 0 },
        };
        if kind.is_unconditional() {
            // Decode redirects here; every later byte is past the cut.
            bundle.transfers |= !(bit | (bit - 1));
        } else if let (true, Some(rest)) = (last.block_offset() < 31, rest) {
            // The walk goes on in this block; undecodable bytes next would
            // leave every later byte mid-instruction.
            bundle.ends |= rest.ends;
            bundle.transfers |= rest.transfers;
        }
        bundle
    }

    /// The verdict for a prediction that a branch ends at `branch_end`,
    /// which lies at or after the bundle's start in the same block.
    #[inline]
    pub(crate) fn verdict(self, branch_end: VirtAddr) -> BundleVerdict {
        let bit = 1u32 << branch_end.block_offset();
        match (self.ends & bit != 0, self.transfers & bit != 0) {
            (true, true) => BundleVerdict::BranchEndsThere,
            (true, false) => BundleVerdict::NonTransferThere,
            (false, true) => BundleVerdict::CutShortByEarlierTransfer,
            (false, false) => BundleVerdict::MidInstruction,
        }
    }
}

/// The pre-decoded state of one byte: the instruction starting there and
/// the fetch bundle a window starting there decodes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct Entry {
    pub(crate) inst: Inst,
    pub(crate) bundle: Bundle,
}

// The bundle masks sit where a cached length byte and its padding would,
// so a table entry stays at 24 bytes (lengths come from `Inst::len`).
const _: () = assert!(std::mem::size_of::<Option<Entry>>() == 24);

/// The last two segment tables a core fetched from, most recent first —
/// typically the attacker's snippets and the victim, or a program's code
/// and its harness. A hint is only ever checked against the address range
/// a table covers, so a stale one (or one from another image) costs a
/// binary search, never a wrong answer.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct SegmentHint([usize; 2]);

/// Dense decode table for one code segment: entry `i` caches the decode
/// result at `base + i`, with `None` for bytes that do not decode.
///
/// Bytes at or past the next segment's base are not stored: a lookup
/// resolves to the last segment starting at or before its address, so a
/// later segment shadows them (only degenerate layouts, e.g. an empty
/// segment inside another, have any).
#[derive(Clone, PartialEq, Eq, Debug)]
struct SegmentTable {
    base: VirtAddr,
    entries: Vec<Option<Entry>>,
}

impl SegmentTable {
    /// The entry for `addr` if it lies in this table's range.
    #[inline]
    fn covering(&self, addr: VirtAddr) -> Option<&Option<Entry>> {
        self.entries
            .get(usize::try_from(addr.value().wrapping_sub(self.base.value())).ok()?)
    }
}

/// A program image plus its eagerly pre-decoded per-byte instruction
/// tables.
///
/// Lookups cost one binary search over segments plus a direct index —
/// replacing a fresh 15-byte window reassembly (one binary search *per
/// byte*) and a full decode on every fetch. The core's fetch path skips
/// the binary search too while it stays within the last two segments it
/// used.
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
    /// Pre-decodes every byte offset of every segment of `program`, and
    /// walks the fetch bundle starting at each.
    pub fn new(program: Program) -> Self {
        let segments = program.segments();
        let tables = segments
            .iter()
            .enumerate()
            .map(|(i, segment)| {
                let base = segment.base();
                let bytes = segment.bytes();
                let reach = segments.get(i + 1).map_or(bytes.len(), |next| {
                    let to_next = (next.base().value() - base.value()) as usize;
                    bytes.len().min(to_next)
                });
                let entries = (0..reach)
                    .map(|off| {
                        // A window inside the segment is exactly what
                        // `Program::decode_at` would read there; one that
                        // runs off its end may go on in a touching segment.
                        let inst = match bytes.get(off..off + MAX_INST_BYTES) {
                            Some(window) => decode(window),
                            None => program.decode_at(base.offset(off as u64)),
                        };
                        Some(Entry {
                            inst: inst.ok()?,
                            bundle: Bundle::OPAQUE,
                        })
                    })
                    .collect();
                SegmentTable { base, entries }
            })
            .collect();
        let mut image = DecodedImage { program, tables };
        image.walk_bundles();
        image
    }

    /// Moves the image `shift` bytes, as [`Program::rebase`] moves its
    /// program. The decoded instructions stay valid: the bytes are the
    /// same and every displacement an [`Inst`] holds is relative. Only the
    /// bundle summaries depend on where a byte sits in its 32-byte block,
    /// so they are re-walked, and only when `shift` is not a whole number
    /// of blocks. Allocates nothing.
    pub(crate) fn rebase(&mut self, shift: i64) {
        self.program.rebase(shift);
        for table in &mut self.tables {
            table.base = table.base.offset_signed(shift);
        }
        if shift & (BLOCK_BYTES as i64 - 1) != 0 {
            self.walk_bundles();
        }
    }

    /// Summarizes the fetch bundle starting at every decoded byte.
    fn walk_bundles(&mut self) {
        // Back to front: a bundle continues at the byte after its first
        // instruction, which is either later in the same table or in a
        // later one, so its summary is already final.
        for t in (0..self.tables.len()).rev() {
            for off in (0..self.tables[t].entries.len()).rev() {
                let table = &self.tables[t];
                let Some(entry) = table.entries[off] else {
                    continue;
                };
                let next = off + entry.inst.len();
                let rest = match table.entries.get(next) {
                    Some(slot) => slot.as_ref(),
                    None => self.entry(table.base.offset(next as u64)),
                };
                let pc = table.base.offset(off as u64);
                let bundle = Bundle::starting_with(pc, entry.inst, rest.map(|e| e.bundle));
                if let Some(entry) = &mut self.tables[t].entries[off] {
                    entry.bundle = bundle;
                }
            }
        }
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
        self.entry(addr).map(|e| (e.inst, e.inst.len() as u8))
    }

    /// The pre-decoded entry at `addr`, found by binary search.
    #[inline]
    pub(crate) fn entry(&self, addr: VirtAddr) -> Option<&Entry> {
        // Tables are sorted by base (the program sorts its segments); find
        // the last table starting at or before addr, mirroring
        // Program::read_byte so cached and uncached lookups agree even for
        // degenerate (empty-segment) layouts.
        let idx = self.tables.partition_point(|table| table.base <= addr);
        self.tables[idx.checked_sub(1)?].covering(addr)?.as_ref()
    }

    /// [`DecodedImage::entry`] for the core's fetch path: tries the tables
    /// named by `hint` first and falls back to the binary search, updating
    /// the hint.
    #[inline]
    pub(crate) fn probe(&self, addr: VirtAddr, hint: &mut SegmentHint) -> Option<&Entry> {
        let [recent, older] = hint.0;
        if let Some(slot) = self.tables.get(recent).and_then(|t| t.covering(addr)) {
            return slot.as_ref();
        }
        if let Some(slot) = self.tables.get(older).and_then(|t| t.covering(addr)) {
            hint.0 = [older, recent];
            return slot.as_ref();
        }
        let idx = self
            .tables
            .partition_point(|table| table.base <= addr)
            .checked_sub(1)?;
        if idx != recent {
            hint.0 = [idx, recent];
        }
        self.tables[idx].covering(addr)?.as_ref()
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
        match self.entry(addr) {
            Some(entry) => Ok(entry.inst),
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

    /// The fetch-bundle walk the pre-walked summaries replaced, kept as
    /// their oracle: decodes the bundle from `pc` up to the predicted
    /// branch location `branch_end` and reports whether a control transfer
    /// really ends there.
    fn verify_bundle(image: &DecodedImage, pc: VirtAddr, branch_end: VirtAddr) -> BundleVerdict {
        let mut cursor = pc;
        loop {
            let Some((inst, len)) = image.get(cursor) else {
                return BundleVerdict::MidInstruction;
            };
            let last = cursor.offset(len as u64 - 1);
            if last == branch_end {
                return if inst.is_control_transfer() {
                    BundleVerdict::BranchEndsThere
                } else {
                    BundleVerdict::NonTransferThere
                };
            }
            if last > branch_end {
                return BundleVerdict::MidInstruction;
            }
            if inst.kind().is_unconditional() {
                return BundleVerdict::CutShortByEarlierTransfer;
            }
            cursor = cursor.offset(len as u64);
        }
    }

    /// Checks the pre-walked verdict against the oracle for every start
    /// byte from well below the image to well past it, and every predicted
    /// end byte at or after it in the same block. Returns how often each
    /// verdict came up, so callers can tell the sweep covered them.
    fn assert_bundles_match_walk(program: &Program) -> [usize; 4] {
        let image = DecodedImage::new(program.clone());
        let lo = program.segments().first().expect("nonempty").base();
        let hi = program.segments().last().expect("nonempty").end();
        let mut hint = SegmentHint::default();
        let mut seen = [0; 4];
        for pc in lo.value().saturating_sub(40)..hi.value() + 40 {
            let pc = VirtAddr::new(pc);
            let entry = image.entry(pc);
            assert_eq!(image.probe(pc, &mut hint), entry, "hinted probe at {pc}");
            for end in pc.value()..pc.block_base().value() + 32 {
                let end = VirtAddr::new(end);
                let pre_walked =
                    entry.map_or(BundleVerdict::MidInstruction, |e| e.bundle.verdict(end));
                assert_eq!(
                    pre_walked,
                    verify_bundle(&image, pc, end),
                    "bundle from {pc} predicted to end at {end} in {program}"
                );
                seen[pre_walked as usize] += 1;
            }
        }
        seen
    }

    fn program_of(segments: &[(u64, Vec<u8>)]) -> Program {
        let mut program = Program::new();
        for (base, bytes) in segments {
            program
                .add_segment(Segment::new(VirtAddr::new(*base), bytes.clone()))
                .unwrap();
        }
        program
    }

    fn bytes_of(insts: &[Inst]) -> Vec<u8> {
        insts.iter().flat_map(nv_isa::encode).collect()
    }

    #[test]
    fn pre_walked_bundles_match_the_walk_on_random_programs() {
        let mut rng = nv_rand::Rng::seed_from_u64(0xb0d1_e5e5);
        let mut seen = [0; 4];
        for _ in 0..64 {
            let program = crate::test_programs::arb_program(&mut rng);
            for (total, count) in seen.iter_mut().zip(assert_bundles_match_walk(&program)) {
                *total += count;
            }
        }
        assert!(
            seen.iter().all(|&count| count > 0),
            "verdicts seen: {seen:?}"
        );
    }

    #[test]
    fn pre_walked_bundles_match_the_walk_on_edge_layouts() {
        let movabs = Inst::MovAbs(Reg::R1, 0xdead_beef_cafe_f00d);
        let straddling = {
            // A movabs starting 4 bytes before a block end, so it straddles
            // into the next block, followed by a jump.
            let mut bytes = bytes_of(&[Inst::NopN(12), Inst::NopN(12), Inst::Nop, Inst::Nop]);
            bytes.extend(bytes_of(&[movabs, Inst::JmpRel8(0), Inst::Ret]));
            bytes
        };
        let layouts: Vec<Vec<(u64, Vec<u8>)>> = vec![
            // Two touching segments that split an instruction mid-block.
            {
                let bytes = bytes_of(&[Inst::Nop, movabs, Inst::Jcc(nv_isa::Cond::Eq, 0)]);
                vec![(0x3008, bytes[..5].to_vec()), (0x300d, bytes[5..].to_vec())]
            },
            // An empty segment inside another one shadows its tail.
            vec![
                (0x4000, bytes_of(&[Inst::Nop; 40])),
                (0x4010, Vec::new()),
                (0x4030, bytes_of(&[Inst::Nop, Inst::JmpRel8(0)])),
            ],
            // Undecodable bytes in the middle of a bundle.
            vec![(
                0x5000,
                [
                    bytes_of(&[Inst::Nop, Inst::Nop]),
                    vec![0xff; 3],
                    bytes_of(&[Inst::Ret]),
                ]
                .concat(),
            )],
            // An instruction straddling the block end.
            vec![(0x6000, straddling)],
            // An unconditional transfer before the predicted byte, after a
            // conditional one that fetch walks through.
            vec![(
                0x7000,
                bytes_of(&[
                    Inst::Nop,
                    Inst::Jcc(nv_isa::Cond::Ne, 4),
                    Inst::AddRi8(Reg::R0, 1),
                    Inst::CallRel32(0),
                    Inst::Nop,
                    Inst::JmpRel8(0),
                    Inst::Nop,
                ]),
            )],
        ];
        for layout in layouts {
            let program = program_of(&layout);
            let seen = assert_bundles_match_walk(&program);
            assert!(
                seen[BundleVerdict::BranchEndsThere as usize] > 0,
                "no branch in {program}"
            );
        }
    }

    #[test]
    fn a_rebased_image_equals_the_image_of_the_moved_program() {
        // Whole-block shifts keep every bundle summary; the others re-walk
        // them, and negative ones move the image down.
        let shifts = [32, -64, 0x2_0000_0000, 1, -1, 7, 0x1000 + 5, -0xfe3];
        let mut rng = nv_rand::Rng::seed_from_u64(0x5eb_a5e);
        for _ in 0..64 {
            let program = crate::test_programs::arb_program(&mut rng);
            let original = DecodedImage::new(program.clone());
            for shift in shifts {
                let mut moved = program.clone();
                moved.rebase(shift);
                let mut image = original.clone();
                image.rebase(shift);
                assert_eq!(image, DecodedImage::new(moved), "{program} moved {shift}");
                image.rebase(-shift);
                assert_eq!(image, original, "{program} moved {shift} and back");
            }
        }
    }

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
