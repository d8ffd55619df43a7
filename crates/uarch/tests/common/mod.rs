//! Random-program generator shared by the differential suites.

#![allow(dead_code)]

use nv_isa::{encode, Inst, Program, Reg, Segment, VirtAddr};
use nv_rand::Rng;

/// An arbitrary instruction spanning the length spectrum (1-byte nop to
/// 10-byte movabs, plus wide nops and control transfers).
pub fn arb_inst(rng: &mut Rng) -> Inst {
    let reg = |rng: &mut Rng| Reg::from_index(rng.gen_range(0..14)).unwrap();
    match rng.gen_range(0..12u32) {
        0 => Inst::Nop,
        1 => Inst::NopN(rng.gen_range(2..=15u64) as u8),
        2 => Inst::Ret,
        3 => Inst::MovRr(reg(rng), reg(rng)),
        4 => Inst::MovRi(reg(rng), rng.gen()),
        5 => Inst::MovAbs(reg(rng), rng.gen()),
        6 => Inst::AddRi8(reg(rng), rng.gen()),
        7 => Inst::JmpRel8(rng.gen()),
        8 => Inst::JmpRel32(rng.gen()),
        9 => Inst::CallRel32(rng.gen()),
        10 => Inst::Push(reg(rng)),
        _ => Inst::CmpRr(reg(rng), reg(rng)),
    }
}

/// Builds a random multi-segment program: a mix of well-formed instruction
/// streams and raw (frequently undecodable) byte blobs, with gaps of
/// random width — including zero-width gaps, so windows straddle touching
/// segments.
pub fn arb_program(rng: &mut Rng) -> Program {
    arb_program_with(rng, |rng, bytes| {
        bytes.extend_from_slice(&encode(&arb_inst(rng)));
    })
}

/// [`arb_program`] with the instruction streams drawn by `emit`, which
/// appends the encoding of one or more instructions per call.
pub fn arb_program_with(rng: &mut Rng, mut emit: impl FnMut(&mut Rng, &mut Vec<u8>)) -> Program {
    let mut program = Program::new();
    let mut cursor = 0x1000 + rng.gen_range(0..64u64);
    for _ in 0..rng.gen_range(1..5usize) {
        let bytes = if rng.gen_bool(0.5) {
            // Instruction stream.
            let mut bytes = Vec::new();
            for _ in 0..rng.gen_range(1..24usize) {
                emit(rng, &mut bytes);
            }
            bytes
        } else {
            // Raw blob: arbitrary bytes, decodable only by accident.
            let mut bytes = vec![0u8; rng.gen_range(1..48usize)];
            rng.fill(&mut bytes);
            bytes
        };
        let len = bytes.len() as u64;
        program
            .add_segment(Segment::new(VirtAddr::new(cursor), bytes))
            .expect("disjoint by construction");
        // Zero-width gaps make the next segment *touch* this one, so decode
        // windows run across the boundary.
        cursor += len + rng.gen_range(0..3u64) * rng.gen_range(0..9u64);
    }
    program.seal();
    program
}
