//! Differential tests: [`DecodedImage`] must agree with the uncached
//! `Program::decode_at` at **every** byte address of randomized programs —
//! misaligned offsets, garbage bytes, segment-straddling windows and
//! out-of-image addresses included. The cache is only allowed to be
//! faster, never different.
//!
//! A small fixed-seed version is always on; the wider sweep runs with the
//! non-default `proptest` feature (`cargo test -p nv-uarch --features
//! proptest`).

mod common;

use common::arb_program;
use nv_isa::{Program, VirtAddr};
use nv_rand::Rng;
use nv_uarch::DecodedImage;

/// Every address from well below the image to well past it must decode
/// identically through the cache and through the raw byte decoder.
fn assert_image_matches_uncached(program: &Program) {
    let image = DecodedImage::new(program.clone());
    let lo = program.segments().first().expect("nonempty").base();
    let hi = program.segments().last().expect("nonempty").end();
    let start = lo.value().saturating_sub(17);
    let end = hi.value() + 17;
    for addr in start..end {
        let addr = VirtAddr::new(addr);
        let cached = image.decode_at(addr);
        let uncached = program.decode_at(addr);
        assert_eq!(cached, uncached, "cache diverged at {addr} in {program}");
        if let Some((inst, len)) = image.get(addr) {
            assert_eq!(Ok(inst), uncached);
            assert_eq!(len as usize, inst.len(), "cached length wrong at {addr}");
        }
    }
}

fn sweep(master_seed: u64, cases: usize) {
    let mut rng = Rng::seed_from_u64(master_seed);
    for _ in 0..cases {
        assert_image_matches_uncached(&arb_program(&mut rng));
    }
}

/// Always-on deterministic slice of the differential sweep.
#[test]
fn decoded_image_matches_uncached_decode_small() {
    sweep(0xdec0_0001, 8);
}

/// Wider randomized sweep, with the rest of the property suites.
#[test]
#[cfg_attr(not(feature = "proptest"), ignore = "enable the proptest feature")]
fn decoded_image_matches_uncached_decode_wide() {
    sweep(0xdec0_0002, 96);
}
