//! Differential test of [`nv_uarch::Btb`] against a reference BTB written
//! straight from the paper's two takeaways (PAPER.md §1), with LRU
//! replacement.
//!
//! The reference never splits a PC into set, tag and offset fields the way
//! the model does. It keeps each entry's branch address truncated at the
//! tag cutoff (Takeaway 1: higher bits are ignored) and answers a lookup
//! for `p` with a linear scan of `p`'s set for entries in `p`'s 32-byte
//! block at or after `p`, the nearest winning (Takeaway 2). Both BTBs see
//! identical seeded streams of lookups, allocations, false-hit
//! deallocations, external evictions, flushes and IBPB barriers, and
//! after every operation their hits, counters, occupancy and contents must
//! agree. Ties break by way order in both: first matching way, first free
//! way, first least-recently-used way.
//!
//! A small fixed-seed sweep is always on; the wide one runs with the
//! non-default `proptest` feature.

use nv_isa::VirtAddr;
use nv_rand::Rng;
use nv_uarch::{BranchKind, Btb, BtbGeometry, BtbHit, BtbStats, CpuGeneration, DomainId};

#[derive(Clone, Copy)]
struct RefEntry {
    /// Branch address with every bit at or above the tag cutoff cleared.
    addr: u64,
    target: VirtAddr,
    kind: BranchKind,
    domain: DomainId,
    last_use: u64,
}

struct RefBtb {
    geometry: BtbGeometry,
    ways: Vec<Vec<Option<RefEntry>>>,
    clock: u64,
    stats: BtbStats,
    isolation: bool,
    domain: DomainId,
}

impl RefBtb {
    fn new(geometry: BtbGeometry) -> Self {
        RefBtb {
            geometry,
            ways: vec![vec![None; geometry.ways]; geometry.sets],
            clock: 0,
            stats: BtbStats::default(),
            isolation: false,
            domain: 0,
        }
    }

    /// Takeaway 1: the BTB ignores address bits at and above the cutoff.
    fn truncate(&self, pc: VirtAddr) -> u64 {
        pc.value() & ((1 << self.geometry.tag_cutoff_bit) - 1)
    }

    fn set_of(&self, addr: u64) -> usize {
        (addr / 32) as usize % self.geometry.sets
    }

    fn visible(&self, entry: &RefEntry) -> bool {
        !self.isolation || entry.domain == self.domain
    }

    /// Takeaway 2: hits the entry at or after `pc` in its 32-byte block;
    /// the nearest one wins.
    fn lookup(&mut self, pc: VirtAddr) -> Option<BtbHit> {
        let p = self.truncate(pc);
        let set = self.set_of(p);
        let mut best: Option<(usize, u64)> = None;
        for (way, slot) in self.ways[set].iter().enumerate() {
            if let Some(e) = slot {
                let in_window = e.addr / 32 == p / 32 && e.addr >= p;
                if in_window && self.visible(e) && best.is_none_or(|(_, a)| e.addr < a) {
                    best = Some((way, e.addr));
                }
            }
        }
        let Some((way, addr)) = best else {
            self.stats.misses += 1;
            return None;
        };
        self.clock += 1;
        let entry = self.ways[set][way].as_mut().unwrap();
        entry.last_use = self.clock;
        self.stats.hits += 1;
        Some(BtbHit {
            set,
            way,
            branch_pc: VirtAddr::new(pc.value() - pc.value() % 32 + addr % 32),
            target: entry.target,
            kind: entry.kind,
        })
    }

    fn allocate(&mut self, pc: VirtAddr, target: VirtAddr, kind: BranchKind) {
        let addr = self.truncate(pc);
        let set = self.set_of(addr);
        self.clock += 1;
        let entry = RefEntry {
            addr,
            target,
            kind,
            domain: self.domain,
            last_use: self.clock,
        };
        let slots = &self.ways[set];
        let same = slots
            .iter()
            .position(|s| s.is_some_and(|e| e.addr == addr && self.visible(&e)));
        let way = same
            .or_else(|| slots.iter().position(Option::is_none))
            .unwrap_or_else(|| {
                self.stats.evictions += 1;
                let oldest = slots.iter().map(|s| s.unwrap().last_use).min().unwrap();
                slots
                    .iter()
                    .position(|s| s.unwrap().last_use == oldest)
                    .unwrap()
            });
        self.ways[set][way] = Some(entry);
        self.stats.allocations += 1;
    }

    fn remove(&mut self, set: usize, way: usize) -> bool {
        self.ways[set][way].take().is_some()
    }

    fn occupancy(&self) -> usize {
        self.ways.iter().flatten().flatten().count()
    }

    fn valid_entries(&self) -> Vec<(u64, VirtAddr, BranchKind)> {
        let mut out: Vec<_> = self
            .ways
            .iter()
            .flatten()
            .flatten()
            .map(|e| (e.addr, e.target, e.kind))
            .collect();
        out.sort_by_key(|&(addr, _, _)| addr);
        out
    }
}

const KINDS: [BranchKind; 6] = [
    BranchKind::DirectJump,
    BranchKind::DirectCall,
    BranchKind::CondBranch,
    BranchKind::IndirectJump,
    BranchKind::IndirectCall,
    BranchKind::Return,
];

/// A PC drawn to collide: few blocks, so sets fill and tags repeat, and
/// often one of four hot blocks; half the time one of a few block offsets,
/// so branch locations repeat; and random multiples of 4 GiB, so some
/// aliases cross the tag cutoff and some do not.
fn arb_pc(rng: &mut Rng, geometry: &BtbGeometry) -> VirtAddr {
    let blocks = if rng.gen_bool(0.3) {
        4
    } else {
        geometry.sets as u64 * 4
    };
    let block = rng.gen_range(0..blocks) * 32;
    let offset = if rng.gen_bool(0.5) {
        [0, 1, 16, 30, 31][rng.gen_range(0..5)]
    } else {
        rng.gen_range(0..32u64)
    };
    VirtAddr::new(0x40_0000 + block + offset + (rng.gen_range(0..6u64) << 32))
}

fn run_stream(geometry: BtbGeometry, isolation: bool, seed: u64, ops: usize) {
    let mut rng = Rng::seed_from_u64(seed);
    let mut model = Btb::new(geometry);
    let mut reference = RefBtb::new(geometry);
    model.set_domain_isolation(isolation);
    reference.isolation = isolation;
    let mut last_hit: Option<BtbHit> = None;
    for op in 0..ops {
        let what = rng.gen_range(0..100u32);
        match what {
            0..=29 => {
                let pc = arb_pc(&mut rng, &geometry);
                let hit = model.lookup(pc);
                assert_eq!(
                    hit,
                    reference.lookup(pc),
                    "lookup {pc} (op {op}, seed {seed:#x})"
                );
                last_hit = hit.or(last_hit);
            }
            30..=69 => {
                let pc = arb_pc(&mut rng, &geometry);
                let target = VirtAddr::new(rng.gen_range(0..1u64 << 40));
                let kind = KINDS[rng.gen_range(0..KINDS.len())];
                model.allocate(pc, target, kind);
                reference.allocate(pc, target, kind);
            }
            70..=75 => {
                // A false hit deallocates the entry it hit (repeats are
                // idempotent), or an arbitrary slot.
                let (set, way) = match last_hit.take() {
                    Some(hit) => (hit.set, hit.way),
                    None => (
                        rng.gen_range(0..geometry.sets),
                        rng.gen_range(0..geometry.ways),
                    ),
                };
                model.deallocate(set, way);
                if reference.remove(set, way) {
                    reference.stats.deallocations += 1;
                }
            }
            76..=79 => {
                let (set, way) = (
                    rng.gen_range(0..geometry.sets),
                    rng.gen_range(0..geometry.ways),
                );
                let displaced = reference.remove(set, way);
                reference.stats.external_evictions += u64::from(displaced);
                assert_eq!(model.evict_entry(set, way), displaced, "evict (op {op})");
            }
            80 => {
                model.indirect_predictor_barrier();
                for slot in reference.ways.iter_mut().flatten() {
                    if slot.is_some_and(|e| e.kind.is_indirect()) {
                        *slot = None;
                    }
                }
            }
            81 => {
                model.flush();
                reference
                    .ways
                    .iter_mut()
                    .flatten()
                    .for_each(|slot| *slot = None);
            }
            82 | 83 if isolation => {
                // Lifting isolation for a while exposes the same-location
                // entries of several domains to one lookup at once.
                let enabled = !model.domain_isolation();
                model.set_domain_isolation(enabled);
                reference.isolation = enabled;
            }
            _ => {
                let domain = rng.gen_range(0..3u16);
                model.set_domain(domain);
                reference.domain = domain;
            }
        }
        assert_eq!(
            model.stats(),
            reference.stats,
            "stats (op {op}, seed {seed:#x})"
        );
        assert_eq!(
            model.occupancy(),
            reference.occupancy(),
            "occupancy (op {op})"
        );
        assert_eq!(
            model.valid_entries(),
            reference.valid_entries(),
            "contents (op {op}, seed {seed:#x})"
        );
    }
}

fn tiny() -> BtbGeometry {
    BtbGeometry {
        sets: 2,
        ways: 2,
        tag_cutoff_bit: 33,
    }
}

fn sweep(seeds: u64, ops: usize) {
    let geometries = [
        BtbGeometry::for_generation(CpuGeneration::SkyLake),
        BtbGeometry::for_generation(CpuGeneration::IceLake),
        tiny(),
    ];
    for seed in 0..seeds {
        for (g, &geometry) in geometries.iter().enumerate() {
            for isolation in [false, true] {
                let seed = seed << 8 | (g as u64) << 1 | u64::from(isolation);
                run_stream(geometry, isolation, seed, ops);
            }
        }
    }
}

/// Always-on deterministic slice: every geometry, with and without
/// domain isolation.
#[test]
fn btb_matches_the_reference_small() {
    sweep(2, 1500);
}

/// Wider randomized sweep, with the rest of the property suites.
#[test]
#[cfg_attr(not(feature = "proptest"), ignore = "enable the proptest feature")]
fn btb_matches_the_reference_wide() {
    sweep(8, 4000);
}
