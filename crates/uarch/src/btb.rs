//! The Branch Target Buffer model.
//!
//! Implements the two behaviours reverse-engineered by the paper:
//!
//! * **Range-query lookup (Takeaway 2):** a lookup for fetch PC `p` hits any
//!   valid entry in `p`'s set whose tag matches and whose 5-bit offset is
//!   *greater than or equal to* `p`'s offset; among several hits the
//!   smallest such offset wins. This is how a superscalar front end finds
//!   "the next branch at or after the current PC" within a 32-byte
//!   prediction window.
//! * **False-hit deallocation (Takeaway 1):** when decode discovers that the
//!   predicted location does not actually hold a taken branch, the core
//!   deallocates the entry (see [`Btb::deallocate`]); the caller (the front
//!   end in [`crate::Core`]) invokes this even for instructions that never
//!   retire.
//!
//! IBRS/IBPB are modelled faithfully to §4.1: they flush **only** entries
//! belonging to indirect transfers, which is why they do not stop the
//! attack.

use nv_isa::{InstKind, VirtAddr};

use crate::config::BtbGeometry;

/// Classification of the branch recorded by a BTB entry.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BranchKind {
    /// `jmp rel8/rel32`.
    DirectJump,
    /// `call rel32`.
    DirectCall,
    /// Conditional branch (recorded only when taken).
    CondBranch,
    /// `jmp *reg` — flushed by IBRS/IBPB.
    IndirectJump,
    /// `call *reg` — flushed by IBRS/IBPB.
    IndirectCall,
    /// `ret` — the entry marks "a return ends here" so fetch consults the
    /// RSB for the target; without it, returns are unpredicted.
    Return,
}

impl BranchKind {
    /// Maps an ISA-level instruction kind to the BTB's classification.
    ///
    /// Returns `None` for non-transfers.
    pub fn from_inst_kind(kind: InstKind) -> Option<BranchKind> {
        match kind {
            InstKind::DirectJump => Some(BranchKind::DirectJump),
            InstKind::DirectCall => Some(BranchKind::DirectCall),
            InstKind::CondBranch => Some(BranchKind::CondBranch),
            InstKind::IndirectJump => Some(BranchKind::IndirectJump),
            InstKind::IndirectCall => Some(BranchKind::IndirectCall),
            InstKind::Ret => Some(BranchKind::Return),
            InstKind::NonTransfer => None,
        }
    }

    /// `true` for the kinds covered by IBRS/IBPB.
    pub const fn is_indirect(self) -> bool {
        matches!(self, BranchKind::IndirectJump | BranchKind::IndirectCall)
    }
}

/// A security-domain identifier for the domain-isolation mitigation
/// (§8.2; Lee et al. / Zhao et al. [38, 70] in the paper). Domain 0 is
/// the default for unhardened operation.
pub type DomainId = u16;

/// Key of an empty slot. Real keys are `tag << 5 | offset` with fewer than
/// 64 significant bits ([`Btb::new`] rejects wider tags), so no lookup
/// range can reach it.
const INVALID: u64 = u64::MAX;

/// What a BTB slot predicts, kept apart from its key so that the range
/// query scans keys alone. An empty slot's payload is stale.
#[derive(Clone, Copy, Debug)]
struct Payload {
    target: VirtAddr,
    /// Owning security domain (only consulted when isolation is enabled).
    domain: DomainId,
    kind: BranchKind,
}

impl Payload {
    const EMPTY: Payload = Payload {
        target: VirtAddr::new(0),
        domain: 0,
        kind: BranchKind::DirectJump,
    };
}

/// A successful BTB lookup.
///
/// `set`/`way` identify the entry so the front end can deallocate it on a
/// false hit; `branch_pc` is the predicted branch location *reconstructed
/// within the fetching block* (the aliasing source: the entry may have been
/// allocated by a branch gigabytes away).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BtbHit {
    /// Set index of the hit entry.
    pub set: usize,
    /// Way index of the hit entry.
    pub way: usize,
    /// Predicted branch address within the fetching 32-byte block.
    pub branch_pc: VirtAddr,
    /// Predicted target.
    pub target: VirtAddr,
    /// Recorded branch kind.
    pub kind: BranchKind,
}

/// Statistics counters for BTB activity, used by tests and benches.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct BtbStats {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries written (allocate or update).
    pub allocations: u64,
    /// Entries invalidated by false-hit deallocation.
    pub deallocations: u64,
    /// Entries evicted by LRU replacement.
    pub evictions: u64,
    /// Entries invalidated by injected competing-process contention
    /// ([`Btb::evict_entry`]); zero unless fault injection is enabled.
    pub external_evictions: u64,
}

/// The set-associative Branch Target Buffer.
///
/// # Examples
///
/// A non-branch PC aliasing an allocated entry produces a (false) hit:
///
/// ```
/// use nv_uarch::{Btb, BranchKind, BtbGeometry};
/// use nv_isa::VirtAddr;
///
/// let mut btb = Btb::new(BtbGeometry::default());
/// let branch = VirtAddr::new(0x40_0010);
/// btb.allocate(branch, VirtAddr::new(0x40_0040), BranchKind::DirectJump);
///
/// // 8 GiB away, same low 33 bits: the lookup still hits.
/// let alias = VirtAddr::new(0x40_0010 + (1 << 33));
/// let hit = btb.lookup(alias).unwrap();
/// assert_eq!(hit.branch_pc, alias); // reconstructed in the aliasing block
/// btb.deallocate(hit.set, hit.way); // …and a false hit deallocates it
/// assert!(btb.lookup(branch).is_none());
/// ```
#[derive(Clone, Debug)]
pub struct Btb {
    geometry: BtbGeometry,
    /// The `sets * ways` slots as three set-major arrays: way `w` of set
    /// `s` lives at `s * ways + w` in each. Way order within a set is the
    /// tie-break order of every search below: the first nearest hit, the
    /// first matching way, the first free way.
    ///
    /// Each slot's location packed as `tag << 5 | offset`, so that the
    /// Takeaway-2 range query over a set is one subtract-and-compare per
    /// way over one dense array; [`INVALID`] marks an empty slot.
    keys: Vec<u64>,
    /// Each slot's recency rank within its set, 0 for the most recently
    /// used. A set's ranks are always a permutation of `0..ways`, empty
    /// ways included, so they order the ways exactly as last-use
    /// timestamps would.
    ranks: Vec<u16>,
    payloads: Vec<Payload>,
    /// `sets - 1`: a PC's set is `(pc >> 5) & set_mask`.
    set_mask: u64,
    /// First tag bit, `5 + log2(sets)`.
    tag_shift: u32,
    /// The tag field's width mask, applied after shifting by `tag_shift`.
    tag_mask: u64,
    stats: BtbStats,
    isolation: bool,
    domain: DomainId,
}

impl Btb {
    /// Creates an empty BTB with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate: a set count that is not a
    /// power of two, no ways or more than 65 536, a tag cutoff at or below
    /// the set field, or a tag so wide that `tag << 5 | offset` needs all
    /// 64 bits.
    pub fn new(geometry: BtbGeometry) -> Self {
        assert!(
            geometry.sets.is_power_of_two(),
            "sets must be a power of two"
        );
        assert!(
            (1..=1 << 16).contains(&geometry.ways),
            "associativity must be 1..=65536"
        );
        let tag_shift = 5 + geometry.set_bits();
        assert!(
            geometry.tag_cutoff_bit > tag_shift,
            "tag cutoff must lie above the set field"
        );
        let tag_bits = geometry.tag_cutoff_bit - tag_shift;
        assert!(tag_bits + 5 < 64, "tag too wide to pack with its offset");
        let slots = geometry.sets * geometry.ways;
        Btb {
            geometry,
            keys: vec![INVALID; slots],
            // One set's ranks, copied: a division per slot would make every
            // `Core::new` (one per served trial) measurably slower.
            ranks: (0..geometry.ways)
                .map(|way| way as u16)
                .collect::<Vec<_>>()
                .repeat(geometry.sets),
            payloads: vec![Payload::EMPTY; slots],
            set_mask: geometry.sets as u64 - 1,
            tag_shift,
            tag_mask: (1 << tag_bits) - 1,
            stats: BtbStats::default(),
            isolation: false,
            domain: 0,
        }
    }

    /// Enables or disables the domain-isolation mitigation (§8.2): with
    /// isolation on, lookups only match entries allocated by the current
    /// security domain, so cross-domain collisions — the channel — cannot
    /// form. Proposed by prior work [38, 70]; "neither approach has been
    /// adopted by current processors".
    pub fn set_domain_isolation(&mut self, enabled: bool) {
        self.isolation = enabled;
    }

    /// Whether domain isolation is on.
    pub fn domain_isolation(&self) -> bool {
        self.isolation
    }

    /// Switches the active security domain (set by the OS on context
    /// switches / enclave transitions when isolation is enabled).
    pub fn set_domain(&mut self, domain: DomainId) {
        self.domain = domain;
    }

    /// The active security domain.
    pub fn domain(&self) -> DomainId {
        self.domain
    }

    /// The geometry this BTB was built with.
    pub fn geometry(&self) -> &BtbGeometry {
        &self.geometry
    }

    /// Activity counters.
    pub fn stats(&self) -> BtbStats {
        self.stats
    }

    /// Splits `pc` into its set index and packed `tag << 5 | offset` key —
    /// [`BtbGeometry::decompose`] with the shifts and masks precomputed.
    #[inline]
    fn index(&self, pc: VirtAddr) -> (usize, u64) {
        let pc = pc.value();
        let set = ((pc >> 5) & self.set_mask) as usize;
        let key = ((pc >> self.tag_shift) & self.tag_mask) << 5 | (pc & 0x1f);
        (set, key)
    }

    /// The slot indices of `set`'s ways, in way order.
    #[inline]
    fn ways(&self, set: usize) -> std::ops::Range<usize> {
        let ways = self.geometry.ways;
        set * ways..(set + 1) * ways
    }

    /// Marks `way` of `set` as its most recently used way: every way more
    /// recent than it ages by one, without a branch per way.
    #[inline]
    fn touch(&mut self, set: usize, way: usize) {
        let ways = self.ways(set);
        let ranks = &mut self.ranks[ways];
        let rank = ranks[way];
        if rank == 0 {
            // Already the most recent: the common case when an entry is
            // hit and then updated by the same branch.
            return;
        }
        for other in ranks.iter_mut() {
            *other += u16::from(*other < rank);
        }
        ranks[way] = 0;
    }

    /// Position of `(set, way)` in the slot arrays.
    ///
    /// # Panics
    ///
    /// Panics if `set`/`way` lie outside the geometry.
    fn slot_index(&self, set: usize, way: usize) -> usize {
        assert!(
            set < self.geometry.sets && way < self.geometry.ways,
            "({set}, {way}) lies outside the BTB"
        );
        set * self.geometry.ways + way
    }

    /// Range-semantics lookup for fetch PC `pc` (Takeaway 2).
    ///
    /// Hits the valid entry with matching set and tag whose offset is the
    /// smallest one ≥ `pc`'s block offset. Updates LRU state of the selected
    /// entry.
    pub fn lookup(&mut self, pc: VirtAddr) -> Option<BtbHit> {
        let (set, lo) = self.index(pc);
        // The keys with `pc`'s tag and an offset at or after `pc`'s are
        // exactly `lo ..= lo + 31 - offset(pc)`; the distance from `lo` is
        // how far into the block the entry sits past `pc`. Empty slots and
        // other tags land far outside that range. Only a strictly nearer
        // entry displaces the best so far, so the first way wins ties.
        let beyond = 0x20 - (lo & 0x1f);
        let (mut way, mut distance) = (0, beyond);
        let ways = self.ways(set);
        if self.isolation {
            let payloads = &self.payloads[ways.clone()];
            for (w, (&key, payload)) in self.keys[ways].iter().zip(payloads).enumerate() {
                let d = key.wrapping_sub(lo);
                if d < distance && payload.domain == self.domain {
                    (way, distance) = (w, d);
                }
            }
        } else {
            // Selects rather than branches: which way is nearest is data
            // the branch predictor of the host cannot learn.
            for (w, &key) in self.keys[ways].iter().enumerate() {
                let d = key.wrapping_sub(lo);
                way = if d < distance { w } else { way };
                distance = distance.min(d);
            }
        }
        if distance == beyond {
            self.stats.misses += 1;
            return None;
        }
        self.touch(set, way);
        self.stats.hits += 1;
        let payload = self.payloads[self.slot_index(set, way)];
        Some(BtbHit {
            set,
            way,
            branch_pc: pc.offset(distance),
            target: payload.target,
            kind: payload.kind,
        })
    }

    /// Exact-match query: is there an entry whose recorded location equals
    /// `pc` (same set, tag *and* offset)? Does not touch LRU or stats.
    /// Primarily for tests and introspection.
    pub fn entry_at(&self, pc: VirtAddr) -> Option<(usize, usize)> {
        let (set, key) = self.index(pc);
        self.keys[self.ways(set)]
            .iter()
            .position(|&k| k == key)
            .map(|way| (set, way))
    }

    /// Allocates (or updates) the entry for a taken branch whose recorded
    /// location is `pc`.
    ///
    /// The front end passes the branch's **last byte** here: entries are
    /// end-byte-indexed, which is what produces the paper's empirical
    /// `F2 < F1 + 2` collision boundary (§2.3 — a nop overlapping *either*
    /// byte of the 2-byte jump at `F1` collides with its entry).
    ///
    /// If an entry with the same set/tag/offset exists it is overwritten in
    /// place; otherwise an invalid way is used, or the LRU way is evicted.
    pub fn allocate(&mut self, pc: VirtAddr, target: VirtAddr, kind: BranchKind) {
        let (set, key) = self.index(pc);
        let (isolation, domain) = (self.isolation, self.domain);
        let ways = self.ways(set);
        let (keys, payloads) = (&self.keys[ways.clone()], &self.payloads[ways.clone()]);
        // In-place update of a matching entry (within the same domain when
        // isolation is enabled; cross-domain aliases coexist in other ways),
        // else a free way, else the LRU way.
        let way = (0..keys.len())
            .position(|w| keys[w] == key && (!isolation || payloads[w].domain == domain))
            .or_else(|| keys.iter().position(|&k| k == INVALID));
        let way = way.unwrap_or_else(|| {
            self.stats.evictions += 1;
            self.ranks[ways.clone()]
                .iter()
                .position(|&rank| usize::from(rank) == ways.len() - 1)
                .expect("a set's ranks are a permutation of its ways")
        });
        let index = self.slot_index(set, way);
        self.keys[index] = key;
        self.payloads[index] = Payload {
            target,
            domain,
            kind,
        };
        self.touch(set, way);
        self.stats.allocations += 1;
    }

    /// Empties the slot at `(set, way)`, returning whether it held an entry.
    fn invalidate(&mut self, set: usize, way: usize) -> bool {
        let index = self.slot_index(set, way);
        std::mem::replace(&mut self.keys[index], INVALID) != INVALID
    }

    /// Deallocates the entry at `(set, way)` — the false-hit response
    /// (Takeaway 1). Idempotent.
    pub fn deallocate(&mut self, set: usize, way: usize) {
        if self.invalidate(set, way) {
            self.stats.deallocations += 1;
        }
    }

    /// Invalidates the entry at `(set, way)` as a *competing process*
    /// would: from outside the core, with no false hit involved. Counts
    /// under [`BtbStats::external_evictions`] rather than deallocations so
    /// injected contention stays distinguishable from the attack's own
    /// signal. Returns `true` if a valid entry was displaced.
    ///
    /// # Panics
    ///
    /// Panics if `set`/`way` lie outside the geometry.
    pub fn evict_entry(&mut self, set: usize, way: usize) -> bool {
        let evicted = self.invalidate(set, way);
        if evicted {
            self.stats.external_evictions += 1;
        }
        evicted
    }

    /// Invalidates every entry (a full BTB flush, e.g. the cleanup routine
    /// the paper borrows from BranchScope).
    pub fn flush(&mut self) {
        self.keys.fill(INVALID);
    }

    /// Applies an IBPB-style barrier: flushes **only indirect-branch
    /// entries**, per Intel's documented behaviour (§4.1). Direct-jump and
    /// conditional-branch entries — the ones NightVision uses — survive.
    pub fn indirect_predictor_barrier(&mut self) {
        for (key, payload) in self.keys.iter_mut().zip(&self.payloads) {
            if payload.kind.is_indirect() {
                *key = INVALID;
            }
        }
    }

    /// Number of currently valid entries.
    pub fn occupancy(&self) -> usize {
        self.keys.iter().filter(|&&key| key != INVALID).count()
    }

    /// Iterates over the recorded `(branch_low_bits, target, kind)` of all
    /// valid entries, reconstructing the low (truncated) address bits of
    /// each recorded branch. For tests and debugging.
    pub fn valid_entries(&self) -> Vec<(u64, VirtAddr, BranchKind)> {
        let ways = self.geometry.ways;
        let mut out: Vec<_> = self
            .keys
            .iter()
            .zip(&self.payloads)
            .enumerate()
            .filter(|(_, (&key, _))| key != INVALID)
            .map(|(index, (&key, payload))| {
                let set = (index / ways) as u64;
                let low = (key >> 5) << self.tag_shift | set << 5 | (key & 0x1f);
                (low, payload.target, payload.kind)
            })
            .collect();
        out.sort_by_key(|&(low, _, _)| low);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn btb() -> Btb {
        Btb::new(BtbGeometry::default())
    }

    #[test]
    fn exact_hit_and_miss() {
        let mut btb = btb();
        let pc = VirtAddr::new(0x40_0010);
        assert!(btb.lookup(pc).is_none());
        btb.allocate(pc, VirtAddr::new(0x40_0080), BranchKind::DirectJump);
        let hit = btb.lookup(pc).unwrap();
        assert_eq!(hit.branch_pc, pc);
        assert_eq!(hit.target, VirtAddr::new(0x40_0080));
        assert_eq!(hit.kind, BranchKind::DirectJump);
        assert_eq!(btb.stats().hits, 1);
        assert_eq!(btb.stats().misses, 1);
    }

    #[test]
    fn range_semantics_hit_at_or_after_pc() {
        // Takeaway 2: lookup from a lower offset hits; from a higher one misses.
        let mut btb = btb();
        let branch = VirtAddr::new(0x40_001e); // offset 0x1e
        btb.allocate(branch, VirtAddr::new(0x40_0100), BranchKind::DirectJump);
        for offset in 0..=0x1e {
            let pc = VirtAddr::new(0x40_0000 + offset);
            let hit = btb.lookup(pc).expect("offset <= 0x1e must hit");
            assert_eq!(hit.branch_pc, branch, "offset {offset:#x}");
        }
        assert!(btb.lookup(VirtAddr::new(0x40_001f)).is_none());
    }

    #[test]
    fn smallest_qualifying_offset_wins() {
        // Takeaway 2, second half: among several hits, the lowest offset ≥
        // the PC offset is selected.
        let mut btb = btb();
        let early = VirtAddr::new(0x40_0008);
        let late = VirtAddr::new(0x40_001e);
        btb.allocate(late, VirtAddr::new(0x40_0100), BranchKind::DirectJump);
        btb.allocate(early, VirtAddr::new(0x40_0200), BranchKind::DirectJump);
        let hit = btb.lookup(VirtAddr::new(0x40_0000)).unwrap();
        assert_eq!(hit.branch_pc, early);
        // From between the two, the later one is selected.
        let hit = btb.lookup(VirtAddr::new(0x40_000a)).unwrap();
        assert_eq!(hit.branch_pc, late);
    }

    #[test]
    fn aliased_lookup_reconstructs_in_fetch_block() {
        let mut btb = btb();
        let victim_branch = VirtAddr::new(0x40_0010);
        btb.allocate(
            victim_branch,
            VirtAddr::new(0x40_0100),
            BranchKind::CondBranch,
        );
        let attacker_block = VirtAddr::new(0x40_0000 + (1u64 << 33));
        let hit = btb.lookup(attacker_block).unwrap();
        // The predicted branch PC materializes inside the attacker's block.
        assert_eq!(hit.branch_pc, attacker_block.offset(0x10));
    }

    #[test]
    fn different_tag_does_not_hit() {
        let mut btb = btb();
        btb.allocate(
            VirtAddr::new(0x40_0010),
            VirtAddr::new(0),
            BranchKind::DirectJump,
        );
        // Same set (bits 5..14 equal) but different tag bit 14.
        assert!(btb.lookup(VirtAddr::new(0x40_0010 + (1 << 14))).is_none());
    }

    #[test]
    fn deallocate_removes_entry() {
        let mut btb = btb();
        let pc = VirtAddr::new(0x40_0010);
        btb.allocate(pc, VirtAddr::new(0), BranchKind::DirectJump);
        let hit = btb.lookup(pc).unwrap();
        btb.deallocate(hit.set, hit.way);
        assert!(btb.lookup(pc).is_none());
        assert_eq!(btb.stats().deallocations, 1);
        // Idempotent.
        btb.deallocate(hit.set, hit.way);
        assert_eq!(btb.stats().deallocations, 1);
    }

    #[test]
    fn update_in_place_keeps_one_entry() {
        let mut btb = btb();
        let pc = VirtAddr::new(0x40_0010);
        btb.allocate(pc, VirtAddr::new(0x100), BranchKind::CondBranch);
        btb.allocate(pc, VirtAddr::new(0x200), BranchKind::CondBranch);
        assert_eq!(btb.occupancy(), 1);
        assert_eq!(btb.lookup(pc).unwrap().target, VirtAddr::new(0x200));
    }

    #[test]
    fn lru_eviction_fills_then_replaces() {
        let geometry = BtbGeometry {
            sets: 2,
            ways: 2,
            tag_cutoff_bit: 33,
        };
        let mut btb = Btb::new(geometry);
        // Three branches in the same set, different tags. With sets = 2 the
        // set index is pc bit 5 alone, so adding multiples of 1 << 6 keeps
        // bit 5 (and the 5-bit block offset 0x10) unchanged while varying
        // the tag bits above.
        let a = VirtAddr::new(0x00_0010);
        let b = VirtAddr::new(0x00_0010 + (1 << 6));
        let c = VirtAddr::new(0x00_0010 + (2 << 6));
        btb.allocate(a, VirtAddr::new(1), BranchKind::DirectJump);
        btb.allocate(b, VirtAddr::new(2), BranchKind::DirectJump);
        // Touch `a` so `b` becomes LRU.
        assert!(btb.lookup(a).is_some());
        btb.allocate(c, VirtAddr::new(3), BranchKind::DirectJump);
        assert!(btb.lookup(a).is_some(), "recently used survives");
        assert!(btb.lookup(b).is_none(), "LRU way evicted");
        assert!(btb.lookup(c).is_some());
        assert_eq!(btb.stats().evictions, 1);
    }

    #[test]
    fn flush_clears_everything() {
        let mut btb = btb();
        for i in 0..64 {
            btb.allocate(
                VirtAddr::new(0x40_0000 + i * 32),
                VirtAddr::new(0),
                BranchKind::DirectJump,
            );
        }
        assert_eq!(btb.occupancy(), 64);
        btb.flush();
        assert_eq!(btb.occupancy(), 0);
    }

    #[test]
    fn ibpb_flushes_only_indirect_entries() {
        // §4.1: IBRS/IBPB change state only for indirect-branch entries.
        let mut btb = btb();
        let direct = VirtAddr::new(0x40_0010);
        let cond = VirtAddr::new(0x40_0040);
        let indirect_jmp = VirtAddr::new(0x40_0080);
        let indirect_call = VirtAddr::new(0x40_00c0);
        btb.allocate(direct, VirtAddr::new(1), BranchKind::DirectJump);
        btb.allocate(cond, VirtAddr::new(2), BranchKind::CondBranch);
        btb.allocate(indirect_jmp, VirtAddr::new(3), BranchKind::IndirectJump);
        btb.allocate(indirect_call, VirtAddr::new(4), BranchKind::IndirectCall);
        btb.indirect_predictor_barrier();
        assert!(btb.lookup(direct).is_some());
        assert!(btb.lookup(cond).is_some());
        assert!(btb.lookup(indirect_jmp).is_none());
        assert!(btb.lookup(indirect_call).is_none());
    }

    #[test]
    fn valid_entries_reconstruct_low_bits() {
        let mut btb = btb();
        let pc = VirtAddr::new(0x40_0013 + (1 << 33));
        btb.allocate(pc, VirtAddr::new(0x99), BranchKind::DirectCall);
        let entries = btb.valid_entries();
        assert_eq!(entries.len(), 1);
        // The reconstructed low bits equal the PC's low 33 bits.
        assert_eq!(entries[0].0, pc.truncate(33));
        assert_eq!(entries[0].1, VirtAddr::new(0x99));
    }

    #[test]
    fn return_entries_participate_in_range_lookups() {
        // A return's entry is a normal range-lookup citizen: aliased
        // fetches below it hit it (this is what makes ret-terminated
        // victim fragments observable, Fig. 5 cases 1/2).
        let mut btb = btb();
        let ret_end = VirtAddr::new(0x40_0128);
        btb.allocate(ret_end, VirtAddr::new(0x40_000c), BranchKind::Return);
        let hit = btb.lookup(VirtAddr::new(0x40_0123 + (1 << 33))).unwrap();
        assert_eq!(hit.kind, BranchKind::Return);
        // And IBPB spares it.
        btb.indirect_predictor_barrier();
        assert!(btb.entry_at(ret_end).is_some());
    }

    #[test]
    fn domain_isolation_scopes_lookups_and_updates() {
        let mut btb = btb();
        btb.set_domain_isolation(true);
        btb.set_domain(1);
        let pc = VirtAddr::new(0x40_0010);
        btb.allocate(pc, VirtAddr::new(0x100), BranchKind::DirectJump);
        assert!(btb.lookup(pc).is_some(), "own domain sees the entry");
        btb.set_domain(2);
        assert!(btb.lookup(pc).is_none(), "foreign domain cannot see it");
        // A foreign-domain allocation at the same location coexists in
        // another way rather than clobbering.
        btb.allocate(pc, VirtAddr::new(0x200), BranchKind::DirectJump);
        assert_eq!(btb.lookup(pc).unwrap().target, VirtAddr::new(0x200));
        btb.set_domain(1);
        assert_eq!(btb.lookup(pc).unwrap().target, VirtAddr::new(0x100));
        assert_eq!(btb.occupancy(), 2);
        // Disabling isolation exposes everything again.
        btb.set_domain_isolation(false);
        assert!(btb.lookup(pc).is_some());
    }

    #[test]
    fn branch_kind_mapping() {
        use nv_isa::InstKind;
        assert_eq!(
            BranchKind::from_inst_kind(InstKind::DirectJump),
            Some(BranchKind::DirectJump)
        );
        assert_eq!(
            BranchKind::from_inst_kind(InstKind::CondBranch),
            Some(BranchKind::CondBranch)
        );
        assert_eq!(
            BranchKind::from_inst_kind(InstKind::Ret),
            Some(BranchKind::Return)
        );
        assert_eq!(BranchKind::from_inst_kind(InstKind::NonTransfer), None);
        assert!(!BranchKind::Return.is_indirect(), "IBPB spares returns");
        assert!(BranchKind::IndirectJump.is_indirect());
        assert!(!BranchKind::DirectCall.is_indirect());
    }
}
