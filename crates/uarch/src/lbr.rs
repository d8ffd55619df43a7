//! Last Branch Record (LBR) model.
//!
//! The paper measures BTB prediction outcomes through the LBR's per-record
//! cycle field: "the elapsed cycles between the retire of the last recorded
//! branch to the retire of the current branch" (§2.3). A mispredicted jump
//! inflates that field by the squash penalty, which is the attack's entire
//! observable.

use std::fmt;

use nv_isa::VirtAddr;

/// Architectural depth of the modelled LBR (32 on the paper's CPUs).
pub const LBR_DEPTH: usize = 32;

/// One LBR record: a retired taken control transfer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LbrRecord {
    /// PC of the retired transfer.
    pub from: VirtAddr,
    /// Its target.
    pub to: VirtAddr,
    /// Core cycle at which the transfer retired.
    pub cycle: u64,
    /// Cycles elapsed since the previous recorded transfer retired —
    /// the field the attack reads.
    pub elapsed: u64,
    /// Whether the transfer was mispredicted (real LBRs expose this for
    /// conditional branches; we expose it for all transfers, but the attack
    /// code only consumes `elapsed`, like the paper).
    pub mispredicted: bool,
}

/// A fixed-depth ring buffer of [`LbrRecord`]s.
///
/// # Examples
///
/// ```
/// use nv_uarch::{Lbr, LbrRecord};
/// use nv_isa::VirtAddr;
///
/// let mut lbr = Lbr::new();
/// lbr.record(VirtAddr::new(0x10), VirtAddr::new(0x20), 100, false);
/// lbr.record(VirtAddr::new(0x20), VirtAddr::new(0x30), 118, true);
/// let records: Vec<_> = lbr.iter().collect();
/// assert_eq!(records[1].elapsed, 18);
/// ```
#[derive(Clone, Debug)]
pub struct Lbr {
    /// The ring: the oldest record sits at `head`, the newest `len - 1`
    /// slots after it (wrapping). Slots outside that span are stale.
    records: [LbrRecord; LBR_DEPTH],
    head: usize,
    len: usize,
    last_retire_cycle: Option<u64>,
}

impl Default for Lbr {
    fn default() -> Self {
        let empty = LbrRecord {
            from: VirtAddr::new(0),
            to: VirtAddr::new(0),
            cycle: 0,
            elapsed: 0,
            mispredicted: false,
        };
        Lbr {
            records: [empty; LBR_DEPTH],
            head: 0,
            len: 0,
            last_retire_cycle: None,
        }
    }
}

impl Lbr {
    /// Creates an empty LBR.
    pub fn new() -> Self {
        Lbr::default()
    }

    /// Records the retirement of a taken control transfer at `cycle`.
    ///
    /// Computes the `elapsed` field relative to the previous record; the
    /// first record after a [`Lbr::clear`] reports `elapsed == 0`.
    ///
    /// A non-monotone retire cycle (`cycle` earlier than the previous
    /// record's) cannot happen on the simulator's own timeline, but the
    /// clamp is made explicit rather than silently saturating: `elapsed`
    /// is floored to **1** — distinguishable from the genuine-zero first
    /// record — and the shortfall (how far backwards the clock stepped)
    /// is returned so the core can surface a trace event. Returns `None`
    /// for ordinary monotone records.
    pub fn record(
        &mut self,
        from: VirtAddr,
        to: VirtAddr,
        cycle: u64,
        mispredicted: bool,
    ) -> Option<u64> {
        self.record_jittered(from, to, cycle, mispredicted, 0)
    }

    /// Like [`Lbr::record`], but adds `jitter` cycles of injected
    /// measurement noise to the stored `elapsed` field only. The retire
    /// cycle itself — and therefore the *next* record's baseline — stays
    /// exact: jitter models timer/readout skew, not a slower core, so it
    /// must not compound across records. `jitter == 0` is exactly
    /// [`Lbr::record`]. Propagates [`Lbr::record`]'s clamp shortfall.
    pub fn record_jittered(
        &mut self,
        from: VirtAddr,
        to: VirtAddr,
        cycle: u64,
        mispredicted: bool,
        jitter: u64,
    ) -> Option<u64> {
        let (elapsed, clamped) = match self.last_retire_cycle {
            None => (0, None),
            Some(last) if cycle >= last => (cycle - last, None),
            Some(last) => (1, Some(last - cycle)),
        };
        self.last_retire_cycle = Some(cycle);
        let slot = (self.head + self.len) % LBR_DEPTH;
        if self.len == LBR_DEPTH {
            // Full: the newest record overwrites the oldest.
            self.head = (self.head + 1) % LBR_DEPTH;
        } else {
            self.len += 1;
        }
        self.records[slot] = LbrRecord {
            from,
            to,
            cycle,
            elapsed: elapsed + jitter,
            mispredicted,
        };
        clamped
    }

    /// The records from oldest to newest, as two contiguous runs: the
    /// second is non-empty only once the ring has wrapped.
    pub fn as_slices(&self) -> (&[LbrRecord], &[LbrRecord]) {
        let end = self.head + self.len;
        if end <= LBR_DEPTH {
            (&self.records[self.head..end], &[])
        } else {
            (&self.records[self.head..], &self.records[..end - LBR_DEPTH])
        }
    }

    /// Iterates over records from oldest to newest.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = &LbrRecord> {
        let (older, newer) = self.as_slices();
        older.iter().chain(newer)
    }

    /// The newest record, if any.
    pub fn last(&self) -> Option<&LbrRecord> {
        self.iter().next_back()
    }

    /// Number of stored records (≤ [`LBR_DEPTH`]).
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no records are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Clears all records and the elapsed-cycle baseline.
    pub fn clear(&mut self) {
        // Restart at slot 0, so up to LBR_DEPTH records after a clear read
        // back as one contiguous run.
        self.head = 0;
        self.len = 0;
        self.last_retire_cycle = None;
    }

    /// Finds the newest record whose `from` equals `pc` — how the paper's
    /// experiments locate "the subsequent return" after a probed jump.
    pub fn find_from(&self, pc: VirtAddr) -> Option<&LbrRecord> {
        self.iter().rev().find(|r| r.from == pc)
    }

    /// Finds the newest record whose target equals `pc`.
    pub fn find_to(&self, pc: VirtAddr) -> Option<&LbrRecord> {
        self.iter().rev().find(|r| r.to == pc)
    }
}

impl fmt::Display for Lbr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "lbr ({} records):", self.len)?;
        for r in self.iter() {
            writeln!(
                f,
                "  {} -> {} @{} (+{}{})",
                r.from,
                r.to,
                r.cycle,
                r.elapsed,
                if r.mispredicted { ", mispredict" } else { "" }
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(v: u64) -> VirtAddr {
        VirtAddr::new(v)
    }

    #[test]
    fn elapsed_is_cycle_delta() {
        let mut lbr = Lbr::new();
        lbr.record(addr(1), addr(2), 1000, false);
        lbr.record(addr(2), addr(3), 1004, false);
        lbr.record(addr(3), addr(4), 1030, true);
        let elapsed: Vec<u64> = lbr.iter().map(|r| r.elapsed).collect();
        assert_eq!(elapsed, vec![0, 4, 26]);
    }

    #[test]
    fn ring_buffer_caps_at_depth() {
        let mut lbr = Lbr::new();
        for i in 0..100u64 {
            lbr.record(addr(i), addr(i + 1), i * 10, false);
        }
        assert_eq!(lbr.len(), LBR_DEPTH);
        // Oldest surviving record is number 100 - 32 = 68.
        assert_eq!(lbr.iter().next().unwrap().from, addr(68));
        assert_eq!(lbr.last().unwrap().from, addr(99));
    }

    #[test]
    fn jitter_inflates_elapsed_but_not_the_baseline() {
        let mut plain = Lbr::new();
        plain.record(addr(1), addr(2), 100, false);
        plain.record(addr(2), addr(3), 110, false);
        plain.record(addr(3), addr(4), 125, false);

        let mut noisy = Lbr::new();
        noisy.record_jittered(addr(1), addr(2), 100, false, 0);
        noisy.record_jittered(addr(2), addr(3), 110, false, 7);
        noisy.record_jittered(addr(3), addr(4), 125, false, 0);

        let plain_elapsed: Vec<u64> = plain.iter().map(|r| r.elapsed).collect();
        let noisy_elapsed: Vec<u64> = noisy.iter().map(|r| r.elapsed).collect();
        assert_eq!(plain_elapsed, vec![0, 10, 15]);
        // Only the jittered record shifts; the following one is unaffected.
        assert_eq!(noisy_elapsed, vec![0, 17, 15]);
    }

    #[test]
    fn non_monotone_cycle_clamps_to_one_and_reports_shortfall() {
        let mut lbr = Lbr::new();
        assert_eq!(lbr.record(addr(1), addr(2), 1000, false), None);
        // Exactly equal cycles are monotone: elapsed 0, no clamp.
        assert_eq!(lbr.record(addr(2), addr(3), 1000, false), None);
        assert_eq!(lbr.last().unwrap().elapsed, 0);
        // A backwards step clamps to the 1-cycle floor (distinguishable
        // from the genuine zero above) and reports how far back it went.
        assert_eq!(lbr.record(addr(3), addr(4), 993, false), Some(7));
        assert_eq!(lbr.last().unwrap().elapsed, 1);
        // The baseline follows the (earlier) clamped cycle, so the next
        // monotone record measures from it.
        assert_eq!(lbr.record(addr(4), addr(5), 1003, false), None);
        assert_eq!(lbr.last().unwrap().elapsed, 10);
    }

    #[test]
    fn jittered_clamp_floors_before_adding_jitter() {
        let mut lbr = Lbr::new();
        lbr.record(addr(1), addr(2), 500, false);
        // Clamp fires, then jitter inflates the stored field only.
        assert_eq!(
            lbr.record_jittered(addr(2), addr(3), 490, false, 4),
            Some(10)
        );
        assert_eq!(lbr.last().unwrap().elapsed, 1 + 4);
    }

    #[test]
    fn clear_resets_baseline() {
        let mut lbr = Lbr::new();
        lbr.record(addr(1), addr(2), 500, false);
        lbr.clear();
        assert!(lbr.is_empty());
        lbr.record(addr(3), addr(4), 800, false);
        assert_eq!(lbr.last().unwrap().elapsed, 0);
    }

    #[test]
    fn find_from_returns_newest_match() {
        let mut lbr = Lbr::new();
        lbr.record(addr(7), addr(1), 10, false);
        lbr.record(addr(9), addr(2), 20, false);
        lbr.record(addr(7), addr(3), 30, true);
        let r = lbr.find_from(addr(7)).unwrap();
        assert_eq!(r.to, addr(3));
        assert!(r.mispredicted);
        assert!(lbr.find_from(addr(42)).is_none());
    }

    #[test]
    fn find_to_matches_targets() {
        let mut lbr = Lbr::new();
        lbr.record(addr(7), addr(100), 10, false);
        assert!(lbr.find_to(addr(100)).is_some());
        assert!(lbr.find_to(addr(7)).is_none());
    }

    /// The `VecDeque` model the ring replaced, kept as a reference.
    #[derive(Default)]
    struct DequeLbr {
        records: std::collections::VecDeque<LbrRecord>,
        last_retire_cycle: Option<u64>,
    }

    impl DequeLbr {
        fn record_jittered(&mut self, from: VirtAddr, to: VirtAddr, cycle: u64, jitter: u64) {
            let elapsed = match self.last_retire_cycle {
                None => 0,
                Some(last) if cycle >= last => cycle - last,
                Some(_) => 1,
            };
            self.last_retire_cycle = Some(cycle);
            if self.records.len() == LBR_DEPTH {
                self.records.pop_front();
            }
            self.records.push_back(LbrRecord {
                from,
                to,
                cycle,
                elapsed: elapsed + jitter,
                mispredicted: from.value() % 2 == 1,
            });
        }

        fn clear(&mut self) {
            self.records.clear();
            self.last_retire_cycle = None;
        }
    }

    #[test]
    fn ring_order_matches_a_deque_reference() {
        let mut lbr = Lbr::new();
        let mut reference = DequeLbr::default();
        let mut cycle = 1_000u64;
        // Three wraps of the ring, a clear part-way through the second and
        // one right after a wrap, jitter on every third record and a
        // backwards clock step now and then.
        for i in 0..3 * LBR_DEPTH as u64 + 7 {
            if i == 45 || i == 2 * LBR_DEPTH as u64 + 1 {
                lbr.clear();
                reference.clear();
            }
            cycle = if i % 11 == 10 {
                cycle - 3
            } else {
                cycle + i % 7
            };
            let jitter = if i % 3 == 0 { i % 5 } else { 0 };
            let (from, to) = (addr(i), addr(i + 0x100));
            if jitter == 0 && i % 2 == 0 {
                lbr.record(from, to, cycle, i % 2 == 1);
            } else {
                lbr.record_jittered(from, to, cycle, i % 2 == 1, jitter);
            }
            reference.record_jittered(from, to, cycle, jitter);

            let ring: Vec<LbrRecord> = lbr.iter().copied().collect();
            let expected: Vec<LbrRecord> = reference.records.iter().copied().collect();
            assert_eq!(ring, expected, "after record {i}");
            let (older, newer) = lbr.as_slices();
            assert_eq!(
                [older, newer].concat(),
                expected,
                "as_slices after record {i}"
            );
            assert_eq!(lbr.len(), expected.len());
            assert_eq!(lbr.last(), expected.last());
            let newest_first: Vec<LbrRecord> = lbr.iter().rev().copied().collect();
            assert!(newest_first.iter().eq(expected.iter().rev()));
        }
    }

    #[test]
    fn display_lists_records() {
        let mut lbr = Lbr::new();
        lbr.record(addr(0x10), addr(0x20), 5, true);
        let text = lbr.to_string();
        assert!(text.contains("0x10"));
        assert!(text.contains("mispredict"));
    }
}
