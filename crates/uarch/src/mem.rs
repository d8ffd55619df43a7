//! Sparse byte-addressable data memory.
//!
//! Backed by 4 KiB pages allocated on first touch, so victim and attacker
//! images can live gigabytes apart without materializing the gap.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use nv_isa::{VirtAddr, PAGE_BYTES};

/// Bytes per page.
const PAGE: usize = PAGE_BYTES as usize;

/// One resident page.
type Page = [u8; PAGE];

/// Hasher for page-number keys: a fixed multiplicative (Fibonacci) hash,
/// one multiply per probe.
///
/// A page map must not let the hash order show: probe it by key, and
/// sort what an iteration collects (as `nv_os::PageTable` does). The
/// keys are page numbers of the simulated programs, not input from
/// outside the program, so there is no crafted-collision input to defend
/// against.
#[derive(Default)]
pub struct PageHasher(u64);

impl Hasher for PageHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(self.0.rotate_left(8) ^ u64::from(byte));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

/// Page number → page contents.
type PageMap = HashMap<u64, Box<Page>, BuildHasherDefault<PageHasher>>;

/// Where the little-endian word at `addr` lies, if it does not straddle a
/// page: its page number and the offset of its first byte.
fn word_in_page(addr: VirtAddr) -> Option<(u64, usize)> {
    let offset = addr.page_offset() as usize;
    (offset <= PAGE - 8).then(|| (addr.page_number(), offset))
}

fn load_word(page: &Page, offset: usize) -> u64 {
    let mut bytes = [0u8; 8];
    bytes.copy_from_slice(&page[offset..offset + 8]);
    u64::from_le_bytes(bytes)
}

fn store_word(page: &mut Page, offset: usize, value: u64) {
    page[offset..offset + 8].copy_from_slice(&value.to_le_bytes());
}

/// Reads a little-endian `u64` one byte at a time — the reference
/// semantics of [`Bus::read_u64`], and its path for words that straddle a
/// page boundary.
fn read_u64_bytewise<B: Bus + ?Sized>(bus: &B, addr: VirtAddr) -> u64 {
    let mut bytes = [0u8; 8];
    for (i, b) in bytes.iter_mut().enumerate() {
        *b = bus.read_u8(addr.offset(i as u64));
    }
    u64::from_le_bytes(bytes)
}

/// Writes a little-endian `u64` one byte at a time (see
/// [`read_u64_bytewise`]).
fn write_u64_bytewise<B: Bus + ?Sized>(bus: &mut B, addr: VirtAddr, value: u64) {
    for (i, b) in value.to_le_bytes().into_iter().enumerate() {
        bus.write_u8(addr.offset(i as u64), b);
    }
}

/// Byte-addressable data-memory interface used by the executor.
///
/// Two implementations exist: [`Memory`] (the real backing store) and
/// [`SpecOverlay`] (a copy-on-write view used while the front end runs ahead
/// speculatively — speculative stores must not become architectural).
pub trait Bus {
    /// Reads one byte.
    fn read_u8(&self, addr: VirtAddr) -> u8;
    /// Writes one byte.
    fn write_u8(&mut self, addr: VirtAddr, value: u8);

    /// Reads a little-endian `u64`: by definition, the eight bytes at
    /// `addr..addr + 8` (wrapping), as [`Bus::read_u8`] sees them.
    fn read_u64(&self, addr: VirtAddr) -> u64 {
        read_u64_bytewise(self, addr)
    }

    /// Writes a little-endian `u64`: by definition, eight
    /// [`Bus::write_u8`]s at `addr..addr + 8` (wrapping).
    fn write_u64(&mut self, addr: VirtAddr, value: u64) {
        write_u64_bytewise(self, addr, value);
    }
}

/// A speculative view over a [`Memory`]: reads fall through, writes land in
/// private copies of the written pages that are discarded when speculation
/// ends.
#[derive(Debug)]
pub struct SpecOverlay<'a> {
    base: &'a Memory,
    /// Pages speculation has written, in `pages[..dirty]`, each copied from
    /// `base` on its first write. `base` is borrowed immutably for the
    /// overlay's lifetime, so a copy never goes stale. The buffers past
    /// `dirty` are spares, filled before any new page is allocated.
    pages: Vec<(u64, Box<Page>)>,
    dirty: usize,
}

/// The page buffers of an ended [`SpecOverlay`], kept for the next one to
/// copy pages into: warm speculation allocates nothing. Scratch space,
/// not state, so a clone starts empty.
#[derive(Default)]
pub(crate) struct SparePages(Vec<(u64, Box<Page>)>);

impl Clone for SparePages {
    fn clone(&self) -> Self {
        SparePages::default()
    }
}

impl std::fmt::Debug for SparePages {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("SparePages").field(&self.0.len()).finish()
    }
}

impl<'a> SpecOverlay<'a> {
    /// Creates an overlay over `base`.
    pub fn new(base: &'a Memory) -> Self {
        SpecOverlay::reusing(base, SparePages::default())
    }

    /// Creates an overlay over `base` that copies pages into `spare`'s
    /// buffers before allocating new ones.
    pub(crate) fn reusing(base: &'a Memory, spare: SparePages) -> Self {
        SpecOverlay {
            base,
            pages: spare.0,
            dirty: 0,
        }
    }

    /// Ends the speculation: discards its writes and hands back the page
    /// buffers for [`SpecOverlay::reusing`].
    pub(crate) fn into_spare(self) -> SparePages {
        SparePages(self.pages)
    }

    /// Number of pages holding speculative writes.
    pub fn dirty_pages(&self) -> usize {
        self.dirty
    }

    /// The overlay's copy of page `number`, if speculation wrote to it.
    fn page(&self, number: u64) -> Option<&Page> {
        self.pages[..self.dirty]
            .iter()
            .find(|(n, _)| *n == number)
            .map(|(_, page)| &**page)
    }

    /// The overlay's private copy of page `number`, made on first use.
    fn page_mut(&mut self, number: u64) -> &mut Page {
        let index = match self.pages[..self.dirty]
            .iter()
            .position(|(n, _)| *n == number)
        {
            Some(index) => index,
            None => {
                if self.dirty == self.pages.len() {
                    self.pages.push((number, Box::new([0; PAGE])));
                }
                let (slot, page) = &mut self.pages[self.dirty];
                *slot = number;
                match self.base.page(number) {
                    Some(base) => page.copy_from_slice(base),
                    None => page.fill(0),
                }
                self.dirty += 1;
                self.dirty - 1
            }
        };
        &mut self.pages[index].1
    }
}

impl Bus for SpecOverlay<'_> {
    fn read_u8(&self, addr: VirtAddr) -> u8 {
        match self.page(addr.page_number()) {
            Some(page) => page[addr.page_offset() as usize],
            None => self.base.read_u8(addr),
        }
    }

    fn write_u8(&mut self, addr: VirtAddr, value: u8) {
        self.page_mut(addr.page_number())[addr.page_offset() as usize] = value;
    }

    fn read_u64(&self, addr: VirtAddr) -> u64 {
        match word_in_page(addr) {
            Some((number, offset)) => match self.page(number) {
                Some(page) => load_word(page, offset),
                None => self.base.read_u64(addr),
            },
            None => read_u64_bytewise(self, addr),
        }
    }

    fn write_u64(&mut self, addr: VirtAddr, value: u64) {
        match word_in_page(addr) {
            Some((number, offset)) => store_word(self.page_mut(number), offset, value),
            None => write_u64_bytewise(self, addr, value),
        }
    }
}

impl Bus for Memory {
    fn read_u8(&self, addr: VirtAddr) -> u8 {
        Memory::read_u8(self, addr)
    }

    fn write_u8(&mut self, addr: VirtAddr, value: u8) {
        Memory::write_u8(self, addr, value);
    }

    fn read_u64(&self, addr: VirtAddr) -> u64 {
        Memory::read_u64(self, addr)
    }

    fn write_u64(&mut self, addr: VirtAddr, value: u64) {
        Memory::write_u64(self, addr, value);
    }
}

/// Sparse 64-bit data memory.
///
/// Reads of untouched memory return zero, like freshly mapped anonymous
/// pages.
///
/// # Examples
///
/// ```
/// use nv_uarch::Memory;
/// use nv_isa::VirtAddr;
///
/// let mut mem = Memory::new();
/// mem.write_u64(VirtAddr::new(0x7fff_0000), 0xdead_beef);
/// assert_eq!(mem.read_u64(VirtAddr::new(0x7fff_0000)), 0xdead_beef);
/// assert_eq!(mem.read_u64(VirtAddr::new(0x1234)), 0);
/// ```
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Memory {
    pages: PageMap,
}

impl Memory {
    /// Creates empty memory.
    pub fn new() -> Self {
        Memory::default()
    }

    fn page(&self, number: u64) -> Option<&Page> {
        self.pages.get(&number).map(|page| &**page)
    }

    fn page_mut(&mut self, number: u64) -> &mut Page {
        self.pages
            .entry(number)
            .or_insert_with(|| Box::new([0; PAGE]))
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: VirtAddr) -> u8 {
        self.page(addr.page_number())
            .map_or(0, |page| page[addr.page_offset() as usize])
    }

    /// Writes one byte, allocating the page on demand.
    pub fn write_u8(&mut self, addr: VirtAddr, value: u8) {
        self.page_mut(addr.page_number())[addr.page_offset() as usize] = value;
    }

    /// Reads a little-endian `u64` (may straddle a page boundary).
    pub fn read_u64(&self, addr: VirtAddr) -> u64 {
        match word_in_page(addr) {
            Some((number, offset)) => self.page(number).map_or(0, |page| load_word(page, offset)),
            None => read_u64_bytewise(self, addr),
        }
    }

    /// Writes a little-endian `u64` (may straddle a page boundary).
    pub fn write_u64(&mut self, addr: VirtAddr, value: u64) {
        match word_in_page(addr) {
            Some((number, offset)) => store_word(self.page_mut(number), offset, value),
            None => write_u64_bytewise(self, addr, value),
        }
    }

    /// Copies a byte slice into memory starting at `addr`.
    pub fn write_bytes(&mut self, addr: VirtAddr, bytes: &[u8]) {
        for (i, &b) in bytes.iter().enumerate() {
            self.write_u8(addr.offset(i as u64), b);
        }
    }

    /// Reads `len` bytes starting at `addr`.
    pub fn read_bytes(&self, addr: VirtAddr, len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| self.read_u8(addr.offset(i as u64)))
            .collect()
    }

    /// Number of resident (touched) pages.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_initialized() {
        let mem = Memory::new();
        assert_eq!(mem.read_u8(VirtAddr::new(12345)), 0);
        assert_eq!(mem.read_u64(VirtAddr::new(u64::MAX - 16)), 0);
        assert_eq!(mem.resident_pages(), 0);
    }

    #[test]
    fn u64_roundtrip_within_page() {
        let mut mem = Memory::new();
        mem.write_u64(VirtAddr::new(0x1000), 0x0102_0304_0506_0708);
        assert_eq!(mem.read_u64(VirtAddr::new(0x1000)), 0x0102_0304_0506_0708);
        // Little-endian byte order.
        assert_eq!(mem.read_u8(VirtAddr::new(0x1000)), 0x08);
        assert_eq!(mem.read_u8(VirtAddr::new(0x1007)), 0x01);
    }

    #[test]
    fn u64_straddles_pages() {
        let mut mem = Memory::new();
        let addr = VirtAddr::new(0x1ffc);
        mem.write_u64(addr, u64::MAX);
        assert_eq!(mem.read_u64(addr), u64::MAX);
        assert_eq!(mem.resident_pages(), 2);
    }

    #[test]
    fn sparse_pages_far_apart() {
        let mut mem = Memory::new();
        mem.write_u8(VirtAddr::new(0), 1);
        mem.write_u8(VirtAddr::new(1 << 40), 2);
        assert_eq!(mem.resident_pages(), 2);
        assert_eq!(mem.read_u8(VirtAddr::new(1 << 40)), 2);
    }

    /// Addresses whose u64 lies in one page, starts at the last in-page
    /// offset, or straddles a page boundary (offsets 4089..=4095),
    /// including the wrap at the top of the address space.
    fn word_addresses() -> impl Iterator<Item = VirtAddr> {
        let offsets = [0, 1, 7, 2048, 4087].into_iter().chain(4088..4096);
        [0x1000u64, 0x7f00_0000_0000, u64::MAX - (PAGE_BYTES - 1)]
            .into_iter()
            .flat_map(move |page| {
                offsets
                    .clone()
                    .map(move |offset| VirtAddr::new(page + offset))
            })
    }

    /// A memory whose pages around `addr` hold distinct bytes.
    fn patterned(addr: VirtAddr) -> Memory {
        let mut mem = Memory::new();
        for i in 0..2 * PAGE_BYTES {
            let at = addr.page_base().offset(i.wrapping_sub(PAGE_BYTES / 2));
            mem.write_u8(at, (at.value() as u8).wrapping_mul(31) ^ 0x5a);
        }
        mem
    }

    #[test]
    fn u64_access_equals_byte_access_at_every_page_offset() {
        let value = 0x0102_0304_0506_0708;
        for addr in word_addresses() {
            let mem = patterned(addr);
            assert_eq!(mem.read_u64(addr), read_u64_bytewise(&mem, addr), "{addr}");

            let (mut word, mut bytes) = (mem.clone(), mem.clone());
            word.write_u64(addr, value);
            write_u64_bytewise(&mut bytes, addr, value);
            assert_eq!(word, bytes, "write at {addr}");
            assert_eq!(Bus::read_u64(&word, addr), value, "{addr}");

            // Untouched memory: reads are zero and writes allocate exactly
            // the pages the bytes land in.
            let (mut word, mut bytes) = (Memory::new(), Memory::new());
            assert_eq!(word.read_u64(addr), 0);
            Bus::write_u64(&mut word, addr, value);
            write_u64_bytewise(&mut bytes, addr, value);
            assert_eq!(word, bytes, "fresh write at {addr}");
        }
    }

    #[test]
    fn overlay_u64_access_equals_byte_access_at_every_page_offset() {
        let value = 0xfedc_ba98_7654_3210;
        // `word` reuses the page buffers the previous address's overlay
        // wrote into; `bytes` always starts fresh, so any stale byte shows.
        let mut spare = SparePages::default();
        for addr in word_addresses() {
            let base = patterned(addr);
            let pristine = base.clone();
            let mut word = SpecOverlay::reusing(&base, spare);
            let mut bytes = SpecOverlay::new(&base);
            // Reads fall through to the base until a page is written...
            assert_eq!(
                word.read_u64(addr),
                read_u64_bytewise(&base, addr),
                "{addr}"
            );
            // ...then mix copied-on-write pages with fall-through.
            let seed = addr.offset(5);
            word.write_u8(seed, 0xee);
            bytes.write_u8(seed, 0xee);
            assert_eq!(
                word.read_u64(addr),
                read_u64_bytewise(&bytes, addr),
                "{addr}"
            );

            word.write_u64(addr, value);
            write_u64_bytewise(&mut bytes, addr, value);
            for i in 0..16 {
                let at = addr.offset(i).offset(4u64.wrapping_neg());
                assert_eq!(
                    word.read_u8(at),
                    bytes.read_u8(at),
                    "byte {at} after write at {addr}"
                );
            }
            assert_eq!(word.read_u64(addr), value, "{addr}");
            assert_eq!(read_u64_bytewise(&word, addr), value, "{addr}");
            assert_eq!(word.dirty_pages(), bytes.dirty_pages(), "{addr}");
            spare = word.into_spare();
            drop(bytes);
            assert_eq!(
                base, pristine,
                "speculative writes reached the base at {addr}"
            );
        }
    }

    #[test]
    fn bulk_bytes_roundtrip() {
        let mut mem = Memory::new();
        let data: Vec<u8> = (0..=255).collect();
        mem.write_bytes(VirtAddr::new(0x2ff0), &data);
        assert_eq!(mem.read_bytes(VirtAddr::new(0x2ff0), 256), data);
    }
}
