//! Page tables: permissions plus accessed/dirty tracking.
//!
//! This is the substrate of controlled-channel attacks (§6.3): a
//! supervisor-level attacker revokes execute permission on enclave code
//! pages to learn, via the resulting faults, the *page number* of the next
//! executed instruction; and reads accessed/dirty bits to detect data-page
//! touches (the call/ret detector of §6.4).

use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use nv_isa::VirtAddr;
use nv_uarch::PageHasher;

/// Permissions and status bits of one 4 KiB page.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PagePerms {
    /// Readable (always true in this model).
    pub read: bool,
    /// Writable.
    pub write: bool,
    /// Executable — the knob controlled-channel attacks toggle.
    pub execute: bool,
    /// Hardware-set on any access; supervisor-clearable.
    pub accessed: bool,
    /// Hardware-set on writes; supervisor-clearable.
    pub dirty: bool,
}

impl Default for PagePerms {
    fn default() -> Self {
        PagePerms {
            read: true,
            write: true,
            execute: true,
            accessed: false,
            dirty: false,
        }
    }
}

/// A sparse page table keyed by virtual page number.
///
/// Pages never explicitly mapped behave as freshly mapped RWX pages — this
/// keeps unit tests small; the enclave maps its pages explicitly.
///
/// # Examples
///
/// ```
/// use nv_os::PageTable;
/// use nv_isa::VirtAddr;
///
/// let mut pt = PageTable::new();
/// let code = VirtAddr::new(0x40_0000);
/// pt.set_executable(code.page_number(), false);
/// assert!(!pt.perms(code.page_number()).execute);
/// pt.record_access(code, false);
/// assert!(pt.perms(code.page_number()).accessed);
/// ```
#[derive(Clone, Debug, Default)]
pub struct PageTable {
    /// Iterated only where the result is sorted or order-free, so the
    /// hash order never shows.
    pages: HashMap<u64, PagePerms, BuildHasherDefault<PageHasher>>,
}

impl PageTable {
    /// Creates an empty page table.
    pub fn new() -> Self {
        PageTable::default()
    }

    /// Current permissions of `page` (default RWX if never mapped).
    pub fn perms(&self, page: u64) -> PagePerms {
        self.pages.get(&page).copied().unwrap_or_default()
    }

    fn entry(&mut self, page: u64) -> &mut PagePerms {
        self.pages.entry(page).or_default()
    }

    /// Sets the execute permission of `page`.
    pub fn set_executable(&mut self, page: u64, execute: bool) {
        self.entry(page).execute = execute;
    }

    /// Sets the write permission of `page`.
    pub fn set_writable(&mut self, page: u64, write: bool) {
        self.entry(page).write = write;
    }

    /// `true` if fetching from `addr` is permitted.
    pub fn can_execute(&self, addr: VirtAddr) -> bool {
        self.perms(addr.page_number()).execute
    }

    /// Records a data access at `addr`, setting accessed (and dirty for
    /// writes) — what the MMU would do.
    pub fn record_access(&mut self, addr: VirtAddr, write: bool) {
        let perms = self.entry(addr.page_number());
        perms.accessed = true;
        if write {
            perms.dirty = true;
        }
    }

    /// Clears the accessed/dirty bits of every page; returns the page
    /// numbers that had their accessed bit set. This is one supervisor
    /// "sample" of the access-bit channel.
    pub fn harvest_accessed(&mut self) -> Vec<u64> {
        let mut touched: Vec<u64> = self
            .pages
            .iter()
            .filter(|(_, perms)| perms.accessed)
            .map(|(&page, _)| page)
            .collect();
        touched.sort_unstable();
        for perms in self.pages.values_mut() {
            perms.accessed = false;
            perms.dirty = false;
        }
        touched
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_rwx_clean() {
        let pt = PageTable::new();
        let perms = pt.perms(42);
        assert!(perms.read && perms.write && perms.execute);
        assert!(!perms.accessed && !perms.dirty);
    }

    #[test]
    fn execute_toggle() {
        let mut pt = PageTable::new();
        pt.set_executable(0x400, false);
        assert!(!pt.can_execute(VirtAddr::new(0x40_0123)));
        assert!(pt.can_execute(VirtAddr::new(0x40_1000)));
        pt.set_executable(0x400, true);
        assert!(pt.can_execute(VirtAddr::new(0x40_0123)));
    }

    #[test]
    fn access_bits_accumulate_and_harvest() {
        let mut pt = PageTable::new();
        pt.record_access(VirtAddr::new(0x1000), false);
        pt.record_access(VirtAddr::new(0x2000), true);
        assert!(pt.perms(1).accessed && !pt.perms(1).dirty);
        assert!(pt.perms(2).accessed && pt.perms(2).dirty);
        let touched = pt.harvest_accessed();
        assert_eq!(touched, vec![1, 2]);
        assert!(!pt.perms(1).accessed);
        assert!(pt.harvest_accessed().is_empty());
    }

    #[test]
    fn write_protection_flag() {
        let mut pt = PageTable::new();
        pt.set_writable(5, false);
        assert!(!pt.perms(5).write);
    }
}
