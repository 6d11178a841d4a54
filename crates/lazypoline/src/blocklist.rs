//! Negative cache of unpatchable code pages.
//!
//! When a page's `mprotect` window keeps failing (hardened mapping,
//! sealed memory, injected fault), re-attempting the rewrite on every
//! `SIGSYS` to that page would pay the spinlock + a mapping lookup (a
//! `PROCMAP_QUERY` ioctl, often answered from the shadow of the
//! executable mappings instead) + failed `mprotect` on every single
//! trip. This table remembers such pages so the slow path goes straight
//! to emulation — turning a persistent failure into the same
//! steady-state cost as the pure-SUD configuration.
//!
//! Constraints (the table is consulted and filled from the `SIGSYS`
//! handler):
//!
//! * **Async-signal-safe, lock-free**: a fixed static array of
//!   `AtomicUsize` page addresses, CAS insertion, linear-scan lookup.
//!   No allocation, ever.
//! * **Fill-forward**: slots are claimed in order, so a lookup can stop
//!   at the first empty slot. Two racing inserts both scan from the
//!   front; the CAS loser re-examines the observed value and moves on.
//! * **Bounded**: [`CAPACITY`] entries. A full table only means later
//!   unpatchable pages fall back to re-attempting the patch per trip —
//!   a perf regression, never a correctness one.
//! * **No invalidation**: entries outlive `munmap`. A stale entry makes
//!   a *recycled* page address emulate instead of patch — again purely
//!   a perf effect, and one the paper's own one-way-rewriting design
//!   already accepts in spirit. (Page address 0 can never need
//!   blocklisting — it is the trampoline — so 0 doubles as the empty
//!   marker.)

use std::sync::atomic::{AtomicUsize, Ordering};

/// Maximum number of pages remembered. Processes with more than this
/// many *distinct* unpatchable pages are pathological; the table
/// saturating is safe (see module docs).
pub(crate) const CAPACITY: usize = 64;

static PAGES: [AtomicUsize; CAPACITY] = [const { AtomicUsize::new(0) }; CAPACITY];

/// Whether `page` (page-aligned address) is blocklisted.
#[inline]
pub(crate) fn contains(page: usize) -> bool {
    for slot in &PAGES {
        match slot.load(Ordering::Acquire) {
            0 => return false, // slots fill in order: nothing beyond
            p if p == page => return true,
            _ => {}
        }
    }
    false
}

/// Inserts `page` (page-aligned address). Returns `true` if this call
/// added it, `false` if it was already present or the table is full.
pub(crate) fn insert(page: usize) -> bool {
    debug_assert_eq!(page & 4095, 0);
    if page == 0 {
        return false;
    }
    for slot in &PAGES {
        let cur = slot.load(Ordering::Acquire);
        if cur == page {
            return false;
        }
        if cur == 0 {
            match slot.compare_exchange(0, page, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => return true,
                Err(actual) if actual == page => return false,
                Err(_) => {} // racer claimed this slot; try the next
            }
        }
    }
    false
}

/// Number of blocklisted pages.
pub(crate) fn len() -> usize {
    PAGES
        .iter()
        .take_while(|s| s.load(Ordering::Acquire) != 0)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    // The table is process-global and append-only, so these tests use
    // addresses no real page can alias and assert on deltas.

    #[test]
    fn insert_and_contains() {
        let page = 0xdead_b000usize;
        assert!(!contains(page));
        assert!(insert(page));
        assert!(contains(page));
        // Duplicate insert is refused.
        assert!(!insert(page));
    }

    #[test]
    fn zero_is_never_inserted() {
        assert!(!insert(0));
        assert!(!contains(0));
        // len() only counts claimed slots (and tests run concurrently,
        // so just bound it).
        assert!(len() <= CAPACITY);
    }

    #[test]
    fn concurrent_inserts_land_exactly_once() {
        let base = 0xcafe_0000usize;
        let threads: Vec<_> = (0..8)
            .map(|t| {
                std::thread::spawn(move || {
                    let mut added = 0usize;
                    for i in 0..4 {
                        // All threads fight over the same 4 pages.
                        if insert(base + ((t + i) % 4) * 4096) {
                            added += 1;
                        }
                    }
                    added
                })
            })
            .collect();
        let total: usize = threads.into_iter().map(|t| t.join().unwrap()).sum();
        assert_eq!(total, 4, "each page must be inserted exactly once");
        for i in 0..4 {
            assert!(contains(base + i * 4096));
        }
    }
}
