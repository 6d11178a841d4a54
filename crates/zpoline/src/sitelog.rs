//! Where patched sites live: a log of the addresses the slow path
//! rewrote. [`crate::Maps`] names the file each executable mapping was
//! loaded from.
//!
//! An address means nothing to the next process; `(object, file
//! offset)` does, as long as the object is byte-identical. The log is
//! written from the `SIGSYS` handler, so it is a fixed static array
//! with an atomic cursor: no allocation, no lock.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Sites the log holds; later ones are counted, not kept.
pub const SITE_LOG_CAPACITY: usize = 8192;

/// Addresses of rewritten sites, appended from any thread or signal
/// handler.
pub(crate) struct SiteLog {
    len: AtomicUsize,
    slots: [AtomicUsize; SITE_LOG_CAPACITY],
}

/// The process's log: what the lazy slow path rewrote while
/// [`armed`] ([`crate::patcher::patch_page_sites_logged`]).
pub(crate) static SITE_LOG: SiteLog = SiteLog::new();

/// Whether the slow path logs into the process log: a flag of its own,
/// not a field of the 64 KiB log, so testing it touches no page of the
/// log.
static ARMED: AtomicBool = AtomicBool::new(false);

/// From now on [`armed`] says yes.
pub fn arm() {
    ARMED.store(true, Ordering::Relaxed);
}

/// Whether the slow path should log what it rewrites: one relaxed load.
#[inline]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// The sites logged so far, in the order they were rewritten (the first
/// [`SITE_LOG_CAPACITY`]).
pub fn logged_sites() -> impl Iterator<Item = usize> {
    SITE_LOG.sites()
}

impl SiteLog {
    /// An empty log.
    pub(crate) const fn new() -> SiteLog {
        SiteLog {
            len: AtomicUsize::new(0),
            slots: [const { AtomicUsize::new(0) }; SITE_LOG_CAPACITY],
        }
    }

    /// Appends `site` (dropped once the log is full).
    pub(crate) fn push(&self, site: usize) {
        let i = self.len.fetch_add(1, Ordering::Relaxed);
        if let Some(slot) = self.slots.get(i) {
            slot.store(site, Ordering::Release);
        }
    }

    /// Sites pushed so far, full or not.
    fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// The logged sites, in push order. A push racing this read may be
    /// missing from it.
    fn sites(&self) -> impl Iterator<Item = usize> + '_ {
        let n = self.len().min(SITE_LOG_CAPACITY);
        self.slots[..n]
            .iter()
            .map(|slot| slot.load(Ordering::Acquire))
            .filter(|&site| site != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_keeps_pushes_until_full_and_counts_the_rest() {
        let log = Box::new(SiteLog::new());
        assert!(log.sites().next().is_none());
        for site in 1..=SITE_LOG_CAPACITY + 5 {
            log.push(site);
        }
        assert_eq!(log.len(), SITE_LOG_CAPACITY + 5);
        assert!(log.sites().eq(1..=SITE_LOG_CAPACITY));
    }
}
