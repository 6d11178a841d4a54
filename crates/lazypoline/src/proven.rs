//! The engine's half of the proven-site cache: log what the slow path
//! rewrites, and rewrite sites an earlier process proved.
//!
//! A `SIGSYS` proves one site; the anchored sweep verifies more from
//! it (paper §IV-A). Both hold for every process that maps the same
//! bytes, so a caller that persists [`patched_sites`] per file — as the
//! `LD_PRELOAD` shim does — can hand them back to [`apply_proven_sites`]
//! at the next load, and those sites never trip `SIGSYS` again. Which
//! file, whether its bytes are the same, and where the list is kept are
//! the caller's business; this module patches nothing a caller did not
//! name, and nothing that does not read `0f 05`.

use std::sync::atomic::{AtomicU64, Ordering};

pub use zpoline::{FileMapping, Mapping, Maps, PatchError, RegionPerms};

use crate::slowpath::{BATCH_REWRITING, LAZY_REWRITING};

/// Sites rewritten by [`apply_proven_sites`].
static SITES_FROM_CACHE: AtomicU64 = AtomicU64::new(0);

pub(crate) fn sites_from_cache() -> u64 {
    SITES_FROM_CACHE.load(Ordering::Relaxed)
}

/// From now on the slow path logs every site it rewrites (batch
/// rewriting only), at the cost of one relaxed load per `SIGSYS`.
pub fn log_patched_sites() {
    zpoline::sitelog::arm();
}

/// The sites the slow path rewrote since [`log_patched_sites`], in the
/// order it rewrote them (the first [`zpoline::sitelog::SITE_LOG_CAPACITY`]).
pub fn patched_sites() -> impl Iterator<Item = usize> {
    zpoline::sitelog::logged_sites()
}

/// Runs `f` on the engine's private syscall path: under the re-entry
/// guard a handler's own calls run under, so the syscalls `f` issues
/// are executed and never shown to a handler or layer. Those from the
/// engine's crates leave from the gate; a libc call from a site not yet
/// rewritten takes its `SIGSYS` like any other, and is rewritten. Nests.
pub fn privately<T>(f: impl FnOnce() -> T) -> T {
    let was = crate::tls::set_in_dispatch(true);
    let out = f();
    crate::tls::set_in_dispatch(was);
    out
}

/// Puts the calling thread on the private path of [`privately`] for
/// the rest of its life, its exit path included: for a helper thread
/// (a recorder's drain thread) whose syscalls no handler may see.
pub fn private_thread() {
    crate::tls::set_in_dispatch(true);
}

/// Rewrites `sites` (ascending, all in one mapping of protection
/// `perms`) in one patch window ([`zpoline::rewrite_sites`]),
/// [`privately`]. Returns how many it rewrote, counted as
/// `sites_from_cache`; 0 on a configuration that does not batch-rewrite.
///
/// # Errors
///
/// The first [`PatchError`]; nothing is patched then, unless it was
/// the closing `mprotect` that failed.
///
/// # Safety
///
/// Every site must be one the kernel proved, or the sweep verified, in
/// a byte-identical copy of the file this mapping holds, and must still
/// read `0f 05`.
pub unsafe fn apply_proven_sites(sites: &[usize], perms: RegionPerms) -> Result<usize, PatchError> {
    if !(LAZY_REWRITING.load(Ordering::Relaxed) && BATCH_REWRITING.load(Ordering::Relaxed)) {
        return Ok(0);
    }
    let patched = privately(|| zpoline::rewrite_sites(sites, perms))?;
    SITES_FROM_CACHE.fetch_add(patched as u64, Ordering::Relaxed);
    Ok(patched)
}
