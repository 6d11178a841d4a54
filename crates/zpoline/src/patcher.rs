//! In-place patching of verified syscall sites.
//!
//! Used by both the static scanner and lazypoline's lazy slow path
//! (paper §IV-A(b)): "we implement the rewrite by temporarily changing
//! the page permissions […], modifying the code page, and restoring its
//! original page permissions afterward. We hold a spinlock throughout
//! this procedure to prevent race conditions".
//!
//! Everything here is written to be callable from a `SIGSYS` handler:
//! no allocation, no locks other than the dedicated spinlock, and the
//! mapping lookup uses raw syscalls into stack buffers.

use std::fmt;
use std::sync::atomic::{compiler_fence, AtomicBool, AtomicU64, Ordering};

use syscalls::{nr, Errno};

use crate::disasm;
pub use crate::maps::RegionPerms;
use crate::maps::{shadow, Mapping, Maps};
use crate::sitelog::SITE_LOG;
use crate::trampoline::{raw, thread_block, Trampoline};

/// `syscall` encoding (`0f 05`).
pub const SYSCALL_BYTES: [u8; 2] = [0x0f, 0x05];
/// `call rax` encoding (`ff d0`).
pub const CALL_RAX_BYTES: [u8; 2] = [0xff, 0xd0];

/// Result of a successful [`patch_syscall_site`] call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PatchOutcome {
    /// The site held `syscall` and now holds `call rax`.
    Patched,
    /// The site already held `call rax` — another thread won the race,
    /// which the lazy rewriter treats as success.
    AlreadyPatched,
}

/// Failure modes of [`patch_syscall_site`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PatchError {
    /// The bytes at the site are neither `syscall` nor `call rax`.
    NotSyscallInsn {
        /// What was actually found at the site.
        found: [u8; 2],
    },
    /// `mprotect` failed while opening the code page for writing.
    MprotectFailed(Errno),
    /// The address is not inside any mapping of this process.
    UnmappedAddress,
    /// The mapping's protection could not be looked up: `/proc/self/maps`
    /// did not open (`EMFILE`, no `/proc` in a chroot) or did not read.
    /// Like a failing `mprotect`, a property of the page's surroundings
    /// that the next attempt will meet again.
    LookupFailed(Errno),
    /// The trampoline is not installed, so patching would create a
    /// `call rax` into unmapped page zero.
    TrampolineMissing,
    /// The site is in the gate ([`crate::trampoline::gate`]), whose
    /// `syscall`s are never rewritten.
    InGate,
}

impl fmt::Display for PatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatchError::NotSyscallInsn { found } => {
                write!(f, "bytes {found:02x?} at site are not a syscall instruction")
            }
            PatchError::MprotectFailed(e) => write!(f, "mprotect failed: {e}"),
            PatchError::UnmappedAddress => write!(f, "address is not mapped"),
            PatchError::LookupFailed(e) => write!(f, "mapping lookup failed: {e}"),
            PatchError::TrampolineMissing => write!(f, "trampoline page not installed"),
            PatchError::InGate => write!(f, "site is in the interposer's syscall gate"),
        }
    }
}

impl std::error::Error for PatchError {}

/// The rewrite spinlock (paper §IV-A(b)). A plain mutex could block in
/// a signal handler; a spinlock cannot deadlock here because the
/// critical section performs no syscall that could itself be dispatched:
/// every one it makes leaves from the gate ([`crate::gate`]), which SUD
/// lets through. A signal can still land on a thread that holds it; the
/// thread's block says so ([`ThreadBlock::holds_rewrite_lock`]), and
/// code the signal runs must not take it then.
///
/// [`ThreadBlock::holds_rewrite_lock`]: crate::ThreadBlock::holds_rewrite_lock
static PATCH_LOCK: AtomicBool = AtomicBool::new(false);

pub(crate) struct SpinGuard;

impl SpinGuard {
    pub(crate) fn lock() -> SpinGuard {
        // Marked before the first try and cleared after the release: a
        // signal that lands while this thread spins, holds or lets go
        // finds the mark, so nothing on this thread ever waits for it.
        thread_block().set_rewrite_lock(true);
        compiler_fence(Ordering::SeqCst);
        while PATCH_LOCK
            .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            std::hint::spin_loop();
        }
        SpinGuard
    }
}

impl Drop for SpinGuard {
    fn drop(&mut self) {
        PATCH_LOCK.store(false, Ordering::Release);
        compiler_fence(Ordering::SeqCst);
        thread_block().set_rewrite_lock(false);
    }
}

/// In a fork child: releases the rewrite lock if a thread the child
/// does not have held it at the `fork` — it would never let go — and
/// stops the shadow ([`crate::maps::shadow`]) vouching, whose entries
/// that thread may have been changing.
pub fn release_orphaned_lock() {
    if !thread_block().holds_rewrite_lock() && PATCH_LOCK.load(Ordering::Acquire) {
        shadow::distrust();
        PATCH_LOCK.store(false, Ordering::Release);
    }
}

/// Probes and lookups the patch window asked the kernel for, process
/// wide: what the shadow saves shows as this not moving.
static KERNEL_QUERIES: AtomicU64 = AtomicU64::new(0);

/// How many times the patch window asked the kernel about a page — a
/// store probe or a mapping lookup — since the process started.
pub fn kernel_queries() -> u64 {
    KERNEL_QUERIES.load(Ordering::Relaxed)
}

/// Looks up the protection of the mapping containing `addr`
/// ([`Maps::covering`]: one `PROCMAP_QUERY` where the kernel has it, else
/// the text of `/proc/self/maps`), with raw syscalls and stack buffers
/// only (no allocation — safe inside a signal handler). `None` when
/// nothing is mapped there — or when the lookup itself failed, which
/// `lookup` (and [`PatchError::LookupFailed`]) tell apart.
pub fn region_perms(addr: usize) -> Option<RegionPerms> {
    lookup(addr).ok().flatten().map(|m| m.perms)
}

/// The mapping covering `addr`, with "could not look" (the errno of the
/// `open` or the lookup) kept apart from "nothing mapped" (`Ok(None)`).
fn lookup(addr: usize) -> Result<Option<Mapping>, Errno> {
    KERNEL_QUERIES.fetch_add(1, Ordering::Relaxed);
    Maps::open()?.covering(addr)
}

/// Whether a store to the page at `page` would succeed, asked of the
/// kernel without opening anything: `MADV_POPULATE_WRITE` (Linux 5.14)
/// faults the page in writable exactly as a store would — breaking
/// copy-on-write, as the patch about to land does anyway — and changes
/// no byte. `EINVAL` on a mapping without write permission (and on a
/// kernel without the advice), `ENOMEM` where nothing is mapped.
fn store_would_succeed(page: usize) -> bool {
    const MADV_POPULATE_WRITE: u64 = 23;
    KERNEL_QUERIES.fetch_add(1, Ordering::Relaxed);
    // SAFETY: advice on one page; nothing is written, mapped or unmapped.
    let r = unsafe { raw::syscall3(nr::MADVISE, page as u64, 4096, MADV_POPULATE_WRITE) };
    r == 0
}

/// Stores `call rax` over `site` if it still holds `syscall` and is not
/// in the gate, passing it to `note`; returns how many sites that
/// rewrote.
unsafe fn store_call_rax(site: usize, note: impl Fn(usize)) -> usize {
    let hit = (site as *const [u8; 2]).read() == SYSCALL_BYTES && !in_gate(site);
    if hit {
        let call_rax = u16::from_le_bytes(CALL_RAX_BYTES);
        (site as *mut u8).cast::<u16>().write_unaligned(call_rax);
        note(site);
    }
    hit as usize
}

/// Whether `site` is one of the gate's `syscall`s, which no entry point
/// rewrites: a listed one is passed over, a swept one left alone, and
/// an anchor there is [`PatchError::InGate`].
fn in_gate(site: usize) -> bool {
    crate::trampoline::gate().contains(&site)
}

/// The one patch window behind every entry point: rewrites the listed
/// `sites` (ascending) and, with `sweep`, every site the anchored
/// forward sweep verifies after `sites[0]` on its page. Returns how many
/// it rewrote; 0 means every listed site already held `call rax` or is
/// in the gate. Every site rewritten is passed to `note` (a generic, so
/// the entry points that note nothing compile to no call at all).
///
/// `perms` is the protection of the one mapping holding every site, if
/// the caller knows it; then the window spans every page from the first
/// site's to the last's, so a mapping's sites cost one `mprotect` pair,
/// not one per page. Without it, the sites must start on one page (the
/// last may straddle into the next), and the shadow of the executable
/// mappings ([`crate::maps::shadow`]) is asked before the kernel is.
///
/// The writes happen under the global rewrite spinlock. A mapping that
/// does not already take stores (an RWX JIT page does) is set
/// writable-and-executable meanwhile — keeping execute permission so
/// threads racing through the page never fault — and restored after.
/// Each 2-byte store is a single unaligned `u16` write; on x86-64 this
/// is atomic with respect to instruction fetch when it does not cross a
/// cache line, matching the C prototype's behaviour.
pub(crate) unsafe fn patch_window(
    sites: &[usize],
    sweep: bool,
    perms: Option<RegionPerms>,
    note: impl Fn(usize) + Copy,
) -> Result<usize, PatchError> {
    if !Trampoline::is_installed() {
        return Err(PatchError::TrampolineMissing);
    }
    let mut guard = SpinGuard::lock();

    let mut pending = false;
    for &site in sites {
        match (site as *const [u8; 2]).read() {
            CALL_RAX_BYTES => {}
            SYSCALL_BYTES => pending |= !in_gate(site),
            found => return Err(PatchError::NotSyscallInsn { found }),
        }
    }
    if !pending {
        return Ok(0);
    }

    let (addr, last) = (sites[0], sites[sites.len() - 1]);
    let page = addr & !4095;
    let len = ((last + 2 + 4095) & !4095) - page;
    // Past one page, the probe and a looked-up mapping say nothing about
    // the rest.
    let straddles = len > 4096;
    let needs_window =
        |orig: RegionPerms| (!(orig.read && orig.write) || straddles).then_some(orig);
    // What the dispatcher saw mapped there answers first. Else a page
    // that takes stores as it is — an RWX JIT page — needs no window,
    // and no look at what the mapping is; `/proc` is opened only when a
    // window has to be: its protection is what the window restores.
    let window = match perms.or_else(|| shadow::vouch(&mut guard, page, len)) {
        Some(orig) => needs_window(orig),
        None if !straddles && store_would_succeed(page) => None,
        None => {
            let found = lookup(addr)
                .map_err(PatchError::LookupFailed)?
                .ok_or(PatchError::UnmappedAddress)?;
            shadow::keep(&mut guard, &found);
            needs_window(found.perms)
        }
    };
    let protect = |prot: i32| {
        let r = raw::syscall3(nr::MPROTECT, page as u64, len as u64, prot as u64);
        Errno::result(r).map_err(PatchError::MprotectFailed)
    };

    // Fault seam: models the opening mprotect failing (transient VMA
    // pressure or a hardened page). Checked on every attempt, before the
    // real syscall, so an injected failure leaves the page untouched,
    // exactly like a real EAGAIN/ENOMEM would.
    if let Some(e) = faultinject::check(faultinject::Site::PatchMprotect) {
        return Err(PatchError::MprotectFailed(Errno::new(e)));
    }
    if window.is_some() {
        protect(libc::PROT_READ | libc::PROT_WRITE | libc::PROT_EXEC)?;
    }
    let mut patched: usize = sites.iter().map(|&site| store_call_rax(site, note)).sum();
    if sweep {
        patched += sweep_after(addr, page + 4096, note);
    }
    if let Some(orig) = window {
        protect(orig.prot())?;
    }
    Ok(patched)
}

/// Rewrites every `syscall` site that the forward sweep from the
/// just-patched `anchor` verifies before `page_end`; returns the count.
/// Runs inside the window: the rest of the page is the anchor's
/// mapping (they are page-granular), readable even if execute-only.
unsafe fn sweep_after(anchor: usize, page_end: usize, note: impl Fn(usize) + Copy) -> usize {
    let tail = std::slice::from_raw_parts(anchor as *const u8, page_end - anchor);
    // Every site the sweep can report is a `0f 05` pair wholly on the
    // page, so the last such pair (one vector scan from the end) ends
    // the walk, and a page without one (most JIT pages) needs none.
    // Cutting the tail there changes no site: an instruction the cut
    // shortens decodes as unknown and stops the walk, but it would have
    // ended past the last pair, so neither it nor anything after it is
    // a site. The anchor, now `call rax`, still decodes as 2 bytes.
    let Some(last) = disasm::last_syscall_pair(tail) else {
        return 0;
    };
    let mut patched = 0usize;
    for (off, insn) in disasm::walk(&tail[..last + 2]) {
        // At an unknown instruction synchronization can no longer be
        // argued.
        if !insn.known {
            break;
        }
        if insn.is_syscall {
            patched += store_call_rax(anchor + off + insn.len - 2, note);
        }
    }
    patched
}

/// Rewrites the 2-byte `syscall` at `addr` to `call rax`, in a window
/// of its own (see [`patch_page_sites`] for the batching variant).
///
/// # Errors
///
/// See [`PatchError`]. `AlreadyPatched` is *not* an error: concurrent
/// SIGSYS deliveries for the same site are expected under load.
///
/// # Safety
///
/// `addr` must be the address of a genuine, executed `syscall`
/// instruction (e.g. taken from a SUD `SIGSYS` `si_call_addr`) and the
/// trampoline must remain installed for the life of the process.
pub unsafe fn patch_syscall_site(addr: usize) -> Result<PatchOutcome, PatchError> {
    patch_page(addr, false, |_| {}).map(|batch| batch.site)
}

/// Result of a successful [`patch_page_sites`] call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchOutcome {
    /// What happened to the faulting site itself.
    pub site: PatchOutcome,
    /// Additional `syscall` sites on the same page rewritten within the
    /// same spinlock/`mprotect` window.
    pub extra_patched: usize,
}

/// Rewrites the faulting `syscall` at `addr` *and* every later
/// rewritable `syscall` site on the same executable page, all under a
/// single spinlock acquisition and a single patch window.
///
/// A `SIGSYS` delivery already proves `addr` is a genuine, executed
/// syscall instruction. Batch rewriting amortizes the per-site cost
/// (mapping lookup, lock traffic, two `mprotect` calls on a read-only
/// page) across every site the sweep can verify on that page: code
/// pages routinely hold several syscall stubs (vsyscall wrappers
/// cluster in libc), and each one patched here is a future `SIGSYS`
/// that never fires.
///
/// The extra sites come from a heuristic disassembly sweep, which is
/// only trustworthy when started from a known instruction boundary —
/// a page boundary is *not* one, and a sweep desynchronized at the
/// page start happily reports `0f 05` byte pairs inside immediates and
/// displacements as "sites"; patching those corrupts live code (this
/// exact failure fires on real libc pages). The faulting address *is*
/// ground truth: the CPU just executed a syscall there. So the sweep
/// is anchored at `addr` and runs forward only, and stops early at the
/// first undecodable instruction (where synchronization can no longer
/// be argued). Sites before the anchor are left to their own future
/// `SIGSYS` — the first of them to fire becomes a new, earlier anchor
/// covering the rest. Sites whose two bytes straddle the page end are
/// likewise skipped, and so are the gate's ([`crate::trampoline::gate`]):
/// in a statically linked binary an anchor on the entry stub's page
/// sweeps into it.
///
/// # Errors
///
/// Same as [`patch_syscall_site`], and [`PatchError::InGate`] for an
/// anchor in the gate. `AlreadyPatched` (with `extra_patched == 0`)
/// means another thread won the race for this site — that thread
/// already swept the page.
///
/// # Safety
///
/// Same contract as [`patch_syscall_site`].
pub unsafe fn patch_page_sites(addr: usize) -> Result<BatchOutcome, PatchError> {
    patch_page(addr, true, |_| {})
}

/// [`patch_page_sites`], logging every site it rewrites — the anchor and
/// each one the sweep verified — in [`crate::sitelog`]'s process log.
///
/// # Safety
///
/// Same contract as [`patch_syscall_site`].
pub unsafe fn patch_page_sites_logged(addr: usize) -> Result<BatchOutcome, PatchError> {
    patch_page(addr, true, |site| SITE_LOG.push(site))
}

unsafe fn patch_page(
    addr: usize,
    sweep: bool,
    note: impl Fn(usize) + Copy,
) -> Result<BatchOutcome, PatchError> {
    if in_gate(addr) {
        return Err(PatchError::InGate);
    }
    patch_window(&[addr], sweep, None, note).map(|patched| BatchOutcome {
        site: match patched {
            0 => PatchOutcome::AlreadyPatched,
            _ => PatchOutcome::Patched,
        },
        extra_patched: patched.saturating_sub(1),
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::maps::{number, parse_line, OPEN_FLAGS};

    /// [`lookup`]'s protection.
    fn lookup_perms(addr: usize) -> Result<Option<RegionPerms>, Errno> {
        lookup(addr).map(|m| m.map(|m| m.perms))
    }

    // The SIGSYS handler's maps fd never survives another thread's
    // `execve`.
    const _: () = assert!(OPEN_FLAGS & libc::O_CLOEXEC != 0);

    #[test]
    fn maps_fd_is_close_on_exec() {
        const F_GETFD: i32 = 1;
        const FD_CLOEXEC: i32 = 1;
        let maps = Maps::open().unwrap();
        let flags = unsafe { libc::fcntl(maps.fd as i32, F_GETFD) };
        assert_eq!(flags & FD_CLOEXEC, FD_CLOEXEC);
    }

    /// The protection of the line's mapping, if `addr` lies in it.
    fn perms_at(line: &[u8], addr: usize) -> Option<RegionPerms> {
        parse_line(line)
            .map(|(m, _)| m)
            .filter(|m| m.contains(addr))
            .map(|m| m.perms)
    }

    #[test]
    fn parse_maps_line_hit_and_miss() {
        let line = b"7f0000000000-7f0000010000 r-xp 00000000 08:01 123 /lib/x.so";
        let p = perms_at(line, 0x7f0000000123).unwrap();
        assert_eq!(
            p,
            RegionPerms {
                read: true,
                write: false,
                exec: true
            }
        );
        assert!(perms_at(line, 0x7f0000010000).is_none());
        assert!(perms_at(line, 0x6f0000000000).is_none());
    }

    #[test]
    fn parse_maps_line_rejects_garbage() {
        assert!(parse_line(b"").is_none());
        assert!(parse_line(b"nonsense").is_none());
        assert!(parse_line(b"zzzz-qqqq rwxp").is_none());
        assert!(parse_line(b"1000-2000 rwxp").is_none());
        assert!(parse_line(b"2000-1000 rwxp 0 00:00 0").is_none());
        assert!(parse_line(b"1000-2000 rwzp 0 00:00 0").is_none());
        assert!(parse_line(b"+1000-2000 rwxp 0 00:00 0").is_none());
        assert!(parse_line(b"1000-2000 rwxp 0 00:00 0").is_some());
    }

    #[test]
    fn parse_hex_cases() {
        let parse_hex = |s: &[u8]| number(s, 16);
        assert_eq!(parse_hex(b"ff"), Some(255));
        assert_eq!(parse_hex(b"7f0000000000"), Some(0x7f0000000000));
        assert_eq!(parse_hex(b""), None);
        assert_eq!(parse_hex(b"xyz"), None);
        assert_eq!(parse_hex(b"+ff"), None);
        assert_eq!(parse_hex(b"11112222333344445"), None); // > 16 digits
        assert_eq!(number(b"18446744073709551615", 10), Some(u64::MAX));
        assert_eq!(number(b"18446744073709551616", 10), None);
    }

    /// One anonymous private mapping of `pages` pages.
    unsafe fn map_pages(pages: usize, prot: i32) -> *mut u8 {
        let flags = libc::MAP_PRIVATE | libc::MAP_ANONYMOUS;
        let p = libc::mmap(std::ptr::null_mut(), pages * 4096, prot, flags, -1, 0);
        assert_ne!(p, libc::MAP_FAILED);
        p as *mut u8
    }

    const RWX: i32 = libc::PROT_READ | libc::PROT_WRITE | libc::PROT_EXEC;

    fn perms(read: bool, write: bool, exec: bool) -> Option<RegionPerms> {
        Some(RegionPerms { read, write, exec })
    }

    /// Runs `check` on an address in each of five mappings — r-x text,
    /// rw- stack, rwx, `PROT_NONE`, just unmapped (at `gone`, which no
    /// two tests may share) — and what `/proc/self/maps` says of it.
    pub(crate) fn on_five_mappings(gone: usize, check: impl Fn(usize, Option<RegionPerms>)) {
        let local = 0u8;
        unsafe {
            let rwx = map_pages(1, RWX);
            let none = map_pages(1, libc::PROT_NONE);
            // Just unmapped, and low enough that no concurrent test's
            // `mmap` is handed the address before the lookups below.
            const MAP_FIXED_NOREPLACE: i32 = 0x10_0000;
            let flags = libc::MAP_PRIVATE | libc::MAP_ANONYMOUS | MAP_FIXED_NOREPLACE;
            let p = libc::mmap(gone as *mut _, 4096, libc::PROT_READ, flags, -1, 0);
            assert_eq!(p as usize, gone);
            assert_eq!(region_perms(gone), perms(true, false, false));
            libc::munmap(p, 4096);
            let cases = [
                (
                    patch_syscall_site as *const () as usize,
                    perms(true, false, true),
                ),
                (&local as *const u8 as usize, perms(true, true, false)),
                (rwx as usize + 100, perms(true, true, true)),
                (none as usize, perms(false, false, false)),
                (gone, None),
            ];
            for (addr, expect) in cases {
                check(addr, expect);
            }
            libc::munmap(rwx.cast(), 4096);
            libc::munmap(none.cast(), 4096);
        }
    }

    #[test]
    fn procmap_query_and_text_parser_agree() {
        on_five_mappings(0x1_0000, |addr, expect| {
            let text = std::fs::read("/proc/self/maps").unwrap();
            let from_text = text
                .split(|&b| b == b'\n')
                .find_map(|line| perms_at(line, addr));
            assert_eq!(from_text, expect, "text, {addr:#x}");
            assert_eq!(lookup_perms(addr), Ok(expect), "lookup_perms, {addr:#x}");
            assert_eq!(region_perms(addr), expect, "region_perms, {addr:#x}");
        });
    }

    #[test]
    fn probe_agrees_with_region_perms() {
        unsafe {
            // Linux < 5.14 has no MADV_POPULATE_WRITE: the probe says no
            // everywhere and every patch takes the lookup, as before it.
            let rwx = map_pages(1, RWX);
            let has_advice = store_would_succeed(rwx as usize);
            libc::munmap(rwx.cast(), 4096);
            if !has_advice {
                eprintln!("no MADV_POPULATE_WRITE on this kernel; skipping");
                return;
            }
        }
        on_five_mappings(0x2_0000, |addr, expect| {
            assert_eq!(
                store_would_succeed(addr & !4095),
                expect.is_some_and(|p| p.write),
                "{addr:#x}, {expect:?}"
            );
        });
    }

    /// Runs `child` in a fork child under a 10 s `alarm` (a child that
    /// hangs, say spinning on a lock nobody lets go, dies of `SIGALRM`)
    /// and returns the child's wait status: 0 when `child` said yes.
    fn in_fork_child(child: impl FnOnce() -> bool) -> i32 {
        unsafe {
            let pid = libc::fork();
            assert!(pid >= 0);
            if pid == 0 {
                syscalls::raw::syscall1(nr::ALARM, 10);
                libc::_exit(if child() { 0 } else { 1 });
            }
            let mut status = 0;
            assert_eq!(libc::waitpid(pid, &mut status, 0), pid);
            status
        }
    }

    #[test]
    fn lookup_failure_is_not_an_unmapped_address() {
        // No descriptor left to open /proc/self/maps on: "could not
        // look" (EMFILE), where `region_perms` alone says `None` as it
        // does for an address nothing is mapped at (ENOENT). Run in a
        // forked child: the limit must not starve the other tests.
        let text = patch_syscall_site as *const () as usize;
        let status = in_fork_child(|| {
            const RLIMIT_NOFILE: u64 = 7;
            let none = [0u64; 2]; // struct rlimit: cur, max
            // SAFETY: `setrlimit` reads the two-word array.
            let r = unsafe {
                syscalls::raw::syscall2(nr::SETRLIMIT, RLIMIT_NOFILE, none.as_ptr() as u64)
            };
            r == 0
                && lookup_perms(text) == Err(Errno::EMFILE)
                && region_perms(text).is_none()
                && lookup_perms(0x3_0000) == Err(Errno::EMFILE)
        });
        assert_eq!(status, 0, "child saw something other than EMFILE");
        assert_eq!(lookup_perms(0x3_0000), Ok(None));
    }

    #[test]
    fn release_orphaned_lock_frees_only_another_threads_lock() {
        // Another thread holds the lock across the fork: the child
        // does not have that thread, so it must free the lock to take
        // it.
        let held = std::sync::Barrier::new(2);
        let forked = std::sync::Barrier::new(2);
        let status = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = SpinGuard::lock();
                held.wait();
                forked.wait();
            });
            held.wait();
            let status = in_fork_child(|| {
                release_orphaned_lock();
                drop(SpinGuard::lock());
                true
            });
            forked.wait();
            status
        });
        assert_eq!(status, 0, "child could not take an orphaned lock");

        // The forking thread holds it: the child's copy of that thread
        // still owns the lock, which stays taken.
        let guard = SpinGuard::lock();
        let status = in_fork_child(|| {
            release_orphaned_lock();
            PATCH_LOCK.load(Ordering::Acquire)
        });
        drop(guard);
        assert_eq!(status, 0, "child freed a lock its own thread holds");
    }

    #[test]
    fn prot_bits() {
        let p = RegionPerms {
            read: true,
            write: false,
            exec: true,
        };
        assert_eq!(p.prot(), libc::PROT_READ | libc::PROT_EXEC);
    }

    #[test]
    fn patch_requires_trampoline_or_valid_site() {
        // Craft a fake "code" page holding a syscall instruction.
        unsafe {
            let page = libc::mmap(
                std::ptr::null_mut(),
                4096,
                libc::PROT_READ | libc::PROT_WRITE | libc::PROT_EXEC,
                libc::MAP_PRIVATE | libc::MAP_ANONYMOUS,
                -1,
                0,
            );
            assert_ne!(page, libc::MAP_FAILED);
            let p = page as *mut u8;
            p.write(0x0f);
            p.add(1).write(0x05);

            if !Trampoline::is_installed() && !Trampoline::environment_supported() {
                assert_eq!(
                    patch_syscall_site(p as usize),
                    Err(PatchError::TrampolineMissing)
                );
                libc::munmap(page, 4096);
                return;
            }
            Trampoline::install().unwrap();

            assert_eq!(patch_syscall_site(p as usize), Ok(PatchOutcome::Patched));
            assert_eq!(std::slice::from_raw_parts(p, 2), &CALL_RAX_BYTES);
            // Patching again is idempotent.
            assert_eq!(
                patch_syscall_site(p as usize),
                Ok(PatchOutcome::AlreadyPatched)
            );
            // Permissions restored to RWX (the original).
            let perms = region_perms(p as usize).unwrap();
            assert!(perms.write && perms.exec);

            // Arbitrary other bytes are refused.
            p.add(100).write(0x90);
            p.add(101).write(0x90);
            assert_eq!(
                patch_syscall_site(p as usize + 100),
                Err(PatchError::NotSyscallInsn { found: [0x90, 0x90] })
            );
            libc::munmap(page, 4096);
        }
    }

    /// Maps one RWX page filled with `ret` (0xc3 — decodes cleanly so
    /// the sweep stays synchronized) and returns its base.
    unsafe fn mk_code_page() -> *mut u8 {
        let page = map_pages(1, RWX);
        std::ptr::write_bytes(page, 0xc3, 4096);
        page
    }

    #[test]
    fn batch_patches_all_sites_on_page() {
        unsafe {
            let p = mk_code_page();
            if !Trampoline::is_installed() && !Trampoline::environment_supported() {
                assert_eq!(
                    patch_page_sites(p as usize),
                    Err(PatchError::TrampolineMissing)
                );
                libc::munmap(p as *mut _, 4096);
                return;
            }
            Trampoline::install().unwrap();

            // Three genuine sites scattered over the page…
            for off in [0usize, 1000, 4000] {
                p.add(off).write(0x0f);
                p.add(off + 1).write(0x05);
            }
            // …plus a decoy `0f 05` inside a mov immediate: the sweep
            // must not flag it and the batch must not touch it.
            let decoy: [u8; 5] = [0xb8, 0x0f, 0x05, 0x00, 0x00];
            std::ptr::copy_nonoverlapping(decoy.as_ptr(), p.add(2000), decoy.len());

            // Fault at the first site: the anchored forward sweep
            // covers the two later sites but steps over the decoy.
            let out = patch_page_sites(p as usize).unwrap();
            assert_eq!(out.site, PatchOutcome::Patched);
            assert_eq!(out.extra_patched, 2);
            for off in [0usize, 1000, 4000] {
                assert_eq!(
                    std::slice::from_raw_parts(p.add(off), 2),
                    &CALL_RAX_BYTES,
                    "site at offset {off} not rewritten"
                );
            }
            assert_eq!(std::slice::from_raw_parts(p.add(2000), 5), &decoy);

            // Racing call: faulting site already call rax.
            let again = patch_page_sites(p as usize).unwrap();
            assert_eq!(again.site, PatchOutcome::AlreadyPatched);
            assert_eq!(again.extra_patched, 0);
            libc::munmap(p as *mut _, 4096);
        }
    }

    #[test]
    fn batch_never_patches_backward_and_stops_at_unknown() {
        unsafe {
            let p = mk_code_page();
            if !Trampoline::is_installed() && !Trampoline::environment_supported() {
                libc::munmap(p as *mut _, 4096);
                return;
            }
            Trampoline::install().unwrap();

            // A genuine site *before* the anchor: no ground-truth
            // boundary reaches it, so it must be left for its own
            // SIGSYS.
            p.add(1000).write(0x0f);
            p.add(1001).write(0x05);
            // The faulting (anchor) site.
            p.add(2000).write(0x0f);
            p.add(2001).write(0x05);
            // An undecodable byte (0x06 is invalid in 64-bit mode)
            // between the anchor and a later genuine site: the sweep
            // must stop there rather than patch past a desync point.
            p.add(2500).write(0x06);
            p.add(3000).write(0x0f);
            p.add(3001).write(0x05);

            let out = patch_page_sites(p as usize + 2000).unwrap();
            assert_eq!(out.site, PatchOutcome::Patched);
            assert_eq!(out.extra_patched, 0);
            assert_eq!(std::slice::from_raw_parts(p.add(2000), 2), &CALL_RAX_BYTES);
            assert_eq!(std::slice::from_raw_parts(p.add(1000), 2), &SYSCALL_BYTES);
            assert_eq!(std::slice::from_raw_parts(p.add(3000), 2), &SYSCALL_BYTES);
            libc::munmap(p as *mut _, 4096);
        }
    }

    /// True (after installing it) when this host can hold a trampoline.
    fn trampoline_ready() -> bool {
        if !Trampoline::is_installed() && !Trampoline::environment_supported() {
            return false;
        }
        Trampoline::install().unwrap();
        true
    }

    /// What the batch rewrite did before the candidate bound: patch the
    /// anchor, then decode the whole rest of the page. Kept as the
    /// oracle of the differential test below, on a plain copy.
    fn full_sweep_oracle(page: &mut [u8; 4096], anchor: usize) {
        page[anchor..anchor + 2].copy_from_slice(&CALL_RAX_BYTES);
        let mut sites = Vec::new();
        for (off, insn) in disasm::sweep(&page[anchor..]) {
            if !insn.known {
                break;
            }
            let site = anchor + off + insn.len - 2;
            if insn.is_syscall && site != anchor && site + 2 <= 4096 {
                sites.push(site);
            }
        }
        for site in sites {
            if page[site..site + 2] == SYSCALL_BYTES {
                page[site..site + 2].copy_from_slice(&CALL_RAX_BYTES);
            }
        }
    }

    /// xorshift64*: the seeded pages below need no more.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) as usize % n
        }
    }

    /// One-byte fills a JIT page's gaps are seeded with: the common
    /// ones (`ret`, `int3`, `nop`) and a mix of the others (`push`/`pop`
    /// and `clc`..`std`), whose runs the walk steps one byte at a time.
    const FILLS: [&[u8]; 4] = [
        &[0xc3],
        &[0xcc],
        &[0x90],
        &[
            0x50, 0x51, 0x52, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59, 0x5a, 0x5b, 0x5c, 0x5d,
            0x5e, 0x5f, 0xf8, 0xf9, 0xfa, 0xfb, 0xfc, 0xfd, 0xc3,
        ],
    ];

    /// A page of one-byte instructions drawn from `fill`.
    fn filled_page(rng: &mut Rng, fill: &[u8]) -> [u8; 4096] {
        let mut page = [0u8; 4096];
        for b in page.iter_mut() {
            *b = fill[rng.below(fill.len())];
        }
        page
    }

    /// A seeded page and an anchor on it. Even seeds look like a JIT
    /// page: gaps of one-byte `fill`, getpid stubs and `mov eax, 0x50f`
    /// decoys in random 16-byte slots (so decoys land before, between
    /// and after the real sites), sometimes an undecodable byte among
    /// them; the anchor is any of the stubs. Odd seeds are bytes drawn
    /// from a small alphabet that desynchronizes the sweep, around one
    /// pair.
    fn seeded_page(seed: u64, fill: &[u8]) -> ([u8; 4096], usize) {
        const STUB: [u8; 8] = [0xb8, 0x27, 0, 0, 0, 0x0f, 0x05, 0xc3];
        const DECOY: [u8; 5] = [0xb8, 0x0f, 0x05, 0x00, 0x00];
        let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
        let mut page = filled_page(&mut Rng(!seed), fill);
        if seed % 2 == 1 {
            const ALPHABET: [u8; 12] = [
                0x0f, 0x05, 0xc3, 0x90, 0x48, 0xb8, 0xe8, 0x06, 0xff, 0xd0, 0x00, 0x66,
            ];
            for b in page.iter_mut() {
                *b = ALPHABET[rng.below(ALPHABET.len())];
            }
            let anchor = rng.below(4095);
            page[anchor..anchor + 2].copy_from_slice(&SYSCALL_BYTES);
            return (page, anchor);
        }
        let mut stubs = Vec::new();
        for slot in 0..256 {
            match rng.below(16) {
                0 | 1 => {
                    page[slot * 16..slot * 16 + 8].copy_from_slice(&STUB);
                    stubs.push(slot * 16 + 5);
                }
                2 | 3 => page[slot * 16..slot * 16 + 5].copy_from_slice(&DECOY),
                4 if seed.is_multiple_of(4) && slot > 128 => page[slot * 16] = 0x06,
                _ => {}
            }
        }
        if stubs.is_empty() {
            page[..8].copy_from_slice(&STUB);
            stubs.push(5);
        }
        let anchor = stubs[rng.below(stubs.len())];
        (page, anchor)
    }

    #[test]
    fn bounded_sweep_patches_what_the_full_sweep_patched() {
        if !trampoline_ready() {
            return;
        }
        let mut cases: Vec<_> = (0..400).map(|seed| seeded_page(seed, FILLS[0])).collect();
        for fill in &FILLS[1..] {
            cases.extend((0..400).step_by(2).map(|seed| seeded_page(seed, fill)));
        }
        let mut rng = Rng(0x5eed);
        for fill in FILLS {
            // The last pair of a page straddling two 64-byte blocks, the
            // later one without any `0f`.
            for block_end in [64, 1024, 4032] {
                let mut page = filled_page(&mut rng, fill);
                for site in [5, block_end - 1] {
                    page[site..site + 2].copy_from_slice(&SYSCALL_BYTES);
                }
                cases.push((page, 5));
            }
            // A run that ends `k` bytes before the page end, where a site
            // starts, or (k = 1) a `0f` is the page's last byte.
            for k in 1..=15 {
                let mut page = filled_page(&mut rng, fill);
                page[5..7].copy_from_slice(&SYSCALL_BYTES);
                page[2000..2002].copy_from_slice(&SYSCALL_BYTES);
                let end = (4096 - k + 2).min(4096);
                page[4096 - k..end].copy_from_slice(&SYSCALL_BYTES[..end - (4096 - k)]);
                cases.push((page, 5));
            }
        }
        unsafe {
            let p = map_pages(1, RWX);
            for (case, (page, anchor)) in cases.into_iter().enumerate() {
                let mut expect = page;
                full_sweep_oracle(&mut expect, anchor);
                let patched = (0..4096).filter(|&i| expect[i] != page[i]).count() / 2;

                std::ptr::copy_nonoverlapping(page.as_ptr(), p, 4096);
                let out = patch_page_sites(p as usize + anchor).unwrap();
                let got = std::slice::from_raw_parts(p, 4096);
                let diff: Vec<usize> = (0..4096).filter(|&i| got[i] != expect[i]).collect();
                assert!(
                    diff.is_empty(),
                    "case {case}, anchor {anchor}: differs at {diff:?}"
                );
                assert_eq!(out.extra_patched, patched - 1, "case {case}");
            }
            libc::munmap(p.cast(), 4096);
        }
    }

    #[test]
    fn anchor_at_the_page_end_stays_on_its_page() {
        if !trampoline_ready() {
            return;
        }
        unsafe {
            // Anchor in the last two bytes: the sweep has nothing left,
            // and the site opening the next page is not its to patch.
            let p = map_pages(2, RWX);
            std::ptr::write_bytes(p, 0xc3, 8192);
            for off in [4094, 4096] {
                std::ptr::copy_nonoverlapping(SYSCALL_BYTES.as_ptr(), p.add(off), 2);
            }
            let out = patch_page_sites(p as usize + 4094).unwrap();
            assert_eq!((out.site, out.extra_patched), (PatchOutcome::Patched, 0));
            assert_eq!(
                std::slice::from_raw_parts(p.add(4094), 4),
                &[0xff, 0xd0, 0x0f, 0x05]
            );

            // Anchor straddling the page end: its own two bytes are the
            // only store that may cross.
            std::ptr::write_bytes(p, 0xc3, 8192);
            for off in [4095, 4097] {
                std::ptr::copy_nonoverlapping(SYSCALL_BYTES.as_ptr(), p.add(off), 2);
            }
            let out = patch_page_sites(p as usize + 4095).unwrap();
            assert_eq!((out.site, out.extra_patched), (PatchOutcome::Patched, 0));
            assert_eq!(
                std::slice::from_raw_parts(p.add(4095), 4),
                &[0xff, 0xd0, 0x0f, 0x05]
            );
            assert!(std::slice::from_raw_parts(p.add(4099), 4093)
                .iter()
                .all(|&b| b == 0xc3));
            for page in [p, p.add(4096)] {
                assert_eq!(region_perms(page as usize), perms(true, true, true));
            }
            libc::munmap(p.cast(), 8192);
        }
    }

    #[test]
    fn window_leaves_the_protection_it_found() {
        if !trampoline_ready() {
            return;
        }
        unsafe {
            for prot in [RWX, libc::PROT_READ | libc::PROT_EXEC] {
                let p = map_pages(1, libc::PROT_READ | libc::PROT_WRITE);
                std::ptr::write_bytes(p, 0xc3, 4096);
                for off in [0, 1000] {
                    std::ptr::copy_nonoverlapping(SYSCALL_BYTES.as_ptr(), p.add(off), 2);
                }
                assert_eq!(libc::mprotect(p.cast(), 4096, prot), 0);
                let before = region_perms(p as usize);
                assert_eq!(before.map(|r| r.prot()), Some(prot));

                let out = patch_page_sites(p as usize).unwrap();
                assert_eq!((out.site, out.extra_patched), (PatchOutcome::Patched, 1));
                assert_eq!(std::slice::from_raw_parts(p.add(1000), 2), &CALL_RAX_BYTES);
                assert_eq!(region_perms(p as usize), before, "prot {prot:#x}");
                libc::munmap(p.cast(), 4096);
            }
        }
    }
}
