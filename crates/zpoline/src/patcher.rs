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
use std::sync::atomic::{AtomicBool, Ordering};

use syscalls::{nr, raw, Errno};

use crate::disasm;
use crate::trampoline::Trampoline;

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
        }
    }
}

impl std::error::Error for PatchError {}

/// The rewrite spinlock (paper §IV-A(b)). A plain mutex could block in
/// a signal handler; a spinlock cannot deadlock here because the
/// critical section performs no syscall that could itself be dispatched
/// (the SIGSYS handler runs with the selector at ALLOW).
static PATCH_LOCK: AtomicBool = AtomicBool::new(false);

struct SpinGuard;

impl SpinGuard {
    fn lock() -> SpinGuard {
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
    }
}

/// Page protection bits of a mapped region.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RegionPerms {
    /// Readable.
    pub read: bool,
    /// Writable.
    pub write: bool,
    /// Executable.
    pub exec: bool,
}

impl RegionPerms {
    /// As a `PROT_*` bitmask for `mprotect`.
    pub fn prot(&self) -> i32 {
        let mut p = 0;
        if self.read {
            p |= libc::PROT_READ;
        }
        if self.write {
            p |= libc::PROT_WRITE;
        }
        if self.exec {
            p |= libc::PROT_EXEC;
        }
        p
    }
}

/// Looks up the protection of the mapping containing `addr` on a
/// `/proc/self/maps` fd, with raw syscalls and stack buffers only (no
/// allocation — safe inside a signal handler): one `PROCMAP_QUERY`
/// where the kernel has it, else the text of the whole file. `None`
/// when nothing is mapped there — or when the lookup itself failed,
/// which `lookup_perms` (and [`PatchError::LookupFailed`]) tell apart.
pub fn region_perms(addr: usize) -> Option<RegionPerms> {
    lookup_perms(addr).ok().flatten()
}

/// [`region_perms`], with "could not look" (the errno of the `open` or
/// `read`) kept apart from "nothing mapped" (`Ok(None)`).
fn lookup_perms(addr: usize) -> Result<Option<RegionPerms>, Errno> {
    let path = b"/proc/self/maps\0";
    // SAFETY: open(2) with a NUL-terminated path; fd closed below.
    let fd = unsafe { raw::syscall3(nr::OPEN, path.as_ptr() as u64, libc::O_RDONLY as u64, 0) };
    let fd = Errno::result(fd)?;
    let result = query_perms(fd, addr).or_else(|_| parse_perms(fd, addr));
    // SAFETY: closing the fd we opened.
    unsafe { raw::syscall1(nr::CLOSE, fd) };
    result
}

/// Whether a store to the page at `page` would succeed, asked of the
/// kernel without opening anything: `MADV_POPULATE_WRITE` (Linux 5.14)
/// faults the page in writable exactly as a store would — breaking
/// copy-on-write, as the patch about to land does anyway — and changes
/// no byte. `EINVAL` on a mapping without write permission (and on a
/// kernel without the advice), `ENOMEM` where nothing is mapped.
fn store_would_succeed(page: usize) -> bool {
    const MADV_POPULATE_WRITE: u64 = 23;
    // SAFETY: advice on one page; nothing is written, mapped or unmapped.
    let r = unsafe { raw::syscall3(nr::MADVISE, page as u64, 4096, MADV_POPULATE_WRITE) };
    r == 0
}

/// Asks the kernel for the one VMA covering `addr` (`PROCMAP_QUERY`,
/// Linux ≥ 6.11). `Ok(None)` is its `ENOENT`: nothing is mapped there;
/// any other error (`ENOTTY` on older kernels) means "read the text".
fn query_perms(fd: u64, addr: usize) -> Result<Option<RegionPerms>, Errno> {
    // _IOWR('f', 17, struct procmap_query); the struct is 13 u64 words:
    // size, query_flags (0: the covering VMA, whatever its protection),
    // query_addr in; vma_start, vma_end, vma_flags (1 r, 2 w, 4 x), …
    // out. Name and build-id sizes stay 0, so neither is copied out.
    const PROCMAP_QUERY: u64 = 0xc068_6611;
    let mut q = [0u64; 13];
    q[0] = std::mem::size_of_val(&q) as u64;
    q[2] = addr as u64;
    // SAFETY: the kernel reads and writes `q[0]` bytes of our buffer.
    let r = unsafe { raw::syscall3(nr::IOCTL, fd, PROCMAP_QUERY, q.as_mut_ptr() as u64) };
    match Errno::result(r) {
        Ok(_) => Ok(Some(RegionPerms {
            read: q[5] & 1 != 0,
            write: q[5] & 2 != 0,
            exec: q[5] & 4 != 0,
        })),
        Err(Errno::ENOENT) => Ok(None),
        Err(e) => Err(e),
    }
}

/// Reads the maps fd as text until a line covers `addr`; `Ok(None)` at
/// its end.
fn parse_perms(fd: u64, addr: usize) -> Result<Option<RegionPerms>, Errno> {
    let mut buf = [0u8; 4096];
    let mut carry = [0u8; 128]; // longest prefix we need: "start-end perms"
    let mut carry_len = 0usize;
    loop {
        // SAFETY: reading into our stack buffer.
        let n = unsafe { raw::syscall3(nr::READ, fd, buf.as_mut_ptr() as u64, buf.len() as u64) };
        let n = match Errno::result(n)? {
            0 => return Ok(None),
            n => n as usize,
        };
        let mut line_start = 0usize;
        for i in 0..n {
            if buf[i] == b'\n' {
                let parsed = if carry_len > 0 {
                    let take = (i - line_start).min(carry.len() - carry_len);
                    carry[carry_len..carry_len + take]
                        .copy_from_slice(&buf[line_start..line_start + take]);
                    let total = carry_len + take;
                    carry_len = 0;
                    parse_maps_line(&carry[..total], addr)
                } else {
                    parse_maps_line(&buf[line_start..i], addr)
                };
                if parsed.is_some() {
                    return Ok(parsed);
                }
                line_start = i + 1;
            }
        }
        // Carry any partial tail line into the next read.
        let tail = n - line_start;
        let take = tail.min(carry.len() - carry_len);
        carry[carry_len..carry_len + take].copy_from_slice(&buf[line_start..line_start + take]);
        carry_len += take;
    }
}

/// Parses one `/proc/self/maps` line; returns the perms if `addr` lies
/// within the line's range.
fn parse_maps_line(line: &[u8], addr: usize) -> Option<RegionPerms> {
    // Format: 55d6a2a00000-55d6a2a21000 r-xp ...
    let dash = line.iter().position(|&b| b == b'-')?;
    let sp = line.iter().position(|&b| b == b' ')?;
    if dash >= sp || sp + 3 >= line.len() {
        return None;
    }
    let start = parse_hex(&line[..dash])?;
    let end = parse_hex(&line[dash + 1..sp])?;
    if addr < start || addr >= end {
        return None;
    }
    Some(RegionPerms {
        read: line[sp + 1] == b'r',
        write: line[sp + 2] == b'w',
        exec: line[sp + 3] == b'x',
    })
}

fn parse_hex(s: &[u8]) -> Option<usize> {
    usize::from_str_radix(std::str::from_utf8(s).ok()?, 16).ok()
}

/// Stores `call rax` over `site` if it still holds `syscall`; returns
/// how many sites that rewrote.
unsafe fn store_call_rax(site: usize) -> usize {
    let hit = (site as *const [u8; 2]).read() == SYSCALL_BYTES;
    if hit {
        let call_rax = u16::from_le_bytes(CALL_RAX_BYTES);
        (site as *mut u8).cast::<u16>().write_unaligned(call_rax);
    }
    hit as usize
}

/// The one patch window behind every entry point: rewrites the listed
/// `sites` (ascending, all starting on one page) and, with `sweep`,
/// every site the anchored forward sweep verifies after `sites[0]`.
/// Returns how many it rewrote; 0 means every listed site already held
/// `call rax`. `perms` is the mapping's protection, if the caller has it.
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
) -> Result<usize, PatchError> {
    if !Trampoline::is_installed() {
        return Err(PatchError::TrampolineMissing);
    }
    let _guard = SpinGuard::lock();

    let mut pending = false;
    for &site in sites {
        match (site as *const [u8; 2]).read() {
            CALL_RAX_BYTES => {}
            SYSCALL_BYTES => pending = true,
            found => return Err(PatchError::NotSyscallInsn { found }),
        }
    }
    if !pending {
        return Ok(0);
    }

    let (addr, last) = (sites[0], sites[sites.len() - 1]);
    let page = addr & !4095;
    // The last site may straddle into a page neither the probe nor the
    // looked-up mapping says anything about.
    let straddles = last + 2 > page + 4096;
    let len = if straddles { 8192 } else { 4096 };
    // A page that takes stores as it is — an RWX JIT page — needs no
    // window, and no look at what the mapping is. `/proc` is opened only
    // when a window has to be: its protection is what the window restores.
    let window = if perms.is_none() && !straddles && store_would_succeed(page) {
        None
    } else {
        let orig = match perms {
            Some(perms) => perms,
            None => lookup_perms(addr)
                .map_err(PatchError::LookupFailed)?
                .ok_or(PatchError::UnmappedAddress)?,
        };
        (!(orig.read && orig.write) || straddles).then_some(orig)
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
    let mut patched: usize = sites.iter().map(|&site| store_call_rax(site)).sum();
    if sweep {
        patched += sweep_after(addr, page + 4096);
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
unsafe fn sweep_after(anchor: usize, page_end: usize) -> usize {
    let tail = std::slice::from_raw_parts(anchor as *const u8, page_end - anchor);
    // Every site the sweep can report is a `0f 05` pair wholly on the
    // page: the last such pair bounds the decode, and a page without one
    // (most JIT pages) needs none. Trailing 64-byte blocks with no `0f`
    // are ruled out by a fold that vectorizes (0.2 µs a page, not 2 µs).
    // The anchor, now `call rax`, still decodes as 2 bytes.
    let no_0f = |block: &&[u8]| !block.iter().fold(false, |hit, &b| hit | (b == 0x0f));
    let clean = tail.rchunks(64).take_while(no_0f).count() * 64;
    let dirty = &tail[..(tail.len().saturating_sub(clean) + 1).min(tail.len())];
    let Some(last) = dirty.windows(2).rposition(|pair| pair == SYSCALL_BYTES) else {
        return 0;
    };
    let mut patched = 0usize;
    for (off, insn) in disasm::sweep(tail) {
        // Past the last candidate no instruction can end in one; at an
        // unknown one synchronization can no longer be argued.
        if off > last || !insn.known {
            break;
        }
        let site = anchor + off + insn.len - 2;
        if insn.is_syscall && site + 2 <= page_end {
            patched += store_call_rax(site);
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
    patch_page(addr, false).map(|batch| batch.site)
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
/// likewise skipped.
///
/// # Errors
///
/// Same as [`patch_syscall_site`]. `AlreadyPatched` (with
/// `extra_patched == 0`) means another thread won the race for this
/// site — that thread already swept the page.
///
/// # Safety
///
/// Same contract as [`patch_syscall_site`].
pub unsafe fn patch_page_sites(addr: usize) -> Result<BatchOutcome, PatchError> {
    patch_page(addr, true)
}

unsafe fn patch_page(addr: usize, sweep: bool) -> Result<BatchOutcome, PatchError> {
    patch_window(&[addr], sweep, None).map(|patched| BatchOutcome {
        site: match patched {
            0 => PatchOutcome::AlreadyPatched,
            _ => PatchOutcome::Patched,
        },
        extra_patched: patched.saturating_sub(1),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_maps_line_hit_and_miss() {
        let line = b"7f0000000000-7f0000010000 r-xp 00000000 08:01 123 /lib/x.so";
        let p = parse_maps_line(line, 0x7f0000000123).unwrap();
        assert_eq!(
            p,
            RegionPerms {
                read: true,
                write: false,
                exec: true
            }
        );
        assert!(parse_maps_line(line, 0x7f0000010000).is_none());
        assert!(parse_maps_line(line, 0x6f0000000000).is_none());
    }

    #[test]
    fn parse_maps_line_rejects_garbage() {
        assert!(parse_maps_line(b"", 0).is_none());
        assert!(parse_maps_line(b"nonsense", 0).is_none());
        assert!(parse_maps_line(b"zzzz-qqqq rwxp", 0).is_none());
    }

    #[test]
    fn parse_hex_cases() {
        assert_eq!(parse_hex(b"ff"), Some(255));
        assert_eq!(parse_hex(b"7f0000000000"), Some(0x7f0000000000));
        assert_eq!(parse_hex(b""), None);
        assert_eq!(parse_hex(b"xyz"), None);
        assert_eq!(parse_hex(b"11112222333344445"), None); // > 16 digits
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

    /// Runs `lookup` on a fresh `/proc/self/maps` fd.
    fn on_maps_fd<T>(lookup: impl FnOnce(u64) -> T) -> T {
        use std::os::fd::AsRawFd;
        let maps = std::fs::File::open("/proc/self/maps").unwrap();
        lookup(maps.as_raw_fd() as u64)
    }

    /// Runs `check` on an address in each of five mappings — r-x text,
    /// rw- stack, rwx, `PROT_NONE`, just unmapped (at `gone`, which no
    /// two tests may share) — and what `/proc/self/maps` says of it.
    fn on_five_mappings(gone: usize, check: impl Fn(usize, Option<RegionPerms>)) {
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
            assert_eq!(
                on_maps_fd(|fd| parse_perms(fd, addr)),
                Ok(expect),
                "text, {addr:#x}"
            );
            assert_eq!(region_perms(addr), expect, "region_perms, {addr:#x}");
            match on_maps_fd(|fd| query_perms(fd, addr)) {
                Ok(got) => assert_eq!(got, expect, "PROCMAP_QUERY, {addr:#x}"),
                // Before Linux 6.11: region_perms just took the text.
                Err(e) => assert_eq!(e, Errno::ENOTTY, "{addr:#x}"),
            }
        });
        // After a failed query the same fd still reads from its start.
        let text = patch_syscall_site as *const () as usize;
        let after_query = on_maps_fd(|fd| {
            let _ = query_perms(fd, 0);
            parse_perms(fd, text)
        });
        assert_eq!(after_query, Ok(perms(true, false, true)));
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

    #[test]
    fn lookup_failure_is_not_an_unmapped_address() {
        // No descriptor left to open /proc/self/maps on: "could not
        // look" (EMFILE), where `region_perms` alone says `None` as it
        // does for an address nothing is mapped at (ENOENT). Run in a
        // forked child: the limit must not starve the other tests.
        let text = patch_syscall_site as *const () as usize;
        unsafe {
            let pid = libc::fork();
            assert!(pid >= 0);
            if pid == 0 {
                const RLIMIT_NOFILE: u64 = 7;
                let none = [0u64; 2]; // struct rlimit: cur, max
                let ok = raw::syscall2(nr::SETRLIMIT, RLIMIT_NOFILE, none.as_ptr() as u64) == 0
                    && lookup_perms(text) == Err(Errno::EMFILE)
                    && region_perms(text).is_none()
                    && lookup_perms(0x3_0000) == Err(Errno::EMFILE);
                libc::_exit(if ok { 0 } else { 1 });
            }
            let mut status = 0;
            assert_eq!(libc::waitpid(pid, &mut status, 0), pid);
            assert_eq!(status, 0, "child saw something other than EMFILE");
        }
        assert_eq!(lookup_perms(0x3_0000), Ok(None));
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

    /// A seeded page and an anchor on it. Even seeds look like a JIT
    /// page: `ret` fill, getpid stubs and `mov eax, 0x50f` decoys in
    /// random 16-byte slots (so decoys land before, between and after
    /// the real sites), sometimes an undecodable byte among them; the
    /// anchor is any of the stubs. Odd seeds are bytes drawn from a
    /// small alphabet that desynchronizes the sweep, around one pair.
    fn seeded_page(seed: u64) -> ([u8; 4096], usize) {
        const STUB: [u8; 8] = [0xb8, 0x27, 0, 0, 0, 0x0f, 0x05, 0xc3];
        const DECOY: [u8; 5] = [0xb8, 0x0f, 0x05, 0x00, 0x00];
        let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
        let mut page = [0xc3u8; 4096];
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
        let mut cases: Vec<_> = (0..400).map(seeded_page).collect();
        // The last pair of a page straddling two of the 64-byte blocks
        // the candidate scan works in, the later one without any `0f`.
        for block_end in [64, 1024, 4032] {
            let mut page = [0xc3u8; 4096];
            for site in [5, block_end - 1] {
                page[site..site + 2].copy_from_slice(&SYSCALL_BYTES);
            }
            cases.push((page, 5));
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
