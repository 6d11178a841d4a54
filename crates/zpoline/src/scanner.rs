//! Static discovery and rewriting of syscall sites.
//!
//! This is the "pure rewriting" mode of zpoline (paper §II-B): at load
//! time, disassemble the executable mappings, identify `syscall`
//! instructions, and patch each one. Two inherent limitations — which
//! lazypoline's lazy slow path removes — are deliberately preserved:
//!
//! 1. **No future code.** Sites mapped or generated after the scan
//!    (JIT, `dlopen`) are invisible. The exhaustiveness experiment
//!    (§V-A) demonstrates exactly this gap.
//! 2. **Heuristic disassembly.** The linear sweep can desynchronize on
//!    data-in-text or exotic encodings, missing real sites or (if one
//!    forced the issue) misidentifying byte pairs. [`find_syscall_sites`]
//!    therefore reports whether the sweep hit unknown opcodes.

use std::io;

use crate::disasm;
use crate::maps::{self, Maps};
use crate::patcher::{self, PatchError, RegionPerms};

/// An executable mapping of the current process.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExecRegion {
    /// First mapped address.
    pub start: usize,
    /// One past the last mapped address.
    pub end: usize,
    /// Protection of the mapping (always executable).
    pub perms: RegionPerms,
    /// Backing path (empty for anonymous mappings).
    pub path: String,
}

impl ExecRegion {
    /// Length of the region in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the region is empty (never true for real mappings).
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }
}

/// Enumerates the executable mappings of this process, excluding the
/// regions a rewriter must never touch: the trampoline page itself,
/// `[vdso]`, `[vsyscall]`, and `[vvar]`.
///
/// # Errors
///
/// Fails if `/proc/self/maps` cannot be read.
pub fn exec_regions() -> io::Result<Vec<ExecRegion>> {
    let maps = Maps::open()?;
    let mut out = Vec::new();
    maps.walk(maps::EXECUTABLE, true, |f| {
        let (m, path) = (&f.map, f.path());
        // Page zero is the trampoline.
        if m.start == 0 || matches!(path, b"[vdso]" | b"[vsyscall]" | b"[vvar]") {
            return;
        }
        out.push(ExecRegion {
            start: m.start,
            end: m.end,
            perms: m.perms,
            path: String::from_utf8_lossy(path).into_owned(),
        });
    })?;
    Ok(out)
}

/// Result of scanning a byte range for syscall instructions.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScanReport {
    /// Addresses (in the scanned address space) of `syscall` sites at
    /// decoded instruction boundaries.
    pub sites: Vec<usize>,
    /// Number of bytes the sweep could not decode — a nonzero value
    /// means the heuristic may have missed sites (paper §II-B).
    pub unknown_bytes: usize,
    /// Total instructions decoded.
    pub instructions: usize,
}

/// Linear-sweep scan of `bytes`, reporting syscall sites relative to
/// `base` (the address `bytes[0]` is mapped at).
pub fn find_syscall_sites(base: usize, bytes: &[u8]) -> ScanReport {
    let mut report = ScanReport::default();
    for (off, insn) in disasm::sweep(bytes) {
        report.instructions += 1;
        if !insn.known {
            report.unknown_bytes += insn.len;
        } else if insn.is_syscall {
            // Point at the `0f 05` bytes themselves: a (legal, if
            // unusual) prefixed encoding like `40 0f 05` keeps its
            // prefix, which is equally harmless in front of the
            // patched `ff d0`. This matches the patcher's byte check
            // and the kernel's `si_call_addr - 2` convention.
            report.sites.push(base + off + insn.len - 2);
        }
    }
    report
}

/// Scans a live memory range of this process.
///
/// # Safety
///
/// `[start, start + len)` must be mapped and readable for the duration
/// of the call.
pub unsafe fn scan_range(start: usize, len: usize) -> ScanReport {
    let bytes = std::slice::from_raw_parts(start as *const u8, len);
    find_syscall_sites(start, bytes)
}

/// Patches `sites` (ascending, as a scan reports them) with one patch
/// window per page instead of one per site: libc's several hundred
/// sites sit on a few dozen pages. `perms` is the protection of the
/// mapping holding them all, when known. Returns the number patched.
unsafe fn patch_by_page(sites: &[usize], perms: Option<RegionPerms>) -> Result<usize, PatchError> {
    let mut patched = 0;
    for page_sites in sites.chunk_by(|a, b| a / 4096 == b / 4096) {
        patched += patcher::patch_window(page_sites, false, perms, |_| {})?;
    }
    Ok(patched)
}

/// Patches `sites` (ascending, all in one mapping of protection `perms`)
/// in a single patch window over every page from the first site's to
/// the last's: one `mprotect` pair for the mapping, not one per page.
/// Returns the number patched; sites already holding `call rax` are not
/// counted.
///
/// # Errors
///
/// The first [`PatchError`], `NotSyscallInsn` included; nothing is
/// patched then, unless it was the closing `mprotect` that failed.
///
/// # Safety
///
/// Every site must be a genuine instruction boundary of a `syscall`
/// (a scan's report, or a site the kernel proved), in mapped code; the
/// trampoline must be installed.
pub unsafe fn rewrite_sites(sites: &[usize], perms: RegionPerms) -> Result<usize, PatchError> {
    if sites.is_empty() {
        return Ok(0);
    }
    patcher::patch_window(sites, false, Some(perms), |_| {})
}

/// Scans and patches every syscall site found in `[start, start+len)`;
/// returns the number of sites patched.
///
/// # Errors
///
/// Propagates the first [`PatchError`]; earlier pages remain patched
/// (there is no rollback — rewriting is one-way, as in zpoline).
///
/// # Safety
///
/// The range must be mapped, readable, and contain code whose decoded
/// `syscall` boundaries are genuine instruction boundaries. The
/// trampoline must be installed.
pub unsafe fn rewrite_range(start: usize, len: usize) -> Result<usize, PatchError> {
    patch_by_page(&scan_range(start, len).sites, None)
}

/// Statically rewrites every executable region of the process whose
/// backing path satisfies `filter` — zpoline's load-time mode.
///
/// Returns `(sites_patched, unknown_bytes)`; a large `unknown_bytes`
/// signals low disassembly confidence on some region.
///
/// # Errors
///
/// Propagates `/proc/self/maps` and patch failures.
///
/// # Safety
///
/// Rewriting live code based on static disassembly carries exactly the
/// risks the paper describes; callers should restrict `filter` to
/// binaries they trust the sweep on. The trampoline must be installed
/// and a dispatcher able to handle *every* syscall must be registered
/// **before** calling this: the patch takes effect immediately on all
/// threads.
pub unsafe fn rewrite_process<F: FnMut(&ExecRegion) -> bool>(
    mut filter: F,
) -> io::Result<(usize, usize)> {
    let mut patched = 0;
    let mut unknown = 0;
    for region in exec_regions()? {
        if !filter(&region) {
            continue;
        }
        let report = scan_range(region.start, region.len());
        unknown += report.unknown_bytes;
        patched += patch_by_page(&report.sites, Some(region.perms))
            .map_err(|e| io::Error::other(format!("patching {}: {e}", region.path)))?;
    }
    Ok((patched, unknown))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trampoline::Trampoline;
    use syscalls::nr;

    #[test]
    fn exec_regions_include_our_text() {
        let regions = exec_regions().unwrap();
        assert!(!regions.is_empty());
        let here = exec_regions_include_our_text as *const () as usize;
        assert!(
            regions.iter().any(|r| r.start <= here && here < r.end),
            "own text missing from {regions:#x?}"
        );
        assert!(regions.iter().all(|r| r.start > 0 && !r.is_empty()));
        assert!(regions.iter().all(|r| r.path != "[vdso]"));
    }

    #[test]
    fn scan_finds_boundary_syscalls_only() {
        // push rbp; mov rax, 0x050f (imm contains the pattern!);
        // syscall; ret
        let code = [
            0x55, // push rbp
            0x48, 0xc7, 0xc0, 0x0f, 0x05, 0x00, 0x00, // mov rax, 0x50f
            0x0f, 0x05, // syscall
            0x5d, // pop rbp
            0xc3, // ret
        ];
        let report = find_syscall_sites(0x1000, &code);
        assert_eq!(report.sites, vec![0x1008]);
        assert_eq!(report.unknown_bytes, 0);
        assert_eq!(report.instructions, 5);
    }

    #[test]
    fn scan_reports_undecodable_bytes() {
        // 0x06 is invalid in 64-bit mode.
        let report = find_syscall_sites(0, &[0x06, 0x90, 0x0f, 0x05]);
        assert!(report.unknown_bytes >= 1);
        assert_eq!(report.sites, vec![2]);
    }

    #[test]
    fn rewrite_range_patches_jit_page() {
        if !Trampoline::environment_supported() {
            eprintln!("vm.mmap_min_addr != 0; skipping");
            return;
        }
        Trampoline::install().unwrap();
        unsafe {
            // Emit: mov eax, GETPID; syscall; ret — runtime-generated code.
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
            let code: [u8; 8] = [
                0xb8,
                nr::GETPID as u8,
                0,
                0,
                0, // mov eax, 39
                0x0f,
                0x05, // syscall
                0xc3, // ret
            ];
            std::ptr::copy_nonoverlapping(code.as_ptr(), p, code.len());

            let patched = rewrite_range(p as usize, code.len()).unwrap();
            assert_eq!(patched, 1);
            // Rewritten to call rax…
            assert_eq!(p.add(5).read(), 0xff);
            assert_eq!(p.add(6).read(), 0xd0);
            // …and still functionally a getpid.
            let f: extern "C" fn() -> u64 = std::mem::transmute(p);
            assert_eq!(f(), libc::getpid() as u64);
            // Second pass patches nothing new.
            assert_eq!(rewrite_range(p as usize, code.len()).unwrap(), 0);
            libc::munmap(page, 4096);
        }
    }

    #[test]
    fn nothing_in_the_gate_is_rewritten() {
        if !Trampoline::environment_supported() {
            eprintln!("vm.mmap_min_addr != 0; skipping");
            return;
        }
        // Installed here, not in the child: another thread of this test
        // process may hold the install lock at the fork.
        Trampoline::install().unwrap();
        let gate = crate::trampoline::gate();
        // SAFETY: the gate is this binary's text.
        let before = unsafe { std::slice::from_raw_parts(gate.start as *const u8, gate.len()) };
        let before = before.to_vec();
        // The restorer's `syscall; ud2` ends the gate, and the scan
        // finds it, the raw-syscall function's and the miss exit's.
        let last = gate.end - 4;
        let sites = find_syscall_sites(gate.start, &before).sites;
        assert!(
            sites.len() >= 3 && sites.contains(&last),
            "{sites:x?} in {gate:x?}"
        );
        // In a forked child: a rewritten gate would send this process's
        // own stub into itself. The rewrite lock is held across the
        // fork, so no other test's patch window is open in the child's
        // copy of it, and each side releases its own.
        unsafe {
            let lock = patcher::SpinGuard::lock();
            let pid = libc::fork();
            drop(lock);
            assert!(pid >= 0);
            if pid == 0 {
                let ok = rewrite_range(gate.start, gate.len()) == Ok(0)
                    && crate::patch_page_sites(last) == Err(PatchError::InGate)
                    && std::slice::from_raw_parts(gate.start as *const u8, gate.len()) == before;
                libc::_exit(if ok { 0 } else { 1 });
            }
            let mut status = 0;
            assert_eq!(libc::waitpid(pid, &mut status, 0), pid);
            assert_eq!(status, 0, "the child rewrote a site in the gate");
        }
    }
}

#[cfg(test)]
mod live_scan_tests {
    use super::*;

    /// Scan-only pass over every executable region of this live test
    /// process (libc included): the sweep must hold its mechanical
    /// invariants on megabytes of real compiler output, find a
    /// plausible number of syscall sites, and stay heuristic-honest
    /// about undecodable bytes.
    #[test]
    fn scan_this_process_image() {
        // File-backed text only: the anonymous executable pages are
        // other tests' JIT pages, patched and unmapped under our feet.
        let mut regions = exec_regions().unwrap();
        regions.retain(|r| !r.path.is_empty());
        let mut total_sites = 0usize;
        let mut total_bytes = 0usize;
        let mut total_unknown = 0usize;
        for region in &regions {
            // SAFETY: regions come from /proc/self/maps and stay mapped
            // (this process does not unmap the objects it loaded).
            let report = unsafe { scan_range(region.start, region.len()) };
            total_sites += report.sites.len();
            total_bytes += region.len();
            total_unknown += report.unknown_bytes;
            for site in &report.sites {
                // Every reported site must hold the real encoding.
                let b = unsafe { std::slice::from_raw_parts(*site as *const u8, 2) };
                assert_eq!(b, &[0x0f, 0x05], "bogus site {site:#x} in {}", region.path);
            }
        }
        assert!(total_bytes > 1 << 20, "suspiciously small image");
        // A Rust test binary + libc contains hundreds of syscall sites.
        assert!(total_sites > 50, "only {total_sites} sites found");
        // Heuristic quality: the sweep should decode the vast majority
        // of real text (paper §II-B's accuracy discussion).
        let unknown_pct = 100.0 * total_unknown as f64 / total_bytes as f64;
        assert!(unknown_pct < 20.0, "unknown bytes {unknown_pct:.1}%");
    }
}
