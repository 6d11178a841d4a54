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
    let maps = std::fs::read_to_string("/proc/self/maps")?;
    let mut out = Vec::new();
    for line in maps.lines() {
        let mut fields = line.split_whitespace();
        let range = fields.next().unwrap_or("");
        let perms = fields.next().unwrap_or("");
        let path = line
            .splitn(6, char::is_whitespace)
            .nth(5)
            .unwrap_or("")
            .trim()
            .to_string();
        if !perms.contains('x') {
            continue;
        }
        if path == "[vdso]" || path == "[vsyscall]" || path == "[vvar]" {
            continue;
        }
        let Some((s, e)) = range.split_once('-') else {
            continue;
        };
        let (Ok(start), Ok(end)) = (
            usize::from_str_radix(s, 16),
            usize::from_str_radix(e, 16),
        ) else {
            continue;
        };
        if start == 0 {
            continue; // the trampoline page
        }
        let perms = RegionPerms {
            read: perms.contains('r'),
            write: perms.contains('w'),
            exec: true,
        };
        out.push(ExecRegion {
            start,
            end,
            perms,
            path,
        });
    }
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
        patched += patcher::patch_window(page_sites, false, perms)?;
    }
    Ok(patched)
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
