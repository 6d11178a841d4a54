//! Hardened interposition: the seccomp backstop behind SUD.
//!
//! An enrolled thread's SUD is armed with no selector byte
//! ([`crate::Engine::enroll_current_thread`]): no store to any address
//! switches interposition off. What application code can still do is
//! ask the kernel — `prctl(PR_SET_SYSCALL_USER_DISPATCH, OFF)`, itself
//! dispatched and executed like any other syscall — after which its
//! syscalls reach the kernel unseen. Hardened mode (after the paper's
//! §VII discussion of sandboxing) puts a **seccomp backstop** behind
//! SUD: a minimal BPF filter that admits syscalls by instruction pointer
//! only — from the interposer's syscall gate ([`zpoline::gate`], from
//! which the engine issues every syscall of its own, `rt_sigreturn` and
//! `clone` included, and to which [`arm_backstop`] redirects
//! `syscalls::raw`), shared-library text and the vdso. Everything else
//! — in particular a syscall instruction in application text executed
//! after SUD was turned off — traps with `SIGSYS`/`SYS_SECCOMP`, which
//! [`on_bypass`] counts and answers per [`BypassPolicy`].
//!
//! The kernel checks SUD *before* seccomp on syscall entry, so the
//! backstop is invisible in the common case: a syscall outside the gate
//! raises the SUD `SIGSYS`, and the filter never runs; the engine's own
//! leave from the gate and pass both.
//!
//! Like engine init, hardening *degrades* rather than fails: `Full`
//! (the backstop armed) → `Unprotected` (seccomp unavailable: plain
//! lazypoline). [`level`] reports the rung; `engine::health()` surfaces
//! it.

use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};

use syscalls::{nr, Errno, SyscallArgs};

use crate::{raw_internal, tls};

/// `siginfo.si_code` for a seccomp `SECCOMP_RET_TRAP` delivery.
pub const SYS_SECCOMP: libc::c_int = 1;

/// `seccomp(2)` operation: install a filter program.
const SECCOMP_SET_MODE_FILTER: u64 = 1;
/// Extend the filter to every thread of the process atomically.
const SECCOMP_FILTER_FLAG_TSYNC: u64 = 1;
/// `prctl` option: required before an unprivileged filter install.
const PR_SET_NO_NEW_PRIVS: u64 = 38;

const SECCOMP_RET_ALLOW: u32 = 0x7fff_0000;
const SECCOMP_RET_TRAP: u32 = 0x0003_0000;
const AUDIT_ARCH_X86_64: u32 = 0xc000_003e;

// `struct seccomp_data` field offsets.
const OFF_ARCH: u32 = 4;
const OFF_IP_LO: u32 = 8;
const OFF_IP_HI: u32 = 12;

// Classic-BPF opcodes (the seccomp subset we need).
const BPF_LD_W_ABS: u16 = 0x20;
const BPF_JEQ_K: u16 = 0x15;
const BPF_JGE_K: u16 = 0x35;
const BPF_JGT_K: u16 = 0x25;
const BPF_RET_K: u16 = 0x06;

/// IP-range blocks the filter can hold. `/proc/self/maps` of a typical
/// dynamically linked test binary has ~10 executable file mappings;
/// the cap guards the `u8` BPF jump offsets with a wide margin.
const MAX_RANGES: usize = 32;

/// What [`on_bypass`] does with a blocked escape attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BypassPolicy {
    /// Kill the whole process with `SIGKILL` — the paper-faithful
    /// sandbox answer (an escape attempt means the application is
    /// compromised).
    Kill,
    /// Re-arm SUD on the thread and force the bypassed syscall back
    /// through the interposer — it executes, but observed. Useful for
    /// auditing deployments and for in-process regression tests.
    Quarantine,
}

/// The hardening rung actually achieved, most to least protected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HardenLevel {
    /// Hardening was never requested.
    Off,
    /// The seccomp backstop is armed.
    Full,
    /// Hardening was requested but the backstop could not be armed; the
    /// engine runs as plain lazypoline.
    Unprotected,
}

static HARDEN_ATTEMPTED: AtomicBool = AtomicBool::new(false);
static BACKSTOP_ACTIVE: AtomicBool = AtomicBool::new(false);
/// Encoded [`BypassPolicy`] (0 = Kill, 1 = Quarantine).
static POLICY: AtomicU8 = AtomicU8::new(0);
/// Escape attempts the backstop caught (kept out of the sharded
/// counter block — its shards are exactly full; see `counters.rs`).
static BYPASS_BLOCKED: AtomicU64 = AtomicU64::new(0);

/// One classic-BPF instruction.
#[repr(C)]
#[derive(Clone, Copy)]
struct SockFilter {
    code: u16,
    jt: u8,
    jf: u8,
    k: u32,
}

#[repr(C)]
struct SockFprog {
    len: u16,
    filter: *const SockFilter,
}

const fn insn(code: u16, jt: u8, jf: u8, k: u32) -> SockFilter {
    SockFilter { code, jt, jf, k }
}

/// The kernel's `[vsyscall]` page, at a fixed address on x86-64. Calls
/// into it are emulated with the IP there, so it is admitted whether or
/// not the kernel maps it; `PROCMAP_QUERY` never reports it (it is no
/// mapping of the process).
const VSYSCALL: (u64, u64) = (0xffff_ffff_ff60_0000, 0xffff_ffff_ff60_1000);

/// Collects the IP allowlist: the gate, every file-backed executable
/// mapping *except* those of the main executable, and the kernel's
/// `[vdso]`/`[vsyscall]` pages. The main executable is the exclusion
/// that gives the backstop its teeth: that is where application (and
/// attacker) syscall instructions live. The gate is named on its own
/// because it lies in the main executable whenever the engine is linked
/// into it; under the shim it lies in the shim's text, already admitted.
/// The main executable is the file that holds the program headers
/// (`AT_PHDR`, which an explicit `ld.so <program>` points at the
/// program), known by `(dev, inode)`: a path string is no identity
/// (spaces, ` (deleted)`, memfds; DESIGN.md §6).
fn exec_ranges(gate: std::ops::Range<usize>) -> io::Result<Vec<(u64, u64)>> {
    // SAFETY: getauxval(3) only reads the auxiliary vector.
    let auxv = |kind| unsafe { libc::getauxval(kind) } as usize;
    let maps = zpoline::Maps::open()?;
    let exe = maps
        .covering(auxv(libc::AT_PHDR))?
        .filter(|m| m.inode != 0)
        .ok_or_else(|| io::Error::other("AT_PHDR lies in no file mapping"))?;
    let mut ranges = vec![(gate.start as u64, gate.end as u64), VSYSCALL];
    // 0 when the kernel maps no vdso (page zero is the trampoline).
    let vdso = auxv(libc::AT_SYSINFO_EHDR);
    if let Some(vdso) = maps.covering(vdso)?.filter(|_| vdso != 0) {
        ranges.push((vdso.start as u64, vdso.end as u64));
    }
    maps.exec_files(|f| {
        let m = &f.map;
        if (m.dev, m.inode) != (exe.dev, exe.inode) {
            ranges.push((m.start as u64, m.end as u64));
        }
    })?;
    filter_blocks(ranges)
}

/// The ranges as the filter's blocks: none straddles a 4 GiB boundary,
/// touching ones merged.
fn filter_blocks(ranges: Vec<(u64, u64)>) -> io::Result<Vec<(u64, u64)>> {
    // The BPF range blocks compare the IP's halves separately, so a
    // block must not straddle a 4 GiB boundary — split any that do.
    let mut split = Vec::new();
    for (mut lo, hi) in ranges {
        while lo >> 32 != (hi - 1) >> 32 {
            let edge = ((lo >> 32) + 1) << 32;
            split.push((lo, edge));
            lo = edge;
        }
        split.push((lo, hi));
    }
    // Adjacent maps lines for one DSO (r-xp segments split by
    // alignment) often touch, and the gate lies inside the shim's text;
    // merging keeps the block count down.
    split.sort_unstable();
    let mut merged: Vec<(u64, u64)> = Vec::new();
    for (lo, hi) in split {
        match merged.last_mut() {
            Some(last) if lo <= last.1 && last.0 >> 32 == (hi.max(last.1) - 1) >> 32 => {
                last.1 = last.1.max(hi)
            }
            _ => merged.push((lo, hi)),
        }
    }
    if merged.len() > MAX_RANGES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{} executable ranges exceed filter capacity", merged.len()),
        ));
    }
    Ok(merged)
}

/// Builds the backstop program.
///
/// Layout: arch check, then one five-instruction block per IP range
/// (`ld ip_hi; jeq; ld ip_lo; jge lo; jgt hi-1`), falling through to
/// `ret TRAP` with `ret ALLOW` last.
fn build_filter(ranges: &[(u64, u64)]) -> Vec<SockFilter> {
    let trap_idx = 2 + 5 * ranges.len();
    let allow_idx = trap_idx + 1;
    let mut p = Vec::with_capacity(allow_idx + 1);

    p.push(insn(BPF_LD_W_ABS, 0, 0, OFF_ARCH));
    p.push(insn(BPF_JEQ_K, 0, (trap_idx - 2) as u8, AUDIT_ARCH_X86_64));
    for (b, &(lo, hi)) in ranges.iter().enumerate() {
        // jf/jt offsets are relative to the *next* instruction; each
        // block's miss path lands on the next block (or the TRAP).
        let base = 2 + 5 * b;
        let next = base + 5;
        p.push(insn(BPF_LD_W_ABS, 0, 0, OFF_IP_HI));
        p.push(insn(BPF_JEQ_K, 0, (next - base - 2) as u8, (lo >> 32) as u32));
        p.push(insn(BPF_LD_W_ABS, 0, 0, OFF_IP_LO));
        p.push(insn(BPF_JGE_K, 0, (next - base - 4) as u8, lo as u32));
        p.push(insn(BPF_JGT_K, 0, (allow_idx - next) as u8, (hi - 1) as u32));
    }
    debug_assert_eq!(p.len(), trap_idx);
    p.push(insn(BPF_RET_K, 0, 0, SECCOMP_RET_TRAP));
    p.push(insn(BPF_RET_K, 0, 0, SECCOMP_RET_ALLOW));
    p
}

/// Arms the seccomp backstop: redirects the suite's raw syscalls to the
/// gate and installs the filter process-wide (`TSYNC`). Call **after**
/// [`crate::init`] — the filter is irreversible, so every later
/// legitimate syscall must already have an admitted path.
///
/// # Errors
///
/// `seccomp_install` seam injections, `prctl`/`seccomp` failures, or
/// an oversized IP allowlist. On error the redirect is disarmed again
/// and the process is exactly as un-hardened as before the call.
pub fn arm_backstop(policy: BypassPolicy) -> io::Result<()> {
    HARDEN_ATTEMPTED.store(true, Ordering::SeqCst);
    if BACKSTOP_ACTIVE.load(Ordering::SeqCst) {
        return Ok(());
    }
    POLICY.store(policy as u8, Ordering::SeqCst);
    // Redirect `syscalls::raw` to the gate *before* installing: no
    // window exists where another thread's raw syscall could issue from
    // main-executable text under the filter (a thread SUD does not
    // cover, like the recorder's drain thread).
    // SAFETY: the gate's `syscall; ret` is this binary's text, for the
    // life of the process.
    unsafe { syscalls::raw::set_syscall_gate(zpoline::trampoline::lp_zpoline_gate_syscall) };
    // The allocations below go through libc: on the engine's private
    // path, no handler or layer sees them.
    match crate::proven::privately(install_filter) {
        Ok(()) => {
            BACKSTOP_ACTIVE.store(true, Ordering::SeqCst);
            Ok(())
        }
        Err(e) => {
            syscalls::raw::clear_syscall_gate();
            Err(e)
        }
    }
}

fn install_filter() -> io::Result<()> {
    if let Some(e) = faultinject::check(faultinject::Site::SeccompInstall) {
        return Err(io::Error::from_raw_os_error(e));
    }
    let ranges = exec_ranges(zpoline::gate())?;
    let prog = build_filter(&ranges);
    let fprog = SockFprog {
        len: prog.len() as u16,
        filter: prog.as_ptr(),
    };
    unsafe {
        let r = raw_internal::syscall(&SyscallArgs::new(
            nr::PRCTL,
            [PR_SET_NO_NEW_PRIVS, 1, 0, 0, 0, 0],
        ));
        if let Some(e) = Errno::from_ret(r) {
            return Err(io::Error::from_raw_os_error(e.as_i32()));
        }
        let r = raw_internal::syscall(&SyscallArgs::new(
            nr::SECCOMP,
            [
                SECCOMP_SET_MODE_FILTER,
                SECCOMP_FILTER_FLAG_TSYNC,
                &fprog as *const _ as u64,
                0,
                0,
                0,
            ],
        ));
        if let Some(e) = Errno::from_ret(r) {
            return Err(io::Error::from_raw_os_error(e.as_i32()));
        }
        if r != 0 {
            // TSYNC refused: some thread already carries a
            // conflicting filter.
            return Err(io::Error::from_raw_os_error(libc::EPERM));
        }
    }
    Ok(())
}

/// The achieved hardening rung.
pub fn level() -> HardenLevel {
    if BACKSTOP_ACTIVE.load(Ordering::SeqCst) {
        HardenLevel::Full
    } else if HARDEN_ATTEMPTED.load(Ordering::SeqCst) {
        HardenLevel::Unprotected
    } else {
        HardenLevel::Off
    }
}

/// Whether the backstop filter is live (the `SIGSYS` handler's test
/// for whether a `SYS_SECCOMP` delivery is ours to answer).
pub fn backstop_armed() -> bool {
    BACKSTOP_ACTIVE.load(Ordering::SeqCst)
}

/// Escape attempts the backstop caught.
pub fn bypass_blocked() -> u64 {
    BYPASS_BLOCKED.load(Ordering::SeqCst)
}

/// Whether the application's own `prctl(PR_SET_SYSCALL_USER_DISPATCH,
/// …)` is refused rather than executed: under hardened mode (whatever
/// rung it reached), where it is the first step of an escape — SUD off,
/// then a jump to any `syscall` the backstop admits. A refusal is
/// counted with the escapes the backstop caught.
pub(crate) fn refuses_dispatch_change() -> bool {
    let refused = level() != HardenLevel::Off;
    if refused {
        BYPASS_BLOCKED.fetch_add(1, Ordering::SeqCst);
    }
    refused
}

/// The active policy.
pub fn policy() -> BypassPolicy {
    match POLICY.load(Ordering::SeqCst) {
        1 => BypassPolicy::Quarantine,
        _ => BypassPolicy::Kill,
    }
}

impl BypassPolicy {
    /// Parses a policy name (`kill` | `quarantine`, the values of
    /// `LP_HARDEN_POLICY`); `None` for anything else.
    pub fn from_name(name: &str) -> Option<BypassPolicy> {
        match name {
            "kill" => Some(BypassPolicy::Kill),
            "quarantine" => Some(BypassPolicy::Quarantine),
            _ => None,
        }
    }
}

/// Answers a backstop trap from the `SIGSYS` handler: count it, then
/// kill, or re-arm SUD and quarantine.
///
/// A trap means SUD did not see the syscall: the attacker turned it off
/// on this thread. Quarantine re-arms an enrolled thread with the one
/// enrolment function ([`crate::engine::enable_sud`]) — safe here, every
/// syscall of this handler leaves from the gate — so the thread resumes
/// interposed.
///
/// Returns `true` when the caller should emulate the trapped syscall
/// through the interposer (quarantine); under [`BypassPolicy::Kill`]
/// this never returns.
///
/// # Safety
///
/// Signal-handler context only.
pub(crate) unsafe fn on_bypass() -> bool {
    BYPASS_BLOCKED.fetch_add(1, Ordering::SeqCst);
    // SUD was off on this thread: what it mapped meanwhile went unseen.
    zpoline::maps::shadow::distrust();
    match policy() {
        BypassPolicy::Quarantine => {
            if tls::enrolled() {
                let _ = crate::engine::enable_sud();
            }
            true
        }
        BypassPolicy::Kill => {
            let pid = raw_internal::syscall(&SyscallArgs::nullary(nr::GETPID));
            raw_internal::syscall(&SyscallArgs::new(
                nr::KILL,
                [pid, libc::SIGKILL as u64, 0, 0, 0, 0],
            ));
            // SIGKILL cannot be blocked; if delivery is somehow
            // deferred, refuse to continue the compromised process.
            raw_internal::syscall(&SyscallArgs::new(nr::EXIT_GROUP, [137, 0, 0, 0, 0, 0]));
            unreachable!("exit_group returned");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_layout_is_consistent() {
        let ranges = [(0x7f00_0000_0000u64, 0x7f00_0000_4000u64), (0x1000, 0x2000)];
        let p = build_filter(&ranges);
        assert_eq!(p.len(), 2 + 5 * ranges.len() + 2);
        // Last two instructions: TRAP then ALLOW.
        assert_eq!(p[p.len() - 2].k, SECCOMP_RET_TRAP);
        assert_eq!(p[p.len() - 1].k, SECCOMP_RET_ALLOW);
        let allow_idx = p.len() - 1;
        // The number is never loaded: the filter admits by IP only.
        assert!(
            p.iter().all(|i| !(i.code == BPF_LD_W_ABS && i.k == 0)),
            "seccomp_data.nr"
        );
        // A foreign arch traps.
        assert_eq!(1 + 1 + p[1].jf as usize, allow_idx - 1);
        // Every range block's in-range path lands on the ALLOW and its
        // miss paths land on the next block (or the TRAP).
        for b in 0..ranges.len() {
            let base = 2 + 5 * b;
            let next = base + 5;
            assert_eq!(base + 1 + 1 + p[base + 1].jf as usize, next);
            assert_eq!(base + 3 + 1 + p[base + 3].jf as usize, next);
            assert_eq!(base + 4 + 1 + p[base + 4].jf as usize, allow_idx);
            assert_eq!(base + 4 + 1 + p[base + 4].jt as usize, next);
        }
    }

    #[test]
    fn ranges_never_straddle_4gib() {
        // exec_ranges on the live process: every range must sit within
        // one 4 GiB aligned window and include the synthetic gate.
        let ranges = exec_ranges(0xdead_0000..0xdead_0040).expect("maps parse");
        assert!(ranges.iter().any(|&(lo, hi)| lo <= 0xdead_0000 && 0xdead_0040 <= hi));
        for &(lo, hi) in &ranges {
            assert!(lo < hi);
            assert_eq!(lo >> 32, (hi - 1) >> 32, "{lo:#x}-{hi:#x} straddles");
        }
    }

    #[test]
    fn only_the_gate_of_the_main_executable_is_allowlisted() {
        // The test binary links the engine: its text holds the gate.
        let exe = std::fs::read_link("/proc/self/exe").unwrap();
        let maps = std::fs::read_to_string("/proc/self/maps").unwrap();
        let exe_text: Vec<(u64, u64)> = maps
            .lines()
            .filter(|l| l.contains("r-xp") && l.ends_with(exe.to_str().unwrap()))
            .map(|l| {
                let (lo, hi) = l.split_whitespace().next().unwrap().split_once('-').unwrap();
                (u64::from_str_radix(lo, 16).unwrap(), u64::from_str_radix(hi, 16).unwrap())
            })
            .collect();
        let gate = zpoline::gate();
        let (gate_lo, gate_hi) = (gate.start as u64, gate.end as u64);
        assert!(
            exe_text.iter().any(|&(lo, hi)| lo <= gate_lo && gate_hi <= hi),
            "the gate lies in {exe_text:x?}"
        );
        let ranges = exec_ranges(gate).unwrap();
        assert!(
            ranges.iter().any(|&(lo, hi)| lo <= gate_lo && gate_hi <= hi),
            "every byte of the gate"
        );
        for &(lo, hi) in &ranges {
            for &(text_lo, text_hi) in &exe_text {
                let (a, b) = (lo.max(text_lo), hi.min(text_hi));
                assert!(
                    a >= b || (gate_lo <= a && b <= gate_hi),
                    "main executable text {a:#x}-{b:#x} must trap"
                );
            }
        }
    }

    /// The allowlist, worked out the test's own way from the text of
    /// `/proc/self/maps`: the main executable is the file that holds this
    /// test's code, named by `(dev, inode)`.
    #[test]
    fn allowlist_equals_the_maps_text_oracle() {
        let text = std::fs::read_to_string("/proc/self/maps").unwrap();
        // (lo, hi, perms, dev, inode, name)
        let lines: Vec<_> = text
            .lines()
            .map(|line| {
                let mut f = line.splitn(6, ' ');
                let mut next = || f.next().unwrap();
                let (span, perms, _, dev, inode) = (next(), next(), next(), next(), next());
                let name = f.next().unwrap_or("").trim_start();
                let (lo, hi) = span.split_once('-').unwrap();
                let hex = |s| u64::from_str_radix(s, 16).unwrap();
                (hex(lo), hex(hi), perms, dev, inode, name)
            })
            .collect();
        let here = allowlist_equals_the_maps_text_oracle as *const () as u64;
        let exe = lines
            .iter()
            .find(|l| (l.0..l.1).contains(&here))
            .map(|l| (l.3, l.4))
            .unwrap();
        let named = |name| lines.iter().find(|l| l.5 == name).map(|l| (l.0, l.1));
        let (vdso, vsyscall) = (named("[vdso]"), named("[vsyscall]"));
        assert!(vdso.is_some(), "{text}");
        assert!(vsyscall.is_none_or(|v| v == VSYSCALL), "{text}");

        let gate = zpoline::gate();
        let mut oracle = vec![(gate.start as u64, gate.end as u64), VSYSCALL];
        oracle.extend(
            lines
                .iter()
                .filter(|l| l.2.as_bytes()[2] == b'x')
                .filter(|l| {
                    (l.4 != "0" && (l.3, l.4) != exe) || l.5 == "[vdso]" || l.5 == "[vsyscall]"
                })
                .map(|l| (l.0, l.1)),
        );
        let ranges = exec_ranges(gate).unwrap();
        assert_eq!(ranges, filter_blocks(oracle).unwrap(), "{text}");
        for (lo, hi) in [vdso.unwrap(), VSYSCALL] {
            assert!(ranges.iter().any(|r| r.0 <= lo && hi <= r.1), "{lo:#x}-{hi:#x}");
        }
    }

    #[test]
    fn policy_and_level_defaults() {
        // Unit tests never arm anything (that would be irreversible).
        assert_eq!(policy(), BypassPolicy::Kill);
        assert_eq!(BypassPolicy::from_name("quarantine"), Some(BypassPolicy::Quarantine));
        assert_eq!(BypassPolicy::from_name("Kill"), None);
        assert!(!backstop_armed());
        assert_eq!(bypass_blocked(), 0);
    }
}
