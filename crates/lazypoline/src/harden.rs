//! Hardened interposition: the seccomp backstop behind SUD.
//!
//! An enrolled thread's SUD is armed with no selector byte
//! ([`crate::Engine::enroll_current_thread`]): no store to any address
//! switches interposition off. What application code can still do is
//! ask the kernel — `prctl(PR_SET_SYSCALL_USER_DISPATCH, OFF)` — after
//! which its syscalls reach the kernel unseen. Hardened mode (after the
//! paper's §VII discussion of sandboxing) refuses that `prctl`
//! (`refuses_dispatch_change`) and puts a **seccomp backstop** behind
//! SUD: a minimal BPF filter that admits syscalls by instruction pointer
//! only — from the interposer's syscall gate ([`zpoline::gate`], from
//! which the engine issues every syscall of its own, `rt_sigreturn` and
//! `clone` included), `[vdso]` and `[vsyscall]`. Everything else — a
//! syscall instruction in the application's text or in any library's,
//! executed after SUD was turned off — traps with
//! `SIGSYS`/`SYS_SECCOMP`, which [`on_bypass`] counts and answers per
//! [`BypassPolicy`].
//!
//! The filter covers exactly the threads SUD covers: the enrolled
//! thread that arms it, and every task it creates from then on, which
//! inherit the filter and which the engine's `clone` path enrols. A
//! thread that existed before [`arm_backstop`] is neither interposed nor
//! filtered (the recorder's drain thread is one). The kernel checks SUD
//! *before* seccomp on syscall entry, so on an enrolled thread the
//! backstop is invisible: a syscall outside the gate raises the SUD
//! `SIGSYS` and the filter never runs; the engine's own leave from the
//! gate and pass both. Hardened mode is one-way per thread: once the
//! backstop is armed, un-enrolment does nothing
//! ([`crate::unenroll_current_thread`]).
//!
//! Like engine init, hardening *degrades* rather than fails: `Full`
//! (the backstop armed) → `Unprotected` (seccomp unavailable, or the
//! installing thread not enrolled: plain lazypoline). [`level`] reports
//! the rung; `engine::health()` surfaces it.

use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};

use syscalls::{nr, Errno, SyscallArgs};

use crate::{raw_internal, tls};

/// `siginfo.si_code` for a seccomp `SECCOMP_RET_TRAP` delivery.
pub const SYS_SECCOMP: libc::c_int = 1;

/// `seccomp(2)` operation: install a filter program.
const SECCOMP_SET_MODE_FILTER: u64 = 1;
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

/// The IP allowlist as the filter's blocks: the gate first, then the
/// kernel's `[vsyscall]` page and the `[vdso]` mapping (found at
/// `AT_SYSINFO_EHDR`). Every syscall an enrolled thread lets through SUD
/// leaves from the gate, so no other text needs to be admitted.
fn exec_ranges(gate: std::ops::Range<usize>) -> io::Result<Vec<(u64, u64)>> {
    let mut ranges = vec![(gate.start as u64, gate.end as u64), VSYSCALL];
    // SAFETY: getauxval(3) only reads the auxiliary vector.
    let vdso = unsafe { libc::getauxval(libc::AT_SYSINFO_EHDR) } as usize;
    // 0 when the kernel maps no vdso (page zero is the trampoline).
    if vdso != 0 {
        if let Some(m) = zpoline::Maps::open()?.covering(vdso)? {
            ranges.push((m.start as u64, m.end as u64));
        }
    }
    Ok(filter_blocks(ranges))
}

/// The ranges as the filter's blocks, in order: the BPF range blocks
/// compare the IP's halves separately, so a range that straddles a
/// 4 GiB boundary is split there.
fn filter_blocks(ranges: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    let mut blocks = Vec::with_capacity(ranges.len());
    for (mut lo, hi) in ranges {
        while lo >> 32 != (hi - 1) >> 32 {
            let edge = ((lo >> 32) + 1) << 32;
            blocks.push((lo, edge));
            lo = edge;
        }
        blocks.push((lo, hi));
    }
    blocks
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

/// Arms the seccomp backstop on the calling thread, which every task
/// it creates inherits. Call **after** [`crate::init`], on the thread it
/// enrolled — the filter is irreversible, so every later legitimate
/// syscall must already have an admitted path.
///
/// # Errors
///
/// The calling thread is not enrolled (the engine runs on
/// [`crate::Mode::PrescanOnly`], or another thread called `init`: the
/// filter would kill this thread's next libc syscall), `seccomp_install`
/// seam injections, or `prctl`/`seccomp` failures. On error the process
/// is exactly as un-hardened as before the call.
pub fn arm_backstop(policy: BypassPolicy) -> io::Result<()> {
    HARDEN_ATTEMPTED.store(true, Ordering::SeqCst);
    if BACKSTOP_ACTIVE.load(Ordering::SeqCst) {
        return Ok(());
    }
    if !tls::enrolled() {
        return Err(io::Error::other("the installing thread is not enrolled"));
    }
    POLICY.store(policy as u8, Ordering::SeqCst);
    // The allocations below go through libc: on the engine's private
    // path, no handler or layer sees them.
    crate::proven::privately(install_filter)?;
    BACKSTOP_ACTIVE.store(true, Ordering::SeqCst);
    Ok(())
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
    let fprog = &fprog as *const SockFprog as u64;
    for (call, args) in [
        (nr::PRCTL, [PR_SET_NO_NEW_PRIVS, 1, 0, 0, 0, 0]),
        // Flags 0: this thread only, and the tasks it creates.
        (nr::SECCOMP, [SECCOMP_SET_MODE_FILTER, 0, fprog, 0, 0, 0]),
    ] {
        // SAFETY: `prctl` takes no pointer; `seccomp` reads `fprog`,
        // which outlives the call.
        let r = unsafe { raw_internal::syscall(&SyscallArgs::new(call, args)) };
        if let Some(e) = Errno::from_ret(r) {
            return Err(io::Error::from_raw_os_error(e.as_i32()));
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
/// then a `syscall` SUD no longer sees. A refusal is counted with the
/// escapes the backstop caught.
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
/// on this thread, or the task is one the engine never enrolled (a raw
/// `clone` child). Quarantine re-arms an enrolled thread with the one
/// enrolment function ([`crate::engine::enable_sud`]) — safe here, it
/// and every other syscall of this handler leave from the gate — so the
/// thread resumes interposed. Kill sends `SIGKILL` to `getpid()`: the
/// whole process, or a raw `clone` child alone.
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

    /// The kernel's seccomp action cache (`seccomp_is_const_allow` in
    /// `kernel/seccomp.c`) emulates a filter once per syscall number and
    /// arch, knowing only `nr` and `arch`; a number whose path returns
    /// `RET_ALLOW` without loading anything else skips the filter from
    /// then on, from any IP. Walk the backstop the same way: no number
    /// of either arch the cache checks may reach the ALLOW.
    #[test]
    fn the_action_cache_admits_no_number() {
        const AUDIT_ARCH_I386: u32 = 0x4000_0003;
        const OFF_NR: u32 = 0;
        /// `Some(true)` for a constant path to `RET_ALLOW`, `Some(false)`
        /// for a constant path to anything else, `None` where the path
        /// loads a field the cache does not know.
        fn const_allow(p: &[SockFilter], nr: u32, arch: u32) -> Option<bool> {
            let (mut pc, mut a) = (0, 0);
            loop {
                let i = p[pc];
                pc += 1;
                let taken = match (i.code, i.k) {
                    (BPF_LD_W_ABS, OFF_NR) => {
                        a = nr;
                        continue;
                    }
                    (BPF_LD_W_ABS, OFF_ARCH) => {
                        a = arch;
                        continue;
                    }
                    (BPF_LD_W_ABS, _) => return None,
                    (BPF_RET_K, k) => return Some(k == SECCOMP_RET_ALLOW),
                    (BPF_JEQ_K, k) => a == k,
                    (BPF_JGE_K, k) => a >= k,
                    (BPF_JGT_K, k) => a > k,
                    (code, _) => panic!("the walk does not know opcode {code:#x}"),
                };
                pc += usize::from(if taken { i.jt } else { i.jf });
            }
        }
        let gate = zpoline::gate();
        for ranges in [
            exec_ranges(gate).unwrap(),
            filter_blocks(vec![(0x1000, 0x2000), (0xffff_f000, 0x1_0000_1000)]),
        ] {
            let p = build_filter(&ranges);
            for nr in 0..1024 {
                assert_eq!(const_allow(&p, nr, AUDIT_ARCH_X86_64), None, "x86-64 {nr}");
                assert_eq!(const_allow(&p, nr, AUDIT_ARCH_I386), Some(false), "i386 {nr}");
            }
        }
    }

    #[test]
    fn ranges_never_straddle_4gib() {
        // exec_ranges on the live process: every range must sit within
        // one 4 GiB aligned window, and the synthetic gate comes first.
        let ranges = exec_ranges(0xdead_0000..0xdead_0040).expect("maps parse");
        assert_eq!(ranges[0], (0xdead_0000, 0xdead_0040));
        for &(lo, hi) in &ranges {
            assert!(lo < hi);
            assert_eq!(lo >> 32, (hi - 1) >> 32, "{lo:#x}-{hi:#x} straddles");
        }
        // A straddling range is split at the boundary, in place.
        assert_eq!(
            filter_blocks(vec![
                (0x10, 0x20),
                (0xffff_f000, 0x1_0000_1000),
                (0x1000, 0x2000)
            ]),
            [
                (0x10, 0x20),
                (0xffff_f000, 0x1_0000_0000),
                (0x1_0000_0000, 0x1_0000_1000),
                (0x1000, 0x2000)
            ],
        );
    }

    /// `/proc/self/maps`, the test's own way: `(lo, hi, perms, inode, name)`
    /// per line.
    fn maps_text() -> Vec<(u64, u64, String, String, String)> {
        let text = std::fs::read_to_string("/proc/self/maps").unwrap();
        text.lines()
            .map(|line| {
                let mut f = line.splitn(6, ' ');
                let mut next = || f.next().unwrap().to_owned();
                let (span, perms, _, _, inode) = (next(), next(), next(), next(), next());
                let name = f.next().unwrap_or("").trim_start().to_owned();
                let (lo, hi) = span.split_once('-').unwrap();
                let hex = |s| u64::from_str_radix(s, 16).unwrap();
                (hex(lo), hex(hi), perms, inode, name)
            })
            .collect()
    }

    /// No byte of any file-backed executable mapping is admitted outside
    /// the gate: not the main executable's, not libc's, not `ld.so`'s.
    #[test]
    fn only_the_gate_of_the_main_executable_is_allowlisted() {
        let text: Vec<_> = maps_text()
            .into_iter()
            .filter(|l| l.2.as_bytes()[2] == b'x' && l.3 != "0")
            .collect();
        for lib in ["/libc.so", "/ld-linux"] {
            assert!(text.iter().any(|l| l.4.contains(lib)), "{lib} in {text:?}");
        }
        let gate = zpoline::gate();
        let (gate_lo, gate_hi) = (gate.start as u64, gate.end as u64);
        assert!(
            text.iter().any(|l| l.0 <= gate_lo && gate_hi <= l.1),
            "the test binary links the engine: its text holds the gate"
        );
        let ranges = exec_ranges(gate).unwrap();
        for &(lo, hi) in &ranges {
            for (text_lo, text_hi, _, _, name) in &text {
                let (a, b) = (lo.max(*text_lo), hi.min(*text_hi));
                assert!(
                    a >= b || (gate_lo <= a && b <= gate_hi),
                    "{name} text {a:#x}-{b:#x} must trap"
                );
            }
        }
    }

    /// The allowlist, worked out the test's own way from the text of
    /// `/proc/self/maps`: the gate, the `[vdso]` line and `[vsyscall]`.
    #[test]
    fn allowlist_equals_the_maps_text_oracle() {
        let lines = maps_text();
        let named = |name: &str| lines.iter().find(|l| l.4 == name).map(|l| (l.0, l.1));
        let (vdso, vsyscall) = (named("[vdso]"), named("[vsyscall]"));
        assert!(vdso.is_some(), "{lines:?}");
        assert!(vsyscall.is_none_or(|v| v == VSYSCALL), "{lines:?}");

        let gate = zpoline::gate();
        let oracle = vec![(gate.start as u64, gate.end as u64), VSYSCALL, vdso.unwrap()];
        assert_eq!(exec_ranges(gate).unwrap(), filter_blocks(oracle), "{lines:?}");
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
