//! Hardened interposition: the seccomp backstop behind the selector.
//!
//! Plain lazypoline's exhaustiveness rests on one writable byte: the
//! SUD selector. Application code that guesses (or leaks) its address
//! can flip it to ALLOW and issue syscalls the interposer never sees.
//! Hardened mode (ISSUE 7, after the paper's §VII discussion of
//! sandboxing) closes that hole with two independent layers:
//!
//! 1. **Protected selector** — the selector byte moves onto an
//!    MPK-protected slab ([`sud::pkey`]); the dispatcher opens the
//!    write-disable bit only around its own selector writes (WRPKRU,
//!    ~20 cycles), so a stray or malicious write from application code
//!    faults instead of succeeding.
//! 2. **Seccomp backstop** — a minimal BPF filter admits syscalls only
//!    from allowlisted code: the dedicated *gate page* (through which
//!    all of the suite's own raw syscalls are funnelled once
//!    [`syscalls::raw::set_syscall_gate`] is armed), shared-library
//!    text, the vdso, and a short list of numbers the dispatcher must
//!    issue inline (`rt_sigreturn`, the clone family, the exits).
//!    Everything else — in particular a syscall instruction in
//!    application text executed while the selector illegitimately
//!    reads ALLOW — traps with `SIGSYS`/`SYS_SECCOMP`, which
//!    [`on_bypass`] counts and answers per [`BypassPolicy`].
//!
//! The kernel checks SUD *before* seccomp on syscall entry, so the
//! backstop is invisible in the common case: a BLOCKed syscall raises
//! the SUD `SIGSYS` and the filter never runs; an ALLOWed dispatcher
//! re-issue enters from the gate page and passes the IP allowlist.
//!
//! Like engine init, hardening *degrades* rather than fails:
//! full (pkey + backstop) → backstop only (no MPK hardware, as on most
//! CI) → plain lazypoline (seccomp unavailable). [`level`] reports the
//! rung; `engine::health()` surfaces it.

use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};

use syscalls::{nr, Errno, SyscallArgs};

use crate::raw_internal;

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
const OFF_NR: u32 = 0;
const OFF_ARCH: u32 = 4;
const OFF_IP_LO: u32 = 8;
const OFF_IP_HI: u32 = 12;

// Classic-BPF opcodes (the seccomp subset we need).
const BPF_LD_W_ABS: u16 = 0x20;
const BPF_JEQ_K: u16 = 0x15;
const BPF_JGE_K: u16 = 0x35;
const BPF_JGT_K: u16 = 0x25;
const BPF_RET_K: u16 = 0x06;

/// Syscall numbers admitted regardless of instruction pointer: the
/// dispatcher must issue these from inline assembly in its own text
/// (`do_rt_sigreturn`, `clone_asm`) where no gate detour is possible,
/// and a task must always be able to die.
const NR_ALLOWLIST: &[u32] = &[
    nr::RT_SIGRETURN as u32,
    nr::CLONE as u32,
    nr::FORK as u32,
    nr::VFORK as u32,
    nr::EXIT as u32,
    nr::EXIT_GROUP as u32,
    nr::CLONE3 as u32,
];

/// IP-range blocks the filter can hold. `/proc/self/maps` of a typical
/// dynamically linked test binary has ~10 executable file mappings;
/// the cap guards the `u8` BPF jump offsets with a wide margin.
const MAX_RANGES: usize = 32;

/// Gate-page stub: `(nr, a1..a6)` per the SysV integer convention in,
/// syscall return out. See [`syscalls::raw::GateFn`].
///
/// ```text
/// mov rax, rdi        ; nr
/// mov rdi, rsi        ; a1
/// mov rsi, rdx        ; a2
/// mov rdx, rcx        ; a3
/// mov r10, r8         ; a4
/// mov r8,  r9         ; a5
/// mov r9,  [rsp+8]    ; a6 (7th integer argument, on the stack)
/// syscall
/// ret
/// ```
const GATE_STUB: &[u8] = &[
    0x48, 0x89, 0xf8, // mov rax, rdi
    0x48, 0x89, 0xf7, // mov rdi, rsi
    0x48, 0x89, 0xd6, // mov rsi, rdx
    0x48, 0x89, 0xca, // mov rdx, rcx
    0x4d, 0x89, 0xc2, // mov r10, r8
    0x4d, 0x89, 0xc8, // mov r8, r9
    0x4c, 0x8b, 0x4c, 0x24, 0x08, // mov r9, [rsp+8]
    0x0f, 0x05, // syscall
    0xc3, // ret
];

/// What [`on_bypass`] does with a blocked escape attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BypassPolicy {
    /// Kill the whole process with `SIGKILL` — the paper-faithful
    /// sandbox answer (an escape attempt means the application is
    /// compromised).
    Kill,
    /// Re-arm the protection and force the bypassed syscall back
    /// through the interposer — it executes, but observed. Useful for
    /// auditing deployments and for in-process regression tests.
    Quarantine,
}

/// The hardening rung actually achieved, most to least protected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HardenLevel {
    /// Hardening was never requested.
    Off,
    /// Protected selector (MPK hardware) and seccomp backstop.
    Full,
    /// Protected selector only — the backstop install failed.
    PkeyOnly,
    /// Seccomp backstop only — no MPK hardware (`pkey_alloc` failed).
    BackstopOnly,
    /// Hardening was requested but neither layer could be armed; the
    /// engine runs as plain lazypoline.
    Unprotected,
}

static HARDEN_ATTEMPTED: AtomicBool = AtomicBool::new(false);
static PKEY_ACTIVE: AtomicBool = AtomicBool::new(false);
static BACKSTOP_ACTIVE: AtomicBool = AtomicBool::new(false);
/// Encoded [`BypassPolicy`] (0 = Kill, 1 = Quarantine).
static POLICY: AtomicU8 = AtomicU8::new(0);
/// Escape attempts the backstop caught (kept out of the sharded
/// counter block — its shards are exactly full; see `counters.rs`).
static BYPASS_BLOCKED: AtomicU64 = AtomicU64::new(0);
/// Gate-page address once mapped (for the filter's IP allowlist).
static GATE_PAGE: AtomicUsize = AtomicUsize::new(0);

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

/// Arms the protected-selector layer: carve the MPK slab and move this
/// thread's selector byte onto it. Call **before** [`crate::init`] so
/// enrollment hands the kernel the protected address.
///
/// # Errors
///
/// Propagates `pkey_alloc`/`mmap` failure (`EINVAL` on hosts without
/// MPK) — the caller records it and continues to the next rung.
pub fn prepare_pkey() -> io::Result<()> {
    HARDEN_ATTEMPTED.store(true, Ordering::SeqCst);
    sud::pkey::init_protected_slab()?;
    sud::adopt_protected_selector()?;
    // The selector moved: the stub must not store to the old byte and
    // issue a syscall under the new one. (Threads enrolled from here on
    // find the slab ready and are never armed.)
    zpoline::thread_block().disarm();
    PKEY_ACTIVE.store(sud::pkey::slab_hardware_protected(), Ordering::SeqCst);
    Ok(())
}

/// Maps the gate page (RW → copy stub → RX) and returns its address.
fn map_gate_page() -> io::Result<usize> {
    const PAGE: u64 = 4096;
    let addr = unsafe {
        raw_internal::syscall(&SyscallArgs::new(
            nr::MMAP,
            [
                0,
                PAGE,
                (libc::PROT_READ | libc::PROT_WRITE) as u64,
                (libc::MAP_PRIVATE | libc::MAP_ANONYMOUS) as u64,
                u64::MAX, // fd = -1
                0,
            ],
        ))
    };
    if let Some(e) = Errno::from_ret(addr) {
        return Err(io::Error::from_raw_os_error(e.as_i32()));
    }
    unsafe {
        core::ptr::copy_nonoverlapping(GATE_STUB.as_ptr(), addr as *mut u8, GATE_STUB.len());
        let r = raw_internal::syscall(&SyscallArgs::new(
            nr::MPROTECT,
            [addr, PAGE, (libc::PROT_READ | libc::PROT_EXEC) as u64, 0, 0, 0],
        ));
        if let Some(e) = Errno::from_ret(r) {
            raw_internal::syscall(&SyscallArgs::new(nr::MUNMAP, [addr, PAGE, 0, 0, 0, 0]));
            return Err(io::Error::from_raw_os_error(e.as_i32()));
        }
    }
    Ok(addr as usize)
}

/// Collects the IP allowlist: the gate page, every file-backed
/// executable mapping *except* the main executable, and the kernel's
/// `[vdso]`/`[vsyscall]` pages. The main executable is the exclusion
/// that gives the backstop its teeth: that is where application (and
/// attacker) syscall instructions live.
fn exec_ranges(gate: usize) -> io::Result<Vec<(u64, u64)>> {
    let exe = std::fs::read_link("/proc/self/exe")?;
    let maps = std::fs::read_to_string("/proc/self/maps")?;
    let mut ranges: Vec<(u64, u64)> = vec![(gate as u64, gate as u64 + 4096)];
    for line in maps.lines() {
        let mut parts = line.split_whitespace();
        let (Some(span), Some(perms)) = (parts.next(), parts.next()) else {
            continue;
        };
        if !perms.contains('x') {
            continue;
        }
        let path = line.split_whitespace().nth(5).unwrap_or("");
        let allowed = (path.starts_with('/') && std::path::Path::new(path) != exe.as_path())
            || path == "[vdso]"
            || path == "[vsyscall]";
        if !allowed {
            continue;
        }
        let Some((lo, hi)) = span.split_once('-') else {
            continue;
        };
        let (Ok(lo), Ok(hi)) = (u64::from_str_radix(lo, 16), u64::from_str_radix(hi, 16)) else {
            continue;
        };
        ranges.push((lo, hi));
    }
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
    // alignment) often touch; merging keeps the block count down.
    split.sort_unstable();
    let mut merged: Vec<(u64, u64)> = Vec::new();
    for (lo, hi) in split {
        match merged.last_mut() {
            Some(last) if last.1 == lo && last.1 >> 32 == (hi - 1) >> 32 => last.1 = hi,
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
/// Layout: arch check, number allowlist, then one five-instruction
/// block per IP range (`ld ip_hi; jeq; ld ip_lo; jge lo; jgt hi-1`),
/// falling through to `ret TRAP` with `ret ALLOW` last.
fn build_filter(ranges: &[(u64, u64)]) -> Vec<SockFilter> {
    let n_nums = NR_ALLOWLIST.len();
    let n_blocks = ranges.len();
    let trap_idx = 3 + n_nums + 5 * n_blocks;
    let allow_idx = trap_idx + 1;
    let mut p = Vec::with_capacity(allow_idx + 1);

    p.push(insn(BPF_LD_W_ABS, 0, 0, OFF_ARCH));
    p.push(insn(BPF_JEQ_K, 0, (trap_idx - 2) as u8, AUDIT_ARCH_X86_64));
    p.push(insn(BPF_LD_W_ABS, 0, 0, OFF_NR));
    for (i, &num) in NR_ALLOWLIST.iter().enumerate() {
        let here = 3 + i;
        p.push(insn(BPF_JEQ_K, (allow_idx - here - 1) as u8, 0, num));
    }
    for (b, &(lo, hi)) in ranges.iter().enumerate() {
        // jf/jt offsets are relative to the *next* instruction; each
        // block's miss path lands on the next block (or the TRAP).
        let base = 3 + n_nums + 5 * b;
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

/// Arms the seccomp backstop: maps the gate page, reroutes the suite's
/// raw syscalls through it, and installs the filter process-wide
/// (`TSYNC`). Call **after** [`crate::init`] — the filter is
/// irreversible, so every later legitimate syscall must already have
/// an admitted path.
///
/// # Errors
///
/// `seccomp_install` seam injections, `prctl`/`seccomp` failures, or
/// an oversized IP allowlist. On error the gate is disarmed again and
/// the process is exactly as un-hardened as before the call.
pub fn arm_backstop(policy: BypassPolicy) -> io::Result<()> {
    HARDEN_ATTEMPTED.store(true, Ordering::SeqCst);
    if BACKSTOP_ACTIVE.load(Ordering::SeqCst) {
        return Ok(());
    }
    POLICY.store(policy as u8, Ordering::SeqCst);

    // Arm from dispatcher-like context: with the engine live the
    // selector reads BLOCK here, and every raw syscall below would
    // take the slow path — where the lazy rewriter would patch
    // `raw_internal::syscall`'s instruction, the one site whose
    // patching turns the dispatcher's passthrough into unbounded
    // trampoline recursion. Parking the selector at ALLOW for the
    // (single-threaded, self-inflicted) arming window keeps every
    // arming syscall off the rewriter's radar; BLOCK is restored on
    // all exits.
    let was_blocked = sud::selector() == sud::Dispatch::Block;
    sud::set_selector(sud::Dispatch::Allow);
    let result = arm_backstop_inner();
    if was_blocked {
        sud::set_selector(sud::Dispatch::Block);
    }
    result
}

fn arm_backstop_inner() -> io::Result<()> {
    let gate = match GATE_PAGE.load(Ordering::SeqCst) {
        0 => {
            let g = map_gate_page()?;
            // The gate's own `syscall` instruction executes with the
            // selector at BLOCK whenever engine-internal code issues a
            // raw syscall from non-dispatcher context. The resulting
            // slow-path trip must emulate, never rewrite: a patched
            // gate would send the dispatcher's passthrough back into
            // the trampoline, recursing until the stack dies.
            crate::blocklist::insert(g & !4095);
            GATE_PAGE.store(g, Ordering::SeqCst);
            g
        }
        g => g,
    };

    let install = || -> io::Result<()> {
        if let Some(e) = faultinject::check(faultinject::Site::SeccompInstall) {
            return Err(io::Error::from_raw_os_error(e));
        }
        let ranges = exec_ranges(gate)?;
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
    };

    // The entry stub's miss exit issues its syscall from zpoline's text,
    // which the filter does not admit: withdraw it first, so that every
    // thread, armed or not, is back on the full path — and through the
    // gate — before the filter exists.
    zpoline::set_miss_exit(None);
    // Arm the gate *before* installing: the install syscalls themselves
    // then already run through the soon-to-be-allowlisted page, and no
    // window exists where a filtered syscall could issue from our text.
    unsafe {
        syscalls::raw::set_syscall_gate(core::mem::transmute::<usize, syscalls::raw::GateFn>(
            gate,
        ));
    }
    match install() {
        Ok(()) => {
            BACKSTOP_ACTIVE.store(true, Ordering::SeqCst);
            Ok(())
        }
        Err(e) => {
            syscalls::raw::clear_syscall_gate();
            zpoline::set_miss_exit(Some(&crate::fastpath::MISS_EXIT));
            Err(e)
        }
    }
}

/// The achieved hardening rung.
pub fn level() -> HardenLevel {
    let pkey = PKEY_ACTIVE.load(Ordering::SeqCst);
    let backstop = BACKSTOP_ACTIVE.load(Ordering::SeqCst);
    match (pkey, backstop) {
        (true, true) => HardenLevel::Full,
        (true, false) => HardenLevel::PkeyOnly,
        (false, true) => HardenLevel::BackstopOnly,
        (false, false) if HARDEN_ATTEMPTED.load(Ordering::SeqCst) => HardenLevel::Unprotected,
        _ => HardenLevel::Off,
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

/// The active policy.
pub fn policy() -> BypassPolicy {
    match POLICY.load(Ordering::SeqCst) {
        1 => BypassPolicy::Quarantine,
        _ => BypassPolicy::Kill,
    }
}

/// Reads `LP_HARDEN_POLICY` (`kill` | `quarantine`, default kill).
pub fn policy_from_env() -> BypassPolicy {
    match std::env::var("LP_HARDEN_POLICY").as_deref() {
        Ok("quarantine") => BypassPolicy::Quarantine,
        _ => BypassPolicy::Kill,
    }
}

/// Answers a backstop trap from the `SIGSYS` handler: count it, repair
/// the protection the attacker disturbed, then kill or quarantine.
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
    // Whatever the attacker did to get here involved opening the
    // selector slab; close it again. The selector byte itself must NOT
    // be re-BLOCKed here — in handler context that would turn our own
    // next syscall into a forced (fatal) nested SIGSYS. The quarantine
    // emulation path re-arms it through the sigreturn trampoline,
    // exactly like an ordinary slow-path trip.
    sud::pkey::rearm_after_clone();
    match policy() {
        BypassPolicy::Quarantine => true,
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

/// Re-arms hardening in a fresh task (fork/clone child): PKRU is
/// per-thread and a new thread starts with the slab open, so close it
/// before the first dispatch. The seccomp filter itself is inherited
/// by the kernel — nothing to re-install.
pub(crate) fn rearm_after_clone() {
    if HARDEN_ATTEMPTED.load(Ordering::SeqCst) {
        sud::pkey::rearm_after_clone();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_stub_is_position_independent_syscall() {
        // Ends in syscall; ret — no relocations, no absolute addresses.
        let n = GATE_STUB.len();
        assert_eq!(&GATE_STUB[n - 3..], &[0x0f, 0x05, 0xc3]);
        assert!(n <= 64, "stub must fit comfortably in one page");
    }

    #[test]
    fn filter_layout_is_consistent() {
        let ranges = [(0x7f00_0000_0000u64, 0x7f00_0000_4000u64), (0x1000, 0x2000)];
        let p = build_filter(&ranges);
        assert_eq!(p.len(), 3 + NR_ALLOWLIST.len() + 5 * ranges.len() + 2);
        // Last two instructions: TRAP then ALLOW.
        assert_eq!(p[p.len() - 2].k, SECCOMP_RET_TRAP);
        assert_eq!(p[p.len() - 1].k, SECCOMP_RET_ALLOW);
        // Every number-allowlist jump lands exactly on the ALLOW.
        let allow_idx = p.len() - 1;
        for (i, _) in NR_ALLOWLIST.iter().enumerate() {
            let here = 3 + i;
            assert_eq!(here + 1 + p[here].jt as usize, allow_idx);
        }
        // Every range block's in-range path lands on the ALLOW and its
        // miss paths land on the next block (or the TRAP).
        for b in 0..ranges.len() {
            let base = 3 + NR_ALLOWLIST.len() + 5 * b;
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
        let ranges = exec_ranges(0xdead_0000).expect("maps parse");
        assert!(ranges.iter().any(|&(lo, _)| lo == 0xdead_0000));
        for &(lo, hi) in &ranges {
            assert!(lo < hi);
            assert_eq!(lo >> 32, (hi - 1) >> 32, "{lo:#x}-{hi:#x} straddles");
        }
    }

    #[test]
    fn main_executable_is_not_allowlisted() {
        let exe = std::fs::read_link("/proc/self/exe").unwrap();
        let maps = std::fs::read_to_string("/proc/self/maps").unwrap();
        let mut exe_exec_start = None;
        for line in maps.lines() {
            if line.contains(exe.to_str().unwrap()) && line.contains("r-xp") {
                let span = line.split_whitespace().next().unwrap();
                let lo = u64::from_str_radix(span.split('-').next().unwrap(), 16).unwrap();
                exe_exec_start = Some(lo);
                break;
            }
        }
        let exe_lo = exe_exec_start.expect("own text mapping present");
        let ranges = exec_ranges(0x1000_0000).unwrap();
        assert!(
            !ranges.iter().any(|&(lo, hi)| lo <= exe_lo && exe_lo < hi),
            "main executable text must trap"
        );
    }

    #[test]
    fn policy_and_level_defaults() {
        // Unit tests never arm anything (that would be irreversible).
        assert_eq!(policy_from_env(), BypassPolicy::Kill);
        assert!(!backstop_armed());
        assert_eq!(bypass_blocked(), 0);
    }
}
