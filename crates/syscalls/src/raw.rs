//! Raw `syscall`-instruction invocation, bypassing libc.
//!
//! Every function here compiles to a real `syscall` instruction in this
//! crate's code. Two consequences matter for the interposition suite:
//!
//! 1. When Syscall User Dispatch is enabled with the selector set to
//!    BLOCK, or with no selector at all, these invocations raise
//!    `SIGSYS` like any other. An enrolled lazypoline thread is armed
//!    the second way from enrolment to teardown, so the engine issues
//!    its own syscalls from its gate (`zpoline::gate`), the allowed code
//!    range, and not from here; a call from here made inside a handler
//!    is the handler's own, which the engine executes under its
//!    re-entry guard.
//! 2. Once the lazy rewriter has patched one of these sites to
//!    `call rax`, subsequent executions enter the trampoline instead —
//!    which is precisely the behaviour the exhaustiveness tests assert.
//!
//! Hardened interposition needs nothing from this crate: its seccomp
//! backstop admits the engine's gate and no other text, and filters
//! only enrolled threads and the tasks they create, whose calls from
//! here SUD dispatches before the filter sees them.
//!
//! # Safety
//!
//! All functions are `unsafe`: a syscall can violate any invariant Rust
//! relies on (unmap memory, close fds backing `File`s, …). Callers must
//! ensure the specific syscall with the given arguments is sound.

use crate::SyscallArgs;
use core::arch::asm;

/// Invokes a syscall with zero arguments.
///
/// # Safety
///
/// See the [module docs](self).
#[inline]
pub unsafe fn syscall0(nr: u64) -> u64 {
    let ret;
    asm!(
        "syscall",
        inlateout("rax") nr => ret,
        out("rcx") _,
        out("r11") _,
        options(nostack),
    );
    ret
}

/// Invokes a syscall with one argument.
///
/// # Safety
///
/// See the [module docs](self).
#[inline]
pub unsafe fn syscall1(nr: u64, a1: u64) -> u64 {
    let ret;
    asm!(
        "syscall",
        inlateout("rax") nr => ret,
        in("rdi") a1,
        out("rcx") _,
        out("r11") _,
        options(nostack),
    );
    ret
}

/// Invokes a syscall with two arguments.
///
/// # Safety
///
/// See the [module docs](self).
#[inline]
pub unsafe fn syscall2(nr: u64, a1: u64, a2: u64) -> u64 {
    let ret;
    asm!(
        "syscall",
        inlateout("rax") nr => ret,
        in("rdi") a1,
        in("rsi") a2,
        out("rcx") _,
        out("r11") _,
        options(nostack),
    );
    ret
}

/// Invokes a syscall with three arguments.
///
/// # Safety
///
/// See the [module docs](self).
#[inline]
pub unsafe fn syscall3(nr: u64, a1: u64, a2: u64, a3: u64) -> u64 {
    let ret;
    asm!(
        "syscall",
        inlateout("rax") nr => ret,
        in("rdi") a1,
        in("rsi") a2,
        in("rdx") a3,
        out("rcx") _,
        out("r11") _,
        options(nostack),
    );
    ret
}

/// Invokes a syscall with four arguments.
///
/// # Safety
///
/// See the [module docs](self).
#[inline]
pub unsafe fn syscall4(nr: u64, a1: u64, a2: u64, a3: u64, a4: u64) -> u64 {
    let ret;
    asm!(
        "syscall",
        inlateout("rax") nr => ret,
        in("rdi") a1,
        in("rsi") a2,
        in("rdx") a3,
        in("r10") a4,
        out("rcx") _,
        out("r11") _,
        options(nostack),
    );
    ret
}

/// Invokes a syscall with five arguments.
///
/// # Safety
///
/// See the [module docs](self).
#[inline]
pub unsafe fn syscall5(nr: u64, a1: u64, a2: u64, a3: u64, a4: u64, a5: u64) -> u64 {
    let ret;
    asm!(
        "syscall",
        inlateout("rax") nr => ret,
        in("rdi") a1,
        in("rsi") a2,
        in("rdx") a3,
        in("r10") a4,
        in("r8") a5,
        out("rcx") _,
        out("r11") _,
        options(nostack),
    );
    ret
}

/// Invokes a syscall with six arguments.
///
/// # Safety
///
/// See the [module docs](self).
#[inline]
pub unsafe fn syscall6(nr: u64, a1: u64, a2: u64, a3: u64, a4: u64, a5: u64, a6: u64) -> u64 {
    let ret;
    asm!(
        "syscall",
        inlateout("rax") nr => ret,
        in("rdi") a1,
        in("rsi") a2,
        in("rdx") a3,
        in("r10") a4,
        in("r8") a5,
        in("r9") a6,
        out("rcx") _,
        out("r11") _,
        options(nostack),
    );
    ret
}

/// Invokes a syscall described by a [`SyscallArgs`] bundle.
///
/// This is the single re-issue point used by the interposition
/// dispatchers ("execute the syscall with its original arguments and
/// return the result", paper §V-B).
///
/// # Safety
///
/// See the [module docs](self).
#[inline]
pub unsafe fn syscall(call: SyscallArgs) -> u64 {
    let [a1, a2, a3, a4, a5, a6] = call.args;
    syscall6(call.nr, a1, a2, a3, a4, a5, a6)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{nr, Errno};

    #[test]
    fn getpid_matches_libc() {
        let raw = unsafe { syscall0(nr::GETPID) };
        let libc_pid = unsafe { libc::getpid() } as u64;
        assert_eq!(raw, libc_pid);
    }

    #[test]
    fn nonexistent_syscall_is_enosys() {
        let r = unsafe { syscall0(crate::NONEXISTENT_SYSCALL) };
        assert_eq!(Errno::from_ret(r), Some(Errno::ENOSYS));
    }

    #[test]
    fn write_to_bad_fd_fails() {
        let buf = b"x";
        let r = unsafe { syscall3(nr::WRITE, u64::MAX, buf.as_ptr() as u64, 1) };
        assert_eq!(Errno::from_ret(r), Some(Errno::EBADF));
    }

    #[test]
    fn bundle_invocation_equals_direct() {
        let direct = unsafe { syscall0(nr::GETTID) };
        let bundled = unsafe { syscall(SyscallArgs::nullary(nr::GETTID)) };
        assert_eq!(direct, bundled);
    }

    #[test]
    fn all_arities_execute() {
        unsafe {
            // Each arity exercised with a harmless syscall.
            assert!(Errno::from_ret(syscall0(nr::GETUID)).is_none());
            assert!(Errno::from_ret(syscall1(nr::UMASK, 0o022)).is_none());
            let mut ts = [0u64; 2];
            assert!(Errno::from_ret(syscall2(
                nr::CLOCK_GETTIME,
                0,
                ts.as_mut_ptr() as u64
            ))
            .is_none());
        }
    }
}
