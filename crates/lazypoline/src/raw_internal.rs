//! Private syscall issue points for the dispatcher.
//!
//! The dispatcher must never execute a `syscall` instruction that the
//! lazy rewriter could have patched: if application code (running with
//! the selector at BLOCK) ever executed the *same* instruction, the
//! slow path would rewrite it to `call rax`, and the dispatcher's
//! passthrough would then recurse into itself forever.
//!
//! These functions are private to this crate and only ever called from
//! dispatcher context, where the selector is ALLOW — so their `syscall`
//! instructions can never raise `SIGSYS` and can never be rewritten.
//! (`#[inline(never)]` keeps them from being merged into callers that
//! might be reachable from application code.)

use core::arch::asm;
use syscalls::SyscallArgs;

/// Issues `call` natively. Never patched; see module docs.
///
/// Under hardened mode the backstop filter only admits syscalls issued
/// from allowlisted code, which this crate's text is not — so once the
/// gate is armed, delegate to [`syscalls::raw::syscall`], which routes
/// through the gate page. The recursion hazard in the module docs does
/// not apply there: the gate page is never a rewriting candidate.
///
/// # Safety
///
/// Same contract as [`syscalls::raw::syscall`].
#[inline(never)]
pub(crate) unsafe fn syscall(call: &SyscallArgs) -> u64 {
    if syscalls::raw::gate_armed() {
        return syscalls::raw::syscall(*call);
    }
    let ret;
    asm!(
        "syscall",
        inlateout("rax") call.nr => ret,
        in("rdi") call.args[0],
        in("rsi") call.args[1],
        in("rdx") call.args[2],
        in("r10") call.args[3],
        in("r8") call.args[4],
        in("r9") call.args[5],
        out("rcx") _,
        out("r11") _,
        options(nostack),
    );
    ret
}

/// `rt_sigaction` with the kernel's raw struct layout.
///
/// # Safety
///
/// `new`/`old` must be valid kernel sigaction pointers or null.
#[inline(never)]
pub(crate) unsafe fn rt_sigaction(sig: i32, new: u64, old: u64) -> u64 {
    syscall(&SyscallArgs::new(
        syscalls::nr::RT_SIGACTION,
        [sig as u64, new, old, 8, 0, 0],
    ))
}

/// `rt_sigprocmask` on the kernel's 8-byte signal set.
///
/// # Safety
///
/// `new` must be null or point at a signal set, `old` likewise.
#[inline(never)]
pub(crate) unsafe fn rt_sigprocmask(how: u64, new: *const u64, old: *mut u64) -> u64 {
    syscall(&SyscallArgs::new(
        syscalls::nr::RT_SIGPROCMASK,
        [how, new as u64, old as u64, 8, 0, 0],
    ))
}

/// The `how` values of [`rt_sigprocmask`] the engine uses.
pub(crate) const SIG_UNBLOCK: u64 = 1;
pub(crate) const SIG_SETMASK: u64 = 2;

#[cfg(test)]
mod tests {
    use super::*;
    use syscalls::{nr, Errno};

    #[test]
    fn internal_syscall_works() {
        let pid = unsafe { syscall(&SyscallArgs::nullary(nr::GETPID)) };
        assert_eq!(pid, std::process::id() as u64);
    }

    #[test]
    fn rt_sigaction_query() {
        // Query SIGUSR1 disposition without changing it.
        let mut old = [0u64; 4];
        let r = unsafe { rt_sigaction(libc::SIGUSR1, 0, old.as_mut_ptr() as u64) };
        assert_eq!(Errno::from_ret(r), None);
    }
}
