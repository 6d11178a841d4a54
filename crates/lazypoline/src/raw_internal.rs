//! Private syscall issue points for the dispatcher.
//!
//! The dispatcher must never execute a `syscall` instruction that the
//! lazy rewriter could patch: if that instruction were ever rewritten
//! to `call rax`, the dispatcher's passthrough would recurse into
//! itself forever. So these functions issue their syscalls from the
//! gate ([`zpoline::gate`]), the `syscall; ret` behind the entry stub,
//! which the patcher never rewrites. The gate is also the allowed code
//! range of every engine-backed enrolment, so the kernel lets these
//! syscalls through where it dispatches every other one, and the one
//! text the hardened backstop admits besides the kernel's `[vdso]` and
//! `[vsyscall]`.

use syscalls::SyscallArgs;

/// Issues `call` from the gate. Never patched; see module docs.
///
/// # Safety
///
/// Same contract as [`syscalls::raw::syscall`].
#[inline(never)]
pub(crate) unsafe fn syscall(call: &SyscallArgs) -> u64 {
    zpoline::gate_syscall(call)
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
