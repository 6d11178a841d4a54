//! Simulated syscall numbers and error codes.
//!
//! The number space mirrors x86-64 Linux so that guest programs,
//! traces, and the trampoline's nop-sled sizing carry over unchanged —
//! including the paper's benchmark syscall 500, which does not exist
//! here either.

/// `read(fd, buf, len)`.
pub const READ: u64 = 0;
/// `write(fd, buf, len)`.
pub const WRITE: u64 = 1;
/// `open(path_ptr, path_len, flags)` (simplified: length-counted path).
pub const OPEN: u64 = 2;
/// `close(fd)`.
pub const CLOSE: u64 = 3;
/// `stat(path_ptr, path_len, out_ptr)` — writes the file size (u64).
pub const STAT: u64 = 4;
/// `mmap(addr, len, prot, flags)`.
pub const MMAP: u64 = 9;
/// `mprotect(addr, len, prot)`.
pub const MPROTECT: u64 = 10;
/// `munmap(addr, len)`.
pub const MUNMAP: u64 = 11;
/// `rt_sigaction(sig, handler)` — simplified: handler address only.
pub const RT_SIGACTION: u64 = 13;
/// `rt_sigreturn(frame_addr)`.
pub const RT_SIGRETURN: u64 = 15;
/// `getpid()`.
pub const GETPID: u64 = 39;
/// `exit(code)`.
pub const EXIT: u64 = 60;
/// `getdents(fd, buf, len)` — simplified directory listing.
pub const GETDENTS: u64 = 78;
/// `chmod(path_ptr, path_len, mode)`.
pub const CHMOD: u64 = 90;
/// `getuid()`.
pub const GETUID: u64 = 102;
/// `prctl(option, a2, a3, a4, a5)` — carries SUD configuration.
pub const PRCTL: u64 = 157;
/// `gettid()`.
pub const GETTID: u64 = 186;
/// `time()` — virtual time derived from the retired-instruction count.
pub const TIME: u64 = 201;
/// `set_tid_address(ptr)`.
pub const SET_TID_ADDRESS: u64 = 218;
/// `clock_gettime(clk, out_ptr)`.
pub const CLOCK_GETTIME: u64 = 228;
/// `exit_group(code)`.
pub const EXIT_GROUP: u64 = 231;
/// `unlink(path_ptr, path_len)`.
pub const UNLINK: u64 = 263;
/// `set_robust_list(ptr, len)`.
pub const SET_ROBUST_LIST: u64 = 273;
/// `seccomp(prog_handle)` — installs a registered filter program.
pub const SECCOMP: u64 = 317;
/// `getrandom(buf, len)`.
pub const GETRANDOM: u64 = 318;
/// `rename(old_ptr, old_len, new_ptr2?)` — simplified two-path call.
pub const RENAME: u64 = 82;
/// `mkdir(path_ptr, path_len)`.
pub const MKDIR: u64 = 83;
/// The paper's microbenchmark number: implemented by no kernel.
pub const NONEXISTENT: u64 = 500;

/// `prctl` option enabling/disabling Syscall User Dispatch.
pub const PR_SET_SYSCALL_USER_DISPATCH: u64 = 59;
/// SUD off.
pub const PR_SYS_DISPATCH_OFF: u64 = 0;
/// SUD on.
pub const PR_SYS_DISPATCH_ON: u64 = 1;
/// Selector byte value ALLOW.
pub const SELECTOR_ALLOW: u8 = 0;
/// Selector byte value BLOCK.
pub const SELECTOR_BLOCK: u8 = 1;

/// The SIGSYS signal number (only signal the suite's experiments use,
/// plus SIGUSR1 for tests).
pub const SIGSYS: u64 = 31;
/// SIGUSR1 (tests).
pub const SIGUSR1: u64 = 10;

/// Error numbers (positive values; returns encode as `-errno`).
pub mod errno {
    /// No such file or directory.
    pub const ENOENT: u64 = 2;
    /// Bad file descriptor.
    pub const EBADF: u64 = 9;
    /// Permission/operation error.
    pub const EPERM: u64 = 1;
    /// Bad address.
    pub const EFAULT: u64 = 14;
    /// Invalid argument.
    pub const EINVAL: u64 = 22;
    /// Function not implemented.
    pub const ENOSYS: u64 = 38;

    /// Encodes `-errno` as a raw return value.
    pub fn ret(e: u64) -> u64 {
        (-(e as i64)) as u64
    }

    /// Decodes a raw return into `Some(errno)`.
    pub fn from_ret(v: u64) -> Option<u64> {
        let s = v as i64;
        if (-4095..0).contains(&s) {
            Some(-s as u64)
        } else {
            None
        }
    }
}

/// Canonical name of a simulated syscall number.
pub fn name(nr: u64) -> Option<&'static str> {
    Some(match nr {
        READ => "read",
        WRITE => "write",
        OPEN => "open",
        CLOSE => "close",
        STAT => "stat",
        MMAP => "mmap",
        MPROTECT => "mprotect",
        MUNMAP => "munmap",
        RT_SIGACTION => "rt_sigaction",
        RT_SIGRETURN => "rt_sigreturn",
        GETPID => "getpid",
        EXIT => "exit",
        GETDENTS => "getdents",
        CHMOD => "chmod",
        GETUID => "getuid",
        PRCTL => "prctl",
        GETTID => "gettid",
        TIME => "time",
        SET_TID_ADDRESS => "set_tid_address",
        CLOCK_GETTIME => "clock_gettime",
        EXIT_GROUP => "exit_group",
        UNLINK => "unlink",
        SET_ROBUST_LIST => "set_robust_list",
        SECCOMP => "seccomp",
        GETRANDOM => "getrandom",
        RENAME => "rename",
        MKDIR => "mkdir",
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_mirror_x86_64() {
        assert_eq!(READ, 0);
        assert_eq!(WRITE, 1);
        assert_eq!(GETPID, 39);
        assert_eq!(RT_SIGRETURN, 15);
        assert_eq!(PRCTL, 157);
        assert_eq!(GETRANDOM, 318);
        assert_eq!(PR_SET_SYSCALL_USER_DISPATCH, 59);
    }

    #[test]
    fn errno_roundtrip() {
        assert_eq!(errno::from_ret(errno::ret(errno::ENOSYS)), Some(38));
        assert_eq!(errno::from_ret(0), None);
        assert_eq!(errno::from_ret(12345), None);
    }

    #[test]
    fn names() {
        assert_eq!(name(WRITE), Some("write"));
        assert_eq!(name(NONEXISTENT), None);
    }
}
