//! The 6-register syscall argument bundle.

use crate::nr;
use std::fmt;

/// A complete syscall invocation as seen by an interposer: the syscall
/// number plus its six argument registers (`rdi, rsi, rdx, r10, r8, r9`
/// in the x86-64 kernel calling convention).
///
/// ```rust
/// use lp_syscalls::{nr, SyscallArgs};
///
/// let call = SyscallArgs::new(nr::WRITE, [1, 0xdead_beef, 5, 0, 0, 0]);
/// assert_eq!(call.nr, nr::WRITE);
/// assert_eq!(call.name(), Some("write"));
/// assert_eq!(call.args[2], 5);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SyscallArgs {
    /// The syscall number (`rax`).
    pub nr: u64,
    /// The six argument registers in kernel-convention order.
    pub args: [u64; 6],
}

impl SyscallArgs {
    /// Creates a fully-specified invocation.
    pub fn new(nr: u64, args: [u64; 6]) -> SyscallArgs {
        SyscallArgs { nr, args }
    }

    /// Creates an invocation with no arguments (e.g. `getpid`).
    pub fn nullary(nr: u64) -> SyscallArgs {
        SyscallArgs { nr, args: [0; 6] }
    }

    /// Canonical syscall name, if the number is in the x86-64 table.
    pub fn name(&self) -> Option<&'static str> {
        nr::name(self.nr)
    }
}

impl fmt::Debug for SyscallArgs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.name() {
            Some(n) => write!(f, "{n}(")?,
            None => write!(f, "syscall_{}(", self.nr)?,
        }
        for (i, a) in self.args.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a:#x}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for SyscallArgs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn debug_shows_name_and_args() {
        let s = format!("{:?}", SyscallArgs::new(nr::WRITE, [1, 2, 3, 0, 0, 0]));
        assert_eq!(s, "write(0x1, 0x2, 0x3, 0x0, 0x0, 0x0)");
    }

    #[test]
    fn debug_falls_back_to_number() {
        let s = format!("{:?}", SyscallArgs::nullary(500));
        assert!(s.starts_with("syscall_500("));
    }

    #[test]
    fn nullary_has_zero_args() {
        assert_eq!(SyscallArgs::nullary(nr::GETPID).args, [0; 6]);
    }
}
