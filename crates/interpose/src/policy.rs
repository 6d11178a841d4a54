//! Allow/deny sandboxing policies.
//!
//! Demonstrates the *expressiveness* dimension of Table I: unlike
//! seccomp-bpf, a userspace handler can make per-call decisions with
//! full argument access (the builder's `deny_write_to_fd` rule
//! dereferences nothing but inspects arguments — deeper inspection is
//! possible since the handler runs in-process).

use crate::{Action, InterestSet, SyscallEvent, SyscallHandler};
use syscalls::{Errno, MAX_SYSCALL_NR};

/// Default verdicts for syscalls with no specific rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Verdict {
    Allow,
    Deny(Errno),
}

/// A fixed-size allow/deny policy over syscall numbers, with optional
/// argument predicates. The decision path is array lookups only.
pub struct PolicyHandler {
    default: Verdict,
    per_nr: Box<[Option<Verdict>]>,
    /// Deny `write`/`pwrite64` to fds ≥ this value, if set.
    max_write_fd: Option<u64>,
    /// Precomputed in [`PolicyBuilder::build`]: exactly the syscalls
    /// whose verdict could differ from "execute it raw".
    interest: InterestSet,
}

impl std::fmt::Debug for PolicyHandler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PolicyHandler")
            .field("default", &self.default)
            .finish()
    }
}

/// Builder for [`PolicyHandler`].
///
/// ```rust
/// use lp_interpose::PolicyBuilder;
/// use syscalls::nr;
///
/// let policy = PolicyBuilder::allow_by_default()
///     .deny(nr::EXECVE)
///     .deny(nr::FORK)
///     .build();
/// ```
#[derive(Debug)]
pub struct PolicyBuilder {
    default: Verdict,
    rules: Vec<(u64, Verdict)>,
    max_write_fd: Option<u64>,
}

impl PolicyBuilder {
    /// Start from "everything allowed" and deny selectively.
    pub fn allow_by_default() -> PolicyBuilder {
        PolicyBuilder {
            default: Verdict::Allow,
            rules: Vec::new(),
            max_write_fd: None,
        }
    }

    /// Start from "everything denied with `EPERM`" and allow selectively.
    pub fn deny_by_default() -> PolicyBuilder {
        PolicyBuilder {
            default: Verdict::Deny(Errno::EPERM),
            rules: Vec::new(),
            max_write_fd: None,
        }
    }

    /// Allows syscall `nr`.
    pub fn allow(mut self, nr: u64) -> PolicyBuilder {
        self.rules.push((nr, Verdict::Allow));
        self
    }

    /// Denies syscall `nr` with `EPERM`.
    pub fn deny(self, nr: u64) -> PolicyBuilder {
        self.deny_with(nr, Errno::EPERM)
    }

    /// Denies syscall `nr` with a chosen errno.
    pub fn deny_with(mut self, nr: u64, errno: Errno) -> PolicyBuilder {
        self.rules.push((nr, Verdict::Deny(errno)));
        self
    }

    /// Denies `write`/`pwrite64` to any fd ≥ `fd` (argument-level rule).
    pub fn deny_write_to_fd_at_or_above(mut self, fd: u64) -> PolicyBuilder {
        self.max_write_fd = Some(fd);
        self
    }

    /// Finalizes the policy.
    pub fn build(self) -> PolicyHandler {
        let mut per_nr: Vec<Option<Verdict>> = vec![None; MAX_SYSCALL_NR as usize];
        for &(nr, v) in &self.rules {
            if let Some(slot) = per_nr.get_mut(nr as usize) {
                *slot = Some(v);
            }
        }
        // The interest set is exact: a syscall the mechanism executes
        // raw (skipping this handler) behaves identically to one this
        // handler would wave through with `Action::Passthrough`. So
        // under allow-by-default only the denied numbers matter; under
        // deny-by-default everything matters *except* explicit allows.
        let mut interest = match self.default {
            Verdict::Allow => {
                let mut s = InterestSet::none();
                for (nr, v) in per_nr.iter().enumerate() {
                    if matches!(v, Some(Verdict::Deny(_))) {
                        s.insert(nr as u64);
                    }
                }
                s
            }
            Verdict::Deny(_) => {
                let mut s = InterestSet::all();
                for (nr, v) in per_nr.iter().enumerate() {
                    if matches!(v, Some(Verdict::Allow)) {
                        s.remove(nr as u64);
                    }
                }
                s
            }
        };
        // The argument-level write rule needs to see writes even when
        // the number-level verdict would be Allow.
        if self.max_write_fd.is_some() {
            interest.insert(syscalls::nr::WRITE);
            interest.insert(syscalls::nr::PWRITE64);
        }
        PolicyHandler {
            default: self.default,
            per_nr: per_nr.into_boxed_slice(),
            max_write_fd: self.max_write_fd,
            interest,
        }
    }
}

impl PolicyHandler {
    /// The verdict for a call, without side effects.
    pub fn decide(&self, event: &SyscallEvent) -> Action {
        if let Some(maxfd) = self.max_write_fd {
            let nr = event.call.nr;
            if (nr == syscalls::nr::WRITE || nr == syscalls::nr::PWRITE64)
                && event.call.args[0] >= maxfd
            {
                return Action::Fail(Errno::EBADF);
            }
        }
        let verdict = self
            .per_nr
            .get(event.call.nr as usize)
            .copied()
            .flatten()
            .unwrap_or(self.default);
        match verdict {
            Verdict::Allow => Action::Passthrough,
            Verdict::Deny(e) => Action::Fail(e),
        }
    }
}

impl SyscallHandler for PolicyHandler {
    fn handle(&self, event: &mut SyscallEvent) -> Action {
        self.decide(event)
    }

    fn name(&self) -> &str {
        "policy"
    }

    fn leaves_fp_env(&self) -> bool {
        true
    }

    fn interest(&self) -> InterestSet {
        self.interest
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syscalls::{nr, SyscallArgs};

    fn ev(nr: u64) -> SyscallEvent {
        SyscallEvent::new(SyscallArgs::nullary(nr))
    }

    #[test]
    fn allow_by_default_denies_listed() {
        let p = PolicyBuilder::allow_by_default()
            .deny(nr::EXECVE)
            .deny_with(nr::SOCKET, Errno::EACCES)
            .build();
        assert_eq!(p.handle(&mut ev(nr::READ)), Action::Passthrough);
        assert_eq!(p.handle(&mut ev(nr::EXECVE)), Action::Fail(Errno::EPERM));
        assert_eq!(p.handle(&mut ev(nr::SOCKET)), Action::Fail(Errno::EACCES));
    }

    #[test]
    fn deny_by_default_allows_listed() {
        let p = PolicyBuilder::deny_by_default()
            .allow(nr::READ)
            .allow(nr::WRITE)
            .allow(nr::EXIT_GROUP)
            .build();
        assert_eq!(p.handle(&mut ev(nr::READ)), Action::Passthrough);
        assert_eq!(p.handle(&mut ev(nr::OPEN)), Action::Fail(Errno::EPERM));
    }

    #[test]
    fn argument_level_rule() {
        let p = PolicyBuilder::allow_by_default()
            .deny_write_to_fd_at_or_above(3)
            .build();
        let mut stdout_write =
            SyscallEvent::new(SyscallArgs::new(nr::WRITE, [1, 0, 0, 0, 0, 0]));
        let mut file_write =
            SyscallEvent::new(SyscallArgs::new(nr::WRITE, [7, 0, 0, 0, 0, 0]));
        assert_eq!(p.handle(&mut stdout_write), Action::Passthrough);
        assert_eq!(p.handle(&mut file_write), Action::Fail(Errno::EBADF));
        // Other syscalls with large first args are untouched.
        let mut read = SyscallEvent::new(SyscallArgs::new(nr::READ, [7, 0, 0, 0, 0, 0]));
        assert_eq!(p.handle(&mut read), Action::Passthrough);
    }

    #[test]
    fn interest_is_precise() {
        use syscalls::MAX_SYSCALL_NR;

        let scoped = PolicyBuilder::allow_by_default().deny(nr::OPENAT).build();
        let i = scoped.interest();
        assert!(i.contains(nr::OPENAT));
        assert!(!i.contains(nr::GETPID));
        assert_eq!(i.len(), 1);

        // Redundant allow rules under allow-by-default add nothing.
        let noop = PolicyBuilder::allow_by_default().allow(nr::READ).build();
        assert!(noop.interest().is_empty());

        // Deny-by-default must see everything except explicit allows.
        let deny = PolicyBuilder::deny_by_default().allow(nr::READ).build();
        assert!(!deny.interest().contains(nr::READ));
        assert!(deny.interest().contains(nr::OPEN));
        assert_eq!(deny.interest().len(), MAX_SYSCALL_NR as usize - 1);

        // The argument-level write rule forces interest in writes even
        // when the number-level verdict allows them.
        let wr = PolicyBuilder::allow_by_default()
            .deny_write_to_fd_at_or_above(3)
            .build();
        assert!(wr.interest().contains(nr::WRITE));
        assert!(wr.interest().contains(nr::PWRITE64));
        assert_eq!(wr.interest().len(), 2);
    }

    #[test]
    fn out_of_range_numbers_use_default() {
        let allow = PolicyBuilder::allow_by_default().build();
        let deny = PolicyBuilder::deny_by_default().build();
        assert_eq!(allow.handle(&mut ev(100_000)), Action::Passthrough);
        assert_eq!(deny.handle(&mut ev(100_000)), Action::Fail(Errno::EPERM));
    }
}
