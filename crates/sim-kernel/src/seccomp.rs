//! A classic-BPF-shaped filter VM for the simulated seccomp.
//!
//! Real seccomp filters are cBPF bytecode over `struct seccomp_data`
//! (`nr`, `instruction_pointer`, `args[6]`). This module models that
//! with a typed instruction set over the same data — deliberately
//! keeping cBPF's *limits*: filters can compare the accumulator with
//! constants and branch, but cannot dereference pointers, which is
//! exactly the expressiveness ceiling the paper's Table I assigns to
//! seccomp-bpf.

/// Data available to a filter (mirrors `struct seccomp_data`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SeccompData {
    /// Syscall number.
    pub nr: u64,
    /// Address of the instruction *after* the `SYSCALL`.
    pub instruction_pointer: u64,
    /// The six argument registers.
    pub args: [u64; 6],
}

/// Filter instructions (cBPF-shaped: accumulator machine).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BpfInsn {
    /// `A ← nr`.
    LdNr,
    /// `A ← instruction_pointer`.
    LdIp,
    /// `A ← args[i]` (i < 6).
    LdArg(u8),
    /// If `A == k` jump `jt` instructions forward, else `jf`.
    JeqK {
        /// Comparison constant.
        k: u64,
        /// Jump-if-true displacement.
        jt: u8,
        /// Jump-if-false displacement.
        jf: u8,
    },
    /// If `A >= k` jump `jt`, else `jf` (unsigned).
    JgeK {
        /// Comparison constant.
        k: u64,
        /// Jump-if-true displacement.
        jt: u8,
        /// Jump-if-false displacement.
        jf: u8,
    },
    /// Terminate with an action.
    Ret(BpfAction),
}

/// Filter verdicts (the seccomp action subset the suite models).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BpfAction {
    /// Execute the syscall (SECCOMP_RET_ALLOW).
    Allow,
    /// Fail with errno without executing (SECCOMP_RET_ERRNO).
    Errno(u16),
    /// Deliver SIGSYS to the task (SECCOMP_RET_TRAP) — the
    /// "seccomp-user" deferral of Table I.
    Trap,
    /// Kill the task (SECCOMP_RET_KILL).
    Kill,
}

/// A validated filter program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BpfProgram {
    insns: Vec<BpfInsn>,
}

/// Program validation errors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BpfError {
    /// Empty program.
    Empty,
    /// A jump target lies past the end.
    JumpOutOfRange {
        /// Index of the offending instruction.
        at: usize,
    },
    /// `LdArg` index ≥ 6.
    BadArgIndex {
        /// Index of the offending instruction.
        at: usize,
    },
    /// Execution can fall off the end (last insn must be `Ret`).
    NoTerminator,
}

impl std::fmt::Display for BpfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BpfError::Empty => write!(f, "empty filter"),
            BpfError::JumpOutOfRange { at } => write!(f, "jump out of range at {at}"),
            BpfError::BadArgIndex { at } => write!(f, "bad argument index at {at}"),
            BpfError::NoTerminator => write!(f, "program may fall off the end"),
        }
    }
}

impl std::error::Error for BpfError {}

impl BpfProgram {
    /// Validates and wraps a program (like the kernel's checker:
    /// forward-only jumps, in-range targets, guaranteed termination).
    ///
    /// # Errors
    ///
    /// See [`BpfError`].
    pub fn new(insns: Vec<BpfInsn>) -> Result<BpfProgram, BpfError> {
        if insns.is_empty() {
            return Err(BpfError::Empty);
        }
        for (at, insn) in insns.iter().enumerate() {
            match insn {
                BpfInsn::JeqK { jt, jf, .. } | BpfInsn::JgeK { jt, jf, .. } => {
                    for d in [jt, jf] {
                        if at + 1 + *d as usize > insns.len() - 1 {
                            return Err(BpfError::JumpOutOfRange { at });
                        }
                    }
                }
                BpfInsn::LdArg(i) if *i >= 6 => return Err(BpfError::BadArgIndex { at }),
                _ => {}
            }
        }
        if !matches!(insns.last(), Some(BpfInsn::Ret(_))) {
            return Err(BpfError::NoTerminator);
        }
        Ok(BpfProgram { insns })
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.insns.len()
    }

    /// Whether the program is empty (never true for validated ones).
    pub fn is_empty(&self) -> bool {
        self.insns.is_empty()
    }

    /// Runs the filter; returns the verdict and the number of
    /// instructions executed.
    pub fn run(&self, data: &SeccompData) -> (BpfAction, u64) {
        let mut a: u64 = 0;
        let mut pc = 0usize;
        let mut executed = 0u64;
        loop {
            executed += 1;
            match self.insns[pc] {
                BpfInsn::LdNr => {
                    a = data.nr;
                    pc += 1;
                }
                BpfInsn::LdIp => {
                    a = data.instruction_pointer;
                    pc += 1;
                }
                BpfInsn::LdArg(i) => {
                    a = data.args[i as usize];
                    pc += 1;
                }
                BpfInsn::JeqK { k, jt, jf } => {
                    pc += 1 + if a == k { jt as usize } else { jf as usize };
                }
                BpfInsn::JgeK { k, jt, jf } => {
                    pc += 1 + if a >= k { jt as usize } else { jf as usize };
                }
                BpfInsn::Ret(action) => return (action, executed),
            }
        }
    }

    /// The classic allow-everything filter (the paper's seccomp-bpf
    /// "interposition" baseline: in-kernel, fast, but expressionless).
    pub fn allow_all() -> BpfProgram {
        BpfProgram::new(vec![BpfInsn::Ret(BpfAction::Allow)]).unwrap()
    }

    /// A filter that TRAPs every syscall except those whose
    /// instruction pointer lies in `[start, end)` — the "filter on the
    /// code address of the syscall invocation" pattern the paper
    /// describes for seccomp-based userspace deferral (§IV-A(a)).
    pub fn trap_all_except_ip_range(start: u64, end: u64) -> BpfProgram {
        BpfProgram::new(vec![
            BpfInsn::LdIp,
            BpfInsn::JgeK { k: start, jt: 0, jf: 2 },
            BpfInsn::JgeK { k: end, jt: 1, jf: 0 },
            BpfInsn::Ret(BpfAction::Allow),
            BpfInsn::Ret(BpfAction::Trap),
        ])
        .unwrap()
    }

    /// A deny-list filter: `Errno(EPERM)` for the listed numbers,
    /// allow otherwise.
    pub fn deny_numbers(numbers: &[u64]) -> BpfProgram {
        let mut insns = vec![BpfInsn::LdNr];
        let n = numbers.len();
        for (i, &nr) in numbers.iter().enumerate() {
            // This Jeq sits at index i+1; the shared deny Ret sits at
            // index n+2. On match: (i+1) + 1 + jt = n + 2.
            let jt = (n - i) as u8;
            insns.push(BpfInsn::JeqK { k: nr, jt, jf: 0 });
        }
        insns.push(BpfInsn::Ret(BpfAction::Allow));
        insns.push(BpfInsn::Ret(BpfAction::Errno(1)));
        BpfProgram::new(insns).unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(nr: u64, ip: u64) -> SeccompData {
        SeccompData {
            nr,
            instruction_pointer: ip,
            args: [0; 6],
        }
    }

    #[test]
    fn allow_all_allows() {
        let p = BpfProgram::allow_all();
        assert_eq!(p.run(&data(1, 0)).0, BpfAction::Allow);
        assert_eq!(p.run(&data(500, 0)).0, BpfAction::Allow);
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn ip_range_filter() {
        let p = BpfProgram::trap_all_except_ip_range(0x1000, 0x2000);
        assert_eq!(p.run(&data(1, 0x1500)).0, BpfAction::Allow);
        assert_eq!(p.run(&data(1, 0x0500)).0, BpfAction::Trap);
        assert_eq!(p.run(&data(1, 0x2000)).0, BpfAction::Trap);
        assert_eq!(p.run(&data(1, 0x1000)).0, BpfAction::Allow);
    }

    #[test]
    fn deny_list_filter() {
        let p = BpfProgram::deny_numbers(&[59, 41]);
        assert_eq!(p.run(&data(59, 0)).0, BpfAction::Errno(1));
        assert_eq!(p.run(&data(41, 0)).0, BpfAction::Errno(1));
        assert_eq!(p.run(&data(0, 0)).0, BpfAction::Allow);
    }

    #[test]
    fn instruction_counting() {
        let p = BpfProgram::allow_all();
        assert_eq!(p.run(&data(0, 0)).1, 1);
        let p = BpfProgram::deny_numbers(&[1, 2, 3]);
        // Miss all three: LdNr + 3 Jeq + Ret = 5.
        assert_eq!(p.run(&data(9, 0)).1, 5);
        // Hit the first: LdNr + Jeq + Ret = 3.
        assert_eq!(p.run(&data(1, 0)).1, 3);
    }

    #[test]
    fn validation_rejects_bad_programs() {
        assert_eq!(BpfProgram::new(vec![]), Err(BpfError::Empty));
        assert_eq!(
            BpfProgram::new(vec![BpfInsn::LdNr]),
            Err(BpfError::NoTerminator)
        );
        assert_eq!(
            BpfProgram::new(vec![BpfInsn::LdArg(9), BpfInsn::Ret(BpfAction::Allow)]),
            Err(BpfError::BadArgIndex { at: 0 })
        );
        assert!(matches!(
            BpfProgram::new(vec![
                BpfInsn::JeqK { k: 0, jt: 9, jf: 0 },
                BpfInsn::Ret(BpfAction::Allow)
            ]),
            Err(BpfError::JumpOutOfRange { at: 0 })
        ));
        // A jump may land on the last instruction, and not one past it.
        let jump_by = |jt: u8| {
            BpfProgram::new(vec![
                BpfInsn::JeqK { k: 0, jt, jf: 0 },
                BpfInsn::Ret(BpfAction::Trap),
                BpfInsn::Ret(BpfAction::Allow),
            ])
        };
        assert!(jump_by(1).is_ok());
        assert_eq!(jump_by(2), Err(BpfError::JumpOutOfRange { at: 0 }));
    }

    #[test]
    fn arg_filters() {
        // deny write(fd>=3): LdNr, Jeq(1)?continue:allow, LdArg0, Jge(3)?deny:allow
        let p = BpfProgram::new(vec![
            BpfInsn::LdNr,
            BpfInsn::JeqK { k: 1, jt: 0, jf: 2 },
            BpfInsn::LdArg(0),
            BpfInsn::JgeK { k: 3, jt: 1, jf: 0 },
            BpfInsn::Ret(BpfAction::Allow),
            BpfInsn::Ret(BpfAction::Errno(9)),
        ])
        .unwrap();
        let mut d = data(1, 0);
        d.args[0] = 1;
        assert_eq!(p.run(&d).0, BpfAction::Allow);
        d.args[0] = 5;
        assert_eq!(p.run(&d).0, BpfAction::Errno(9));
        let mut d = data(0, 0);
        d.args[0] = 5;
        assert_eq!(p.run(&d).0, BpfAction::Allow);
    }
}
