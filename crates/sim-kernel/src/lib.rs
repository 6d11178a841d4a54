//! The simulated kernel: syscall dispatch, SUD, signals, and an
//! in-memory filesystem.
//!
//! Together with [`sim_cpu`], this forms the substrate on which the
//! paper's kernel-interface mechanisms are reproduced deterministically:
//! what each one observes and executes, not what it costs (`table2`
//! measures that natively). seccomp and ptrace are not modelled: their
//! rows of Tables I and II are native.
//! The model is **single-task**: one guest program per [`System`].
//! That covers every simulated experiment in the suite
//! (microbenchmarks, coreutils for the Table III analysis, the JIT
//! exhaustiveness workload); multi-process behaviour (`fork`, threads,
//! `execve`) is exercised natively by the `lazypoline` crate instead,
//! where the real kernel provides it.
//!
//! The kernel entry path mirrors the paper's Figure 1: on every
//! `SYSCALL` event the kernel consults — in order — Syscall User
//! Dispatch (reading the guest selector byte from guest memory,
//! exactly like the real implementation reads userspace), and only
//! then dispatches to the syscall table.
//!
//! # Example
//!
//! ```rust
//! use sim_cpu::{asm::Asm, reg::Gpr};
//! use lp_sim_kernel::{sysno, System};
//!
//! let prog = Asm::new()
//!     .mov_ri(Gpr::R0, sysno::GETPID)
//!     .syscall()
//!     .mov_ri(Gpr::R0, sysno::EXIT_GROUP)
//!     .mov_ri(Gpr::R1, 0)
//!     .syscall()
//!     .assemble()?;
//! let mut sys = System::new();
//! sys.load_program(&prog)?;
//! let exit = sys.run()?;
//! assert_eq!(exit, 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod fs;
pub mod kernel;
pub mod sysno;

pub use fs::Fs;
pub use kernel::{Kernel, KernelStats, SimError, SudConfig, System};
