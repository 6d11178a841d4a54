//! The simulated kernel: syscall dispatch and an in-memory filesystem.
//!
//! Together with [`sim_cpu`], this runs the guest programs of Table
//! III's analysis (`sim-pin`): coreutils over two old glibc flavours
//! that this host cannot run. It models no interposition mechanism;
//! every mechanism runs natively. The model is **single-task**: one
//! guest program per [`System`].
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
pub use kernel::{Kernel, KernelStats, SimError, System};
