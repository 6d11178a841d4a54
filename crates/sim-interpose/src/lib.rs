//! The lazypoline hybrid, implemented over the simulator.
//!
//! The hybrid is realized as *guest code + kernel configuration*, not
//! as host-side shortcuts: the trampoline is a real nop sled in guest
//! page 0, the slow path is a guest SIGSYS handler that patches guest
//! code bytes through guest `mprotect` calls, and the selector is a
//! guest byte the kernel reads on every syscall — so the instructions
//! a guest retires include everything the real mechanism executes.
//! What it costs is measured natively (`table2`), as is every other
//! mechanism of Table I.
//!
//! | Kernel config | Guest code installed |
//! |---|---|
//! | selector-only SUD, no allowlisted range | trampoline (xstate-preserving) + lazy-rewriting SIGSYS handler |
//!
//! It is the one mechanism the simulator keeps, for what native code
//! cannot do: stage the §VI attack on the paper's selector design (no
//! native engine has a selector any more), and run guest programs
//! deterministically under the `sim:lazypoline` registry row (the
//! record/replay and SFIP traces).
//! [`Interposed::observed_trace`] returns the syscalls the interposer
//! actually saw.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod layout;
pub mod mechanism;
pub mod stubs;

pub use mechanism::{Interposed, SetupError};
