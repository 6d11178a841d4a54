//! The paper's interposition mechanisms, implemented over the
//! simulator.
//!
//! Each [`Mechanism`] is realized as *guest code + kernel
//! configuration*, not as host-side shortcuts: the zpoline trampoline
//! is a real nop sled in guest page 0, SUD handlers are guest programs
//! that manipulate a guest selector byte, and the lazypoline slow path
//! patches guest code bytes through guest `mprotect` calls — so the
//! instructions a guest retires include everything the real mechanisms
//! execute. What they cost is measured natively (`table2`).
//!
//! | Mechanism | Kernel config | Guest code installed |
//! |---|---|---|
//! | `Baseline` | — | — |
//! | `Ptrace` | tracer logs every syscall | — |
//! | `SeccompBpf` | allow-all cBPF filter | — |
//! | `SeccompUser` | TRAP-unless-ip-in-handler filter | SIGSYS handler |
//! | `Sud` | — (guest-equivalent prctl) | SIGSYS handler + selector |
//! | `Zpoline` | — | trampoline; app code statically rewritten |
//! | `Lazypoline` | — | trampoline + SUD + lazy-rewriting handler |
//!
//! [`Interposed::observed_trace`] returns the syscalls the mechanism's
//! interposer actually saw, which is what the exhaustiveness
//! experiment (paper §V-A) compares across mechanisms.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod layout;
pub mod mechanism;
pub mod stubs;
pub mod traits;

pub use mechanism::{Interposed, Mechanism, SetupError};
pub use traits::{mechanism_traits, Efficiency, Expressiveness, Traits};
