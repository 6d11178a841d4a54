//! Simulated userspace: libc flavours, coreutils, a JIT, and
//! benchmark loops.
//!
//! These are the guest programs the simulated experiments run:
//!
//! * [`libc`] — two C-library flavours reproducing the two real-world
//!   register-preservation hazards Table III found: glibc 2.31's
//!   pthread initialization keeps `xmm0` live across
//!   `set_tid_address`/`set_robust_list` (the paper's Listing 1), and
//!   glibc 2.39's `ptmalloc_init` keeps an `xmm` live across
//!   `getrandom`.
//! * [`coreutils`] — the ten utilities of Table III, as small guest
//!   programs linked against either libc flavour.
//! * [`jit`] — a tcc-like workload that emits a fresh `SYSCALL` at
//!   runtime (paper §V-A's exhaustiveness experiment).
//! * [`mod@bench`] — the syscall-500 microbenchmark loop (Table II).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod bench;
pub mod coreutils;
pub mod jit;
pub mod libc;

pub use coreutils::{Coreutil, COREUTILS};
pub use libc::LibcFlavor;
