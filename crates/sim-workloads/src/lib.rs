//! Simulated userspace: libc flavours and coreutils.
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

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod coreutils;
pub mod libc;

pub use coreutils::{Coreutil, COREUTILS};
pub use libc::LibcFlavor;
