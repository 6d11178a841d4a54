//! Syscall-flow integrity (SFIP) learned from recorded traces.
//!
//! Following SFIP (Canella et al.) — coarse-grained syscall-flow
//! integrity with one-table-lookup enforcement — this crate closes the
//! loop between the suite's flight recorder and its interposition fast
//! path:
//!
//! 1. **Learning pass** ([`Policy::learn`]): folds one or more recorded
//!    traces (either generation, `LPTRACE2` or `LPTRACE3`) into a
//!    syscall-transition automaton —
//!    an N×N bitmatrix over sysno pairs (N = 512, one cache line per
//!    row) plus optional per-sysno origin-site sets taken from the
//!    trace's invocation sites. Transitions are folded **per thread**:
//!    an interleaved multi-thread trace never manufactures cross-thread
//!    edges.
//! 2. **On-disk policy** ([`Policy::save`] / [`Policy::load`]): the
//!    versioned `LPSFIP1` format — a 64-byte header, the 32 KiB
//!    bitmatrix, and varint-encoded origin sets reusing the trace
//!    codec. All load failures are a typed [`PolicyError`].
//! 3. **Enforcement** ([`SfipHandler`]): a
//!    [`SyscallHandler`](interpose::SyscallHandler) wrapper whose fast
//!    path is one per-thread last-sysno load plus one bitmatrix bit
//!    test. Violations follow the [`ViolationAction`] ladder: `kill` (raw
//!    `SIGKILL` + `exit_group(137)`, mirroring the hardened engine's
//!    bypass policy), `quarantine` (disable enforcement, keep passing
//!    through — like hook panic quarantine), or `count` (audit mode:
//!    record and continue enforcing — the mode to run first in
//!    production).
//!
//! The `lp-mechanism` registry wires this up as `"<base>+sfip"` with
//! `LP_SFIP_POLICY=<path>` and `LP_SFIP_POLICY_ACTION=kill|quarantine|count`;
//! `lp-trace learn` / `lp-trace policy-dump` are the command-line front
//! end.

#![deny(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]

mod handler;
mod policy;

pub use handler::{checks, mode_name, violations, SfipHandler, ViolationAction, NO_PREV};
pub use policy::{
    fold_transitions, Policy, PolicyError, TransitionStats, HEADER_SIZE, MAGIC, MATRIX_BYTES,
    MATRIX_WORDS, ROW_WORDS, VERSION,
};

/// Names the `LPSFIP1` policy an `"<base>+sfip"` install enforces.
pub const POLICY_ENV: &str = "LP_SFIP_POLICY";

/// Selects the [`ViolationAction`] by name.
pub const ACTION_ENV: &str = "LP_SFIP_POLICY_ACTION";

/// `1`: a syscall must also come from a site the trace recorded for its
/// number. Site addresses hold within the process that learned them.
pub const ORIGINS_ENV: &str = "LP_SFIP_ORIGINS";
