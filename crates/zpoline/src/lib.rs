//! zpoline-style binary rewriting for syscall interposition.
//!
//! This crate reimplements the fast-path machinery of
//! [zpoline (USENIX ATC'23)](https://github.com/yasukata/zpoline), as the
//! lazypoline paper does (§IV-B): the 2-byte `syscall` instruction is
//! replaced in place with the 2-byte `call rax` instruction, and virtual
//! address 0 hosts a trampoline whose first [`syscalls::MAX_SYSCALL_NR`]
//! bytes are a sled. Because the syscall calling convention keeps the
//! syscall number in `rax`, the `call rax` lands inside the sled and
//! hops into an assembly entry stub that either issues a syscall nobody
//! asked to see on the spot, or preserves the full register image,
//! saves the live part of the extended state, and calls a registered
//! dispatcher.
//!
//! Three pieces compose:
//!
//! * [`trampoline`] — maps/installs the page-zero trampoline and owns
//!   the asm entry stub, the per-thread block it reads and dispatcher
//!   registration,
//! * [`patcher`] — patches a single verified syscall site (used both by
//!   this crate's static mode and by lazypoline's lazy slow path),
//! * [`scanner`] — static discovery of syscall sites in the process
//!   image, with the exact exhaustiveness caveats the paper describes
//!   (§II-B): sites created *after* the scan are invisible, and byte
//!   scanning cannot distinguish instructions from data.
//!
//! # Requirements
//!
//! Mapping page zero requires `vm.mmap_min_addr = 0` (or
//! `CAP_SYS_RAWIO`); [`trampoline::Trampoline::install`] reports a
//! descriptive error otherwise and callers are expected to skip.

#![deny(missing_docs)]

pub mod disasm;
pub mod patcher;
pub mod scanner;
pub mod trampoline;

pub use patcher::{patch_page_sites, patch_syscall_site, BatchOutcome, PatchError, PatchOutcome};
pub use scanner::{exec_regions, find_syscall_sites, rewrite_process, rewrite_range, ExecRegion};
pub use trampoline::{
    set_dispatcher, set_miss_exit, set_xstate_mask, thread_block, DispatchFn, MissExit, RawFrame,
    ThreadBlock, Trampoline, XstateMask,
};
