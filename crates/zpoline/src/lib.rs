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
//! The pieces:
//!
//! * [`trampoline`] — maps/installs the page-zero trampoline and owns
//!   the asm entry stub, the per-thread block it reads, dispatcher
//!   registration and the gate ([`gate`]): the interposer's own
//!   `syscall` instructions, which SUD can be armed to let through,
//! * [`patcher`] — patches a single verified syscall site (used both by
//!   this crate's static mode and by lazypoline's lazy slow path),
//! * [`scanner`] — static discovery of syscall sites in the process
//!   image, with the exact exhaustiveness caveats the paper describes
//!   (§II-B): sites created *after* the scan are invisible, and byte
//!   scanning cannot distinguish instructions from data,
//! * [`sitelog`] — the addresses the slow path rewrote: with the file
//!   each executable mapping came from ([`Maps`]), a site as
//!   `(object, offset)`,
//! * [`maps`] — the one reader of the address space, for all of the
//!   above and for lazypoline's hardened backstop.
//!
//! # Requirements
//!
//! Mapping page zero requires `vm.mmap_min_addr = 0` (or
//! `CAP_SYS_RAWIO`); [`trampoline::Trampoline::install`] reports a
//! descriptive error otherwise and callers are expected to skip.

#![deny(missing_docs)]

pub mod disasm;
pub mod maps;
pub mod patcher;
pub mod scanner;
pub mod sitelog;
pub mod trampoline;

pub use patcher::{
    patch_page_sites, patch_page_sites_logged, patch_syscall_site, BatchOutcome, PatchError,
    PatchOutcome, RegionPerms,
};
pub use scanner::{
    exec_regions, find_syscall_sites, rewrite_process, rewrite_range, rewrite_sites, ExecRegion,
};
pub use maps::{FileMapping, Mapping, Maps};
pub use trampoline::{
    gate, gate_sigreturn, gate_syscall, resume_context, set_dispatcher, set_exits, set_record_late,
    set_xstate_mask, sigreturn_restorer, thread_block, DispatchFn, DispatchRow, ExitTable, RawFrame,
    RecordLateFn, ThreadBlock, Trampoline, XstateMask, RECORD_EXIT,
};
