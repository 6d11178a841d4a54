//! Syscall record & replay on top of exhaustive interposition.
//!
//! The paper's central guarantee — lazypoline intercepts *every*
//! syscall (§V-A) — is exactly the property record/replay systems need.
//! This crate turns it into a subsystem with three layers:
//!
//! 1. **Flight recorder** ([`ring`], [`RecordHandler`]): a
//!    [`SyscallHandler`](interpose::SyscallHandler) that mirrors every
//!    intercepted syscall into lock-free per-thread SPSC rings
//!    (drop-and-count on overflow; never perturbs the application).
//! 2. **Trace format** ([`format`](mod@format), [`codec`], [`spill`]): a
//!    [`Recorder`] session spills the rings into a versioned binary
//!    trace — by default a dedicated drain thread continuously sweeps
//!    the rings into the trace file in the compressed
//!    `LPTRACE3` encoding (delta tsc, dictionary sysno/site, varint
//!    args and ret written only where they differ from the last record
//!    from the same site), so producers keep up at full event rate with
//!    zero drops; `LPTRACE2` is written on request, and both
//!    generations read back transparently, with an strace-like
//!    [`dump_trace`] rendering built on the shared
//!    [`format_syscall_line`](interpose::format_syscall_line).
//! 3. **Deterministic replay** ([`ReplayHandler`]): re-runs a workload
//!    against its trace, re-injecting recorded results for
//!    nondeterministic syscalls ([`NONDETERMINISTIC`]) and raising a
//!    structured, counted [`Divergence`] — never a panic — when the
//!    execution departs from the script.
//!
//! The `lp-mechanism` registry exposes the ends of the pipe as
//! `"<base>+record"` and `"replay:<trace-path>"` backends; the
//! `lp-trace` binary is the command-line front end.

#![deny(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod codec;
mod drain;
mod event;
pub mod format;
mod record;
mod replay;
pub mod ring;
pub mod spill;
mod tsc;

pub use drain::on_drain_thread_start;
pub use event::EventRecord;
pub use format::{
    dump_trace, read_trace, read_trace_path, render_record, TraceError, TraceHeader, TraceWriter,
    HEADER_SIZE, MAGIC2, MAGIC3, VERSION2, VERSION3,
};
pub use record::{
    events_dropped, events_recorded, events_spilled, record_call, DrainMode, RecordHandler,
    RecordSummary, Recorder, DRAIN_ENV,
};
pub use replay::{
    is_nondeterministic, replay_divergences, Divergence, DivergenceKind, ReplayFailure,
    ReplayHandler, ReplayState, NONDETERMINISTIC,
};
