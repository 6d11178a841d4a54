//! The interposer API shared by every interposition mechanism in the
//! suite (lazypoline, zpoline, SUD-only).
//!
//! An interposer implements [`SyscallHandler`]; the mechanism invokes
//! [`SyscallHandler::handle`] for every intercepted syscall and acts on
//! the returned [`Action`]. Handlers run **on the application thread,
//! potentially interrupting arbitrary code** (including a syscall made
//! from inside `malloc`), so the hot path must be allocation-free; every
//! stock handler in this crate honours that.
//!
//! # Example
//!
//! ```rust
//! use lp_interpose::{Action, CountHandler, SyscallHandler, SyscallEvent};
//! use syscalls::{nr, SyscallArgs};
//!
//! let counter = CountHandler::new();
//! let mut ev = SyscallEvent::new(SyscallArgs::nullary(nr::GETPID));
//! assert_eq!(counter.handle(&mut ev), Action::Passthrough);
//! assert_eq!(counter.count(nr::GETPID), 1);
//! ```

#![deny(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]

mod count;
mod interest;
mod latency;
mod policy;
mod registry;
mod remap;
mod stack;
mod stats;
mod trace;

pub use count::{busiest, CountHandler};
pub use interest::InterestSet;
pub use latency::{LatencyHandler, LATENCY_BUCKETS};
pub use policy::{PolicyBuilder, PolicyHandler};
pub use registry::{
    exit, exit_byte, global_handler, global_interested, install_handler, interpose_event,
    interpose_syscall, quarantined_handlers, set_global_handler, set_routed, HandlerGuard, EXITS,
};
pub use remap::{PathRemapHandler, MAX_PATH};
pub use stack::{hook_dispatches, HookStack};
pub use stats::StatsSnapshot;
pub use trace::{format_syscall_line, TraceHandler, TraceSink};

use syscalls::{Errno, SyscallArgs};

/// What the mechanism should do with an intercepted syscall.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Action {
    /// Execute the (possibly modified) syscall and return its result —
    /// the paper's "dummy" interposition used for all benchmarks.
    Passthrough,
    /// Do not execute; return this value to the application.
    Return(u64),
    /// Do not execute; fail with `-errno`.
    Fail(Errno),
}

impl Action {
    /// Encodes `Return`/`Fail` as the raw `rax` value; `None` for
    /// `Passthrough`.
    pub fn as_ret(&self) -> Option<u64> {
        match self {
            Action::Passthrough => None,
            Action::Return(v) => Some(*v),
            Action::Fail(e) => Some(e.as_ret()),
        }
    }
}

/// One intercepted syscall, as presented to a handler.
///
/// `call` is mutable: handlers may rewrite the number or arguments
/// before a `Passthrough` ("inspect and modify the syscall number,
/// arguments", paper §II-A).
#[derive(Debug)]
pub struct SyscallEvent {
    /// The syscall about to be executed (mutable for rewriting).
    pub call: SyscallArgs,
    /// Return address of the invocation site, when the mechanism knows
    /// it (0 otherwise). Lets handlers attribute syscalls to code.
    pub site: usize,
}

impl SyscallEvent {
    /// Creates an event with no site attribution.
    #[inline]
    pub fn new(call: SyscallArgs) -> SyscallEvent {
        SyscallEvent { call, site: 0 }
    }

    /// Creates an event attributed to a code address.
    #[inline]
    pub fn with_site(call: SyscallArgs, site: usize) -> SyscallEvent {
        SyscallEvent { call, site }
    }
}

/// A syscall interposer.
///
/// # Contract
///
/// `handle` executes on the application thread with interposition
/// temporarily disabled for its own syscalls. It must not allocate on
/// the heap, panic, or block on locks that application code might hold.
/// A panic that happens anyway is contained rather than fatal: the
/// registry quarantines the handler and subsequent syscalls pass
/// through uninterposed (see [`quarantined_handlers`]).
pub trait SyscallHandler: Send + Sync {
    /// Decides what to do with one intercepted syscall.
    fn handle(&self, event: &mut SyscallEvent) -> Action;

    /// Observes (and may rewrite) the result after a `Passthrough`
    /// executed — the "modify the return value" capability ptrace
    /// offers (paper §II-A), on the fast path. Not called for
    /// `Return`/`Fail` decisions. Default: return `ret` unchanged.
    fn post(&self, event: &SyscallEvent, ret: u64) -> u64 {
        let _ = event;
        ret
    }

    /// Human-readable name for reports and experiment tables.
    fn name(&self) -> &str {
        "handler"
    }

    /// The syscall numbers this handler wants delivered.
    ///
    /// Mechanisms consult this **once at registration time** (the set
    /// is stored in the registry's exit table) and skip the handler —
    /// no event construction, no virtual call, no post hook — for
    /// numbers outside it. Handlers that inspect everything keep the
    /// default; handlers scoped to specific syscalls (policies,
    /// fd redirectors, path remappers) return a precise set so the
    /// mechanism's fast path stays near raw-syscall cost for the rest.
    fn interest(&self) -> InterestSet {
        InterestSet::all()
    }

    /// Whether `handle` and `post` leave the x87 unit and `MXCSR` as
    /// they found them: they execute no x87 or MMX instruction and never
    /// change `MXCSR`, its sticky exception flags included — so no
    /// floating-point arithmetic, and no FFI or asm that does any. The
    /// vector registers are not part of the promise: the mechanisms save
    /// those whatever this says.
    ///
    /// A `true` lets lazypoline's entry stub skip restoring x87 and
    /// `MXCSR` after a dispatch that called this handler (the "declared
    /// exit", `zpoline::trampoline`'s "ABI fidelity" docs); a wrong
    /// `true` leaks the handler's floating-point state into the
    /// application. Read once, at registration, like
    /// [`SyscallHandler::interest`]. Default: `false`. The stock handlers
    /// of this crate declare it, and a wrapper — a [`HookStack`]
    /// included — declares it when everything it wraps does.
    fn leaves_fp_env(&self) -> bool {
        false
    }

    /// The numbers whose calls this handler leaves alone: `handle`
    /// answers `Passthrough` and touches neither the event nor anything
    /// else, and `post` returns the result as it came. A mechanism may
    /// then serve such a call without calling the handler at all.
    ///
    /// A recorder answers with what the handler it wraps leaves alone:
    /// the numbers it only records. lazypoline's entry stub serves those
    /// by itself on a thread that holds a record window, appending the
    /// record the recorder would have written (the record exit,
    /// `zpoline::trampoline`'s module docs). Read at registration, like
    /// [`SyscallHandler::interest`]. Default: none. A [`HookStack`]
    /// leaves alone what every entry leaves alone.
    fn leaves_alone(&self) -> InterestSet {
        InterestSet::none()
    }
}

/// The identity interposer: passes every syscall through untouched.
/// This is the configuration benchmarked throughout the paper's §V.
#[derive(Debug, Default, Clone, Copy)]
pub struct PassthroughHandler;

impl SyscallHandler for PassthroughHandler {
    fn handle(&self, _event: &mut SyscallEvent) -> Action {
        Action::Passthrough
    }

    fn name(&self) -> &str {
        "passthrough"
    }

    fn leaves_fp_env(&self) -> bool {
        true
    }

    fn leaves_alone(&self) -> InterestSet {
        InterestSet::all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syscalls::nr;

    #[test]
    fn action_encoding() {
        assert_eq!(Action::Passthrough.as_ret(), None);
        assert_eq!(Action::Return(7).as_ret(), Some(7));
        assert_eq!(Action::Fail(Errno::EPERM).as_ret(), Some((-1i64) as u64));
    }

    #[test]
    fn passthrough_never_intervenes() {
        let h = PassthroughHandler;
        for nr in [nr::READ, nr::WRITE, nr::EXECVE, 500] {
            let mut ev = SyscallEvent::new(SyscallArgs::nullary(nr));
            assert_eq!(h.handle(&mut ev), Action::Passthrough);
        }
        assert_eq!(h.name(), "passthrough");
    }

    #[test]
    fn the_stock_handlers_declare_they_leave_the_fp_env_alone() {
        let stock: [Box<dyn SyscallHandler>; 6] = [
            Box::new(PassthroughHandler),
            Box::new(CountHandler::new()),
            Box::new(TraceHandler::with_sink(TraceSink::Null)),
            Box::new(LatencyHandler::new()),
            Box::new(PolicyBuilder::allow_by_default().build()),
            Box::new(PathRemapHandler::new()),
        ];
        for h in &stock {
            assert!(h.leaves_fp_env(), "{}", h.name());
        }

        // Unsaid means no; a stack says what all its entries say.
        struct Silent;
        impl SyscallHandler for Silent {
            fn handle(&self, _event: &mut SyscallEvent) -> Action {
                Action::Passthrough
            }
        }
        assert!(!Silent.leaves_fp_env());
        assert!(HookStack::new().leaves_fp_env(), "an empty stack declares it");
        let declaring = HookStack::new();
        declaring.attach(Box::new(PassthroughHandler), 0);
        declaring.attach_dynamic(Box::new(CountHandler::new()), 5);
        assert!(declaring.leaves_fp_env());
        let mixed = HookStack::new();
        mixed.attach(Box::new(PassthroughHandler), 0);
        mixed.attach(Box::new(Silent), 1);
        assert!(!mixed.leaves_fp_env(), "one undeclared entry says no");
    }

    #[test]
    fn event_site_attribution() {
        let ev = SyscallEvent::with_site(SyscallArgs::nullary(nr::GETPID), 0x1234);
        assert_eq!(ev.site, 0x1234);
        assert_eq!(SyscallEvent::new(SyscallArgs::nullary(0)).site, 0);
    }
}
