//! **lazypoline** — exhaustive, expressive, and efficient syscall
//! interposition via hybrid lazy rewriting (DSN 2024).
//!
//! The design (paper §III) combines two mechanisms:
//!
//! * **Slow path** — Linux Syscall User Dispatch delivers `SIGSYS` for
//!   every syscall an enrolled thread executes outside one allowlisted
//!   code range, the interposer's own syscall gate ([`zpoline::gate`]),
//!   from which the engine issues every syscall of its own. SUD is armed
//!   with no selector byte, so nothing in the address space switches
//!   interposition off. The handler rewrites the faulting `syscall`
//!   instruction to `call rax` and resumes execution *at the rewritten
//!   instruction*, which transfers straight into the fast path (§IV-A:
//!   one shared syscall-handling implementation).
//! * **Fast path** — the zpoline trampoline at virtual address 0
//!   catches the `call rax`, preserves the full register file (plus
//!   SSE/AVX/x87 state, configurable), and invokes the dispatcher,
//!   which runs the registered [`interpose::SyscallHandler`].
//!
//! Because the kernel identifies every syscall instruction as it is
//! *first executed*, interposition is exhaustive — JIT-generated and
//! `dlopen`ed code included — while all subsequent executions of each
//! site pay only the rewriting-level cost.
//!
//! # Quick start
//!
//! ```no_run
//! use lazypoline::{init, Config};
//! use interpose::CountHandler;
//!
//! interpose::set_global_handler(Box::new(CountHandler::new()));
//! let _engine = init(Config::default())?;
//! // Every syscall on this thread is now interposed, forever.
//! std::fs::read_to_string("/etc/hostname").ok();
//! println!("interposed {} syscalls", lazypoline::stats().dispatches);
//! # Ok::<(), lazypoline::InitError>(())
//! ```
//!
//! # Process-global, one-way
//!
//! Initialization rewrites code in place and installs process-wide
//! state (trampoline page, `SIGSYS` disposition, signal wrappers).
//! There is no uninstall: dropping the [`Engine`] merely stops
//! intercepting *new* sites on this thread; already-rewritten sites
//! keep routing through the dispatcher (as passthrough when no handler
//! decides otherwise). Once the hardened backstop is armed
//! ([`harden::arm_backstop`]) not even that: the thread stays enrolled.

#![deny(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]

mod blocklist;
mod clone;
mod counters;
mod engine;
mod fastpath;
pub mod harden;
pub mod proven;
mod raw_internal;
mod signals;
mod slowpath;

pub use engine::{
    dispatches_by_number, health, init, init_strict, mode, slow_path_hits, stats,
    unenroll_current_thread, Config, Engine, Health, InitError, Mode,
};
pub use faultinject;
pub use harden::{BypassPolicy, HardenLevel};
pub use zpoline::XstateMask;

/// The per-thread flags the engine keeps in its thread block: every
/// caller reads and sets them through `zpoline::thread_block()`.
#[cfg(test)]
mod tls {
    mod tests {
        fn enrolled() -> bool {
            zpoline::thread_block().enrolled()
        }

        fn set_enrolled(v: bool) {
            zpoline::thread_block().set_enrolled(v)
        }

        #[test]
        fn enrollment_flag_roundtrip() {
            assert!(!enrolled());
            set_enrolled(true);
            assert!(enrolled());
            set_enrolled(false);
        }

        #[test]
        fn dispatch_guard_replace_semantics() {
            let block = zpoline::thread_block();
            assert!(!block.in_dispatch());
            assert!(!block.set_in_dispatch(true));
            assert!(block.in_dispatch());
            assert!(block.set_in_dispatch(false));
            assert!(!block.in_dispatch());
        }

        #[test]
        fn tls_is_per_thread() {
            set_enrolled(true);
            let other = std::thread::spawn(enrolled).join().unwrap();
            assert!(!other);
            set_enrolled(false);
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn public_types_are_send_sync_debug() {
        fn assert_traits<T: std::fmt::Debug + Send + Sync>() {}
        assert_traits::<super::Config>();
        assert_traits::<super::InitError>();
        assert_traits::<super::Health>();
        assert_traits::<super::Mode>();
    }
}
