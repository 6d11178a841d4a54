//! Per-thread interposition state.
//!
//! The paper keeps per-task state in `%gs`-relative memory regions so
//! that the entry stub reaches it without spilling an application
//! register (§IV-A, §IV-B(a)). Here that region starts with
//! [`zpoline::ThreadBlock`], a cache line of initial-exec TLS declared
//! next to the stub: the two flags below live in it (with the selector
//! address, the dispatch-counter slot and the exit selector), because
//! the stub must read them and a Rust `thread_local!` is something no
//! assembly can name. The sigreturn stack only Rust touches, so it
//! stays a `const`-initialized thread-local: a plain TLS access with no
//! lazy-initialization branch, safe from signal handlers and from the
//! dispatcher.

use std::cell::UnsafeCell;

use crate::counters;

/// Maximum depth of nested signal deliveries whose selector state we
/// can track. 64 nested signals on one thread would already mean a
/// runaway handler.
pub(crate) const SIGRETURN_STACK_DEPTH: usize = 64;

/// One saved `(selector, resume rip)` pair — pushed when a wrapped
/// application signal handler is entered, popped by the sigreturn
/// trampoline (paper Fig. 3 steps ① and ④).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(C)]
pub(crate) struct SigreturnEntry {
    /// Raw selector byte to restore (widened for alignment).
    pub selector: u64,
    /// Where the application should resume.
    pub rip: u64,
}

#[repr(C)]
pub(crate) struct SigreturnStack {
    pub idx: usize,
    pub entries: [SigreturnEntry; SIGRETURN_STACK_DEPTH],
}

thread_local! {
    /// The per-thread sigreturn stack (paper §IV-B(c)).
    static SRSTACK: UnsafeCell<SigreturnStack> = const {
        UnsafeCell::new(SigreturnStack {
            idx: 0,
            entries: [SigreturnEntry { selector: 0, rip: 0 }; SIGRETURN_STACK_DEPTH],
        })
    };
}

/// Whether this thread asked for interposition.
pub(crate) fn enrolled() -> bool {
    zpoline::thread_block().enrolled()
}

pub(crate) fn set_enrolled(v: bool) {
    zpoline::thread_block().set_enrolled(v);
}

/// Re-entrancy guard: set while the dispatcher runs handler code,
/// cleared across application signal-handler invocations (which must
/// be interposed normally).
pub(crate) fn in_dispatch() -> bool {
    zpoline::thread_block().in_dispatch()
}

pub(crate) fn set_in_dispatch(v: bool) -> bool {
    zpoline::thread_block().set_in_dispatch(v)
}

/// Ends a dispatch: the selector becomes what the block says a dispatch
/// ending now must leave behind — BLOCK for an enrolled thread at top
/// level, ALLOW under a running handler (whose own syscalls follow) or
/// when not enrolled. The one exit rule, for every way out of the
/// dispatcher and for the stub's miss exit alike.
#[inline]
pub(crate) fn leave_dispatch() {
    // The block only ever derives ALLOW or BLOCK, so this cannot panic.
    sud::set_selector(sud::Dispatch::from_byte(zpoline::thread_block().exit_selector()));
}

/// Arms the stub's miss exit for the calling thread, at enrolment: from
/// here on a syscall nobody asked to see leaves from the entry stub. A
/// thread whose selector is on the pkey slab is never armed — its
/// selector takes a `WRPKRU` bracket to write, and its syscalls must
/// come from the gate page.
pub(crate) fn arm_stub_exit() {
    let block = zpoline::thread_block();
    if sud::pkey::adopted_slot().is_null() {
        // SAFETY: `selector_ptr` is the byte `sud::enable_thread` hands
        // the kernel for this thread, in plain TLS (no slot was
        // adopted), and stable for the thread's lifetime;
        // `harden::prepare_pkey` disarms the block when it moves the
        // selector afterwards.
        unsafe { block.arm(sud::selector_ptr(), counters::slot(&counters::DISPATCHES)) };
    } else {
        block.disarm();
    }
}

/// Pushes a `(selector, rip)` pair for the sigreturn trampoline.
///
/// Returns `false` on overflow (the caller then falls back to leaving
/// the selector at BLOCK, which is safe: at worst one extra slow-path
/// round trip).
pub(crate) fn push_sigreturn(selector: u8, rip: u64) -> bool {
    SRSTACK.with(|s| {
        // SAFETY: single-threaded access (TLS); signal nesting is
        // strictly stack-like on one thread.
        let st = unsafe { &mut *s.get() };
        if st.idx >= SIGRETURN_STACK_DEPTH {
            return false;
        }
        st.entries[st.idx] = SigreturnEntry {
            selector: selector as u64,
            rip,
        };
        st.idx += 1;
        true
    })
}

/// Pops the most recent `(selector, rip)` pair; `None` when empty.
pub(crate) fn pop_sigreturn() -> Option<SigreturnEntry> {
    SRSTACK.with(|s| {
        let st = unsafe { &mut *s.get() };
        if st.idx == 0 {
            return None;
        }
        st.idx -= 1;
        Some(st.entries[st.idx])
    })
}

/// Current sigreturn-stack depth (for tests and stats).
#[cfg(test)]
pub(crate) fn sigreturn_depth() -> usize {
    SRSTACK.with(|s| unsafe { &*s.get() }.idx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enrollment_flag_roundtrip() {
        assert!(!enrolled());
        set_enrolled(true);
        assert!(enrolled());
        set_enrolled(false);
    }

    #[test]
    fn dispatch_guard_replace_semantics() {
        assert!(!in_dispatch());
        assert!(!set_in_dispatch(true));
        assert!(in_dispatch());
        assert!(set_in_dispatch(false));
        assert!(!in_dispatch());
    }

    #[test]
    fn exit_selector_follows_both_flags() {
        use sud::Dispatch::{Allow, Block};
        let leaves = || {
            leave_dispatch();
            sud::selector()
        };
        assert_eq!(leaves(), Allow, "not enrolled");
        set_enrolled(true);
        assert_eq!(leaves(), Block, "enrolled, top level");
        set_in_dispatch(true);
        assert_eq!(leaves(), Allow, "enrolled, under a handler");
        set_in_dispatch(false);
        assert_eq!(leaves(), Block);
        set_enrolled(false);
        assert_eq!(leaves(), Allow);
    }

    #[test]
    fn arming_points_the_block_at_this_threads_selector() {
        let block = zpoline::thread_block();
        assert!(!block.armed(), "a thread starts with a zeroed block");
        arm_stub_exit();
        assert!(block.armed());
        block.disarm();
        assert!(!block.armed());
    }

    #[test]
    fn sigreturn_stack_lifo() {
        assert_eq!(pop_sigreturn(), None);
        assert!(push_sigreturn(1, 0x1000));
        assert!(push_sigreturn(0, 0x2000));
        assert_eq!(sigreturn_depth(), 2);
        assert_eq!(
            pop_sigreturn(),
            Some(SigreturnEntry {
                selector: 0,
                rip: 0x2000
            })
        );
        assert_eq!(
            pop_sigreturn(),
            Some(SigreturnEntry {
                selector: 1,
                rip: 0x1000
            })
        );
        assert_eq!(pop_sigreturn(), None);
    }

    #[test]
    fn sigreturn_stack_overflow_is_reported() {
        for i in 0..SIGRETURN_STACK_DEPTH {
            assert!(push_sigreturn(0, i as u64));
        }
        assert!(!push_sigreturn(0, 999));
        for _ in 0..SIGRETURN_STACK_DEPTH {
            assert!(pop_sigreturn().is_some());
        }
        assert_eq!(pop_sigreturn(), None);
    }

    #[test]
    fn tls_is_per_thread() {
        set_enrolled(true);
        let other = std::thread::spawn(enrolled).join().unwrap();
        assert!(!other);
        set_enrolled(false);
    }
}
