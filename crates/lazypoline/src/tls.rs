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
pub(crate) fn set_in_dispatch(v: bool) -> bool {
    zpoline::thread_block().set_in_dispatch(v)
}

/// Counts one dispatch of this thread: with a plain `inc` when its block
/// is armed with a slot it is the sole writer of. Anything else — a
/// thread that shares its shard, an unarmed block — goes the counters'
/// own way (their thread-local finds the same slot), out of line.
#[inline]
pub(crate) fn count_dispatch(block: &zpoline::ThreadBlock) {
    #[cold]
    fn by_shard() {
        counters::bump(&counters::DISPATCHES);
    }
    match block.sole_writer_dispatches() {
        Some(slot) => counters::bump_slot(slot, true),
        None => by_shard(),
    }
}

/// The selector store a block cannot make by itself: an unarmed block's
/// (pkey slab, never-enrolled thread), and every store while a fault
/// site is armed.
#[cold]
fn set_selector_checked(d: sud::Dispatch) {
    sud::set_selector(d);
}

/// Begins a dispatch: the selector becomes ALLOW, so that the
/// interposer's own syscalls bypass SUD. One byte store through the
/// block when it is armed and no fault site is; `sud::set_selector`
/// (pkey bracket, fault seam, write-verify) otherwise.
#[inline]
pub(crate) fn enter_dispatch(block: &zpoline::ThreadBlock) {
    if !block.store_allow() {
        set_selector_checked(sud::Dispatch::Allow);
    }
}

/// Ends a dispatch: the selector becomes what the block says a dispatch
/// ending now must leave behind — BLOCK for an enrolled thread at top
/// level, ALLOW under a running handler (whose own syscalls follow) or
/// when not enrolled. The one exit rule, for every way out of the
/// dispatcher and for the stub's miss exit alike; the store itself as in
/// [`enter_dispatch`].
#[inline]
pub(crate) fn leave_dispatch(block: &zpoline::ThreadBlock) {
    if !block.store_exit_selector() {
        // Not `Dispatch::from_byte`: its panic arm has no business
        // under the entry stub.
        let block_again = block.exit_selector() == sud::SYSCALL_DISPATCH_FILTER_BLOCK;
        set_selector_checked(if block_again { sud::Dispatch::Block } else { sud::Dispatch::Allow });
    }
}

/// Arms the calling thread's block, at enrolment: from here on a
/// syscall nobody asked to see leaves from the entry stub, and a hit's
/// selector stores and count go through the block. A thread whose
/// selector is on the pkey slab is never armed — its selector takes a
/// `WRPKRU` bracket to write, and its syscalls must come from the gate
/// page.
pub(crate) fn arm_stub_exit() {
    let block = zpoline::thread_block();
    if sud::pkey::adopted_slot().is_null() {
        let (dispatches, sole_writer) = counters::slot(&counters::DISPATCHES);
        // SAFETY: `selector_ptr` is the byte `sud::enable_thread` hands
        // the kernel for this thread, in plain TLS (no slot was
        // adopted), and stable for the thread's lifetime;
        // `harden::prepare_pkey` disarms the block when it moves the
        // selector afterwards. The slot is this thread's own, and
        // `sole_writer` is what the counters say of it.
        unsafe { block.arm(sud::selector_ptr(), dispatches, sole_writer) };
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
        let in_dispatch = || zpoline::thread_block().in_dispatch();
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
            leave_dispatch(zpoline::thread_block());
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
        // Armed, the block's plain stores hit the byte `sud` reads.
        set_enrolled(true);
        leave_dispatch(block);
        assert_eq!(sud::selector(), sud::Dispatch::Block);
        enter_dispatch(block);
        assert_eq!(sud::selector(), sud::Dispatch::Allow);
        set_enrolled(false);
        let before = counters::get(&counters::DISPATCHES);
        count_dispatch(block);
        block.disarm();
        assert!(!block.armed());
        count_dispatch(block);
        assert!(counters::get(&counters::DISPATCHES) >= before + 2);
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
