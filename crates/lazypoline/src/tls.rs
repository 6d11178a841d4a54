//! Per-thread interposition state.
//!
//! The paper keeps per-task state in `%gs`-relative memory regions so
//! that the entry stub reaches it without spilling an application
//! register (§IV-A, §IV-B(a)). Here that region is
//! [`zpoline::ThreadBlock`], a cache line of initial-exec TLS declared
//! next to the stub: the two flags below live in it (with the
//! dispatch-counter row that arms it), because the stub must read them
//! and a Rust `thread_local!` is something no assembly can name.
//!
//! None of it is a SUD selector: an enrolled thread's SUD has none.
//! What keeps the interposer's own syscalls out of interposition is the
//! gate they leave from ([`zpoline::gate`]), and what keeps a handler's
//! own libc calls out of it is the re-entry guard below.

use crate::counters;

/// Whether this thread asked for interposition.
pub(crate) fn enrolled() -> bool {
    zpoline::thread_block().enrolled()
}

pub(crate) fn set_enrolled(v: bool) {
    zpoline::thread_block().set_enrolled(v);
}

/// The re-entry guard: set while the dispatcher runs handler code, and
/// cleared across application signal-handler invocations (which must be
/// interposed normally). A syscall made under it — a handler's `write`,
/// the engine's own [`crate::proven::privately`] work — reaches the
/// dispatcher or the slow path like any other, and is executed there
/// without being shown to a handler.
pub(crate) fn set_in_dispatch(v: bool) -> bool {
    zpoline::thread_block().set_in_dispatch(v)
}

/// Counts one dispatch of number `nr` on this thread: with a plain `inc`
/// in the slot of `nr` when its block is armed with a row it is the sole
/// writer of. Anything else — a thread that shares its shard, an unarmed
/// block, a number past the row — goes the counters' own way (their
/// thread-local finds the same row), out of line.
#[inline]
pub(crate) fn count_dispatch(block: &zpoline::ThreadBlock, nr: u64) {
    #[cold]
    fn by_shard(nr: u64) {
        counters::bump_dispatch(nr);
    }
    match block
        .sole_writer_dispatches()
        .and_then(|row| row.get(nr as usize))
    {
        Some(slot) => counters::bump_slot(slot, true),
        None => by_shard(nr),
    }
}

/// Arms the calling thread's block with its dispatch-counter row, at
/// enrolment: from here on a syscall nobody asked to see leaves from the
/// entry stub, counted in the slot of its number, and a hit counts
/// through the block.
pub(crate) fn arm_stub_exit() {
    let (row, sole_writer) = counters::row();
    // Faults the row's page in by a write: a reader's sum before the
    // thread's first count would map the zero page there, and that
    // count would then fault a second time.
    row[0].fetch_add(0, std::sync::atomic::Ordering::Relaxed);
    // SAFETY: the row is this thread's own, and `sole_writer` is what
    // the counters say of it.
    unsafe { zpoline::thread_block().arm(row, sole_writer) };
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
    fn arming_gives_the_block_this_threads_dispatch_slot() {
        // A number no other test of this binary dispatches.
        const NR: u64 = syscalls::MAX_SYSCALL_NR - 4;
        let block = zpoline::thread_block();
        assert!(!block.armed(), "a thread starts with a zeroed block");
        arm_stub_exit();
        assert!(block.armed());
        // Other tests' threads may have taken every owned shard.
        let (row, sole_writer) = counters::row();
        let given = block.sole_writer_dispatches().map(|r| r as *const _);
        assert_eq!(given, sole_writer.then_some(row as *const _));
        let before = counters::dispatch_table()[NR as usize];
        count_dispatch(block, NR);
        block.disarm();
        assert!(!block.armed());
        count_dispatch(block, NR);
        assert_eq!(counters::dispatch_table()[NR as usize], before + 2);
    }

    #[test]
    fn tls_is_per_thread() {
        set_enrolled(true);
        let other = std::thread::spawn(enrolled).join().unwrap();
        assert!(!other);
        set_enrolled(false);
    }
}
