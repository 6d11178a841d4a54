//! The engine's dispatch counter: one row of counts by syscall number
//! per thread (exposed through [`crate::stats`] and
//! [`crate::dispatches_by_number`]).
//!
//! A dispatch is counted on every interposed syscall, most of them by
//! the entry stub's miss exit, so the count is the one store on the
//! fast path: a shared `AtomicU64` there put every dispatching thread's
//! `lock xadd` on one cache line, and a locked RMW also waits for every
//! store in front of it — the register frame the stub has just pushed.
//! So each thread counts in a [`Row`] of its own: one page, slot `nr`
//! for each number the stub's sled has (below 512), and it is what the
//! thread's `zpoline::ThreadBlock` is armed with ([`arm_stub_exit`]) —
//! the stub's miss exit counts a call with `inc qword ptr [row + rax*8]`,
//! the dispatcher ([`count_dispatch`]) and the `SIGSYS` handler's
//! emulations ([`bump_dispatch`]) in the same slot. A number ≥ 512 is
//! counted in [`OVERFLOW`]. The engine's other event counters are
//! bumped once per `SIGSYS` or signal delivery, where a `lock xadd` is
//! noise, so each is one `AtomicU64` kept by the code that bumps it.
//!
//! Constraints honoured here:
//!
//! * **Async-signal-safe**: the rows are a static array (no allocation,
//!   ever), and the thread→row assignment is a const-initialized TLS
//!   cell (plain TLS read, no lazy init machinery).
//! * **Fixed memory, nothing freed**: 64 rows regardless of thread
//!   count. The first [`OWNED_ROWS`] threads to count anything each own
//!   a row for the life of the process — it is never handed on, so what
//!   a finished thread counted stays where readers sum it — and
//!   increment it with a single plain `inc`: one instruction, so a
//!   signal handler counting in the same slot on the same thread lands
//!   before or after it, never in the middle. Every later thread shares
//!   one of the remaining rows round-robin and keeps `lock inc`; some
//!   lines are contended again — never lost counts.
//! * **Readers sum on read**: totals are exact once writers quiesce. A
//!   reader sums only the rows some thread has claimed (`NEXT_TICKET`):
//!   the others are zero, and reading them would make their pages
//!   resident for nothing. Of the rows' 256 KiB of `.bss` only the pages
//!   of counting threads become resident.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use zpoline::DispatchRow;

/// Dispatches of a number ≥ 512, which has no slot in a [`Row`]: the
/// rows' overflow bucket ([`bump_dispatch`]).
static OVERFLOW: AtomicU64 = AtomicU64::new(0);

const NUM_ROWS: usize = 64;
/// Rows with one writer each (module docs). Half: a process with up to
/// 32 threads over its lifetime never pays a `lock`, and one that
/// churns through thousands still spreads them over 32 pages.
const OWNED_ROWS: usize = NUM_ROWS / 2;

/// Slots in a [`Row`]: one per syscall number the stub's sled has.
const ROW_LEN: usize = syscalls::MAX_SYSCALL_NR as usize;

/// One thread's dispatch counts by syscall number (module docs): a
/// page of its own, so two threads' rows never false-share and a
/// counting thread makes one page resident.
#[repr(C, align(4096))]
struct Row(DispatchRow);

static ROWS: [Row; NUM_ROWS] = [const { Row([const { AtomicU64::new(0) }; ROW_LEN]) }; NUM_ROWS];

/// The next thread's ticket: below [`OWNED_ROWS`] it is the index of
/// the row the thread owns.
static NEXT_TICKET: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's row index; `usize::MAX` = not yet assigned.
    /// Const-initialized so the first access — possibly from a signal
    /// handler — performs no lazy initialization.
    static ROW_IDX: Cell<usize> = const { Cell::new(usize::MAX) };
}

#[inline]
fn row_index() -> usize {
    ROW_IDX.with(|c| {
        let cached = c.get();
        if cached != usize::MAX {
            return cached;
        }
        // A signal interrupting between the fetch_add and the set draws
        // a ticket of its own and this thread ends up with the earlier
        // one: at worst an owned row nobody writes again — its counts
        // still sum, and no row ever has two owners.
        let ticket = NEXT_TICKET.fetch_add(1, Ordering::Relaxed);
        let idx = if ticket < OWNED_ROWS {
            ticket
        } else {
            OWNED_ROWS + (ticket - OWNED_ROWS) % (NUM_ROWS - OWNED_ROWS)
        };
        c.set(idx);
        idx
    })
}

/// The calling thread's dispatch row and whether this thread is its
/// only writer — what the thread's `zpoline::ThreadBlock` is armed
/// with, for the stub's and the dispatcher's count.
#[inline]
fn row() -> (&'static DispatchRow, bool) {
    let idx = row_index();
    (&ROWS[idx].0, idx < OWNED_ROWS)
}

/// Adds one to a slot of the calling thread's row. `sole_writer` must
/// be what [`row`] returned with it: the plain `inc` is exact only while
/// no other thread writes the slot.
#[inline]
fn bump_slot(slot: &AtomicU64, sole_writer: bool) {
    if sole_writer {
        // SAFETY: a valid, aligned u64 that lives forever. Not a load
        // and a store in Rust: a signal between the two would lose the
        // handler's own bumps of the same slot.
        unsafe {
            std::arch::asm!(
                "inc qword ptr [{slot}]",
                slot = in(reg) slot.as_ptr(),
                options(nostack),
            );
        }
    } else {
        slot.fetch_add(1, Ordering::Relaxed);
    }
}

/// Counts one dispatch of number `nr` on the calling thread: in its
/// row, or in the overflow bucket for a number the row has no slot for.
#[inline]
pub(crate) fn bump_dispatch(nr: u64) {
    let idx = row_index();
    match ROWS[idx].0.get(nr as usize) {
        Some(slot) => bump_slot(slot, idx < OWNED_ROWS),
        None => {
            OVERFLOW.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Counts one dispatch of number `nr` on this thread: with a plain `inc`
/// in the slot of `nr` when its block is armed with a row it is the sole
/// writer of. Anything else — a thread that shares its row, an unarmed
/// block, a number past the row — goes through [`bump_dispatch`] (its
/// thread-local finds the same row), out of line.
#[inline]
pub(crate) fn count_dispatch(block: &zpoline::ThreadBlock, nr: u64) {
    #[cold]
    fn by_row_index(nr: u64) {
        bump_dispatch(nr);
    }
    match block
        .sole_writer_dispatches()
        .and_then(|row| row.get(nr as usize))
    {
        Some(slot) => bump_slot(slot, true),
        None => by_row_index(nr),
    }
}

/// Arms the calling thread's block with its dispatch row, at enrolment:
/// from here on a syscall nobody asked to see leaves from the entry
/// stub, counted in the slot of its number, and a hit counts through
/// the block.
pub(crate) fn arm_stub_exit() {
    let (row, sole_writer) = row();
    // Faults the row's page in by a write: a reader's sum before the
    // thread's first count would map the zero page there, and that
    // count would then fault a second time.
    row[0].fetch_add(0, Ordering::Relaxed);
    // SAFETY: the row is this thread's own, and `sole_writer` is what
    // `row` says of it.
    unsafe { zpoline::thread_block().arm(row, sole_writer) };
}

/// How many rows some thread has claimed: the first that many. A row
/// is claimed before anything is counted in it.
fn claimed() -> usize {
    NEXT_TICKET.load(Ordering::Relaxed).min(NUM_ROWS)
}

/// Dispatches by syscall number (entry `nr`), summed across the claimed
/// rows. Numbers ≥ 512 are in the overflow bucket alone.
pub(crate) fn dispatch_table() -> [u64; ROW_LEN] {
    let mut table = [0; ROW_LEN];
    for row in &ROWS[..claimed()] {
        for (sum, slot) in table.iter_mut().zip(&row.0) {
            *sum += slot.load(Ordering::Relaxed);
        }
    }
    table
}

/// Every dispatch: the claimed rows' slots plus the overflow bucket.
pub(crate) fn dispatches() -> u64 {
    let rows: u64 = ROWS[..claimed()]
        .iter()
        .flat_map(|row| &row.0)
        .map(|slot| slot.load(Ordering::Relaxed))
        .sum();
    rows + OVERFLOW.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// More threads than rows, all alive at once: the late ones share
    /// (`lock inc`), the early ones own (`inc`), and no slot of the
    /// dispatch rows loses a count.
    #[test]
    fn more_threads_than_shards_sum_exactly() {
        const THREADS: usize = 100;
        // Numbers no other test of this binary dispatches.
        const NRS: [u64; 2] = [ROW_LEN as u64 - 1, ROW_LEN as u64 - 2];
        let before = NRS.map(|nr| dispatch_table()[nr as usize]);
        let start = std::sync::Barrier::new(THREADS);
        let sole_writers: usize = std::thread::scope(|s| {
            let threads: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        for i in 0..1000 {
                            bump_dispatch(NRS[i % 2]);
                        }
                        row().1 as usize
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join().unwrap()).sum()
        });
        let table = dispatch_table();
        for (nr, was) in NRS.into_iter().zip(before) {
            assert_eq!(table[nr as usize], was + THREADS as u64 * 500, "slot {nr}");
        }
        assert!(
            sole_writers <= OWNED_ROWS,
            "{sole_writers} threads own a row"
        );
    }

    #[test]
    fn numbers_past_the_row_land_in_the_overflow_bucket() {
        // No other test of this binary dispatches these numbers, but
        // they may dispatch others meanwhile.
        let last = ROW_LEN as u64 - 3;
        let (was, bucket, total) = (
            dispatch_table()[last as usize],
            OVERFLOW.load(Ordering::Relaxed),
            dispatches(),
        );
        bump_dispatch(last);
        bump_dispatch(ROW_LEN as u64);
        bump_dispatch(u64::MAX);
        assert_eq!(dispatch_table()[last as usize], was + 1);
        assert_eq!(OVERFLOW.load(Ordering::Relaxed), bucket + 2);
        assert!(dispatches() >= total + 3);
    }

    #[test]
    fn arming_gives_the_block_this_threads_dispatch_slot() {
        // A number no other test of this binary dispatches.
        const NR: u64 = syscalls::MAX_SYSCALL_NR - 4;
        let block = zpoline::thread_block();
        assert!(!block.armed(), "a thread starts with a zeroed block");
        arm_stub_exit();
        assert!(block.armed());
        // Other tests' threads may have taken every owned row.
        let (row, sole_writer) = row();
        let given = block.sole_writer_dispatches().map(|r| r as *const _);
        assert_eq!(given, sole_writer.then_some(row as *const _));
        let before = dispatch_table()[NR as usize];
        count_dispatch(block, NR);
        block.disarm();
        assert!(!block.armed());
        count_dispatch(block, NR);
        assert_eq!(dispatch_table()[NR as usize], before + 2);
    }

    /// The sole writer's plain `inc` against a signal handler, on the
    /// same thread, that bumps the same slot.
    #[test]
    fn sole_writer_interrupted_by_a_bumping_handler_loses_nothing() {
        static SLOT: AtomicU64 = AtomicU64::new(0);
        static HANDLED: AtomicU64 = AtomicU64::new(0);
        extern "C" fn bumping_handler(_sig: libc::c_int) {
            bump_slot(&SLOT, true);
            HANDLED.fetch_add(1, Ordering::Relaxed);
        }
        const BUMPS: u64 = 2_000_000;
        const SIGNALS: u64 = 200;

        // SAFETY: all zeroes is a valid `sigaction` (no flags, empty mask).
        let mut act: libc::sigaction = unsafe { std::mem::zeroed() };
        act.sa_sigaction = bumping_handler as *const () as usize;
        // SAFETY: as above.
        let mut old: libc::sigaction = unsafe { std::mem::zeroed() };
        // SAFETY: an async-signal-safe handler for a signal nothing else
        // in this binary uses; the old action is put back below.
        assert_eq!(unsafe { libc::sigaction(libc::SIGUSR2, &act, &mut old) }, 0);

        let (tid_tx, tid_rx) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(|| {
                let gettid = syscalls::SyscallArgs::nullary(syscalls::nr::GETTID);
                tid_tx
                    // SAFETY: gettid takes no arguments.
                    .send(unsafe { syscalls::raw::syscall(gettid) })
                    .unwrap();
                // Keep counting until every signal has landed in the loop.
                let mut bumps = 0;
                while bumps < BUMPS || HANDLED.load(Ordering::Relaxed) < SIGNALS {
                    bump_slot(&SLOT, true);
                    bumps += 1;
                }
                assert_eq!(
                    SLOT.load(Ordering::SeqCst),
                    bumps + HANDLED.load(Ordering::SeqCst)
                );
            });
            let tid = tid_rx.recv().unwrap();
            // SAFETY: getpid(2) has no preconditions.
            let pid = unsafe { libc::getpid() } as u64;
            for sent in 1..=SIGNALS {
                let tgkill = syscalls::SyscallArgs::new(
                    syscalls::nr::TGKILL,
                    [pid, tid, libc::SIGUSR2 as u64, 0, 0, 0],
                );
                // SAFETY: a signal the handler above takes, to a thread
                // of this process that is alive until the scope ends.
                assert_eq!(unsafe { syscalls::raw::syscall(tgkill) }, 0);
                // One at a time: pending standard signals coalesce.
                while HANDLED.load(Ordering::Relaxed) < sent {
                    std::hint::spin_loop();
                }
            }
        });
        assert_eq!(
            // SAFETY: puts back the action saved above.
            unsafe { libc::sigaction(libc::SIGUSR2, &old, std::ptr::null_mut()) },
            0
        );
    }

    /// A row is one page, page-aligned: the stub indexes it by number,
    /// and a thread's counts dirty its own page and no other.
    #[test]
    fn row_layout_is_one_page() {
        assert_eq!(std::mem::align_of::<Row>(), 4096);
        assert_eq!(std::mem::size_of::<Row>(), 4096);
        assert_eq!(std::mem::size_of::<DispatchRow>(), ROW_LEN * 8);
        assert_eq!(row().0.as_ptr() as usize % 4096, 0);
        assert_eq!(ROWS.as_ptr() as usize % 4096, 0);
    }

    /// A reader sums the claimed rows only, and every row a thread
    /// counts in is claimed.
    #[test]
    fn readers_stop_at_the_claimed_shards() {
        let idx = row_index();
        assert!(idx < claimed(), "{idx} of {}", claimed());
        assert!(claimed() <= NUM_ROWS);
    }

    #[test]
    fn thread_shard_is_stable_within_a_thread() {
        let a = row_index();
        let b = row_index();
        assert_eq!(a, b);
        assert!(a < NUM_ROWS);
    }
}
