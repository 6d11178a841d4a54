//! Engine-wide event counters (exposed via [`crate::Stats`]).
//!
//! Counters are *sharded per thread*: every thread bumps its own
//! cache-line-sized slot, and readers aggregate across slots. The
//! first design (one global `AtomicU64` per counter) put every
//! dispatching thread's `lock xadd` on the same cache line — on the
//! fast path that contended line was charged once per syscall, which
//! is exactly the kind of overhead the paper's design works to
//! eliminate. Shards made that a local, uncontended RMW; *owning* a
//! shard makes it a plain one: the dispatch count is the one store on
//! the fast path that needed a `lock`, and a locked RMW waits for
//! every store in front of it — the register frame the stub has just
//! pushed.
//!
//! Constraints honoured here:
//!
//! * **Async-signal-safe**: `bump` runs inside the `SIGSYS` handler
//!   and the signal wrapper. Shard storage is a static array (no
//!   allocation, ever) and the thread→shard assignment uses a
//!   const-initialized TLS cell (plain TLS read, no lazy init
//!   machinery).
//! * **Fixed memory, nothing freed**: 64 shards regardless of thread
//!   count. The first [`OWNED_SHARDS`] threads to count anything each
//!   own a shard for the life of the process — it is never handed on,
//!   so what a finished thread counted stays where readers sum it — and
//!   increment it with a single plain `inc`: one instruction, so a
//!   signal handler bumping the same counter on the same thread lands
//!   before or after it, never in the middle. Every later thread
//!   shares one of the remaining shards round-robin and keeps
//!   `lock inc`; some lines are contended again — never lost counts.
//! * **API shape**: `Stats` aggregates on read; totals are exact once
//!   writers quiesce. A reader sums only the shards some thread has
//!   claimed (`NEXT_TICKET`): the others are zero, and reading them
//!   would make their pages resident for nothing.
//!
//! Two arrays share the thread→shard assignment. [`Shard`] holds the
//! eight event counters below in one cache line. [`Row`] holds the
//! dispatch count *by syscall number*: one page per shard, slot `nr`
//! for each number the entry stub's sled has (below 512), and it is
//! what a thread's `zpoline::ThreadBlock` is armed with — the stub's
//! miss exit counts a call with `inc qword ptr [row + rax*8]`, the
//! dispatcher and the `SIGSYS` handler's emulations in the same slot.
//! A number ≥ 512 is counted in the
//! shard's [`DISPATCHES`] slot instead, the overflow bucket. The
//! engine's dispatch total is the rows plus that bucket, and the table
//! by number is the rows summed ([`dispatch_table`]). A thread that
//! never counts leaves its page untouched, so of the rows' 256 KiB of
//! `.bss` only the pages of counting threads become resident.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use zpoline::DispatchRow;

/// One engine event stream, identified by its slot index within a
/// shard. The statics below are the only instances.
pub(crate) struct Counter(usize);

/// Slow-path (`SIGSYS`) deliveries.
pub(crate) static SLOW_PATH_HITS: Counter = Counter(0);
/// Syscall sites rewritten to `call rax`.
pub(crate) static SITES_PATCHED: Counter = Counter(1);
/// Dispatches of a number ≥ 512, which has no slot in a [`Row`]: the
/// rows' overflow bucket ([`bump_dispatch`]).
pub(crate) static DISPATCHES: Counter = Counter(2);
/// Syscalls emulated directly in the SIGSYS handler because the site
/// could not be patched.
pub(crate) static UNPATCHABLE_EMULATIONS: Counter = Counter(3);
/// Application signal-handler invocations routed through the wrapper.
pub(crate) static SIGNALS_WRAPPED: Counter = Counter(4);
/// Retries of a patch attempt after a transient `mprotect` failure
/// (`EAGAIN`/`ENOMEM`) in the slow path.
pub(crate) static PATCH_RETRIES: Counter = Counter(5);
/// Pages inserted into the unpatchable-page blocklist after persistent
/// patch failure.
pub(crate) static PAGES_BLOCKLISTED: Counter = Counter(6);
/// Syscalls emulated in the handler because lazy rewriting is disabled
/// (pure-SUD configuration or `Mode::SudOnly` degradation) — a config
/// state, distinct from [`UNPATCHABLE_EMULATIONS`] failures.
pub(crate) static DISABLED_MODE_EMULATIONS: Counter = Counter(7);

// Exactly 8 counters: one cache line per shard (the layout unit test
// asserts this). A 9th counter would double every shard — split a new
// event stream into an array of its own instead, as the dispatch rows
// are.
const NUM_COUNTERS: usize = 8;
const NUM_SHARDS: usize = 64;
/// Shards with one writer each (module docs). Half: a process with up
/// to 32 threads over its lifetime never pays a `lock`, and one that
/// churns through thousands still spreads them over 32 lines.
const OWNED_SHARDS: usize = NUM_SHARDS / 2;

/// One thread's slots for all the counters, padded to a cache line so
/// two threads' shards never false-share.
#[repr(align(64))]
struct Shard {
    slots: [AtomicU64; NUM_COUNTERS],
}

static SHARDS: [Shard; NUM_SHARDS] = [const {
    Shard {
        slots: [const { AtomicU64::new(0) }; NUM_COUNTERS],
    }
}; NUM_SHARDS];

/// Slots in a [`Row`]: one per syscall number the stub's sled has.
const ROW_LEN: usize = syscalls::MAX_SYSCALL_NR as usize;

/// One thread's dispatch counts by syscall number (module docs): a
/// page of its own, so two threads' rows never false-share and a
/// counting thread makes one page resident.
#[repr(C, align(4096))]
struct Row(DispatchRow);

static ROWS: [Row; NUM_SHARDS] =
    [const { Row([const { AtomicU64::new(0) }; ROW_LEN]) }; NUM_SHARDS];

/// The next thread's ticket: below [`OWNED_SHARDS`] it is the index of
/// the shard the thread owns.
static NEXT_TICKET: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's shard index; `usize::MAX` = not yet assigned.
    /// Const-initialized so the first access — possibly from a signal
    /// handler — performs no lazy initialization.
    static SHARD_IDX: Cell<usize> = const { Cell::new(usize::MAX) };
}

#[inline]
fn shard_index() -> usize {
    SHARD_IDX.with(|c| {
        let cached = c.get();
        if cached != usize::MAX {
            return cached;
        }
        // A signal interrupting between the fetch_add and the set draws
        // a ticket of its own and this thread ends up with the earlier
        // one: at worst an owned shard nobody writes again — its counts
        // still sum, and no shard ever has two owners.
        let ticket = NEXT_TICKET.fetch_add(1, Ordering::Relaxed);
        let idx = if ticket < OWNED_SHARDS {
            ticket
        } else {
            OWNED_SHARDS + (ticket - OWNED_SHARDS) % (NUM_SHARDS - OWNED_SHARDS)
        };
        c.set(idx);
        idx
    })
}

/// The calling thread's slot of `counter` and whether this thread is
/// its only writer.
#[inline]
pub(crate) fn slot(counter: &Counter) -> (&'static AtomicU64, bool) {
    let idx = shard_index();
    (&SHARDS[idx].slots[counter.0], idx < OWNED_SHARDS)
}

/// The calling thread's dispatch row and whether this thread is its
/// only writer — what the thread's `zpoline::ThreadBlock` is armed
/// with, for the stub's and the dispatcher's count.
#[inline]
pub(crate) fn row() -> (&'static DispatchRow, bool) {
    let idx = shard_index();
    (&ROWS[idx].0, idx < OWNED_SHARDS)
}

/// Adds one to a [`slot`] of the calling thread. `sole_writer` must be
/// what `slot` returned with it: the plain `inc` is exact only while no
/// other thread writes the slot.
#[inline]
pub(crate) fn bump_slot(slot: &AtomicU64, sole_writer: bool) {
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

/// Adds one to `counter` on the calling thread's shard.
#[inline]
pub(crate) fn bump(counter: &Counter) {
    let (slot, sole_writer) = slot(counter);
    bump_slot(slot, sole_writer);
}

/// Counts one dispatch of number `nr` on the calling thread's shard: in
/// its row, or in the overflow bucket for a number the row has no slot
/// for.
#[inline]
pub(crate) fn bump_dispatch(nr: u64) {
    let idx = shard_index();
    let slot = match ROWS[idx].0.get(nr as usize) {
        Some(slot) => slot,
        None => &SHARDS[idx].slots[DISPATCHES.0],
    };
    bump_slot(slot, idx < OWNED_SHARDS);
}

/// Adds `n` to `counter` on the calling thread's shard (bulk events,
/// e.g. a static prescan reporting how many sites it rewrote). Rare, so
/// it keeps the locked form on every shard; one instruction either way.
#[inline]
pub(crate) fn add(counter: &Counter, n: u64) {
    slot(counter).0.fetch_add(n, Ordering::Relaxed);
}

/// How many shards some thread has claimed: the first that many. A
/// shard is claimed before anything is counted in it.
fn claimed() -> usize {
    NEXT_TICKET.load(Ordering::Relaxed).min(NUM_SHARDS)
}

/// Sums `counter` across the claimed shards. Exact once writers
/// quiesce; during concurrent bumping it is a momentary snapshot.
pub(crate) fn get(counter: &Counter) -> u64 {
    SHARDS[..claimed()]
        .iter()
        .map(|s| s.slots[counter.0].load(Ordering::Relaxed))
        .sum()
}

/// Dispatches by syscall number (entry `nr`), summed across the claimed
/// shards' rows. Numbers ≥ 512 are in the overflow bucket alone.
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
    rows + get(&DISPATCHES)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_and_get() {
        // Tests share the process-global counters, so assert on deltas.
        let before = get(&SIGNALS_WRAPPED);
        bump(&SIGNALS_WRAPPED);
        bump(&SIGNALS_WRAPPED);
        assert_eq!(get(&SIGNALS_WRAPPED), before + 2);
    }

    #[test]
    fn shards_aggregate_across_threads() {
        let before = get(&UNPATCHABLE_EMULATIONS);
        let threads: Vec<_> = (0..8)
            .map(|_| {
                std::thread::spawn(|| {
                    for _ in 0..1000 {
                        bump(&UNPATCHABLE_EMULATIONS);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(get(&UNPATCHABLE_EMULATIONS), before + 8 * 1000);
    }

    /// More threads than shards, all alive at once: the late ones share
    /// (`lock inc`), the early ones own (`inc`), and nothing is lost —
    /// neither in a counter nor in a slot of the dispatch rows.
    #[test]
    fn more_threads_than_shards_sum_exactly() {
        const THREADS: usize = 100;
        // Numbers no other test of this binary dispatches.
        const NRS: [u64; 2] = [ROW_LEN as u64 - 1, ROW_LEN as u64 - 2];
        let before = (
            get(&PATCH_RETRIES),
            NRS.map(|nr| dispatch_table()[nr as usize]),
        );
        let start = std::sync::Barrier::new(THREADS);
        let sole_writers: usize = std::thread::scope(|s| {
            let threads: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        for i in 0..1000 {
                            bump(&PATCH_RETRIES);
                            bump_dispatch(NRS[i % 2]);
                        }
                        assert_eq!(row().1, slot(&PATCH_RETRIES).1);
                        slot(&PATCH_RETRIES).1 as usize
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join().unwrap()).sum()
        });
        assert_eq!(get(&PATCH_RETRIES), before.0 + THREADS as u64 * 1000);
        let table = dispatch_table();
        for (nr, was) in NRS.into_iter().zip(before.1) {
            assert_eq!(table[nr as usize], was + THREADS as u64 * 500, "slot {nr}");
        }
        assert!(
            sole_writers <= OWNED_SHARDS,
            "{sole_writers} threads own a shard"
        );
    }

    #[test]
    fn numbers_past_the_row_land_in_the_overflow_bucket() {
        // No other test of this binary dispatches these numbers, but
        // they may dispatch others meanwhile.
        let last = ROW_LEN as u64 - 3;
        let (was, bucket, total) = (
            dispatch_table()[last as usize],
            get(&DISPATCHES),
            dispatches(),
        );
        bump_dispatch(last);
        bump_dispatch(ROW_LEN as u64);
        bump_dispatch(u64::MAX);
        assert_eq!(dispatch_table()[last as usize], was + 1);
        assert_eq!(get(&DISPATCHES), bucket + 2);
        assert!(dispatches() >= total + 3);
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

        let mut act: libc::sigaction = unsafe { std::mem::zeroed() };
        act.sa_sigaction = bumping_handler as *const () as usize;
        let mut old: libc::sigaction = unsafe { std::mem::zeroed() };
        assert_eq!(unsafe { libc::sigaction(libc::SIGUSR2, &act, &mut old) }, 0);

        let (tid_tx, tid_rx) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(|| {
                let gettid = syscalls::SyscallArgs::nullary(syscalls::nr::GETTID);
                tid_tx
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
            let pid = unsafe { libc::getpid() } as u64;
            for sent in 1..=SIGNALS {
                let tgkill = syscalls::SyscallArgs::new(
                    syscalls::nr::TGKILL,
                    [pid, tid, libc::SIGUSR2 as u64, 0, 0, 0],
                );
                assert_eq!(unsafe { syscalls::raw::syscall(tgkill) }, 0);
                // One at a time: pending standard signals coalesce.
                while HANDLED.load(Ordering::Relaxed) < sent {
                    std::hint::spin_loop();
                }
            }
        });
        assert_eq!(
            unsafe { libc::sigaction(libc::SIGUSR2, &old, std::ptr::null_mut()) },
            0
        );
    }

    #[test]
    fn shard_layout_is_cache_line_sized() {
        assert_eq!(std::mem::align_of::<Shard>(), 64);
        assert_eq!(std::mem::size_of::<Shard>(), 64);
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

    /// A reader sums the claimed shards only, and every shard a thread
    /// counts in is claimed.
    #[test]
    fn readers_stop_at_the_claimed_shards() {
        let idx = shard_index();
        assert!(idx < claimed(), "{idx} of {}", claimed());
        assert!(claimed() <= NUM_SHARDS);
    }

    #[test]
    fn thread_shard_is_stable_within_a_thread() {
        let a = shard_index();
        let b = shard_index();
        assert_eq!(a, b);
        assert!(a < NUM_SHARDS);
    }
}
