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
//!   writers quiesce.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// One engine event stream, identified by its slot index within a
/// shard. The statics below are the only instances.
pub(crate) struct Counter(usize);

/// Slow-path (`SIGSYS`) deliveries.
pub(crate) static SLOW_PATH_HITS: Counter = Counter(0);
/// Syscall sites rewritten to `call rax`.
pub(crate) static SITES_PATCHED: Counter = Counter(1);
/// Syscalls that reached the dispatcher (fast path + re-executed slow
/// path + emulated-unpatchable).
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
// event stream into a second shard array instead.
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
/// its only writer — what the thread's `zpoline::ThreadBlock` is armed
/// with, for the stub's and the dispatcher's count.
#[inline]
pub(crate) fn slot(counter: &Counter) -> (&'static AtomicU64, bool) {
    let idx = shard_index();
    (&SHARDS[idx].slots[counter.0], idx < OWNED_SHARDS)
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

/// Adds `n` to `counter` on the calling thread's shard (bulk events,
/// e.g. a static prescan reporting how many sites it rewrote). Rare, so
/// it keeps the locked form on every shard; one instruction either way.
#[inline]
pub(crate) fn add(counter: &Counter, n: u64) {
    slot(counter).0.fetch_add(n, Ordering::Relaxed);
}

/// Sums `counter` across all shards. Exact once writers quiesce;
/// during concurrent bumping it is a momentary snapshot.
pub(crate) fn get(counter: &Counter) -> u64 {
    SHARDS
        .iter()
        .map(|s| s.slots[counter.0].load(Ordering::Relaxed))
        .sum()
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
    /// (`lock inc`), the early ones own (`inc`), and nothing is lost.
    #[test]
    fn more_threads_than_shards_sum_exactly() {
        const THREADS: usize = 100;
        let before = get(&PATCH_RETRIES);
        let start = std::sync::Barrier::new(THREADS);
        let sole_writers: usize = std::thread::scope(|s| {
            let threads: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        for _ in 0..1000 {
                            bump(&PATCH_RETRIES);
                        }
                        slot(&PATCH_RETRIES).1 as usize
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join().unwrap()).sum()
        });
        assert_eq!(get(&PATCH_RETRIES), before + THREADS as u64 * 1000);
        assert!(
            sole_writers <= OWNED_SHARDS,
            "{sole_writers} threads own a shard"
        );
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

    #[test]
    fn thread_shard_is_stable_within_a_thread() {
        let a = shard_index();
        let b = shard_index();
        assert_eq!(a, b);
        assert!(a < NUM_SHARDS);
    }
}
