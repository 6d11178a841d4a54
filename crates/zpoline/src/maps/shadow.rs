//! The shadow of the executable mappings: what the dispatcher saw the
//! process map executable since the install, so that the patch window
//! (paper §IV-A(b)) knows a page's protection without asking the kernel.
//! rr keeps its picture of tracee memory the same way, from the syscalls
//! it sees.
//!
//! Every syscall that maps, unmaps or re-protects memory goes through
//! [`execute`]: it forgets the range the call may change *before* the
//! call runs, and notes a writable, executable range the call made
//! *after* it succeeded — a JIT's RWX page, which then takes its patch
//! with no syscall at all. The patch window asks `vouch` first, and
//! keeps the answers it had to look up for a page that takes no stores
//! (`keep`): the next such page of that mapping gets its window
//! without a query.
//!
//! A wrong "writable" is a `SIGSEGV` inside the `SIGSYS` handler, so an
//! entry may always be lost (the window then asks the kernel, as before
//! the shadow) but never be stale. Hence:
//!
//! * the shadow vouches only while [`reset`] trusted it — at an install
//!   where the installing thread was the process's only one — and
//!   nothing since called [`distrust`]: a thread the engine does not
//!   see could change a mapping unseen;
//! * a note is dropped unless no other mapping call ran meanwhile, and a
//!   looked-up answer is kept only while none is running;
//! * it never records a writable range of a protection key other than 0
//!   — a range gets a writable entry only from a dispatched `mmap`
//!   (which maps under key 0), or from an `mprotect` of ranges that all
//!   held one (which keeps the key) — and it does not vouch while `PKRU`
//!   denies writes with key 0.
//!
//! State lives in statics read and written under the rewrite spinlock;
//! nothing is allocated or opened.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, Ordering};

use syscalls::{nr, Errno, SyscallArgs};

use super::{Mapping, RegionPerms};
use crate::patcher::SpinGuard;
use crate::trampoline::{gate_syscall, thread_block};

/// Ranges the shadow holds. A note that finds no free slot replaces
/// the oldest entry.
pub const CAPACITY: usize = 32;

/// A page-aligned range `[start, end)`; `start == end` is a free slot.
/// A writable entry is a range under protection key 0 (module docs).
#[derive(Clone, Copy)]
struct Entry {
    start: usize,
    end: usize,
    perms: RegionPerms,
}

const FREE: Entry = Entry {
    start: 0,
    end: 0,
    perms: RegionPerms {
        read: false,
        write: false,
        exec: false,
    },
};

struct State {
    entries: [Entry; CAPACITY],
    /// Slots `used..` are free: the scans stop there.
    used: usize,
    /// The slot the next note replaces when none is free.
    evict: usize,
    /// Mapping calls between their forget and their note.
    inflight: u32,
    /// Bumped by each forget and each note: a note whose call saw it
    /// move meanwhile ran alongside another mapping call.
    epoch: u64,
}

impl State {
    /// Drops `[start, end)` from every entry, splitting one that holds
    /// it inside (the right part is lost when no slot is free).
    fn forget(&mut self, start: usize, end: usize) {
        if start >= end {
            return;
        }
        for i in 0..self.used {
            let e = self.entries[i];
            if e.start >= end || e.end <= start {
                continue;
            }
            self.entries[i] = FREE;
            if e.start < start {
                self.entries[i] = Entry { end: start, ..e };
            }
            if end < e.end {
                if let Some(free) = self.free_slot() {
                    self.entries[free] = Entry { start: end, ..e };
                }
            }
        }
        while self.used > 0 && self.entries[self.used - 1].start == self.entries[self.used - 1].end
        {
            self.used -= 1;
        }
    }

    /// A free slot, growing `used` if it has to.
    fn free_slot(&mut self) -> Option<usize> {
        let slot = (0..self.used).find(|&i| self.entries[i].start == self.entries[i].end);
        slot.or_else(|| {
            (self.used < CAPACITY).then(|| {
                self.used += 1;
                self.used - 1
            })
        })
    }

    /// Adds `e`, replacing what it overlaps.
    fn insert(&mut self, e: Entry) {
        self.forget(e.start, e.end);
        let slot = self.free_slot().unwrap_or_else(|| {
            let oldest = self.evict;
            self.evict = (oldest + 1) % CAPACITY;
            oldest
        });
        self.entries[slot] = e;
    }

    fn clear(&mut self) {
        self.entries = [FREE; CAPACITY];
        self.used = 0;
    }

    /// The entry holding all of `[start, end)`, if one does.
    fn covering(&self, start: usize, end: usize) -> Option<&Entry> {
        let held = &self.entries[..self.used];
        held.iter()
            .find(|e| e.start <= start && end <= e.end && start < end)
    }

    /// Whether every page of `[start, end)` lies in a writable entry.
    fn all_writable(&self, start: usize, end: usize) -> bool {
        if start >= end {
            return false;
        }
        let held: usize = self.entries[..self.used]
            .iter()
            .filter(|e| e.perms.write)
            .map(|e| e.end.min(end).saturating_sub(e.start.max(start)))
            .sum();
        held == end - start
    }
}

struct Shared(UnsafeCell<State>);

// SAFETY: the state is read and written under the rewrite spinlock only
// (`state` takes the guard).
unsafe impl Sync for Shared {}

static STATE: Shared = Shared(UnsafeCell::new(State {
    entries: [FREE; CAPACITY],
    used: 0,
    evict: 0,
    inflight: 0,
    epoch: 0,
}));

/// Whether the shadow vouches (module docs).
static TRUSTED: AtomicBool = AtomicBool::new(false);

/// Whether `PKRU` exists to be read (the OS enabled protection keys).
static HAS_PKRU: AtomicBool = AtomicBool::new(false);

fn state(_held: &mut SpinGuard) -> &mut State {
    // SAFETY: the guard is the rewrite lock, held for as long as the
    // borrow lives, and borrowed mutably so the borrow is unique.
    unsafe { &mut *STATE.0.get() }
}

/// Forgets every entry and, with `trusted`, starts vouching: at an
/// install, `trusted` says whether the installing thread was the
/// process's only one; `false` at teardown.
pub fn reset(trusted: bool) {
    TRUSTED.store(false, Ordering::SeqCst);
    // On a thread that holds the lock (a signal handler's teardown)
    // nothing can be cleared, and nothing is trusted.
    if thread_block().holds_rewrite_lock() {
        return;
    }
    let mut guard = SpinGuard::lock();
    let s = state(&mut guard);
    s.clear();
    if trusted {
        // The caller is the only thread: no mapping call is running.
        s.inflight = 0;
    }
    // SAFETY: glibc returns a pointer to static data for every index.
    let leaf7 = unsafe { *libc::__x86_get_cpuid_feature_leaf(libc::CPUID_INDEX_7) };
    // CPUID.(EAX=07H, ECX=0):ECX bit 4, OSPKE.
    HAS_PKRU.store(leaf7.cpuid_array[2] & (1 << 4) != 0, Ordering::Relaxed);
    TRUSTED.store(trusted, Ordering::Release);
}

/// Stops the shadow vouching until the next trusted [`reset`]: some
/// thread may now change a mapping without the dispatcher seeing it.
/// One store; callable from any context, signal handlers included.
pub fn distrust() {
    TRUSTED.store(false, Ordering::SeqCst);
}

/// Whether stores under protection key 0 are allowed: `PKRU` bits 0
/// (access disable) and 1 (write disable) clear, or no `PKRU`.
fn key0_writable() -> bool {
    if !HAS_PKRU.load(Ordering::Relaxed) {
        return true;
    }
    let pkru: u32;
    // SAFETY: `rdpkru` with `ecx = 0` reads PKRU; the OS enabled it.
    unsafe {
        std::arch::asm!(
            "rdpkru",
            in("ecx") 0,
            out("eax") pkru,
            out("edx") _,
            options(nomem, nostack, preserves_flags),
        );
    }
    pkru & 0b11 == 0
}

/// The protection the shadow vouches for over `[page, page + len)`, if
/// one entry holds all of it. The rewrite lock is held.
pub(crate) fn vouch(held: &mut SpinGuard, page: usize, len: usize) -> Option<RegionPerms> {
    if !TRUSTED.load(Ordering::Acquire) || !key0_writable() {
        return None;
    }
    state(held).covering(page, page + len).map(|e| e.perms)
}

/// What the shadow vouches for at the page of `addr`; `None` where it
/// would let the patch window ask the kernel.
pub fn perms(addr: usize) -> Option<RegionPerms> {
    if thread_block().holds_rewrite_lock() {
        return None;
    }
    vouch(&mut SpinGuard::lock(), addr & !4095, 4096)
}

/// Keeps `found`, the mapping the patch window looked up, when it takes
/// no stores (a window is opened for it all the same; a writable answer
/// may carry another protection key) and no mapping call is running
/// that could already have changed it. The rewrite lock is held.
pub(crate) fn keep(held: &mut SpinGuard, found: &Mapping) {
    if !TRUSTED.load(Ordering::Acquire) || found.perms.write || !found.perms.exec {
        return;
    }
    let s = state(held);
    if s.inflight == 0 {
        s.insert(Entry {
            start: found.start,
            end: found.end,
            perms: found.perms,
        });
    }
}

/// `[addr, addr + len)` widened to whole pages (saturating).
fn pages(addr: u64, len: u64) -> (usize, usize) {
    let end = addr.saturating_add(len).saturating_add(4095) & !4095;
    (addr as usize & !4095, end as usize)
}

/// The protection `prot` gives, if the dispatcher records it: writable
/// and executable, and no other bit.
fn recordable(prot: u64) -> Option<RegionPerms> {
    let perms = RegionPerms {
        read: prot & libc::PROT_READ as u64 != 0,
        write: prot & libc::PROT_WRITE as u64 != 0,
        exec: prot & libc::PROT_EXEC as u64 != 0,
    };
    (prot & !7 == 0 && perms.write && perms.exec).then_some(perms)
}

/// What a mapping call does to the shadow before it runs.
enum Before {
    Nothing,
    /// Forget these ranges (an empty one is no range).
    Forget([(usize, usize); 2]),
    /// Forget everything: the call changes what the shadow cannot name.
    All,
}

/// A mapping call's claim on the shadow between [`begin`] and [`end`].
struct Ticket {
    /// Whether [`begin`] counted the call in `inflight`.
    live: bool,
    /// `epoch` right after the call's forget.
    epoch: u64,
    /// Whether the range `begin` was asked about was all writable
    /// entries before the call.
    writable: bool,
}

const DEAD: Ticket = Ticket {
    live: false,
    epoch: 0,
    writable: false,
};

fn begin(before: Before, asked: (usize, usize)) -> Ticket {
    if !TRUSTED.load(Ordering::Acquire) {
        return DEAD;
    }
    // A signal handler on a thread that holds the lock: the call cannot
    // be recorded, so nothing is vouched for until the next install.
    if thread_block().holds_rewrite_lock() {
        distrust();
        return DEAD;
    }
    let mut guard = SpinGuard::lock();
    let s = state(&mut guard);
    let writable = s.all_writable(asked.0, asked.1);
    match before {
        Before::Nothing => {}
        Before::Forget(ranges) => ranges.iter().for_each(|&(a, b)| s.forget(a, b)),
        Before::All => s.clear(),
    }
    s.inflight += 1;
    s.epoch += 1;
    Ticket {
        live: true,
        epoch: s.epoch,
        writable,
    }
}

fn end(ticket: Ticket, forget: (usize, usize), note: Option<Entry>) {
    if !ticket.live {
        return;
    }
    if thread_block().holds_rewrite_lock() {
        distrust();
        return;
    }
    let mut guard = SpinGuard::lock();
    let s = state(&mut guard);
    let alone = s.epoch == ticket.epoch && s.inflight == 1;
    s.inflight = s.inflight.saturating_sub(1);
    s.epoch += 1;
    match note.filter(|_| alone) {
        // An `mmap`'s note is the range it would forget.
        Some(e) => s.insert(e),
        None => s.forget(forget.0, forget.1),
    }
}

const MAP_FIXED: u64 = libc::MAP_FIXED as u64;
const MREMAP_FIXED: u64 = 2;
const PROT_GROWSDOWN: u64 = 0x0100_0000;
const PROT_GROWSUP: u64 = 0x0200_0000;

/// Executes `call` with `execute` and keeps the shadow true to it: what
/// the dispatcher does with each of `mmap`, `munmap`, `mprotect`,
/// `pkey_mprotect`, `mremap`, `remap_file_pages`, `brk`, `shmat` and
/// `shmdt` (any other call is just executed). The call's result is
/// returned unchanged.
///
/// Before the call runs, the range it may change is forgotten:
/// `munmap`'s, `mprotect`'s, `pkey_mprotect`'s and `remap_file_pages`'
/// range, both of `mremap`'s, and a `MAP_FIXED` `mmap`'s. Everything is
/// forgotten for `shmat`, `shmdt`, a `brk` that lowers the break, and an
/// `mprotect` that extends to a growable mapping's end. After it, the
/// range a successful `mmap` or `mremap` returned is forgotten too —
/// whatever the shadow held there was unmapped unseen — and a writable,
/// executable range is noted: an `mmap`'s, or an `mprotect`'s over
/// ranges that held writable entries only.
pub fn execute(call: &SyscallArgs, execute: impl FnOnce(&SyscallArgs) -> u64) -> u64 {
    let [a1, a2, a3, a4, a5, _] = call.args;
    let none = (0, 0);
    let (before, asked) = match call.nr {
        nr::MMAP if a4 & MAP_FIXED != 0 => (Before::Forget([pages(a1, a2), none]), none),
        nr::MUNMAP | nr::REMAP_FILE_PAGES => (Before::Forget([pages(a1, a2), none]), none),
        nr::MPROTECT | nr::PKEY_MPROTECT if a3 & (PROT_GROWSDOWN | PROT_GROWSUP) != 0 => {
            (Before::All, none)
        }
        nr::MPROTECT | nr::PKEY_MPROTECT => (Before::Forget([pages(a1, a2), none]), pages(a1, a2)),
        nr::MREMAP => {
            let moved_to = if a4 & MREMAP_FIXED != 0 {
                pages(a5, a3)
            } else {
                none
            };
            (Before::Forget([pages(a1, a2), moved_to]), none)
        }
        nr::BRK if a1 != 0 => {
            // SAFETY: `brk(0)` changes nothing and returns the break.
            let now = unsafe { gate_syscall(&SyscallArgs::new(nr::BRK, [0; 6])) };
            (
                if a1 < now {
                    Before::All
                } else {
                    Before::Nothing
                },
                none,
            )
        }
        nr::SHMAT | nr::SHMDT => (Before::All, none),
        _ => (Before::Nothing, none),
    };
    let ticket = begin(before, asked);
    let ret = execute(call);
    if Errno::from_ret(ret).is_some() {
        end(ticket, none, None);
        return ret;
    }
    let (forget, note) = match call.nr {
        nr::MMAP => {
            let (start, end) = pages(ret, a2);
            let note = recordable(a3).map(|perms| Entry { start, end, perms });
            ((start, end), note)
        }
        nr::MPROTECT => {
            let (start, end) = pages(a1, a2);
            let note = recordable(a3)
                .filter(|_| ticket.writable)
                .map(|perms| Entry { start, end, perms });
            (none, note)
        }
        nr::MREMAP => (pages(ret, a3), None),
        _ => (none, None),
    };
    end(ticket, forget, note);
    ret
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(start: usize, end: usize, write: bool) -> Entry {
        let perms = RegionPerms {
            read: true,
            write,
            exec: true,
        };
        Entry { start, end, perms }
    }

    fn empty() -> State {
        State {
            entries: [FREE; CAPACITY],
            used: 0,
            evict: 0,
            inflight: 0,
            epoch: 0,
        }
    }

    fn held(s: &State) -> Vec<(usize, usize)> {
        let mut v: Vec<_> = s
            .entries
            .iter()
            .filter(|e| e.start < e.end)
            .map(|e| (e.start, e.end))
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn forget_splits_and_trims() {
        let mut s = empty();
        s.insert(entry(0x1000, 0x9000, true));
        s.forget(0x3000, 0x5000);
        assert_eq!(held(&s), [(0x1000, 0x3000), (0x5000, 0x9000)]);
        s.forget(0x0, 0x2000);
        s.forget(0x8000, 0xa000);
        assert_eq!(held(&s), [(0x2000, 0x3000), (0x5000, 0x8000)]);
        assert!(s.covering(0x5000, 0x6000).is_some());
        assert!(
            s.covering(0x2000, 0x5000).is_none(),
            "a hole is not covered"
        );
        assert!(s.all_writable(0x5000, 0x8000));
        assert!(!s.all_writable(0x2000, 0x6000));
        s.insert(entry(0x3000, 0x5000, false));
        assert!(
            !s.all_writable(0x2000, 0x6000),
            "a kept answer is not writable"
        );
    }

    #[test]
    fn a_full_shadow_loses_entries_never_keeps_stale_ones() {
        let mut s = empty();
        for i in 0..CAPACITY {
            s.insert(entry(
                0x10_0000 * (i + 1),
                0x10_0000 * (i + 1) + 0x4000,
                true,
            ));
        }
        // No free slot for the right part: it is lost, not kept.
        s.forget(0x10_1000, 0x10_2000);
        assert_eq!(held(&s)[0], (0x10_0000, 0x10_1000));
        assert!(s.covering(0x10_2000, 0x10_3000).is_none());
        // The oldest goes for a new note.
        s.insert(entry(0x1000, 0x2000, false));
        assert_eq!(held(&s).len(), CAPACITY);
        assert!(s.covering(0x1000, 0x2000).is_some());
    }

    #[test]
    fn only_writable_executable_protections_are_recorded() {
        let (r, w, x) = (1, 2, 4);
        assert!(recordable(r | w | x).is_some_and(|p| p.read && p.write && p.exec));
        assert!(recordable(w | x).is_some_and(|p| !p.read));
        assert_eq!(recordable(r | x), None);
        assert_eq!(recordable(x), None);
        assert_eq!(recordable(r | w), None);
        assert_eq!(recordable(r | w | x | PROT_GROWSDOWN), None);
        assert_eq!(pages(0x1234, 1), (0x1000, 0x2000));
        assert_eq!(pages(0x1000, u64::MAX).1, usize::MAX & !4095);
    }
}
