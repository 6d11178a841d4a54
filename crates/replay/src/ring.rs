//! Lock-free per-thread SPSC flight-recorder rings.
//!
//! The recorder's hot path runs inside the interposer — potentially in
//! signal-handler context, potentially interrupting `malloc` — so it
//! must never take a lock, call into the allocator, or block. Every
//! recording thread therefore owns one single-producer/single-consumer
//! ring from a fixed pool of 64 ring *headers*: the producer is that
//! thread alone, the consumer is the (single) drainer. Slot storage is
//! `mmap`ed directly (a raw syscall, no `malloc`) when a thread claims
//! its ring, at the capacity configured then ([`configure`] /
//! [`LP_RING_CAPACITY`]), and never changes size.
//!
//! # One producer protocol
//!
//! "The producer is that thread alone" includes its signal handlers: a
//! handler whose calls are recorded can land anywhere in another append
//! of the same thread, and a ring has two writers on that thread — the
//! push below, and zpoline's entry stub, whose record exit appends
//! through the ring's cursor inside the *record window* the push last
//! opened (`zpoline::trampoline`'s "The record exit"). Both follow one
//! protocol, on the cursor:
//!
//! 1. **Enter**: raise `nest`, the thread's appends in flight.
//! 2. **Claim**: read `claim`, check the room (the push: the ring's
//!    capacity, rewinding an empty ring; the stub: the window, on a
//!    ring not drained empty), and move `claim` on with one `cmpxchg`
//!    against what was read. A signal's append in between moves it
//!    first and the claim starts over, so each append owns its index.
//! 3. **Write** the record into the index's slot.
//! 4. **Commit**: an append with others in flight under it only lowers
//!    `nest`. The outermost publishes `head = claim` — every index
//!    claimed so far is written by then, its own and those of the
//!    appends that nested in it and have returned — lowers `nest` to 0,
//!    and looks at `claim` again, publishing once more if an append
//!    claimed between its read and the store.
//!
//! So the drain never reads a slot before it is written, and every
//! observed call is either in the trace or in a drop counter. Only
//! the push rewinds, drops, counts near-full and wakes the drain; it
//! closes the record window first and, when it is outermost, opens the
//! next behind its record. What the protocol cannot survive is an
//! append abandoned half-way: a handler that `longjmp`s out of a signal
//! that landed inside one leaves `nest` raised, and the thread's ring
//! publishes nothing more. Within a ring, records are in claim order,
//! which is `tsc` order except where an append nested in another's few
//! instructions.
//!
//! The default capacity is large (131 072 records, ≈ 11 MiB) because it
//! costs *address space*, not memory: the mapping is `MAP_NORESERVE`,
//! and a ring rewinds to slot 0 whenever its producer finds it empty,
//! so it only ever touches as many slots as it has been behind.
//!
//! A full ring **drops the new event and counts the drop** rather than
//! blocking or overwriting — the flight-recorder contract is "never
//! perturb the application; account for every event either in the
//! trace or in the drop counter". A push that leaves the ring 3/4 full
//! counts as backpressure and wakes a parked drain thread.
//!
//! Threads beyond the pool size share nothing: they record nothing and
//! count their events into a pool-exhaustion drop counter, preserving
//! the `recorded + dropped == observed` invariant.

use std::cell::Cell;
use std::sync::OnceLock;
use std::sync::atomic::{compiler_fence, AtomicPtr, AtomicU64, AtomicUsize, Ordering};

use crate::event::EventRecord;

/// Entries per ring when [`LP_RING_CAPACITY`] is unset. Power of two
/// (masked indexing); at 88 bytes per record one ring is ≈ 11 MiB of
/// address space, of which only the slots its backlog reaches become
/// resident.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 17;

/// Rings in the pool — as many as the engine has dispatch rows. Headers
/// are tiny; the slot arrays are mapped on claim.
const MAX_RINGS: usize = 64;

/// Largest accepted per-ring capacity (records). At 88 bytes per
/// record this caps one ring's slot array at 360 MiB — far beyond any
/// sane configuration, present so arithmetic cannot overflow.
pub const MAX_RING_CAPACITY: usize = 1 << 22;

/// Environment variable overriding the per-ring capacity (records;
/// must be a power of two in `[64, MAX_RING_CAPACITY]`).
pub const LP_RING_CAPACITY: &str = "LP_RING_CAPACITY";

/// Near-full threshold: a push that leaves occupancy at or above 3/4
/// of capacity counts as backpressure.
const NEAR_FULL_NUM: usize = 3;
const NEAR_FULL_DEN: usize = 4;

// ——— runtime configuration ————————————————————————————————————————

/// Configured per-ring capacity (0 = unset, use default). Applies to
/// rings claimed *after* the store; already-claimed rings keep theirs.
static CONFIG_CAPACITY: AtomicUsize = AtomicUsize::new(0);

/// Sets the capacity of rings claimed after the call, if [`validate`]
/// accepts it; `false` (and nothing set) otherwise.
pub fn configure(capacity: usize) -> bool {
    let ok = validate(capacity);
    if ok {
        CONFIG_CAPACITY.store(capacity, Ordering::Release);
    }
    ok
}

/// Whether [`configure`] would accept `capacity`: a power of two in
/// `[64, MAX_RING_CAPACITY]`.
pub fn validate(capacity: usize) -> bool {
    capacity.is_power_of_two() && (64..=MAX_RING_CAPACITY).contains(&capacity)
}

/// The per-ring capacity new claims will use.
pub fn configured_capacity() -> usize {
    match CONFIG_CAPACITY.load(Ordering::Acquire) {
        0 => DEFAULT_RING_CAPACITY,
        n => n,
    }
}

// ——— slot storage (mmap, allocator-free) ———————————————————————————

/// Maps `capacity` record slots with anonymous memory via the raw
/// `mmap` syscall — no allocator, async-signal-safe. Null on failure.
/// `MAP_NORESERVE`: no swap is committed for the whole array up front;
/// a slot becomes resident when a push first touches it.
fn map_slots(capacity: usize) -> *mut EventRecord {
    let bytes = capacity * std::mem::size_of::<EventRecord>();
    // PROT_READ|PROT_WRITE = 3,
    // MAP_PRIVATE|MAP_ANONYMOUS|MAP_NORESERVE = 0x4022.
    // SAFETY: anonymous mapping, kernel picks the address; no memory is
    // touched on failure (negative errno return).
    let ret = unsafe {
        syscalls::raw::syscall6(
            syscalls::nr::MMAP,
            0,
            bytes as u64,
            3,
            0x4022,
            u64::MAX, // fd = -1
            0,
        )
    };
    if (ret as i64) < 0 {
        std::ptr::null_mut()
    } else {
        ret as *mut EventRecord
    }
}

/// Unmaps a slot array previously produced by [`map_slots`].
fn unmap_slots(ptr: *mut EventRecord, capacity: usize) {
    let bytes = capacity * std::mem::size_of::<EventRecord>();
    // SAFETY: `ptr`/`bytes` come from a successful map_slots call and
    // the caller (the ring's `Drop`) holds the only reference.
    unsafe {
        syscalls::raw::syscall2(syscalls::nr::MUNMAP, ptr as u64, bytes as u64);
    }
}

// ——— the ring ———————————————————————————————————————————————————————

/// A single-producer single-consumer ring of [`EventRecord`]s with a
/// drop-and-count overflow policy.
///
/// # Contract
///
/// `push` may be called from **one** thread at a time (the owning
/// producer) — and from its signal handlers, in the middle of another
/// append of the same thread (module docs, "One producer protocol");
/// `drain` from one thread at a time (the drainer). The two sides may
/// run concurrently. The static pool upholds this by assigning each
/// ring to at most one producer thread for the process lifetime and
/// serializing drains behind the recorder session.
///
/// # Rewind protocol
///
/// `slots` and `capacity` are written once, when the ring is mapped,
/// before the first record is published. Record `i` lives in slot
/// `(i - base) & (capacity - 1)`. Only the producer ever moves `base`,
/// and only while it observes the ring **empty** with nothing claimed
/// (`claim == tail`): it sets `base` to that index, before its claim
/// and so before the `Release` store of `head` that makes the ring
/// non-empty again. Any append that finds the ring so rewinds to the
/// same index, so an append and a signal's append nested in it agree.
/// The consumer reads `base` only after an `Acquire` load of `head`
/// showed the ring non-empty, and before it publishes `tail`; a
/// non-empty ring's `base` never changes, so the consumer always
/// computes the slots its records were written to. Empty is the only
/// safe point: all of `[tail, head)` was pushed under one `base` (a
/// rewind at record `i` needs `tail == i`), so masked indexing with
/// monotonic head/tail stays correct across rewinds.
#[repr(C)]
pub struct SpscRing {
    /// The producer's side, which the entry stub writes through too.
    cursor: Cursor,
    /// Next read index (monotonic).
    tail: AtomicUsize,
    /// Events dropped because the ring was full (or unmappable).
    dropped: AtomicU64,
    /// Pushes that left occupancy at ≥ 3/4 capacity (backpressure).
    near_full: AtomicU64,
    /// Slot array; null until first push maps it.
    slots: AtomicPtr<EventRecord>,
    /// Power-of-two slot count (0 until mapped).
    capacity: AtomicUsize,
    /// `claim` as of the last rewind: the index held by slot 0.
    base: AtomicUsize,
}

/// A ring's producer side (module docs, "One producer protocol"):
/// written by the owning thread alone — its pushes and the entry
/// stub's record exit, which reaches it through the thread's block
/// (`zpoline::trampoline::record` holds these offsets; the mechanism
/// crate pins them to [`CURSOR_OFFSETS`]) — and, for `head`, read by
/// the drain.
#[repr(C)]
struct Cursor {
    /// The next index to hand out.
    claim: AtomicUsize,
    /// The record window's end: the stub claims only below it (0:
    /// closed).
    limit: AtomicUsize,
    /// Slot address of index `i` inside the window, `bias + i * 88`.
    bias: AtomicUsize,
    /// Next write index the consumer may read up to (monotonic): every
    /// record below it is written.
    head: AtomicUsize,
    /// Appends of the owning thread in flight: more than one means a
    /// signal's append nested in another.
    nest: AtomicUsize,
}

/// Offsets in a ring's cursor, in the order `zpoline::trampoline::record`
/// names them: claim, limit, bias, head, nest — and the ring's `tail`,
/// right behind. The cursor starts the ring, so its address is the
/// ring's.
pub const CURSOR_OFFSETS: [usize; 6] = [
    std::mem::offset_of!(Cursor, claim),
    std::mem::offset_of!(Cursor, limit),
    std::mem::offset_of!(Cursor, bias),
    std::mem::offset_of!(Cursor, head),
    std::mem::offset_of!(Cursor, nest),
    std::mem::offset_of!(SpscRing, tail),
];

/// Most records one record window holds: the stub returns to the push
/// at least this often, so an empty ring still rewinds.
const WINDOW: usize = 256;

impl SpscRing {
    /// An empty, unmapped ring. `const` so the pool lives in a static;
    /// the slot array is mapped by the first `push`.
    #[allow(clippy::new_without_default)]
    pub const fn new() -> SpscRing {
        SpscRing {
            cursor: Cursor {
                claim: AtomicUsize::new(0),
                limit: AtomicUsize::new(0),
                bias: AtomicUsize::new(0),
                head: AtomicUsize::new(0),
                nest: AtomicUsize::new(0),
            },
            tail: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
            near_full: AtomicU64::new(0),
            slots: AtomicPtr::new(std::ptr::null_mut()),
            capacity: AtomicUsize::new(0),
            base: AtomicUsize::new(0),
        }
    }

    /// A ring with storage mapped eagerly at `capacity` (power of two)
    /// — for tests and embedders; pool rings map lazily on claim.
    pub fn with_capacity(capacity: usize) -> SpscRing {
        assert!(capacity.is_power_of_two(), "ring capacity must be 2^n");
        let ring = SpscRing::new();
        let slots = map_slots(capacity);
        assert!(!slots.is_null(), "mmap of {capacity} ring slots failed");
        ring.slots.store(slots, Ordering::Release);
        ring.capacity.store(capacity, Ordering::Release);
        ring
    }

    /// The slots and their capacity, mapped at [`configured_capacity`]
    /// on first use (a producer-side call); `None` when `mmap` failed.
    #[inline]
    fn mapped(&self) -> Option<(usize, *mut EventRecord)> {
        let slots = self.slots.load(Ordering::Relaxed);
        if !slots.is_null() {
            return Some((self.capacity.load(Ordering::Relaxed), slots));
        }
        let cap = configured_capacity();
        let slots = map_slots(cap);
        if slots.is_null() {
            return None;
        }
        self.slots.store(slots, Ordering::Release);
        self.capacity.store(cap, Ordering::Release);
        Some((cap, slots))
    }

    /// Appends `rec`; returns `false` (and counts the drop) when full.
    ///
    /// Producer side only: the owning thread, or a signal handler that
    /// interrupted it anywhere, another push or a record-exit append
    /// included. Allocator-free and lock-free (the first push maps the
    /// slots through the raw `mmap` syscall).
    ///
    /// The push closes the record window first and, unless it is
    /// nested in another append, opens a new one behind its record.
    #[inline]
    pub fn push(&self, rec: EventRecord) -> bool {
        let c = &self.cursor;
        let nest = c.nest.load(Ordering::Relaxed);
        c.nest.store(nest + 1, Ordering::Relaxed);
        compiler_fence(Ordering::SeqCst);
        c.limit.store(0, Ordering::Relaxed);
        compiler_fence(Ordering::SeqCst);
        let pushed = self.claim_and_write(rec);
        if nest == 0 {
            self.open_window();
        }
        self.commit();
        pushed
    }

    /// Claims the next index and writes `rec` to its slot, or counts a
    /// drop. A signal's append that claims in between makes the claim
    /// fail and start over.
    #[inline]
    fn claim_and_write(&self, rec: EventRecord) -> bool {
        let Some((cap, slots)) = self.mapped() else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return false;
        };
        let c = &self.cursor;
        loop {
            let claim = c.claim.load(Ordering::Relaxed);
            let tail = self.tail.load(Ordering::Acquire);
            let occupied = claim.wrapping_sub(tail);
            if occupied >= cap {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                crate::drain::wake_if_parked();
                return false;
            }
            let base = if occupied == 0 {
                // Rewind: a drained ring starts over at slot 0, so it
                // only ever touches as many slots as it has been behind.
                self.base.store(claim, Ordering::Release);
                claim
            } else {
                self.base.load(Ordering::Relaxed)
            };
            compiler_fence(Ordering::SeqCst);
            if !claim_next(&c.claim, claim) {
                continue;
            }
            // SAFETY: index `claim` is outside `[tail, head)`, so the
            // consumer is not reading its slot, and this append alone
            // claimed it.
            unsafe {
                *slots.add(claim.wrapping_sub(base) & (cap - 1)) = rec;
            }
            if (occupied + 1) * NEAR_FULL_DEN >= cap * NEAR_FULL_NUM {
                self.near_full.fetch_add(1, Ordering::Relaxed);
                // A parked drainer must not ride out its timeout against
                // a 3/4-full ring: this is the backpressure signal.
                crate::drain::wake_if_parked();
            }
            return true;
        }
    }

    /// Opens the record window behind the last claim: at most
    /// [`WINDOW`] records, none past the end of the slot array (so
    /// `bias` addresses them all), and none a push would count as
    /// near-full, which the stub does not do.
    fn open_window(&self) {
        let (cap, slots) = (
            self.capacity.load(Ordering::Relaxed),
            self.slots.load(Ordering::Relaxed),
        );
        if slots.is_null() {
            return;
        }
        let c = &self.cursor;
        let claim = c.claim.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Acquire);
        let slot = claim.wrapping_sub(self.base.load(Ordering::Relaxed)) & (cap - 1);
        // The first index whose push leaves the ring 3/4 full.
        let near_full = tail.wrapping_add((cap * NEAR_FULL_NUM).div_ceil(NEAR_FULL_DEN) - 1);
        let before_near_full = near_full.wrapping_sub(claim) as isize;
        if before_near_full <= 0 {
            return;
        }
        let room = (cap - slot).min(WINDOW).min(before_near_full as usize);
        let record = std::mem::size_of::<EventRecord>();
        let bias = (slots as usize + slot * record).wrapping_sub(claim.wrapping_mul(record));
        c.bias.store(bias, Ordering::Relaxed);
        compiler_fence(Ordering::SeqCst);
        c.limit.store(claim.wrapping_add(room), Ordering::Release);
    }

    /// Ends an append: one nested in another leaves the publishing to
    /// it; the outermost publishes every index claimed so far, then
    /// looks again after lowering the count, for a signal's append that
    /// claimed in between (whose record is written by then).
    #[inline]
    fn commit(&self) {
        let c = &self.cursor;
        let nest = c.nest.load(Ordering::Relaxed);
        if nest > 1 {
            c.nest.store(nest - 1, Ordering::Relaxed);
            return;
        }
        loop {
            let claimed = c.claim.load(Ordering::Relaxed);
            compiler_fence(Ordering::SeqCst);
            c.head.store(claimed, Ordering::Release);
            compiler_fence(Ordering::SeqCst);
            c.nest.store(0, Ordering::Relaxed);
            compiler_fence(Ordering::SeqCst);
            if c.claim.load(Ordering::Relaxed) == claimed {
                return;
            }
            c.nest.store(1, Ordering::Relaxed);
            compiler_fence(Ordering::SeqCst);
        }
    }

    /// Closes the record window; the next push that is not nested in
    /// another append opens a new one.
    fn close_window(&self) {
        self.cursor.limit.store(0, Ordering::Release);
    }

    /// Claims everything currently buffered for the consumer, or `None`
    /// when the ring is empty. Consumer side only; the records stay in
    /// the ring — and the ring cannot rewind — until [`Span::release`].
    pub(crate) fn span(&self) -> Option<Span<'_>> {
        let tail = self.tail.load(Ordering::Relaxed);
        let head = self.cursor.head.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        // Loaded after the Acquire on `head`: the array was published
        // before the first record, and a non-empty ring keeps its base,
        // so these are what the records were written under.
        Some(Span {
            ring: self,
            slots: self.slots.load(Ordering::Acquire),
            mask: self.capacity.load(Ordering::Acquire) - 1,
            base: self.base.load(Ordering::Acquire),
            next: tail,
            head,
        })
    }

    /// Removes every available record in FIFO order, passing each to
    /// `f`. Returns how many were drained. Consumer side only.
    pub fn drain(&self, mut f: impl FnMut(EventRecord)) -> usize {
        let Some(mut span) = self.span() else {
            return 0;
        };
        while let Some(rec) = span.peek() {
            f(*rec);
            span.advance();
        }
        span.release()
    }

    /// Slot the next push writes while the ring stays non-empty (a push
    /// at empty rewinds to slot 0 first). Racy snapshot.
    pub fn write_slot(&self) -> usize {
        let cap = self.capacity.load(Ordering::Acquire);
        self.cursor
            .head
            .load(Ordering::Acquire)
            .wrapping_sub(self.base.load(Ordering::Acquire))
            & cap.wrapping_sub(1)
    }

    /// Records currently buffered (racy snapshot).
    pub fn len(&self) -> usize {
        self.cursor
            .head
            .load(Ordering::Acquire)
            .wrapping_sub(self.tail.load(Ordering::Acquire))
    }

    /// Whether the ring currently holds no records (racy snapshot).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Slot count (0 before the first push maps storage).
    pub fn capacity(&self) -> usize {
        self.capacity.load(Ordering::Acquire)
    }

    /// Cumulative events dropped to the overflow policy.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Cumulative pushes that observed near-full occupancy.
    pub fn near_full(&self) -> u64 {
        self.near_full.load(Ordering::Relaxed)
    }
}

/// The consumer's claim on one ring's `[tail, head)` as of
/// [`SpscRing::span`], read in place.
pub(crate) struct Span<'a> {
    ring: &'a SpscRing,
    slots: *const EventRecord,
    mask: usize,
    base: usize,
    /// Next record to hand out; `head` once exhausted.
    next: usize,
    head: usize,
}

impl Span<'_> {
    /// The oldest record not yet advanced past.
    #[inline]
    pub(crate) fn peek(&self) -> Option<&EventRecord> {
        if self.next == self.head {
            return None;
        }
        let slot = self.next.wrapping_sub(self.base) & self.mask;
        // SAFETY: records in `[tail, head)` are published by the
        // producer's Release store of `head` and their slots are not
        // rewritten until `release` advances `tail` past them, which
        // consumes the span this reference borrows.
        Some(unsafe { &*self.slots.add(slot) })
    }

    /// Steps past the record [`peek`](Span::peek) returned.
    #[inline]
    pub(crate) fn advance(&mut self) {
        debug_assert_ne!(self.next, self.head);
        self.next = self.next.wrapping_add(1);
    }

    /// Frees the whole span for the producer and returns its length.
    pub(crate) fn release(self) -> usize {
        let tail = self.ring.tail.load(Ordering::Relaxed);
        self.ring.tail.store(self.head, Ordering::Release);
        self.head.wrapping_sub(tail)
    }
}

impl Drop for SpscRing {
    fn drop(&mut self) {
        let slots = self.slots.load(Ordering::Acquire);
        let cap = self.capacity.load(Ordering::Acquire);
        if !slots.is_null() {
            unmap_slots(slots, cap);
        }
    }
}

/// Moves `claim` from `seen` to the next index, unless an append
/// nested in this one — a signal handler's, on the same thread — moved
/// it first. Only the owning thread writes `claim`, so a plain
/// `cmpxchg`, one instruction no signal can split, is enough: no `lock`.
#[inline]
fn claim_next(claim: &AtomicUsize, seen: usize) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        let moved: u8;
        // SAFETY: `claim` is a live, aligned word; `cmpxchg` compares it
        // with rax and stores the new index when they are equal.
        unsafe {
            std::arch::asm!(
                "cmpxchg qword ptr [{claim}], {next}",
                "setnz {moved}",
                claim = in(reg) claim.as_ptr(),
                next = in(reg) seen.wrapping_add(1),
                moved = out(reg_byte) moved,
                inout("rax") seen => _,
                options(nostack),
            );
        }
        moved == 0
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        claim
            .compare_exchange(seen, seen.wrapping_add(1), Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
    }
}

// ——— the static pool ———————————————————————————————————————————————

static RINGS: [SpscRing; MAX_RINGS] = [const { SpscRing::new() }; MAX_RINGS];

/// Next pool slot to hand out (monotonic; never reused — a ring's
/// producer assignment is for the thread's lifetime, which keeps the
/// SPSC contract trivially true).
static NEXT_RING: AtomicUsize = AtomicUsize::new(0);

/// Events dropped because more than [`MAX_RINGS`] threads recorded.
static POOL_EXHAUSTED_DROPS: AtomicU64 = AtomicU64::new(0);

/// TLS sentinel: not yet assigned.
const UNASSIGNED: usize = usize::MAX;
/// TLS sentinel: pool exhausted, this thread records nothing.
const NO_RING: usize = usize::MAX - 1;
/// TLS sentinel: the drain thread, whose own syscalls are never events.
const DRAINER: usize = usize::MAX - 2;

/// The running drain thread's `pthread_t`, 0 while none runs. Stored
/// (Release) by the spawning thread before the mechanism installs, and
/// loaded (Acquire) by a thread's first push, which an interposed
/// syscall — so the install — precedes.
static DRAIN_THREAD: AtomicUsize = AtomicUsize::new(0);

extern "C" {
    fn pthread_self() -> usize;
}

thread_local! {
    /// This thread's ring index. Const-initialized so the first access
    /// — possibly from a signal handler — performs no lazy init.
    static RING_IDX: Cell<usize> = const { Cell::new(UNASSIGNED) };
}

/// How the recorder reaches the per-thread state of the engine that
/// interposes the thread ([`on_thread_link`]).
#[derive(Clone, Copy, Debug)]
pub struct ThreadLink {
    /// The calling thread's kernel tid as the engine keeps it (0: it
    /// keeps none); both writers of a ring stamp this one.
    pub tid: fn() -> u32,
    /// Hands the calling thread's engine the address of its ring's
    /// cursor ([`CURSOR_OFFSETS`]), whose record window the entry stub
    /// appends through.
    pub window: fn(usize),
}

static LINK: OnceLock<ThreadLink> = OnceLock::new();

/// Has every push into a thread's pool ring hand that thread's engine
/// the ring's cursor, and every recorded event take its tid from the
/// engine. The first call wins.
pub fn on_thread_link(link: ThreadLink) {
    let _ = LINK.set(link);
}

/// The registered [`ThreadLink`], if any.
pub(crate) fn link() -> Option<&'static ThreadLink> {
    LINK.get()
}

/// Appends `rec` to the calling thread's ring, claiming one from the
/// pool on first use, and hands the thread's engine the ring's record
/// window ([`on_thread_link`]). Returns `false` when the event was
/// dropped (ring full, or pool exhausted) — the drop is counted either
/// way — or when the calling thread is the drain thread, which records
/// nothing and drops nothing.
#[inline]
pub fn push_current_thread(rec: EventRecord) -> bool {
    let idx = current_ring_idx();
    if idx >= DRAINER {
        if idx == NO_RING {
            POOL_EXHAUSTED_DROPS.fetch_add(1, Ordering::Relaxed);
        }
        return false;
    }
    let ring = &RINGS[idx];
    let pushed = ring.push(rec);
    if let Some(link) = LINK.get() {
        (link.window)(ring as *const SpscRing as usize);
    }
    pushed
}

/// Closes every pool ring's record window: from here on each thread's
/// calls reach its recorder's push until that push opens a new one.
pub fn close_windows() {
    claimed().iter().for_each(SpscRing::close_window);
}

/// The calling thread's ring index, claimed from the pool on first use,
/// or one of the sentinels.
#[inline]
fn current_ring_idx() -> usize {
    RING_IDX.with(|c| {
        let cached = c.get();
        if cached != UNASSIGNED {
            return cached;
        }
        // SAFETY: reads the calling thread's descriptor; async-signal-safe.
        if unsafe { pthread_self() } == DRAIN_THREAD.load(Ordering::Acquire) {
            c.set(DRAINER);
            return DRAINER;
        }
        let claimed = NEXT_RING.fetch_add(1, Ordering::Relaxed);
        let idx = if claimed < MAX_RINGS {
            claimed
        } else {
            NO_RING
        };
        c.set(idx);
        idx
    })
}

/// Claims the calling thread's ring and maps its slots now, as its
/// first push would.
pub(crate) fn claim_current_thread() {
    let idx = current_ring_idx();
    if idx < DRAINER {
        let _ = RINGS[idx].mapped();
    }
}

/// Names the drain thread by its `pthread_t` (0: none): it claims no
/// ring, so whatever syscall of its own reaches a recorder — through a
/// site an interposed thread had rewritten, from its first instruction
/// on — is not an event of the trace.
pub(crate) fn set_drain_thread(thread: usize) {
    DRAIN_THREAD.store(thread, Ordering::Release);
}

/// How many pool rings are currently claimed by threads.
pub fn rings_claimed() -> usize {
    NEXT_RING.load(Ordering::Relaxed).min(MAX_RINGS)
}

/// The pool rings claimed so far, in claim order.
pub(crate) fn claimed() -> &'static [SpscRing] {
    &RINGS[..rings_claimed()]
}

/// Records ever accepted by the pool's rings: the sum of their
/// monotonic heads.
pub(crate) fn total_pushed() -> u64 {
    claimed()
        .iter()
        .map(|r| r.cursor.head.load(Ordering::Relaxed) as u64)
        .sum()
}

/// Drains every claimed pool ring, passing records to `f` (per-ring
/// FIFO order; cross-ring interleaving is the caller's to resolve,
/// e.g. by sorting on [`EventRecord::tsc`]). Single drainer at a time.
pub fn drain_all(mut f: impl FnMut(EventRecord)) -> usize {
    claimed().iter().map(|r| r.drain(&mut f)).sum()
}

/// Cumulative events dropped across the pool: full rings plus
/// pool-exhausted threads.
pub fn total_dropped() -> u64 {
    claimed().iter().map(SpscRing::dropped).sum::<u64>()
        + POOL_EXHAUSTED_DROPS.load(Ordering::Relaxed)
}

/// Cumulative near-full (backpressure) observations across the pool.
pub fn total_near_full() -> u64 {
    claimed().iter().map(SpscRing::near_full).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(n: u64) -> EventRecord {
        EventRecord {
            sysno: n,
            tsc: n,
            ..EventRecord::ZERO
        }
    }

    #[test]
    fn fifo_order_preserved() {
        let ring = SpscRing::with_capacity(1024);
        for i in 0..10 {
            assert!(ring.push(rec(i)));
        }
        let mut seen = Vec::new();
        assert_eq!(ring.drain(|r| seen.push(r.sysno)), 10);
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
        assert!(ring.is_empty());
    }

    #[test]
    fn lazy_mapping_on_first_push() {
        let ring = SpscRing::new();
        assert_eq!(ring.capacity(), 0);
        assert!(ring.push(rec(1)));
        assert!(ring.capacity().is_power_of_two());
        let mut n = 0;
        ring.drain(|_| n += 1);
        assert_eq!(n, 1);
    }

    #[test]
    fn overflow_drops_and_counts() {
        let cap = 256u64;
        let ring = SpscRing::with_capacity(cap as usize);
        for i in 0..(cap + 17) {
            ring.push(rec(i));
        }
        assert_eq!(ring.len(), cap as usize);
        assert_eq!(ring.dropped(), 17);
        // The *oldest* events survive (drop-newest policy).
        let mut first = None;
        ring.drain(|r| {
            first.get_or_insert(r.sysno);
        });
        assert_eq!(first, Some(0));
    }

    #[test]
    fn wraparound_across_many_generations() {
        let cap = 1024;
        let ring = SpscRing::with_capacity(cap);
        let mut expect = 0u64;
        for gen in 0..5 {
            let n = cap / 2 + gen; // never fills: no drops
            for i in 0..n {
                assert!(ring.push(rec(expect + i as u64)));
            }
            let mut drained = Vec::new();
            assert_eq!(ring.drain(|r| drained.push(r.sysno)), n);
            assert_eq!(drained.first(), Some(&expect));
            assert_eq!(drained.last(), Some(&(expect + n as u64 - 1)));
            expect += n as u64;
        }
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn near_full_counts_backpressure_and_capacity_never_changes() {
        let ring = SpscRing::with_capacity(64);
        // Fill to 3/4: the crossing push counts backpressure.
        for i in 0..48 {
            assert!(ring.push(rec(i)));
        }
        assert!(ring.near_full() > 0, "3/4 occupancy observed");
        ring.drain(|_| {});
        // Neither pressure nor loss resizes the ring.
        for i in 0..70 {
            ring.push(rec(i));
        }
        assert_eq!(ring.dropped(), 6);
        ring.drain(|_| {});
        assert!(ring.push(rec(99)));
        assert_eq!(ring.capacity(), 64);
        let mut seen = Vec::new();
        ring.drain(|r| seen.push(r.sysno));
        assert_eq!(seen, vec![99]);
    }

    #[test]
    fn configure_validates_and_applies() {
        // Refused, with no state change on failure.
        let cap0 = configured_capacity();
        for bad in [1000, 16, MAX_RING_CAPACITY * 2] {
            assert!(!configure(bad), "{bad}");
            assert_eq!(configured_capacity(), cap0);
        }
        // A valid configuration round-trips through the accessor.
        assert!(configure(2048));
        assert_eq!(configured_capacity(), 2048);
        // Restore (tests share the process).
        assert!(configure(cap0));
    }

    #[test]
    fn concurrent_producer_consumer() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;

        // A roomy ring, and a tiny one the producer overruns: the
        // accounting and FIFO-order invariants must hold for both.
        for (capacity, n) in [(1024, 50_000u64), (64, 100_000)] {
            let ring = Arc::new(SpscRing::with_capacity(capacity));
            let done = Arc::new(AtomicBool::new(false));

            let producer = {
                let ring = Arc::clone(&ring);
                let done = Arc::clone(&done);
                std::thread::spawn(move || {
                    let mut pushed = 0u64;
                    for i in 0..n {
                        if ring.push(rec(i)) {
                            pushed += 1;
                        }
                    }
                    done.store(true, Ordering::Release);
                    pushed
                })
            };

            let mut seen = Vec::new();
            loop {
                ring.drain(|r| seen.push(r.sysno));
                if done.load(Ordering::Acquire) && ring.is_empty() {
                    break;
                }
            }
            let pushed = producer.join().unwrap();
            assert_eq!(seen.len() as u64, pushed);
            assert_eq!(pushed + ring.dropped(), n, "every event accounted for");
            // Drained values are a strictly increasing subsequence of 0..n.
            assert!(seen.windows(2).all(|w| w[0] < w[1]), "order violated");
            assert_eq!(ring.capacity(), capacity);
        }
    }
}
