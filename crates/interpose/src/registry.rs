//! Process-global handler registration.
//!
//! Interposition mechanisms (the lazypoline engine, the zpoline
//! dispatcher, the SUD-only interposer) consult one global handler so
//! that swapping mechanisms never requires re-registering policy. The
//! handler is stored behind an `AtomicPtr` to a leaked double box: the
//! hot path is a single atomic load and the handler lives for the rest
//! of the process (interposition is one-way; rewritten code sites can
//! fire at any time until exit).
//!
//! # Panic containment
//!
//! A handler panic must never unwind into the dispatcher: the dispatch
//! frames sit below hand-written assembly (and, on the slow path,
//! inside a signal handler), where unwinding is undefined behaviour and
//! would take the whole process down for a bug in *policy* code.
//! [`interpose_event`] therefore runs both `handle` and `post` under
//! [`std::panic::catch_unwind`]; the first panic **quarantines**
//! the handler — it is atomically disabled, its exit bytes keep only
//! `ROUTED` (so the fast path stops even consulting it), the event is
//! counted, and the intercepted syscall passes through unmodified.
//! Installing a handler via [`set_global_handler`] lifts the
//! quarantine.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicU8, Ordering};

use syscalls::SyscallArgs;

use crate::{Action, SyscallEvent, SyscallHandler};

/// The installed handler and what the registry read of it once, in one
/// leaked box: a dispatch reads the declaration of the handler it calls.
struct Installed {
    handler: Box<dyn SyscallHandler>,
    /// [`SyscallHandler::leaves_fp_env`], read at registration.
    leaves_fp_env: bool,
}

static GLOBAL: AtomicPtr<Installed> = AtomicPtr::new(std::ptr::null_mut());

/// The bits of an exit byte ([`EXITS`]).
pub mod exit {
    /// In the handler's `interest()`: the bit `global_interested` reads.
    pub const WANTED: u8 = 1 << 0;
    /// In `interest() ∩ leaves_alone()`: the stack only records it.
    pub const RECORDED_ONLY: u8 = 1 << 1;
    /// Seen by the mechanism whatever the interest (`set_routed`).
    pub const ROUTED: u8 = 1 << 2;
}

/// One exit byte per syscall number ([`exit`]'s bits), read instead of
/// the handler's declarations: `WANTED` everywhere while no handler is
/// registered (an unfiltered mechanism must still reach
/// [`interpose_event`], which handles the null case).
///
/// The bytes are rebuilt one at a time after the handler pointer is
/// stored, so a concurrent reader can observe a mix of the old and new
/// handler's bytes. That race is benign by construction: a stale byte
/// errs only toward *delivering* a syscall the new handler did not ask
/// for (which every handler must tolerate — the table is an
/// optimization, not a contract), or toward filtering one the *old*
/// handler did not want. Handlers are expected to be installed once,
/// near startup, before the threads they filter for exist. A rebuild
/// never clears `ROUTED`. A mechanism whose gate is not Rust reads it
/// directly (zpoline's entry stub reads byte `nr` before it builds a
/// frame): exactly what [`exit_byte`] reads, so there is no copy to keep
/// coherent.
pub static EXITS: [AtomicU8; 512] = [const { AtomicU8::new(exit::WANTED) }; 512];

/// The exit byte of `nr`, one relaxed load; `WANTED` past the table
/// (≥ 512), as `InterestSet::contains` answers there.
#[inline]
pub fn exit_byte(nr: u64) -> u8 {
    EXITS.get(nr as usize).map_or(exit::WANTED, |byte| byte.load(Ordering::Relaxed))
}

/// The numbers [`set_routed`] registered, as `InterestSet` words.
static ROUTED_SET: [AtomicU64; 8] = [const { AtomicU64::new(0) }; 8];

/// Marks `routed` `ROUTED` for good: the numbers a mechanism must see
/// whatever the handler's interest. A mechanism registers its set once,
/// before it publishes [`EXITS`]; every later rebuild keeps the bit.
pub fn set_routed(routed: &crate::InterestSet) {
    for (word, bits) in ROUTED_SET.iter().zip(routed.words()) {
        word.fetch_or(bits, Ordering::Relaxed);
    }
    keep_routed();
}

/// ORs `ROUTED` into the byte of every registered number. The fence
/// orders a rebuild's stores against a `set_routed` that overlaps it:
/// either the rebuild's `keep_routed` reads the new set, or the
/// `set_routed`'s reads the rebuild's bytes; both OR the bit in.
fn keep_routed() {
    std::sync::atomic::fence(Ordering::SeqCst);
    for (bytes, word) in EXITS.chunks(64).zip(&ROUTED_SET) {
        let mut routed = word.load(Ordering::Relaxed);
        while routed != 0 {
            bytes[routed.trailing_zeros() as usize].fetch_or(exit::ROUTED, Ordering::Relaxed);
            routed &= routed - 1;
        }
    }
}

/// Rebuilds the table for a handler that wants `interest` and leaves
/// `left_alone` alone, byte by byte (a reader in the middle sees a mix,
/// as [`EXITS`] documents). A registered number's byte keeps `ROUTED`
/// throughout.
fn store_exits(interest: &crate::InterestSet, left_alone: &crate::InterestSet) {
    let recorded_only = interest.intersection(left_alone).words();
    let words = interest.words().into_iter().zip(recorded_only).zip(&ROUTED_SET);
    for (bytes, ((mut wanted, mut only), routed)) in EXITS.chunks(64).zip(words) {
        let mut routed = routed.load(Ordering::Relaxed);
        for byte in bytes {
            let bit = |word: u64, value: u8| (word & 1) as u8 * value;
            let exit = bit(wanted, exit::WANTED)
                | bit(only, exit::RECORDED_ONLY)
                | bit(routed, exit::ROUTED);
            byte.store(exit, Ordering::Relaxed);
            (wanted, only, routed) = (wanted >> 1, only >> 1, routed >> 1);
        }
    }
    keep_routed();
}

/// Installs `handler` as the process-global interposer, replacing any
/// previous one, and stores its declarations (`interest`, `leaves_alone`,
/// [`SyscallHandler::leaves_fp_env`]) for the mechanisms' fast paths.
///
/// The handler is intentionally leaked: intercepted syscalls can occur
/// on any thread at any time once code has been rewritten, so there is
/// no safe point to drop it. (A replaced handler leaks too — handlers
/// are expected to be installed once, near startup.)
pub fn set_global_handler(handler: Box<dyn SyscallHandler>) {
    let (interest, left_alone) = (handler.interest(), handler.leaves_alone());
    let leaves_fp_env = handler.leaves_fp_env();
    let thin = Box::into_raw(Box::new(Installed { handler, leaves_fp_env }));
    GLOBAL.store(thin, Ordering::SeqCst);
    store_exits(&interest, &left_alone);
    // A fresh handler starts trusted: lift any standing quarantine
    // *after* the exit table is valid, so no window exists where a
    // quarantined-then-revived handler sees a zeroed set.
    QUARANTINED.store(false, Ordering::SeqCst);
}

/// Installs `handler` like [`set_global_handler`] and returns a guard
/// that restores the *previously* installed handler — pointer, exit
/// bytes, and a lifted quarantine — when dropped.
///
/// This is the registration entry point for scoped installations
/// (benchmark phases, tests, `ActiveMechanism` guards): unlike a bare
/// [`set_global_handler`], a drop of the guard cannot leak handler state
/// into whatever runs next. Guards must be dropped in LIFO order; the
/// restored handler starts un-quarantined even if it had panicked
/// before. The guard is `!Send` — drop it on the installing thread.
pub fn install_handler(handler: Box<dyn SyscallHandler>) -> HandlerGuard {
    let prev = GLOBAL.load(Ordering::Acquire);
    set_global_handler(handler);
    HandlerGuard { prev }
}

/// RAII restoration of the previous global handler; see
/// [`install_handler`].
#[must_use = "dropping the guard immediately restores the previous handler"]
pub struct HandlerGuard {
    prev: *mut Installed,
}

impl Drop for HandlerGuard {
    fn drop(&mut self) {
        if self.prev.is_null() {
            GLOBAL.store(std::ptr::null_mut(), Ordering::SeqCst);
            store_exits(&crate::InterestSet::all(), &crate::InterestSet::none());
        } else {
            // SAFETY: set_global_handler leaked the previous box, so
            // the pointee is still valid (handlers live for 'static).
            let prev = unsafe { &(*self.prev).handler };
            GLOBAL.store(self.prev, Ordering::SeqCst);
            store_exits(&prev.interest(), &prev.leaves_alone());
        }
        QUARANTINED.store(false, Ordering::SeqCst);
    }
}

/// Whether the installed handler is quarantined after panicking.
static QUARANTINED: AtomicBool = AtomicBool::new(false);

/// Cumulative count of handlers quarantined (monotonic — re-installing
/// a handler lifts the quarantine but does not erase the history).
static QUARANTINE_EVENTS: AtomicU64 = AtomicU64::new(0);

/// How many handler panics have led to quarantine since process start.
pub fn quarantined_handlers() -> u64 {
    QUARANTINE_EVENTS.load(Ordering::Relaxed)
}

/// Disables the installed handler after it panicked: first caller wins,
/// counts the event, clears every exit byte but its `ROUTED` (the fast
/// path stops consulting the handler entirely), and writes a one-line
/// note to stderr with a raw `write` (no allocation, no locks — this
/// can run inside the `SIGSYS` handler).
#[cold]
fn quarantine_global() {
    if QUARANTINED.swap(true, Ordering::SeqCst) {
        return; // racing panics: already quarantined
    }
    QUARANTINE_EVENTS.fetch_add(1, Ordering::Relaxed);
    store_exits(&crate::InterestSet::none(), &crate::InterestSet::none());
    let msg = b"interpose: handler panicked; quarantined (syscalls pass through)\n";
    // SAFETY: a raw write of a static buffer to stderr; it touches no
    // memory of ours but the buffer it reads.
    unsafe {
        libc::write(2, msg.as_ptr().cast(), msg.len());
    }
}

/// Tests `nr`'s exit byte for `WANTED`: should the mechanism deliver
/// syscall `nr` to the handler, or fall straight through to the raw
/// syscall? Out-of-range numbers (≥ 512) always report interesting.
#[inline]
pub fn global_interested(nr: u64) -> bool {
    exit_byte(nr) & exit::WANTED != 0
}

/// Returns the registered handler, if any.
#[inline]
pub fn global_handler() -> Option<&'static dyn SyscallHandler> {
    installed().map(|i| &*i.handler)
}

#[inline]
fn installed() -> Option<&'static Installed> {
    // SAFETY: null, or set_global_handler's leaked box, valid for
    // 'static.
    unsafe { GLOBAL.load(Ordering::Acquire).as_ref() }
}

/// The per-syscall decision sequence behind the interest gate, in one
/// pass: the global handler's `handle` on `event`, execution of a
/// `Passthrough` (via the caller-supplied `execute`, which reads the
/// handler's possibly-rewritten number/arguments from the event), and
/// the handler's `post` hook on the result.
///
/// The handler pointer is loaded once for both halves. With no handler
/// registered, or a quarantined one, the call passes through and
/// nothing else runs. A panic in `handle` quarantines the handler
/// (module docs), and the call still executes, without `post`; a panic
/// in `post` quarantines it and leaves the syscall's real return value
/// untouched; a handler quarantined while the call executed — by
/// another thread's dispatch, or a nested one — is not asked to `post`.
///
/// A mechanism that has already tested the interest set itself (the
/// lazypoline dispatcher: once, for its own raw exit) enters here;
/// everything else goes through [`interpose_syscall`].
///
/// Returns the result and whether the pass left x87 and `MXCSR` alone,
/// as far as the registry knows: the [`SyscallHandler::leaves_fp_env`]
/// cached with the handler it called, `true` when it called none (only
/// `execute` ran), `false` once a panic or a quarantine was seen.
#[inline]
pub fn interpose_event<F>(event: &mut SyscallEvent, execute: F) -> (u64, bool)
where
    F: FnOnce(&SyscallArgs) -> u64,
{
    let installed = match installed() {
        Some(i) if !QUARANTINED.load(Ordering::Relaxed) => i,
        _ => return (execute(&event.call), true),
    };
    let handler = &*installed.handler;
    // AssertUnwindSafe: on panic the handler is never called again
    // (quarantine), so broken invariants are unobservable.
    let action = match panic::catch_unwind(AssertUnwindSafe(|| handler.handle(event))) {
        Ok(action) => action,
        Err(_) => {
            quarantine_global();
            return (execute(&event.call), false);
        }
    };
    let ret = match action {
        Action::Passthrough => {
            let ret = execute(&event.call);
            if QUARANTINED.load(Ordering::Relaxed) {
                return (ret, false);
            }
            match panic::catch_unwind(AssertUnwindSafe(|| handler.post(event, ret))) {
                Ok(r) => r,
                Err(_) => {
                    quarantine_global();
                    return (ret, false);
                }
            }
        }
        Action::Return(v) => v,
        Action::Fail(e) => e.as_ret(),
    };
    (ret, installed.leaves_fp_env)
}

/// The complete per-syscall decision sequence every mechanism runs: the
/// interest gate, event construction, and [`interpose_event`].
///
/// This is the **single source of truth** for that sequence. The
/// SUD-only interposer runs it inside its `SIGSYS` handler and
/// lpbench's `interpose.dispatch_hit_ns` / `dispatch_miss_ns` ledger
/// rows call it directly; `fastpath::lazypoline_dispatch`, which needs
/// the gate's answer for itself, reads it once and enters
/// [`interpose_event`] — the function below the gate here — so the
/// benchmark measures the production decision path by construction
/// instead of maintaining a copy of it.
///
/// `execute` performs the (possibly rewritten) syscall and returns its
/// raw result; it is not called for `Return`/`Fail` decisions. `site`
/// is the invocation-site address for event attribution (0 if unknown).
#[inline]
pub fn interpose_syscall<F>(call: SyscallArgs, site: usize, execute: F) -> u64
where
    F: FnOnce(SyscallArgs) -> u64,
{
    if !global_interested(call.nr) {
        return execute(call);
    }
    let mut event = SyscallEvent::with_site(call, site);
    interpose_event(&mut event, |decided| execute(*decided)).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InterestSet, PassthroughHandler};
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// The two halves [`interpose_event`] fused, as they were when each
    /// was a public function that loaded the handler and the quarantine
    /// flag for itself: the oracle the one-pass sequence is compared to.
    fn dispatch_global(event: &mut SyscallEvent) -> Action {
        match global_handler() {
            Some(h) if !QUARANTINED.load(Ordering::Relaxed) => {
                match panic::catch_unwind(AssertUnwindSafe(|| h.handle(event))) {
                    Ok(action) => action,
                    Err(_) => {
                        quarantine_global();
                        Action::Passthrough
                    }
                }
            }
            _ => Action::Passthrough,
        }
    }

    fn post_global(event: &SyscallEvent, ret: u64) -> u64 {
        match global_handler() {
            Some(h) if !QUARANTINED.load(Ordering::Relaxed) => {
                match panic::catch_unwind(AssertUnwindSafe(|| h.post(event, ret))) {
                    Ok(r) => r,
                    Err(_) => {
                        quarantine_global();
                        ret
                    }
                }
            }
            _ => ret,
        }
    }

    // The registry is process-global; serialize the tests that install
    // handlers so they don't observe each other's installs mid-assert.
    // A test that fails while holding it reports its own verdict: the
    // others take the poisoned guard.
    static REGISTRY_LOCK: Mutex<()> = Mutex::new(());

    fn lock_registry() -> MutexGuard<'static, ()> {
        REGISTRY_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// What the table says of `nr` besides `ROUTED`.
    fn declared(nr: u64) -> u8 {
        exit_byte(nr) & !exit::ROUTED
    }

    #[test]
    fn unregistered_defaults_to_passthrough() {
        // Note: global state — this test runs before any set in this
        // process only when filtered; tolerate either outcome.
        let mut ev = SyscallEvent::new(SyscallArgs::nullary(39));
        let _ = dispatch_global(&mut ev);
    }

    #[test]
    fn register_and_dispatch() {
        let _g = lock_registry();
        set_global_handler(Box::new(PassthroughHandler));
        assert!(global_handler().is_some());
        assert_eq!(global_handler().unwrap().name(), "passthrough");
        let mut ev = SyscallEvent::new(SyscallArgs::nullary(39));
        assert_eq!(dispatch_global(&mut ev), Action::Passthrough);
    }

    struct OnlyOpenat;
    impl SyscallHandler for OnlyOpenat {
        fn handle(&self, _event: &mut SyscallEvent) -> Action {
            Action::Passthrough
        }
        fn interest(&self) -> InterestSet {
            InterestSet::of(&[syscalls::nr::OPENAT])
        }
    }

    #[test]
    fn interest_cache_tracks_installed_handler() {
        let _g = lock_registry();
        set_global_handler(Box::new(OnlyOpenat));
        assert!(global_interested(syscalls::nr::OPENAT));
        assert!(!global_interested(syscalls::nr::GETPID));
        assert!(!global_interested(0));
        assert!(!global_interested(511));
        // Out-of-table numbers stay conservatively interesting.
        assert!(global_interested(syscalls::MAX_SYSCALL_NR));
        // Reinstalling an all-syscalls handler restores full delivery.
        set_global_handler(Box::new(PassthroughHandler));
        assert!(global_interested(syscalls::nr::GETPID));
    }

    struct PanicsOnGetpid;
    impl SyscallHandler for PanicsOnGetpid {
        fn handle(&self, event: &mut SyscallEvent) -> Action {
            if event.call.nr == syscalls::nr::GETPID {
                panic!("policy bug");
            }
            Action::Passthrough
        }
    }

    #[test]
    fn panicking_handler_is_quarantined_not_fatal() {
        let _g = lock_registry();
        // Keep the expected panic's backtrace out of the test output.
        let prev_hook = panic::take_hook();
        panic::set_hook(Box::new(|_| {}));

        set_global_handler(Box::new(PanicsOnGetpid));
        let before = quarantined_handlers();
        assert!(global_interested(syscalls::nr::GETPID));

        let mut ev = SyscallEvent::new(SyscallArgs::nullary(syscalls::nr::GETPID));
        // The panic is contained; the event passes through.
        assert_eq!(dispatch_global(&mut ev), Action::Passthrough);
        assert_eq!(quarantined_handlers(), before + 1);
        // Quarantine clears the exit bytes and mutes the handler.
        assert!(!global_interested(syscalls::nr::GETPID));
        assert_eq!(dispatch_global(&mut ev), Action::Passthrough);
        assert_eq!(quarantined_handlers(), before + 1, "second hit must not re-count");

        // post_global is muted too (and must not panic).
        assert_eq!(post_global(&ev, 42), 42);

        // Installing a fresh handler lifts the quarantine.
        set_global_handler(Box::new(PassthroughHandler));
        assert!(global_interested(syscalls::nr::GETPID));
        assert_eq!(dispatch_global(&mut ev), Action::Passthrough);
        assert_eq!(quarantined_handlers(), before + 1);

        panic::set_hook(prev_hook);
    }

    #[test]
    fn handler_guard_restores_previous_handler_and_interest() {
        let _g = lock_registry();
        set_global_handler(Box::new(PassthroughHandler));
        {
            let _guard = install_handler(Box::new(OnlyOpenat));
            assert!(global_interested(syscalls::nr::OPENAT));
            assert!(!global_interested(syscalls::nr::GETPID));
            {
                // Nested (LIFO) installation restores one level.
                let _inner = install_handler(Box::new(PassthroughHandler));
                assert!(global_interested(syscalls::nr::GETPID));
            }
            assert!(!global_interested(syscalls::nr::GETPID));
        }
        // Outer drop restores the original passthrough handler.
        assert!(global_interested(syscalls::nr::GETPID));
        assert_eq!(global_handler().unwrap().name(), "passthrough");
    }

    /// Installing a stack and restoring what it replaced (LIFO) leave
    /// the exit bytes equal to what the installed stack declared at
    /// install.
    #[test]
    fn installed_stack_mutations_track_interest_cache() {
        let _g = lock_registry();
        set_global_handler(Box::new(PassthroughHandler));
        let stack = crate::HookStack::new();
        stack.attach(Box::new(OnlyOpenat), 0);
        let guard = install_handler(Box::new(stack));
        assert!(global_interested(syscalls::nr::OPENAT));
        assert!(!global_interested(syscalls::nr::GETPID));
        assert!(!installed().unwrap().leaves_fp_env, "an undeclared entry");
        {
            // Nested (LIFO): an empty stack wants nothing and leaves
            // everything alone.
            let _empty = install_handler(Box::new(crate::HookStack::new()));
            assert!(!global_interested(syscalls::nr::OPENAT));
            assert!(installed().unwrap().leaves_fp_env);
            // Left alone, but not wanted: nothing is recorded only.
            assert!((0..64).all(|nr| declared(nr) == 0));
        }
        assert!(global_interested(syscalls::nr::OPENAT));
        assert!(!global_interested(syscalls::nr::GETPID));
        assert_eq!(declared(syscalls::nr::OPENAT), exit::WANTED, "wanted, not only recorded");
        drop(guard);
        assert!(global_interested(syscalls::nr::GETPID));
        assert_eq!(global_handler().unwrap().name(), "passthrough");
    }

    /// Wants openat, getpid and write; leaves getpid and read alone.
    struct RecordsGetpid;
    impl SyscallHandler for RecordsGetpid {
        fn handle(&self, _event: &mut SyscallEvent) -> Action {
            Action::Passthrough
        }
        fn interest(&self) -> InterestSet {
            use syscalls::nr::{GETPID, OPENAT, WRITE};
            InterestSet::of(&[OPENAT, GETPID, WRITE])
        }
        fn leaves_alone(&self) -> InterestSet {
            InterestSet::of(&[syscalls::nr::GETPID, syscalls::nr::READ])
        }
    }

    /// All 512 bytes after each way the table is rebuilt, against an
    /// oracle written from the declarations and the routed set.
    #[test]
    fn every_exit_byte_follows_the_declarations_and_the_routed_set() {
        let _g = lock_registry();
        let prev_hook = panic::take_hook();
        panic::set_hook(Box::new(|_| {}));
        use syscalls::nr::{CLONE, GETPID, MMAP, OPENAT};
        let routed = InterestSet::of(&[CLONE, MMAP, OPENAT, GETPID, 511]);
        set_routed(&routed);
        let check = |what: &str, interest: InterestSet, left_alone: InterestSet| {
            for (nr, byte) in EXITS.iter().enumerate() {
                let nr = nr as u64;
                let mut want = 0;
                if interest.contains(nr) {
                    want |= exit::WANTED;
                    if left_alone.contains(nr) {
                        want |= exit::RECORDED_ONLY;
                    }
                }
                if routed.contains(nr) {
                    want |= exit::ROUTED;
                }
                assert_eq!(byte.load(Ordering::Relaxed), want, "{what}: byte {nr}");
            }
            assert_eq!(exit_byte(syscalls::MAX_SYSCALL_NR), exit::WANTED, "{what}: past the table");
        };
        let none = InterestSet::none;

        // No handler: `WANTED` everywhere (the guard of a first install).
        drop(HandlerGuard { prev: std::ptr::null_mut() });
        check("no handler", InterestSet::all(), none());
        let only_openat = install_handler(Box::new(OnlyOpenat));
        check("OnlyOpenat", OnlyOpenat.interest(), none());
        {
            let _empty = install_handler(Box::new(crate::HookStack::new()));
            check("an empty stack", none(), InterestSet::all());
        }
        check("OnlyOpenat restored", OnlyOpenat.interest(), none());
        {
            let _records = install_handler(Box::new(RecordsGetpid));
            let (wants, leaves) = (RecordsGetpid.interest(), RecordsGetpid.leaves_alone());
            check("a handler that leaves some alone", wants, leaves);
            {
                let _nested = install_handler(Box::new(OnlyOpenat));
                check("nested", OnlyOpenat.interest(), none());
            }
            check("the nested guard's restore", wants, leaves);
            set_global_handler(Box::new(PanicsOnGetpid));
            interpose_syscall(SyscallArgs::nullary(GETPID), 0, |c| c.nr);
            assert!(QUARANTINED.load(Ordering::Relaxed));
            check("quarantined", none(), none());
        }
        check("a guard's restore lifts the quarantine", OnlyOpenat.interest(), none());
        drop(only_openat);
        check("no handler again", InterestSet::all(), none());

        panic::set_hook(prev_hook);
        set_global_handler(Box::new(PassthroughHandler));
    }

    #[test]
    fn an_attach_after_install_is_refused() {
        let _g = lock_registry();
        let prev_hook = panic::take_hook();
        panic::set_hook(Box::new(|_| {}));
        let stack = crate::HookStack::new();
        stack.attach(Box::new(OnlyOpenat), 0);
        let guard = install_handler(Box::new(stack.clone()));
        let late = panic::catch_unwind(AssertUnwindSafe(|| {
            stack.attach(Box::new(PassthroughHandler), 1)
        }));
        panic::set_hook(prev_hook);
        assert!(late.is_err(), "the installed stack took a late entry");
        assert_eq!(stack.len(), 1);
        assert!(!global_interested(syscalls::nr::GETPID), "the cache never widened");
        drop(guard);
    }

    #[test]
    fn a_pass_reports_the_declaration_of_the_handler_it_called() {
        let _g = lock_registry();
        let prev_hook = panic::take_hook();
        panic::set_hook(Box::new(|_| {}));
        let run = |nr| interpose_event(&mut SyscallEvent::new(SyscallArgs::nullary(nr)), |c| c.nr);

        set_global_handler(Box::new(PassthroughHandler));
        assert_eq!(run(syscalls::nr::WRITE), (syscalls::nr::WRITE, true));
        // Cached with the handler, not read again: the box holds both.
        assert!(installed().unwrap().leaves_fp_env);
        {
            let _undeclared = install_handler(Box::new(OnlyOpenat));
            assert_eq!(run(syscalls::nr::OPENAT), (syscalls::nr::OPENAT, false));
        }
        let restored = run(syscalls::nr::OPENAT);
        assert_eq!(restored, (syscalls::nr::OPENAT, true), "restored with its bit");

        // A panic in the middle of the pass: never declared.
        set_global_handler(Box::new(PanicsOnGetpid));
        assert_eq!(run(syscalls::nr::GETPID), (syscalls::nr::GETPID, false));
        // Quarantined: only `execute` runs.
        assert_eq!(run(syscalls::nr::GETPID), (syscalls::nr::GETPID, true));

        panic::set_hook(prev_hook);
        set_global_handler(Box::new(PassthroughHandler));
    }

    struct Scripted;
    impl SyscallHandler for Scripted {
        fn handle(&self, event: &mut SyscallEvent) -> Action {
            match event.call.nr {
                syscalls::nr::GETPID => Action::Return(7777),
                syscalls::nr::OPENAT => Action::Fail(syscalls::Errno::EPERM),
                // Rewrite: bump arg0 so post/execute observe the edit.
                _ => {
                    event.call.args[0] += 1;
                    Action::Passthrough
                }
            }
        }
        fn post(&self, _event: &SyscallEvent, ret: u64) -> u64 {
            ret | 0x100
        }
    }

    #[test]
    fn interpose_syscall_matches_dispatch_global() {
        let _g = lock_registry();
        set_global_handler(Box::new(Scripted));
        // For each decision class, the shared sequence must agree with a
        // hand-run dispatch_global + post_global (the sequence it owns).
        for nr in [syscalls::nr::GETPID, syscalls::nr::OPENAT, syscalls::nr::WRITE] {
            let call = SyscallArgs::new(nr, [5, 0, 0, 0, 0, 0]);
            let via_shared = interpose_syscall(call, 0, |c| c.args[0] * 10);
            let mut ev = SyscallEvent::new(call);
            let expected = match dispatch_global(&mut ev) {
                Action::Passthrough => post_global(&ev, ev.call.args[0] * 10),
                Action::Return(v) => v,
                Action::Fail(e) => e.as_ret(),
            };
            assert_eq!(via_shared, expected, "nr {nr}");
        }
        // And the concrete values: Return short-circuits, Fail encodes
        // errno, Passthrough executes the rewritten args + post hook.
        assert_eq!(interpose_syscall(SyscallArgs::nullary(syscalls::nr::GETPID), 0, |_| 0), 7777);
        assert_eq!(
            interpose_syscall(SyscallArgs::nullary(syscalls::nr::OPENAT), 0, |_| 0),
            syscalls::Errno::EPERM.as_ret()
        );
        let call = SyscallArgs::new(syscalls::nr::WRITE, [5, 0, 0, 0, 0, 0]);
        assert_eq!(interpose_syscall(call, 0, |c| c.args[0] * 10), 60 | 0x100);

        // The one pass around a handler that fails in the middle of it.
        let prev_hook = panic::take_hook();
        panic::set_hook(Box::new(|_| {}));
        static POSTS: AtomicU64 = AtomicU64::new(0);
        /// Panics in `handle` on getpid and in `post` on getppid; counts
        /// the posts it was asked for.
        struct Faulty;
        impl SyscallHandler for Faulty {
            fn handle(&self, event: &mut SyscallEvent) -> Action {
                assert_ne!(event.call.nr, syscalls::nr::GETPID, "policy bug");
                Action::Passthrough
            }
            fn post(&self, event: &SyscallEvent, ret: u64) -> u64 {
                POSTS.fetch_add(1, Ordering::Relaxed);
                assert_ne!(event.call.nr, syscalls::nr::GETPPID, "policy bug");
                ret | 0x100
            }
        }
        let posts = || POSTS.load(Ordering::Relaxed);
        let run = |nr| interpose_syscall(SyscallArgs::nullary(nr), 0, |c| c.nr + 1);

        // Healthy: handle, execute, post.
        set_global_handler(Box::new(Faulty));
        let events = quarantined_handlers();
        assert_eq!(run(syscalls::nr::WRITE), (syscalls::nr::WRITE + 1) | 0x100);
        assert_eq!(posts(), 1);
        // Panic in `handle`: the call executes, `post` is not run.
        assert_eq!(run(syscalls::nr::GETPID), syscalls::nr::GETPID + 1);
        assert_eq!((posts(), quarantined_handlers()), (1, events + 1));
        // Panic in `post`: the executed call's own result comes back.
        set_global_handler(Box::new(Faulty));
        assert_eq!(run(syscalls::nr::GETPPID), syscalls::nr::GETPPID + 1);
        assert_eq!((posts(), quarantined_handlers()), (2, events + 2));
        // Quarantined while the call executes (here by a nested dispatch
        // whose `handle` panics): `post` is skipped for the outer one too.
        set_global_handler(Box::new(Faulty));
        let outer = interpose_syscall(SyscallArgs::nullary(syscalls::nr::WRITE), 0, |c| {
            run(syscalls::nr::GETPID);
            c.nr + 1
        });
        assert_eq!(outer, syscalls::nr::WRITE + 1);
        assert_eq!((posts(), quarantined_handlers()), (2, events + 3));

        panic::set_hook(prev_hook);
        set_global_handler(Box::new(PassthroughHandler));
    }
}
