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
//! the handler — it is atomically disabled, its interest cache is
//! zeroed (so the fast path stops even consulting it), the event is
//! counted, and the intercepted syscall passes through unmodified.
//! Installing a handler via [`set_global_handler`] lifts the
//! quarantine.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, Ordering};

use syscalls::SyscallArgs;

use crate::{Action, SyscallEvent, SyscallHandler};

static GLOBAL: AtomicPtr<Box<dyn SyscallHandler>> = AtomicPtr::new(std::ptr::null_mut());

/// The installed handler's [`InterestSet`], cached as raw words so the
/// hot path pays one relaxed load and a bit test instead of a virtual
/// `interest()` call per syscall. All-ones when no handler is
/// registered (an unfiltered mechanism must still reach
/// [`interpose_event`], which handles the null case).
///
/// The words are updated one at a time after the handler pointer is
/// stored, so a concurrent reader can observe a mix of the old and new
/// sets. That race is benign by construction: the stale words err only
/// toward *delivering* a syscall the new handler did not ask for (which
/// every handler must tolerate — the set is an optimization, not a
/// contract), or toward filtering one the *old* handler did not want.
/// Handlers are expected to be installed once, near startup, before the
/// threads they filter for exist.
static INTEREST_WORDS: [AtomicU64; 8] = [
    AtomicU64::new(u64::MAX),
    AtomicU64::new(u64::MAX),
    AtomicU64::new(u64::MAX),
    AtomicU64::new(u64::MAX),
    AtomicU64::new(u64::MAX),
    AtomicU64::new(u64::MAX),
    AtomicU64::new(u64::MAX),
    AtomicU64::new(u64::MAX),
];

/// The interest cache itself, for a mechanism whose gate is not Rust
/// (zpoline's entry stub tests these words before it builds a frame):
/// bit `nr % 64` of word `nr / 64`, exactly what [`global_interested`]
/// reads, so there is no copy to keep coherent.
pub const fn interest_words() -> &'static [AtomicU64; 8] {
    &INTEREST_WORDS
}

/// Installs `handler` as the process-global interposer, replacing any
/// previous one, and caches its [`SyscallHandler::interest`] set for
/// the mechanisms' fast paths.
///
/// The handler is intentionally leaked: intercepted syscalls can occur
/// on any thread at any time once code has been rewritten, so there is
/// no safe point to drop it. (A replaced handler leaks too — handlers
/// are expected to be installed once, near startup.)
pub fn set_global_handler(handler: Box<dyn SyscallHandler>) {
    let interest = handler.interest();
    let thin = Box::into_raw(Box::new(handler));
    GLOBAL.store(thin, Ordering::SeqCst);
    for (cache, word) in INTEREST_WORDS.iter().zip(interest.words()) {
        cache.store(word, Ordering::Relaxed);
    }
    // A fresh handler starts trusted: lift any standing quarantine
    // *after* the interest cache is valid, so no window exists where a
    // quarantined-then-revived handler sees a zeroed set.
    QUARANTINED.store(false, Ordering::SeqCst);
}

/// Installs `handler` like [`set_global_handler`] and returns a guard
/// that restores the *previously* installed handler — pointer, interest
/// cache, and a lifted quarantine — when dropped.
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
    prev: *mut Box<dyn SyscallHandler>,
}

impl Drop for HandlerGuard {
    fn drop(&mut self) {
        if self.prev.is_null() {
            GLOBAL.store(std::ptr::null_mut(), Ordering::SeqCst);
            for cache in &INTEREST_WORDS {
                cache.store(u64::MAX, Ordering::Relaxed);
            }
        } else {
            // SAFETY: set_global_handler leaked the previous box, so
            // the pointee is still valid (handlers live for 'static).
            let interest = unsafe { (*self.prev).interest() };
            GLOBAL.store(self.prev, Ordering::SeqCst);
            for (cache, word) in INTEREST_WORDS.iter().zip(interest.words()) {
                cache.store(word, Ordering::Relaxed);
            }
        }
        QUARANTINED.store(false, Ordering::SeqCst);
    }
}

/// Recomputes the interest cache from the currently installed handler
/// (all-ones when none is installed, matching the registry default).
///
/// Runtime-mutable handlers — a [`HookStack`](crate::HookStack) whose
/// entry list changed — call this after publishing their new state so
/// the mechanisms' fast-path filter tracks the mutation. See the
/// `stack` module docs for the ordering protocol (widen before swap on
/// attach, swap before narrow on detach).
pub fn refresh_global_interest() {
    let interest = match global_handler() {
        Some(h) => h.interest(),
        None => crate::InterestSet::all(),
    };
    for (cache, word) in INTEREST_WORDS.iter().zip(interest.words()) {
        cache.store(word, Ordering::Relaxed);
    }
}

/// Widens the interest cache by OR-ing in `extra` without ever
/// narrowing it. Used on the attach path *before* the new hook-stack
/// state is published: a brief over-wide cache only delivers extra
/// syscalls (benign by the interest contract), whereas a brief
/// under-wide one would drop syscalls a live hook asked for.
pub fn widen_global_interest(extra: &crate::InterestSet) {
    for (cache, word) in INTEREST_WORDS.iter().zip(extra.words()) {
        cache.fetch_or(word, Ordering::Relaxed);
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
/// counts the event, zeroes the interest cache (the fast path stops
/// consulting the handler entirely), and writes a one-line note to
/// stderr with a raw `write` (no allocation, no locks — this can run
/// inside the `SIGSYS` handler).
#[cold]
fn quarantine_global() {
    if QUARANTINED.swap(true, Ordering::SeqCst) {
        return; // racing panics: already quarantined
    }
    QUARANTINE_EVENTS.fetch_add(1, Ordering::Relaxed);
    for cache in &INTEREST_WORDS {
        cache.store(0, Ordering::Relaxed);
    }
    let msg = b"interpose: handler panicked; quarantined (syscalls pass through)\n";
    unsafe {
        libc::write(2, msg.as_ptr().cast(), msg.len());
    }
}

/// Tests the cached interest set: should the mechanism deliver syscall
/// `nr` to the handler, or fall straight through to the raw syscall?
///
/// Out-of-range numbers (≥ 512) always report interesting, mirroring
/// [`InterestSet::contains`]. Costs one relaxed atomic load and a bit
/// test — cheap enough for every dispatch.
#[inline]
pub fn global_interested(nr: u64) -> bool {
    if nr >= syscalls::MAX_SYSCALL_NR {
        return true;
    }
    let word = INTEREST_WORDS[(nr / 64) as usize].load(Ordering::Relaxed);
    word & (1u64 << (nr % 64)) != 0
}

/// Returns the registered handler, if any.
#[inline]
pub fn global_handler() -> Option<&'static dyn SyscallHandler> {
    let p = GLOBAL.load(Ordering::Acquire);
    if p.is_null() {
        None
    } else {
        // SAFETY: set_global_handler leaks the box, so the pointee is
        // valid for 'static.
        Some(unsafe { (*p).as_ref() })
    }
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
#[inline]
pub fn interpose_event<F>(event: &mut SyscallEvent, execute: F) -> u64
where
    F: FnOnce(&SyscallArgs) -> u64,
{
    let handler = match global_handler() {
        Some(h) if !QUARANTINED.load(Ordering::Relaxed) => h,
        _ => return execute(&event.call),
    };
    // AssertUnwindSafe: on panic the handler is never called again
    // (quarantine), so broken invariants are unobservable.
    let action = match panic::catch_unwind(AssertUnwindSafe(|| handler.handle(event))) {
        Ok(action) => action,
        Err(_) => {
            quarantine_global();
            return execute(&event.call);
        }
    };
    match action {
        Action::Passthrough => {
            let ret = execute(&event.call);
            if QUARANTINED.load(Ordering::Relaxed) {
                return ret;
            }
            match panic::catch_unwind(AssertUnwindSafe(|| handler.post(event, ret))) {
                Ok(r) => r,
                Err(_) => {
                    quarantine_global();
                    ret
                }
            }
        }
        Action::Return(v) => v,
        Action::Fail(e) => e.as_ret(),
    }
}

/// The complete per-syscall decision sequence every mechanism runs: the
/// interest gate, event construction, and [`interpose_event`].
///
/// This is the **single source of truth** for that sequence. The
/// SUD-only interposer runs it inside its `SIGSYS` handler and the
/// dispatch-cost microbenchmark (`loop_interest_dispatch`) calls it
/// directly; `fastpath::lazypoline_dispatch`, which needs the gate's
/// answer for itself, reads it once and enters [`interpose_event`] —
/// the function below the gate here — so the benchmark measures the
/// production decision path by construction instead of maintaining a
/// copy of it.
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
    interpose_event(&mut event, |decided| execute(*decided))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InterestSet, PassthroughHandler};
    use std::sync::Mutex;

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
    static REGISTRY_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn unregistered_defaults_to_passthrough() {
        // Note: global state — this test runs before any set in this
        // process only when filtered; tolerate either outcome.
        let mut ev = SyscallEvent::new(SyscallArgs::nullary(39));
        let _ = dispatch_global(&mut ev);
    }

    #[test]
    fn register_and_dispatch() {
        let _g = REGISTRY_LOCK.lock().unwrap();
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
        let _g = REGISTRY_LOCK.lock().unwrap();
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
        let _g = REGISTRY_LOCK.lock().unwrap();
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
        // Quarantine zeroes the interest cache and mutes the handler.
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
        let _g = REGISTRY_LOCK.lock().unwrap();
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

    #[test]
    fn installed_stack_mutations_track_interest_cache() {
        let _g = REGISTRY_LOCK.lock().unwrap();
        let stack = crate::HookStack::new();
        let guard = install_handler(Box::new(stack.clone()));
        // Empty stack: nothing is interesting.
        assert!(!global_interested(syscalls::nr::GETPID));

        let narrow = stack.attach(Box::new(OnlyOpenat), 0);
        assert!(global_interested(syscalls::nr::OPENAT));
        assert!(!global_interested(syscalls::nr::GETPID));

        let wide = stack.attach_dynamic(Box::new(PassthroughHandler), 1);
        assert!(global_interested(syscalls::nr::GETPID), "widened on attach");

        assert!(stack.detach(wide));
        assert!(!global_interested(syscalls::nr::GETPID), "narrowed on detach");
        assert!(global_interested(syscalls::nr::OPENAT), "survivor keeps its set");

        assert!(stack.detach(narrow));
        assert!(!global_interested(syscalls::nr::OPENAT));
        drop(guard);

        // A *detached* stack's mutations must not touch the cache.
        set_global_handler(Box::new(OnlyOpenat));
        let loose = crate::HookStack::new();
        loose.attach(Box::new(PassthroughHandler), 0);
        assert!(!global_interested(syscalls::nr::GETPID));
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
        let _g = REGISTRY_LOCK.lock().unwrap();
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
