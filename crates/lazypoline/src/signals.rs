//! Application signal handling under interposition (paper §IV-B(c),
//! Fig. 3).
//!
//! Every application `rt_sigaction` is intercepted: the real kernel
//! registration points at [`lp_signal_wrapper`], and the application's
//! own disposition lives in a table. On delivery, the wrapper lifts the
//! re-entry guard — the signal may have interrupted a handler, and the
//! application handler's syscalls are the application's, to be
//! interposed (Fig. 3 ②) — calls the recorded application handler as a
//! function, puts the guard back and returns. The wrapper's return goes
//! through the application's restorer; that `rt_sigreturn` is dispatched
//! like any other syscall and issued from the gate's restorer
//! (`crate::fastpath::rt_sigreturn_at`, Fig. 3 ③).
//!
//! The paper saves the selector on a per-thread sigreturn stack on
//! delivery, sets BLOCK for the application handler and restores the
//! saved value through a sigreturn trampoline once the kernel has
//! restored the interrupted context (①, ④), because its selector reads
//! ALLOW for the whole of every dispatch. Here SUD is armed with no
//! selector from enrolment to teardown, in and out of handlers, so
//! there is nothing to save, set or restore, and no trampoline.

use std::sync::atomic::{AtomicU64, Ordering};

use syscalls::Errno;
use zpoline::RawFrame;

use crate::counters::{self, SIGNALS_WRAPPED};
use crate::{raw_internal, tls};

pub(crate) const SIG_DFL: u64 = 0;
pub(crate) const SIG_IGN: u64 = 1;
pub(crate) const SA_RESTORER: u64 = 0x0400_0000;
const SIGSYS_MASK_BIT: u64 = 1 << (libc::SIGSYS as u64 - 1);

/// The kernel's `rt_sigaction` struct layout (differs from libc's!).
#[repr(C)]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct KernelSigaction {
    pub handler: u64,
    pub flags: u64,
    pub restorer: u64,
    pub mask: u64,
}

/// Lock-free per-signal slot. Fields are read independently in signal
/// context; a racing re-registration can tear across fields, which is
/// no worse than the inherent kernel-level registration race.
struct SigSlot {
    handler: AtomicU64,
    flags: AtomicU64,
    restorer: AtomicU64,
    mask: AtomicU64,
}

impl SigSlot {
    const fn new() -> SigSlot {
        SigSlot {
            handler: AtomicU64::new(SIG_DFL),
            flags: AtomicU64::new(0),
            restorer: AtomicU64::new(0),
            mask: AtomicU64::new(0),
        }
    }

    fn load(&self) -> KernelSigaction {
        KernelSigaction {
            handler: self.handler.load(Ordering::Acquire),
            flags: self.flags.load(Ordering::Acquire),
            restorer: self.restorer.load(Ordering::Acquire),
            mask: self.mask.load(Ordering::Acquire),
        }
    }

    fn store(&self, a: KernelSigaction) {
        self.handler.store(a.handler, Ordering::Release);
        self.flags.store(a.flags, Ordering::Release);
        self.restorer.store(a.restorer, Ordering::Release);
        self.mask.store(a.mask, Ordering::Release);
    }
}

const NSIG: usize = 65;

// A `const` item of an interior-mutable type is exactly what array
// repetition needs here: each element becomes its own fresh atomics.
#[allow(clippy::declare_interior_mutable_const)]
static APP_ACTIONS: [SigSlot; NSIG] = {
    const SLOT: SigSlot = SigSlot::new();
    [SLOT; NSIG]
};

/// The application's current disposition for `sig` (what it believes
/// is registered).
pub(crate) fn app_action(sig: i32) -> Option<KernelSigaction> {
    APP_ACTIONS.get(sig as usize).map(|s| s.load())
}

/// Intercepted `rt_sigaction` (paper: "we intercept all of the
/// application's attempts to register custom signal handlers").
pub(crate) unsafe fn handle_sigaction(frame: &mut RawFrame) -> u64 {
    let sig = frame.a1 as i64;
    let newp = frame.a2 as *const KernelSigaction;
    let oldp = frame.a3 as *mut KernelSigaction;

    // Anything unusual (bad signal, odd sigset size) goes to the kernel
    // untouched so errno semantics stay exact.
    if !(1..NSIG as i64).contains(&sig) || frame.a4 != 8 {
        return raw_internal::syscall(&frame.syscall_args());
    }
    let sig = sig as i32;
    if sig == libc::SIGKILL || sig == libc::SIGSTOP {
        return raw_internal::syscall(&frame.syscall_args());
    }

    let prev_app = APP_ACTIONS[sig as usize].load();

    if newp.is_null() {
        // Pure query: answer from the table (transparent — the app
        // never sees our wrapper).
        if !oldp.is_null() {
            oldp.write(prev_app);
        }
        return 0;
    }

    let app = newp.read();

    if sig == libc::SIGSYS {
        // The slow path owns SIGSYS. Record the app's wish (it is
        // consulted for non-SUD SIGSYS, e.g. seccomp) but keep our
        // kernel registration.
        APP_ACTIONS[sig as usize].store(app);
        if !oldp.is_null() {
            oldp.write(prev_app);
        }
        return 0;
    }

    let kernel_act = wrap_action(&app);
    let ret = raw_internal::rt_sigaction(sig, &kernel_act as *const _ as u64, 0);
    if Errno::from_ret(ret).is_some() {
        return ret;
    }
    APP_ACTIONS[sig as usize].store(app);
    if !oldp.is_null() {
        oldp.write(prev_app);
    }
    0
}

/// Builds the kernel-level registration standing in for an application
/// action: our wrapper, always `SA_SIGINFO`, never masking `SIGSYS`,
/// with `SA_RESETHAND` emulated in the wrapper instead of by the
/// kernel (the kernel reset would expose the *wrapper*'s removal, not
/// the app handler's).
fn wrap_action(app: &KernelSigaction) -> KernelSigaction {
    if app.handler == SIG_DFL || app.handler == SIG_IGN {
        return *app;
    }
    KernelSigaction {
        handler: lp_signal_wrapper as *const () as usize as u64,
        flags: (app.flags | libc::SA_SIGINFO as u64) & !(libc::SA_RESETHAND as u64),
        restorer: app.restorer,
        mask: app.mask & !SIGSYS_MASK_BIT,
    }
}

/// Adopts dispositions registered before lazypoline initialized, so
/// that pre-existing handlers also run under the wrapper protocol.
/// Signals 32/33 (NPTL-internal) and KILL/STOP/SYS are skipped.
pub(crate) unsafe fn adopt_existing_handlers() {
    for sig in 1..NSIG as i32 {
        if sig == libc::SIGKILL
            || sig == libc::SIGSTOP
            || sig == libc::SIGSYS
            || sig == 32
            || sig == 33
        {
            continue;
        }
        let mut old = KernelSigaction::default();
        let r = raw_internal::rt_sigaction(sig, 0, &mut old as *mut _ as u64);
        if Errno::from_ret(r).is_some() {
            continue;
        }
        APP_ACTIONS[sig as usize].store(old);
        if old.handler != SIG_DFL && old.handler != SIG_IGN {
            let wrapped = wrap_action(&old);
            let _ = raw_internal::rt_sigaction(sig, &wrapped as *const _ as u64, 0);
        }
    }
}

/// The wrapper installed as the real kernel handler for every wrapped
/// application signal.
pub(crate) unsafe extern "C" fn lp_signal_wrapper(
    sig: libc::c_int,
    info: *mut libc::siginfo_t,
    ctx: *mut libc::c_void,
) {
    counters::bump(&SIGNALS_WRAPPED);
    // A signal that lands where `SIGSYS` is blocked (a `sigsuspend` or
    // `ppoll` mask that names it, a child before its enrolment unblocks
    // it) would turn the application handler's first fresh syscall site
    // into a kill. Application handlers always run with `SIGSYS`
    // deliverable; returning restores the interrupted mask.
    raw_internal::rt_sigprocmask(
        raw_internal::SIG_UNBLOCK,
        &SIGSYS_MASK_BIT,
        std::ptr::null_mut(),
    );

    let slot = APP_ACTIONS
        .get(sig as usize)
        .map(|s| s.load())
        .unwrap_or_default();

    // SA_RESETHAND: restore default disposition before running the
    // handler, as the kernel would have.
    if slot.flags & libc::SA_RESETHAND as u64 != 0 {
        let dfl = KernelSigaction {
            handler: SIG_DFL,
            flags: slot.flags & !(libc::SA_RESETHAND as u64),
            restorer: slot.restorer,
            mask: 0,
        };
        APP_ACTIONS[sig as usize].store(dfl);
        let _ = raw_internal::rt_sigaction(sig, &dfl as *const _ as u64, 0);
    }

    // Run the application handler with the dispatch guard lifted: its
    // syscalls are *application* syscalls and must be interposed.
    let saved_guard = tls::set_in_dispatch(false);
    match slot.handler {
        SIG_DFL | SIG_IGN => {
            // Raced with a concurrent re-registration; default-action
            // emulation for DFL is out of scope — treat as ignore.
        }
        h if slot.flags & libc::SA_SIGINFO as u64 != 0 => {
            let f: extern "C" fn(libc::c_int, *mut libc::siginfo_t, *mut libc::c_void) =
                std::mem::transmute(h as usize);
            f(sig, info, ctx);
        }
        h => {
            let f: extern "C" fn(libc::c_int) = std::mem::transmute(h as usize);
            f(sig);
        }
    }
    tls::set_in_dispatch(saved_guard);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrap_action_preserves_dfl_ign() {
        let dfl = KernelSigaction::default();
        assert_eq!(wrap_action(&dfl), dfl);
        let ign = KernelSigaction {
            handler: SIG_IGN,
            ..Default::default()
        };
        assert_eq!(wrap_action(&ign), ign);
    }

    #[test]
    fn wrap_action_installs_wrapper_and_strips_sigsys() {
        let app = KernelSigaction {
            handler: 0xdead_beef,
            flags: (libc::SA_RESTART | libc::SA_RESETHAND) as u64 | SA_RESTORER,
            restorer: 0x1234,
            mask: SIGSYS_MASK_BIT | (1 << 9),
        };
        let w = wrap_action(&app);
        assert_eq!(w.handler, lp_signal_wrapper as *const () as usize as u64);
        assert_ne!(w.flags & libc::SA_SIGINFO as u64, 0);
        assert_eq!(w.flags & libc::SA_RESETHAND as u64, 0);
        assert_ne!(w.flags & libc::SA_RESTART as u64, 0);
        assert_ne!(w.flags & SA_RESTORER, 0);
        assert_eq!(w.restorer, 0x1234);
        assert_eq!(w.mask & SIGSYS_MASK_BIT, 0);
        assert_ne!(w.mask & (1 << 9), 0);
    }

    #[test]
    fn slot_store_load_roundtrip() {
        let slot = SigSlot::new();
        let a = KernelSigaction {
            handler: 1,
            flags: 2,
            restorer: 3,
            mask: 4,
        };
        slot.store(a);
        assert_eq!(slot.load(), a);
    }
}
