//! Application signal handling under interposition (paper §IV-B(c),
//! Fig. 3).
//!
//! Every application `rt_sigaction` is intercepted: the real kernel
//! registration points at [`lp_signal_wrapper`], and the application's
//! own disposition lives in a table. On delivery, the wrapper
//!
//! 1. pushes the current selector value onto the per-thread
//!    *sigreturn stack* and sets the selector to BLOCK, so syscalls
//!    made by the application handler are interposed normally (①, ②);
//! 2. invokes the recorded application handler;
//! 3. redirects the interrupted context's `rip` to the *sigreturn
//!    trampoline* before returning. The wrapper's own `rt_sigreturn`
//!    travels through the interposer (slow path the first time, fast
//!    path after), whose `rt_sigreturn` special case issues the real
//!    sigreturn with the selector at ALLOW (③);
//! 4. the kernel restores the interrupted context — whose `rip` now
//!    points at the trampoline, which pops the saved selector, makes it
//!    live again, and jumps to the original resume address (④).
//!
//! The trampoline is written to be completely transparent: it preserves
//! every general-purpose register, `rflags`, and (subject to the
//! configured [`zpoline::XstateMask`]) all extended state.

use std::sync::atomic::{AtomicU64, Ordering};

use syscalls::Errno;
use zpoline::RawFrame;

use crate::counters::{self, SIGNALS_WRAPPED};
use crate::{raw_internal, tls};

pub(crate) const SIG_DFL: u64 = 0;
pub(crate) const SIG_IGN: u64 = 1;
#[cfg(test)]
const SA_RESTORER: u64 = 0x0400_0000;
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
    // The kernel enters a handler with its default PKRU, which
    // access-disables hardened mode's selector slab: both the read below
    // and the kernel's SUD read on this handler's first syscall would
    // fault. Restore the slab's steady state first.
    if sud::pkey::slab_ready() {
        sud::pkey::close_slab();
    }
    counters::bump(&SIGNALS_WRAPPED);
    let prev_selector = sud::selector().as_byte();
    // A signal that arrives while the slow path emulates a syscall
    // (`kill` to self, a child exiting under `wait4`) nests inside the
    // `SIGSYS` handler, where `SIGSYS` is blocked: the application
    // handler's first syscall — or this wrapper's own `rt_sigreturn` —
    // would kill the process. Application handlers always run with
    // `SIGSYS` deliverable; returning restores the interrupted mask.
    sud::set_selector(sud::Dispatch::Allow);
    raw_internal::rt_sigprocmask(
        raw_internal::SIG_UNBLOCK,
        &SIGSYS_MASK_BIT,
        std::ptr::null_mut(),
    );
    if tls::enrolled() {
        sud::set_selector(sud::Dispatch::Block);
    }

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

    // Redirect the resume point through the sigreturn trampoline so the
    // selector becomes live again only after the kernel has restored
    // the interrupted context (paper Fig. 3 ④). The app handler may
    // have modified the context's rip — honour it by saving whatever is
    // there *now*.
    let mut uc = sud::sigsys::UContext::from_ptr(ctx);
    if tls::push_sigreturn(prev_selector, uc.rip()) {
        uc.set_rip(lp_sigreturn_tramp as *const () as usize as u64);
    }
    // else: sigreturn stack exhausted — leave the selector BLOCKed
    // (safe: one extra slow-path trip at worst) and resume directly.
}

/// Rust side of the sigreturn trampoline: pops the `(selector, rip)`
/// entry, restores the selector, and returns the resume address.
unsafe extern "C" fn lp_sigreturn_pop() -> u64 {
    match tls::pop_sigreturn() {
        Some(e) => {
            sud::set_selector(sud::Dispatch::from_byte(e.selector as u8));
            e.rip
        }
        None => {
            // Corrupted state: a trampoline resume with no matching
            // push. Nothing sane to resume to — fail loudly.
            let msg = b"lazypoline: sigreturn stack underflow\n";
            raw_internal::syscall(&syscalls::SyscallArgs::new(
                syscalls::nr::WRITE,
                [2, msg.as_ptr() as u64, msg.len() as u64, 0, 0, 0],
            ));
            raw_internal::syscall(&syscalls::SyscallArgs::new(
                syscalls::nr::EXIT_GROUP,
                [117, 0, 0, 0, 0, 0],
            ));
            0
        }
    }
}

// The sigreturn trampoline (paper Fig. 3 step ④). Runs in application
// context immediately after a kernel sigreturn; must be fully
// transparent. Flag-mutating instructions are avoided outside the
// pushfq/popfq window; extended state is preserved around the Rust
// helper by the fast-path stub's own save/restore text (same mask).
// Straight after a sigreturn the kernel has marked x87 in use, so this
// takes the stub's x87-live case; its normaliser hands the thread back
// with x87 marked initial again (when it is), and the application's
// next syscall pays the cheap case.
std::arch::global_asm!(
    r#"
    .text
    .globl lp_sigreturn_tramp
    .type lp_sigreturn_tramp, @function
    .align 16
lp_sigreturn_tramp:
    lea rsp, [rsp - 128]          # skip the interrupted frame's red zone
    push rbp
    mov rbp, rsp
    push rbx                      # [rbp-8]
    lea rsp, [rsp - 8]            # [rbp-16] = resume-rip slot
    push rax
    push rcx
    push rdx
    push rsi
    push rdi
    push r8
    push r9
    push r10
    push r11
    pushfq                        # [rbp-96]; flags free to clobber below
"#,
    zpoline::xstate_save_asm!(),
    r#"
    and rsp, -16
    call {pop}                    # rax = resume rip; selector restored
    mov qword ptr [rbp - 16], rax
"#,
    zpoline::xstate_restore_asm!(),
    r#"
    lea rsp, [rbp - 96]
    popfq
    pop r11
    pop r10
    pop r9
    pop r8
    pop rdi
    pop rsi
    pop rdx
    pop rcx
    pop rax
    lea rsp, [rsp + 8]
    pop rbx
    pop rbp
    lea rsp, [rsp + 128]
    jmp qword ptr [rsp - 152]     # resume-rip slot, now in dead stack
    .size lp_sigreturn_tramp, . - lp_sigreturn_tramp
"#,
    // `sym`, not a name: nothing here is a dynamic symbol of the shim.
    pop = sym lp_sigreturn_pop,
    stub_globals = sym zpoline::trampoline::STUB_GLOBALS,
);

extern "C" {
    pub(crate) fn lp_sigreturn_tramp();
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

    #[test]
    fn sigreturn_tramp_restores_registers_and_selector() {
        // Drive the trampoline directly (no kernel involved): push an
        // entry whose rip is a label right after a jmp to the tramp,
        // then verify registers and selector survive.
        unsafe {
            sud::set_selector(sud::Dispatch::Allow);
            let resume: u64;
            let r12_out: u64;
            let r13_out: u64;
            // The continuation address is taken with lea. (rbx cannot
            // be an asm operand under LLVM, so the sentinels use
            // r12/r13 — r12/r13 cross the trampoline untouched, and
            // rbx preservation is covered by the fast-path stub tests.)
            core::arch::asm!(
                "lea rdi, [rip + 8f]",
                // Aligned call frame for the Rust helper.
                "push rbp",
                "mov rbp, rsp",
                "and rsp, -16",
                "call {push_fn}",          // records (BLOCK, resume-rip)
                "mov rsp, rbp",
                "pop rbp",
                "mov r12, 0x1111222233334444",
                "mov r13, 0x5555666677778888",
                "jmp {tramp}",
                "8:",
                push_fn = sym push_for_test,
                tramp = sym lp_sigreturn_tramp,
                out("rdi") _,
                lateout("r12") r12_out,
                lateout("r13") r13_out,
                out("rax") resume,
                out("rcx") _, out("rdx") _, out("rsi") _,
                out("r8") _, out("r9") _, out("r10") _, out("r11") _,
                out("r14") _, out("r15") _,
            );
            let _ = resume;
            assert_eq!(r12_out, 0x1111_2222_3333_4444);
            assert_eq!(r13_out, 0x5555_6666_7777_8888);
            // The entry requested BLOCK; the tramp must have applied it.
            assert_eq!(sud::selector(), sud::Dispatch::Block);
            sud::set_selector(sud::Dispatch::Allow);
        }
    }

    unsafe extern "C" fn push_for_test(rip: u64) {
        // No assert here: panicking across `extern "C"` aborts. The
        // outer test observes failure through the selector check.
        let _ = tls::push_sigreturn(sud::Dispatch::Block.as_byte(), rip);
    }
}
