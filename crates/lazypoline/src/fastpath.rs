//! The dispatcher: one shared syscall-handling implementation for both
//! the fast path (trampoline) and the slow path (SIGSYS emulation
//! fallback), exactly as the paper motivates in §IV-A(c).

use interpose::SyscallEvent;
use sud::Dispatch;
use syscalls::{nr, Errno, SyscallArgs};
use zpoline::RawFrame;

use crate::{clone, raw_internal, signals, tls};

/// Byte offset from the `RawFrame` pointer to the application's `rsp`
/// at the moment the (rewritten) syscall instruction executed.
///
/// Derived from the trampoline stub's stack layout: the stub enters
/// with `rsp = E` (app rsp after the `call rax` push, i.e. app rsp at
/// the syscall minus 8) and builds the frame at `E - 208`.
pub(crate) const FRAME_TO_APP_RSP: usize = 216;

/// The dispatcher registered with the zpoline trampoline.
///
/// Protocol (paper §IV-A): flip the selector to ALLOW so the
/// interposer's own syscalls bypass SUD, run the shared handler, then
/// leave behind the selector the thread's block names
/// ([`tls::leave_dispatch`]). Entered either directly from application
/// code via a rewritten site (selector was BLOCK), from the slow
/// path's re-execution (selector already ALLOW), or from a handler
/// that itself reached a rewritten site (ALLOW, and it must stay so) —
/// the exit rule is the same for all three, which is what makes
/// selector-only SUD work.
///
/// A hit on an armed thread is one straight line: the count and both
/// selector stores go through the thread's block (a plain `inc`, two
/// byte stores), the interest word is read once, and the only calls
/// are the handler's two and [`raw_internal::syscall`].
pub(crate) unsafe extern "C" fn lazypoline_dispatch(frame: *mut RawFrame) -> u64 {
    let block = zpoline::thread_block();
    tls::count_dispatch(block);
    tls::enter_dispatch(block);

    let frame = &mut *frame;

    // rt_sigreturn must take its special path even when re-entered
    // (the wrapper's own return travels through here while the
    // dispatch guard is set).
    if frame.nr == nr::RT_SIGRETURN {
        do_rt_sigreturn(frame);
    }

    // Execute raw — no event, no virtual call, no dispatch guard — when
    // the installed handler declared no interest in this number (one
    // relaxed load plus a bit test; the entry stub takes this exit by
    // itself on threads whose block is armed, see `MISS_EXIT`), or when
    // a handler re-entered the dispatcher, e.g. through a patched libc
    // call. Syscalls the engine must emulate for correctness (signals,
    // clones) go through `handle_syscall` regardless of interest.
    let interested = interpose::global_interested(frame.nr);
    let ret = if block.in_dispatch() || !(interested || needs_emulation(frame.nr)) {
        raw_internal::syscall(&frame.syscall_args())
    } else {
        let was = block.set_in_dispatch(true);
        let ret = handle_syscall(frame, interested);
        block.set_in_dispatch(was);
        ret
    };
    tls::leave_dispatch(block);
    ret
}

/// What this dispatcher lets zpoline's entry stub do without it: issue
/// a syscall outside `full_path` whose bit in the interest words is
/// clear — the `miss` above, taken before a frame exists.
///
/// `full_path` is the set [`handle_syscall`] must always emulate
/// itself, whatever the installed handler's interest: executing them
/// raw would break signal transparency or thread/process bookkeeping.
/// (`rt_sigreturn` is handled before the fast-out and listed for the
/// stub's and the slow path's benefit.)
pub(crate) static MISS_EXIT: zpoline::MissExit = zpoline::MissExit {
    full_path: interpose::InterestSet::of(&[
        nr::RT_SIGRETURN,
        nr::RT_SIGACTION,
        nr::RT_SIGPROCMASK,
        nr::CLONE,
        nr::CLONE3,
        nr::FORK,
        nr::VFORK,
    ])
    .words(),
    interest: interpose::interest_words(),
};

/// Whether `nr_` is in [`MISS_EXIT`]'s `full_path`: one table for this
/// test and the stub's.
#[inline]
pub(crate) fn needs_emulation(nr_: u64) -> bool {
    nr_ < syscalls::MAX_SYSCALL_NR
        && MISS_EXIT.full_path[(nr_ / 64) as usize] & (1 << (nr_ % 64)) != 0
}

/// Shared syscall handling: notify the global handler, then execute
/// (with special handling for the process-control syscalls the paper
/// calls out: `rt_sigreturn`, `rt_sigaction`, `clone`, `fork`,
/// `vfork`, plus `rt_sigprocmask` to keep `SIGSYS` deliverable).
///
/// `interested` is [`interpose::global_interested`] of the frame's
/// number, which each of the two callers — the dispatcher above and the
/// slow path's in-handler emulation — reads exactly once; a call the
/// handler did not ask for only gets the engine's own emulation.
///
/// # Safety
///
/// `frame` must describe a syscall invocation from this thread, and
/// the selector must be ALLOW.
#[inline]
pub(crate) unsafe fn handle_syscall(frame: &mut RawFrame, interested: bool) -> u64 {
    if !interested {
        return execute_frame(frame);
    }
    // The decision sequence itself — dispatch, passthrough execution,
    // post hook — is not written here: it is `interpose::interpose_event`,
    // the one copy shared (behind `interpose_syscall`'s gate) with the
    // SUD-only interposer and the dispatch-cost benchmark.
    let mut event = SyscallEvent::with_site(frame.syscall_args(), frame.ret_addr as usize);
    interpose::interpose_event(&mut event, |decided| {
        // The handler may have rewritten number/arguments, so what
        // decides between the two ways to execute is the number it
        // settled on, not the one the frame arrived with.
        if !needs_emulation(decided.nr) {
            return raw_internal::syscall(decided);
        }
        // The engine's emulations read (and `clone`'s child resumes
        // from) the frame.
        frame.nr = decided.nr;
        [frame.a1, frame.a2, frame.a3, frame.a4, frame.a5, frame.a6] = decided.args;
        execute_frame(frame)
    })
}

/// Executes the frame's (possibly handler-rewritten) syscall: emulation
/// for the process-control syscalls the paper calls out, raw execution
/// for everything else. Result observation/rewriting (`post`) happens in
/// the caller's shared sequence; for clone-like calls whose child
/// resumed elsewhere, the dispatcher frame only ever returns in the
/// parent, so the post hook runs there alone.
///
/// # Safety
///
/// As [`handle_syscall`].
unsafe fn execute_frame(frame: &mut RawFrame) -> u64 {
    match frame.nr {
        nr::RT_SIGRETURN => do_rt_sigreturn(frame),
        nr::RT_SIGACTION => signals::handle_sigaction(frame),
        nr::RT_SIGPROCMASK => handle_sigprocmask(frame),
        nr::CLONE => clone::handle_clone(frame),
        // Refusing clone3 makes glibc fall back to clone, which we can
        // interpose faithfully (same approach as the C prototype and
        // other interposers).
        nr::CLONE3 => Errno::ENOSYS.as_ret(),
        nr::FORK | nr::VFORK => clone::handle_fork(frame),
        _ => raw_internal::syscall(&frame.syscall_args()),
    }
}

/// `rt_sigreturn` cannot be issued from dispatcher context directly:
/// the kernel reads the signal frame at the *current* `rsp`. Restore
/// the application's `rsp` (where the frame lives) and issue the
/// syscall there, with the selector at ALLOW so the instruction is
/// never itself dispatched (paper Fig. 3 step ③). Control continues at
/// whatever context the signal frame describes — typically the
/// sigreturn trampoline installed by the signal wrapper, which
/// re-establishes the selector (step ④).
unsafe fn do_rt_sigreturn(frame: &mut RawFrame) -> ! {
    rt_sigreturn_at((frame as *mut RawFrame as usize + FRAME_TO_APP_RSP) as u64)
}

/// [`do_rt_sigreturn`] for a caller that knows the application's `rsp`
/// at its `rt_sigreturn` instruction some other way: the slow path
/// reads it from the interrupted context, and abandons its own signal
/// frame by never returning.
///
/// # Safety
///
/// `app_rsp` must be the stack pointer of this thread at an
/// `rt_sigreturn` instruction, i.e. just above a kernel signal frame.
pub(crate) unsafe fn rt_sigreturn_at(app_rsp: u64) -> ! {
    sud::set_selector(Dispatch::Allow);
    core::arch::asm!(
        "mov rsp, {0}",
        "mov eax, 15", // rt_sigreturn
        "syscall",
        "ud2",
        in(reg) app_rsp,
        options(noreturn),
    );
}

/// Keeps `SIGSYS` unblockable: without the slow-path signal, a fresh
/// syscall site executed while `SIGSYS` is masked would kill the
/// process (force_sig semantics) or stall interposition.
unsafe fn handle_sigprocmask(frame: &mut RawFrame) -> u64 {
    const SIG_BLOCK: u64 = 0;
    const SIG_SETMASK: u64 = 2;
    let how = frame.a1;
    let set = frame.a2 as *const u64;
    if !set.is_null() && (how == SIG_BLOCK || how == SIG_SETMASK) && frame.a4 == 8 {
        let mut mask = set.read();
        mask &= !(1u64 << (libc::SIGSYS - 1));
        let patched = SyscallArgs::new(
            nr::RT_SIGPROCMASK,
            [how, &mask as *const u64 as u64, frame.a3, 8, 0, 0],
        );
        return raw_internal::syscall(&patched);
    }
    raw_internal::syscall(&frame.syscall_args())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// As both callers do: the interest gate read once, then the frame.
    unsafe fn handle_gated(frame: &mut RawFrame) -> u64 {
        handle_syscall(frame, interpose::global_interested(frame.nr))
    }

    fn mk_frame(nr: u64, args: [u64; 6]) -> RawFrame {
        RawFrame {
            nr,
            a1: args[0],
            a2: args[1],
            a3: args[2],
            a4: args[3],
            a5: args[4],
            a6: args[5],
            saved_rbx: 0,
            saved_rbp: 0,
            ret_addr: 0,
        }
    }

    #[test]
    fn plain_syscall_passes_through() {
        let mut f = mk_frame(nr::GETPID, [0; 6]);
        let ret = unsafe { handle_gated(&mut f) };
        assert_eq!(ret, std::process::id() as u64);
    }

    #[test]
    fn emulated_set_is_the_seven_process_control_calls() {
        let emulated: Vec<u64> = (0..1024).filter(|&n| needs_emulation(n)).collect();
        let mut want = vec![
            nr::RT_SIGRETURN,
            nr::RT_SIGACTION,
            nr::RT_SIGPROCMASK,
            nr::CLONE,
            nr::CLONE3,
            nr::FORK,
            nr::VFORK,
        ];
        want.sort_unstable();
        assert_eq!(emulated, want);
    }

    #[test]
    fn clone3_is_refused() {
        let mut f = mk_frame(nr::CLONE3, [0; 6]);
        let ret = unsafe { handle_gated(&mut f) };
        assert_eq!(Errno::from_ret(ret), Some(Errno::ENOSYS));
    }

    #[test]
    fn sigprocmask_cannot_block_sigsys() {
        unsafe {
            let sigsys_bit = 1u64 << (libc::SIGSYS - 1);
            let want: u64 = sigsys_bit | (1 << (libc::SIGUSR1 - 1));
            let mut f = mk_frame(
                nr::RT_SIGPROCMASK,
                [0 /*SIG_BLOCK*/, &want as *const u64 as u64, 0, 8, 0, 0],
            );
            assert_eq!(handle_gated(&mut f), 0);
            // Read back the mask: SIGUSR1 blocked, SIGSYS not.
            let mut cur: u64 = 0;
            let q = mk_frame(
                nr::RT_SIGPROCMASK,
                [0, 0, &mut cur as *mut u64 as u64, 8, 0, 0],
            );
            let mut q = q;
            assert_eq!(handle_gated(&mut q), 0);
            assert_ne!(cur & (1 << (libc::SIGUSR1 - 1)), 0);
            assert_eq!(cur & sigsys_bit, 0);
            // Restore.
            let none: u64 = 0;
            let mut r = mk_frame(
                nr::RT_SIGPROCMASK,
                [2 /*SETMASK*/, &none as *const u64 as u64, 0, 8, 0, 0],
            );
            handle_gated(&mut r);
        }
    }

    #[test]
    fn uninterested_syscall_bypasses_handler_but_executes() {
        use interpose::{Action, InterestSet, SyscallEvent, SyscallHandler};

        // Interested only in the non-existent number 499; decides with
        // a sentinel so notification is observable.
        struct Only499;
        impl SyscallHandler for Only499 {
            fn handle(&self, _ev: &mut SyscallEvent) -> Action {
                Action::Return(0xDEAD)
            }
            fn interest(&self) -> InterestSet {
                InterestSet::of(&[499])
            }
        }
        // The guard restores whatever handler (and interest cache) was
        // installed before this test, instead of leaking Only499.
        let _guard = interpose::install_handler(Box::new(Only499));

        // getpid is outside the interest set: the handler must be
        // bypassed (no 0xDEAD) while the syscall itself still executes.
        let mut f = mk_frame(nr::GETPID, [0; 6]);
        let ret = unsafe { handle_gated(&mut f) };
        assert_eq!(ret, std::process::id() as u64);

        // 499 is inside the set: the handler decides.
        let mut f = mk_frame(499, [0; 6]);
        let ret = unsafe { handle_gated(&mut f) };
        assert_eq!(ret, 0xDEAD);

        // Emulated syscalls never bypass their emulation: clone3 is
        // refused by the engine even though the handler is indifferent.
        let mut f = mk_frame(nr::CLONE3, [0; 6]);
        let ret = unsafe { handle_gated(&mut f) };
        assert_eq!(Errno::from_ret(ret), Some(Errno::ENOSYS));
    }

    #[test]
    fn frame_rsp_offset_matches_stub_layout() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use zpoline::{Trampoline, XstateMask};

        assert_eq!(std::mem::size_of::<RawFrame>(), 80);
        if !Trampoline::environment_supported() {
            eprintln!("vm.mmap_min_addr != 0; skipping stub layout test");
            return;
        }

        // What `do_rt_sigreturn` would load into rsp for this frame.
        static REPORTED_RSP: AtomicUsize = AtomicUsize::new(0);
        unsafe extern "C" fn report_rsp(frame: *mut RawFrame) -> u64 {
            REPORTED_RSP.store(frame as usize + FRAME_TO_APP_RSP, Ordering::SeqCst);
            0
        }

        Trampoline::install().unwrap();
        let prev = zpoline::set_dispatcher(report_rsp).expect("install registers one");
        // With and without a save area carved between the frame and
        // the dispatcher: the frame does not move.
        for mask in [XstateMask::None, XstateMask::Avx] {
            zpoline::set_xstate_mask(mask);
            let site_rsp: usize;
            unsafe {
                // An already-rewritten site: `call rax` with rax = nr.
                core::arch::asm!(
                    "mov {site_rsp}, rsp",
                    "call rax",
                    site_rsp = out(reg) site_rsp,
                    inlateout("rax") nr::GETPID => _,
                    in("rdi") 0u64, in("rsi") 0u64, in("rdx") 0u64,
                    in("r10") 0u64, in("r8") 0u64, in("r9") 0u64,
                    out("rcx") _, out("r11") _,
                );
            }
            assert_eq!(REPORTED_RSP.load(Ordering::SeqCst), site_rsp, "{mask:?}");
        }
        zpoline::set_dispatcher(prev);
    }
}
