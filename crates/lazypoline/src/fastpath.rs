//! The dispatcher: one shared syscall-handling implementation for both
//! the fast path (trampoline) and the slow path (SIGSYS emulation
//! fallback), exactly as the paper motivates in §IV-A(c).

use interpose::{exit, InterestSet, SyscallEvent};
use syscalls::{nr, Errno, SyscallArgs};
use zpoline::RawFrame;

use crate::{clone, counters, raw_internal, signals};

/// Byte offset from the `RawFrame` pointer to the application's `rsp`
/// at the moment the (rewritten) syscall instruction executed.
///
/// Derived from the trampoline stub's stack layout: the stub enters
/// with `rsp = E` (app rsp after the `call rax` push, i.e. app rsp at
/// the syscall minus 8) and builds the frame at `E - 208`.
pub(crate) const FRAME_TO_APP_RSP: usize = 216;

/// The dispatcher registered with the zpoline trampoline.
///
/// Protocol: run the shared handler under the re-entry guard, and issue
/// every syscall from the gate ([`raw_internal::syscall`]), which SUD
/// lets through: the enrolled thread's SUD has no selector to flip, and
/// every other syscall of it is dispatched. Entered
/// either directly from application code via a rewritten site, from the
/// slow path's re-execution of a site it just rewrote, or from a
/// handler that itself reached a rewritten site — a nested dispatch,
/// which the guard turns into plain execution (below).
///
/// A hit on an armed thread is one straight line: the count goes
/// through the thread's block (a plain `inc` in the slot of the call's
/// number), the exit byte is read once, and the only calls are the
/// handler's two and [`raw_internal::syscall`]. A nested dispatch is not counted: it is
/// the interposer's syscall, not the application's.
///
/// Its last store is the thread block's declaration for the stub's exit
/// ([`zpoline::ThreadBlock::set_leaves_fp_env`]): `true` after the raw
/// and emulation paths, which do no floating-point work, what the
/// registry cached for the handler it called after a hit, and `false`
/// after a panic or a quarantine. It comes after everything that may
/// dispatch again, so no nested exit takes it.
pub(crate) unsafe extern "C" fn lazypoline_dispatch(frame: *mut RawFrame) -> u64 {
    let block = zpoline::thread_block();
    let guarded = block.in_dispatch();
    let frame = &mut *frame;
    if !guarded {
        counters::count_dispatch(block, frame.nr);
    }

    // rt_sigreturn must take its special path even when re-entered
    // (the wrapper's own return travels through here while the
    // dispatch guard is set).
    if frame.nr == nr::RT_SIGRETURN {
        do_rt_sigreturn(frame);
    }

    // Execute raw — no event, no virtual call — when the installed
    // handler declared no interest in this number (one relaxed load of
    // its byte in `interpose::EXITS`; the entry stub takes this exit by
    // itself on threads whose block is armed), or when a handler
    // re-entered the dispatcher, e.g. through a libc call of its own.
    // Syscalls the engine must emulate for correctness (signals, clones)
    // are `ROUTED` and go through `handle_syscall` regardless, under the
    // guard too: a raw `clone` or `vfork` from the gate could not return
    // to its caller, and a raw mask could block the `SIGSYS` the
    // handler's next fresh site needs.
    let byte = interpose::exit_byte(frame.nr);
    let interested = !guarded && byte & exit::WANTED != 0;
    if !interested && byte & exit::ROUTED == 0 {
        let ret = raw_internal::syscall(&frame.syscall_args());
        block.set_leaves_fp_env(true);
        return ret;
    }
    let was = block.set_in_dispatch(true);
    let (ret, leaves_fp_env) = handle_syscall(frame, interested);
    block.set_in_dispatch(was);
    block.set_leaves_fp_env(leaves_fp_env);
    ret
}

/// The numbers [`handle_syscall`] must always see itself, whatever the
/// installed handler's interest, registered as `ROUTED` in the exit table
/// ([`interpose::set_routed`]) before the engine publishes it: zpoline's
/// entry stub takes neither its miss exit nor its record exit for them.
/// They are the process-control calls the engine emulates
/// ([`is_process_control`]), whose raw execution would break signal
/// transparency or thread/process bookkeeping, and the calls the shadow
/// of the executable mappings must see or stop vouching at
/// ([`zpoline::maps::shadow`]). (`rt_sigreturn` is handled before the
/// fast-out and listed for the stub's and the slow path's benefit.) So
/// are `execve` and `execveat`, which hardened mode refuses
/// ([`crate::harden::refuses_exec`]): a miss would exec.
pub(crate) const ROUTED: InterestSet = InterestSet::of(&[
    nr::RT_SIGRETURN,
    nr::RT_SIGACTION,
    nr::RT_SIGPROCMASK,
    nr::CLONE,
    nr::CLONE3,
    nr::FORK,
    nr::VFORK,
    nr::MMAP,
    nr::MUNMAP,
    nr::MPROTECT,
    nr::PKEY_MPROTECT,
    nr::MREMAP,
    nr::REMAP_FILE_PAGES,
    nr::BRK,
    nr::SHMAT,
    nr::SHMDT,
    nr::PRCTL,
    nr::USERFAULTFD,
    nr::EXECVE,
    nr::EXECVEAT,
]);

/// Whether `nr_` is in [`ROUTED`], for a number a handler rewrote (the
/// table answers for the number a call arrived with).
#[inline]
pub(crate) fn needs_emulation(nr_: u64) -> bool {
    nr_ < syscalls::MAX_SYSCALL_NR && ROUTED.contains(nr_)
}

/// Whether `nr_` is one of the process-control calls the engine
/// emulates: signal-table and task plumbing the kernel never fails with
/// a transient errno.
pub(crate) fn is_process_control(nr_: u64) -> bool {
    matches!(
        nr_,
        nr::RT_SIGRETURN
            | nr::RT_SIGACTION
            | nr::RT_SIGPROCMASK
            | nr::CLONE
            | nr::CLONE3
            | nr::FORK
            | nr::VFORK
    )
}

/// Shared syscall handling: notify the global handler, then execute
/// (with special handling for the process-control syscalls the paper
/// calls out: `rt_sigreturn`, `rt_sigaction`, `clone`, `fork`,
/// `vfork`, plus `rt_sigprocmask` to keep `SIGSYS` deliverable).
///
/// `interested` is the `WANTED` bit of the frame's number's exit byte,
/// which each of the two callers — the dispatcher above and the slow
/// path's in-handler emulation — reads exactly once (and passes as
/// `false` under the re-entry guard); a call the handler did not ask
/// for only gets the engine's own emulation.
///
/// Returns the result and whether x87 and `MXCSR` are as the call found
/// them ([`interpose::interpose_event`]'s answer; `true` for the
/// engine's own emulation).
///
/// # Safety
///
/// `frame` must describe a syscall invocation from this thread.
#[inline]
pub(crate) unsafe fn handle_syscall(frame: &mut RawFrame, interested: bool) -> (u64, bool) {
    if !interested {
        return (execute_frame(frame), true);
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
/// for the process-control syscalls the paper calls out, execution
/// through the shadow of the executable mappings for the calls that map
/// or re-protect memory, raw execution for everything else. Result
/// observation/rewriting (`post`) happens in the caller's shared
/// sequence; for clone-like calls whose child
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
        nr::MMAP
        | nr::MUNMAP
        | nr::MPROTECT
        | nr::PKEY_MPROTECT
        | nr::MREMAP
        | nr::REMAP_FILE_PAGES
        | nr::BRK
        | nr::SHMAT
        | nr::SHMDT => zpoline::maps::shadow::execute(&frame.syscall_args(), |call| {
            raw_internal::syscall(call)
        }),
        nr::PRCTL => handle_prctl(frame),
        nr::EXECVE | nr::EXECVEAT if crate::harden::refuses_exec() => Errno::EACCES.as_ret(),
        nr::USERFAULTFD => {
            // A write-protecting `userfaultfd` refuses stores no
            // `mprotect` forbade.
            zpoline::maps::shadow::distrust();
            raw_internal::syscall(&frame.syscall_args())
        }
        _ => raw_internal::syscall(&frame.syscall_args()),
    }
}

/// The application's own `prctl(PR_SET_SYSCALL_USER_DISPATCH, …)`:
/// refused under hardened mode ([`crate::harden::refuses_dispatch_change`]);
/// otherwise executed, as the paper's trust model has it (DESIGN.md
/// §11) — and from then on the dispatcher may not see this thread's
/// mapping calls, so the shadow stops vouching. Any other `prctl` is
/// executed.
unsafe fn handle_prctl(frame: &mut RawFrame) -> u64 {
    if frame.a1 == sud::PR_SET_SYSCALL_USER_DISPATCH as u64 {
        if crate::harden::refuses_dispatch_change() {
            return Errno::EPERM.as_ret();
        }
        zpoline::maps::shadow::distrust();
    }
    raw_internal::syscall(&frame.syscall_args())
}

/// `rt_sigreturn` cannot be issued from dispatcher context directly:
/// the kernel reads the signal frame at the *current* `rsp`. Restore
/// the application's `rsp` (where the frame lives) and issue the
/// syscall there, from the gate's restorer, so that the instruction is
/// never itself dispatched (paper Fig. 3 step ③). Control continues at
/// whatever context the signal frame describes, interposed as before.
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
    zpoline::gate_sigreturn(app_rsp)
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

    /// The registry is process-global: tests that install a handler
    /// hold this.
    static REGISTRY: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn lock_registry() -> std::sync::MutexGuard<'static, ()> {
        // As the engine's init does before it publishes the table.
        interpose::set_routed(&ROUTED);
        REGISTRY.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// As both callers do: the interest gate read once, then the frame.
    unsafe fn handle_gated(frame: &mut RawFrame) -> u64 {
        handle_syscall(frame, interpose::global_interested(frame.nr)).0
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
        // SAFETY: a getpid of this thread's, which takes no arguments.
        let ret = unsafe { handle_gated(&mut f) };
        assert_eq!(ret, std::process::id() as u64);
    }

    #[test]
    fn routed_set_is_process_control_and_the_mapping_calls() {
        let routed: Vec<u64> = (0..1024).filter(|&n| needs_emulation(n)).collect();
        let mut want = vec![
            nr::RT_SIGRETURN,
            nr::RT_SIGACTION,
            nr::RT_SIGPROCMASK,
            nr::CLONE,
            nr::CLONE3,
            nr::FORK,
            nr::VFORK,
            nr::MMAP,
            nr::MUNMAP,
            nr::MPROTECT,
            nr::PKEY_MPROTECT,
            nr::MREMAP,
            nr::REMAP_FILE_PAGES,
            nr::BRK,
            nr::SHMAT,
            nr::SHMDT,
            nr::PRCTL,
            nr::USERFAULTFD,
            nr::EXECVE,
            nr::EXECVEAT,
        ];
        want.sort_unstable();
        assert_eq!(routed, want);
    }

    #[test]
    fn emulated_set_is_the_seven_process_control_calls() {
        let emulated: Vec<u64> = (0..1024).filter(|&n| is_process_control(n)).collect();
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
        assert!(emulated.iter().all(|&n| needs_emulation(n)));
    }

    #[test]
    fn clone3_is_refused() {
        let mut f = mk_frame(nr::CLONE3, [0; 6]);
        // SAFETY: the engine refuses `clone3` without executing it.
        let ret = unsafe { handle_gated(&mut f) };
        assert_eq!(Errno::from_ret(ret), Some(Errno::ENOSYS));
    }

    #[test]
    fn sigprocmask_cannot_block_sigsys() {
        // SAFETY: `rt_sigprocmask` calls of this thread's, each with
        // pointers to live locals of the kernel's 8-byte mask size; the
        // last one puts the empty mask the test thread started with back.
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
        // The guard restores whatever handler (and exit bytes) was
        // installed before this test, instead of leaking Only499.
        let _registry = lock_registry();
        let _guard = interpose::install_handler(Box::new(Only499));

        // getpid is outside the interest set: the handler must be
        // bypassed (no 0xDEAD) while the syscall itself still executes.
        let mut f = mk_frame(nr::GETPID, [0; 6]);
        // SAFETY: as in `plain_syscall_passes_through`.
        let ret = unsafe { handle_gated(&mut f) };
        assert_eq!(ret, std::process::id() as u64);

        // 499 is inside the set: the handler decides.
        let mut f = mk_frame(499, [0; 6]);
        // SAFETY: the handler answers 499 itself; nothing executes.
        let ret = unsafe { handle_gated(&mut f) };
        assert_eq!(ret, 0xDEAD);

        // Emulated syscalls never bypass their emulation: clone3 is
        // refused by the engine even though the handler is indifferent.
        let mut f = mk_frame(nr::CLONE3, [0; 6]);
        // SAFETY: as in `clone3_is_refused`.
        let ret = unsafe { handle_gated(&mut f) };
        assert_eq!(Errno::from_ret(ret), Some(Errno::ENOSYS));
    }

    #[test]
    fn the_dispatcher_declares_what_the_handler_it_called_declared() {
        use interpose::{Action, InterestSet, SyscallEvent, SyscallHandler};

        /// Declares, and keeps its word except on 499, where it panics.
        struct PanicsOn499;
        impl SyscallHandler for PanicsOn499 {
            fn handle(&self, ev: &mut SyscallEvent) -> Action {
                assert_ne!(ev.call.nr, 499, "policy bug");
                Action::Passthrough
            }
            fn leaves_fp_env(&self) -> bool {
                true
            }
        }
        /// Declares nothing; wants 499 alone.
        struct Undeclared;
        impl SyscallHandler for Undeclared {
            fn handle(&self, _ev: &mut SyscallEvent) -> Action {
                Action::Passthrough
            }
            fn interest(&self) -> InterestSet {
                InterestSet::of(&[499])
            }
        }

        // What the stub's exit reads, taken as the exit takes it.
        let block = zpoline::thread_block();
        // SAFETY: argument-less frames of this thread's: a hit on 499
        // (the handler decides, or panics and is quarantined, and the
        // kernel answers `ENOSYS`), a raw getpid, the refused `clone3`.
        let declared = |nr| unsafe {
            lazypoline_dispatch(&mut mk_frame(nr, [0; 6]));
            let declared = block.leaves_fp_env();
            block.set_leaves_fp_env(false);
            declared
        };
        let _registry = lock_registry();
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        {
            let _guard = interpose::install_handler(Box::new(Undeclared));
            assert!(!declared(499), "a hit crosses the handler");
            assert!(declared(nr::GETPID), "a miss runs raw");
            assert!(declared(nr::CLONE3), "the engine's emulation");
        }
        {
            let _guard = interpose::install_handler(Box::new(PanicsOn499));
            assert!(declared(nr::GETPID), "a hit crosses a declared handler");
            assert!(!declared(499), "the dispatch that quarantined it");
            assert!(declared(499), "quarantined: the call runs raw");
        }
        std::panic::set_hook(prev_hook);
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
            // SAFETY: enters the installed trampoline as a rewritten
            // site does, with every register the stub may change named
            // as clobbered; `report_rsp` executes nothing.
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
