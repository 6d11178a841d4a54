//! `clone`/`fork`/`vfork` interposition (paper §IV-B(a)).
//!
//! SUD is per-task and the kernel deactivates it on every `fork`,
//! `clone`, and `execve`, so new tasks must re-enroll to stay
//! interposed. Three shapes:
//!
//! * **`fork`-like** (no new stack): the child resumes inside the
//!   dispatcher on a copy-on-write copy of the parent stack; we simply
//!   re-enroll before returning 0 to the application.
//! * **thread-like `clone`** (new stack, `CLONE_VM | CLONE_SETTLS`):
//!   the child cannot return through the dispatcher (its registers and
//!   stack no longer describe this call chain), so we seed the child
//!   stack with a start shim that enrolls the new thread and then
//!   `ret`s to the application's own continuation address — the return
//!   address the `call rax` captured in [`RawFrame::ret_addr`].
//! * **`vfork`**: downgraded to `fork` (the classic interposer
//!   approach — vfork's suspended-parent/shared-stack semantics cannot
//!   survive an intervening function frame). POSIX-compliant callers
//!   only `execve`/`_exit` in the child, for which fork semantics are
//!   a strict superset.
//!
//! Raw `clone` with a new stack but **without** `CLONE_SETTLS` gets a
//! plain continuation (no enrollment): the child would share the
//! parent's TLS, so enrolling it would alias the parent's selector
//! byte. Such children run uninterposed until they enroll themselves —
//! a documented deviation (the C prototype maps a fresh `%gs` region
//! instead).

use syscalls::{nr, SyscallArgs};
use zpoline::RawFrame;

use crate::raw_internal;

const CLONE_VM: u64 = 0x100;
const CLONE_VFORK: u64 = 0x4000;
const CLONE_SETTLS: u64 = 0x0008_0000;

/// Bounded attempts when re-enabling SUD on a fresh task. The kernel
/// supported SUD a moment ago (the parent dispatched this very clone),
/// so a failure here is transient by construction — worth a couple of
/// immediate re-attempts before accepting degradation.
const ENROLL_ATTEMPTS: u32 = 3;

/// [`sud::enable_thread`] with bounded retry; returns whether SUD is
/// enabled when it gives up.
fn enable_thread_with_retry() -> bool {
    for _ in 0..ENROLL_ATTEMPTS {
        if sud::enable_thread().is_ok() {
            return true;
        }
        std::hint::spin_loop();
    }
    false
}

/// Re-enrolls the current task after the kernel cleared its SUD state.
///
/// Called in fork children (from dispatcher context, selector ALLOW —
/// the dispatcher exit path re-BLOCKs) and from the clone-child shim.
pub(crate) fn reenroll_after_clone() {
    // Hardened mode: the fresh task starts with its PKRU at the
    // kernel's init value (slab writable) — close it before the first
    // dispatch so the selector is protected again.
    crate::harden::rearm_after_clone();
    if crate::tls::enrolled() {
        // After the bounded retry, ignore failure: the task degrades to
        // uninterposed rather than dying.
        let _ = enable_thread_with_retry();
    }
}

/// `fork`/`vfork` (and `clone` without a new stack).
pub(crate) unsafe fn handle_fork(_frame: &mut RawFrame) -> u64 {
    // vfork → fork downgrade (see module docs).
    let ret = raw_internal::syscall(&SyscallArgs::nullary(nr::FORK));
    if ret == 0 {
        reenroll_after_clone();
    }
    ret
}

/// `clone` in all its shapes.
pub(crate) unsafe fn handle_clone(frame: &mut RawFrame) -> u64 {
    let flags = frame.a1;
    let child_stack = frame.a2;

    if child_stack == 0 {
        // fork-like: child continues in this dispatcher frame (CoW or
        // shared stack with CLONE_VFORK semantics handled by caller).
        let ret = raw_internal::syscall(&frame.syscall_args());
        if ret == 0 {
            reenroll_after_clone();
        }
        return ret;
    }

    // New-stack clone: seed the child stack so the child lands on the
    // application continuation without unwinding our Rust frames.
    //
    // Enrollment: a fresh TLS block (CLONE_SETTLS) always gets its own
    // selector. A vfork-style child (CLONE_VM | CLONE_VFORK, the
    // posix_spawn pattern) shares the parent's TLS, but the parent is
    // suspended until the child execs or exits, so briefly sharing the
    // selector byte is safe — and necessary to interpose the child's
    // pre-exec syscalls (including the execve itself).
    let enroll = flags & CLONE_SETTLS != 0
        || (flags & CLONE_VM != 0 && flags & CLONE_VFORK != 0);
    let vm = flags & CLONE_VM != 0;

    let (new_sp, _slots) = if enroll {
        // [new_sp] = shim, [new_sp+8] = app continuation.
        let sp = (child_stack - 16) as *mut u64;
        sp.write(lp_clone_child_shim as *const () as usize as u64);
        sp.add(1).write(frame.ret_addr);
        (sp as u64, 2)
    } else {
        // [new_sp] = app continuation only.
        let sp = (child_stack - 8) as *mut u64;
        sp.write(frame.ret_addr);
        (sp as u64, 1)
    };

    if !vm {
        // New stack without shared VM: the child gets a CoW copy, and
        // both sides can safely run the generic path — but the child
        // still must not unwind our frames, so use the asm path too.
    }

    clone_asm(frame.nr, flags, new_sp, frame.a3, frame.a4, frame.a5)
}

/// Issues `clone` such that the child immediately `ret`s into the
/// seeded stack instead of resuming in Rust code.
///
/// The child executes exactly two instructions here (`test`, `jnz`
/// fall-through, `ret`), abandoning this Rust frame — which is sound
/// because nothing on it is ever observed again by the child.
unsafe fn clone_asm(nr: u64, flags: u64, new_sp: u64, ptid: u64, ctid: u64, tls: u64) -> u64 {
    let ret: u64;
    core::arch::asm!(
        "syscall",
        "test rax, rax",
        "jnz 2f",
        "ret", // child: into shim or app continuation
        "2:",
        inlateout("rax") nr => ret,
        in("rdi") flags,
        in("rsi") new_sp,
        in("rdx") ptid,
        in("r10") ctid,
        in("r8") tls,
        out("rcx") _,
        out("r11") _,
    );
    ret
}

// Child-start shim: enrolls the fresh thread (its TLS block was just
// installed via CLONE_SETTLS) and continues to the application with
// rax = 0 and rsp exactly where the application expects it.
std::arch::global_asm!(
    r#"
    .text
    .globl lp_clone_child_shim
    .type lp_clone_child_shim, @function
lp_clone_child_shim:
    # rsp → [app continuation]; rax = 0 (we are the child).
    call {init}
    xor eax, eax
    ret
    .size lp_clone_child_shim, . - lp_clone_child_shim
"#,
    init = sym lp_clone_child_init,
);

extern "C" {
    fn lp_clone_child_shim();
}

/// Rust side of the child-start shim.
unsafe extern "C" fn lp_clone_child_init() {
    // The parent was enrolled (it dispatched this clone). A fresh TLS
    // block (CLONE_SETTLS) says "not enrolled" — inherit the parent's
    // decision. A vfork-style child *shares* the parent's TLS, which at
    // this point still carries the parent's dispatcher re-entrancy
    // guard; clear it, or every child syscall would take the raw
    // passthrough path. (Safe: the parent is suspended until the child
    // execs or exits, and restores its own guard on dispatcher exit.)
    crate::tls::set_in_dispatch(false);
    crate::tls::set_enrolled(true);
    // The clone may have been emulated *inside the SIGSYS handler*
    // (pure-SUD configuration, or the SudOnly degradation rung), in
    // which case this child inherited a signal mask with SIGSYS blocked
    // — and, unlike a fork-like child, it never travels through a
    // sigreturn that would restore the pre-handler mask. A blocked
    // SIGSYS turns the first intercepted syscall into a straight kill,
    // so unblock it unconditionally before arming the selector.
    let sigsys_mask: u64 = 1 << (libc::SIGSYS as u64 - 1);
    raw_internal::rt_sigprocmask(raw_internal::SIG_UNBLOCK, &sigsys_mask, std::ptr::null_mut());
    // Hardened mode: adopt a protected selector slot for this fresh
    // thread (its own cache line on the pkey slab) and close the slab
    // before arming, mirroring the parent's enrollment.
    if sud::pkey::slab_ready() {
        let _ = sud::adopt_protected_selector();
    }
    crate::harden::rearm_after_clone();
    if enable_thread_with_retry() {
        // A fresh TLS block starts zeroed, i.e. on the full path.
        crate::tls::arm_stub_exit();
        sud::set_selector(sud::Dispatch::Block);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_flag_constants_match_linux() {
        assert_eq!(CLONE_VM, libc::CLONE_VM as u64);
        assert_eq!(CLONE_SETTLS, libc::CLONE_SETTLS as u64);
    }

    #[test]
    fn fork_like_clone_roundtrip() {
        // Exercise handle_fork end-to-end: child exits immediately,
        // parent waits. (No SUD active in this unit test; the re-enroll
        // path is a no-op because the thread is not enrolled.)
        unsafe {
            let mut frame = RawFrame {
                nr: nr::FORK,
                a1: 0,
                a2: 0,
                a3: 0,
                a4: 0,
                a5: 0,
                a6: 0,
                saved_rbx: 0,
                saved_rbp: 0,
                ret_addr: 0,
            };
            let pid = handle_fork(&mut frame);
            if pid == 0 {
                // child
                libc::_exit(42);
            }
            let mut status = 0;
            libc::waitpid(pid as i32, &mut status, 0);
            assert!(libc::WIFEXITED(status));
            assert_eq!(libc::WEXITSTATUS(status), 42);
        }
    }

    #[test]
    fn thread_like_clone_runs_continuation() {
        // Hand-rolled thread: a tiny continuation that stores a flag
        // and exits the thread. We pass CLONE_SETTLS=false so the shim
        // is skipped (plain continuation path) — the child shares our
        // TLS and must not touch it.
        use std::sync::atomic::{AtomicU64, Ordering};
        static FLAG: AtomicU64 = AtomicU64::new(0);

        unsafe extern "C" fn child_body() -> ! {
            FLAG.store(7, Ordering::SeqCst);
            // exit(0) — thread exit, not process exit (no EXIT_GROUP).
            syscalls::raw::syscall1(nr::EXIT, 0);
            std::hint::unreachable_unchecked()
        }

        unsafe {
            let stack = libc::mmap(
                std::ptr::null_mut(),
                64 * 1024,
                libc::PROT_READ | libc::PROT_WRITE,
                libc::MAP_PRIVATE | libc::MAP_ANONYMOUS | libc::MAP_STACK,
                -1,
                0,
            );
            assert_ne!(stack, libc::MAP_FAILED);
            let stack_top = (stack as usize + 64 * 1024) & !15;

            let flags = (libc::CLONE_VM | libc::CLONE_FS | libc::CLONE_FILES | libc::CLONE_SIGHAND
                | libc::CLONE_THREAD) as u64;
            let mut frame = RawFrame {
                nr: nr::CLONE,
                a1: flags,
                a2: stack_top as u64,
                a3: 0,
                a4: 0,
                a5: 0,
                a6: 0,
                saved_rbx: 0,
                saved_rbp: 0,
                ret_addr: child_body as *const () as usize as u64,
            };
            let tid = handle_clone(&mut frame);
            assert!(
                (tid as i64) > 0,
                "clone failed: {:?}",
                syscalls::Errno::from_ret(tid)
            );
            // Wait for the child to set the flag.
            for _ in 0..10_000 {
                if FLAG.load(Ordering::SeqCst) == 7 {
                    break;
                }
                std::thread::yield_now();
            }
            assert_eq!(FLAG.load(Ordering::SeqCst), 7);
        }
    }
}
