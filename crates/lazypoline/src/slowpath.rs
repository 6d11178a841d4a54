//! The SUD slow path: the `SIGSYS` handler that performs lazy rewriting
//! (paper §IV-A).
//!
//! On every dispatch the handler:
//!
//! 1. rewrites the faulting `syscall` instruction to `call rax`
//!    ([`zpoline::patch_syscall_site`], under the rewrite spinlock),
//! 2. rewinds the interrupted `rip` to the *rewritten* instruction and
//!    resumes in user space ([`zpoline::resume_context`]): the frame's
//!    extended state, GPRs, flags and `rip`, put back without
//!    `rt_sigreturn`. Re-execution enters the fast path, which handles
//!    the syscall — the paper's single shared handling implementation
//!    for both paths.
//!
//! There is no selector to flip: every syscall the handler issues
//! leaves from the gate ([`zpoline::gate`]), which SUD lets through by
//! its range, and the resume issues none. The paper's handler sets
//! ALLOW first and `sigreturn`s with it ("selector-only SUD"), for its
//! own syscalls and for the re-executed site; here the site's
//! re-execution is a `call rax`, not a syscall.
//!
//! The handler is registered `SA_NODEFER` with an empty `sa_mask`
//! ([`install`]) and the patch path changes neither the signal mask nor
//! the alternate stack, so the resume has nothing else to restore. The
//! kernel's return, through the gate's restorer, is still taken:
//!
//! * after every emulation below — the emulated `rt_sigprocmask` edits
//!   `uc_sigmask`, which only the kernel installs together with the
//!   return;
//! * for a frame the resume cannot honour
//!   ([`sud::sigsys::UContext::resumable`]): no `xsave` image (its magic
//!   words missing), `TF` set, a `cs` other than the 64-bit user
//!   selector, or a user shadow stack active.
//!
//! When the site is not rewritten, the syscall is emulated right here
//! through the same shared [`crate::fastpath::handle_syscall`] logic.
//! The reasons are kept distinct (they answer different questions):
//!
//! * **rewriting disabled** — a configuration state (pure-SUD mode, or
//!   the `Mode::SudOnly` degradation rung), counted as
//!   `DISABLED_MODE_EMULATIONS`;
//! * **page blocklisted** — a previous patch attempt failed
//!   persistently, so the page's `SIGSYS` trips skip straight to
//!   emulation (counted as `UNPATCHABLE_EMULATIONS`);
//! * **rewrite lock held** — a signal landed on a thread that takes or
//!   holds the rewrite lock, and its handler ran a fresh site; the site
//!   is rewritten on its next trap (also `UNPATCHABLE_EMULATIONS`);
//! * **patch failed** — this attempt failed, after a bounded retry for
//!   transient `mprotect` errors; persistent `mprotect` failures, and a
//!   protection that cannot be looked up (no `/proc`, no descriptor to
//!   open it on), insert the page into the blocklist (also
//!   `UNPATCHABLE_EMULATIONS`). A site in the gate (`zpoline::gate`,
//!   the interposer's own `syscall`s, which SUD never traps) would fail
//!   this way, with `PatchError::InGate`, and is never blocklisted.
//!
//! A handler notified from an emulation runs inside this handler, and
//! its own libc calls lie outside the gate: each traps again,
//! nested (the handler is registered `SA_NODEFER`), and is executed
//! under the re-entry guard without a second notification.

use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use sud::sigsys::{SigsysInfo, UContext};
use syscalls::Errno;
use zpoline::RawFrame;

use crate::{blocklist, counters, fastpath, raw_internal, signals};

/// Slow-path (`SIGSYS`) deliveries.
pub(crate) static SLOW_PATH_HITS: AtomicU64 = AtomicU64::new(0);
/// Syscall sites rewritten to `call rax`: here, and by the static
/// prescan of `Mode::PrescanOnly`.
pub(crate) static SITES_PATCHED: AtomicU64 = AtomicU64::new(0);
/// Syscalls emulated in the handler because the site could not be
/// patched.
pub(crate) static UNPATCHABLE_EMULATIONS: AtomicU64 = AtomicU64::new(0);
/// Syscalls emulated in the handler because lazy rewriting is disabled
/// (pure-SUD configuration or `Mode::SudOnly` degradation) — a config
/// state, distinct from [`UNPATCHABLE_EMULATIONS`] failures.
pub(crate) static DISABLED_MODE_EMULATIONS: AtomicU64 = AtomicU64::new(0);
/// Retries of a patch attempt after a transient `mprotect` failure
/// (`EAGAIN`/`ENOMEM`).
pub(crate) static PATCH_RETRIES: AtomicU64 = AtomicU64::new(0);
/// Pages inserted into the unpatchable-page blocklist after persistent
/// patch failure.
pub(crate) static PAGES_BLOCKLISTED: AtomicU64 = AtomicU64::new(0);

/// When false, the slow path never rewrites: every dispatched syscall
/// is emulated in the handler, which turns the engine into a pure
/// SUD interposer — the configuration Table II's "SUD" row measures,
/// an ablation of the paper's central design choice, and the engine's
/// `Mode::SudOnly` degradation rung (no trampoline to `call` into).
pub(crate) static LAZY_REWRITING: AtomicBool = AtomicBool::new(true);

/// When true (default), a `SIGSYS` for an unpatched site rewrites every
/// rewritable `syscall` site on that executable page in one
/// spinlock/`mprotect` window ([`zpoline::patch_page_sites`]), instead
/// of only the faulting site. Each extra site patched here is a future
/// slow-path trip that never happens. Disable via
/// [`crate::Config::batch_rewriting`] to ablate (the `ablate` bench
/// compares `SITES_PATCHED` vs `SLOW_PATH_HITS` across both modes).
pub(crate) static BATCH_REWRITING: AtomicBool = AtomicBool::new(true);

/// Additional patch attempts after a transient `mprotect` failure
/// (`EAGAIN`/`ENOMEM`). Plain capped re-attempts — no sleeping in a
/// signal handler.
const PATCH_RETRY_LIMIT: u32 = 3;

/// The process-wide `SIGSYS` handler.
///
/// # Safety
///
/// Installed via `sigaction` with `SA_SIGINFO`; only the kernel calls
/// it.
pub(crate) unsafe extern "C" fn sigsys_handler(
    sig: libc::c_int,
    info: *mut libc::siginfo_t,
    ctx: *mut libc::c_void,
) {
    let si = SigsysInfo::from_siginfo(info);
    if si.code != sud::SYS_USER_DISPATCH {
        if si.code == crate::harden::SYS_SECCOMP && crate::harden::backstop_armed() {
            // The hardened backstop caught a syscall from
            // non-allowlisted code on a task SUD did not cover — a
            // bypass attempt. Kill never returns; quarantine asks us
            // to route the syscall through the interposer after all.
            if crate::harden::on_bypass() {
                emulate_in_handler(&mut UContext::from_ptr(ctx));
            }
            return;
        }
        // A genuine SIGSYS (e.g. application seccomp): forward to the
        // application's recorded handler, if any.
        forward_foreign_sigsys(sig, info, ctx);
        return;
    }

    SLOW_PATH_HITS.fetch_add(1, Ordering::Relaxed);

    let mut uc = UContext::from_ptr(ctx);
    let insn = si.syscall_insn_addr();
    let page = insn & !4095;

    // Why the site is emulated instead of rewritten, as the counter the
    // emulation is counted in; `None`: it was rewritten.
    let emulated_as = if !LAZY_REWRITING.load(Ordering::Relaxed) {
        Some(&DISABLED_MODE_EMULATIONS)
    } else if zpoline::thread_block().holds_rewrite_lock() {
        // A signal landed while this thread takes or holds the rewrite
        // lock, and its handler ran a fresh site: waiting for the lock
        // here would never end. Unpatchable for now; the site is
        // rewritten on its next trap.
        Some(&UNPATCHABLE_EMULATIONS)
    } else if blocklist::contains(page) {
        // Negative cache hit: this page's mprotect window is known
        // broken — skip the lock + VMA lookup + doomed mprotect.
        Some(&UNPATCHABLE_EMULATIONS)
    } else {
        match patch_with_retry(insn, page) {
            Ok(zpoline::PatchOutcome::Patched) => {
                SITES_PATCHED.fetch_add(1, Ordering::Relaxed);
                None
            }
            // Another thread raced us; re-execute through the fast
            // path all the same.
            Ok(zpoline::PatchOutcome::AlreadyPatched) => None,
            Err(_) => Some(&UNPATCHABLE_EMULATIONS),
        }
    };

    match emulated_as {
        None => {
            uc.set_rip(insn as u64);
            if uc.resumable() {
                // SAFETY: the kernel's frame for this handler, checked;
                // the patch path left the mask and the alternate stack
                // as it found them, and nothing on this stack needs
                // dropping.
                zpoline::resume_context(uc.as_ptr());
            }
        }
        Some(emulations) => {
            // Counted as the dispatches they stand in for, by number:
            // the application's, not the interposer's own.
            if !zpoline::thread_block().in_dispatch() {
                counters::bump_dispatch(uc.syscall_args().nr);
                emulations.fetch_add(1, Ordering::Relaxed);
            }
            emulate_in_handler(&mut uc);
        }
    }
}

const SA_NODEFER: u64 = 0x4000_0000;

/// Registers [`sigsys_handler`] with the kernel: by a raw
/// `rt_sigaction` from the gate, with `SA_NODEFER` — a handler's libc
/// call made while the handler emulates nests one `SIGSYS` instead of
/// meeting a blocked one, which would kill the process — and with the
/// gate's restorer, whose `rt_sigreturn` SUD lets through by its range.
pub(crate) fn install() -> io::Result<()> {
    let act = signals::KernelSigaction {
        handler: sigsys_handler as *const () as usize as u64,
        flags: (libc::SA_SIGINFO | libc::SA_RESTART) as u64 | SA_NODEFER | signals::SA_RESTORER,
        restorer: zpoline::sigreturn_restorer() as u64,
        mask: 0,
    };
    // SAFETY: `act` is a valid kernel sigaction that outlives the call;
    // no old action is asked for.
    let r = unsafe { raw_internal::rt_sigaction(libc::SIGSYS, &act as *const _ as u64, 0) };
    match Errno::from_ret(r) {
        Some(e) => Err(io::Error::from_raw_os_error(e.as_i32())),
        None => Ok(()),
    }
}

/// One patch attempt honouring the batch-rewriting setting.
unsafe fn patch_once(insn: usize) -> Result<zpoline::PatchOutcome, zpoline::PatchError> {
    if BATCH_REWRITING.load(Ordering::Relaxed) {
        // Page-granular batch rewriting: one SIGSYS pays the
        // lock/mprotect cost for every verifiable site on the page.
        // With the proven-site cache armed, every site it rewrites — the
        // kernel-proved anchor and what the sweep verified from it — is
        // logged for the next process that maps the same file.
        let batch = if zpoline::sitelog::armed() {
            zpoline::patch_page_sites_logged(insn)
        } else {
            zpoline::patch_page_sites(insn)
        };
        batch.map(|batch| {
            SITES_PATCHED.fetch_add(batch.extra_patched as u64, Ordering::Relaxed);
            batch.site
        })
    } else {
        zpoline::patch_syscall_site(insn)
    }
}

/// Patches `insn`, retrying transient `mprotect` failures a bounded
/// number of times; a still-failing `mprotect`, or a failed lookup of
/// the mapping's protection, blocklists the page so future `SIGSYS`
/// trips on it go straight to emulation.
unsafe fn patch_with_retry(
    insn: usize,
    page: usize,
) -> Result<zpoline::PatchOutcome, zpoline::PatchError> {
    let mut result = patch_once(insn);
    let mut retries = 0;
    while retries < PATCH_RETRY_LIMIT {
        match result {
            Err(zpoline::PatchError::MprotectFailed(e))
                if e == Errno::EAGAIN || e == Errno::ENOMEM =>
            {
                PATCH_RETRIES.fetch_add(1, Ordering::Relaxed);
                retries += 1;
                std::hint::spin_loop();
                result = patch_once(insn);
            }
            _ => break,
        }
    }
    if let Err(zpoline::PatchError::MprotectFailed(_) | zpoline::PatchError::LookupFailed(_)) =
        result
    {
        // A window that cannot be opened, persistently, or whose
        // protection cannot even be looked up (only pages that need a
        // window get that far): negative-cache the page, or every later
        // execution on it pays SIGSYS + `open` again. (The other errors
        // — unmapped address, foreign bytes — are not page properties,
        // so they are not cached.)
        if blocklist::insert(page) {
            PAGES_BLOCKLISTED.fetch_add(1, Ordering::Relaxed);
        }
    }
    result
}

/// Emulates the intercepted syscall inside the handler through the
/// shared dispatcher logic (paper §IV-A(c): one handling
/// implementation).
///
/// The `slowpath_emulate` fault seam fires *before* the handler is
/// notified: an injected fault means the syscall never executed and the
/// application sees the errno — exactly the contract of a real
/// `EINTR`/`EAGAIN` from the kernel, and therefore not a lost
/// interposition. The engine's *internal* emulations
/// ([`fastpath::is_process_control`]: `rt_sigreturn`, signal-table and
/// task-management plumbing) are exempt — the kernel cannot fail those
/// with a transient errno, and pretending it can would corrupt signal
/// frames rather than model any real fault. So is a call made under the
/// re-entry guard (a handler's own, nested here): it is executed, as
/// the dispatcher executes one, without a notification.
///
/// The handler runs with the interrupted context's signal mask
/// (`SA_NODEFER`, empty `sa_mask`), so an `execve` hands the new image
/// the application's mask. What `sigreturn` discards is a change to the
/// mask: an emulated `rt_sigprocmask` edits the mask in force here,
/// which is then copied into `uc_sigmask` for `sigreturn` to install,
/// and put back.
unsafe fn emulate_in_handler(uc: &mut UContext) {
    let nr_ = uc.syscall_args().nr;
    if nr_ == syscalls::nr::RT_SIGRETURN {
        // As in the dispatcher: no notification, and the frame to
        // restore is the one at the application's `rsp`, not ours.
        fastpath::rt_sigreturn_at(uc.rsp());
    }
    let block = zpoline::thread_block();
    let guarded = block.in_dispatch();
    let injected = if guarded || fastpath::is_process_control(nr_) {
        None
    } else {
        faultinject::check(faultinject::Site::SlowpathEmulate)
    };
    let ret = if let Some(e) = injected {
        Errno::new(e).as_ret()
    } else {
        let args = uc.syscall_args();
        let mut frame = RawFrame {
            nr: args.nr,
            a1: args.args[0],
            a2: args.args[1],
            a3: args.args[2],
            a4: args.args[3],
            a5: args.args[4],
            a6: args.args[5],
            saved_rbx: 0,
            saved_rbp: 0,
            ret_addr: uc.rip(),
        };
        let interested = !guarded && interpose::global_interested(nr_);
        let was = block.set_in_dispatch(true);
        // No declaration to make: the signal return puts back all of the
        // floating-point state, whatever the handler did to it.
        let (ret, _) = fastpath::handle_syscall(&mut frame, interested);
        if nr_ == syscalls::nr::RT_SIGPROCMASK {
            let mut left = 0u64;
            raw_internal::rt_sigprocmask(raw_internal::SIG_SETMASK, uc.sigmask(), &mut left);
            uc.set_sigmask(left);
        }
        block.set_in_dispatch(was);
        ret
    };
    uc.set_rax(ret);
}

/// Delivers a non-SUD `SIGSYS` to the application handler recorded in
/// the signal table (the app may legitimately use seccomp + SIGSYS).
unsafe fn forward_foreign_sigsys(
    sig: libc::c_int,
    info: *mut libc::siginfo_t,
    ctx: *mut libc::c_void,
) {
    if let Some(act) = signals::app_action(sig) {
        match act.handler {
            signals::SIG_DFL | signals::SIG_IGN => {}
            h if act.flags & libc::SA_SIGINFO as u64 != 0 => {
                let f: extern "C" fn(libc::c_int, *mut libc::siginfo_t, *mut libc::c_void) =
                    std::mem::transmute(h as usize);
                f(sig, info, ctx);
            }
            h => {
                let f: extern "C" fn(libc::c_int) = std::mem::transmute(h as usize);
                f(sig);
            }
        }
    }
}
