//! Safe(ish) wrapper over Linux **Syscall User Dispatch** (SUD).
//!
//! SUD (paper §II-A, Fig. 1) is the kernel interface lazypoline uses as
//! its exhaustive slow path: when enabled on a task, every `syscall`
//! instruction outside an allowlisted code range raises `SIGSYS`
//! instead of entering the kernel's syscall table — unconditionally, or
//! while a userspace *selector byte* reads [`Dispatch::Block`].
//!
//! This crate provides:
//!
//! * [`Dispatch`] and per-thread selector storage with an address that
//!   is stable for the thread's lifetime ([`selector_ptr`]),
//! * [`enable_thread`] / [`disable_thread`] / [`SudGuard`] — the
//!   `prctl(PR_SET_SYSCALL_USER_DISPATCH, …)` plumbing of selector-only
//!   SUD,
//! * [`sigsys`] — decoding of the `SIGSYS` `siginfo_t`/`ucontext_t`
//!   delivered on an intercepted syscall.
//!
//! [`enable_thread`] is the paper's *selector-only* usage (§IV-A): no
//! allowlisted code range (`offset = len = 0`), and interposer-originated
//! syscalls are exempted by flipping the selector to [`Dispatch::Allow`].
//! The `sud-raw`/`sud-allow` rows and the benchmarks arm SUD this way.
//! lazypoline does not use these functions: it names a code range and
//! no selector — the kernel lets the range's syscalls through and
//! dispatches every other one, with no byte anyone could flip — and
//! issues that `prctl` from the range itself, its syscall gate
//! (`lazypoline::engine::enable_sud`).
//!
//! # Example
//!
//! ```no_run
//! use lp_sud::{enable_thread, set_selector, Dispatch};
//!
//! // Install a SIGSYS handler first (see `sigsys`), then:
//! enable_thread()?;
//! set_selector(Dispatch::Block); // interpose everything from here on
//! // ... syscalls now raise SIGSYS ...
//! set_selector(Dispatch::Allow);
//! # Ok::<(), std::io::Error>(())
//! ```

#![deny(missing_docs)]

pub mod sigsys;

use std::cell::Cell;
use std::io;

/// `prctl` option to configure Syscall User Dispatch (Linux ≥ 5.11).
pub const PR_SET_SYSCALL_USER_DISPATCH: libc::c_int = 59;
/// Disables SUD for the calling thread.
pub const PR_SYS_DISPATCH_OFF: libc::c_ulong = 0;
/// Enables SUD for the calling thread.
pub const PR_SYS_DISPATCH_ON: libc::c_ulong = 1;

/// Selector byte value: let syscalls through to the kernel.
pub const SYSCALL_DISPATCH_FILTER_ALLOW: u8 = 0;
/// Selector byte value: raise `SIGSYS` instead of executing the syscall.
pub const SYSCALL_DISPATCH_FILTER_BLOCK: u8 = 1;

/// `si_code` value in a `SIGSYS` triggered by SUD.
pub const SYS_USER_DISPATCH: libc::c_int = 2;

/// The two legal states of the SUD selector byte.
///
/// Any other byte value makes the kernel terminate the task, so the
/// selector is only ever written through this enum.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Dispatch {
    /// Syscalls execute natively (selector byte 0).
    Allow,
    /// Syscalls raise `SIGSYS` (selector byte 1).
    Block,
}

impl Dispatch {
    /// The raw selector byte value.
    #[inline]
    pub fn as_byte(self) -> u8 {
        match self {
            Dispatch::Allow => SYSCALL_DISPATCH_FILTER_ALLOW,
            Dispatch::Block => SYSCALL_DISPATCH_FILTER_BLOCK,
        }
    }

    /// Decodes a raw selector byte.
    ///
    /// # Panics
    ///
    /// Panics on a byte that is neither ALLOW nor BLOCK — such a value
    /// in the live selector would have killed the process already.
    pub fn from_byte(b: u8) -> Dispatch {
        match b {
            SYSCALL_DISPATCH_FILTER_ALLOW => Dispatch::Allow,
            SYSCALL_DISPATCH_FILTER_BLOCK => Dispatch::Block,
            other => panic!("invalid SUD selector byte: {other}"),
        }
    }
}

thread_local! {
    // Per-thread selector byte. The paper stores this in a %gs-relative
    // region (§IV-B(a)); Rust TLS (%fs-relative on x86-64) provides the
    // same property: a per-task byte addressable without spilling
    // application registers. `const`-initialised TLS compiles to a plain
    // offset load with no lazy-init branch, keeping accesses
    // async-signal-safe (the SIGSYS handler reads and writes it).
    static SELECTOR: Cell<u8> = const { Cell::new(SYSCALL_DISPATCH_FILTER_ALLOW) };
}

/// Address of the calling thread's selector byte.
///
/// Stable for the lifetime of the thread; this is the pointer
/// [`enable_thread`] hands the kernel via `prctl`, which then reads it
/// on *every* syscall entry from this thread (the cost of that read is
/// what Table II's "baseline with SUD enabled" row measures).
pub fn selector_ptr() -> *mut u8 {
    SELECTOR.with(|c| c.as_ptr())
}

/// Reads the calling thread's selector.
pub fn selector() -> Dispatch {
    Dispatch::from_byte(unsafe { selector_ptr().read_volatile() })
}

/// Bounded attempts in [`set_selector`]'s write-verify loop before the
/// store is issued unconditionally.
const SELECTOR_WRITE_ATTEMPTS: u32 = 3;

/// Writes the calling thread's selector.
///
/// This is the single-byte store that makes selector-only SUD
/// "flexibly controllable" (paper §II-A). The paper's interposer
/// brackets its own syscalls with `set_selector(Allow)` /
/// `set_selector(Block)`, as the `sud-raw` row does. lazypoline arms SUD
/// without a selector and never writes one.
///
/// The write is verified by reading the byte back, and retried if the
/// store was dropped (the `selector_write` fault seam models exactly
/// that). After [`SELECTOR_WRITE_ATTEMPTS`] injected drops the store is
/// issued unconditionally: a missing BLOCK store would silently stop
/// interposition, and a missing ALLOW store would leave the interposer
/// trapping its own syscalls — so this seam degrades to
/// *detected-and-repaired*, never to a lost write.
pub fn set_selector(d: Dispatch) {
    let ptr = selector_ptr();
    for _ in 0..SELECTOR_WRITE_ATTEMPTS {
        if faultinject::check(faultinject::Site::SelectorWrite).is_none() {
            unsafe { ptr.write_volatile(d.as_byte()) };
        }
        // Write-verify: a dropped store leaves a stale byte behind.
        if unsafe { ptr.read_volatile() } == d.as_byte() {
            return;
        }
    }
    unsafe { ptr.write_volatile(d.as_byte()) };
}

/// Enables selector-only SUD on the calling thread: no allowlisted
/// code range, and the thread's selector byte ([`selector_ptr`]).
///
/// The selector starts at [`Dispatch::Allow`]; nothing is intercepted
/// until [`set_selector`]`(Block)` is called. SUD state is per-task and
/// cleared by the kernel on `fork`/`clone`/`execve`, so new tasks must
/// re-enroll (lazypoline does this in its clone/fork handling).
///
/// # Errors
///
/// Returns the `prctl` error, e.g. `ENOSYS`/`EINVAL` on kernels without
/// SUD support (callers are expected to degrade gracefully).
pub fn enable_thread() -> io::Result<()> {
    set_selector(Dispatch::Allow);
    prctl_dispatch(PR_SYS_DISPATCH_ON, selector_ptr() as u64)
}

/// `prctl(PR_SET_SYSCALL_USER_DISPATCH, mode, no range, selector)`
/// through `syscalls::raw`.
fn prctl_dispatch(mode: libc::c_ulong, selector: u64) -> io::Result<()> {
    // SAFETY: the kernel reads the selector byte at `selector`, which is
    // this thread's for its lifetime (`selector_ptr`), or 0 for none.
    let r = unsafe {
        syscalls::raw::syscall5(
            syscalls::nr::PRCTL,
            PR_SET_SYSCALL_USER_DISPATCH as u64,
            mode,
            0,
            0,
            selector,
        )
    };
    match syscalls::Errno::from_ret(r) {
        Some(e) => Err(io::Error::from_raw_os_error(e.as_i32())),
        None => Ok(()),
    }
}

/// Disables SUD on the calling thread.
///
/// # Errors
///
/// Returns the `prctl` error on failure.
pub fn disable_thread() -> io::Result<()> {
    prctl_dispatch(PR_SYS_DISPATCH_OFF, 0)
}

/// Reports whether this kernel supports SUD, by probing `prctl` without
/// leaving it enabled.
pub fn is_supported() -> bool {
    match enable_thread() {
        Ok(()) => {
            let _ = disable_thread();
            true
        }
        Err(_) => false,
    }
}

/// RAII guard: enables SUD on construction, disables it (and resets the
/// selector to ALLOW) on drop.
///
/// ```no_run
/// let _sud = lp_sud::SudGuard::enable()?;
/// // SUD active for this scope
/// # Ok::<(), std::io::Error>(())
/// ```
#[derive(Debug)]
pub struct SudGuard(());

impl SudGuard {
    /// Enables SUD on the calling thread for the guard's lifetime.
    ///
    /// # Errors
    ///
    /// Propagates the `prctl` error from [`enable_thread`].
    pub fn enable() -> io::Result<SudGuard> {
        enable_thread()?;
        Ok(SudGuard(()))
    }
}

impl Drop for SudGuard {
    fn drop(&mut self) {
        set_selector(Dispatch::Allow);
        let _ = disable_thread();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selector_roundtrip() {
        set_selector(Dispatch::Allow);
        assert_eq!(selector(), Dispatch::Allow);
        // Write through the raw pointer like the kernel reads it.
        unsafe { *selector_ptr() = SYSCALL_DISPATCH_FILTER_BLOCK };
        assert_eq!(selector(), Dispatch::Block);
        set_selector(Dispatch::Allow);
    }

    #[test]
    fn selector_ptr_is_stable() {
        let a = selector_ptr();
        let b = selector_ptr();
        assert_eq!(a, b);
    }

    #[test]
    fn selector_ptr_is_per_thread() {
        let main_ptr = selector_ptr() as usize;
        let other = std::thread::spawn(move || selector_ptr() as usize)
            .join()
            .unwrap();
        assert_ne!(main_ptr, other);
    }

    #[test]
    fn dispatch_byte_roundtrip() {
        assert_eq!(Dispatch::from_byte(Dispatch::Allow.as_byte()), Dispatch::Allow);
        assert_eq!(Dispatch::from_byte(Dispatch::Block.as_byte()), Dispatch::Block);
    }

    #[test]
    #[should_panic(expected = "invalid SUD selector")]
    fn dispatch_rejects_garbage() {
        let _ = Dispatch::from_byte(7);
    }

    #[test]
    fn enable_disable_cycle() {
        // With the selector at ALLOW, enabling SUD is observable only
        // through the prctl result; syscalls keep working.
        if enable_thread().is_err() {
            eprintln!("kernel lacks SUD; skipping");
            return;
        }
        let pid = unsafe { libc::getpid() };
        assert!(pid > 0);
        disable_thread().unwrap();
    }

    #[test]
    fn guard_disables_on_drop() {
        if !is_supported() {
            eprintln!("kernel lacks SUD; skipping");
            return;
        }
        {
            let _g = SudGuard::enable().unwrap();
        }
        // After drop, enabling again must succeed (no stale state).
        let g = SudGuard::enable().unwrap();
        drop(g);
    }
}
