//! Safe(ish) wrapper over Linux **Syscall User Dispatch** (SUD).
//!
//! SUD (paper §II-A, Fig. 1) is the kernel interface lazypoline uses as
//! its exhaustive slow path: when enabled on a task, every `syscall`
//! instruction executed while the userspace *selector byte* reads
//! [`Dispatch::Block`] raises `SIGSYS` instead of entering the kernel's
//! syscall table, unless the instruction lies in an allowlisted code
//! range.
//!
//! This crate provides:
//!
//! * [`Dispatch`] and per-thread selector storage with an address that
//!   is stable for the thread's lifetime ([`selector_ptr`]),
//! * [`enable_thread`] / [`disable_thread`] / [`SudGuard`] — the
//!   `prctl(PR_SET_SYSCALL_USER_DISPATCH, …)` plumbing,
//! * [`sigsys`] — decoding of the `SIGSYS` `siginfo_t`/`ucontext_t`
//!   delivered on an intercepted syscall.
//!
//! Following the paper's *selector-only* usage (§IV-A), no allowlisted
//! code range is installed by default: [`enable_thread`] passes
//! `offset = len = 0`, and interposer-originated syscalls are instead
//! exempted by flipping the selector to [`Dispatch::Allow`].
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

pub mod pkey;
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
/// Stable for the lifetime of the thread; this is the pointer handed to
/// the kernel via `prctl`, which reads it on *every* syscall entry from
/// this thread (the cost of that read is what Table II's
/// "baseline with SUD enabled" row measures).
///
/// In hardened mode ([`adopt_protected_selector`]) the address points
/// into the pkey-protected slab instead of plain TLS; callers that
/// cached the pre-adoption pointer must re-issue the SUD `prctl`.
pub fn selector_ptr() -> *mut u8 {
    let adopted = pkey::adopted_slot();
    if adopted.is_null() {
        SELECTOR.with(|c| c.as_ptr())
    } else {
        adopted
    }
}

/// Reads the calling thread's selector.
pub fn selector() -> Dispatch {
    Dispatch::from_byte(unsafe { selector_ptr().read_volatile() })
}

/// Moves the calling thread's selector byte onto the pkey-protected
/// slab (hardened mode), preserving its current value. From this point
/// [`selector_ptr`] returns the slab slot and [`set_selector`] brackets
/// each store with `WRPKRU` open/close switches. If the thread is
/// already SUD-enrolled the caller must re-issue [`enable_thread`] (or
/// the allowlist variant) so the kernel polls the new address.
///
/// # Errors
///
/// Propagates [`pkey::adopt_protected_selector`] failures (`ENOENT`
/// when no slab was initialised, `ENOSPC` when the slab is full).
pub fn adopt_protected_selector() -> io::Result<()> {
    let current = unsafe { selector_ptr().read_volatile() };
    pkey::adopt_protected_selector(current)?;
    Ok(())
}

/// Bounded attempts in [`set_selector`]'s write-verify loop before the
/// store is issued unconditionally.
const SELECTOR_WRITE_ATTEMPTS: u32 = 3;

/// Writes the calling thread's selector.
///
/// This is the single-byte store that makes SUD "flexibly controllable"
/// (paper §II-A): interposer code brackets its own syscalls with
/// `set_selector(Allow)` / `set_selector(Block)`.
///
/// The write is verified by reading the byte back, and retried if the
/// store was dropped (the `selector_write` fault seam models exactly
/// that). After [`SELECTOR_WRITE_ATTEMPTS`] injected drops the store is
/// issued unconditionally: the selector byte is the engine's lifeline —
/// a missing ALLOW store would make the `SIGSYS` handler's own syscalls
/// recurse fatally, and a missing BLOCK store would silently stop
/// interposition — so this seam degrades to *detected-and-repaired*,
/// never to a lost write.
pub fn set_selector(d: Dispatch) {
    let adopted = pkey::adopted_slot();
    let ptr = if adopted.is_null() {
        SELECTOR.with(|c| c.as_ptr())
    } else {
        adopted
    };
    for _ in 0..SELECTOR_WRITE_ATTEMPTS {
        if faultinject::check(faultinject::Site::SelectorWrite).is_none() {
            store_selector(ptr, adopted.is_null(), d);
        }
        // Write-verify: a dropped store leaves a stale byte behind.
        if unsafe { ptr.read_volatile() } == d.as_byte() {
            return;
        }
    }
    store_selector(ptr, adopted.is_null(), d);
}

/// One selector store: plain TLS write, or a `WRPKRU`-bracketed slab
/// write when the thread's selector lives on the protected slab.
fn store_selector(ptr: *mut u8, plain: bool, d: Dispatch) {
    if plain {
        unsafe { ptr.write_volatile(d.as_byte()) };
    } else {
        unsafe { pkey::protected_store(ptr, d.as_byte()) };
    }
}

/// Enables SUD on the calling thread with no allowlisted code range.
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
    enable_thread_with_allowlist(0, 0)
}

/// Enables SUD with an allowlisted code range `[offset, offset + len)`.
///
/// Syscall instructions inside the range never trigger dispatch,
/// regardless of the selector. The paper's design deliberately avoids
/// this (§IV-A: "we avoid excluding any code addresses from SUD
/// interception"), but the traditional deployment (§II-A) is exposed for
/// the SUD-baseline benchmarks and for tests.
///
/// # Errors
///
/// Returns the `prctl` error on failure.
pub fn enable_thread_with_allowlist(offset: u64, len: u64) -> io::Result<()> {
    // Fault seam: models the prctl failing (kernel without SUD, or a
    // seccomp filter rejecting it) without needing such a kernel.
    if let Some(e) = faultinject::check(faultinject::Site::SudEnroll) {
        return Err(io::Error::from_raw_os_error(e));
    }
    let r = unsafe {
        libc::prctl(
            PR_SET_SYSCALL_USER_DISPATCH,
            PR_SYS_DISPATCH_ON,
            offset as libc::c_ulong,
            len as libc::c_ulong,
            selector_ptr() as libc::c_ulong,
        )
    };
    if r == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// Disables SUD on the calling thread.
///
/// # Errors
///
/// Returns the `prctl` error on failure.
pub fn disable_thread() -> io::Result<()> {
    let r = unsafe {
        libc::prctl(
            PR_SET_SYSCALL_USER_DISPATCH,
            PR_SYS_DISPATCH_OFF,
            0,
            0,
            0,
        )
    };
    if r == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
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
