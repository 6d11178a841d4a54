//! MPK-protected selector storage for hardened interposition.
//!
//! Plain lazypoline keeps the SUD selector byte in ordinary writable
//! TLS, which is exactly the hole the sandbox scenario fails open
//! through: compromised *application* code can flip the byte to ALLOW
//! and every subsequent syscall bypasses interposition. Following
//! "Making 'syscall' a Privilege not a Right" (PAPERS.md), hardened
//! mode moves the selector bytes of all threads onto a dedicated slab
//! of pages guarded by an `pkey_alloc(2)`'d Intel MPK protection key:
//!
//! * the slab is mapped `PROT_READ | PROT_WRITE` and then associated
//!   with the key via `pkey_mprotect(2)`, with the thread-local PKRU
//!   register holding the key's **write-disable** bit set in steady
//!   state — reads stay permitted everywhere (the kernel reads the
//!   selector byte on every syscall entry, and x86 honours PKRU for
//!   those uaccess reads too, so access-disable would break SUD
//!   itself);
//! * legitimate selector writes are bracketed by [`open_slab`] /
//!   [`close_slab`] — a `WRPKRU` pair costing ~20 cycles each, no
//!   syscall — so only the interposer's entry/exit boundary can flip
//!   the byte;
//! * application code that executes `WRPKRU` itself can still open the
//!   slab (MPK is not a security boundary against arbitrary code
//!   execution); the seccomp backstop in `lazypoline::harden` exists
//!   for exactly that residue, turning any syscall issued past a
//!   flipped selector into a trap.
//!
//! Each thread owns one cache-line-sized slot in the slab (the kernel
//! polls the selector on every syscall entry, so false sharing between
//! threads' selectors would be a real cost). Slots are handed out by a
//! bump allocator and never recycled: a detached thread's slot stays
//! reserved, bounding the design at [`SLAB_SLOTS`] threads per process
//! lifetime — far above anything the engine supports elsewhere.
//!
//! Hosts without MPK (no `pku` CPUID bit, or all 15 user keys taken)
//! make `pkey_alloc` fail; [`init_protected_slab`] surfaces that and
//! the hardened installer degrades. The `pkey_alloc` fault-injection
//! seam forces the same path deterministically. A software-shadowed
//! slab ([`force_software_slab_for_testing`]) runs the identical
//! adoption and PKRU-discipline code paths with a shadow register so
//! the machinery is testable on MPK-less CI hosts.

use std::cell::Cell;
use std::io;
use std::sync::atomic::{AtomicI32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use syscalls::nr;
use syscalls::raw;

/// `pkey_alloc` access right: deny all access through this key.
pub const PKEY_DISABLE_ACCESS: u32 = 1;
/// `pkey_alloc` access right: deny writes through this key.
pub const PKEY_DISABLE_WRITE: u32 = 2;

/// Pages in the selector slab.
const SLAB_PAGES: usize = 16;
const PAGE_SIZE: usize = 4096;
/// Bytes per thread slot: one cache line, so the kernel's per-syscall
/// selector polls never false-share between threads.
pub const SLOT_STRIDE: usize = 64;
/// Maximum threads the slab can ever hold (slots are not recycled).
pub const SLAB_SLOTS: usize = SLAB_PAGES * PAGE_SIZE / SLOT_STRIDE;

/// Bounded attempts in the `WRPKRU` write-verify loop before the
/// switch is issued unconditionally (mirrors `set_selector`'s
/// selector-write discipline one privilege level up).
const PKRU_SWITCH_ATTEMPTS: u32 = 3;

// Slab identity. Hot-path reads (every selector write) touch only
// these atomics; `INIT_LOCK` serialises initialisation alone and is
// never taken from signal context.
static SLAB_BASE: AtomicUsize = AtomicUsize::new(0);
/// The slab's protection key; -1 while uninitialised, or when running
/// in software-shadow mode (no hardware key backing the slab).
static SLAB_PKEY: AtomicI32 = AtomicI32::new(-1);
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);
static INIT_LOCK: Mutex<()> = Mutex::new(());

/// Cumulative `WRPKRU` (or shadow) permission switches executed.
/// Surfaced through engine stats so the hardened table2 row can relate
/// its overhead to the number of boundary crossings.
static PKRU_SWITCHES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // This thread's adopted slot (null until adoption).
    static SLOT: Cell<*mut u8> = const { Cell::new(std::ptr::null_mut()) };
    // Shadow PKRU for slabs without a hardware key. Only this thread's
    // view of the slab key's two bits is modelled; hardware-mode
    // switches read the real register instead.
    static SHADOW_PKRU: Cell<u32> = const { Cell::new(0) };
}

fn errno_from_ret(ret: u64) -> Option<i32> {
    let v = ret as i64;
    if (-4095..0).contains(&v) {
        Some(-v as i32)
    } else {
        None
    }
}

/// Reads the PKRU register. Caller must know the CPU has MPK (a
/// successful `pkey_alloc` implies it — the kernel refuses the syscall
/// otherwise).
#[inline]
fn rdpkru_hw() -> u32 {
    let eax: u32;
    unsafe {
        core::arch::asm!(
            "rdpkru",
            out("eax") eax,
            in("ecx") 0u32,
            out("edx") _,
            options(nomem, nostack, preserves_flags),
        );
    }
    eax
}

/// Writes the PKRU register. Same MPK-presence contract as
/// [`rdpkru_hw`].
#[inline]
fn wrpkru_hw(val: u32) {
    unsafe {
        core::arch::asm!(
            "wrpkru",
            in("eax") val,
            in("ecx") 0u32,
            in("edx") 0u32,
            options(nomem, nostack, preserves_flags),
        );
    }
}

#[inline]
fn read_pkru(pkey: i32) -> u32 {
    if pkey >= 0 {
        rdpkru_hw()
    } else {
        SHADOW_PKRU.with(Cell::get)
    }
}

#[inline]
fn write_pkru(pkey: i32, val: u32) {
    if pkey >= 0 {
        wrpkru_hw(val);
    }
    SHADOW_PKRU.with(|c| c.set(val));
}

/// The slab key's write-disable bit in PKRU (bit `2k+1`). In
/// software-shadow mode the key is modelled as key 15 so the bit
/// layout stays realistic.
fn wd_bit(pkey: i32) -> u32 {
    let k = if pkey >= 0 { pkey as u32 } else { 15 };
    1 << (2 * k + 1)
}

/// Whether a slab exists (hardware-protected or software-shadowed).
pub fn slab_ready() -> bool {
    SLAB_BASE.load(Ordering::Acquire) != 0
}

/// Whether the slab is backed by a real hardware protection key.
pub fn slab_hardware_protected() -> bool {
    slab_ready() && SLAB_PKEY.load(Ordering::Relaxed) >= 0
}

/// Cumulative PKRU permission switches (open + close each count one).
pub fn pkru_switch_count() -> u64 {
    PKRU_SWITCHES.load(Ordering::Relaxed)
}

/// Probes for MPK support by allocating and immediately freeing a key.
/// Does not consult the fault seam: this is capability discovery, not
/// the load-bearing allocation.
pub fn pkeys_supported() -> bool {
    let ret = unsafe { raw::syscall2(nr::PKEY_ALLOC, 0, 0) };
    if errno_from_ret(ret).is_some() {
        return false;
    }
    unsafe { raw::syscall1(nr::PKEY_FREE, ret) };
    true
}

/// Allocates the protected selector slab: `pkey_alloc`, anonymous
/// mapping, `pkey_mprotect`, and an initial [`close_slab`] so the
/// calling thread starts in the steady (write-disabled) state.
///
/// Idempotent: a second call on an initialised slab is a no-op
/// returning `Ok`. A failed call leaves no slab behind, and a later
/// call may retry (the `pkey_alloc` fault seam relies on this).
///
/// # Errors
///
/// The `pkey_alloc` / `pkey_mprotect` / `mmap` errno — `EINVAL` on
/// hosts without MPK, `ENOSPC` when all user keys are taken (also the
/// `pkey_alloc` seam's default injection). Callers degrade to the
/// seccomp backstop alone.
pub fn init_protected_slab() -> io::Result<()> {
    let _g = INIT_LOCK.lock().unwrap();
    if SLAB_BASE.load(Ordering::Acquire) != 0 {
        return Ok(());
    }
    if let Some(e) = faultinject::check(faultinject::Site::PkeyAlloc) {
        return Err(io::Error::from_raw_os_error(e));
    }
    let key_ret = unsafe { raw::syscall2(nr::PKEY_ALLOC, 0, 0) };
    if let Some(e) = errno_from_ret(key_ret) {
        return Err(io::Error::from_raw_os_error(e));
    }
    let pkey = key_ret as i32;
    match map_slab(pkey) {
        Ok(base) => {
            SLAB_PKEY.store(pkey, Ordering::Relaxed);
            SLAB_BASE.store(base, Ordering::Release);
            close_slab();
            Ok(())
        }
        Err(e) => {
            unsafe { raw::syscall1(nr::PKEY_FREE, pkey as u64) };
            Err(e)
        }
    }
}

fn map_slab(pkey: i32) -> io::Result<usize> {
    let len = SLAB_PAGES * PAGE_SIZE;
    let base = unsafe {
        libc::mmap(
            std::ptr::null_mut(),
            len,
            libc::PROT_READ | libc::PROT_WRITE,
            libc::MAP_PRIVATE | libc::MAP_ANONYMOUS,
            -1,
            0,
        )
    };
    if base == libc::MAP_FAILED {
        return Err(io::Error::last_os_error());
    }
    let ret = unsafe {
        raw::syscall4(
            nr::PKEY_MPROTECT,
            base as u64,
            len as u64,
            (libc::PROT_READ | libc::PROT_WRITE) as u64,
            pkey as u64,
        )
    };
    if let Some(e) = errno_from_ret(ret) {
        unsafe { libc::munmap(base, len) };
        return Err(io::Error::from_raw_os_error(e));
    }
    Ok(base as usize)
}

/// Creates the slab **without** a hardware key, PKRU discipline running
/// against the thread-local shadow register instead. Same adoption,
/// open/close, and fault-seam code paths as the hardware slab; no
/// actual write protection. For tests on MPK-less hosts only.
#[doc(hidden)]
pub fn force_software_slab_for_testing() {
    let _g = INIT_LOCK.lock().unwrap();
    if SLAB_BASE.load(Ordering::Acquire) != 0 {
        return;
    }
    let len = SLAB_PAGES * PAGE_SIZE;
    let base = unsafe {
        libc::mmap(
            std::ptr::null_mut(),
            len,
            libc::PROT_READ | libc::PROT_WRITE,
            libc::MAP_PRIVATE | libc::MAP_ANONYMOUS,
            -1,
            0,
        )
    };
    assert!(base != libc::MAP_FAILED, "mmap for software slab failed");
    SLAB_PKEY.store(-1, Ordering::Relaxed);
    SLAB_BASE.store(base as usize, Ordering::Release);
    close_slab();
}

/// Sets the slab key's write-disable bit to `open ? clear : set`,
/// preserving every other key's PKRU bits. Write-verified: a dropped
/// `WRPKRU` (the `pkru_switch` fault seam) is detected by reading the
/// register back and retried, then issued unconditionally — the same
/// detected-and-repaired discipline as `set_selector`, because a
/// missing *close* would leave the selector writable to the app and a
/// missing *open* would make the next legitimate selector write fault.
fn set_slab_write(open: bool) {
    let pkey = SLAB_PKEY.load(Ordering::Relaxed);
    let wd = wd_bit(pkey);
    let target = if open {
        read_pkru(pkey) & !wd
    } else {
        read_pkru(pkey) | wd
    };
    for _ in 0..PKRU_SWITCH_ATTEMPTS {
        if faultinject::check(faultinject::Site::PkruSwitch).is_none() {
            write_pkru(pkey, target);
        }
        if read_pkru(pkey) & wd == target & wd {
            PKRU_SWITCHES.fetch_add(1, Ordering::Relaxed);
            return;
        }
    }
    write_pkru(pkey, target);
    PKRU_SWITCHES.fetch_add(1, Ordering::Relaxed);
}

/// Write-enables the slab for the calling thread (interposer boundary
/// entry). ~20-cycle `WRPKRU`, no syscall; async-signal-safe.
#[inline]
pub fn open_slab() {
    set_slab_write(true);
}

/// Write-disables the slab for the calling thread (interposer boundary
/// exit — the steady state). Async-signal-safe.
#[inline]
pub fn close_slab() {
    set_slab_write(false);
}

/// Stores one byte into the slab under an open/close bracket.
/// Async-signal-safe: no locks, no allocation, no syscalls.
///
/// # Safety
///
/// `ptr` must point into the slab (a slot returned by adoption).
pub unsafe fn protected_store(ptr: *mut u8, byte: u8) {
    open_slab();
    ptr.write_volatile(byte);
    close_slab();
}

/// This thread's adopted slab slot, or null.
#[inline]
pub fn adopted_slot() -> *mut u8 {
    SLOT.with(Cell::get)
}

/// Moves the calling thread's selector into a fresh slab slot and
/// returns the slot address. The current selector value is copied
/// over, so adoption is transparent to dispatch state; the caller must
/// re-issue the SUD `prctl` if the thread is already enrolled (the
/// kernel keeps reading the old address otherwise).
///
/// Idempotent per thread.
///
/// # Errors
///
/// * `ENOENT` — no slab (hardened mode not armed / degraded).
/// * `ENOSPC` — all [`SLAB_SLOTS`] slots taken.
pub fn adopt_protected_selector(current: u8) -> io::Result<*mut u8> {
    let existing = SLOT.with(Cell::get);
    if !existing.is_null() {
        return Ok(existing);
    }
    let base = SLAB_BASE.load(Ordering::Acquire);
    if base == 0 {
        return Err(io::Error::from_raw_os_error(2)); // ENOENT
    }
    let idx = NEXT_SLOT.fetch_add(1, Ordering::Relaxed);
    if idx >= SLAB_SLOTS {
        return Err(io::Error::from_raw_os_error(28)); // ENOSPC
    }
    let ptr = (base + idx * SLOT_STRIDE) as *mut u8;
    unsafe { protected_store(ptr, current) };
    SLOT.with(|c| c.set(ptr));
    Ok(ptr)
}

/// Re-asserts the steady protection state after `fork`/`clone`.
///
/// The slab mapping and its pkey association survive both (VMA
/// attributes), and PKRU is inherited per-thread — but the inherited
/// value is whatever the parent held at clone time, which during
/// engine-internal clone handling may be mid-bracket. One
/// unconditional close makes the child's state deterministic before
/// its first dispatch.
pub fn rearm_after_clone() {
    if slab_ready() {
        close_slab();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // All tests share the process-global slab; the software fallback
    // keeps them runnable on MPK-less CI hosts.

    #[test]
    fn probe_does_not_wedge() {
        // Whatever the host answers, asking twice must agree.
        assert_eq!(pkeys_supported(), pkeys_supported());
    }

    #[test]
    fn software_slab_adoption_and_discipline() {
        force_software_slab_for_testing();
        assert!(slab_ready());
        let p = adopt_protected_selector(1).unwrap();
        assert_eq!(unsafe { p.read_volatile() }, 1);
        // Idempotent, and the slot is stable.
        assert_eq!(adopt_protected_selector(0).unwrap(), p);
        assert_eq!(unsafe { p.read_volatile() }, 1);
        let before = pkru_switch_count();
        unsafe { protected_store(p, 0) };
        assert_eq!(unsafe { p.read_volatile() }, 0);
        assert_eq!(pkru_switch_count(), before + 2); // open + close
        // Steady state is closed (shadow write-disable bit set).
        assert_ne!(SHADOW_PKRU.with(Cell::get) & wd_bit(-1), 0);
    }

    #[test]
    fn slots_are_per_thread_and_cache_line_spaced() {
        force_software_slab_for_testing();
        let a = adopt_protected_selector(0).unwrap() as usize;
        let b = std::thread::spawn(|| adopt_protected_selector(0).unwrap() as usize)
            .join()
            .unwrap();
        assert_ne!(a, b);
        assert_eq!(a.abs_diff(b) % SLOT_STRIDE, 0);
    }

    #[test]
    fn dropped_pkru_switch_is_repaired() {
        force_software_slab_for_testing();
        let p = adopt_protected_selector(0).unwrap();
        faultinject::arm(
            faultinject::Site::PkruSwitch,
            faultinject::Schedule::Nth(1),
            None,
        );
        // The first WRPKRU (the open) is dropped; the verify loop
        // retries and the store still lands.
        unsafe { protected_store(p, 1) };
        assert_eq!(unsafe { p.read_volatile() }, 1);
        faultinject::disarm(faultinject::Site::PkruSwitch);
        unsafe { protected_store(p, 0) };
    }

    #[test]
    fn rearm_closes_the_slab() {
        force_software_slab_for_testing();
        open_slab();
        rearm_after_clone();
        assert_ne!(SHADOW_PKRU.with(Cell::get) & wd_bit(-1), 0);
    }
}
