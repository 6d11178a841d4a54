//! Engine assembly: wires the trampoline, dispatcher, SIGSYS handler,
//! signal adoption, and per-thread enrollment together — with a
//! degradation ladder instead of all-or-nothing initialization.
//!
//! # Degradation ladder
//!
//! The paper's central claim is interposition *without compromise*; a
//! production engine must additionally not make the *process* pay for
//! the engine's own misfortune. [`init`] therefore degrades instead of
//! failing when one of its two mechanisms is unavailable:
//!
//! | trampoline | SUD | resulting [`Mode`] |
//! |---|---|---|
//! | ok | ok | [`Mode::Hybrid`] — the full design |
//! | failed | ok | [`Mode::SudOnly`] — every syscall emulated in the `SIGSYS` handler; exhaustiveness preserved, speed sacrificed |
//! | ok | failed | [`Mode::PrescanOnly`] — statically rewritten regions dispatch; exhaustiveness sacrificed (no discovery of new sites) |
//! | failed | failed | clean [`InitError`]; the process runs un-interposed |
//!
//! The active mode and the robustness counters are observable via
//! [`health`].

use std::fmt;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};

use interpose::StatsSnapshot;
use syscalls::{nr, SyscallArgs};
use zpoline::{Trampoline, XstateMask};

use crate::faultinject::Site;
use crate::{counters, fastpath, raw_internal, signals, slowpath};

/// Configuration for [`init`].
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Which extended-state components the fast path preserves around
    /// the handler (paper §IV-B(b); Table II benchmarks both
    /// `Avx` — full preservation, the default — and `None`).
    pub xstate: XstateMask,
    /// Enable the lazy rewriting fast path (default). Disabling turns
    /// the engine into a pure SUD interposer: every intercepted
    /// syscall takes the SIGSYS slow path and is emulated in the
    /// handler — the "SUD" baseline of Table II and Figure 5, and the
    /// ablation isolating the paper's core contribution.
    pub lazy_rewriting: bool,
    /// On a slow-path trip, rewrite *all* verifiable `syscall` sites on
    /// the faulting executable page under a single spinlock/`mprotect`
    /// window, not just the faulting site (default on). Amortizes the
    /// per-site rewrite cost and converts neighbouring sites' future
    /// `SIGSYS` deliveries into fast-path entries. Turn off to ablate
    /// batching: `SLOW_PATH_HITS` then rises to one per site while
    /// `SITES_PATCHED` stays the same.
    pub batch_rewriting: bool,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            xstate: XstateMask::Avx,
            lazy_rewriting: true,
            batch_rewriting: true,
        }
    }
}

/// Why [`init`] failed outright (every rung of the degradation ladder
/// exhausted, or a per-thread step failed). The process is left
/// un-interposed but otherwise intact when any of these is returned.
#[derive(Debug)]
pub enum InitError {
    /// Page zero could not be mapped (usually `vm.mmap_min_addr > 0`)
    /// and [`init_strict`] was asked to rewrite: under [`init`] a
    /// trampoline failure alone degrades to [`Mode::SudOnly`].
    Trampoline(io::Error),
    /// `prctl(PR_SET_SYSCALL_USER_DISPATCH)` failed (kernel < 5.11 or
    /// seccomp-filtered) on a later thread's enrollment, or the host
    /// refused it under [`init_strict`].
    Sud(io::Error),
    /// Installing the `SIGSYS` disposition failed.
    Sigaction(io::Error),
    /// Both mechanisms failed: no rung of the ladder is available.
    Unavailable {
        /// The trampoline install failure.
        trampoline: io::Error,
        /// The SUD setup/enrollment failure.
        sud: io::Error,
    },
}

impl fmt::Display for InitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InitError::Trampoline(e) => write!(f, "trampoline install failed: {e}"),
            InitError::Sud(e) => write!(f, "syscall user dispatch unavailable: {e}"),
            InitError::Sigaction(e) => write!(f, "SIGSYS handler install failed: {e}"),
            InitError::Unavailable { trampoline, sud } => write!(
                f,
                "no interposition mechanism available (trampoline: {trampoline}; SUD: {sud})"
            ),
        }
    }
}

impl std::error::Error for InitError {}

/// Which rung of the degradation ladder the engine runs on (see the
/// module docs). Decided once, at first [`init`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Mode {
    /// [`init`] has not completed yet.
    Uninitialized,
    /// Trampoline + SUD: lazy rewriting with an exhaustive slow path —
    /// the paper's design.
    Hybrid,
    /// SUD only: the trampoline is unavailable, so nothing is ever
    /// rewritten; every intercepted syscall is emulated in the `SIGSYS`
    /// handler. Exhaustive but slow (Table II's "SUD" row).
    SudOnly,
    /// Trampoline only: SUD is unavailable, so new sites are never
    /// discovered; regions rewritten by the static prescan dispatch
    /// through the trampoline. Fast but not exhaustive.
    PrescanOnly,
}

/// The engine's own event counters since process start, in the one
/// counter struct: the other layers' counters stay 0 (their owners
/// report them; `mechanism` reads each once). Also available without a
/// handle — e.g. from benchmark reporting code.
pub fn stats() -> StatsSnapshot {
    let read = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
    StatsSnapshot {
        slow_path_hits: slow_path_hits(),
        sites_patched: read(&slowpath::SITES_PATCHED),
        sites_from_cache: read(&crate::proven::SITES_FROM_CACHE),
        dispatches: counters::dispatches(),
        unpatchable_emulations: read(&slowpath::UNPATCHABLE_EMULATIONS),
        disabled_mode_emulations: read(&slowpath::DISABLED_MODE_EMULATIONS),
        signals_wrapped: read(&signals::SIGNALS_WRAPPED),
        patch_retries: read(&slowpath::PATCH_RETRIES),
        pages_blocklisted: read(&slowpath::PAGES_BLOCKLISTED),
        bypass_blocked: crate::harden::bypass_blocked(),
        ..StatsSnapshot::default()
    }
}

/// `stats().dispatches` by syscall number: entry `nr` counts the
/// dispatches of number `nr` since process start — the calls a handler
/// could see, whether they left from the entry stub, the dispatcher or
/// the `SIGSYS` handler's emulation. Numbers ≥ 512 appear in
/// `stats().dispatches` alone. Reads only the counter rows of threads
/// that have counted.
pub fn dispatches_by_number() -> [u64; syscalls::MAX_SYSCALL_NR as usize] {
    counters::dispatch_table()
}

/// `stats().slow_path_hits` alone.
pub fn slow_path_hits() -> u64 {
    slowpath::SLOW_PATH_HITS.load(Ordering::Relaxed)
}

/// Robustness snapshot: what [`stats`] does not carry — the active
/// degradation-ladder rung, the hardening rung and the faults injected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Health {
    /// The rung of the degradation ladder the engine runs on.
    pub mode: Mode,
    /// Faults injected by the `faultinject` seams (0 in production).
    pub faults_injected: u64,
    /// The hardening rung achieved ([`crate::harden::level`];
    /// `HardenLevel::Off` unless hardened install was attempted).
    pub harden: crate::harden::HardenLevel,
}

static INITIALIZED: AtomicBool = AtomicBool::new(false);

/// The established [`Mode`], encoded as a u8 (0 = uninitialized).
static MODE: AtomicU8 = AtomicU8::new(0);

fn store_mode(m: Mode) {
    let v = match m {
        Mode::Uninitialized => 0,
        Mode::Hybrid => 1,
        Mode::SudOnly => 2,
        Mode::PrescanOnly => 3,
    };
    MODE.store(v, Ordering::SeqCst);
}

/// The engine's active degradation-ladder rung
/// ([`Mode::Uninitialized`] before the first successful [`init`]).
pub fn mode() -> Mode {
    match MODE.load(Ordering::SeqCst) {
        1 => Mode::Hybrid,
        2 => Mode::SudOnly,
        3 => Mode::PrescanOnly,
        _ => Mode::Uninitialized,
    }
}

/// Handle to the initialized engine.
///
/// Engine state is process-global and permanent (rewritten sites
/// cannot be un-rewritten); the handle governs only the calling
/// thread's enrollment. Dropping it un-enrolls the current thread.
#[derive(Debug)]
pub struct Engine {
    _private: (),
}

/// Initializes hybrid interposition and enrolls the calling thread.
///
/// Idempotent for the process-global parts; a second call on another
/// thread simply enrolls that thread (except in [`Mode::PrescanOnly`],
/// where there is nothing to enroll in).
///
/// Initialization *degrades* rather than fails when one mechanism is
/// unavailable — see the module docs for the ladder. Check [`health`]
/// for the resulting [`Mode`].
///
/// # Errors
///
/// See [`InitError`]; returned only when no ladder rung is available
/// (or a later thread's enrollment fails). On error nothing
/// irreversible has happened — specifically, SUD is not left enabled.
///
/// # Examples
///
/// ```no_run
/// let engine = lazypoline::init(lazypoline::Config::default())?;
/// assert!(engine.is_enrolled());
/// # Ok::<(), lazypoline::InitError>(())
/// ```
pub fn init(config: Config) -> Result<Engine, InitError> {
    init_with(config, false)
}

/// [`init`] for a caller that named what it wants: a rung the *host*
/// cannot provide is an error, not a degradation — SUD always, and the
/// trampoline when `config.lazy_rewriting` is set. A rung a fault seam
/// failed still degrades, so the ladder stays testable. The mechanism
/// layer's rows install this way: `lazypoline` does not come up as
/// [`Mode::SudOnly`] where `vm.mmap_min_addr > 0`, nor `sud` as static
/// libc rewriting on a kernel without SUD. It asks no more of the host
/// than [`init`] does: the failed attempt is the answer.
///
/// # Errors
///
/// As [`init`], plus [`InitError::Trampoline`] or [`InitError::Sud`]
/// for the rung the host lacks. SUD is not left enabled and nothing is
/// rewritten.
pub fn init_strict(config: Config) -> Result<Engine, InitError> {
    init_with(config, true)
}

fn init_with(config: Config, strict: bool) -> Result<Engine, InitError> {
    crate::slowpath::BATCH_REWRITING.store(config.batch_rewriting, Ordering::SeqCst);

    if !INITIALIZED.load(Ordering::SeqCst) {
        return init_process_global(config, strict);
    }

    // Re-initialization (another thread, or a redundant call): adjust
    // per-call knobs, but never contradict the established mode.
    zpoline::set_xstate_mask(config.xstate);
    if mode() != Mode::SudOnly {
        crate::slowpath::LAZY_REWRITING.store(config.lazy_rewriting, Ordering::SeqCst);
    }
    let engine = Engine { _private: () };
    if mode() == Mode::PrescanOnly {
        // No SIGSYS machinery: enrolling would raise SIGSYS with the
        // default (fatal) disposition. Threads stay un-enrolled.
        return Ok(engine);
    }
    engine.enroll_current_thread().map_err(InitError::Sud)?;
    reset_shadow();
    Ok(engine)
}

/// Starts the shadow of the executable mappings afresh at an install
/// ([`zpoline::maps::shadow::reset`]). It vouches only on the
/// [`Mode::Hybrid`] rung — the only one that patches after the install —
/// and only if the installing thread is the process's only one: every
/// later thread then comes from a `clone` the dispatcher sees.
fn reset_shadow() {
    zpoline::maps::shadow::reset(mode() == Mode::Hybrid && thread_count() == Some(1));
}

/// The process's thread count: procfs gives `/proc/self/task` one link
/// per thread on top of its own two. One `newfstatat` from the gate;
/// `None` when it fails.
fn thread_count() -> Option<u64> {
    const AT_FDCWD: u64 = -100i64 as u64;
    let path = b"/proc/self/task\0";
    // `struct stat` is 144 bytes on x86-64, `st_nlink` its third word.
    let mut stat = [0u64; 18];
    // SAFETY: newfstatat(2) of a NUL-terminated path into a buffer of
    // the kernel's `struct stat` size.
    let r = unsafe {
        raw_internal::syscall(&SyscallArgs::new(
            nr::NEWFSTATAT,
            [
                AT_FDCWD,
                path.as_ptr() as u64,
                stat.as_mut_ptr() as u64,
                0,
                0,
                0,
            ],
        ))
    };
    (r == 0).then(|| stat[2].saturating_sub(2))
}

/// First-call path: establish the process-global machinery and decide
/// the degradation-ladder rung. `strict`: see [`init_strict`].
fn init_process_global(config: Config, strict: bool) -> Result<Engine, InitError> {
    crate::slowpath::LAZY_REWRITING.store(config.lazy_rewriting, Ordering::SeqCst);
    zpoline::set_xstate_mask(config.xstate);
    // A failure the host made, not a seam: the seam counted nothing.
    let by_host = |site: Site, before: u64| faultinject::injected(site) == before;

    // Rung 1: the trampoline. Failure is survivable (→ SudOnly).
    let seam = faultinject::injected(Site::TrampolineInstall);
    let tramp_err = match Trampoline::install() {
        Ok(_) => {
            // The stub's record exit is interpose's wanted, recorded-only byte.
            const _: () = assert!(
                zpoline::RECORD_EXIT == interpose::exit::WANTED | interpose::exit::RECORDED_ONLY
            );
            interpose::set_routed(&fastpath::ROUTED);
            zpoline::set_dispatcher(fastpath::lazypoline_dispatch);
            zpoline::set_exits(Some(&interpose::EXITS));
            None
        }
        Err(e) if strict && config.lazy_rewriting && by_host(Site::TrampolineInstall, seam) => {
            return Err(InitError::Trampoline(e));
        }
        Err(e) => Some(e),
    };

    // Rung 2: SUD — handler disposition plus this thread's enrollment.
    // Failure is survivable when the trampoline stands (→ PrescanOnly).
    // Handlers registered before initialization go through the wrapper
    // protocol too (§IV-B(c)).
    // SAFETY: each wrapped handler's table slot is stored before the
    // kernel registration that points at the wrapper, which reads it.
    unsafe { signals::adopt_existing_handlers() };
    let mut sud_err = slowpath::install().err();
    let engine = Engine { _private: () };
    let seam = faultinject::injected(Site::SudEnroll);
    if sud_err.is_none() {
        if let Err(e) = engine.enroll_current_thread() {
            sud_err = Some(e);
        }
    }
    if strict && by_host(Site::SudEnroll, seam) {
        if let Some(e) = sud_err.take() {
            // Nothing decided yet: the prescan has not rewritten libc.
            return Err(InitError::Sud(e));
        }
    }

    let decided = match (tramp_err, sud_err) {
        (None, None) => Mode::Hybrid,
        (Some(_), None) => Mode::SudOnly,
        (None, Some(_)) => Mode::PrescanOnly,
        (Some(trampoline), Some(sud)) => {
            return Err(InitError::Unavailable { trampoline, sud });
        }
    };

    match decided {
        Mode::SudOnly => {
            // No trampoline: a patched site would `call` into unmapped
            // page zero. Force pure-SUD emulation whatever the config
            // asked for.
            crate::slowpath::LAZY_REWRITING.store(false, Ordering::SeqCst);
        }
        Mode::PrescanOnly => {
            // The prescan is the only way any syscall gets interposed on
            // this rung. SUD failed, so this thread is not enrolled and
            // the scan's own syscalls cannot reach the slow path.
            debug_assert!(!zpoline::thread_block().enrolled());
            // libc only: it carries the syscall sites of every
            // dynamically-linked binary, and its instruction stream is
            // the one the zpoline lineage has long rewritten statically.
            // Raw syscalls in other objects stay uninterposed — the
            // documented exhaustiveness sacrifice of this rung. Errors
            // are non-fatal: a partial rewrite still interposes what it
            // reached.
            // SAFETY: this rung has the trampoline, with the dispatcher,
            // which handles every syscall, registered; the sweep is kept
            // to libc, the object the zpoline lineage rewrites this way.
            let rewritten = unsafe { zpoline::rewrite_process(|r| r.path.contains("libc")) };
            if let Ok((patched, _unknown)) = rewritten {
                slowpath::SITES_PATCHED.fetch_add(patched as u64, Ordering::Relaxed);
            }
        }
        Mode::Hybrid => {}
        Mode::Uninitialized => unreachable!(),
    }

    store_mode(decided);
    INITIALIZED.store(true, Ordering::SeqCst);
    reset_shadow();
    Ok(engine)
}

impl Engine {
    /// Enrolls the calling thread: enables SUD with the gate as its
    /// allowed range and no selector, so every other syscall of the
    /// thread is dispatched until teardown.
    ///
    /// # Errors
    ///
    /// Returns the `prctl` failure; the thread is left un-enrolled.
    pub fn enroll_current_thread(&self) -> io::Result<()> {
        let block = zpoline::thread_block();
        block.set_enrolled(true);
        match enable_sud() {
            Ok(()) => {
                counters::arm_stub_exit();
                Ok(())
            }
            Err(e) => {
                block.set_enrolled(false);
                Err(e)
            }
        }
    }

    /// Un-enrolls the calling thread ([`unenroll_current_thread`]).
    pub fn unenroll_current_thread(&self) {
        unenroll_current_thread();
    }

    /// Whether the calling thread is currently enrolled.
    pub fn is_enrolled(&self) -> bool {
        zpoline::thread_block().enrolled()
    }

    /// Whether the process-global machinery is live.
    pub fn is_initialized() -> bool {
        INITIALIZED.load(Ordering::SeqCst)
    }
}

/// Un-enrolls the calling thread without an [`Engine`] handle: new
/// syscall sites on this thread stop being discovered, and rewritten
/// sites still dispatch. Async-signal-safe — one TLS store, the
/// shadow's reset (which clears nothing on a thread a signal found
/// holding the rewrite lock) and one `prctl` — so a signal handler may
/// call it (the macrobenchmark's `SIGUSR1` switch to rewriting alone).
///
/// Does nothing once the hardened backstop is armed: the filter admits
/// the gate alone, so a thread with SUD off would die on its next libc
/// syscall. Hardened mode is one-way per thread.
pub fn unenroll_current_thread() {
    if crate::harden::backstop_armed() {
        return;
    }
    zpoline::thread_block().set_enrolled(false);
    // From here on this thread's mapping calls may go unseen.
    zpoline::maps::shadow::reset(false);
    // SAFETY: the `prctl` takes no pointer.
    unsafe { sud_prctl(sud::PR_SYS_DISPATCH_OFF, 0..0) };
}

/// Enables SUD on the calling thread, with the gate ([`zpoline::gate`])
/// as its allowed code range and no selector: every syscall of the
/// engine leaves from there, and every other one is dispatched. The one
/// function every engine-backed enrolment goes through — the main
/// thread ([`Engine::enroll_current_thread`]), clone children and fork
/// children (`crate::clone`) — and the backstop's quarantine, which
/// re-arms a thread an attacker turned SUD off on, so that no task is
/// armed differently on one path than on another. Behind the
/// `sud_enroll` fault seam.
///
/// A syscall whose *following* instruction address (the `rip` the
/// kernel sees) lies in the range passes, so the gate ends past the
/// instruction after its last `syscall`; every other one is dispatched —
/// the kernel treats a null selector as one stuck at BLOCK and reads no
/// user memory. The paper avoids any range (§IV-A); DESIGN.md §2 and
/// §11 record the deviation.
pub(crate) fn enable_sud() -> io::Result<()> {
    // Models the prctl failing (kernel without SUD, or a seccomp filter
    // rejecting it) without needing such a kernel.
    if let Some(e) = faultinject::check(faultinject::Site::SudEnroll) {
        return Err(io::Error::from_raw_os_error(e));
    }
    // SAFETY: the `prctl` takes no pointer (selector 0: none).
    let r = unsafe { sud_prctl(sud::PR_SYS_DISPATCH_ON, zpoline::gate()) };
    match syscalls::Errno::from_ret(r) {
        Some(e) => Err(io::Error::from_raw_os_error(e.as_i32())),
        None => Ok(()),
    }
}

/// `prctl(PR_SET_SYSCALL_USER_DISPATCH, mode, range, no selector)` from
/// the gate. Anywhere else it would be dispatched on an enrolled thread,
/// and trapped by the backstop on a filtered thread whose SUD is off (a
/// fork child re-enrolling, a quarantined thread).
///
/// # Safety
///
/// Changes the calling thread's SUD state.
unsafe fn sud_prctl(mode: u64, range: std::ops::Range<usize>) -> u64 {
    raw_internal::syscall(&SyscallArgs::new(
        nr::PRCTL,
        [
            sud::PR_SET_SYSCALL_USER_DISPATCH as u64,
            mode,
            range.start as u64,
            range.len() as u64,
            0,
            0,
        ],
    ))
}

impl Drop for Engine {
    fn drop(&mut self) {
        if zpoline::thread_block().enrolled() {
            self.unenroll_current_thread();
        }
    }
}

/// Robustness snapshot (also available without a handle).
pub fn health() -> Health {
    Health {
        mode: mode(),
        faults_injected: faultinject::total_injected(),
        harden: crate::harden::level(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_default_is_full_preservation() {
        let c = Config::default();
        assert_eq!(c.xstate, XstateMask::Avx);
        assert!(c.lazy_rewriting);
        assert!(c.batch_rewriting);
    }

    #[test]
    fn init_error_display() {
        let e = InitError::Sud(io::Error::from_raw_os_error(libc::EINVAL));
        assert!(e.to_string().contains("dispatch unavailable"));
        let e = InitError::Unavailable {
            trampoline: io::Error::from_raw_os_error(libc::EPERM),
            sud: io::Error::from_raw_os_error(libc::ENOSYS),
        };
        let s = e.to_string();
        assert!(s.contains("no interposition mechanism"), "{s}");
        assert!(s.contains("trampoline:"), "{s}");
    }

    #[test]
    fn mode_defaults_to_uninitialized_in_unit_tests() {
        // Unit tests never run engine init (it would rewrite this test
        // process); the health snapshot must still be readable, and
        // agree with itself. Sibling tests bump the counters meanwhile,
        // so a second read is compared as "no counter went backwards".
        let first = stats();
        assert_eq!(health().mode, Mode::Uninitialized);
        assert!(first.pages_blocklisted <= crate::blocklist::CAPACITY as u64);
        for ((name, before), (_, after)) in first.counters().zip(stats().counters()) {
            assert!(after >= before, "{name}: {before} -> {after}");
        }
    }

    // End-to-end engine tests live in the workspace `tests/` directory
    // and run in subprocesses: initialization permanently rewrites
    // code in the test runner image, which must not leak into sibling
    // unit tests.
}
