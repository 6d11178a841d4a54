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
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::Once;

use zpoline::{Trampoline, XstateMask};

use crate::counters;
use crate::{blocklist, fastpath, signals, slowpath, tls};

/// Configuration for [`init`].
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Which extended-state components the fast path preserves around
    /// the handler (paper §IV-B(b); Table II benchmarks both
    /// `Avx` — full preservation, the default — and `None`).
    pub xstate: XstateMask,
    /// Re-route signal handlers registered *before* initialization
    /// through the wrapper protocol (recommended; see §IV-B(c)).
    pub adopt_existing_signal_handlers: bool,
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
    /// Statically pre-scan and rewrite the executable regions whose
    /// path satisfies common safety filters before enabling SUD. This
    /// makes the very first executions of known sites take the fast
    /// path (zpoline-style priming); purely an optimization — the slow
    /// path catches everything regardless. Off by default because
    /// static disassembly is heuristic (§II-B).
    pub static_prescan: bool,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            xstate: XstateMask::Avx,
            adopt_existing_signal_handlers: true,
            lazy_rewriting: true,
            batch_rewriting: true,
            static_prescan: false,
        }
    }
}

/// Why [`init`] failed outright (every rung of the degradation ladder
/// exhausted, or a per-thread step failed). The process is left
/// un-interposed but otherwise intact when any of these is returned.
#[derive(Debug)]
pub enum InitError {
    /// Page zero could not be mapped (usually `vm.mmap_min_addr > 0`).
    /// Only returned when SUD *also* failed — a trampoline failure
    /// alone degrades to [`Mode::SudOnly`].
    Trampoline(io::Error),
    /// `prctl(PR_SET_SYSCALL_USER_DISPATCH)` failed (kernel < 5.11 or
    /// seccomp-filtered) on a later thread's enrollment.
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

/// Event counters since initialization.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Stats {
    /// `SIGSYS` deliveries (slow-path trips).
    pub slow_path_hits: u64,
    /// Syscall sites rewritten to `call rax`.
    pub sites_patched: u64,
    /// Syscalls that reached the dispatcher.
    pub dispatches: u64,
    /// Syscalls emulated in the handler because patching failed (the
    /// site or its page is unpatchable).
    pub unpatchable_emulations: u64,
    /// Syscalls emulated in the handler because lazy rewriting is
    /// disabled (pure-SUD configuration or [`Mode::SudOnly`]) — a
    /// configuration state, not a failure.
    pub disabled_mode_emulations: u64,
    /// Application signal deliveries routed through the wrapper.
    pub signals_wrapped: u64,
    /// Patch re-attempts after transient `mprotect` failures.
    pub patch_retries: u64,
    /// Pages inserted into the unpatchable-page blocklist.
    pub pages_blocklisted: u64,
    /// Interposer handlers quarantined after panicking (cumulative).
    pub quarantined_handlers: u64,
    /// Syscall events captured into the flight-recorder rings
    /// (cumulative; nonzero only while a `record` interposer runs).
    pub events_recorded: u64,
    /// Syscall events the flight recorder dropped to its overflow
    /// policy (full ring or exhausted ring pool; cumulative).
    pub events_dropped: u64,
    /// Divergences replay handlers detected between an execution and
    /// its trace (cumulative).
    pub replay_divergences: u64,
    /// Records the drain path moved from the rings into a trace file
    /// (cumulative; async drain-thread sweeps and synchronous drains).
    pub events_spilled: u64,
    /// Adaptive capacity doublings of flight-recorder rings
    /// (cumulative).
    pub ring_grows: u64,
    /// Ring pushes that observed near-full (≥3/4) occupancy —
    /// backpressure the drain thread could not absorb (cumulative).
    pub ring_near_full: u64,
    /// Near-full pushes that `sched_yield`ed the producer under the
    /// opt-in `LP_DRAIN_YIELD` knob (cumulative).
    pub drain_yields: u64,
    /// Escape attempts the hardened-mode seccomp backstop caught
    /// (cumulative; nonzero only under `lazypoline-hardened`).
    pub bypass_blocked: u64,
    /// WRPKRU open/close pairs around protected-selector writes
    /// (cumulative; nonzero only with the pkey slab armed).
    pub pkru_switches: u64,
}

/// Robustness snapshot: the active degradation-ladder rung plus the
/// counters that describe how the engine has been coping.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Health {
    /// The rung of the degradation ladder the engine runs on.
    pub mode: Mode,
    /// Pages in the unpatchable-page blocklist.
    pub patch_blocklist_pages: u64,
    /// Interposer handlers quarantined after panicking (cumulative).
    pub quarantined_handlers: u64,
    /// Faults injected by the `faultinject` seams (0 in production).
    pub faults_injected: u64,
    /// Patch re-attempts after transient `mprotect` failures.
    pub patch_retries: u64,
    /// The hardening rung achieved ([`crate::harden::level`];
    /// `HardenLevel::Off` unless hardened install was attempted).
    pub harden: crate::harden::HardenLevel,
    /// The full counter set ([`stats`]).
    pub stats: Stats,
}

static INITIALIZED: AtomicBool = AtomicBool::new(false);

/// The established [`Mode`], encoded as a u8 (0 = uninitialized).
static MODE: AtomicU8 = AtomicU8::new(0);

/// Arms fault seams from `LAZYPOLINE_FAULTS` exactly once per process
/// (re-arming on a second `init` would reset schedule hit counts).
static FAULTS_FROM_ENV: Once = Once::new();

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
    FAULTS_FROM_ENV.call_once(|| {
        if let Err(e) = faultinject::arm_from_env() {
            eprintln!("lazypoline: ignoring LAZYPOLINE_FAULTS: {e}");
        }
    });
    crate::slowpath::BATCH_REWRITING.store(config.batch_rewriting, Ordering::SeqCst);

    if !INITIALIZED.load(Ordering::SeqCst) {
        return init_process_global(config);
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
    Ok(engine)
}

/// First-call path: establish the process-global machinery and decide
/// the degradation-ladder rung.
fn init_process_global(config: Config) -> Result<Engine, InitError> {
    crate::slowpath::LAZY_REWRITING.store(config.lazy_rewriting, Ordering::SeqCst);
    zpoline::set_xstate_mask(config.xstate);

    // Rung 1: the trampoline. Failure is survivable (→ SudOnly).
    let tramp_err = match Trampoline::install() {
        Ok(_) => {
            zpoline::set_dispatcher(fastpath::lazypoline_dispatch);
            zpoline::set_miss_exit(Some(&fastpath::MISS_EXIT));
            None
        }
        Err(e) => Some(e),
    };

    // Rung 2: SUD — handler disposition plus this thread's enrollment.
    // Failure is survivable when the trampoline stands (→ PrescanOnly).
    let mut sud_err = None;
    unsafe {
        if config.adopt_existing_signal_handlers {
            signals::adopt_existing_handlers();
        }
        if let Err(e) = sud::sigsys::install_sigsys_handler(slowpath::sigsys_handler) {
            sud_err = Some(e);
        }
    }
    let engine = Engine { _private: () };
    if sud_err.is_none() {
        if let Err(e) = engine.enroll_current_thread() {
            sud_err = Some(e);
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
        Mode::Hybrid | Mode::PrescanOnly => {
            // PrescanOnly *needs* the prescan (it is the only way any
            // syscall gets interposed); in Hybrid it is the configured
            // optimization. Run it with the selector disarmed so the
            // scan's own syscalls don't spam the slow path.
            if decided == Mode::PrescanOnly || config.static_prescan {
                let re_arm = tls::enrolled();
                if re_arm {
                    sud::set_selector(sud::Dispatch::Allow);
                }
                // libc only: it carries the syscall sites of every
                // dynamically-linked binary, and its instruction stream
                // is the one the zpoline lineage has long rewritten
                // statically. Raw syscalls in other objects stay
                // uninterposed in PrescanOnly — the documented
                // exhaustiveness sacrifice of this rung. Errors are
                // non-fatal: in Hybrid the slow path remains
                // exhaustive; in PrescanOnly a partial rewrite still
                // interposes what it reached.
                if let Ok((patched, _unknown)) =
                    unsafe { zpoline::rewrite_process(|r| r.path.contains("libc")) }
                {
                    counters::add(&counters::SITES_PATCHED, patched as u64);
                }
                if re_arm {
                    sud::set_selector(sud::Dispatch::Block);
                }
            }
        }
        Mode::Uninitialized => unreachable!(),
    }

    store_mode(decided);
    INITIALIZED.store(true, Ordering::SeqCst);
    Ok(engine)
}

impl Engine {
    /// Enrolls the calling thread: enables SUD with this thread's
    /// selector byte and arms it (selector = BLOCK).
    ///
    /// # Errors
    ///
    /// Returns the `prctl` failure; the thread is left un-enrolled.
    pub fn enroll_current_thread(&self) -> io::Result<()> {
        // Hardened mode: give this thread a selector slot on the
        // protected slab *before* the prctl, so the kernel records the
        // protected address. A full slab falls back to the TLS byte —
        // the thread is interposed, just not selector-hardened.
        if sud::pkey::slab_ready() {
            let _ = sud::adopt_protected_selector();
        }
        tls::set_enrolled(true);
        match sud::enable_thread() {
            Ok(()) => {
                tls::arm_stub_exit();
                sud::set_selector(sud::Dispatch::Block);
                Ok(())
            }
            Err(e) => {
                tls::set_enrolled(false);
                Err(e)
            }
        }
    }

    /// Un-enrolls the calling thread: new syscall sites on this thread
    /// stop being discovered. Already-rewritten sites still dispatch.
    pub fn unenroll_current_thread(&self) {
        tls::set_enrolled(false);
        sud::set_selector(sud::Dispatch::Allow);
        let _ = sud::disable_thread();
    }

    /// Whether the calling thread is currently enrolled.
    pub fn is_enrolled(&self) -> bool {
        tls::enrolled()
    }

    /// Whether the process-global machinery is live.
    pub fn is_initialized() -> bool {
        INITIALIZED.load(Ordering::SeqCst)
    }

    /// Engine-wide event counters.
    pub fn stats(&self) -> Stats {
        stats()
    }

    /// Robustness snapshot (mode + degradation counters).
    pub fn health(&self) -> Health {
        health()
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        if tls::enrolled() {
            self.unenroll_current_thread();
        }
    }
}

/// Engine-wide event counters (also available without a handle — e.g.
/// from benchmark reporting code).
pub fn stats() -> Stats {
    Stats {
        slow_path_hits: counters::get(&counters::SLOW_PATH_HITS),
        sites_patched: counters::get(&counters::SITES_PATCHED),
        dispatches: counters::get(&counters::DISPATCHES),
        unpatchable_emulations: counters::get(&counters::UNPATCHABLE_EMULATIONS),
        disabled_mode_emulations: counters::get(&counters::DISABLED_MODE_EMULATIONS),
        signals_wrapped: counters::get(&counters::SIGNALS_WRAPPED),
        patch_retries: counters::get(&counters::PATCH_RETRIES),
        pages_blocklisted: counters::get(&counters::PAGES_BLOCKLISTED),
        quarantined_handlers: interpose::quarantined_handlers(),
        // Recorder counters live in lp-replay (its rings own the drop
        // accounting); the engine folds them in so `health()` and the
        // benches report one uniform counter set.
        events_recorded: replay::events_recorded(),
        events_dropped: replay::events_dropped(),
        replay_divergences: replay::replay_divergences(),
        events_spilled: replay::events_spilled(),
        ring_grows: replay::ring::total_grows(),
        ring_near_full: replay::ring::total_near_full(),
        drain_yields: replay::ring::total_drain_yields(),
        bypass_blocked: crate::harden::bypass_blocked(),
        pkru_switches: sud::pkey::pkru_switch_count(),
    }
}

/// Robustness snapshot (also available without a handle): the active
/// [`Mode`] plus the counters describing degradations taken so far.
pub fn health() -> Health {
    let stats = stats();
    Health {
        mode: mode(),
        patch_blocklist_pages: blocklist::len() as u64,
        quarantined_handlers: stats.quarantined_handlers,
        faults_injected: faultinject::total_injected(),
        patch_retries: stats.patch_retries,
        harden: crate::harden::level(),
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_default_is_full_preservation() {
        let c = Config::default();
        assert_eq!(c.xstate, XstateMask::Avx);
        assert!(c.adopt_existing_signal_handlers);
        assert!(c.lazy_rewriting);
        assert!(c.batch_rewriting);
        assert!(!c.static_prescan);
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
        let h = health();
        assert_eq!(h.quarantined_handlers, h.stats.quarantined_handlers);
        assert_eq!(h.patch_retries, h.stats.patch_retries);
        assert!(h.patch_blocklist_pages <= crate::blocklist::CAPACITY as u64);
        let (a, b) = (h.stats, stats());
        for (name, before, after) in [
            ("slow_path_hits", a.slow_path_hits, b.slow_path_hits),
            ("sites_patched", a.sites_patched, b.sites_patched),
            ("dispatches", a.dispatches, b.dispatches),
            ("unpatchable_emulations", a.unpatchable_emulations, b.unpatchable_emulations),
            ("disabled_mode_emulations", a.disabled_mode_emulations, b.disabled_mode_emulations),
            ("signals_wrapped", a.signals_wrapped, b.signals_wrapped),
            ("patch_retries", a.patch_retries, b.patch_retries),
            ("pages_blocklisted", a.pages_blocklisted, b.pages_blocklisted),
            ("quarantined_handlers", a.quarantined_handlers, b.quarantined_handlers),
            ("events_recorded", a.events_recorded, b.events_recorded),
            ("events_dropped", a.events_dropped, b.events_dropped),
            ("replay_divergences", a.replay_divergences, b.replay_divergences),
            ("events_spilled", a.events_spilled, b.events_spilled),
            ("ring_grows", a.ring_grows, b.ring_grows),
            ("ring_near_full", a.ring_near_full, b.ring_near_full),
            ("drain_yields", a.drain_yields, b.drain_yields),
            ("bypass_blocked", a.bypass_blocked, b.bypass_blocked),
            ("pkru_switches", a.pkru_switches, b.pkru_switches),
        ] {
            assert!(after >= before, "{name}: {before} -> {after}");
        }
    }

    // End-to-end engine tests live in the workspace `tests/` directory
    // and run in subprocesses: initialization permanently rewrites
    // code in the test runner image, which must not leak into sibling
    // unit tests.
}
