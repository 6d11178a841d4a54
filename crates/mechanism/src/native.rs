//! Native backends: adapters from registry names to the real
//! engine/SUD configurations running in *this* process.

use std::sync::atomic::{AtomicU64, Ordering};

use interpose::SyscallHandler;
use sim_interpose::{Efficiency, Expressiveness, Traits};
use zpoline::XstateMask;

use crate::record_replay::fill_recorder_deltas;
use crate::{ActiveMechanism, InstallError, Inner, Mechanism, StatsSnapshot};

/// One registry row: a name bound to a concrete native configuration.
pub(crate) struct NativeBackend {
    key: &'static str,
    cfg: NativeCfg,
    traits: Traits,
}

enum NativeCfg {
    /// No interposition at all.
    Nothing,
    /// SUD enabled with the selector parked at ALLOW: measures the
    /// paper's "cost of merely enabling SUD" baseline.
    SudAllow,
    /// Classic selector-only SUD: a raw `SIGSYS` interposer and no
    /// engine. Owns the `SIGSYS` disposition, so it must be installed
    /// before any engine-backed backend (one-shot per arming: the
    /// handler exits with the selector at ALLOW; callers re-arm BLOCK,
    /// as the microbenchmark loop does per iteration).
    RawSud,
    /// The lazypoline engine in a specific configuration.
    Engine {
        xstate: XstateMask,
        lazy_rewriting: bool,
        batch_rewriting: bool,
    },
    /// The full hybrid plus the hardened layers: pkey-protected
    /// selector (where MPK hardware exists) and the seccomp backstop
    /// filter. **One-way per process**: the filter cannot be removed,
    /// and the syscall gate stays armed after teardown.
    Hardened,
}

const LAZYPOLINE_TRAITS: Traits = Traits {
    name: "lazypoline (hybrid)",
    expressiveness: Expressiveness::Full,
    exhaustive: true,
    efficiency: Efficiency::High,
};

/// Shared by the native and simulated hardened rows (the traits
/// equality test pairs them up).
pub(crate) const HARDENED_TRAITS: Traits = Traits {
    name: "lazypoline (hardened)",
    expressiveness: Expressiveness::Full,
    exhaustive: true,
    efficiency: Efficiency::High,
};

const SUD_TRAITS: Traits = Traits {
    name: "SUD",
    expressiveness: Expressiveness::Full,
    exhaustive: true,
    efficiency: Efficiency::Moderate,
};

const BASELINE_TRAITS: Traits = Traits {
    name: "baseline",
    expressiveness: Expressiveness::None,
    exhaustive: false,
    efficiency: Efficiency::High,
};

pub(crate) static NATIVE_BACKENDS: [NativeBackend; 9] = [
    NativeBackend {
        key: "none",
        cfg: NativeCfg::Nothing,
        traits: BASELINE_TRAITS,
    },
    NativeBackend {
        key: "sud-allow",
        cfg: NativeCfg::SudAllow,
        traits: BASELINE_TRAITS,
    },
    NativeBackend {
        key: "sud-raw",
        cfg: NativeCfg::RawSud,
        traits: SUD_TRAITS,
    },
    NativeBackend {
        key: "sud",
        cfg: NativeCfg::Engine {
            xstate: XstateMask::Avx,
            lazy_rewriting: false,
            batch_rewriting: true,
        },
        traits: SUD_TRAITS,
    },
    NativeBackend {
        key: "zpoline",
        cfg: NativeCfg::Engine {
            xstate: XstateMask::None,
            lazy_rewriting: true,
            batch_rewriting: true,
        },
        traits: Traits {
            name: "binary rewriting (zpoline)",
            expressiveness: Expressiveness::Full,
            exhaustive: false,
            efficiency: Efficiency::High,
        },
    },
    NativeBackend {
        key: "lazypoline-nox",
        cfg: NativeCfg::Engine {
            xstate: XstateMask::None,
            lazy_rewriting: true,
            batch_rewriting: true,
        },
        traits: LAZYPOLINE_TRAITS,
    },
    NativeBackend {
        key: "lazypoline",
        cfg: NativeCfg::Engine {
            xstate: XstateMask::Avx,
            lazy_rewriting: true,
            batch_rewriting: true,
        },
        traits: LAZYPOLINE_TRAITS,
    },
    NativeBackend {
        key: "lazypoline-nobatch",
        cfg: NativeCfg::Engine {
            xstate: XstateMask::Avx,
            lazy_rewriting: true,
            batch_rewriting: false,
        },
        traits: LAZYPOLINE_TRAITS,
    },
    NativeBackend {
        key: "lazypoline-hardened",
        cfg: NativeCfg::Hardened,
        traits: HARDENED_TRAITS,
    },
];

impl Mechanism for NativeBackend {
    fn name(&self) -> &'static str {
        self.key
    }

    fn traits(&self) -> Traits {
        self.traits
    }

    fn is_available(&self) -> bool {
        match self.cfg {
            NativeCfg::Nothing => true,
            NativeCfg::SudAllow | NativeCfg::RawSud => sud::is_supported(),
            // Engine rows with rewriting need the page-0 trampoline;
            // the pure slow-path row only needs SUD (on hosts without
            // the trampoline, init degrades to SudOnly, which is
            // exactly this backend's semantics anyway).
            NativeCfg::Engine { lazy_rewriting, .. } => {
                sud::is_supported()
                    && (!lazy_rewriting || zpoline::Trampoline::environment_supported())
            }
            // The hardened row needs the full hybrid; the hardening
            // layers themselves degrade (no MPK → backstop only, no
            // seccomp → plain lazypoline) rather than gate availability.
            NativeCfg::Hardened => {
                sud::is_supported() && zpoline::Trampoline::environment_supported()
            }
        }
    }

    fn install(
        &self,
        handler: Box<dyn SyscallHandler>,
    ) -> Result<ActiveMechanism, InstallError> {
        if !self.is_available() {
            return Err(InstallError::Unsupported(
                "needs Syscall User Dispatch and/or vm.mmap_min_addr = 0",
            ));
        }
        // Handler first: once the mechanism arms, every intercepted
        // syscall must already see the caller's handler, not the
        // previous one. The guard reverses this order on teardown.
        let guard = interpose::install_handler(handler);
        let base = lazypoline::stats();
        let base_raw_dispatches = RAW_SUD_DISPATCHES.load(Ordering::Relaxed);

        let kind = match self.cfg {
            NativeCfg::Nothing => NativeKind::Nothing,
            NativeCfg::SudAllow => {
                sud::enable_thread().map_err(InstallError::Io)?;
                sud::set_selector(sud::Dispatch::Allow);
                NativeKind::SudAllow
            }
            NativeCfg::RawSud => {
                if lazypoline::Engine::is_initialized() {
                    return Err(InstallError::Conflict(
                        "sud-raw owns the SIGSYS disposition; install it before any \
                         engine-backed mechanism",
                    ));
                }
                // SAFETY: the handler is async-signal-safe and follows
                // the SUD protocol (selector to ALLOW as first action).
                let old = unsafe { sud::sigsys::install_sigsys_handler(raw_sud_handler) }
                    .map_err(InstallError::Io)?;
                if let Err(e) = sud::enable_thread() {
                    unsafe { libc::sigaction(libc::SIGSYS, &old, std::ptr::null_mut()) };
                    return Err(InstallError::Io(e));
                }
                sud::set_selector(sud::Dispatch::Block);
                NativeKind::RawSud { old }
            }
            NativeCfg::Engine {
                xstate,
                lazy_rewriting,
                batch_rewriting,
            } => {
                let engine = lazypoline::init(lazypoline::Config {
                    xstate,
                    lazy_rewriting,
                    batch_rewriting,
                    ..lazypoline::Config::default()
                })
                .map_err(InstallError::Init)?;
                NativeKind::Engine {
                    engine,
                    restore_xstate: xstate != XstateMask::Avx,
                }
            }
            NativeCfg::Hardened => {
                // Ladder rung 1: protected selector — must precede
                // init so enrollment hands the kernel the protected
                // address. Failure (no MPK hardware) degrades.
                let _ = lazypoline::harden::prepare_pkey();
                let engine = lazypoline::init(lazypoline::Config::default())
                    .map_err(InstallError::Init)?;
                // Ladder rung 2: the seccomp backstop — after init, so
                // every legitimate syscall path (gate page, number
                // allowlist) exists before the irreversible filter.
                let _ =
                    lazypoline::harden::arm_backstop(lazypoline::harden::policy_from_env());
                NativeKind::Engine {
                    engine,
                    restore_xstate: false,
                }
            }
        };
        Ok(ActiveMechanism::new(
            self.key,
            Inner::Native(Box::new(NativeActive {
                kind,
                base,
                base_raw_dispatches,
                _guard: guard,
            })),
        ))
    }
}

enum NativeKind {
    Nothing,
    SudAllow,
    RawSud { old: libc::sigaction },
    Engine {
        engine: lazypoline::Engine,
        restore_xstate: bool,
    },
}

/// Live native installation. Field order is teardown order: the
/// mechanism disarms before the handler guard restores the previous
/// handler.
pub(crate) struct NativeActive {
    kind: NativeKind,
    base: lazypoline::Stats,
    base_raw_dispatches: u64,
    _guard: interpose::HandlerGuard,
}

impl NativeActive {
    pub(crate) fn snapshot(&self, mechanism: &'static str) -> StatsSnapshot {
        let now = lazypoline::stats();
        let mut s = StatsSnapshot::zero(mechanism);
        // Quarantine and the recorder/replay counters are
        // registry-level, not engine-level: report them for every
        // backend.
        s.quarantined_handlers = now
            .quarantined_handlers
            .saturating_sub(self.base.quarantined_handlers);
        fill_recorder_deltas(&mut s, &self.base, &now);
        match &self.kind {
            NativeKind::Nothing | NativeKind::SudAllow => {}
            NativeKind::RawSud { .. } => {
                let d = RAW_SUD_DISPATCHES
                    .load(Ordering::Relaxed)
                    .saturating_sub(self.base_raw_dispatches);
                s.dispatches = d;
                s.slow_path_hits = d;
            }
            NativeKind::Engine { .. } => {
                // The engine counts trampoline entries in `dispatches`;
                // slow-path *emulations* (rewriting disabled, or an
                // unpatchable page) notify the handler without entering
                // the trampoline. The unified snapshot reports every
                // handler-visible dispatch, whichever path carried it.
                s.dispatches = now.dispatches.saturating_sub(self.base.dispatches)
                    + now
                        .disabled_mode_emulations
                        .saturating_sub(self.base.disabled_mode_emulations)
                    + now
                        .unpatchable_emulations
                        .saturating_sub(self.base.unpatchable_emulations);
                s.slow_path_hits = now.slow_path_hits.saturating_sub(self.base.slow_path_hits);
                s.sites_patched = now.sites_patched.saturating_sub(self.base.sites_patched);
                s.unpatchable_emulations = now
                    .unpatchable_emulations
                    .saturating_sub(self.base.unpatchable_emulations);
                s.disabled_mode_emulations = now
                    .disabled_mode_emulations
                    .saturating_sub(self.base.disabled_mode_emulations);
                s.signals_wrapped = now.signals_wrapped.saturating_sub(self.base.signals_wrapped);
                s.patch_retries = now.patch_retries.saturating_sub(self.base.patch_retries);
                s.pages_blocklisted = now
                    .pages_blocklisted
                    .saturating_sub(self.base.pages_blocklisted);
                s.bypass_blocked = now.bypass_blocked.saturating_sub(self.base.bypass_blocked);
                s.pkru_switches = now.pkru_switches.saturating_sub(self.base.pkru_switches);
            }
        }
        s
    }

    pub(crate) fn detach(&mut self) {
        match &mut self.kind {
            NativeKind::Nothing => {}
            NativeKind::SudAllow | NativeKind::RawSud { .. } => {
                sud::set_selector(sud::Dispatch::Allow);
            }
            NativeKind::Engine { engine, .. } => engine.unenroll_current_thread(),
        }
    }

    pub(crate) fn set_xstate(&mut self, mask: XstateMask) -> bool {
        match &mut self.kind {
            NativeKind::Engine { restore_xstate, .. } => {
                zpoline::set_xstate_mask(mask);
                *restore_xstate = mask != XstateMask::Avx;
                true
            }
            _ => false,
        }
    }
}

impl Drop for NativeActive {
    fn drop(&mut self) {
        match &mut self.kind {
            NativeKind::Nothing => {}
            NativeKind::SudAllow => {
                sud::set_selector(sud::Dispatch::Allow);
                let _ = sud::disable_thread();
            }
            NativeKind::RawSud { old } => {
                sud::set_selector(sud::Dispatch::Allow);
                let _ = sud::disable_thread();
                // SAFETY: restoring a previously valid disposition.
                unsafe { libc::sigaction(libc::SIGSYS, old, std::ptr::null_mut()) };
            }
            NativeKind::Engine { restore_xstate, .. } => {
                if *restore_xstate {
                    zpoline::set_xstate_mask(XstateMask::Avx);
                }
                // The Engine field's own Drop unenrolls the thread (if
                // still enrolled) when this struct's fields drop.
            }
        }
        // After this body: self.kind drops (Engine unenroll), then
        // self._guard restores the previous handler.
    }
}

/// Dispatches the raw-SUD backend counted here (per `SIGSYS` trip).
static RAW_SUD_DISPATCHES: AtomicU64 = AtomicU64::new(0);

/// The classic SUD deployment's `SIGSYS` handler: selector to ALLOW
/// (per protocol — also what makes it one-shot), then the same shared
/// decision sequence the engine's dispatcher runs
/// ([`interpose::interpose_syscall`]), with the syscall executed right
/// in the handler and its result written back to the interrupted
/// context's `rax`.
unsafe extern "C" fn raw_sud_handler(
    _sig: libc::c_int,
    _info: *mut libc::siginfo_t,
    ctx: *mut libc::c_void,
) {
    sud::set_selector(sud::Dispatch::Allow);
    RAW_SUD_DISPATCHES.fetch_add(1, Ordering::Relaxed);
    let mut uc = sud::sigsys::UContext::from_ptr(ctx);
    let call = uc.syscall_args();
    let site = uc.rip() as usize;
    let ret = interpose::interpose_syscall(call, site, |decided| {
        syscalls::raw::syscall(decided)
    });
    uc.set_rax(ret);
}
