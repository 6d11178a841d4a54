//! Native backends: adapters from registry names to the real
//! engine/SUD configurations running in *this* process.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use interpose::SyscallHandler;
use lazypoline::faultinject::{self, Fault};
use zpoline::XstateMask;

use crate::traits::{BASELINE, LAZYPOLINE, SUD, ZPOLINE};
use crate::{ActiveMechanism, EnvConfig, InstallError, Mechanism, StatsSnapshot, Traits};

/// Arms `LAZYPOLINE_FAULTS` once per process, at the first
/// engine-backed install, before anything of it runs: re-arming would
/// reset the schedules' hit counts. A later install may name the armed
/// set again or none; any other set is refused, not silently unarmed.
fn arm_faults(faults: &[Fault]) -> Result<(), InstallError> {
    static ARMED: OnceLock<Vec<Fault>> = OnceLock::new();
    let armed = ARMED.get_or_init(|| {
        faultinject::arm_all(faults);
        faults.to_vec()
    });
    if faults.is_empty() || faults == armed.as_slice() {
        return Ok(());
    }
    Err(InstallError::Conflict(
        "LAZYPOLINE_FAULTS differs from the set the process's first engine-backed install armed",
    ))
}

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
    /// The full hybrid plus the seccomp backstop filter. **One-way per
    /// process**: the filter cannot be removed, and the syscall gate
    /// stays armed after teardown.
    Hardened,
}

pub(crate) static NATIVE_BACKENDS: [NativeBackend; 9] = [
    NativeBackend {
        key: "none",
        cfg: NativeCfg::Nothing,
        traits: BASELINE,
    },
    NativeBackend {
        key: "sud-allow",
        cfg: NativeCfg::SudAllow,
        traits: BASELINE,
    },
    NativeBackend {
        key: "sud-raw",
        cfg: NativeCfg::RawSud,
        traits: SUD,
    },
    NativeBackend {
        key: "sud",
        cfg: NativeCfg::Engine {
            xstate: XstateMask::Avx,
            lazy_rewriting: false,
            batch_rewriting: true,
        },
        traits: SUD,
    },
    NativeBackend {
        key: "zpoline",
        cfg: NativeCfg::Engine {
            xstate: XstateMask::None,
            lazy_rewriting: true,
            batch_rewriting: true,
        },
        traits: ZPOLINE,
    },
    NativeBackend {
        key: "lazypoline-nox",
        cfg: NativeCfg::Engine {
            xstate: XstateMask::None,
            lazy_rewriting: true,
            batch_rewriting: true,
        },
        traits: LAZYPOLINE,
    },
    NativeBackend {
        key: "lazypoline",
        cfg: NativeCfg::Engine {
            xstate: XstateMask::Avx,
            lazy_rewriting: true,
            batch_rewriting: true,
        },
        traits: LAZYPOLINE,
    },
    NativeBackend {
        key: "lazypoline-nobatch",
        cfg: NativeCfg::Engine {
            xstate: XstateMask::Avx,
            lazy_rewriting: true,
            batch_rewriting: false,
        },
        traits: LAZYPOLINE,
    },
    NativeBackend {
        key: "lazypoline-hardened",
        cfg: NativeCfg::Hardened,
        traits: LAZYPOLINE,
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
            // The hardened row needs the full hybrid; the backstop
            // itself degrades (no seccomp → plain lazypoline) rather
            // than gate availability.
            NativeCfg::Hardened => {
                sud::is_supported() && zpoline::Trampoline::environment_supported()
            }
        }
    }

    fn install_with(
        &self,
        handler: Box<dyn SyscallHandler>,
        cfg: &EnvConfig,
    ) -> Result<ActiveMechanism, InstallError> {
        // No availability probe: `is_available` costs a `prctl` pair and
        // a map and unmap of page zero, and what follows does both for
        // real. An engine row installs with `init_strict`, so a rung the
        // host lacks refuses the row as the probe did, while a rung a
        // fault seam failed degrades along the ladder; the SUD-only rows
        // fail at their `prctl`.
        if matches!(self.cfg, NativeCfg::Engine { .. } | NativeCfg::Hardened) {
            arm_faults(&cfg.faults)?;
        }
        // Handler first: once the mechanism arms, every intercepted
        // syscall must already see the caller's handler, not the
        // previous one. The guard reverses this order on teardown.
        let guard = interpose::install_handler(handler);

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
                    // SAFETY: restoring the disposition just replaced.
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
                let engine = lazypoline::init_strict(lazypoline::Config {
                    xstate,
                    lazy_rewriting,
                    batch_rewriting,
                })
                .map_err(refused)?;
                NativeKind::Engine {
                    engine,
                    restore_xstate: xstate != XstateMask::Avx,
                }
            }
            NativeCfg::Hardened => {
                let engine =
                    lazypoline::init_strict(lazypoline::Config::default()).map_err(refused)?;
                // The seccomp backstop — after init, on the thread it
                // enrolled, so every legitimate syscall path (the gate)
                // exists before the irreversible filter. Failure (no
                // seccomp, or `PrescanOnly`: nothing enrolled) degrades
                // to `Unprotected`.
                let _ = lazypoline::harden::arm_backstop(cfg.harden_policy);
                NativeKind::Engine {
                    engine,
                    restore_xstate: false,
                }
            }
        };
        Ok(ActiveMechanism::new(
            self.key,
            Box::new(NativeActive {
                kind,
                _guard: guard,
            }),
        ))
    }
}

/// An engine row's install error: the rung the host lacks refuses the
/// row, in the words the availability probe used.
fn refused(e: lazypoline::InitError) -> InstallError {
    match e {
        lazypoline::InitError::Trampoline(_) | lazypoline::InitError::Sud(_) => {
            InstallError::Unsupported("needs Syscall User Dispatch and/or vm.mmap_min_addr = 0")
        }
        e => InstallError::Init(e),
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
    _guard: interpose::HandlerGuard,
}

impl NativeActive {
    /// This base's own process-cumulative counters (see [`totals`]).
    ///
    /// [`totals`]: crate::totals
    pub(crate) fn section(&self) -> StatsSnapshot {
        match self.kind {
            NativeKind::Nothing | NativeKind::SudAllow => StatsSnapshot::default(),
            NativeKind::RawSud { .. } => {
                let trips = RAW_SUD_DISPATCHES.load(Ordering::Relaxed);
                StatsSnapshot {
                    dispatches: trips,
                    slow_path_hits: trips,
                    ..StatsSnapshot::default()
                }
            }
            NativeKind::Engine { .. } => lazypoline::stats(),
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use lazypoline::faultinject::{Schedule, Site};

    #[test]
    fn a_later_install_cannot_change_the_armed_faults() {
        // Armed here, at a hit count nothing in this binary reaches.
        let armed = [Fault { site: Site::PatchMprotect, schedule: Schedule::Nth(u64::MAX), errno: None }];
        assert!(arm_faults(&armed).is_ok());
        assert!(arm_faults(&armed).is_ok(), "the armed set again");
        assert!(arm_faults(&[]).is_ok(), "no set");
        let other = [Fault { schedule: Schedule::Nth(1), ..armed[0] }];
        assert!(matches!(arm_faults(&other), Err(InstallError::Conflict(_))));
        faultinject::disarm_all();
    }
}
