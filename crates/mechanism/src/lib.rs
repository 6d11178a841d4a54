//! The mechanism layer: every interposition backend in the suite —
//! native engine configurations and raw SUD — behind one trait, one
//! string-keyed registry, and one install/teardown/stats lifecycle.
//!
//! The paper's claim is comparative (Table I/II line lazypoline up
//! against zpoline, SUD, seccomp, and ptrace as *peer* mechanisms), so
//! the suite treats "which mechanism" as data, not code: drivers ask
//! the registry for a backend [`by_name`] (the one `LP_MECHANISM` names
//! is [`EnvConfig::mechanism`]), [`Mechanism::install`] it around a
//! [`SyscallHandler`], and read a uniform [`StatsSnapshot`] from the
//! returned [`ActiveMechanism`] guard. Adding a backend is a one-file
//! change here; the micro/macro benchmarks, examples, and tests pick it
//! up by name. Each row's Table I characteristics are data here too:
//! [`TABLE_I`] holds the paper's six rows, and every backend's
//! [`Mechanism::traits`] is one of them.
//!
//! # Registered names
//!
//! Every row interposes this process, on this kernel:
//!
//! | name | configuration |
//! |------|---------------|
//! | `none` | no interposition (baseline) |
//! | `sud-allow` | SUD enabled, selector parked at ALLOW (paper's "SUD enabled" baseline) |
//! | `sud-raw` | classic selector-only SUD: raw `SIGSYS` interposer, no engine (Table II's "SUD" row) |
//! | `sud` | the engine with lazy rewriting disabled (every syscall takes the slow path) |
//! | `zpoline` | the engine, no xstate preservation; [`ActiveMechanism::detach`] after warmup drops SUD for pure-rewriting operation |
//! | `lazypoline-nox` | the hybrid without extended-state preservation |
//! | `lazypoline` | the full hybrid (default) |
//! | `lazypoline-nobatch` | the hybrid with page-granular batch rewriting off |
//! | `lazypoline-hardened` | the hybrid with the seccomp backstop behind SUD (one-way per process; degrades to plain lazypoline without seccomp) |
//!
//! Every other mechanism of Tables I and II is a `table2` child.
//!
//! # Composed names: `base(+layer)*`
//!
//! [`by_name`] also parses one grammar over the rows above:
//!
//! | piece | meaning |
//! |-------|---------|
//! | `base` | any static row, or `replay:<trace-path>` (deterministic replay of a recorded trace; the path is the whole remainder, so it takes no layers) |
//! | `+record` | the flight recorder around the handler (`LP_TRACE_OUT=<path>` also drains the rings into a trace file) |
//! | `+hooks` | a runtime [`interpose::HookStack`] as the handler: what is below it at priority 0, plus every `lp_hook_v1` library named by `LP_HOOKS` |
//! | `+sfip` | syscall-flow-integrity enforcement of the learned `LPSFIP1` policy named by `LP_SFIP_POLICY` |
//!
//! Each layer appears at most once. Written order is event flow, left
//! to right = outside in: under `lazypoline+record+sfip` lazypoline
//! dispatches into the recorder, which calls the SFIP check, which
//! calls the caller's handler ("audit what you enforce").
//!
//! # One-way caveats
//!
//! Native interposition is not fully reversible: engine initialisation
//! is process-global and rewritten syscall sites stay rewritten, so
//! dropping an engine-backed [`ActiveMechanism`] unenrolls the thread
//! and restores the handler/selector/xstate, but already-patched sites
//! keep dispatching (to whatever handler is then installed — the guard
//! restores the previous one). Under `lazypoline-hardened` with its
//! backstop armed the thread stays enrolled: a thread with SUD off
//! under a filter that admits the gate alone would die on its next libc
//! syscall. `sud-raw` owns the `SIGSYS` disposition
//! and must therefore be installed *before* any engine-backed backend
//! in a process's lifetime.

#![deny(missing_docs)]

mod config;
mod hooks;
mod layer;
mod native;
mod record_replay;
mod sfip;
mod traits;

pub use config::{
    ConfigError, EnvConfig, HandlerMode, HOOKS_ENV, HOOKS_WATCH_ENV, KNOBS, TRACE_OUT_ENV,
};
pub use interpose::StatsSnapshot;
use interpose::SyscallHandler;
use layer::LayerGuard;
pub use replay;
pub use traits::{Efficiency, Expressiveness, Traits, TABLE_I};
pub use zpoline::XstateMask;

/// An interposition backend: something that can wrap a
/// [`SyscallHandler`] around this process.
pub trait Mechanism: Send + Sync {
    /// The registry key (`lazypoline`, `sud`, `lazypoline+record`, …).
    fn name(&self) -> &'static str;

    /// The mechanism's Table I row ([`TABLE_I`]): expressiveness,
    /// exhaustiveness, efficiency class.
    fn traits(&self) -> Traits;

    /// Whether this backend can be installed on this host (kernel SUD
    /// support, `vm.mmap_min_addr = 0`, …), by probing: for listing rows
    /// and for callers that skip. [`install_with`] does not ask; it
    /// tries, and refuses a row the host cannot carry in the same terms
    /// (a rung a fault seam failed degrades along the engine's ladder,
    /// DESIGN.md §3).
    ///
    /// [`install_with`]: Mechanism::install_with
    fn is_available(&self) -> bool;

    /// Activates the mechanism with `handler` as the interposer,
    /// configured by the process environment: [`install_with`] over
    /// [`EnvConfig::from_env`], read once per call. A malformed value of
    /// any runtime variable fails it with [`InstallError::Config`].
    ///
    /// [`install_with`]: Mechanism::install_with
    fn install(
        &self,
        handler: Box<dyn SyscallHandler>,
    ) -> Result<ActiveMechanism, InstallError> {
        self.install_with(handler, &EnvConfig::from_env()?)
    }

    /// Activates the mechanism with `handler` as the interposer and
    /// `cfg` as its configuration; the environment is not read.
    ///
    /// The returned guard owns teardown: dropping it restores the
    /// previously installed handler, the thread's SUD state, and
    /// (where changed) the xstate mask — see the crate docs for what
    /// native interposition cannot undo.
    fn install_with(
        &self,
        handler: Box<dyn SyscallHandler>,
        cfg: &EnvConfig,
    ) -> Result<ActiveMechanism, InstallError>;
}

/// Why [`Mechanism::install`] failed.
#[derive(Debug)]
pub enum InstallError {
    /// A runtime variable holds a value it does not accept.
    Config(ConfigError),
    /// The host lacks a kernel feature this backend needs.
    Unsupported(&'static str),
    /// The backend conflicts with process-global state already set up
    /// (e.g. `sud-raw` after the engine claimed `SIGSYS`).
    Conflict(&'static str),
    /// Engine initialisation failed.
    Init(lazypoline::InitError),
    /// A raw kernel interface (prctl/sigaction) failed.
    Io(std::io::Error),
    /// A `+hooks` layer could not load a hook library named by
    /// `LP_HOOKS` (bad spec, dlopen failure, ABI mismatch, …).
    Hook(hookabi::HookLoadError),
    /// A `+sfip` layer could not load the policy named by
    /// `LP_SFIP_POLICY` (missing path, bad magic/version/geometry,
    /// unknown `LP_SFIP_POLICY_ACTION`, …).
    Policy(::sfip::PolicyError),
}

impl std::fmt::Display for InstallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InstallError::Config(e) => write!(f, "bad configuration: {e}"),
            InstallError::Unsupported(why) => write!(f, "unsupported on this host: {why}"),
            InstallError::Conflict(why) => write!(f, "conflicts with process state: {why}"),
            InstallError::Init(e) => write!(f, "engine init failed: {e}"),
            InstallError::Io(e) => write!(f, "kernel interface failed: {e}"),
            InstallError::Hook(e) => write!(f, "hook loading failed: {e}"),
            InstallError::Policy(e) => write!(f, "sfip policy failed: {e}"),
        }
    }
}

impl std::error::Error for InstallError {}

impl From<ConfigError> for InstallError {
    fn from(e: ConfigError) -> InstallError {
        InstallError::Config(e)
    }
}

/// A live installation: handler registered, mechanism armed.
///
/// Teardown runs on drop, and its order is load-bearing: each `+hooks`
/// layer goes first (its watcher thread stops, then its hooks detach
/// and `fini` while the base still holds the stack installed); then the
/// base disarms (mechanism first, then handler restoration), so its
/// last events land in the rings; only then do the remaining layer
/// guards drop, which is where a `+record` session's final drain runs.
#[must_use = "dropping the guard immediately tears the mechanism down"]
pub struct ActiveMechanism {
    name: &'static str,
    // Declared before `layers`: fields drop in declaration order.
    inner: Box<native::NativeActive>,
    /// `inner`'s totals once the base had armed: the one baseline
    /// [`stats`](Self::stats) reports deltas against.
    base: StatsSnapshot,
    /// Guards of the installed layers, innermost first; empty for a
    /// static row.
    layers: Vec<LayerGuard>,
}

/// The process-cumulative counters in `inner`'s reporting scope, each
/// read once from its owner, over the base's section
/// ([`native::NativeActive::section`]: the engine's counters for
/// engine-backed rows, each `SIGSYS` trip as a dispatch and a slow-path
/// hit for `sud-raw`, nothing otherwise). The registry's, the
/// recorder's and the layers' counters are every base's: any base can
/// carry the layers.
fn totals(inner: &native::NativeActive) -> StatsSnapshot {
    let base = inner.section();
    StatsSnapshot {
        // The engine counts trampoline entries; its slow-path
        // emulations notify the handler without entering the
        // trampoline. A snapshot reports every handler-visible dispatch.
        dispatches: base.dispatches + base.disabled_mode_emulations + base.unpatchable_emulations,
        quarantined_handlers: interpose::quarantined_handlers(),
        events_recorded: replay::events_recorded(),
        events_dropped: replay::events_dropped(),
        events_spilled: replay::events_spilled(),
        ring_near_full: replay::ring::total_near_full(),
        replay_divergences: replay::replay_divergences(),
        hook_dispatches: interpose::hook_dispatches(),
        hook_reloads: hooks::hook_reloads(),
        sfip_checks: ::sfip::checks(),
        sfip_violations: ::sfip::violations(),
        ..base
    }
}

impl Drop for ActiveMechanism {
    fn drop(&mut self) {
        self.layers.retain(|g| !matches!(g, LayerGuard::Hooks(_)));
    }
}

impl ActiveMechanism {
    /// Wraps a base that has just armed, taking the one baseline.
    pub(crate) fn new(name: &'static str, inner: Box<native::NativeActive>) -> ActiveMechanism {
        ActiveMechanism {
            name,
            base: totals(&inner),
            inner,
            layers: Vec::new(),
        }
    }

    fn hooks(&self) -> Option<&hooks::HooksGuard> {
        self.layers.iter().find_map(|g| match g {
            LayerGuard::Hooks(h) => Some(h),
            _ => None,
        })
    }

    /// The registry key of the installed mechanism.
    pub fn mechanism_name(&self) -> &'static str {
        self.name
    }

    /// Counters accumulated since install (see [`StatsSnapshot`]): the
    /// base's totals since the one baseline, then each layer's
    /// non-delta fields.
    pub fn stats(&self) -> StatsSnapshot {
        let mut s = totals(&self.inner).since(&self.base);
        s.mechanism = self.name;
        for g in &self.layers {
            g.fill(&mut s);
        }
        s
    }

    /// The runtime hook stack of a `+hooks` layer — a clone shares
    /// state with the installed handler, so attaching/detaching through
    /// it mutates live dispatch. `None` without that layer.
    pub fn hook_stack(&self) -> Option<&interpose::HookStack> {
        self.hooks().map(hooks::HooksGuard::stack)
    }

    /// The dynamically loaded hooks of a `+hooks` layer:
    /// `(id, name, priority)` per hook, in load order. Empty without
    /// that layer.
    pub fn loaded_hooks(&self) -> Vec<(interpose::HookId, String, i32)> {
        self.hooks()
            .map(hooks::HooksGuard::loaded)
            .unwrap_or_default()
    }

    /// Detaches one dynamically loaded hook mid-flight: removes it from
    /// the stack (narrowing the interest cache after the swap) and runs
    /// its `fini`. Returns `false` if the id is unknown or already
    /// detached, or there is no `+hooks` layer.
    pub fn detach_hook(&mut self, id: interpose::HookId) -> bool {
        self.hooks().is_some_and(|h| h.detach_hook(id))
    }

    /// Ends a `+record` layer's trace session early, returning the
    /// summary (events written, events dropped). `None` without that
    /// layer, or when no trace file was requested (`LP_TRACE_OUT`
    /// unset), or after the session already finished. Without this call
    /// the session finishes on drop, best-effort.
    ///
    /// The trace ends with the application's last call: the session's
    /// owner check reads the pid from the engine's gate, because libc's
    /// `getpid` site may be rewritten, and a rewritten site dispatches
    /// into the installed stack even after [`detach`](Self::detach).
    /// For the same reason the finish itself (its `munmap`s, the
    /// allocator's `madvise`) runs on the engine's private path, so no
    /// layer sees the recorder's own syscalls.
    pub fn finish_recording(&mut self) -> Option<std::io::Result<replay::RecordSummary>> {
        let session = self.layers.iter_mut().find_map(|g| match g {
            LayerGuard::Record(session) => session.take(),
            _ => None,
        })?;
        // SAFETY: `getpid` touches no memory.
        let pid = unsafe { zpoline::gate_syscall(&syscalls::SyscallArgs::nullary(syscalls::nr::GETPID)) };
        Some(lazypoline::proven::privately(|| session.finish_by(pid as u32)))
    }

    /// The shared replay progress state of a `replay:<path>` backend
    /// (trace length, cursor position, divergence count).
    pub fn replay_state(&self) -> Option<&std::sync::Arc<replay::ReplayState>> {
        self.layers.iter().find_map(|g| match g {
            LayerGuard::Replay(state) => Some(state),
            _ => None,
        })
    }

    /// Stops interposing on the calling thread while keeping the
    /// handler and any rewritten sites in place: engine-backed natives
    /// unenroll from SUD (the `zpoline` backend's post-warmup switch to
    /// pure rewriting) unless a hardened backstop is armed, which makes
    /// enrolment one-way; raw-SUD backends park the selector at ALLOW.
    /// No-op for `none`.
    pub fn detach(&mut self) {
        self.inner.detach();
    }

    /// Changes which extended-state components the fast path preserves.
    /// Returns `false` (and does nothing) unless the backend is
    /// engine-based. A non-default mask is restored to the full default
    /// on teardown.
    pub fn set_xstate(&mut self, mask: XstateMask) -> bool {
        self.inner.set_xstate(mask)
    }
}

/// Iterates every registered backend.
pub fn all() -> impl Iterator<Item = &'static dyn Mechanism> {
    native::NATIVE_BACKENDS.iter().map(|b| b as &dyn Mechanism)
}

/// Every registered backend name.
pub fn names() -> Vec<&'static str> {
    all().map(|m| m.name()).collect()
}

/// Looks a backend up by registry key: a static name above, or a
/// composed `base(+layer)*` name (see the crate docs for the grammar),
/// constructed on first lookup and cached for the process. `None` for
/// anything else — an unknown base or layer, a repeated layer, an empty
/// piece.
pub fn by_name(name: &str) -> Option<&'static dyn Mechanism> {
    static_by_name(name).or_else(|| layer::composed_by_name(name))
}

/// Static-registry lookup only: what a composed name's base and a
/// trace header's source mechanism resolve through.
pub(crate) fn static_by_name(name: &str) -> Option<&'static dyn Mechanism> {
    all().find(|m| m.name() == name)
}

/// The environment variable drivers consult for mechanism selection.
pub const ENV_VAR: &str = "LP_MECHANISM";

/// The backend an unset `LP_MECHANISM` names: the paper's subject.
pub const DEFAULT_MECHANISM: &str = "lazypoline";

/// Detaches the calling thread from SUD interposition without an
/// [`ActiveMechanism`] handle: a selector-only row's selector to ALLOW,
/// then [`lazypoline::unenroll_current_thread`], whose `prctl` turns SUD
/// off from the engine's gate — from anywhere else an engine thread
/// would dispatch it.
///
/// Async-signal-safe (two stores, one prctl) — this is the hook for
/// signal-driven detach protocols like the macrobenchmark's `SIGUSR1`
/// switch to pure-zpoline operation, where the guard was deliberately
/// leaked in a child process.
pub fn detach_current_thread() {
    sud::set_selector(sud::Dispatch::Allow);
    lazypoline::unenroll_current_thread();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_every_table_row() {
        // Table II's rows, by name.
        for name in [
            "none",
            "sud-allow",
            "sud-raw",
            "sud",
            "zpoline",
            "lazypoline-nox",
            "lazypoline",
            "lazypoline-nobatch",
            "lazypoline-hardened",
        ] {
            let m = by_name(name).unwrap_or_else(|| panic!("{name} not registered"));
            assert_eq!(m.name(), name);
        }
        assert_eq!(names().len(), 9);
        assert!(by_name("ptrace").is_none(), "native ptrace is not a backend");
    }

    #[test]
    fn traits_match_table_one() {
        let lp = by_name("lazypoline").unwrap().traits();
        assert_eq!(lp.expressiveness, Expressiveness::Full);
        assert!(lp.exhaustive);
        assert_eq!(lp.efficiency, Efficiency::High);
        let zp = by_name("zpoline").unwrap().traits();
        assert!(!zp.exhaustive, "rewriting alone misses JIT syscalls");
        // The hardened row keeps lazypoline's winning profile.
        let hard = by_name("lazypoline-hardened").unwrap().traits();
        assert_eq!(hard, lp);
    }

    #[test]
    fn simulated_names_are_config_errors() {
        assert!(names().iter().all(|n| !n.contains(':')), "{:?}", names());
        // Every simulated row is gone, the hybrid last: selecting one is
        // a configuration error that lists the valid names.
        for row in [
            "lazypoline",
            "lazypoline+record",
            "baseline",
            "baseline-sud",
            "ptrace",
            "seccomp-bpf",
            "seccomp-user",
            "sud",
            "zpoline",
            "lazypoline-nox",
        ] {
            let name = format!("sim:{row}");
            assert!(by_name(&name).is_none(), "{name}");
            let err = EnvConfig::from_lookup(|v| (v == ENV_VAR).then(|| name.clone()))
                .expect_err("a simulated row is not a base");
            assert_eq!(err.var, ENV_VAR, "{name}");
            let shown = err.to_string();
            assert!(shown.contains(&names().join(", ")), "{name}: {shown}");
        }
    }

    #[test]
    fn from_env_defaults_and_rejects_unknown() {
        assert!(by_name("no-such-mechanism").is_none());
        let select = |name: &str| EnvConfig::from_lookup(|v| (v == ENV_VAR).then(|| name.to_string()));
        assert_eq!(select("").unwrap().mechanism, DEFAULT_MECHANISM);
        let err = select("no-such-mechanism").unwrap_err().to_string();
        assert!(err.contains("lazypoline"), "error lists valid names: {err}");
        // The grammar is part of the valid vocabulary and must appear
        // in the error too.
        for piece in [
            "LP_MECHANISM",
            "base(+layer)*",
            "replay:<trace-path>",
            "record, hooks, sfip",
        ] {
            assert!(
                err.contains(piece),
                "error prints the grammar ({piece}): {err}"
            );
        }
    }

    #[test]
    fn hooks_backend_composes_and_reports() {
        // `none` arms nothing, so the layer installs in this process.
        let m = by_name("none+hooks").expect("+hooks parses over any base");
        // With LP_HOOKS unset the stack holds only the compiled-in
        // handler — still a fully functional installation.
        let active = m
            .install_with(Box::new(interpose::CountHandler::new()), &EnvConfig::default())
            .expect("+hooks installs without hook libraries");
        let s = active.stats();
        assert_eq!(s.mechanism, "none+hooks");
        assert_eq!(s.hooks_loaded, 0);
        assert_eq!(s.hook_dispatches, 0);
        let stack = active.hook_stack().expect("+hooks exposes its stack");
        assert_eq!(stack.len(), 1, "compiled-in handler only");
        assert!(active.loaded_hooks().is_empty());
        // Non-hooks backends expose no stack.
        let plain = by_name("none")
            .unwrap()
            .install_with(Box::new(interpose::PassthroughHandler), &EnvConfig::default())
            .unwrap();
        assert!(plain.hook_stack().is_none());
        assert!(plain.loaded_hooks().is_empty());
    }

    #[test]
    fn sfip_backend_composes_and_requires_policy() {
        let m = by_name("lazypoline+sfip").expect("+sfip parses over engine bases");
        // An +sfip install without LP_SFIP_POLICY is a typed error,
        // never a silently unenforced mechanism; it fails before the
        // base arms.
        match m.install_with(Box::new(interpose::PassthroughHandler), &EnvConfig::default()) {
            Err(InstallError::Policy(::sfip::PolicyError::NoPolicyPath)) => {}
            Err(other) => panic!("expected NoPolicyPath, got {other}"),
            Ok(_) => panic!("install must fail without a policy"),
        }
    }

    #[test]
    fn grammar_composes_layers_and_rejects_malformed_names() {
        for (name, base) in [
            ("lazypoline+record+sfip", "lazypoline"),
            ("lazypoline-hardened+hooks+sfip", "lazypoline-hardened"),
            ("none+hooks+sfip", "none"),
            ("sud+sfip+hooks+record", "sud"),
        ] {
            let m = by_name(name).unwrap_or_else(|| panic!("{name} must parse"));
            assert_eq!(m.name(), name);
            assert_eq!(m.traits(), by_name(base).unwrap().traits());
            assert_eq!(m.is_available(), by_name(base).unwrap().is_available());
            // Repeat lookups hit the one cache.
            assert!(std::ptr::eq(m, by_name(name).unwrap()));
        }
        for bad in [
            "lazypoline+hooks+hooks",
            "lazypoline+record+sfip+record",
            "lazypoline+nope",
            "no-such-base+hooks",
            "+sfip",
            "lazypoline+",
            "lazypoline++sfip",
            "replay:",
        ] {
            assert!(by_name(bad).is_none(), "{bad:?} must not parse");
        }
        // `replay:` takes the whole remainder as its path.
        let r = by_name("replay:/tmp/a+record").expect("replay path may contain '+'");
        assert_eq!(r.name(), "replay:/tmp/a+record");
        assert_eq!(names().len(), 9, "composed names never join the static list");
    }

    #[test]
    fn counters_iterate_every_numeric_field_in_declaration_order() {
        let s = StatsSnapshot {
            dispatches: 7,
            ring_near_full: 2,
            sfip_violations: 3,
            ..StatsSnapshot::default()
        };
        let all: Vec<_> = s.counters().collect();
        assert_eq!(all.first(), Some(&("dispatches", 7)));
        assert_eq!(all.last(), Some(&("sfip_violations", 3)));
        assert!(all.contains(&("ring_near_full", 2)));
        assert_eq!(all.iter().map(|(_, v)| v).sum::<u64>(), 12);
    }

    #[test]
    fn counters_round_trip_by_name() {
        let s = StatsSnapshot {
            dispatches: 7,
            pkru_switches: 28,
            sfip_violations: 3,
            ..StatsSnapshot::default()
        };
        let mut back = StatsSnapshot::default();
        for (name, value) in s.counters() {
            *back.counter_mut(name).expect("every counter has a name") = value;
        }
        assert_eq!(back, s);
        assert!(back.counter_mut("sfip_mode").is_none());
    }

    #[test]
    fn since_subtracts_every_counter_and_keeps_the_labels() {
        let base = StatsSnapshot {
            dispatches: 5,
            sfip_checks: 5,
            hook_reloads: 9,
            ..StatsSnapshot::default()
        };
        let now = StatsSnapshot {
            mechanism: "x",
            sfip_mode: "count",
            dispatches: 12,
            sfip_checks: 12,
            hook_reloads: 3,
            ..StatsSnapshot::default()
        };
        let d = now.since(&base);
        assert_eq!((d.mechanism, d.sfip_mode), ("x", "count"));
        assert_eq!((d.dispatches, d.sfip_checks), (7, 7));
        assert_eq!(d.hook_reloads, 0, "saturates, never wraps");
        assert_eq!(d.counters().map(|(_, v)| v).sum::<u64>(), 14);
    }

    #[test]
    fn counters_keep_their_names_and_order() {
        // The `LAZYPOLINE_STATS` dump, `table2 --json`'s
        // `mechanism_stats`, the child-row wire and the shim's labels
        // all derive from this order.
        let names: Vec<_> = StatsSnapshot::default()
            .counters()
            .map(|(name, _)| name)
            .collect();
        assert_eq!(
            names,
            [
                "dispatches",
                "slow_path_hits",
                "sites_patched",
                "sites_from_cache",
                "unpatchable_emulations",
                "disabled_mode_emulations",
                "signals_wrapped",
                "patch_retries",
                "pages_blocklisted",
                "quarantined_handlers",
                "events_recorded",
                "events_dropped",
                "events_spilled",
                "ring_grows",
                "ring_near_full",
                "drain_yields",
                "replay_divergences",
                "bypass_blocked",
                "pkru_switches",
                "hooks_loaded",
                "hook_dispatches",
                "hook_reloads",
                "sfip_checks",
                "sfip_violations",
            ]
        );
    }

    #[test]
    fn none_backend_installs_and_reports_zero_stats() {
        let m = by_name("none").unwrap();
        assert!(m.is_available());
        let active = m
            .install_with(Box::new(interpose::PassthroughHandler), &EnvConfig::default())
            .expect("none is always installable");
        assert_eq!(active.mechanism_name(), "none");
        let s = active.stats();
        assert_eq!(s.dispatches, 0);
        assert_eq!(s.slow_path_hits, 0);
    }
}
