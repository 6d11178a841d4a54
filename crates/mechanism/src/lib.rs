//! The mechanism layer: every interposition backend in the suite —
//! native engine configurations, raw SUD, and the simulated mechanisms
//! — behind one trait, one string-keyed registry, and one
//! install/teardown/stats lifecycle.
//!
//! The paper's claim is comparative (Table I/II line lazypoline up
//! against zpoline, SUD, seccomp, and ptrace as *peer* mechanisms), so
//! the suite treats "which mechanism" as data, not code: drivers ask
//! the registry for a backend [`by_name`] (or [`from_env`] via
//! `LP_MECHANISM`), [`Mechanism::install`] it around a
//! [`SyscallHandler`], and read a uniform [`StatsSnapshot`] from the
//! returned [`ActiveMechanism`] guard. Adding a backend is a one-file
//! change here; the micro/macro benchmarks, examples, and tests pick it
//! up by name.
//!
//! # Registered names
//!
//! Native (this process, this kernel):
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
//! | `lazypoline-hardened` | the hybrid with the pkey-protected selector and seccomp backstop (one-way per process; degrades gracefully without MPK) |
//!
//! Simulated (run a guest program, see [`ActiveMechanism::run_program`]):
//! `sim:baseline`, `sim:baseline-sud`, `sim:ptrace`, `sim:seccomp-bpf`,
//! `sim:seccomp-user`, `sim:sud`, `sim:zpoline`, `sim:lazypoline-nox`,
//! `sim:lazypoline`, `sim:lazypoline-hardened`.
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
//! restores the previous one). `sud-raw` owns the `SIGSYS` disposition
//! and must therefore be installed *before* any engine-backed backend
//! in a process's lifetime.

#![deny(missing_docs)]

mod hooks;
mod layer;
mod native;
mod record_replay;
mod sfip;
mod sim;

use interpose::SyscallHandler;
use layer::LayerGuard;
pub use hooks::{HOOKS_ENV, HOOKS_WATCH_ENV};
pub use record_replay::TRACE_OUT_ENV;
pub use replay;
pub use sim_interpose::{Efficiency, Expressiveness, Traits};
pub use zpoline::XstateMask;

/// An interposition backend: something that can wrap a
/// [`SyscallHandler`] around this process (native) or a guest program
/// (simulated).
pub trait Mechanism: Send + Sync {
    /// The registry key (`lazypoline`, `sud`, `sim:ptrace`, …).
    fn name(&self) -> &'static str;

    /// The mechanism's Table I row: expressiveness, exhaustiveness,
    /// efficiency class.
    fn traits(&self) -> Traits;

    /// Whether this backend can be installed on this host (kernel SUD
    /// support, `vm.mmap_min_addr = 0`, …). Simulated backends are
    /// always available.
    fn is_available(&self) -> bool;

    /// Activates the mechanism with `handler` as the interposer.
    ///
    /// The returned guard owns teardown: dropping it restores the
    /// previously installed handler, the thread's SUD selector, and
    /// (where changed) the xstate mask — see the crate docs for what
    /// native interposition cannot undo.
    fn install(&self, handler: Box<dyn SyscallHandler>)
        -> Result<ActiveMechanism, InstallError>;
}

/// Why [`Mechanism::install`] failed.
#[derive(Debug)]
pub enum InstallError {
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

/// Why [`ActiveMechanism::run_program`] failed.
#[derive(Debug)]
pub enum RunError {
    /// The backend is native; it interposes this process, not guest
    /// programs.
    NotSimulated,
    /// The simulator rejected the mechanism/program combination.
    Setup(sim_interpose::SetupError),
    /// The guest faulted or was killed.
    Sim(sim_kernel::kernel::SimError),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::NotSimulated => write!(f, "native mechanisms do not run guest programs"),
            RunError::Setup(e) => write!(f, "simulator setup failed: {e}"),
            RunError::Sim(e) => write!(f, "guest run failed: {e}"),
        }
    }
}

impl std::error::Error for RunError {}

/// Declares [`StatsSnapshot`] and [`StatsSnapshot::counters`] from one
/// field list, so a new counter is one line here and every emitter that
/// iterates `counters()` picks it up.
macro_rules! stats_snapshot {
    ($($(#[$doc:meta])* $field:ident,)*) => {
        /// Uniform per-installation statistics, reported as **deltas since
        /// install** so drivers can attribute counts to one measurement phase.
        ///
        /// Engine-backed natives report the full counter set (including the
        /// robustness counters: patch retries, blocklisted pages, quarantined
        /// handlers). `sud-raw` counts each `SIGSYS` trip as both a dispatch
        /// and a slow-path hit. Simulated backends map the sim kernel's
        /// counters (observed syscalls → `dispatches`, SUD/SIGSYS deliveries →
        /// `slow_path_hits`); counters without a simulated equivalent stay 0.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct StatsSnapshot {
            /// Registry key of the mechanism that produced this snapshot.
            pub mechanism: &'static str,
            $($(#[$doc])* pub $field: u64,)*
            /// The `+sfip` violation action (`kill`|`quarantine`|`count`;
            /// empty without that layer).
            pub sfip_mode: &'static str,
        }

        impl StatsSnapshot {
            /// Every numeric counter as `(field name, value)`, in
            /// declaration order — what report and JSON emitters iterate
            /// instead of naming the fields again.
            pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [$((stringify!($field), self.$field),)*].into_iter()
            }
        }
    };
}

stats_snapshot! {
    /// Syscalls that reached the mechanism's dispatcher.
    dispatches,
    /// Slow-path (`SIGSYS`) trips.
    slow_path_hits,
    /// Syscall sites rewritten to `call rax`.
    sites_patched,
    /// Syscalls emulated because their site is unpatchable.
    unpatchable_emulations,
    /// Syscalls emulated because lazy rewriting is off.
    disabled_mode_emulations,
    /// Application signal deliveries routed through the wrapper.
    signals_wrapped,
    /// Patch re-attempts after transient `mprotect` failures.
    patch_retries,
    /// Pages inserted into the unpatchable-page blocklist.
    pages_blocklisted,
    /// Interposer handlers quarantined after panicking.
    quarantined_handlers,
    /// Syscall events the flight recorder captured (nonzero only under
    /// a `+record` layer or a manually installed recorder).
    events_recorded,
    /// Syscall events the flight recorder dropped to its overflow
    /// policy.
    events_dropped,
    /// Records the drain path spilled from the rings into a trace file
    /// (async drain-thread sweeps and synchronous drains).
    events_spilled,
    /// Adaptive capacity doublings of flight-recorder rings.
    ring_grows,
    /// Ring pushes that observed near-full (≥3/4) occupancy —
    /// recorder backpressure short of an actual drop.
    ring_near_full,
    /// Near-full pushes that yielded the producer (`LP_DRAIN_YIELD`).
    drain_yields,
    /// Divergences replay detected between the execution and its trace
    /// (nonzero only under `replay:<path>`).
    replay_divergences,
    /// Escape attempts the hardened backstop caught (nonzero only
    /// under `lazypoline-hardened` / `sim:lazypoline-hardened`).
    bypass_blocked,
    /// WRPKRU open/close pairs around protected-selector writes
    /// (nonzero only with the pkey layer armed).
    pkru_switches,
    /// Dynamically loaded hooks currently attached to the handler stack
    /// (a gauge, not a delta; nonzero only under a `+hooks` layer).
    hooks_loaded,
    /// Syscall events dispatched into dynamically loaded hooks since
    /// install (one count per hook per event that reaches it).
    hook_dispatches,
    /// Hook libraries reloaded by the `LP_HOOKS_WATCH` mtime watcher
    /// since install (nonzero only under `+hooks` with the watcher
    /// enabled).
    hook_reloads,
    /// Syscall-flow transition checks performed since install (nonzero
    /// only under a `+sfip` layer).
    sfip_checks,
    /// Syscall-flow violations observed since install (nonzero only
    /// under a `+sfip` layer).
    sfip_violations,
}

impl StatsSnapshot {
    pub(crate) fn zero(mechanism: &'static str) -> StatsSnapshot {
        StatsSnapshot {
            mechanism,
            ..StatsSnapshot::default()
        }
    }
}

/// Result of one simulated guest run.
#[derive(Clone, Debug)]
pub struct SimOutcome {
    /// The guest's exit status.
    pub exit: i64,
    /// Simulated cycles consumed.
    pub cycles: u64,
    /// Syscall numbers the mechanism observed, in order (empty for
    /// mechanisms that cannot observe, e.g. `sim:seccomp-bpf`).
    pub observed: Vec<u64>,
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
    inner: Inner,
    /// Guards of the installed layers, innermost first; empty for a
    /// static row.
    layers: Vec<LayerGuard>,
}

pub(crate) enum Inner {
    Native(Box<native::NativeActive>),
    Sim(sim::SimActive),
}

impl Drop for ActiveMechanism {
    fn drop(&mut self) {
        self.layers.retain(|g| !matches!(g, LayerGuard::Hooks(_)));
    }
}

impl ActiveMechanism {
    pub(crate) fn new(name: &'static str, inner: Inner) -> ActiveMechanism {
        ActiveMechanism {
            name,
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
    /// base's snapshot, then each layer fills in its own fields.
    pub fn stats(&self) -> StatsSnapshot {
        let mut s = match &self.inner {
            Inner::Native(n) => n.snapshot(self.name),
            Inner::Sim(s) => s.snapshot(self.name),
        };
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
    pub fn finish_recording(&mut self) -> Option<std::io::Result<replay::RecordSummary>> {
        self.layers.iter_mut().find_map(|g| match g {
            LayerGuard::Record(session) => session.take().map(replay::Recorder::finish),
            _ => None,
        })
    }

    /// The first divergence a `replay:<path>` backend observed, if any.
    /// `None` for other backends or while the replay is on-script.
    pub fn replay_divergence(&self) -> Option<replay::Divergence> {
        self.replay_state()?.first_divergence()
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
    /// pure rewriting), raw-SUD backends park the selector at ALLOW.
    /// No-op for `none` and simulated backends.
    pub fn detach(&mut self) {
        if let Inner::Native(n) = &mut self.inner {
            n.detach();
        }
    }

    /// Changes which extended-state components the fast path preserves.
    /// Returns `false` (and does nothing) unless the backend is
    /// engine-based. A non-default mask is restored to the full default
    /// on teardown.
    pub fn set_xstate(&mut self, mask: XstateMask) -> bool {
        match &mut self.inner {
            Inner::Native(n) => n.set_xstate(mask),
            Inner::Sim(_) => false,
        }
    }

    /// Runs a guest program under a simulated mechanism, replaying the
    /// mechanism's observations through the installed handler (same
    /// event/post shape as the native dispatchers) and accumulating
    /// [`StatsSnapshot`] counters. Errors with [`RunError::NotSimulated`]
    /// on native backends.
    pub fn run_program(&mut self, program: &[u8]) -> Result<SimOutcome, RunError> {
        let Inner::Sim(sim) = &mut self.inner else {
            return Err(RunError::NotSimulated);
        };
        let out = sim.run(program);
        for g in &mut self.layers {
            g.after_run();
        }
        out
    }
}

/// Iterates every registered backend, native first.
pub fn all() -> impl Iterator<Item = &'static dyn Mechanism> {
    native::NATIVE_BACKENDS
        .iter()
        .map(|b| b as &dyn Mechanism)
        .chain(sim::SIM_BACKENDS.iter().map(|b| b as &dyn Mechanism))
}

/// Every registered backend name, native first.
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

/// Static-registry lookup only: what a composed name's base, a trace
/// header's source mechanism, and `LP_REPLAY_BASE` resolve through.
pub(crate) fn static_by_name(name: &str) -> Option<&'static dyn Mechanism> {
    all().find(|m| m.name() == name)
}

/// The environment variable drivers consult for mechanism selection.
pub const ENV_VAR: &str = "LP_MECHANISM";

/// The backend [`from_env`] falls back to: the paper's subject.
pub const DEFAULT_MECHANISM: &str = "lazypoline";

/// The backend named by `LP_MECHANISM`, or [`DEFAULT_MECHANISM`] when
/// unset/empty. An unknown name is an error (listing the valid names),
/// not a silent fallback.
pub fn from_env() -> Result<&'static dyn Mechanism, UnknownMechanism> {
    match std::env::var(ENV_VAR) {
        Ok(name) if !name.is_empty() => by_name(&name).ok_or(UnknownMechanism(name)),
        _ => Ok(by_name(DEFAULT_MECHANISM).expect("default mechanism is registered")),
    }
}

/// `LP_MECHANISM` named a mechanism the registry does not know.
#[derive(Debug)]
pub struct UnknownMechanism(pub String);

impl std::fmt::Display for UnknownMechanism {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown mechanism {:?} (valid: base(+layer)* with base one of {}, or \
             replay:<trace-path>; layer one of record, hooks, sfip, each at most once)",
            self.0,
            names().join(", ")
        )
    }
}

impl std::error::Error for UnknownMechanism {}

/// Detaches the calling thread from SUD interposition without an
/// [`ActiveMechanism`] handle: selector to ALLOW, then SUD off.
///
/// Async-signal-safe (one store, one prctl) — this is the hook for
/// signal-driven detach protocols like the macrobenchmark's `SIGUSR1`
/// switch to pure-zpoline operation, where the guard was deliberately
/// leaked in a child process.
pub fn detach_current_thread() {
    sud::set_selector(sud::Dispatch::Allow);
    let _ = sud::disable_thread();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_every_table_row() {
        // Table II native rows + every simulated mechanism, by name.
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
            "sim:baseline",
            "sim:baseline-sud",
            "sim:ptrace",
            "sim:seccomp-bpf",
            "sim:seccomp-user",
            "sim:sud",
            "sim:zpoline",
            "sim:lazypoline-nox",
            "sim:lazypoline",
            "sim:lazypoline-hardened",
        ] {
            let m = by_name(name).unwrap_or_else(|| panic!("{name} not registered"));
            assert_eq!(m.name(), name);
        }
        assert_eq!(names().len(), 19);
        assert!(by_name("ptrace").is_none(), "native ptrace is not a backend");
    }

    #[test]
    fn traits_match_table_one() {
        let lp = by_name("lazypoline").unwrap().traits();
        assert_eq!(lp.expressiveness, Expressiveness::Full);
        assert!(lp.exhaustive);
        assert_eq!(lp.efficiency, Efficiency::High);
        // Native and simulated rows of the same mechanism agree.
        assert_eq!(lp, by_name("sim:lazypoline").unwrap().traits());
        assert_eq!(
            by_name("sud").unwrap().traits(),
            by_name("sim:sud").unwrap().traits()
        );
        let zp = by_name("zpoline").unwrap().traits();
        assert!(!zp.exhaustive, "rewriting alone misses JIT syscalls");
        // The hardened rows keep lazypoline's winning profile, and the
        // native and simulated variants agree.
        let hard = by_name("lazypoline-hardened").unwrap().traits();
        assert_eq!(hard.expressiveness, Expressiveness::Full);
        assert!(hard.exhaustive);
        assert_eq!(hard.efficiency, Efficiency::High);
        assert_eq!(
            hard,
            by_name("sim:lazypoline-hardened").unwrap().traits()
        );
    }

    #[test]
    fn from_env_defaults_and_rejects_unknown() {
        // Note: reads the ambient LP_MECHANISM, so only assert the
        // unset path when the harness did not set one.
        if std::env::var(ENV_VAR).is_err() {
            assert_eq!(from_env().unwrap().name(), DEFAULT_MECHANISM);
        }
        assert!(by_name("no-such-mechanism").is_none());
        let err = UnknownMechanism("no-such-mechanism".into()).to_string();
        assert!(err.contains("lazypoline"), "error lists valid names: {err}");
        // The grammar is part of the valid vocabulary and must appear
        // in the error too.
        for piece in [
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
        let m = by_name("sim:lazypoline+hooks").expect("+hooks parses over sim bases");
        // With LP_HOOKS unset the stack holds only the compiled-in
        // handler — still a fully functional installation. (Skip when
        // the harness exported LP_HOOKS: this test asserts emptiness.)
        if std::env::var(HOOKS_ENV).is_err() {
            let mut active = m
                .install(Box::new(interpose::CountHandler::new()))
                .expect("sim +hooks installs without hook libraries");
            let out = active
                .run_program(&sim_workloads::bench::microbench(20))
                .expect("guest runs");
            assert_eq!(out.exit, 0);
            let s = active.stats();
            assert_eq!(s.mechanism, "sim:lazypoline+hooks");
            assert!(s.dispatches > 0, "compiled-in handler still dispatches");
            assert_eq!(s.hooks_loaded, 0);
            assert_eq!(s.hook_dispatches, 0);
            let stack = active.hook_stack().expect("+hooks exposes its stack");
            assert_eq!(stack.len(), 1, "compiled-in handler only");
            assert!(active.loaded_hooks().is_empty());
        }
        // Non-hooks backends expose no stack.
        let plain = by_name("none")
            .unwrap()
            .install(Box::new(interpose::PassthroughHandler))
            .unwrap();
        assert!(plain.hook_stack().is_none());
        assert!(plain.loaded_hooks().is_empty());
    }

    #[test]
    fn sfip_backend_composes_and_requires_policy() {
        let m = by_name("sim:lazypoline+sfip").expect("+sfip parses over sim bases");
        // An +sfip install without LP_SFIP_POLICY is a typed error,
        // never a silently unenforced mechanism. (Skip when the
        // harness exported a policy for the whole run.)
        if std::env::var(::sfip::POLICY_ENV).is_err() {
            match m.install(Box::new(interpose::PassthroughHandler)) {
                Err(InstallError::Policy(::sfip::PolicyError::NoPolicyPath)) => {}
                Err(other) => panic!("expected NoPolicyPath, got {other}"),
                Ok(_) => panic!("install must fail without a policy"),
            }
        }
    }

    #[test]
    fn grammar_composes_layers_and_rejects_malformed_names() {
        for (name, base) in [
            ("lazypoline+record+sfip", "lazypoline"),
            ("lazypoline-hardened+hooks+sfip", "lazypoline-hardened"),
            ("sim:lazypoline+hooks+sfip", "sim:lazypoline"),
            ("sim:ptrace+sfip+hooks+record", "sim:ptrace"),
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
        assert_eq!(
            names().len(),
            19,
            "composed names never join the static list"
        );
    }

    #[test]
    fn counters_iterate_every_numeric_field_in_declaration_order() {
        let s = StatsSnapshot {
            dispatches: 7,
            drain_yields: 2,
            sfip_violations: 3,
            ..StatsSnapshot::zero("x")
        };
        let all: Vec<_> = s.counters().collect();
        assert_eq!(all.first(), Some(&("dispatches", 7)));
        assert_eq!(all.last(), Some(&("sfip_violations", 3)));
        assert!(all.contains(&("drain_yields", 2)));
        assert_eq!(all.iter().map(|(_, v)| v).sum::<u64>(), 12);
    }

    #[test]
    fn none_backend_installs_and_reports_zero_stats() {
        let m = by_name("none").unwrap();
        assert!(m.is_available());
        let active = m
            .install(Box::new(interpose::PassthroughHandler))
            .expect("none is always installable");
        assert_eq!(active.mechanism_name(), "none");
        let s = active.stats();
        assert_eq!(s.dispatches, 0);
        assert_eq!(s.slow_path_hits, 0);
    }

    #[test]
    fn sim_backend_runs_guest_and_counts() {
        let m = by_name("sim:lazypoline").unwrap();
        assert!(m.is_available());
        let mut active = m
            .install(Box::new(interpose::CountHandler::new()))
            .expect("sim backends always install");
        let program = sim_workloads::bench::microbench(50);
        let out = active.run_program(&program).expect("guest runs");
        assert_eq!(out.exit, 0);
        assert!(out.cycles > 0);
        assert!(!out.observed.is_empty());
        let s = active.stats();
        assert_eq!(s.dispatches, out.observed.len() as u64);
        assert!(s.slow_path_hits > 0, "lazy rewriting trips SIGSYS per site");
        assert!(
            s.slow_path_hits < s.dispatches,
            "hybrid: slow path per site, not per call"
        );
    }

    #[test]
    fn native_backend_rejects_run_program() {
        let m = by_name("none").unwrap();
        let mut active = m.install(Box::new(interpose::PassthroughHandler)).unwrap();
        assert!(matches!(
            active.run_program(&[]),
            Err(RunError::NotSimulated)
        ));
    }
}
