//! The one counter struct. Each counter has one owner (the engine, the
//! recorder, this crate's registry, a layer), and `mechanism::totals`
//! reads each owner once into a [`StatsSnapshot`].

/// Declares [`StatsSnapshot`], [`StatsSnapshot::counters`] and
/// [`StatsSnapshot::since`] from one field list, so a new counter is one
/// line here and every emitter that iterates `counters()` — and every
/// delta — picks it up.
macro_rules! stats_snapshot {
    ($($(#[$doc:meta])* $field:ident,)*) => {
        /// Uniform statistics: an owner's process-cumulative counters
        /// (the others stay 0), or an installation's **deltas since
        /// install** (`mechanism::ActiveMechanism::stats`), so drivers
        /// can attribute counts to one measurement phase.
        /// `hooks_loaded` (a gauge) and `sfip_mode` are not deltas:
        /// their layers set them.
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

            /// The counter [`counters`](Self::counters) names `name`,
            /// for readers that parse counters back by name.
            pub fn counter_mut(&mut self, name: &str) -> Option<&mut u64> {
                match name {
                    $(stringify!($field) => Some(&mut self.$field),)*
                    _ => None,
                }
            }

            /// Every counter minus `base`'s (saturating at 0); the
            /// labels are this snapshot's.
            pub fn since(&self, base: &StatsSnapshot) -> StatsSnapshot {
                StatsSnapshot {
                    $($field: self.$field.saturating_sub(base.$field),)*
                    ..*self
                }
            }
        }
    };
}

stats_snapshot! {
    /// Syscalls that reached the mechanism's dispatcher. The engine
    /// counts the application's only: a handler's own, made under the
    /// re-entry guard, are not counted.
    dispatches,
    /// Slow-path (`SIGSYS`) trips.
    slow_path_hits,
    /// Syscall sites rewritten to `call rax` by the slow path.
    sites_patched,
    /// Syscall sites rewritten at load from the proven-site cache, with
    /// no `SIGSYS` (nonzero only under the `LD_PRELOAD` shim).
    sites_from_cache,
    /// Syscalls emulated because their site is unpatchable.
    unpatchable_emulations,
    /// Syscalls emulated because lazy rewriting is off (a configuration
    /// state, not a failure).
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
    /// Always 0: a flight-recorder ring keeps the capacity it was
    /// claimed with. Kept because existing readers (lpbench) name it.
    ring_grows,
    /// Ring pushes that observed near-full (≥3/4) occupancy —
    /// recorder backpressure short of an actual drop.
    ring_near_full,
    /// Always 0: the recorder never yields the producer. Kept because
    /// existing readers (lpbench) name it.
    drain_yields,
    /// Divergences replay detected between the execution and its trace
    /// (nonzero only under `replay:<path>`).
    replay_divergences,
    /// Escape attempts the hardened backstop caught, and the
    /// application's SUD `prctl`s hardened mode refused (nonzero only
    /// under `lazypoline-hardened`).
    bypass_blocked,
    /// Always 0: the engine arms SUD with no selector, so nothing
    /// guards one with `WRPKRU`. Kept because existing readers (the
    /// hardened row's wire format, CI's hardened check) name it.
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
