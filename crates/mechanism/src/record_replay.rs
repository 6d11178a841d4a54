//! Record/replay payloads: the `+record` layer composes the flight
//! recorder around any stack; the `replay:<trace-path>` base
//! re-executes a workload against a recorded trace. Also the
//! recorder-counter deltas every base reports.

use std::path::Path;
use std::sync::Arc;

use replay::{Recorder, ReplayState};
use sim_interpose::{Efficiency, Expressiveness, Traits};

use crate::{static_by_name, InstallError, Mechanism, StatsSnapshot};

/// Environment variable naming the trace file a `+record` layer drains
/// its rings into. Unset: the flight recorder still runs (rings +
/// counters), but nothing is written to disk. A literal `%p` in the
/// path is replaced by the pid (the `valgrind --log-file` convention),
/// so a process tree that inherits one value leaves one trace each;
/// without it the last process to finish owns the name (the session
/// records under `<path>.<pid>.part` until then, see
/// [`replay::Recorder`]).
pub const TRACE_OUT_ENV: &str = "LP_TRACE_OUT";

/// Environment variable overriding the base mechanism a
/// `replay:<path>` backend installs (default: the trace header's
/// source mechanism).
pub const REPLAY_BASE_ENV: &str = "LP_REPLAY_BASE";

/// Writes the recorder/replay counters into `s` as deltas between two
/// [`lazypoline::stats`] reads (which gather them whether or not the
/// engine ever initialised). They are registry-level, not engine-level,
/// so every base — native or simulated — reports them: the raw-SUD
/// handler dispatches through the same registry, and a `+record` layer
/// may envelop any base.
pub(crate) fn fill_recorder_deltas(
    s: &mut StatsSnapshot,
    base: &lazypoline::Stats,
    now: &lazypoline::Stats,
) {
    s.events_recorded = now.events_recorded.saturating_sub(base.events_recorded);
    s.events_dropped = now.events_dropped.saturating_sub(base.events_dropped);
    s.events_spilled = now.events_spilled.saturating_sub(base.events_spilled);
    s.ring_grows = now.ring_grows.saturating_sub(base.ring_grows);
    s.ring_near_full = now.ring_near_full.saturating_sub(base.ring_near_full);
    s.drain_yields = now.drain_yields.saturating_sub(base.drain_yields);
    s.replay_divergences = now
        .replay_divergences
        .saturating_sub(base.replay_divergences);
}

/// The `+record` layer's trace session, if `LP_TRACE_OUT` names a
/// file. Its header names the *static* base, so `replay:` can resolve
/// it with a static lookup.
pub(crate) fn open_session(base_name: &str) -> Result<Option<Recorder>, InstallError> {
    match std::env::var(TRACE_OUT_ENV) {
        Ok(path) if !path.is_empty() => {
            let path = path.replace("%p", &std::process::id().to_string());
            Recorder::to_path(path.as_ref(), base_name)
                .map(Some)
                .map_err(InstallError::Io)
        }
        _ => Ok(None),
    }
}

/// Table I row of a `replay:<path>` backend.
pub(crate) const REPLAY_TRAITS: Traits = Traits {
    name: "deterministic replay",
    expressiveness: Expressiveness::Full,
    exhaustive: true,
    efficiency: Efficiency::High,
};

/// The `replay:<path>` base: loads the trace and picks the static row
/// to re-execute under.
pub(crate) fn load_replay(
    path: &Path,
) -> Result<(&'static dyn Mechanism, Arc<ReplayState>), InstallError> {
    let state = ReplayState::load(path).map_err(|e| InstallError::Io(e.into()))?;
    let base = replay_base_for(&state.header().source_mechanism)?;
    if !base.is_available() {
        return Err(InstallError::Unsupported(
            "replay base mechanism unavailable on this host",
        ));
    }
    Ok((base, state))
}

/// The base mechanism to re-execute under: `LP_REPLAY_BASE` if set,
/// else the trace's own source mechanism, else the paper's subject
/// (`lazypoline` / `sim:lazypoline` by source family).
fn replay_base_for(source: &str) -> Result<&'static dyn Mechanism, InstallError> {
    if let Ok(name) = std::env::var(REPLAY_BASE_ENV) {
        if !name.is_empty() {
            return static_by_name(&name)
                .ok_or(InstallError::Unsupported("LP_REPLAY_BASE names no backend"));
        }
    }
    if let Some(m) = static_by_name(source) {
        return Ok(m);
    }
    let fallback = if source.starts_with("sim:") {
        "sim:lazypoline"
    } else {
        "lazypoline"
    };
    static_by_name(fallback).ok_or(InstallError::Unsupported("no replay base backend"))
}
