//! Record/replay payloads: the `+record` layer composes the flight
//! recorder around any stack; the `replay:<trace-path>` base
//! re-executes a workload against a recorded trace.

use std::ffi::OsStr;
use std::os::unix::ffi::OsStrExt;
use std::path::Path;
use std::sync::Arc;

use replay::{Recorder, ReplayState};

use crate::{static_by_name, ConfigError, EnvConfig, InstallError, Mechanism, REPLAY_BASE_ENV};

/// The `+record` layer's trace session, if `LP_TRACE_OUT` names a
/// file, drained as `LP_DRAIN` says. Its header names the *static*
/// base, so `replay:` can resolve it with a static lookup.
pub(crate) fn open_session(
    base_name: &str,
    cfg: &EnvConfig,
) -> Result<Option<Recorder>, InstallError> {
    let Some(path) = &cfg.trace_out else {
        return Ok(None);
    };
    // Bytewise: a path need not be UTF-8.
    let mut path = path.as_os_str().as_bytes().to_vec();
    while let Some(at) = path.windows(2).position(|w| w == b"%p") {
        path.splice(at..at + 2, std::process::id().to_string().into_bytes());
    }
    Recorder::open(Path::new(OsStr::from_bytes(&path)), base_name, cfg.drain)
        .map(Some)
        .map_err(InstallError::Io)
}

/// The `replay:<path>` base: loads the trace and picks the static row
/// to re-execute under.
pub(crate) fn load_replay(
    path: &Path,
    cfg: &EnvConfig,
) -> Result<(&'static dyn Mechanism, Arc<ReplayState>), InstallError> {
    let state = ReplayState::load(path).map_err(|e| InstallError::Io(e.into()))?;
    let base = replay_base_for(&state.header().source_mechanism, cfg)?;
    if !base.is_available() {
        return Err(InstallError::Unsupported(
            "replay base mechanism unavailable on this host",
        ));
    }
    Ok((base, state))
}

/// The base mechanism to re-execute under: `LP_REPLAY_BASE` if set,
/// else the trace's own source mechanism, else the paper's subject.
fn replay_base_for(source: &str, cfg: &EnvConfig) -> Result<&'static dyn Mechanism, InstallError> {
    if let Some(name) = cfg.replay_base {
        return static_by_name(name).ok_or_else(|| ConfigError::new(REPLAY_BASE_ENV, name).into());
    }
    if let Some(m) = static_by_name(source) {
        return Ok(m);
    }
    static_by_name(crate::DEFAULT_MECHANISM).ok_or(InstallError::Unsupported("no replay base backend"))
}
