//! Record/replay payloads: the `+record` layer composes the flight
//! recorder around any stack; the `replay:<trace-path>` base
//! re-executes a workload against a recorded trace.

use std::ffi::OsStr;
use std::os::unix::ffi::OsStrExt;
use std::path::Path;
use std::sync::Arc;

use replay::{Recorder, ReplayState};

use crate::{static_by_name, EnvConfig, InstallError, Mechanism};

// The entry stub's record exit writes `replay::EventRecord`s through a
// ring's cursor at offsets of `zpoline`'s own, which cannot name the
// recorder: this crate names both, and holds one layout to the other.
const _: () = {
    use std::mem::{offset_of, size_of};
    use zpoline::trampoline::record as stub;
    assert!(size_of::<replay::EventRecord>() == stub::SLOT_SIZE);
    assert!(offset_of!(replay::EventRecord, sysno) == stub::SYSNO);
    assert!(offset_of!(replay::EventRecord, args) == stub::ARGS);
    assert!(offset_of!(replay::EventRecord, ret) == stub::RET);
    assert!(offset_of!(replay::EventRecord, tsc) == stub::TSC);
    assert!(offset_of!(replay::EventRecord, site) == stub::SITE);
    assert!(offset_of!(replay::EventRecord, tid) == stub::TID);
    let cursor = replay::ring::CURSOR_OFFSETS;
    assert!(cursor[0] == stub::CLAIM);
    assert!(cursor[1] == stub::LIMIT);
    assert!(cursor[2] == stub::BIAS);
    assert!(cursor[3] == stub::HEAD);
    assert!(cursor[4] == stub::NEST);
    assert!(cursor[5] == stub::TAIL);
};

/// Links the recorder to the thread blocks the entry stub reads: a push
/// hands its thread's block the ring's record window, both writers
/// stamp the tid the block keeps (a fork child's own: the engine
/// forgets the parent's), and a call the record exit found no room for
/// is pushed here.
pub(crate) fn link_thread_blocks() {
    zpoline::set_record_late(record_late);
    replay::ring::on_thread_link(replay::ring::ThreadLink {
        tid: || zpoline::thread_block().tid(),
        window: |cursor| zpoline::thread_block().set_record_window(cursor),
    });
}

/// The record exit's [`zpoline::RecordLateFn`]: the recorder's push of a
/// call the stub executed, under the re-entry guard (a `futex` that
/// wakes the drain thread is the interposer's, not the application's).
unsafe extern "C" fn record_late(frame: *const zpoline::RawFrame, ret: u64) {
    let block = zpoline::thread_block();
    let was = block.set_in_dispatch(true);
    // SAFETY: the stub passes the frame it built on its stack.
    let frame = unsafe { &*frame };
    replay::record_call(&frame.syscall_args(), ret, frame.ret_addr);
    block.set_in_dispatch(was);
}

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
    // The drainer's syscalls (its first `malloc`'s arena, its exit
    // path) leave through sites the application's threads rewrote: keep
    // them from every layer, not only the recorder.
    replay::on_drain_thread_start(lazypoline::proven::private_thread);
    Recorder::open(Path::new(OsStr::from_bytes(&path)), base_name, cfg.drain)
        .map(Some)
        .map_err(InstallError::Io)
}

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

/// The base mechanism to re-execute under: the trace's own source
/// mechanism, else the paper's subject.
fn replay_base_for(source: &str) -> Result<&'static dyn Mechanism, InstallError> {
    static_by_name(source)
        .or_else(|| static_by_name(crate::DEFAULT_MECHANISM))
        .ok_or(InstallError::Unsupported("no replay base backend"))
}
