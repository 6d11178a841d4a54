//! The replay-side interposer: re-injects recorded results for
//! nondeterministic syscalls and detects divergence from the trace.

use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use interpose::{Action, SyscallEvent, SyscallHandler};
use syscalls::nr;

use crate::event::EventRecord;
use crate::format::{read_trace_path, TraceError, TraceHeader};

/// Syscalls whose results the kernel does not reproduce run-to-run —
/// replay substitutes the recorded result instead of re-executing.
///
/// | syscall | source of nondeterminism |
/// |---|---|
/// | `read` | pipe/socket/tty payloads, short reads |
/// | `recvfrom` / `recvmsg` | network payloads and timing |
/// | `clock_gettime` / `gettimeofday` | wall clock |
/// | `getrandom` | kernel entropy |
pub const NONDETERMINISTIC: [u64; 6] = [
    nr::READ,
    nr::RECVFROM,
    nr::RECVMSG,
    nr::CLOCK_GETTIME,
    nr::GETRANDOM,
    nr::GETTIMEOFDAY,
];

/// Whether replay re-injects the recorded result for `sysno` instead
/// of re-executing it.
pub fn is_nondeterministic(sysno: u64) -> bool {
    NONDETERMINISTIC.contains(&sysno)
}

/// How a replayed execution departed from its trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DivergenceKind {
    /// The execution made a different syscall than the trace expected.
    Sysno,
    /// The execution made more syscalls than the trace holds.
    TraceExhausted,
}

/// A structured divergence report: where in the trace the replay went
/// off-script, what the trace expected, and what actually happened.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// Record index into the trace (0-based).
    pub offset: u64,
    /// The record the trace expected (`None` when exhausted).
    pub expected: Option<EventRecord>,
    /// Syscall number the execution actually made.
    pub actual_sysno: u64,
    /// Arguments the execution actually passed.
    pub actual_args: [u64; 6],
    /// What kind of mismatch.
    pub kind: DivergenceKind,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let actual = syscalls::SyscallArgs::new(self.actual_sysno, self.actual_args);
        match self.kind {
            DivergenceKind::Sysno => write!(
                f,
                "divergence at trace offset {}: expected {}({}) but execution made {}({})",
                self.offset,
                self.expected.as_ref().map_or("?", |e| name_of(e.sysno)),
                self.expected.as_ref().map_or(0, |e| e.sysno),
                name_of(actual.nr),
                actual.nr,
            ),
            DivergenceKind::TraceExhausted => write!(
                f,
                "divergence at trace offset {}: trace exhausted but execution made {}({})",
                self.offset,
                name_of(actual.nr),
                actual.nr,
            ),
        }
    }
}

fn name_of(sysno: u64) -> &'static str {
    nr::name(sysno).unwrap_or("?")
}

/// Why a finished replay did not reproduce its trace.
#[derive(Clone, Debug)]
pub enum ReplayFailure {
    /// The execution departed from the trace: the first departure, and
    /// how many there were.
    Diverged(Box<Divergence>, u64),
    /// The execution ended with records of the trace left over: it
    /// consumed `consumed` of `len`, and a call of `next_sysno` was due.
    Unconsumed {
        /// Records the execution consumed.
        consumed: usize,
        /// Records in the trace.
        len: usize,
        /// The syscall of the first record the execution never made.
        next_sysno: u64,
    },
}

impl std::fmt::Display for ReplayFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayFailure::Diverged(first, count) => {
                write!(f, "{count} divergence(s); first: {first}")
            }
            ReplayFailure::Unconsumed { consumed, len, next_sysno } => write!(
                f,
                "execution ended after {consumed}/{len} trace records; next was {}({next_sysno})",
                name_of(*next_sysno),
            ),
        }
    }
}

/// Divergences observed by replay handlers (process lifetime) — folded
/// into engine stats and `table2 --json` alongside the record counters.
static REPLAY_DIVERGENCES: AtomicU64 = AtomicU64::new(0);

/// Divergences observed by replay handlers since process start.
pub fn replay_divergences() -> u64 {
    REPLAY_DIVERGENCES.load(Ordering::Relaxed)
}

/// Shared replay progress, visible to the handler (on the hot path) and
/// to whoever installed it (for the verdict afterwards).
pub struct ReplayState {
    records: Vec<EventRecord>,
    header: TraceHeader,
    /// Next trace record to match.
    cursor: AtomicUsize,
    /// Divergences this session.
    divergences: AtomicU64,
    /// First divergence, kept for the structured report.
    first: Mutex<Option<Divergence>>,
}

impl ReplayState {
    /// Loads a trace from disk.
    pub fn load(path: &Path) -> Result<Arc<ReplayState>, TraceError> {
        let (header, records) = read_trace_path(path)?;
        Ok(Arc::new(ReplayState {
            records,
            header,
            cursor: AtomicUsize::new(0),
            divergences: AtomicU64::new(0),
            first: Mutex::new(None),
        }))
    }

    /// The trace header (source mechanism, calibration, drop count).
    pub fn header(&self) -> &TraceHeader {
        &self.header
    }

    /// Records in the trace.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// How many trace records have been consumed.
    pub fn position(&self) -> usize {
        self.cursor.load(Ordering::Relaxed).min(self.records.len())
    }

    /// Divergences observed this session.
    pub fn divergences(&self) -> u64 {
        self.divergences.load(Ordering::Relaxed)
    }

    /// The first divergence observed, if any — the structured verdict.
    pub fn first_divergence(&self) -> Option<Divergence> {
        self.first.lock().unwrap().clone()
    }

    /// The verdict once the execution is over: the number of records
    /// replayed, if nothing diverged and every record was consumed. An
    /// execution that stops short of its trace did not replay it.
    pub fn verdict(&self) -> Result<usize, ReplayFailure> {
        if let Some(first) = self.first_divergence() {
            return Err(ReplayFailure::Diverged(Box::new(first), self.divergences()));
        }
        let consumed = self.position();
        match self.records.get(consumed) {
            None => Ok(consumed),
            Some(next) => Err(ReplayFailure::Unconsumed {
                consumed,
                len: self.len(),
                next_sysno: next.sysno,
            }),
        }
    }

    fn diverge(&self, d: Divergence) {
        self.divergences.fetch_add(1, Ordering::Relaxed);
        REPLAY_DIVERGENCES.fetch_add(1, Ordering::Relaxed);
        let mut first = self.first.lock().unwrap();
        first.get_or_insert(d);
    }
}

/// A [`SyscallHandler`] that replays a recorded trace: each intercepted
/// syscall is matched against the next trace record; nondeterministic
/// syscalls get the recorded result re-injected ([`Action::Return`]),
/// deterministic ones pass through to the kernel; any mismatch raises a
/// counted, structured [`Divergence`] and the execution continues
/// best-effort (passthrough) so the report covers the whole run.
pub struct ReplayHandler {
    state: Arc<ReplayState>,
    /// An observer handler that sees every event (its `handle` runs
    /// first, its `post` runs after a passthrough) but whose decision
    /// the replay matching overrides — the trace, not the observer,
    /// scripts the execution.
    observer: Option<Box<dyn SyscallHandler>>,
}

impl ReplayHandler {
    /// Replays `state`, matching syscall numbers: arguments are not
    /// compared, since pointer arguments move with the address-space
    /// layout from one run to the next.
    pub fn new(state: Arc<ReplayState>) -> ReplayHandler {
        ReplayHandler {
            state,
            observer: None,
        }
    }

    /// Lets `observer` watch every replayed event: its `handle` runs
    /// first (decision ignored), its `post` runs after passthroughs.
    pub fn observing(mut self, observer: Box<dyn SyscallHandler>) -> ReplayHandler {
        self.observer = Some(observer);
        self
    }

    /// The shared progress/verdict state.
    pub fn state(&self) -> &Arc<ReplayState> {
        &self.state
    }
}

impl SyscallHandler for ReplayHandler {
    fn handle(&self, event: &mut SyscallEvent) -> Action {
        if let Some(obs) = &self.observer {
            // Observation only: the trace decides the action.
            let _ = obs.handle(event);
        }
        let idx = self.state.cursor.fetch_add(1, Ordering::Relaxed);
        let Some(rec) = self.state.records.get(idx) else {
            self.state.diverge(Divergence {
                offset: idx as u64,
                expected: None,
                actual_sysno: event.call.nr,
                actual_args: event.call.args,
                kind: DivergenceKind::TraceExhausted,
            });
            return Action::Passthrough;
        };
        if rec.sysno != event.call.nr {
            self.state.diverge(Divergence {
                offset: idx as u64,
                expected: Some(*rec),
                actual_sysno: event.call.nr,
                actual_args: event.call.args,
                kind: DivergenceKind::Sysno,
            });
            return Action::Passthrough;
        }
        if is_nondeterministic(rec.sysno) {
            // Re-inject the recorded result instead of re-executing:
            // the replayed run sees the same bytes/time/entropy the
            // recorded run saw.
            Action::Return(rec.ret)
        } else {
            Action::Passthrough
        }
    }

    fn post(&self, event: &SyscallEvent, ret: u64) -> u64 {
        match &self.observer {
            Some(obs) => obs.post(event, ret),
            None => ret,
        }
    }

    fn name(&self) -> &str {
        "replay"
    }

    /// What the observer declares: matching against the trace is
    /// integer work.
    fn leaves_fp_env(&self) -> bool {
        self.observer.as_ref().is_none_or(|obs| obs.leaves_fp_env())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::TraceWriter;
    use std::io::Cursor;
    use syscalls::SyscallArgs;

    fn state_of(records: &[EventRecord]) -> Arc<ReplayState> {
        // Build via the wire format so the load path is exercised.
        let header = TraceHeader::new("lazypoline", 0);
        let mut w = TraceWriter::new(Cursor::new(Vec::new()), &header).unwrap();
        for r in records {
            w.append(r).unwrap();
        }
        let (cursor, _) = w.finalize(0).unwrap();
        let (header, records) = crate::format::read_trace(Cursor::new(cursor.into_inner())).unwrap();
        Arc::new(ReplayState {
            records,
            header,
            cursor: AtomicUsize::new(0),
            divergences: AtomicU64::new(0),
            first: Mutex::new(None),
        })
    }

    fn rec(sysno: u64, ret: u64) -> EventRecord {
        EventRecord {
            sysno,
            ret,
            ..EventRecord::ZERO
        }
    }

    fn drive(h: &ReplayHandler, sysno: u64) -> Action {
        let mut ev = SyscallEvent::new(SyscallArgs::nullary(sysno));
        h.handle(&mut ev)
    }

    #[test]
    fn declares_what_it_observes_with() {
        struct Undeclared;
        impl SyscallHandler for Undeclared {
            fn handle(&self, _ev: &mut SyscallEvent) -> Action {
                Action::Passthrough
            }
        }
        let state = state_of(&[]);
        assert!(ReplayHandler::new(Arc::clone(&state)).leaves_fp_env());
        let counted = ReplayHandler::new(Arc::clone(&state))
            .observing(Box::new(interpose::CountHandler::new()));
        assert!(counted.leaves_fp_env());
        assert!(!ReplayHandler::new(state).observing(Box::new(Undeclared)).leaves_fp_env());
    }

    #[test]
    fn nondeterministic_results_are_reinjected() {
        let h = ReplayHandler::new(state_of(&[
            rec(nr::GETPID, 42),
            rec(nr::READ, 17),
            rec(nr::CLOCK_GETTIME, 0),
        ]));
        assert_eq!(drive(&h, nr::GETPID), Action::Passthrough);
        assert_eq!(drive(&h, nr::READ), Action::Return(17));
        assert_eq!(drive(&h, nr::CLOCK_GETTIME), Action::Return(0));
        assert_eq!(h.state().divergences(), 0);
        assert_eq!(h.state().position(), 3);
    }

    #[test]
    fn sysno_mismatch_is_a_structured_divergence() {
        let h = ReplayHandler::new(state_of(&[rec(nr::GETPID, 0)]));
        assert_eq!(drive(&h, nr::WRITE), Action::Passthrough);
        assert_eq!(h.state().divergences(), 1);
        let d = h.state().first_divergence().unwrap();
        assert_eq!(d.kind, DivergenceKind::Sysno);
        assert_eq!(d.offset, 0);
        assert_eq!(d.actual_sysno, nr::WRITE);
        assert_eq!(d.expected.unwrap().sysno, nr::GETPID);
        assert!(d.to_string().contains("expected getpid"), "{d}");
    }

    #[test]
    fn trace_exhaustion_is_a_divergence_not_a_panic() {
        let h = ReplayHandler::new(state_of(&[rec(nr::GETPID, 0)]));
        assert_eq!(drive(&h, nr::GETPID), Action::Passthrough);
        assert_eq!(drive(&h, nr::GETPID), Action::Passthrough);
        let d = h.state().first_divergence().unwrap();
        assert_eq!(d.kind, DivergenceKind::TraceExhausted);
        assert_eq!(d.offset, 1);
        assert!(d.expected.is_none());
    }

    #[test]
    fn a_replay_passes_only_if_it_consumed_the_whole_trace() {
        let h = ReplayHandler::new(state_of(&[rec(nr::GETPID, 0), rec(nr::GETUID, 0)]));
        assert_eq!(drive(&h, nr::GETPID), Action::Passthrough);
        let short = h.state().verdict().expect_err("one record left");
        assert!(
            matches!(short, ReplayFailure::Unconsumed { consumed: 1, len: 2, next_sysno: nr::GETUID }),
            "{short:?}"
        );
        assert!(short.to_string().contains("1/2 trace records; next was getuid"), "{short}");
        assert_eq!(drive(&h, nr::GETUID), Action::Passthrough);
        assert_eq!(h.state().verdict().unwrap(), 2);
        // A divergence fails the replay whatever was consumed.
        drive(&h, nr::WRITE);
        assert!(matches!(h.state().verdict(), Err(ReplayFailure::Diverged(_, 1))));
    }

    #[test]
    fn only_first_divergence_is_kept_but_all_are_counted() {
        let before = replay_divergences();
        let h = ReplayHandler::new(state_of(&[rec(nr::GETPID, 0), rec(nr::GETPID, 0)]));
        drive(&h, nr::WRITE);
        drive(&h, nr::CLOSE);
        assert_eq!(h.state().divergences(), 2);
        assert_eq!(replay_divergences(), before + 2);
        assert_eq!(h.state().first_divergence().unwrap().actual_sysno, nr::WRITE);
    }
}
