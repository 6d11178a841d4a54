//! The dedicated drain thread: continuously sweeps the flight-recorder
//! rings into the trace writer so producers never meet a full ring at
//! steady state.
//!
//! The thread is spawned by [`Recorder`](crate::Recorder) **before**
//! the interposition mechanism installs. That ordering is load-bearing
//! twice over: syscall-user-dispatch enrollment is per-thread and
//! inherited across `clone`, so a thread that exists before install is
//! never enrolled — the drainer's own syscalls (mmap remaps,
//! ftruncate) are neither interposed nor recorded, and it cannot
//! deadlock against the engine it serves.
//!
//! Each sweep drains every claimed ring, sorts the batch by `tsc` (the
//! cross-thread merge key), and appends it to the writer. Between
//! empty sweeps the thread backs off adaptively — a bounded stretch of
//! `yield_now`, then `park_timeout` — so an idle recorder costs
//! nothing measurable. [`DrainHandle::stop`] sets the stop flag,
//! unparks, and joins; the thread's exit path re-sweeps until the
//! rings are empty, so every event pushed before `stop` lands in the
//! trace.

use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::event::EventRecord;
use crate::format::TraceWriter;
use crate::ring;
use crate::spill::MmapSink;

/// Records appended to a trace by drain sweeps (process lifetime),
/// counting both the async thread's sweeps and synchronous
/// [`Recorder::drain`](crate::Recorder::drain) calls.
pub(crate) static EVENTS_SPILLED: AtomicU64 = AtomicU64::new(0);

/// Consecutive empty sweeps that merely yield before the thread starts
/// parking.
const YIELD_SWEEPS: u32 = 64;

/// Park duration once idle. Long enough to vacate the CPU, short
/// enough that a burst after silence meets a drainer at most ~200µs
/// behind — a few hundred records at production rates, well inside a
/// default ring. Producers additionally cut the park short: a push
/// that crosses the near-full threshold calls [`wake_if_parked`].
const IDLE_PARK: Duration = Duration::from_micros(200);

/// Whether the drain thread has announced it is parking. Checked by
/// producers on near-full pushes so a burst arriving mid-park wakes
/// the drainer instead of riding out the timeout against a filling
/// ring. Relaxed ordering throughout: a missed wake costs at most one
/// `IDLE_PARK` of latency (the park always times out), never an event.
static PARKED: AtomicBool = AtomicBool::new(false);

/// The running drain thread's handle, for producer-side wakes (one
/// recorder session, hence one drainer, exists at a time).
static DRAINER: Mutex<Option<std::thread::Thread>> = Mutex::new(None);

/// Unparks the drain thread if it is parking. Called from the
/// producer hot path (possibly signal context), so it must not block:
/// `try_lock` skips the wake under contention, which only ever delays
/// the sweep by the bounded park timeout.
#[cold]
pub(crate) fn wake_if_parked() {
    if !PARKED.load(Ordering::Relaxed) {
        return;
    }
    if let Ok(guard) = DRAINER.try_lock() {
        if let Some(t) = guard.as_ref() {
            t.unpark();
        }
    }
}

/// A running drain thread plus its stop signal.
pub(crate) struct DrainHandle {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<io::Result<TraceWriter<MmapSink>>>,
}

impl DrainHandle {
    /// Signals the thread, joins it, and returns the writer (with
    /// every pre-`stop` event appended) or the first spill error.
    pub(crate) fn stop(self) -> io::Result<TraceWriter<MmapSink>> {
        self.stop.store(true, Ordering::Release);
        if let Ok(mut guard) = DRAINER.lock() {
            *guard = None;
        }
        self.thread.thread().unpark();
        self.thread
            .join()
            .map_err(|_| io::Error::other("drain thread panicked"))?
    }
}

/// Spawns the drain thread around `writer`. Call before the
/// interposition mechanism installs (see module docs).
pub(crate) fn spawn(writer: TraceWriter<MmapSink>) -> io::Result<DrainHandle> {
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let thread = std::thread::Builder::new()
        .name("lp-drain".into())
        .spawn(move || run(writer, &stop2))?;
    if let Ok(mut guard) = DRAINER.lock() {
        *guard = Some(thread.thread().clone());
    }
    Ok(DrainHandle { stop, thread })
}

fn run(
    mut writer: TraceWriter<MmapSink>,
    stop: &AtomicBool,
) -> io::Result<TraceWriter<MmapSink>> {
    let mut pending: Vec<EventRecord> = Vec::new();
    let mut idle_sweeps = 0u32;
    loop {
        let stopping = stop.load(Ordering::Acquire);
        let n = sweep(&mut writer, &mut pending)?;
        if n == 0 {
            if stopping {
                return Ok(writer);
            }
            if idle_sweeps < YIELD_SWEEPS {
                idle_sweeps += 1;
                std::thread::yield_now();
            } else {
                PARKED.store(true, Ordering::Relaxed);
                // Re-sweep after announcing the park: a producer that
                // went near-full between the empty sweep above and the
                // store would have read PARKED unset and skipped its
                // wake. Only park when still empty.
                if sweep(&mut writer, &mut pending)? == 0 {
                    std::thread::park_timeout(IDLE_PARK);
                }
                PARKED.store(false, Ordering::Relaxed);
            }
        } else {
            idle_sweeps = 0;
        }
        // A non-empty sweep during stop loops straight back around:
        // producers racing the stop signal still get their last events
        // spilled before the thread exits on the empty sweep.
    }
}

/// One sweep: drain every ring, merge by timestamp, append.
pub(crate) fn sweep(
    writer: &mut TraceWriter<MmapSink>,
    pending: &mut Vec<EventRecord>,
) -> io::Result<usize> {
    pending.clear();
    ring::drain_all(|rec| pending.push(rec));
    // One claimed ring is already in tsc order (one producer, in-order
    // rdtsc stamps); the merge sort only earns its keep across rings.
    if ring::rings_claimed() > 1 {
        pending.sort_by_key(|r| r.tsc);
    }
    for rec in pending.iter() {
        writer.append(rec)?;
    }
    EVENTS_SPILLED.fetch_add(pending.len() as u64, Ordering::Relaxed);
    Ok(pending.len())
}
