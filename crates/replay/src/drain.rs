//! The dedicated drain thread: continuously sweeps the flight-recorder
//! rings into the trace writer so producers never meet a full ring at
//! steady state.
//!
//! The thread is spawned by [`Recorder`](crate::Recorder) **before**
//! the interposition mechanism installs. That ordering is load-bearing
//! twice over: syscall-user-dispatch enrollment is per-thread (the
//! kernel clears it on `fork` and `clone`; the engine enrols the tasks
//! an enrolled thread creates), so a thread that predates the install
//! is never enrolled — and, under hardened mode, never filtered, since
//! the seccomp backstop is armed on the installing thread alone and
//! reaches only the tasks it creates. The drainer's own syscalls (the
//! sink's `pwrite64`s) never take the slow path, and it cannot deadlock
//! against the engine it serves. A site an enrolled thread had
//! rewritten still dispatches whoever runs it, this thread included (its
//! first `malloc`'s arena, a libc `futex` of its parking, its exit
//! path): the recorder knows the thread by its `pthread_t`, named
//! before the install, and takes no event from it. Other layers do not:
//! an engine that can hide a thread's syscalls from every handler
//! passes that switch to [`on_drain_thread_start`], and the thread
//! throws it before its first sweep.
//!
//! Each sweep claims what every ring holds, merges the rings by `tsc`
//! (the cross-thread merge key) reading the records in place, and only
//! then frees the rings (see [`sweep`]). Between
//! empty sweeps the thread backs off adaptively — a bounded stretch of
//! `yield_now`, then `park_timeout` — so an idle recorder costs
//! nothing measurable. [`DrainHandle::stop`] sets the stop flag,
//! unparks, and joins; the thread's exit path re-sweeps until the
//! rings are empty, so every event pushed before `stop` lands in the
//! trace.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io::{self, Seek, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::format::TraceWriter;
use crate::ring::{self, SpscRing};
use crate::spill::FileSink;

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

/// What every drain thread runs first, once set.
static THREAD_START: OnceLock<fn()> = OnceLock::new();

/// Has every drain thread spawned from now on call `start` first: the
/// engine's switch that puts the calling thread on its private path
/// for the rest of its life, so that no layer (an sfip automaton
/// above the recorder, say) sees the drainer's own syscalls, its exit
/// path's included. The first call wins.
pub fn on_drain_thread_start(start: fn()) {
    let _ = THREAD_START.set(start);
}

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
    thread: JoinHandle<io::Result<TraceWriter<FileSink>>>,
}

impl DrainHandle {
    /// Signals the thread, joins it, and returns the writer (with
    /// every pre-`stop` event appended) or the first spill error.
    pub(crate) fn stop(self) -> io::Result<TraceWriter<FileSink>> {
        self.stop.store(true, Ordering::Release);
        if let Ok(mut guard) = DRAINER.lock() {
            *guard = None;
        }
        self.thread.thread().unpark();
        let writer = self.thread.join();
        ring::set_drain_thread(0);
        writer.map_err(|_| io::Error::other("drain thread panicked"))?
    }
}

/// Spawns the drain thread around `writer` and returns once it runs
/// (past its start-up and its [`on_drain_thread_start`] switch), so a
/// late-scheduled start-up cannot meet the mechanism. Call before the
/// interposition mechanism installs (see module docs).
pub(crate) fn spawn(writer: TraceWriter<FileSink>) -> io::Result<DrainHandle> {
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let started = Arc::new(Barrier::new(2));
    let started2 = Arc::clone(&started);
    let thread = std::thread::Builder::new()
        .name("lp-drain".into())
        .spawn(move || {
            if let Some(start) = THREAD_START.get() {
                start();
            }
            started2.wait();
            run(writer, &stop2)
        })?;
    ring::set_drain_thread(std::os::unix::thread::JoinHandleExt::as_pthread_t(&thread) as usize);
    started.wait();
    if let Ok(mut guard) = DRAINER.lock() {
        *guard = Some(thread.thread().clone());
    }
    Ok(DrainHandle { stop, thread })
}

fn run(
    mut writer: TraceWriter<FileSink>,
    stop: &AtomicBool,
) -> io::Result<TraceWriter<FileSink>> {
    let mut idle_sweeps = 0u32;
    loop {
        let stopping = stop.load(Ordering::Acquire);
        let n = sweep(ring::claimed(), &mut writer)?;
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
                if sweep(ring::claimed(), &mut writer)? == 0 {
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

/// One sweep: claim `[tail, head)` of every ring, stream the k-way
/// merge by `tsc` into the writer, flush it, and only then free the
/// rings and count the events as spilled — so a counted event's bytes
/// are in the sink and its slot is the producer's again.
///
/// Each ring is one producer's in-order `rdtsc` stamps, so merging the
/// rings' fronts is a stable sort of their concatenation: equal stamps
/// go to the lower ring index, and one ring is a plain walk.
pub(crate) fn sweep<W: Write + Seek>(
    rings: &[SpscRing],
    writer: &mut TraceWriter<W>,
) -> io::Result<usize> {
    let mut spans: Vec<ring::Span> = rings.iter().filter_map(SpscRing::span).collect();
    if spans.is_empty() {
        return Ok(0);
    }
    let mut fronts: BinaryHeap<_> = spans
        .iter()
        .enumerate()
        .filter_map(|(i, span)| Some(Reverse((span.peek()?.tsc, i))))
        .collect();
    while let Some(Reverse((_, i))) = fronts.pop() {
        // The run this ring owns: up to the next ring's front.
        let limit = fronts.peek().map(|next| next.0);
        let span = &mut spans[i];
        while let Some(rec) = span.peek() {
            if limit.is_some_and(|limit| (rec.tsc, i) > limit) {
                fronts.push(Reverse((rec.tsc, i)));
                break;
            }
            writer.append(rec)?;
            span.advance();
        }
    }
    writer.flush()?;
    let n = spans.into_iter().map(ring::Span::release).sum();
    EVENTS_SPILLED.fetch_add(n as u64, Ordering::Relaxed);
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventRecord;
    use crate::format::TraceHeader;
    use std::io::Cursor;

    /// What `sweep` was before it streamed: copy every ring out, stable
    /// sort the copy by `tsc` when more than one ring fed it, append.
    /// The oracle the merge must match byte for byte.
    fn collect_and_sort(
        rings: &[SpscRing],
        writer: &mut TraceWriter<Cursor<Vec<u8>>>,
    ) -> io::Result<usize> {
        let mut all: Vec<EventRecord> = Vec::new();
        for ring in rings {
            ring.drain(|rec| all.push(rec));
        }
        if rings.len() > 1 {
            all.sort_by_key(|r| r.tsc);
        }
        for rec in &all {
            writer.append(rec)?;
        }
        Ok(all.len())
    }

    /// Fills one ring per entry of `sizes` from a seeded generator.
    /// Stamps within a ring never go back and step by 0–2, so equal
    /// stamps are common inside a ring and across rings.
    fn seeded_rings(seed: u64, sizes: &[usize]) -> Vec<SpscRing> {
        let mut rng = proptest::test_runner::TestRng::for_case(seed);
        let mut next = move || rng.next_u64() >> 8;
        sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                let ring = SpscRing::with_capacity(1024);
                let mut tsc = 1_000 + next() % 4;
                for _ in 0..n {
                    tsc += next() % 3;
                    let rec = EventRecord {
                        sysno: next() % 7,
                        args: [next() % 5, 0, next(), 0, 0, 0],
                        ret: next() % 4096,
                        tsc,
                        site: 0x40_0000 + (next() % 9) * 16,
                        tid: 100 + i as u32,
                    };
                    assert!(ring.push(rec));
                }
                ring
            })
            .collect()
    }

    fn trace_bytes(
        sizes: &[usize],
        drain: impl Fn(&[SpscRing], &mut TraceWriter<Cursor<Vec<u8>>>) -> io::Result<usize>,
    ) -> Vec<u8> {
        let header = TraceHeader::new("lazypoline", 3_000_000_000);
        let mut writer = TraceWriter::new(Cursor::new(Vec::new()), &header).unwrap();
        // Two rounds, so the second starts on rewound rings and on an
        // encoder that has seen the first.
        for round in 0..2 {
            let rings = seeded_rings(0x5eed + round, sizes);
            assert_eq!(
                drain(&rings, &mut writer).unwrap(),
                sizes.iter().sum::<usize>()
            );
            assert!(rings.iter().all(SpscRing::is_empty), "rings freed");
        }
        writer.finalize(0).unwrap().0.into_inner()
    }

    #[test]
    fn streaming_merge_writes_what_collect_and_sort_wrote() {
        let shapes: [&[usize]; 4] = [
            &[700],
            &[300, 1000],
            // An empty ring in the middle, a full one at the end.
            &[257, 1000, 0, 64, 1024],
            &[0, 0],
        ];
        for sizes in shapes {
            let merged = trace_bytes(sizes, sweep);
            assert!(
                merged == trace_bytes(sizes, collect_and_sort),
                "{sizes:?}: merged trace differs from the sorted one"
            );
            let (_, records) = crate::read_trace(Cursor::new(merged)).unwrap();
            assert_eq!(records.len(), 2 * sizes.iter().sum::<usize>());
        }
    }
}
