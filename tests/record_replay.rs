//! End-to-end record → replay → divergence detection over the native
//! guest (`lp_bench::guest`), plus flight-recorder accounting under
//! concurrency.
//!
//! A native install is one-way per process, so every record and replay
//! of the guest runs in an `lp-trace` process of its own; this harness
//! installs nothing that arms. The flight-recorder rings and the
//! recorder session are process-global, so every test here that
//! records serializes behind one lock. Installs are configured through
//! `install_with`, never the environment.

use std::ffi::OsStr;
use std::path::{Path, PathBuf};
use std::process::Output;
use std::sync::{Mutex, MutexGuard};

use lazypoline_suite::{interpose, mechanism, replay};
use lp_bench::guest::WINDOW;
use mechanism::EnvConfig;
use replay::{EventRecord, TraceHeader, TraceWriter, HEADER_SIZE};

static RECORD_LOCK: Mutex<()> = Mutex::new(());

fn record_lock() -> MutexGuard<'static, ()> {
    RECORD_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn temp_trace(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("lp_rr_{tag}_{}.lpt", std::process::id()))
}

/// A configuration that drains a `+record` session into `trace`.
fn tracing_to(trace: &Path) -> EnvConfig {
    EnvConfig {
        trace_out: Some(trace.to_path_buf()),
        ..EnvConfig::default()
    }
}

/// Whether this host runs `lazypoline` (SUD and a mappable page zero);
/// the tests that run the guest say so and pass where it does not.
fn native() -> bool {
    let ok = mechanism::by_name("lazypoline").is_some_and(|m| m.is_available());
    if !ok {
        eprintln!("skip: lazypoline needs SUD and a mappable page zero");
    }
    ok
}

/// `lp-trace <args>`, in a process of its own, with no ambient fault
/// spec (it would land the engine on a degraded rung).
fn lp_trace<S: AsRef<OsStr>>(args: &[S]) -> Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_lp-trace"))
        .args(args)
        .env_remove("LAZYPOLINE_FAULTS")
        .env_remove("LP_TRACE_OUT")
        .output()
        .expect("lp-trace runs")
}

fn text(out: &Output) -> String {
    format!(
        "{}\n{}{}",
        out.status,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    )
}

/// The guest's syscall names, in the order `records` holds them.
fn sysnames(records: &[EventRecord]) -> Vec<&'static str> {
    records.iter().map(|r| syscalls::nr::name(r.sysno).unwrap_or("?")).collect()
}

/// Records the guest under `lazypoline` into `trace` (`lp-trace
/// record`) and returns its records.
fn record_guest(trace: &Path) -> Vec<EventRecord> {
    let out = lp_trace(&[OsStr::new("record"), trace.as_os_str()]);
    assert!(out.status.success(), "{}", text(&out));
    let (header, records) = replay::read_trace_path(trace).expect("trace decodes");
    assert_eq!(header.source_mechanism, "lazypoline");
    assert_eq!(header.events_dropped, 0);
    records
}

/// Writes `records` as an LPTRACE3 trace recorded under `lazypoline`.
fn write_trace(path: &Path, records: &[EventRecord]) {
    let file = std::fs::File::create(path).unwrap();
    let mut w = TraceWriter::new(file, &TraceHeader::new("lazypoline", 0)).unwrap();
    for r in records {
        w.append(r).unwrap();
    }
    w.finalize(0).unwrap();
}

fn jit_v2_fixture() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/jit_v2.lpt2")
}

fn jit_v3_fixture() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/jit_v3.lpt3")
}

/// The trace holds the guest's calls and ends with its last one: the
/// recorder's own finish is not in it. Its replay in a fresh process
/// makes every call and consumes the whole trace.
#[test]
fn native_record_then_replay_consumes_the_whole_trace() {
    if !native() {
        return;
    }
    let trace = temp_trace("roundtrip");
    let records = record_guest(&trace);
    assert_eq!(sysnames(&records), WINDOW, "the guest's calls and nothing else");
    let out = lp_trace(&[OsStr::new("replay"), trace.as_os_str()]);
    assert!(out.status.success(), "{}", text(&out));
    assert!(
        text(&out).contains("replayed 4/4 events") && text(&out).contains("zero divergences"),
        "{}",
        text(&out)
    );
    std::fs::remove_file(&trace).unwrap();
}

/// A replay that ends with records of its trace left over did not
/// reproduce it: `lp-trace replay` fails and names the missing call.
#[test]
fn a_replay_that_leaves_a_tail_fails() {
    if !native() {
        return;
    }
    let trace = temp_trace("tail");
    let (_, mut records) = replay::read_trace_path(&jit_v3_fixture()).expect("fixture decodes");
    records.push(EventRecord {
        sysno: syscalls::nr::GETUID,
        ..records[0]
    });
    write_trace(&trace, &records);
    let out = lp_trace(&[OsStr::new("replay"), trace.as_os_str()]);
    assert!(!out.status.success(), "{}", text(&out));
    assert!(
        text(&out).contains("after 4/5 trace records; next was getuid(102)"),
        "{}",
        text(&out)
    );
    std::fs::remove_file(&trace).unwrap();
}

#[test]
fn mutated_trace_reports_structured_divergence_not_panic() {
    if !native() {
        return;
    }
    // Flip the second record's syscall number to `write` (1).
    let trace = temp_trace("mutated");
    let (_, mut records) = replay::read_trace_path(&jit_v3_fixture()).expect("fixture decodes");
    records[1].sysno = syscalls::nr::WRITE;
    write_trace(&trace, &records);
    let out = lp_trace(&[OsStr::new("replay"), trace.as_os_str()]);
    assert!(!out.status.success(), "{}", text(&out));
    assert!(
        text(&out).contains("divergence at trace offset 1: expected write(1) but execution made mmap(9)"),
        "{}",
        text(&out)
    );
    std::fs::remove_file(&trace).unwrap();
}

#[test]
fn corrupt_header_is_a_structured_install_error() {
    let trace = temp_trace("garbage");
    std::fs::write(&trace, [0xabu8; 200]).unwrap();
    let name = format!("replay:{}", trace.display());
    let Err(err) = mechanism::by_name(&name)
        .expect("the name form always parses")
        .install(Box::new(interpose::PassthroughHandler))
    else {
        panic!("garbage cannot install");
    };
    match err {
        mechanism::InstallError::Io(e) => {
            assert!(e.to_string().contains("bad magic"), "{e}");
        }
        other => panic!("expected Io error, got {other}"),
    }
    std::fs::remove_file(&trace).unwrap();
}

#[test]
fn truncated_trace_is_a_structured_install_error() {
    let trace = temp_trace("truncated");
    let bytes = std::fs::read(jit_v3_fixture()).unwrap();
    std::fs::write(&trace, &bytes[..bytes.len() - 1]).unwrap();

    let name = format!("replay:{}", trace.display());
    let Err(err) = mechanism::by_name(&name)
        .unwrap()
        .install(Box::new(interpose::PassthroughHandler))
    else {
        panic!("a mid-record cut cannot install");
    };
    assert!(
        matches!(&err, mechanism::InstallError::Io(e) if e.to_string().contains("truncated")),
        "unexpected: {err}"
    );
    std::fs::remove_file(&trace).unwrap();
}

#[test]
fn multi_thread_recording_accounts_for_every_event() {
    use interpose::{SyscallEvent, SyscallHandler};
    use syscalls::SyscallArgs;

    let _g = record_lock();
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 5_000; // ≫ ring capacity: forces drops

    // The spawned threads claim fresh rings, at this capacity.
    assert!(replay::ring::configure(1024));
    // `none` arms nothing: the installation only counts.
    let active = mechanism::by_name("none")
        .unwrap()
        .install_with(Box::new(interpose::PassthroughHandler), &EnvConfig::default())
        .unwrap();
    let before_recorded = replay::events_recorded();
    let before_dropped = replay::events_dropped();

    let handler = std::sync::Arc::new(replay::RecordHandler::passthrough());
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let handler = std::sync::Arc::clone(&handler);
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    let ev =
                        SyscallEvent::new(SyscallArgs::new(syscalls::nr::GETPID, [t as u64; 6]));
                    handler.post(&ev, i);
                }
            });
        }
    });
    assert!(replay::ring::configure(replay::ring::DEFAULT_RING_CAPACITY));

    let recorded = replay::events_recorded() - before_recorded;
    let dropped = replay::events_dropped() - before_dropped;
    assert_eq!(
        recorded + dropped,
        THREADS as u64 * PER_THREAD,
        "recorded + dropped accounts for every observed event"
    );
    assert!(recorded > 0, "rings accepted events");
    assert!(dropped > 0, "overflow policy engaged under pressure");

    // The installation's snapshot reads the recorder, its owner; the
    // engine reports only its own counters.
    let stats = active.stats();
    assert_eq!(
        (stats.events_recorded, stats.events_dropped),
        (recorded, dropped)
    );
    assert_eq!(lazypoline_suite::lazypoline::stats().events_recorded, 0);
    drop(active);

    // Leave the rings empty for whichever test records next.
    replay::ring::drain_all(|_| {});
}

#[test]
fn drainer_sustains_multi_producer_load_with_zero_drops() {
    use interpose::{SyscallEvent, SyscallHandler};
    use syscalls::SyscallArgs;

    let _g = record_lock();
    const THREADS: usize = 6;
    const PER_THREAD: u64 = 20_000;
    const PRODUCED: u64 = THREADS as u64 * PER_THREAD;

    // Rings sized to hold a full per-thread burst: zero drops is then a
    // guarantee, not a race against drainer latency — the drain thread
    // still has to spill every event for the summary to balance.
    let trace = temp_trace("soak");
    let cfg = EnvConfig {
        ring_capacity: Some(32768),
        ..tracing_to(&trace)
    };
    // `none` arms nothing: the layer's session opens in this process.
    let backend = mechanism::by_name("none+record").unwrap();
    let mut active = backend
        .install_with(Box::new(interpose::PassthroughHandler), &cfg)
        .expect("session opens with a live drain thread");

    let before_recorded = replay::events_recorded();
    let before_dropped = replay::events_dropped();
    let handler = std::sync::Arc::new(replay::RecordHandler::passthrough());
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let handler = std::sync::Arc::clone(&handler);
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    let ev =
                        SyscallEvent::new(SyscallArgs::new(syscalls::nr::GETPID, [t as u64; 6]));
                    handler.post(&ev, i);
                }
            });
        }
    });

    let recorded = replay::events_recorded() - before_recorded;
    let dropped = replay::events_dropped() - before_dropped;
    assert_eq!(recorded + dropped, PRODUCED, "every event accounted for");
    assert_eq!(dropped, 0, "live drainer + adequate rings: nothing drops");

    let summary = active
        .finish_recording()
        .expect("a trace session is active")
        .expect("trace finishes");
    assert_eq!(summary.dropped, 0);
    assert_eq!(summary.events, PRODUCED, "every produced event is spilled");
    assert!(
        summary.bytes * 2 < PRODUCED * std::mem::size_of::<EventRecord>() as u64,
        "LPTRACE3 beats the records' own size: {} bytes for {PRODUCED} events",
        summary.bytes
    );

    // The trace itself holds every event, decodable transparently.
    let (header, records) = replay::read_trace_path(&trace).unwrap();
    assert_eq!(header.version, replay::VERSION3);
    assert_eq!(records.len() as u64, PRODUCED);
    // The sweep's cross-ring sort keeps each ring's FIFO order: per
    // producer (`args[0]`) the `ret`s come back strictly ascending.
    let mut last = [None; THREADS];
    for r in &records {
        let seen = &mut last[r.args[0] as usize];
        assert!(*seen < Some(r.ret), "producer {} out of order at {}", r.args[0], r.ret);
        *seen = Some(r.ret);
    }

    // Restore the default geometry for whichever test records next.
    assert!(replay::ring::configure(replay::ring::DEFAULT_RING_CAPACITY));
    drop(active);
    std::fs::remove_file(&trace).unwrap();
}

#[test]
fn malformed_ring_capacity_env_is_a_typed_install_error() {
    let _g = record_lock();
    let trace = temp_trace("badcap");
    // Not a power of two: rejected when the environment is parsed...
    let lookup = |var: &str| (var == replay::ring::LP_RING_CAPACITY).then(|| "1000".to_string());
    let e = EnvConfig::from_lookup(lookup).expect_err("a malformed ring capacity cannot parse");
    assert_eq!((e.var, e.value.as_str()), (replay::ring::LP_RING_CAPACITY, "1000"));
    assert!(e.expected.contains("power of two"), "{e}");
    // ...and when a driver passes it to the install, before any trace
    // file or thread exists.
    let cfg = EnvConfig {
        ring_capacity: Some(1000),
        ..tracing_to(&trace)
    };
    let err = mechanism::by_name("lazypoline+record")
        .unwrap()
        .install_with(Box::new(interpose::PassthroughHandler), &cfg)
        .err()
        .expect("a malformed ring capacity must fail install, not fall back");
    match err {
        mechanism::InstallError::Config(e) => {
            assert_eq!(e.var, replay::ring::LP_RING_CAPACITY);
            assert!(e.to_string().contains("power of two"), "{e}");
        }
        other => panic!("expected Config, got {other}"),
    }
    assert!(!trace.exists(), "a rejected install opens no trace");
}

/// `+record` applies `LP_RING_CAPACITY` in its own validation step, so
/// the value holds, and a typo fails the install, without a trace file
/// too. The well-formed half arms the engine, so it runs in a child
/// process: this test binary again, running only this test, configured
/// through its environment as a user would.
#[test]
fn ring_capacity_applies_without_a_trace_file() {
    const CHILD: &str = "LP_RR_RING_CAPACITY_CHILD";
    let backend = mechanism::by_name("lazypoline+record").unwrap();
    if std::env::var_os(CHILD).is_some() {
        let installed = backend.install(Box::new(interpose::PassthroughHandler));
        assert_eq!(replay::ring::configured_capacity(), 1024);
        if backend.is_available() {
            drop(installed.expect("lazypoline+record installs"));
        }
        return;
    }

    let _g = record_lock();
    let capacity = replay::ring::configured_capacity();
    let cfg = EnvConfig {
        ring_capacity: Some(1000), // not 2^n
        ..EnvConfig::default()
    };
    let err = backend
        .install_with(Box::new(interpose::PassthroughHandler), &cfg)
        .err()
        .expect("a malformed ring capacity must fail install without LP_TRACE_OUT too");
    assert!(
        matches!(&err, mechanism::InstallError::Config(e) if e.var == replay::ring::LP_RING_CAPACITY),
        "{err}"
    );
    assert_eq!(replay::ring::configured_capacity(), capacity, "a rejected value is not applied");

    let out = std::process::Command::new(std::env::current_exe().unwrap())
        .args(["--exact", "ring_capacity_applies_without_a_trace_file", "--test-threads=1"])
        .env(CHILD, "1")
        .env(replay::ring::LP_RING_CAPACITY, "1024")
        .env_remove("LP_TRACE_OUT")
        .env_remove("LAZYPOLINE_FAULTS")
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("1 passed"), "{out:?}");
}

/// The committed LPTRACE2 fixture keeps decoding: it is the v2 byte
/// fixture for decoding, byte-for-byte re-encoding and the sfip
/// subsystem's learning input (see `tests/sfip.rs`). It was recorded
/// from a simulated guest that is gone, so it is not replayed.
#[test]
fn committed_lptrace2_fixture_decodes() {
    let (header, records) = replay::read_trace_path(&jit_v2_fixture()).expect("fixture decodes");
    assert_eq!(header.version, replay::VERSION2);
    assert_eq!(sysnames(&records), ["mmap", "getpid", "getpid", "exit_group"]);
}

/// The committed LPTRACE3 fixture is a recording of the native guest:
/// it decodes, and it replays on any host that runs `lazypoline`.
#[test]
fn committed_lptrace3_fixture_decodes_and_replays() {
    let fixture = jit_v3_fixture();
    let (header, records) = replay::read_trace_path(&fixture).expect("fixture decodes");
    assert_eq!(header.version, replay::VERSION3);
    assert_eq!(header.source_mechanism, "lazypoline");
    assert_eq!(sysnames(&records), WINDOW);
    if !native() {
        return;
    }
    let out = lp_trace(&[OsStr::new("replay"), fixture.as_os_str()]);
    assert!(out.status.success(), "{}", text(&out));
    assert!(text(&out).contains("replayed 4/4 events"), "{}", text(&out));
}

/// The encoder still writes each committed fixture's payload at that
/// fixture's generation: its records, decoded and encoded again, are
/// the same bytes.
fn reencodes_byte_for_byte(fixture: &std::path::Path, version: u32) {
    let bytes = std::fs::read(fixture).expect("fixture reads");
    let (header, records) = replay::read_trace_path(fixture).expect("fixture decodes");
    assert_eq!(header.version, version);
    let mut encoder = replay::codec::Encoder::for_version(version);
    let mut payload = Vec::new();
    for rec in &records {
        encoder.encode(rec, &mut payload);
    }
    assert_eq!(payload, bytes[HEADER_SIZE..]);
}

#[test]
fn lptrace2_fixture_reencodes_byte_for_byte() {
    reencodes_byte_for_byte(&jit_v2_fixture(), replay::VERSION2);
}

#[test]
fn lptrace3_fixture_reencodes_byte_for_byte() {
    reencodes_byte_for_byte(&jit_v3_fixture(), replay::VERSION3);
}

/// Flight-recorder-only mode (no trace file): events that reach the
/// installed stack are recorded and counted in the stats, and there is
/// no session to finish. `none` arms nothing, so the events are handed
/// to the stack the way a dispatcher hands them.
#[test]
fn record_composes_and_counts_in_stats() {
    let _g = record_lock();
    let backend = mechanism::by_name("none+record").expect("+record composes");
    let mut active = backend
        .install_with(Box::new(interpose::PassthroughHandler), &EnvConfig::default())
        .unwrap();
    for _ in 0..64 {
        let call = syscalls::SyscallArgs::nullary(500);
        interpose::interpose_syscall(call, 0, |_| (-38i64) as u64);
    }
    let stats = active.stats();
    assert_eq!(stats.mechanism, "none+record");
    assert_eq!(stats.events_recorded + stats.events_dropped, 64, "{stats:?}");
    assert!(active.finish_recording().is_none(), "no trace session");
    drop(active);
    replay::ring::drain_all(|_| {});
}

#[test]
fn dynamic_names_are_cached_and_bad_forms_rejected() {
    let a = mechanism::by_name("lazypoline+record").unwrap();
    let b = mechanism::by_name("lazypoline+record").unwrap();
    assert!(
        std::ptr::eq(a, b),
        "same dynamic name resolves to the same leaked instance"
    );
    assert!(mechanism::by_name("nonsense+record").is_none());
    assert!(mechanism::by_name("replay:").is_none());
    assert!(mechanism::by_name("replay").is_none());
}

/// A session inherited through `fork` is the opener's: the child's
/// `finish` and drop touch nothing (no join of a drain thread it never
/// had, no trim of the file under the parent's mapping, no rename), and
/// the parent's trace comes out whole.
#[test]
fn forked_child_leaves_the_parents_session_alone() {
    use interpose::{SyscallEvent, SyscallHandler};
    use syscalls::SyscallArgs;

    let _g = record_lock();
    let handler = replay::RecordHandler::passthrough();
    let push = |n: u64| {
        for i in 0..n {
            let ev = SyscallEvent::new(SyscallArgs::new(syscalls::nr::GETPID, [i; 6]));
            handler.post(&ev, i);
        }
    };
    use replay::DrainMode::{Async, Sync};
    for (drain, child_finishes) in [(Async, true), (Async, false), (Sync, true), (Sync, false)] {
        let trace = temp_trace(&format!("fork_{drain:?}_{child_finishes}"));
        let mut session = replay::Recorder::open(&trace, "test", drain).expect("session opens");
        push(10);
        // Sync mode: the ten events are now in the trace's shared
        // mapping, which the child inherits.
        session.drain().expect("drain");

        // SAFETY: the child only runs the code under test, then _exits.
        let pid = unsafe { libc::fork() };
        assert!(pid >= 0, "fork failed");
        if pid == 0 {
            // No assertion may unwind into the harness's copy here:
            // every outcome becomes an exit status.
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                push(5); // the child's private rings
                if child_finishes {
                    session.finish().is_err() // must refuse
                } else {
                    let untouched = matches!(session.drain(), Ok(0));
                    drop(session);
                    untouched
                }
            }));
            unsafe { libc::_exit(if matches!(outcome, Ok(true)) { 0 } else { 101 }) };
        }
        let mut status = 0;
        assert_eq!(unsafe { libc::waitpid(pid, &mut status, 0) }, pid);
        assert!(
            libc::WIFEXITED(status) && libc::WEXITSTATUS(status) == 0,
            "{drain:?}/{child_finishes}: child status {status:#x}"
        );

        push(1_000);
        let summary = session.finish().expect("the opener finishes");
        assert_eq!((summary.events, summary.dropped), (1_010, 0), "{drain:?}/{child_finishes}");
        assert_eq!(summary.path, trace);
        let (_, records) = replay::read_trace_path(&trace).expect("trace decodes");
        assert_eq!(records.len(), 1_010);
        let part = PathBuf::from(format!("{}.{}.part", trace.display(), std::process::id()));
        assert!(!part.exists(), "a finished trace leaves no .part");
        std::fs::remove_file(&trace).unwrap();
    }
}
