//! End-to-end record → replay → divergence-detection over the
//! simulated mechanisms, plus flight-recorder accounting under
//! concurrency.
//!
//! The flight-recorder rings and the recorder session are
//! process-global, so every test that records serializes behind one
//! lock. Installs are configured through `install_with`, never the
//! environment.

use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

use lazypoline_suite::{interpose, mechanism, replay, sim_workloads};
use mechanism::EnvConfig;
use replay::{DivergenceKind, HEADER_SIZE, RECORD_SIZE};

static RECORD_LOCK: Mutex<()> = Mutex::new(());

fn record_lock() -> MutexGuard<'static, ()> {
    RECORD_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn temp_trace(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("lp_rr_{tag}_{}.lpt", std::process::id()))
}

/// A configuration that drains a `+record` session into `trace`.
fn tracing_to(trace: &std::path::Path) -> EnvConfig {
    EnvConfig {
        trace_out: Some(trace.to_path_buf()),
        ..EnvConfig::default()
    }
}

/// Records the fixed JIT workload under `sim:lazypoline+record` and
/// returns the trace path (caller removes it). Recordings are
/// LPTRACE3; tests that poke fixed byte offsets start from
/// [`jit_v1_fixture_copy`].
fn record_jit_trace(tag: &str) -> PathBuf {
    let trace = temp_trace(tag);
    let backend = mechanism::by_name("sim:lazypoline+record").expect("+record name parses");
    let mut active = backend
        .install_with(Box::new(interpose::PassthroughHandler), &tracing_to(&trace))
        .expect("sim backends always install");
    let out = active
        .run_program(&sim_workloads::jit::build())
        .expect("guest runs");
    assert_eq!(out.exit, 0);
    let summary = active
        .finish_recording()
        .expect("a trace session is active")
        .expect("trace finishes");
    assert_eq!(
        summary.events,
        out.observed.len() as u64,
        "every observed syscall lands in the trace"
    );
    assert_eq!(summary.dropped, 0);
    trace
}

fn jit_v1_fixture() -> PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/jit_v1.lpt")
}

fn jit_v2_fixture() -> PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/jit_v2.lpt2")
}

fn jit_v3_fixture() -> PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/jit_v3.lpt3")
}

/// A temp copy of the committed LPTRACE1 recording of the same JIT
/// workload (fixed-size records), for tests that mutate known byte
/// offsets (caller removes it).
fn jit_v1_fixture_copy(tag: &str) -> PathBuf {
    let trace = temp_trace(tag);
    std::fs::copy(jit_v1_fixture(), &trace).expect("fixture copies");
    trace
}

#[test]
fn sim_record_then_replay_with_zero_divergences() {
    let _g = record_lock();
    let trace = record_jit_trace("roundtrip");

    let name = format!("replay:{}", trace.display());
    let mut active = mechanism::by_name(&name)
        .expect("replay name parses")
        .install(Box::new(interpose::PassthroughHandler))
        .expect("trace loads");
    // The replay base comes from the trace header: a sim mechanism.
    let out = active
        .run_program(&sim_workloads::jit::build())
        .expect("replay base is simulated");
    assert_eq!(out.exit, 0);

    let state = active.replay_state().expect("replay backend").clone();
    assert_eq!(
        state.position(),
        state.len(),
        "the whole trace was consumed"
    );
    assert_eq!(state.divergences(), 0);
    assert!(active.replay_divergence().is_none());
    let stats = active.stats();
    assert_eq!(stats.replay_divergences, 0);
    assert!(stats.dispatches > 0);

    drop(active);
    std::fs::remove_file(&trace).unwrap();
}

#[test]
fn mutated_trace_reports_structured_divergence_not_panic() {
    // The divergence counter is process-global too, and the roundtrip
    // test asserts it did not move.
    let _g = record_lock();
    let trace = jit_v1_fixture_copy("mutated");

    // Flip the second record's syscall number to `write` (1).
    let mut bytes = std::fs::read(&trace).unwrap();
    let k = 1;
    let off = HEADER_SIZE + k * RECORD_SIZE;
    bytes[off..off + 8].copy_from_slice(&1u64.to_le_bytes());
    std::fs::write(&trace, &bytes).unwrap();

    let name = format!("replay:{}", trace.display());
    let mut active = mechanism::by_name(&name)
        .unwrap()
        .install(Box::new(interpose::PassthroughHandler))
        .expect("a mutated-but-well-formed trace still loads");
    active
        .run_program(&sim_workloads::jit::build())
        .expect("execution continues best-effort past the divergence");

    let d = active
        .replay_divergence()
        .expect("the mutation must be detected");
    assert_eq!(d.kind, DivergenceKind::Sysno);
    assert_eq!(d.offset, k as u64, "detected at the mutated record");
    assert_eq!(d.expected.unwrap().sysno, 1, "trace said write");
    assert!(active.stats().replay_divergences >= 1);

    drop(active);
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
    let trace = jit_v1_fixture_copy("truncated");
    let bytes = std::fs::read(&trace).unwrap();
    std::fs::write(&trace, &bytes[..bytes.len() - (RECORD_SIZE / 2)]).unwrap();

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

    // Folded uniformly into the engine's counter sets.
    let stats = lazypoline_suite::lazypoline::stats();
    assert!(stats.events_recorded >= recorded);
    assert!(stats.events_dropped >= dropped);
    let health = lazypoline_suite::lazypoline::health();
    assert_eq!(health.stats.events_recorded, stats.events_recorded);

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
    let backend = mechanism::by_name("sim:lazypoline+record").unwrap();
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
        summary.bytes * 2 < PRODUCED * replay::RECORD_SIZE as u64,
        "LPTRACE3 beats the fixed layout: {} bytes for {PRODUCED} events",
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
    let err = mechanism::by_name("sim:lazypoline+record")
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

/// The committed LPTRACE1 fixture (recorded before the LPTRACE2
/// migration) must keep decoding and replaying unchanged — backward
/// compatibility for existing traces is part of the format contract.
#[test]
fn committed_lptrace1_fixture_decodes_and_replays() {
    // `LP_REPLAY_BASE` is process-global too.
    let _g = record_lock();
    let fixture = jit_v1_fixture();
    let (header, records) = replay::read_trace_path(&fixture).expect("fixture decodes");
    assert_eq!(header.version, replay::VERSION);
    assert_eq!(header.source_mechanism, "sim:lazypoline");
    assert!(!records.is_empty());

    let name = format!("replay:{}", fixture.display());
    let mut active = mechanism::by_name(&name)
        .unwrap()
        .install(Box::new(interpose::PassthroughHandler))
        .expect("v1 fixture loads");
    let out = active
        .run_program(&sim_workloads::jit::build())
        .expect("replay base is simulated");
    assert_eq!(out.exit, 0);
    let state = active.replay_state().expect("replay backend").clone();
    assert_eq!(state.position(), state.len(), "whole fixture consumed");
    assert_eq!(state.divergences(), 0);
}

/// The committed LPTRACE2 fixture must keep decoding and replaying
/// unchanged too — it is also the sfip subsystem's canonical learning
/// input (see `tests/sfip.rs`), so both consumers pin the same bytes.
#[test]
fn committed_lptrace2_fixture_decodes_and_replays() {
    let _g = record_lock();
    let fixture = jit_v2_fixture();
    let (header, records) = replay::read_trace_path(&fixture).expect("fixture decodes");
    assert_eq!(header.version, replay::VERSION2);
    assert_eq!(header.source_mechanism, "sim:lazypoline");
    assert_eq!(records.len(), 4, "mmap + jitted getpid + static getpid + exit_group");

    let name = format!("replay:{}", fixture.display());
    let mut active = mechanism::by_name(&name)
        .unwrap()
        .install(Box::new(interpose::PassthroughHandler))
        .expect("v2 fixture loads");
    let out = active
        .run_program(&sim_workloads::jit::build())
        .expect("replay base is simulated");
    assert_eq!(out.exit, 0);
    let state = active.replay_state().expect("replay backend").clone();
    assert_eq!(state.position(), state.len(), "whole fixture consumed");
    assert_eq!(state.divergences(), 0);
}

/// The committed LPTRACE3 fixture, recorded from the same JIT workload
/// as the v1 and v2 fixtures, decodes and replays.
#[test]
fn committed_lptrace3_fixture_decodes_and_replays() {
    let _g = record_lock();
    let fixture = jit_v3_fixture();
    let (header, records) = replay::read_trace_path(&fixture).expect("fixture decodes");
    assert_eq!(header.version, replay::VERSION3);
    assert_eq!(header.source_mechanism, "sim:lazypoline");
    let (_, v2_records) = replay::read_trace_path(&jit_v2_fixture()).expect("v2 fixture decodes");
    let sysnos = |r: &[replay::EventRecord]| r.iter().map(|e| e.sysno).collect::<Vec<_>>();
    assert_eq!(sysnos(&records), sysnos(&v2_records), "the same workload");

    let name = format!("replay:{}", fixture.display());
    let mut active = mechanism::by_name(&name)
        .unwrap()
        .install(Box::new(interpose::PassthroughHandler))
        .expect("v3 fixture loads");
    let out = active
        .run_program(&sim_workloads::jit::build())
        .expect("replay base is simulated");
    assert_eq!(out.exit, 0);
    let state = active.replay_state().expect("replay backend").clone();
    assert_eq!(state.position(), state.len(), "whole fixture consumed");
    assert_eq!(state.divergences(), 0);
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

/// `LP_REPLAY_BASE` replaces the trace's own mechanism as the base a
/// replay installs under. A sim trace replayed under the native `none`
/// row installs and then cannot run the guest, which only the override
/// explains; a name no row answers to fails the install.
#[test]
fn replay_base_env_overrides_the_traces_mechanism() {
    let _g = record_lock();
    let name = format!("replay:{}", jit_v2_fixture().display());
    let replay = mechanism::by_name(&name).unwrap();

    let base = |value: &str| {
        let lookup = |var: &str| (var == mechanism::REPLAY_BASE_ENV).then(|| value.to_string());
        EnvConfig::from_lookup(lookup)
    };
    let cfg = base("none").expect("a static row parses");
    let installed = replay.install_with(Box::new(interpose::PassthroughHandler), &cfg);
    let unknown = base("no-such-backend");

    let mut active = installed.expect("the override names an installable row");
    assert!(matches!(
        active.run_program(&sim_workloads::jit::build()),
        Err(mechanism::RunError::NotSimulated)
    ));
    drop(active);
    let unknown = unknown.expect_err("a name no row answers to");
    assert_eq!(unknown.var, mechanism::REPLAY_BASE_ENV);
}

#[test]
fn record_composes_with_any_sim_mechanism_and_counts_in_stats() {
    let _g = record_lock();
    // No LP_TRACE_OUT: flight-recorder-only mode (rings + counters, no
    // file).
    let backend = mechanism::by_name("sim:zpoline+record").expect("+record composes");
    assert_eq!(backend.name(), "sim:zpoline+record");
    let mut active = backend
        .install_with(Box::new(interpose::PassthroughHandler), &EnvConfig::default())
        .unwrap();
    let out = active
        .run_program(&sim_workloads::bench::microbench(64))
        .expect("guest runs");
    let stats = active.stats();
    assert_eq!(stats.mechanism, "sim:zpoline+record");
    assert!(
        stats.events_recorded + stats.events_dropped >= out.observed.len() as u64,
        "recorder saw at least the delivered events"
    );
    assert!(active.finish_recording().is_none(), "no trace session");
    drop(active);
    replay::ring::drain_all(|_| {});
}

#[test]
fn dynamic_names_are_cached_and_bad_forms_rejected() {
    let a = mechanism::by_name("sim:lazypoline+record").unwrap();
    let b = mechanism::by_name("sim:lazypoline+record").unwrap();
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
