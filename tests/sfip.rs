//! End-to-end syscall-flow-integrity over the native guest
//! (`lp_bench::guest`): record it, learn its transition automaton, and
//! enforce it in the fast path. The guest runs in `lp-trace` processes
//! of their own (a native install is one-way per process); the escape
//! variant, which `lp-trace` does not run, is the `sfip_guest` scenario
//! of `tests/native_engine.rs`.
//!
//! The recorder session and the global sfip counters are process-wide,
//! so every test here serializes behind one lock. Each install is
//! configured through `install_with`, never the environment.

use std::ffi::OsStr;
use std::path::{Path, PathBuf};
use std::process::Output;
use std::sync::{Arc, Mutex, MutexGuard};

use lazypoline_suite::{interpose, mechanism, replay, sfip};
use mechanism::{ActiveMechanism, EnvConfig, InstallError};
use syscalls::nr;

static SFIP_LOCK: Mutex<()> = Mutex::new(());

fn sfip_lock() -> MutexGuard<'static, ()> {
    SFIP_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn temp(tag: &str, ext: &str) -> PathBuf {
    std::env::temp_dir().join(format!("lp_sfip_{tag}_{}.{ext}", std::process::id()))
}

/// Installs `name` around a passthrough handler, configured by `cfg`.
fn install(name: &str, cfg: &EnvConfig) -> Result<ActiveMechanism, InstallError> {
    mechanism::by_name(name)
        .expect("name parses")
        .install_with(Box::new(interpose::PassthroughHandler), cfg)
}

/// `policy` enforced with `action`.
fn enforcing(policy: &Path, action: sfip::ViolationAction) -> EnvConfig {
    EnvConfig {
        sfip_policy: Some(policy.to_path_buf()),
        sfip_action: action,
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

/// `lp-trace record <trace> <mechanism>` in a process of its own, with
/// `env` set and no ambient configuration of the layers.
fn record_under(mechanism: &str, trace: &Path, env: &[(&str, &OsStr)]) -> String {
    let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_lp-trace"));
    cmd.arg("record").arg(trace).arg(mechanism);
    for var in ["LAZYPOLINE_FAULTS", "LP_TRACE_OUT", sfip::POLICY_ENV, sfip::ACTION_ENV] {
        cmd.env_remove(var);
    }
    cmd.envs(env.iter().copied());
    let out: Output = cmd.output().expect("lp-trace runs");
    let text = format!(
        "{}\n{}{}",
        out.status,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(out.status.success(), "{text}");
    text
}

/// Records the guest under `lazypoline` and returns its decoded
/// records (the learner's input).
fn record_guest(tag: &str) -> Vec<replay::EventRecord> {
    let trace = temp(tag, "lpt");
    record_under("lazypoline", &trace, &[]);
    let (_, records) = replay::read_trace_path(&trace).expect("trace decodes");
    std::fs::remove_file(&trace).unwrap();
    records
}

#[test]
fn learned_policy_is_clean_on_its_own_workload() {
    if !native() {
        return;
    }
    let records = record_guest("clean");
    let policy = sfip::Policy::learn(&records, "lazypoline").expect("the guest learns");
    let path = temp("clean", "sfip");
    policy.save(&path).expect("policy saves");
    let trace = temp("clean_enforced", "lpt");
    let out = record_under(
        "lazypoline+sfip",
        &trace,
        &[(sfip::POLICY_ENV, path.as_os_str()), (sfip::ACTION_ENV, OsStr::new("count"))],
    );
    // Every interposed syscall was flow-checked, and the learned
    // workload runs inside its own automaton.
    assert!(out.contains("sfip (count): 4 checks, 0 violations"), "{out}");
    std::fs::remove_file(&trace).unwrap();
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn recorder_finish_is_not_flow_checked() {
    if !native() {
        return;
    }
    let records = record_guest("finish");
    let policy = sfip::Policy::learn(&records, "lazypoline").expect("the guest learns");
    let path = temp("finish", "sfip");
    policy.save(&path).expect("policy saves");
    // The session's finish (`munmap`, the allocator's `madvise`) leaves
    // through libc sites the guest rewrote; the policy never saw them.
    for action in ["count", "kill"] {
        let trace = temp(&format!("finish_{action}"), "lpt");
        let out = record_under(
            "lazypoline+sfip",
            &trace,
            &[(sfip::POLICY_ENV, path.as_os_str()), (sfip::ACTION_ENV, OsStr::new(action))],
        );
        assert!(!out.contains("flow violation"), "{action}: {out}");
        let (_, events) = replay::read_trace_path(&trace).expect("the trace is finished");
        assert_eq!(events.len(), 4, "{action}: {out}");
        std::fs::remove_file(&trace).unwrap();
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn interleaved_threads_do_not_contaminate_each_other() {
    use interpose::{SyscallEvent, SyscallHandler};
    use syscalls::SyscallArgs;

    let _g = sfip_lock();
    // Two per-thread-legal chains whose *interleaving* is illegal for
    // any global last-syscall: A alternates read↔write, B alternates
    // getpid↔exit_group. A shared last would see read→getpid etc.
    let mut policy = sfip::Policy::empty("test");
    policy.insert(nr::READ, nr::WRITE);
    policy.insert(nr::WRITE, nr::READ);
    policy.insert(nr::GETPID, nr::EXIT_GROUP);
    policy.insert(nr::EXIT_GROUP, nr::GETPID);
    let handler = Arc::new(sfip::SfipHandler::new(
        Arc::new(policy),
        sfip::ViolationAction::Count,
        false,
        Box::new(interpose::PassthroughHandler),
    ));

    let violations_before = sfip::violations();
    let barrier = Arc::new(std::sync::Barrier::new(2));
    std::thread::scope(|s| {
        for chain in [[nr::READ, nr::WRITE], [nr::GETPID, nr::EXIT_GROUP]] {
            let handler = Arc::clone(&handler);
            let barrier = Arc::clone(&barrier);
            s.spawn(move || {
                barrier.wait();
                for i in 0..2_000u64 {
                    let mut ev = SyscallEvent::new(SyscallArgs::nullary(chain[(i % 2) as usize]));
                    handler.handle(&mut ev);
                }
            });
        }
    });
    assert_eq!(
        sfip::violations() - violations_before,
        0,
        "per-thread last-syscall state: interleaving cannot cross-contaminate"
    );
}

#[test]
fn committed_fixture_learns_the_jit_automaton() {
    let fixture =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/jit_v2.lpt2");
    let (header, records) = replay::read_trace_path(&fixture).expect("fixture decodes");
    let policy = sfip::Policy::learn(&records, &header.source_mechanism).expect("fixture learns");
    assert_eq!(policy.source_mechanism(), header.source_mechanism);
    assert!(policy.allows(nr::MMAP, nr::GETPID));
    assert!(policy.allows(nr::GETPID, nr::GETPID));
    assert!(policy.allows(nr::GETPID, nr::EXIT_GROUP));
    assert!(
        !policy.allows(nr::MMAP, nr::GETUID),
        "the exploit transition is not in the fixture's automaton"
    );
    assert!(!policy.allows(nr::GETUID, nr::GETPID));
}

#[test]
fn sfip_install_errors_are_typed() {
    let _g = sfip_lock();
    // Each fails before the base arms.
    let name = "lazypoline+sfip";

    // No policy path at all.
    match install(name, &EnvConfig::default()) {
        Err(InstallError::Policy(sfip::PolicyError::NoPolicyPath)) => {}
        Err(other) => panic!("expected NoPolicyPath, got {other}"),
        Ok(_) => panic!("install without a policy cannot succeed"),
    }

    // A path that does not exist.
    let missing = enforcing(&temp("missing", "sfip"), sfip::ViolationAction::Kill);
    match install(name, &missing) {
        Err(InstallError::Policy(sfip::PolicyError::Io(_))) => {}
        Err(other) => panic!("expected Io, got {other}"),
        Ok(_) => panic!("a missing policy file cannot install"),
    }

    // A nonsense action: a configuration error naming the variable.
    let lookup = |var: &str| (var == sfip::ACTION_ENV).then(|| "explode".to_string());
    let e = EnvConfig::from_lookup(lookup).expect_err("a nonsense action cannot parse");
    assert_eq!((e.var, e.value.as_str()), (sfip::ACTION_ENV, "explode"));
    let shown = InstallError::from(e).to_string();
    assert!(shown.contains("LP_SFIP_POLICY_ACTION=\"explode\""), "{shown}");
}

/// Saves an allow-everything policy and returns a configuration that
/// enforces it in count mode; the caller removes the file.
fn allow_all(tag: &str) -> (PathBuf, EnvConfig) {
    let path = temp(tag, "sfip");
    sfip::Policy::allow_all("test")
        .save(&path)
        .expect("policy saves");
    let cfg = enforcing(&path, sfip::ViolationAction::Count);
    (path, cfg)
}

#[test]
fn record_and_sfip_compose_in_one_install() {
    if !native() {
        return;
    }
    let (policy, _) = allow_all("compose");
    let trace = temp("compose", "lpt");
    let out = record_under(
        "lazypoline+sfip",
        &trace,
        &[(sfip::POLICY_ENV, policy.as_os_str()), (sfip::ACTION_ENV, OsStr::new("count"))],
    );
    // Audit what you enforce: the guest's four calls, each checked and
    // each recorded.
    assert!(out.contains("sfip (count): 4 checks, 0 violations"), "{out}");
    assert!(out.contains("recorded 4 events (0 dropped"), "{out}");
    // The header names the static base, so `replay:` can resolve it.
    let (header, records) = replay::read_trace_path(&trace).expect("trace decodes");
    assert_eq!(header.source_mechanism, "lazypoline");
    assert_eq!(records.len(), 4);
    std::fs::remove_file(&trace).unwrap();
    std::fs::remove_file(&policy).unwrap();
}

#[test]
fn written_layer_order_is_event_flow() {
    let _g = sfip_lock();
    let (policy, cfg) = allow_all("order");
    let anchored = |name: &str, handler: &str| {
        let active = mechanism::by_name(name)
            .expect("composed name parses")
            .install_with(Box::new(interpose::CountHandler::new()), &cfg)
            .expect("composed name installs");
        let entries = active
            .hook_stack()
            .expect("+hooks exposes its stack")
            .entries();
        entries.contains(&(handler.to_string(), 0))
    };
    // `none` arms nothing, so the stacks install in this process.
    // hooks outside sfip: the stack dispatches into the SFIP wrapper,
    // which hides the caller's handler from it.
    assert!(anchored("none+hooks+sfip", "sfip"));
    assert!(!anchored("none+hooks+sfip", "count"));
    // sfip outside hooks: the stack holds the caller's handler itself.
    assert!(anchored("none+sfip+hooks", "count"));
    assert!(!anchored("none+sfip+hooks", "sfip"));
    std::fs::remove_file(&policy).unwrap();
}

#[test]
fn failing_second_layer_leaves_no_recorder_behind() {
    let _g = sfip_lock();
    let trace = temp("halfinstall", "lpt");
    let cfg = EnvConfig {
        trace_out: Some(trace.clone()),
        ..EnvConfig::default()
    };
    // Whichever side of the recorder the failing layer is written on:
    // the trace only opens once every layer's payload has validated.
    for name in ["lazypoline+record+sfip", "lazypoline+sfip+record"] {
        match install(name, &cfg) {
            Err(InstallError::Policy(sfip::PolicyError::NoPolicyPath)) => {}
            Err(other) => panic!("{name}: expected NoPolicyPath, got {other}"),
            Ok(_) => panic!("{name}: install without a policy cannot succeed"),
        }
        assert!(!trace.exists(), "{name}: no trace file was created");
    }
    // No session is left active: the next recording opens normally.
    let session = replay::Recorder::to_path(&trace, "lazypoline")
        .expect("no recorder session was left behind");
    session.finish().expect("trace finishes");
    std::fs::remove_file(&trace).unwrap();
}

#[test]
fn policy_roundtrips_through_the_on_disk_format() {
    if !native() {
        return;
    }
    let records = record_guest("roundtrip");
    let policy = sfip::Policy::learn(&records, "lazypoline").unwrap();
    let path = temp("roundtrip", "sfip");
    policy.save(&path).unwrap();
    let loaded = sfip::Policy::load(&path).unwrap();
    assert_eq!(loaded.transitions(), policy.transitions());
    assert_eq!(loaded.distinct_sysnos(), policy.distinct_sysnos());
    assert_eq!(loaded.events_folded(), policy.events_folded());
    assert_eq!(loaded.source_mechanism(), policy.source_mechanism());
    for from in [nr::MMAP, nr::GETPID, nr::GETUID, nr::READ] {
        for to in 0..512u64 {
            assert_eq!(loaded.allows(from, to), policy.allows(from, to));
        }
    }
    std::fs::remove_file(&path).unwrap();
}
