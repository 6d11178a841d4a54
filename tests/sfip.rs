//! End-to-end syscall-flow-integrity over the simulated hybrid:
//! record a workload, learn its transition automaton, enforce it in
//! the fast path, and demonstrate the escape plain interposition
//! misses.
//!
//! The recorder session and the global sfip counters are process-wide,
//! so every test here serializes behind one lock. Each install is
//! configured through `install_with`, never the environment.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

use lazypoline_suite::{interpose, mechanism, replay, sfip, sim_kernel, sim_workloads};
use mechanism::{ActiveMechanism, EnvConfig, InstallError};
use sim_kernel::sysno;

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

/// Records the fixed JIT workload under `sim:lazypoline+record` and
/// returns its decoded records (the learner's input).
fn record_jit(tag: &str) -> Vec<replay::EventRecord> {
    let trace = temp(tag, "lpt");
    let cfg = EnvConfig {
        trace_out: Some(trace.clone()),
        ..EnvConfig::default()
    };
    let mut active = install("sim:lazypoline+record", &cfg).expect("sim backends always install");
    let out = active
        .run_program(&sim_workloads::jit::build())
        .expect("guest runs");
    assert_eq!(out.exit, 0);
    active
        .finish_recording()
        .expect("a trace session is active")
        .expect("trace finishes");
    let (_, records) = replay::read_trace_path(&trace).expect("trace decodes");
    std::fs::remove_file(&trace).unwrap();
    records
}

/// Learns the JIT automaton, saves it, and installs
/// `sim:lazypoline+sfip` against it with the given action.
fn install_sfip_jit(tag: &str, action: sfip::ViolationAction) -> (ActiveMechanism, PathBuf) {
    let records = record_jit(tag);
    let policy = sfip::Policy::learn(&records, "sim:lazypoline").expect("jit trace learns");
    let path = temp(tag, "sfip");
    policy.save(&path).expect("policy saves");
    let active = install("sim:lazypoline+sfip", &enforcing(&path, action))
        .expect("a learned policy installs");
    (active, path)
}

#[test]
fn learned_policy_is_clean_on_its_own_workload() {
    let _g = sfip_lock();
    let (mut active, path) = install_sfip_jit("clean", sfip::ViolationAction::Count);
    let out = active
        .run_program(&sim_workloads::jit::build())
        .expect("guest runs under enforcement");
    assert_eq!(out.exit, 0);
    let stats = active.stats();
    assert_eq!(stats.mechanism, "sim:lazypoline+sfip");
    assert_eq!(stats.sfip_mode, "count");
    assert_eq!(
        stats.sfip_checks,
        out.observed.len() as u64,
        "every interposed syscall was flow-checked"
    );
    assert_eq!(
        stats.sfip_violations, 0,
        "the learned workload replays inside its own automaton"
    );
    drop(active);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn escape_passes_plain_lazypoline_but_sfip_counts_it() {
    let _g = sfip_lock();

    // Plain interposition fails open: the exploited JIT page's getuid
    // is just another syscall — same exit, nothing flagged.
    let mut plain = install("sim:lazypoline", &EnvConfig::default()).unwrap();
    let out = plain
        .run_program(&sim_workloads::jit::build_escape())
        .expect("escape runs");
    assert_eq!(out.exit, 0, "plain lazypoline executes the exploit");
    assert_eq!(plain.stats().sfip_checks, 0, "no flow checking at all");
    drop(plain);

    // Under the automaton learned from the *benign* run, the exploit's
    // two off-policy transitions (mmap→getuid, getuid→getpid) are both
    // counted; count mode still lets the program finish.
    let (mut active, path) = install_sfip_jit("escape", sfip::ViolationAction::Count);
    let out = active
        .run_program(&sim_workloads::jit::build_escape())
        .expect("count mode does not block");
    assert_eq!(out.exit, 0);
    let stats = active.stats();
    assert_eq!(stats.sfip_checks, 4);
    assert_eq!(stats.sfip_violations, 2, "mmap→getuid and getuid→getpid");
    drop(active);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn quarantine_freezes_checking_after_first_violation() {
    let _g = sfip_lock();
    let (mut active, path) = install_sfip_jit("quarantine", sfip::ViolationAction::Quarantine);
    let out = active
        .run_program(&sim_workloads::jit::build_escape())
        .expect("quarantine disables and passes through");
    assert_eq!(out.exit, 0, "execution continues unchecked");
    let stats = active.stats();
    assert_eq!(stats.sfip_mode, "quarantine");
    assert_eq!(stats.sfip_violations, 1, "exactly the first violation");
    assert_eq!(
        stats.sfip_checks, 2,
        "mmap and the violating getuid; checking stops there"
    );
    drop(active);
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
    policy.insert(sysno::READ, sysno::WRITE);
    policy.insert(sysno::WRITE, sysno::READ);
    policy.insert(sysno::GETPID, sysno::EXIT_GROUP);
    policy.insert(sysno::EXIT_GROUP, sysno::GETPID);
    let handler = Arc::new(sfip::SfipHandler::new(
        Arc::new(policy),
        sfip::ViolationAction::Count,
        false,
        Box::new(interpose::PassthroughHandler),
    ));

    let violations_before = sfip::violations();
    let barrier = Arc::new(std::sync::Barrier::new(2));
    std::thread::scope(|s| {
        for chain in [
            [sysno::READ, sysno::WRITE],
            [sysno::GETPID, sysno::EXIT_GROUP],
        ] {
            let handler = Arc::clone(&handler);
            let barrier = Arc::clone(&barrier);
            s.spawn(move || {
                barrier.wait();
                for i in 0..2_000u64 {
                    let nr = chain[(i % 2) as usize];
                    let mut ev = SyscallEvent::new(SyscallArgs::nullary(nr));
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
    assert_eq!(policy.source_mechanism(), "sim:lazypoline");
    assert!(policy.allows(sysno::MMAP, sysno::GETPID));
    assert!(policy.allows(sysno::GETPID, sysno::GETPID));
    assert!(policy.allows(sysno::GETPID, sysno::EXIT_GROUP));
    assert!(
        !policy.allows(sysno::MMAP, sysno::GETUID),
        "the exploit transition is not in the fixture's automaton"
    );
    assert!(!policy.allows(sysno::GETUID, sysno::GETPID));
}

#[test]
fn sfip_install_errors_are_typed() {
    let _g = sfip_lock();
    let name = "sim:lazypoline+sfip";

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
    let _g = sfip_lock();
    let (policy, cfg) = allow_all("compose");
    let trace = temp("compose", "lpt");
    let cfg = EnvConfig {
        trace_out: Some(trace.clone()),
        ..cfg
    };
    let mut active = install("sim:lazypoline+record+sfip", &cfg).expect("both layers install");
    let out = active
        .run_program(&sim_workloads::jit::build())
        .expect("guest runs");
    assert_eq!(out.exit, 0);
    let observed = out.observed.len() as u64;

    // Audit what you enforce: one snapshot carries both layers' counts.
    let stats = active.stats();
    assert_eq!(stats.mechanism, "sim:lazypoline+record+sfip");
    assert_eq!(stats.sfip_mode, "count");
    assert_eq!(stats.sfip_checks, observed);
    assert_eq!(stats.sfip_violations, 0);
    assert_eq!(stats.events_recorded, observed);
    let summary = active
        .finish_recording()
        .expect("the record layer holds a trace session")
        .expect("trace finishes");
    assert_eq!(summary.events, observed);
    drop(active);

    // The header names the static base, so `replay:` can resolve it.
    let (header, records) = replay::read_trace_path(&trace).expect("trace decodes");
    assert_eq!(header.source_mechanism, "sim:lazypoline");
    assert_eq!(records.len() as u64, observed);
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
    // hooks outside sfip: the stack dispatches into the SFIP wrapper,
    // which hides the caller's handler from it.
    assert!(anchored("sim:lazypoline+hooks+sfip", "sfip"));
    assert!(!anchored("sim:lazypoline+hooks+sfip", "count"));
    // sfip outside hooks: the stack holds the caller's handler itself.
    assert!(anchored("sim:lazypoline+sfip+hooks", "count"));
    assert!(!anchored("sim:lazypoline+sfip+hooks", "sfip"));
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
    for name in ["sim:lazypoline+record+sfip", "sim:lazypoline+sfip+record"] {
        match install(name, &cfg) {
            Err(InstallError::Policy(sfip::PolicyError::NoPolicyPath)) => {}
            Err(other) => panic!("{name}: expected NoPolicyPath, got {other}"),
            Ok(_) => panic!("{name}: install without a policy cannot succeed"),
        }
        assert!(!trace.exists(), "{name}: no trace file was created");
    }
    // No session is left active: the next recording opens normally.
    let session = replay::Recorder::to_path(&trace, "sim:lazypoline")
        .expect("no recorder session was left behind");
    session.finish().expect("trace finishes");
    std::fs::remove_file(&trace).unwrap();
}

#[test]
fn policy_roundtrips_through_the_on_disk_format() {
    let _g = sfip_lock();
    let records = record_jit("roundtrip");
    let policy = sfip::Policy::learn(&records, "sim:lazypoline").unwrap();
    let path = temp("roundtrip", "sfip");
    policy.save(&path).unwrap();
    let loaded = sfip::Policy::load(&path).unwrap();
    assert_eq!(loaded.transitions(), policy.transitions());
    assert_eq!(loaded.distinct_sysnos(), policy.distinct_sysnos());
    assert_eq!(loaded.events_folded(), policy.events_folded());
    assert_eq!(loaded.source_mechanism(), policy.source_mechanism());
    for from in [sysno::MMAP, sysno::GETPID, sysno::GETUID, sysno::READ] {
        for to in 0..512u64 {
            assert_eq!(loaded.allows(from, to), policy.allows(from, to));
        }
    }
    std::fs::remove_file(&path).unwrap();
}
