//! Integration tests over the simulation stack: the paper's simulated
//! experiments must reproduce, with calibration tolerances.

use sim_cpu::asm::Asm;
use sim_cpu::reg::Gpr;
use sim_interpose::{Interposed, Mechanism};
use sim_kernel::sysno;
use sim_workloads::{bench, coreutils, jit, LibcFlavor, COREUTILS};

fn cycles(mechanism: Mechanism, program: &[u8]) -> f64 {
    let mut ip = Interposed::setup(mechanism, program, false).expect("setup");
    ip.run().expect("run");
    ip.cycles() as f64
}

#[test]
fn exhaustiveness_three_way_comparison() {
    // Paper §V-A: lazypoline's trace must equal SUD's (including the
    // JIT getpid); zpoline's must miss exactly the JIT one.
    let program = jit::build();
    let trace = |mech| {
        let mut ip = Interposed::setup(mech, &program, true).expect("setup");
        ip.run().expect("run");
        ip.observed_trace()
    };
    let sud = trace(Mechanism::Sud);
    let lazypoline = trace(Mechanism::Lazypoline { xstate: true });
    let zpoline = trace(Mechanism::Zpoline);

    assert_eq!(sud, lazypoline, "lazypoline must match SUD exactly");
    let getpids = |t: &[u64]| t.iter().filter(|&&n| n == sysno::GETPID).count();
    assert_eq!(getpids(&sud), 2);
    assert_eq!(getpids(&zpoline), 1, "zpoline misses the JIT syscall");
    // zpoline's trace is a strict subsequence of SUD's.
    let mut it = sud.iter();
    assert!(
        zpoline.iter().all(|nr| it.any(|s| s == nr)),
        "zpoline trace must be a subsequence: {zpoline:?} vs {sud:?}"
    );
}

#[test]
fn table2_ratios_within_tolerance() {
    let program = bench::microbench(2000);
    let base = cycles(Mechanism::Baseline, &program);
    let ratio = |mech| cycles(mech, &program) / base;

    let sud_enabled = ratio(Mechanism::BaselineSudEnabled);
    let zp = ratio(Mechanism::Zpoline);
    let lp_nox = ratio(Mechanism::Lazypoline { xstate: false });
    let lp = ratio(Mechanism::Lazypoline { xstate: true });
    let sud = ratio(Mechanism::Sud);
    let pt = ratio(Mechanism::Ptrace);

    // Paper Table II: 1.42x / ~1.2x / 1.66x / 2.38x / 20.8x.
    assert!((1.30..1.55).contains(&sud_enabled), "SUD-enabled {sud_enabled}");
    assert!((1.05..1.40).contains(&zp), "zpoline {zp}");
    assert!((1.45..1.90).contains(&lp_nox), "lazypoline-nox {lp_nox}");
    assert!((2.00..2.80).contains(&lp), "lazypoline {lp}");
    assert!((15.0..28.0).contains(&sud), "SUD {sud}");
    assert!(pt > 40.0, "ptrace {pt}");
    // Strict ordering.
    assert!(1.0 < zp && zp < lp_nox && lp_nox < lp && lp < sud && sud < pt);
}

#[test]
fn seccomp_bpf_is_cheap_but_blind() {
    let program = bench::microbench(1000);
    let base = cycles(Mechanism::Baseline, &program);
    let bpf = cycles(Mechanism::SeccompBpf, &program) / base;
    assert!(bpf < 1.15, "seccomp-bpf overhead {bpf}");
    let mut ip = Interposed::setup(Mechanism::SeccompBpf, &program, true).unwrap();
    ip.run().unwrap();
    assert!(ip.observed_trace().is_empty(), "cBPF cannot observe");
}

#[test]
fn sled_position_effect() {
    // zpoline's `call r0` lands at address = syscall number: low
    // numbers walk the whole sled. The paper picks 500 to minimize
    // this; verify the effect exists (a real property of the design).
    let mk = |nr: u64| {
        Asm::new()
            .mov_ri(Gpr::R11, 500)
            .label("loop")
            .mov_ri(Gpr::R0, nr)
            .syscall()
            .sub_ri(Gpr::R11, 1)
            .cmp_ri(Gpr::R11, 0)
            .jnz("loop")
            .mov_ri(Gpr::R0, sysno::EXIT_GROUP)
            .mov_ri(Gpr::R1, 0)
            .syscall()
            .assemble_at(sim_kernel::kernel::LOAD_ADDR)
            .unwrap()
    };
    // getpid (39, long sled walk) vs 500 (sled tail).
    let low = cycles(Mechanism::Zpoline, &mk(sysno::GETPID));
    let high = cycles(Mechanism::Zpoline, &mk(500));
    assert!(low > high, "sled effect missing: {low} <= {high}");
}

#[test]
fn table3_full_matrix() {
    let expect_ubuntu = ["ls", "mkdir", "mv", "cp"];
    for util in COREUTILS {
        let ubuntu = sim_pin::analyze_coreutil(util, LibcFlavor::V1Ubuntu2004).unwrap();
        assert_eq!(
            ubuntu.extended_state_affected(),
            expect_ubuntu.contains(&util.name),
            "{} on Ubuntu",
            util.name
        );
        let clear = sim_pin::analyze_coreutil(util, LibcFlavor::V3ClearLinux).unwrap();
        assert!(clear.extended_state_affected(), "{} on Clear", util.name);
    }
}

#[test]
fn coreutils_behave_identically_under_lazypoline() {
    // Functional transparency: every utility produces the same
    // filesystem effects and stdout with and without interposition.
    for util in COREUTILS {
        let run = |mech| {
            let program = coreutils::build(util, LibcFlavor::V1Ubuntu2004);
            let mut ip = Interposed::setup(mech, &program, false).expect("setup");
            coreutils::prepare_fs(&mut ip.system.kernel);
            let exit = ip.run().unwrap_or_else(|e| panic!("{}: {e}", util.name));
            assert_eq!(exit, 0);
            (
                ip.system.stdout(),
                ip.system.kernel.fs.names(),
                ip.system.kernel.fs.mode("f"),
            )
        };
        let native = run(Mechanism::Baseline);
        let interposed = run(Mechanism::Lazypoline { xstate: true });
        assert_eq!(native, interposed, "{} diverged", util.name);
    }
}

#[test]
fn lazypoline_slow_path_hits_scale_with_sites_not_calls() {
    // 3 sites × many executions each: exactly 3+1 SIGSYS trips.
    let program = Asm::new()
        .mov_ri(Gpr::R11, 100)
        .label("loop")
        .mov_ri(Gpr::R0, sysno::GETPID)
        .syscall() // site 1
        .mov_ri(Gpr::R0, sysno::GETUID)
        .syscall() // site 2
        .mov_ri(Gpr::R0, sysno::GETTID)
        .syscall() // site 3
        .sub_ri(Gpr::R11, 1)
        .cmp_ri(Gpr::R11, 0)
        .jnz("loop")
        .mov_ri(Gpr::R0, sysno::EXIT_GROUP)
        .mov_ri(Gpr::R1, 0)
        .syscall() // site 4
        .assemble_at(sim_kernel::kernel::LOAD_ADDR)
        .unwrap();
    let mut ip = Interposed::setup(Mechanism::Lazypoline { xstate: false }, &program, false)
        .unwrap();
    ip.run().unwrap();
    let st = ip.system.kernel.stats();
    assert_eq!(st.sud_dispatches, 4, "one slow trip per site: {st:?}");
    assert!(st.syscalls as i64 >= 300);
}

#[test]
fn sud_mechanism_dispatches_every_call() {
    let program = bench::microbench(50);
    let mut ip = Interposed::setup(Mechanism::Sud, &program, false).unwrap();
    ip.run().unwrap();
    let st = ip.system.kernel.stats();
    // 50 microbench syscalls dispatched via SIGSYS (exit_group too).
    assert_eq!(st.sud_dispatches, 51, "{st:?}");
}

#[test]
fn mechanism_registry_runs_sim_backends_by_name() {
    // Cross-mechanism differential through the registry: one fixed
    // workload (3 getpids + exit_group), every `sim:*` backend
    // constructed purely by name, identical observable results. The
    // backends differ only in observation capability — exactly the
    // Table I expressiveness split.
    use interpose::{Action, SyscallEvent, SyscallHandler};
    use std::sync::atomic::{AtomicU64, Ordering};

    let program = Asm::new()
        .mov_ri(Gpr::R0, sysno::GETPID)
        .syscall()
        .mov_ri(Gpr::R0, sysno::GETPID)
        .syscall()
        .mov_ri(Gpr::R0, sysno::GETPID)
        .syscall()
        .mov_ri(Gpr::R0, sysno::EXIT_GROUP)
        .mov_ri(Gpr::R1, 0)
        .syscall()
        .assemble_at(sim_kernel::kernel::LOAD_ADDR)
        .unwrap();

    static SEEN: AtomicU64 = AtomicU64::new(0);
    struct Spy;
    impl SyscallHandler for Spy {
        fn handle(&self, ev: &mut SyscallEvent) -> Action {
            if ev.call.nr == sysno::GETPID {
                SEEN.fetch_add(1, Ordering::SeqCst);
            }
            Action::Passthrough
        }
    }

    let observing = [
        "sim:ptrace",
        "sim:seccomp-user",
        "sim:sud",
        "sim:zpoline",
        "sim:lazypoline-nox",
        "sim:lazypoline",
    ];
    let blind = ["sim:baseline", "sim:baseline-sud", "sim:seccomp-bpf"];
    for (names, expect_seen) in [(&observing[..], true), (&blind[..], false)] {
        for &name in names {
            SEEN.store(0, Ordering::SeqCst);
            let backend =
                mechanism::by_name(name).unwrap_or_else(|| panic!("{name} unregistered"));
            assert!(backend.is_available(), "{name}");
            let mut active = backend.install(Box::new(Spy)).expect("install");
            let outcome = active
                .run_program(&program)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            // 1. The application-observable result is identical under
            //    every mechanism.
            assert_eq!(outcome.exit, 0, "{name}: exit status diverged");
            // 2. Observation matches the mechanism's contract.
            let seen = SEEN.load(Ordering::SeqCst);
            let getpids = outcome
                .observed
                .iter()
                .filter(|&&n| n == sysno::GETPID)
                .count();
            if expect_seen {
                assert_eq!(seen, 3, "{name}: handler saw {seen} getpids");
                assert_eq!(getpids, 3, "{name}: trace has {getpids} getpids");
                assert!(active.stats().dispatches >= 4, "{name}: {:?}", active.stats());
            } else {
                assert_eq!(seen, 0, "{name}: blind mechanism delivered events");
                assert!(
                    outcome.observed.is_empty(),
                    "{name}: unexpectedly observed {:?}",
                    outcome.observed
                );
            }
        }
    }
}

#[test]
fn lp_mechanism_env_selects_sim_backends() {
    // Every simulated mechanism is registered by name...
    for name in [
        "sim:baseline",
        "sim:baseline-sud",
        "sim:ptrace",
        "sim:seccomp-bpf",
        "sim:seccomp-user",
        "sim:sud",
        "sim:zpoline",
        "sim:lazypoline-nox",
        "sim:lazypoline",
    ] {
        assert!(
            mechanism::names().contains(&name),
            "{name} missing from the registry"
        );
    }
    // ...and LP_MECHANISM selects one.
    let select = |name: &str| {
        mechanism::EnvConfig::from_lookup(|var| (var == mechanism::ENV_VAR).then(|| name.to_string()))
    };
    let picked = select("sim:seccomp-user").expect("selection by name");
    assert_eq!(picked.mechanism, "sim:seccomp-user");
    let err = select("sim:definitely-not-registered").expect_err("an unknown name is an error");
    assert_eq!(err.var, mechanism::ENV_VAR);
    assert!(err.to_string().contains("base(+layer)*"), "{err}");
    assert!(err.to_string().contains("sim:lazypoline"), "{err}");
}
