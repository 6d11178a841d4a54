//! Mechanism setup and execution.

use sim_cpu::mem::Perms;
use sim_kernel::kernel::{SudConfig, System};
use sim_kernel::seccomp::BpfProgram;
use sim_kernel::{sysno, SimError};

use crate::layout::*;
use crate::stubs::{
    self, emulating_handler, lazypoline_handler, trampoline_page, HandlerConfig, StubConfig,
};

/// The interposition mechanisms of Table I (plus the uninterposed
/// baseline).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Mechanism {
    /// Native execution, no interposition.
    Baseline,
    /// Native execution with SUD enabled but the selector at ALLOW —
    /// Table II's "baseline with SUD enabled" row.
    BaselineSudEnabled,
    /// A ptrace tracer attached in syscall-tracing mode.
    Ptrace,
    /// In-kernel cBPF filter (allow-all: the most favourable case).
    SeccompBpf,
    /// seccomp TRAP deferral to a userspace SIGSYS handler.
    SeccompUser,
    /// Syscall User Dispatch with the classic allowlisted handler.
    Sud,
    /// Static binary rewriting only (no kernel involvement).
    Zpoline,
    /// The hybrid: SUD slow path + lazy rewriting fast path.
    Lazypoline {
        /// Preserve vector state in the fast path (paper §IV-B(b)).
        xstate: bool,
    },
}

impl Mechanism {
    /// Display name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            Mechanism::Baseline => "baseline",
            Mechanism::BaselineSudEnabled => "baseline+SUD(ALLOW)",
            Mechanism::Ptrace => "ptrace",
            Mechanism::SeccompBpf => "seccomp-bpf",
            Mechanism::SeccompUser => "seccomp-user",
            Mechanism::Sud => "SUD",
            Mechanism::Zpoline => "zpoline",
            Mechanism::Lazypoline { xstate: true } => "lazypoline",
            Mechanism::Lazypoline { xstate: false } => "lazypoline (no xstate)",
        }
    }

    /// All mechanisms, in Table-II-like order.
    pub fn all() -> [Mechanism; 9] {
        [
            Mechanism::Baseline,
            Mechanism::BaselineSudEnabled,
            Mechanism::Zpoline,
            Mechanism::Lazypoline { xstate: false },
            Mechanism::Lazypoline { xstate: true },
            Mechanism::Sud,
            Mechanism::SeccompUser,
            Mechanism::SeccompBpf,
            Mechanism::Ptrace,
        ]
    }
}

/// Setup failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SetupError {
    /// Guest program failed to load.
    Sim(SimError),
    /// A stub failed to assemble (internal bug).
    Assembly(String),
}

impl std::fmt::Display for SetupError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SetupError::Sim(e) => write!(f, "simulation error: {e}"),
            SetupError::Assembly(e) => write!(f, "stub assembly: {e}"),
        }
    }
}

impl std::error::Error for SetupError {}

impl From<SimError> for SetupError {
    fn from(e: SimError) -> SetupError {
        SetupError::Sim(e)
    }
}

/// A guest program armed with one interposition mechanism.
#[derive(Debug)]
pub struct Interposed {
    /// The underlying system (public for workload-specific pre/post
    /// state, e.g. populating the filesystem).
    pub system: System,
    mechanism: Mechanism,
}

impl Interposed {
    /// Sets up `mechanism` around `program` (loaded at the standard
    /// address). `trace` arms the interposer's syscall recording
    /// (exhaustiveness experiments); benchmarks leave it off so the
    /// interposer matches the paper's "dummy" function.
    ///
    /// # Errors
    ///
    /// See [`SetupError`].
    pub fn setup(mechanism: Mechanism, program: &[u8], trace: bool) -> Result<Interposed, SetupError> {
        Interposed::setup_filtered(mechanism, program, trace, None)
    }

    /// Like [`Interposed::setup`], with an optional syscall-interest
    /// filter: when `interest` is `Some(nrs)`, the interposer's
    /// recording logic consults a per-number table in guest memory and
    /// skips numbers outside `nrs` — the simulated counterpart of the
    /// native `InterestSet` fast-path filter. Filtered syscalls still
    /// *execute* normally; only the interposer's observation work is
    /// skipped. `None` records everything, as before.
    ///
    /// The filter applies to the mechanisms with a userspace
    /// observation path (zpoline and lazypoline trampoline stubs, the
    /// SUD and seccomp-user handlers); ptrace's kernel-side log and
    /// seccomp-bpf are unaffected.
    ///
    /// # Errors
    ///
    /// See [`SetupError`].
    pub fn setup_filtered(
        mechanism: Mechanism,
        program: &[u8],
        trace: bool,
        interest: Option<&[u64]>,
    ) -> Result<Interposed, SetupError> {
        let mut system = System::new();
        let mut program = program.to_vec();
        let filtered = interest.is_some();

        // Shared data page: selector + trace buffer.
        system.machine.mem.map(DATA_BASE, 4096, Perms::RW);

        // Interest table: one byte per syscall number.
        if let Some(nrs) = interest {
            system.machine.mem.map(INTEREST_BASE, INTEREST_LEN, Perms::RW);
            for &nr in nrs {
                if nr < INTEREST_LEN {
                    system
                        .machine
                        .mem
                        .write(INTEREST_BASE + nr, &[1])
                        .expect("fresh mapping");
                }
            }
        }

        let asm_err = |e: sim_cpu::asm::AsmError| SetupError::Assembly(e.to_string());

        match mechanism {
            Mechanism::Baseline => {}
            Mechanism::BaselineSudEnabled => {
                system.kernel.set_sud(SudConfig {
                    enabled: true,
                    selector_addr: SELECTOR_ADDR,
                    allow_start: 0,
                    allow_len: 0,
                });
                // Selector stays ALLOW (zeroed page).
            }
            Mechanism::Ptrace => system.kernel.set_ptrace(true),
            Mechanism::SeccompBpf => system.kernel.install_seccomp(BpfProgram::allow_all()),
            Mechanism::SeccompUser => {
                let handler = emulating_handler(HandlerConfig {
                    trace,
                    manage_selector: false,
                    interest: filtered,
                })
                .assemble_at(HANDLER_BASE)
                .map_err(asm_err)?;
                install_code(&mut system, HANDLER_BASE, &handler);
                system.kernel.set_signal_handler(sysno::SIGSYS, HANDLER_BASE);
                system.kernel.install_seccomp(BpfProgram::trap_all_except_ip_range(
                    HANDLER_BASE,
                    HANDLER_BASE + HANDLER_LEN,
                ));
            }
            Mechanism::Sud => {
                let handler = emulating_handler(HandlerConfig {
                    trace,
                    manage_selector: true,
                    interest: filtered,
                })
                .assemble_at(HANDLER_BASE)
                .map_err(asm_err)?;
                install_code(&mut system, HANDLER_BASE, &handler);
                system.kernel.set_signal_handler(sysno::SIGSYS, HANDLER_BASE);
                // Classic deployment: handler range allowlisted.
                system.kernel.set_sud(SudConfig {
                    enabled: true,
                    selector_addr: SELECTOR_ADDR,
                    allow_start: HANDLER_BASE,
                    allow_len: HANDLER_LEN,
                });
                set_selector(&mut system, sysno::SELECTOR_BLOCK);
            }
            Mechanism::Zpoline => {
                // Static rewriting + trampoline; no kernel machinery.
                stubs::static_rewrite(&mut program);
                let page = trampoline_page(StubConfig {
                    trace,
                    xstate: false,
                    sud_aware: false,
                    interest: filtered,
                });
                install_code(&mut system, TRAMPOLINE_BASE, &page);
            }
            Mechanism::Lazypoline { xstate } => {
                let page = trampoline_page(StubConfig {
                    trace,
                    xstate,
                    sud_aware: true,
                    interest: filtered,
                });
                install_code(&mut system, TRAMPOLINE_BASE, &page);
                let handler = lazypoline_handler()
                    .assemble_at(HANDLER_BASE)
                    .map_err(asm_err)?;
                install_code(&mut system, HANDLER_BASE, &handler);
                system.kernel.set_signal_handler(sysno::SIGSYS, HANDLER_BASE);
                // Selector-only SUD: no allowlisted range (§IV-A).
                system.kernel.set_sud(SudConfig {
                    enabled: true,
                    selector_addr: SELECTOR_ADDR,
                    allow_start: 0,
                    allow_len: 0,
                });
                set_selector(&mut system, sysno::SELECTOR_BLOCK);
            }
        }

        system.load_program(&program)?;
        Ok(Interposed { system, mechanism })
    }

    /// The configured mechanism.
    pub fn mechanism(&self) -> Mechanism {
        self.mechanism
    }

    /// Runs the guest to completion.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`].
    pub fn run(&mut self) -> Result<i64, SimError> {
        self.system.run()
    }

    /// The syscalls this mechanism's interposer observed, in order.
    ///
    /// For userspace interposers this reads the guest trace buffer;
    /// for ptrace it is the tracer's log; for seccomp-bpf it is empty
    /// (the filter cannot export what it saw — the expressiveness
    /// limitation itself).
    pub fn observed_trace(&self) -> Vec<u64> {
        if self.mechanism == Mechanism::Ptrace {
            return self.system.kernel.ptrace_log.clone();
        }
        let mem = &self.system.machine.mem;
        let Ok(count) = mem.read_u64(TRACE_IDX_ADDR) else {
            return Vec::new();
        };
        (0..count.min(TRACE_CAP))
            .filter_map(|i| mem.read_u64(TRACE_ENTRIES_ADDR + 8 * i).ok())
            .collect()
    }
}

fn install_code(system: &mut System, base: u64, code: &[u8]) {
    system
        .machine
        .mem
        .map(base, code.len().max(1) as u64, Perms::RW);
    system.machine.mem.write(base, code).expect("fresh mapping");
    system
        .machine
        .mem
        .protect(base, code.len().max(1) as u64, Perms::RX)
        .expect("fresh mapping");
}

fn set_selector(system: &mut System, value: u8) {
    system
        .machine
        .mem
        .write(SELECTOR_ADDR, &[value])
        .expect("data page mapped");
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_cpu::asm::Asm;
    use sim_cpu::reg::Gpr;
    use sim_kernel::kernel::LOAD_ADDR;

    /// getpid ×3, store last result in r12, exit.
    fn getpid_x3() -> Vec<u8> {
        Asm::new()
            .mov_ri(Gpr::R0, sysno::GETPID)
            .syscall()
            .mov_ri(Gpr::R0, sysno::GETPID)
            .syscall()
            .mov_ri(Gpr::R0, sysno::GETPID)
            .syscall()
            .mov_rr(Gpr::R12, Gpr::R0)
            .mov_ri(Gpr::R0, sysno::EXIT_GROUP)
            .mov_ri(Gpr::R1, 0)
            .syscall()
            .assemble_at(LOAD_ADDR)
            .unwrap()
    }

    /// The application under attack (paper §VI): one honest `getpid`,
    /// then the attacker — a plain store of ALLOW to the selector, a
    /// hidden `getuid`, BLOCK restored; then another honest `getpid`.
    fn attack_program() -> Vec<u8> {
        Asm::new()
            .mov_ri(Gpr::R0, sysno::GETPID)
            .syscall()
            .mov_ri(Gpr::R7, SELECTOR_ADDR)
            .mov_ri(Gpr::R8, sysno::SELECTOR_ALLOW as u64)
            .store_b(Gpr::R7, Gpr::R8, 0)
            .mov_ri(Gpr::R0, sysno::GETUID)
            .syscall()
            .mov_ri(Gpr::R8, sysno::SELECTOR_BLOCK as u64)
            .store_b(Gpr::R7, Gpr::R8, 0)
            .mov_ri(Gpr::R0, sysno::GETPID)
            .syscall()
            .mov_ri(Gpr::R0, sysno::EXIT_GROUP)
            .mov_ri(Gpr::R1, 0)
            .syscall()
            .assemble_at(LOAD_ADDR)
            .expect("attack program assembles")
    }

    #[test]
    fn plain_lazypoline_mechanism_attack_evades() {
        // Unhardened lazypoline: the attack completes, and the hidden
        // getuid is missing from the observed trace.
        let mut ip =
            Interposed::setup(Mechanism::Lazypoline { xstate: true }, &attack_program(), true)
                .unwrap();
        assert_eq!(ip.run().unwrap(), 0);
        let trace = ip.observed_trace();
        assert!(trace.contains(&sysno::GETPID), "honest syscalls observed: {trace:?}");
        assert!(!trace.contains(&sysno::GETUID), "hidden syscall should have evaded: {trace:?}");
    }

    #[test]
    fn every_mechanism_runs_the_workload_correctly() {
        for mech in Mechanism::all() {
            let mut ip = Interposed::setup(mech, &getpid_x3(), true).unwrap();
            let exit = ip.run().unwrap_or_else(|e| panic!("{mech:?}: {e}"));
            assert_eq!(exit, 0, "{mech:?}");
            assert_eq!(ip.system.machine.gpr(Gpr::R12), 1000, "{mech:?}");
        }
    }

    #[test]
    fn interposers_observe_expected_traces() {
        // Exhaustive mechanisms see getpid ×3 (+ the exit_group for
        // those that catch it before termination).
        for mech in [
            Mechanism::Sud,
            Mechanism::SeccompUser,
            Mechanism::Lazypoline { xstate: true },
            Mechanism::Lazypoline { xstate: false },
            Mechanism::Zpoline,
            Mechanism::Ptrace,
        ] {
            let mut ip = Interposed::setup(mech, &getpid_x3(), true).unwrap();
            ip.run().unwrap();
            let trace = ip.observed_trace();
            let getpids = trace.iter().filter(|&&n| n == sysno::GETPID).count();
            assert_eq!(getpids, 3, "{mech:?}: {trace:?}");
        }
        // seccomp-bpf cannot report anything.
        let mut ip = Interposed::setup(Mechanism::SeccompBpf, &getpid_x3(), true).unwrap();
        ip.run().unwrap();
        assert!(ip.observed_trace().is_empty());
    }

    #[test]
    fn lazypoline_patches_lazily_and_reuses_fast_path() {
        let mut ip =
            Interposed::setup(Mechanism::Lazypoline { xstate: false }, &getpid_x3(), true)
                .unwrap();
        ip.run().unwrap();
        let st = ip.system.kernel.stats();
        // 4 distinct sites (3 getpid + exit_group); each SIGSYSes once.
        // After patching, re-execution goes through the trampoline:
        // only first executions hit the slow path.
        assert_eq!(st.sud_dispatches, 4, "{st:?}");
        // The patched bytes really are CALL r0 now.
        let mut b = [0u8; 2];
        ip.system.machine.mem.read_privileged(LOAD_ADDR + 10, &mut b).unwrap();
        assert_eq!(b, [0xff, 0xd0]);
    }

    #[test]
    fn lazypoline_fast_path_dominates_on_loops() {
        // A loop re-executing one site: exactly one slow-path trip.
        let loop_prog = Asm::new()
            .mov_ri(Gpr::R11, 50)
            .label("loop")
            .mov_ri(Gpr::R0, sysno::GETPID)
            .syscall()
            .sub_ri(Gpr::R11, 1)
            .cmp_ri(Gpr::R11, 0)
            .jnz("loop")
            .mov_ri(Gpr::R0, sysno::EXIT_GROUP)
            .mov_ri(Gpr::R1, 0)
            .syscall()
            .assemble_at(LOAD_ADDR)
            .unwrap();
        let mut ip =
            Interposed::setup(Mechanism::Lazypoline { xstate: false }, &loop_prog, true).unwrap();
        ip.run().unwrap();
        let st = ip.system.kernel.stats();
        assert_eq!(st.sud_dispatches, 2); // getpid site + exit site
        let trace = ip.observed_trace();
        assert_eq!(
            trace.iter().filter(|&&n| n == sysno::GETPID).count(),
            50
        );
    }

    #[test]
    fn zpoline_misses_nothing_static_but_sud_costs_nothing() {
        // zpoline on the same loop: no SIGSYS at all, everything
        // through the statically-patched site.
        let loop_prog = getpid_x3();
        let mut ip = Interposed::setup(Mechanism::Zpoline, &loop_prog, true).unwrap();
        ip.run().unwrap();
        assert_eq!(ip.system.kernel.stats().sud_dispatches, 0);
        assert_eq!(ip.system.kernel.stats().signals_delivered, 0);
    }

    #[test]
    fn interest_filter_skips_observation_but_not_execution() {
        for mech in [
            Mechanism::Lazypoline { xstate: false },
            Mechanism::Zpoline,
            Mechanism::Sud,
            Mechanism::SeccompUser,
        ] {
            // Interested only in exit_group: the getpids must run
            // correctly (r12 == 1000, exit 0) yet stay unobserved.
            let mut ip = Interposed::setup_filtered(
                mech,
                &getpid_x3(),
                true,
                Some(&[sysno::EXIT_GROUP]),
            )
            .unwrap();
            assert_eq!(ip.run().unwrap(), 0, "{mech:?}");
            assert_eq!(ip.system.machine.gpr(Gpr::R12), 1000, "{mech:?}");
            let trace = ip.observed_trace();
            assert_eq!(
                trace.iter().filter(|&&n| n == sysno::GETPID).count(),
                0,
                "{mech:?}: filtered getpid leaked into {trace:?}"
            );
        }
    }

    #[test]
    fn interest_filter_cuts_interposition_cycles() {
        // Same workload, all-interest vs none-interest: the filtered
        // run retires fewer instructions (it skips the recording
        // fragment on every dispatch) and both must stay correct.
        let run = |interest: Option<&[u64]>| {
            let mut ip = Interposed::setup_filtered(
                Mechanism::Lazypoline { xstate: false },
                &getpid_x3(),
                true,
                interest,
            )
            .unwrap();
            ip.run().unwrap();
            ip.system.machine.retired()
        };
        let unfiltered = run(None);
        let filtered = run(Some(&[]));
        assert!(
            filtered < unfiltered,
            "filtered {filtered} !< unfiltered {unfiltered}"
        );
    }
}
