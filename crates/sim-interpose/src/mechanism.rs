//! Setting up the hybrid around a guest program, and running it.

use sim_cpu::mem::Perms;
use sim_kernel::kernel::{SudConfig, System};
use sim_kernel::{sysno, SimError};

use crate::layout::*;
use crate::stubs::{lazypoline_handler, trampoline_page, StubConfig};

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

/// A guest program armed with the hybrid.
#[derive(Debug)]
pub struct Interposed {
    /// The underlying system (public for workload-specific pre/post
    /// state, e.g. populating the filesystem).
    pub system: System,
}

impl Interposed {
    /// Sets up the hybrid around `program` (loaded at the standard
    /// address). `trace` arms the interposer's syscall recording;
    /// benchmarks leave it off so the interposer matches the paper's
    /// "dummy" function.
    ///
    /// # Errors
    ///
    /// See [`SetupError`].
    pub fn setup(program: &[u8], trace: bool) -> Result<Interposed, SetupError> {
        Interposed::setup_filtered(program, trace, None)
    }

    /// Like [`Interposed::setup`], with an optional syscall-interest
    /// filter: when `interest` is `Some(nrs)`, the fast path's
    /// recording logic consults a per-number table in guest memory and
    /// skips numbers outside `nrs` — the simulated counterpart of the
    /// native `InterestSet` fast-path filter. Filtered syscalls still
    /// *execute* normally; only the interposer's observation work is
    /// skipped. `None` records everything. The slow path records
    /// nothing itself: it resumes at the rewritten site, whose fast
    /// path applies the filter.
    ///
    /// # Errors
    ///
    /// See [`SetupError`].
    pub fn setup_filtered(
        program: &[u8],
        trace: bool,
        interest: Option<&[u64]>,
    ) -> Result<Interposed, SetupError> {
        let mut system = System::new();

        // Shared data page: selector + trace buffer.
        system.machine.mem.map(DATA_BASE, 4096, Perms::RW);

        // Interest table: one byte per syscall number.
        if let Some(nrs) = interest {
            system
                .machine
                .mem
                .map(INTEREST_BASE, INTEREST_LEN, Perms::RW);
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

        let page = trampoline_page(StubConfig {
            trace,
            interest: interest.is_some(),
        });
        install_code(&mut system, TRAMPOLINE_BASE, &page);
        let handler = lazypoline_handler()
            .assemble_at(HANDLER_BASE)
            .map_err(|e| SetupError::Assembly(e.to_string()))?;
        install_code(&mut system, HANDLER_BASE, &handler);
        system
            .kernel
            .set_signal_handler(sysno::SIGSYS, HANDLER_BASE);
        // Selector-only SUD: no allowlisted range (§IV-A).
        system.kernel.set_sud(SudConfig {
            enabled: true,
            selector_addr: SELECTOR_ADDR,
            allow_start: 0,
            allow_len: 0,
        });
        system
            .machine
            .mem
            .write(SELECTOR_ADDR, &[sysno::SELECTOR_BLOCK])
            .expect("data page mapped");

        system.load_program(program)?;
        Ok(Interposed { system })
    }

    /// Runs the guest to completion.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`].
    pub fn run(&mut self) -> Result<i64, SimError> {
        self.system.run()
    }

    /// The syscalls the interposer observed, in order: the guest trace
    /// buffer the fast path appends to.
    pub fn observed_trace(&self) -> Vec<u64> {
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
        let mut ip = Interposed::setup(&attack_program(), true).unwrap();
        assert_eq!(ip.run().unwrap(), 0);
        let trace = ip.observed_trace();
        assert!(
            trace.contains(&sysno::GETPID),
            "honest syscalls observed: {trace:?}"
        );
        assert!(
            !trace.contains(&sysno::GETUID),
            "hidden syscall should have evaded: {trace:?}"
        );
    }

    #[test]
    fn every_mechanism_runs_the_workload_correctly() {
        // The one mechanism, in every setup this crate offers: traced
        // or not, filtered or not. The result never changes.
        for (trace, interest) in [(false, None), (true, None), (true, Some(&[][..]))] {
            let mut ip = Interposed::setup_filtered(&getpid_x3(), trace, interest).unwrap();
            assert_eq!(ip.run().unwrap(), 0, "{trace} {interest:?}");
            assert_eq!(
                ip.system.machine.gpr(Gpr::R12),
                1000,
                "{trace} {interest:?}"
            );
        }
    }

    #[test]
    fn interposers_observe_expected_traces() {
        // The interposer sees every getpid (+ the exit_group, caught
        // before termination).
        let mut ip = Interposed::setup(&getpid_x3(), true).unwrap();
        ip.run().unwrap();
        let trace = ip.observed_trace();
        let getpids = trace.iter().filter(|&&n| n == sysno::GETPID).count();
        assert_eq!(getpids, 3, "{trace:?}");
    }

    #[test]
    fn lazypoline_patches_lazily_and_reuses_fast_path() {
        let mut ip = Interposed::setup(&getpid_x3(), true).unwrap();
        ip.run().unwrap();
        let st = ip.system.kernel.stats();
        // 4 distinct sites (3 getpid + exit_group); each SIGSYSes once.
        // After patching, re-execution goes through the trampoline:
        // only first executions hit the slow path.
        assert_eq!(st.sud_dispatches, 4, "{st:?}");
        // The patched bytes really are CALL r0 now.
        let mut b = [0u8; 2];
        ip.system
            .machine
            .mem
            .read_privileged(LOAD_ADDR + 10, &mut b)
            .unwrap();
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
        let mut ip = Interposed::setup(&loop_prog, true).unwrap();
        ip.run().unwrap();
        let st = ip.system.kernel.stats();
        assert_eq!(st.sud_dispatches, 2); // getpid site + exit site
        let trace = ip.observed_trace();
        assert_eq!(trace.iter().filter(|&&n| n == sysno::GETPID).count(), 50);
    }

    #[test]
    fn interest_filter_skips_observation_but_not_execution() {
        // Interested only in exit_group: the getpids must run correctly
        // (r12 == 1000, exit 0) yet stay unobserved.
        let mut ip =
            Interposed::setup_filtered(&getpid_x3(), true, Some(&[sysno::EXIT_GROUP])).unwrap();
        assert_eq!(ip.run().unwrap(), 0);
        assert_eq!(ip.system.machine.gpr(Gpr::R12), 1000);
        let trace = ip.observed_trace();
        assert_eq!(
            trace.iter().filter(|&&n| n == sysno::GETPID).count(),
            0,
            "filtered getpid leaked into {trace:?}"
        );
    }

    #[test]
    fn interest_filter_cuts_interposition_cycles() {
        // Same workload, all-interest vs none-interest: the filtered
        // run retires fewer instructions (it skips the recording
        // fragment on every dispatch) and both must stay correct.
        let run = |interest: Option<&[u64]>| {
            let mut ip = Interposed::setup_filtered(&getpid_x3(), true, interest).unwrap();
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
