//! Simulated backends: the `sim:*` registry rows, bridging
//! `sim-interpose`'s mechanism models into the same trait the native
//! configurations implement.

use interpose::{Action, InterestSet, SyscallEvent, SyscallHandler};
use sim_interpose::{mechanism_traits, Interposed, Traits};

use crate::{
    ActiveMechanism, EnvConfig, InstallError, Inner, Mechanism, RunError, SimOutcome,
    StatsSnapshot,
};

/// One registry row: a name bound to a simulated mechanism model.
pub(crate) struct SimBackend {
    key: &'static str,
    mech: sim_interpose::Mechanism,
}

pub(crate) static SIM_BACKENDS: [SimBackend; 9] = [
    SimBackend {
        key: "sim:baseline",
        mech: sim_interpose::Mechanism::Baseline,
    },
    SimBackend {
        key: "sim:baseline-sud",
        mech: sim_interpose::Mechanism::BaselineSudEnabled,
    },
    SimBackend {
        key: "sim:ptrace",
        mech: sim_interpose::Mechanism::Ptrace,
    },
    SimBackend {
        key: "sim:seccomp-bpf",
        mech: sim_interpose::Mechanism::SeccompBpf,
    },
    SimBackend {
        key: "sim:seccomp-user",
        mech: sim_interpose::Mechanism::SeccompUser,
    },
    SimBackend {
        key: "sim:sud",
        mech: sim_interpose::Mechanism::Sud,
    },
    SimBackend {
        key: "sim:zpoline",
        mech: sim_interpose::Mechanism::Zpoline,
    },
    SimBackend {
        key: "sim:lazypoline-nox",
        mech: sim_interpose::Mechanism::Lazypoline { xstate: false },
    },
    SimBackend {
        key: "sim:lazypoline",
        mech: sim_interpose::Mechanism::Lazypoline { xstate: true },
    },
];

impl Mechanism for SimBackend {
    fn name(&self) -> &'static str {
        self.key
    }

    fn traits(&self) -> Traits {
        mechanism_traits(self.mech)
    }

    fn is_available(&self) -> bool {
        true
    }

    fn install_with(
        &self,
        handler: Box<dyn SyscallHandler>,
        _cfg: &EnvConfig,
    ) -> Result<ActiveMechanism, InstallError> {
        Ok(ActiveMechanism::new(
            self.key,
            Inner::Sim(SimActive::new(self.mech, handler)),
        ))
    }
}

/// Live simulated installation: the handler plus counters accumulated
/// across [`ActiveMechanism::run_program`] calls.
pub(crate) struct SimActive {
    mech: sim_interpose::Mechanism,
    handler: Box<dyn SyscallHandler>,
    dispatches: u64,
    slow_path_hits: u64,
}

impl SimActive {
    pub(crate) fn new(
        mech: sim_interpose::Mechanism,
        handler: Box<dyn SyscallHandler>,
    ) -> SimActive {
        SimActive {
            mech,
            handler,
            dispatches: 0,
            slow_path_hits: 0,
        }
    }

    pub(crate) fn run(&mut self, program: &[u8]) -> Result<SimOutcome, RunError> {
        // The handler's interest set plays the role the registry's
        // cached words play natively: observation-capable mechanisms
        // filter delivery to the declared numbers.
        let interest = self.handler.interest();
        let nrs: Vec<u64>;
        let filter = if interest == InterestSet::all() {
            None
        } else {
            nrs = (0..syscalls::MAX_SYSCALL_NR)
                .filter(|&nr| interest.contains(nr))
                .collect();
            Some(nrs.as_slice())
        };
        let mut ip = Interposed::setup_filtered(self.mech, program, true, filter)
            .map_err(RunError::Setup)?;
        let exit = ip.run().map_err(RunError::Sim)?;
        let observed = ip.observed_trace();

        // Replay the mechanism's observations through the handler with
        // the same event/post shape the native dispatchers use. (The
        // sim records numbers, not full argument images, so events are
        // nullary; `ptrace` logs kernel-side and ignores the filter, so
        // re-check interest here for uniform delivery semantics.)
        for &nr in &observed {
            if !interest.contains(nr) {
                continue;
            }
            let mut ev = SyscallEvent::new(syscalls::SyscallArgs::nullary(nr));
            if let Action::Passthrough = self.handler.handle(&mut ev) {
                self.handler.post(&ev, 0);
            }
        }

        self.dispatches += observed.len() as u64;
        self.slow_path_hits += ip.system.kernel.stats().sud_dispatches;
        Ok(SimOutcome { exit, observed })
    }

    /// Adds the guest counts accumulated so far (zero at install).
    pub(crate) fn add_totals(&self, s: &mut StatsSnapshot) {
        s.dispatches = self.dispatches;
        s.slow_path_hits = self.slow_path_hits;
    }
}
