//! The simulated backend: the `sim:lazypoline` registry row, bridging
//! `sim-interpose`'s hybrid into the same trait the native
//! configurations implement.

use interpose::{Action, InterestSet, SyscallEvent, SyscallHandler};
use sim_interpose::Interposed;

use crate::traits::LAZYPOLINE;
use crate::{
    ActiveMechanism, EnvConfig, InstallError, Inner, Mechanism, RunError, SimOutcome,
    StatsSnapshot, Traits,
};

/// The one simulated registry row.
pub(crate) struct SimBackend;

pub(crate) static SIM_BACKEND: SimBackend = SimBackend;

impl Mechanism for SimBackend {
    fn name(&self) -> &'static str {
        "sim:lazypoline"
    }

    fn traits(&self) -> Traits {
        LAZYPOLINE
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
            self.name(),
            Inner::Sim(SimActive::new(handler)),
        ))
    }
}

/// Live simulated installation: the handler plus counters accumulated
/// across [`ActiveMechanism::run_program`] calls.
pub(crate) struct SimActive {
    handler: Box<dyn SyscallHandler>,
    dispatches: u64,
    slow_path_hits: u64,
}

impl SimActive {
    pub(crate) fn new(handler: Box<dyn SyscallHandler>) -> SimActive {
        SimActive {
            handler,
            dispatches: 0,
            slow_path_hits: 0,
        }
    }

    pub(crate) fn run(&mut self, program: &[u8]) -> Result<SimOutcome, RunError> {
        // The handler's interest set plays the role the registry's
        // cached words play natively: the fast path filters delivery to
        // the declared numbers.
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
        let mut ip =
            Interposed::setup_filtered(program, true, filter).map_err(RunError::Setup)?;
        let exit = ip.run().map_err(RunError::Sim)?;
        let observed = ip.observed_trace();

        // Replay the observations through the handler with the same
        // event/post shape the native dispatchers use. (The sim records
        // numbers, not full argument images, so events are nullary.)
        for &nr in &observed {
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
