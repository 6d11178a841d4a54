//! The `+sfip` layer: syscall-flow-integrity enforcement composed
//! around any stack.
//!
//! `LP_SFIP_POLICY=<path>` names the `LPSFIP1` policy to enforce
//! (required — an `+sfip` install without a policy is a typed
//! [`InstallError::Policy`], never a silent no-op);
//! `LP_SFIP_POLICY_ACTION` picks the violation action
//! (`kill`|`quarantine`|`count`, default `kill`); `LP_SFIP_ORIGINS=1`
//! additionally enforces the per-site origin sets when the policy
//! carries them.

use std::sync::Arc;

use ::sfip::{Policy, SfipHandler, ViolationAction};
use interpose::SyscallHandler;

use crate::layer::LayerGuard;
use crate::{InstallError, StatsSnapshot};

/// Loads and validates the policy, action and origins switch, then
/// wraps `handler` in an [`SfipHandler`].
pub(crate) fn wrap(
    handler: Box<dyn SyscallHandler>,
) -> Result<(Box<dyn SyscallHandler>, LayerGuard), InstallError> {
    let path = match std::env::var(::sfip::POLICY_ENV) {
        Ok(p) if !p.is_empty() => p,
        _ => return Err(InstallError::Policy(::sfip::PolicyError::NoPolicyPath)),
    };
    let policy = Policy::load(path.as_ref()).map_err(InstallError::Policy)?;
    let action = ViolationAction::from_env().map_err(InstallError::Policy)?;
    let check_origins = std::env::var(::sfip::ORIGINS_ENV).is_ok_and(|v| v == "1");
    let enforcer = SfipHandler::new(Arc::new(policy), action, check_origins, handler);
    let guard = SfipGuard {
        action,
        checks_base: 0,
        violations_base: 0,
    };
    Ok((Box::new(enforcer), LayerGuard::Sfip(guard)))
}

/// An installed `+sfip` layer: the action plus install-time counter
/// baselines so the snapshot reports deltas.
pub(crate) struct SfipGuard {
    action: ViolationAction,
    checks_base: u64,
    violations_base: u64,
}

impl SfipGuard {
    /// Reads the counter baselines; runs once the base has armed.
    pub(crate) fn rebase(&mut self) {
        self.checks_base = ::sfip::checks();
        self.violations_base = ::sfip::violations();
    }

    pub(crate) fn fill(&self, s: &mut StatsSnapshot) {
        s.sfip_checks = ::sfip::checks().saturating_sub(self.checks_base);
        s.sfip_violations = ::sfip::violations().saturating_sub(self.violations_base);
        s.sfip_mode = self.action.name();
    }
}
