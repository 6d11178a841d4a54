//! The `+sfip` layer: syscall-flow-integrity enforcement composed
//! around any stack.
//!
//! `LP_SFIP_POLICY=<path>` names the `LPSFIP1` policy to enforce
//! (required — an `+sfip` install without a policy is a typed
//! [`InstallError::Policy`], never a silent no-op);
//! `LP_SFIP_POLICY_ACTION` picks the violation action
//! (`kill`|`quarantine`|`count`, default `kill`); `LP_SFIP_ORIGINS=1`
//! additionally enforces the per-site origin sets when the policy
//! carries them (`0` or empty: off; anything else fails the install).

use std::sync::Arc;

use ::sfip::{Policy, SfipHandler, ViolationAction};
use interpose::SyscallHandler;

use crate::layer::LayerGuard;
use crate::{env_switch, InstallError};

/// Loads and validates the policy, action and origins switch, then
/// wraps `handler` in an [`SfipHandler`]. The guard keeps the action
/// for [`StatsSnapshot::sfip_mode`](crate::StatsSnapshot::sfip_mode).
pub(crate) fn wrap(
    handler: Box<dyn SyscallHandler>,
) -> Result<(Box<dyn SyscallHandler>, LayerGuard), InstallError> {
    let path = match std::env::var(::sfip::POLICY_ENV) {
        Ok(p) if !p.is_empty() => p,
        _ => return Err(InstallError::Policy(::sfip::PolicyError::NoPolicyPath)),
    };
    let policy = Policy::load(path.as_ref()).map_err(InstallError::Policy)?;
    let action = ViolationAction::from_env().map_err(InstallError::Policy)?;
    let check_origins = env_switch(::sfip::ORIGINS_ENV)?;
    let enforcer = SfipHandler::new(Arc::new(policy), action, check_origins, handler);
    Ok((Box::new(enforcer), LayerGuard::Sfip(action)))
}
