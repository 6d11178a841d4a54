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

use ::sfip::{Policy, PolicyError, SfipHandler};
use interpose::SyscallHandler;

use crate::layer::LayerGuard;
use crate::{EnvConfig, InstallError};

/// Loads the policy `cfg` names and wraps `handler` in an
/// [`SfipHandler`] with `cfg`'s action and origins switch. The guard
/// keeps the action for
/// [`StatsSnapshot::sfip_mode`](crate::StatsSnapshot::sfip_mode).
pub(crate) fn wrap(
    handler: Box<dyn SyscallHandler>,
    cfg: &EnvConfig,
) -> Result<(Box<dyn SyscallHandler>, LayerGuard), InstallError> {
    let path = cfg
        .sfip_policy
        .as_ref()
        .ok_or(InstallError::Policy(PolicyError::NoPolicyPath))?;
    let policy = Policy::load(path).map_err(InstallError::Policy)?;
    let enforcer = SfipHandler::new(Arc::new(policy), cfg.sfip_action, cfg.sfip_origins, handler);
    Ok((Box::new(enforcer), LayerGuard::Sfip(cfg.sfip_action)))
}
