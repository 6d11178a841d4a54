//! The `+hooks` layer: a [`HookStack`] as the handler — what the name
//! puts below it (the caller's compiled-in handler, or the next layer's
//! wrapper around it) at priority 0, plus every hook library named by
//! `LP_HOOKS=lib.so[:prio],...` loaded through the `lp_hook_v1` ABI and
//! stacked by priority. The stack is built here, once; installing it
//! seals it.
//!
//! # Propagation
//!
//! *fork*: the loaded libraries, the stack, and the registry's
//! handler pointer are ordinary inherited memory; the engine re-arms
//! SUD in the child, so hooks keep firing without any reload (the
//! native `hook_stack` scenario proves it).
//! *execve*: memory is wiped, but `LP_HOOKS` survives in the
//! environment — a preloaded `lazypoline-preload` in the new image
//! installs through this registry again at its constructor, and so
//! reloads the same hook set.

use std::sync::Arc;

use hookabi::LoadedHook;
use interpose::{Action, HookStack, InterestSet, SyscallEvent, SyscallHandler};

use crate::layer::LayerGuard;
use crate::{EnvConfig, InstallError};

/// Shares one [`LoadedHook`] between the stack entry (which needs a
/// `Box<dyn SyscallHandler>`) and the install guard (which needs the
/// hook back for `fini` at teardown).
struct SharedHook(Arc<LoadedHook>);

impl SyscallHandler for SharedHook {
    fn handle(&self, event: &mut SyscallEvent) -> Action {
        self.0.handle(event)
    }
    fn post(&self, event: &SyscallEvent, ret: u64) -> u64 {
        self.0.post(event, ret)
    }
    fn name(&self) -> &str {
        self.0.name()
    }
    fn interest(&self) -> InterestSet {
        self.0.interest()
    }
    fn leaves_fp_env(&self) -> bool {
        self.0.leaves_fp_env()
    }
}

/// Loads every hook named by `LP_HOOKS` (a bad library is a typed
/// install error before anything arms), stacks them around `handler`,
/// and hands back the stack as the handler to install; the guard keeps
/// a clone (clones share the stack) for reports.
pub(crate) fn wrap(
    handler: Box<dyn SyscallHandler>,
    cfg: &EnvConfig,
) -> Result<(Box<dyn SyscallHandler>, LayerGuard), InstallError> {
    let loaded = hookabi::load_from_spec(&cfg.hooks).map_err(InstallError::Hook)?;

    let stack = HookStack::new();
    // The handler below anchors the stack at priority 0;
    // spec/descriptor priorities place each hook around it.
    stack.attach(handler, 0);
    let hooks: Vec<Arc<LoadedHook>> = loaded.into_iter().map(Arc::new).collect();
    for h in &hooks {
        stack.attach_dynamic(Box::new(SharedHook(Arc::clone(h))), h.priority());
    }
    let guard = HooksGuard {
        stack: stack.clone(),
        hooks,
    };
    Ok((Box::new(stack), LayerGuard::Hooks(guard)))
}

/// An installed `+hooks` layer: the stack and the loaded hooks, kept
/// for reports and for `fini`.
pub(crate) struct HooksGuard {
    stack: HookStack,
    hooks: Vec<Arc<LoadedHook>>,
}

impl HooksGuard {
    pub(crate) fn stack(&self) -> &HookStack {
        &self.stack
    }
}

impl Drop for HooksGuard {
    /// Runs each hook's `fini`. `ActiveMechanism` drops this guard after
    /// the base disarmed and restored the previous handler, so no
    /// dispatch enters the stack any more. The libraries themselves stay
    /// mapped (hookabi docs).
    fn drop(&mut self) {
        for h in &self.hooks {
            h.run_fini();
        }
    }
}
