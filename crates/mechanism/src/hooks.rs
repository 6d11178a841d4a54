//! The `+hooks` layer: a runtime [`HookStack`] as the handler — what
//! the name puts below it (the caller's compiled-in handler, or the
//! next layer's wrapper around it) at priority 0, plus every hook
//! library named by `LP_HOOKS=lib.so[:prio],...` loaded through the
//! `lp_hook_v1` ABI and stacked by priority.
//!
//! # Propagation
//!
//! *fork*: the loaded libraries, the stack snapshot, and the registry's
//! handler pointer are ordinary inherited memory; the engine re-arms
//! SUD in the child, so hooks keep firing without any reload (the
//! native `hook_stack` scenario proves it).
//! *execve*: memory is wiped, but `LP_HOOKS` survives in the
//! environment — a preloaded `lazypoline-preload` in the new image
//! installs through this registry again at its constructor, and so
//! reloads the same hook set.

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, SystemTime};

use hookabi::LoadedHook;
use interpose::{Action, HookId, HookStack, InterestSet, SyscallEvent, SyscallHandler};

use crate::layer::LayerGuard;
use crate::{InstallError, StatsSnapshot};

/// Environment variable naming the hook libraries a `+hooks` layer
/// loads at install: comma-separated `path-or-name[:priority]`
/// (see `hookabi::parse_specs`). Unset or empty: the stack holds only
/// the compiled-in handler.
pub const HOOKS_ENV: &str = "LP_HOOKS";

/// `LP_HOOKS_WATCH=1` at install starts a housekeeping thread that
/// polls each loaded library's mtime and, on change, hot-reloads it:
/// `detach` (narrowing interest after the swap) → `fini` → re-`dlopen`
/// → `attach` at the same priority, racing live dispatch safely via
/// the stack's RCU snapshot swaps. Note `dlopen` of an in-place
/// rewrite (same inode) returns the already-mapped module — the
/// reload still re-runs `fini`/`init` and bumps [`hook_reloads`]; a
/// *new* inode at the same path (rename-over) maps fresh code.
pub const HOOKS_WATCH_ENV: &str = "LP_HOOKS_WATCH";

/// Poll interval of the mtime watcher.
const WATCH_INTERVAL: Duration = Duration::from_millis(25);

/// Hook libraries hot-reloaded by the watcher, process-wide.
static HOOK_RELOADS: AtomicU64 = AtomicU64::new(0);

/// Hook libraries hot-reloaded by the `LP_HOOKS_WATCH` watcher since
/// process start.
pub fn hook_reloads() -> u64 {
    HOOK_RELOADS.load(Ordering::Relaxed)
}

/// Shares one [`LoadedHook`] between the stack entry (which needs a
/// `Box<dyn SyscallHandler>`) and the install guard (which needs the
/// hook back for `fini` at detach).
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
}

/// Loads every hook named by `LP_HOOKS` (a bad library is a typed
/// install error before anything arms), stacks them around `handler`,
/// and hands back a clone of the stack as the handler to install —
/// clones share state, so runtime attach/detach through the guard's
/// `stack()` mutates the live handler (and a stack that ends up the
/// outermost handler recognises itself as installed, keeping the
/// interest cache in sync).
pub(crate) fn wrap(
    handler: Box<dyn SyscallHandler>,
) -> Result<(Box<dyn SyscallHandler>, LayerGuard), InstallError> {
    let spec = std::env::var(HOOKS_ENV).unwrap_or_default();
    let loaded = hookabi::load_from_spec(&spec).map_err(InstallError::Hook)?;

    let stack = HookStack::new();
    // The handler below anchors the stack at priority 0;
    // spec/descriptor priorities place each hook around it.
    stack.attach(handler, 0);
    let mut hooks = Vec::with_capacity(loaded.len());
    for h in loaded {
        let h = Arc::new(h);
        let prio = h.priority();
        let id = stack.attach_dynamic(Box::new(SharedHook(Arc::clone(&h))), prio);
        let mtime = mtime_of(h.origin());
        hooks.push(WatchedHook { id, hook: h, mtime });
    }
    let guard = HooksGuard {
        stack: stack.clone(),
        hooks: Arc::new(Mutex::new(hooks)),
        dispatch_base: interpose::hook_dispatches(),
        reload_base: hook_reloads(),
        watcher: None,
    };
    Ok((Box::new(stack), LayerGuard::Hooks(guard)))
}

/// One attached dynamic hook plus the mtime the watcher compares
/// against.
struct WatchedHook {
    id: HookId,
    hook: Arc<LoadedHook>,
    mtime: Option<SystemTime>,
}

fn mtime_of(path: &str) -> Option<SystemTime> {
    std::fs::metadata(path).and_then(|m| m.modified()).ok()
}

/// The `LP_HOOKS_WATCH` housekeeping thread: stopped and joined when
/// the owning [`HooksGuard`] drops, *before* the hooks detach.
struct Watcher {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Watcher {
    fn spawn(stack: HookStack, hooks: Arc<Mutex<Vec<WatchedHook>>>) -> Watcher {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("lp-hooks-watch".into())
            .spawn(move || {
                while !stop2.load(Ordering::Relaxed) {
                    std::thread::sleep(WATCH_INTERVAL);
                    sweep(&stack, &hooks);
                }
            })
            .expect("spawn hook watcher thread");
        Watcher {
            stop,
            handle: Some(handle),
        }
    }
}

impl Drop for Watcher {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// One watcher pass: reload every hook whose library mtime moved.
/// The swap is `detach` → `fini` → reload → `attach` (the order the
/// manual [`HooksGuard::detach_hook`] path uses); dispatch racing the
/// window simply misses the hook for a few events — the stack's RCU
/// snapshots make both edges safe against in-flight syscalls.
fn sweep(stack: &HookStack, hooks: &Mutex<Vec<WatchedHook>>) {
    let mut hooks = hooks.lock().unwrap();
    for entry in hooks.iter_mut() {
        let now = mtime_of(entry.hook.origin());
        let (Some(seen), Some(changed)) = (entry.mtime, now) else {
            // Library currently unreadable (mid-rewrite) or mtime was
            // never known: (re)arm the comparison and try next pass.
            entry.mtime = now.or(entry.mtime);
            continue;
        };
        if changed == seen {
            continue;
        }
        // Always advance the watermark — a library that fails to
        // reload is retried only on a *further* change, not every
        // pass.
        entry.mtime = Some(changed);
        let origin = entry.hook.origin().to_string();
        let prio = entry.hook.priority();
        match LoadedHook::load(Path::new(&origin), Some(prio)) {
            Ok(fresh) => {
                if !stack.detach(entry.id) {
                    continue; // manually detached since the lock check
                }
                entry.hook.run_fini();
                let fresh = Arc::new(fresh);
                entry.id = stack.attach_dynamic(Box::new(SharedHook(Arc::clone(&fresh))), prio);
                entry.hook = fresh;
                HOOK_RELOADS.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                // Keep dispatching into the old module; the next mtime
                // bump retries.
            }
        }
    }
}

/// An installed `+hooks` layer: the shared stack and the loaded hooks
/// (kept for `fini` + reporting; shared with the optional mtime
/// watcher).
pub(crate) struct HooksGuard {
    stack: HookStack,
    hooks: Arc<Mutex<Vec<WatchedHook>>>,
    /// `interpose::hook_dispatches()` at install, for delta reporting.
    dispatch_base: u64,
    /// [`hook_reloads`] at install, for delta reporting.
    reload_base: u64,
    /// The `LP_HOOKS_WATCH` thread.
    watcher: Option<Watcher>,
}

impl HooksGuard {
    /// Starts the `LP_HOOKS_WATCH=1` thread. Runs once the base has
    /// armed, so the watcher is enrolled in interposition like any
    /// other thread of the process.
    pub(crate) fn start_watcher(&mut self) {
        if std::env::var(HOOKS_WATCH_ENV).is_ok_and(|v| v == "1")
            && !self.hooks.lock().unwrap().is_empty()
        {
            self.watcher = Some(Watcher::spawn(self.stack.clone(), Arc::clone(&self.hooks)));
        }
    }

    pub(crate) fn fill(&self, s: &mut StatsSnapshot) {
        s.hooks_loaded = self.stack.dynamic_len() as u64;
        s.hook_dispatches = interpose::hook_dispatches().saturating_sub(self.dispatch_base);
        s.hook_reloads = hook_reloads().saturating_sub(self.reload_base);
    }

    pub(crate) fn stack(&self) -> &HookStack {
        &self.stack
    }

    pub(crate) fn loaded(&self) -> Vec<(HookId, String, i32)> {
        self.hooks
            .lock()
            .unwrap()
            .iter()
            .map(|w| (w.id, w.hook.name().to_string(), w.hook.priority()))
            .collect()
    }

    pub(crate) fn detach_hook(&self, id: HookId) -> bool {
        let mut hooks = self.hooks.lock().unwrap();
        let Some(pos) = hooks.iter().position(|w| w.id == id) else {
            return false;
        };
        if !self.stack.detach(id) {
            return false;
        }
        let w = hooks.remove(pos);
        w.hook.run_fini();
        true
    }
}

impl Drop for HooksGuard {
    fn drop(&mut self) {
        // The watcher thread stops first (it mutates the stack), then
        // each surviving hook detaches and runs its `fini`.
        // `ActiveMechanism` drops this guard while the base is still
        // armed, so a stack that is the installed handler narrows the
        // interest cache as it empties. The libraries themselves stay
        // mapped forever (hookabi docs).
        self.watcher = None;
        for w in self.hooks.lock().unwrap().drain(..) {
            if self.stack.detach(w.id) {
                w.hook.run_fini();
            }
        }
    }
}
