//! Composed names: the one `base(+layer)*` parser, its one cache, and
//! the one step that stacks a [`Layer`] onto a handler.
//!
//! A composed name carries payload (which layers, in which order, or a
//! trace path), so it cannot live in the static tables: it is parsed on
//! first lookup, leaked (the registry hands out `&'static dyn
//! Mechanism`), and cached so repeated lookups of the same name return
//! the same instance.
//!
//! Each layer's payload code stays in its own module — the recorder
//! session and replay state in `record_replay`, `hookabi` loading and
//! the mtime watcher in `hooks`, policy loading in `sfip`; this module
//! only sequences them.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use interpose::SyscallHandler;
use replay::{RecordHandler, ReplayHandler};
use sim_interpose::Traits;

use crate::{
    hooks, record_replay, sfip, static_by_name, ActiveMechanism, InstallError, Mechanism,
    StatsSnapshot,
};

/// A handler layer a name can stack onto a base. Closed: nothing
/// outside this crate implements one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Layer {
    Record,
    Hooks,
    Sfip,
}

impl Layer {
    fn parse(word: &str) -> Option<Layer> {
        match word {
            "record" => Some(Layer::Record),
            "hooks" => Some(Layer::Hooks),
            "sfip" => Some(Layer::Sfip),
            _ => None,
        }
    }

    /// Loads and validates the layer's payload from the environment,
    /// then wraps `handler` in the layer's concrete handler type.
    fn wrap(
        self,
        handler: Box<dyn SyscallHandler>,
    ) -> Result<(Box<dyn SyscallHandler>, LayerGuard), InstallError> {
        Ok(match self {
            Layer::Record => (
                Box::new(RecordHandler::wrapping(handler)),
                LayerGuard::Record(None),
            ),
            Layer::Hooks => hooks::wrap(handler)?,
            Layer::Sfip => sfip::wrap(handler)?,
        })
    }
}

/// What one installed layer leaves in [`ActiveMechanism`]: the state
/// its accessors and counters read, and (by dropping) its teardown.
pub(crate) enum LayerGuard {
    /// `+record`: the trace session, if `LP_TRACE_OUT` asked for one
    /// and [`ActiveMechanism::finish_recording`] has not taken it yet.
    Record(Option<replay::Recorder>),
    /// `replay:<path>`: the shared replay progress state.
    Replay(Arc<replay::ReplayState>),
    /// `+hooks`: the stack, its loaded hooks and their watcher.
    Hooks(hooks::HooksGuard),
    /// `+sfip`: the action and the counter baselines.
    Sfip(sfip::SfipGuard),
}

impl LayerGuard {
    /// Adds this layer's own fields to the base's snapshot. (The
    /// recorder and replay counters are process-global and already in
    /// every base snapshot.)
    pub(crate) fn fill(&self, s: &mut StatsSnapshot) {
        match self {
            LayerGuard::Hooks(h) => h.fill(s),
            LayerGuard::Sfip(g) => g.fill(s),
            LayerGuard::Record(_) | LayerGuard::Replay(_) => {}
        }
    }

    /// Runs once every layer's payload has validated, right before the
    /// base arms: the one fallible side effect, the `+record` trace
    /// session, opens here — so its header names `base_name` (the
    /// static row the stack installs on), no early event is missed, and
    /// a bad sibling layer never leaves a trace file behind.
    fn open(&mut self, base_name: &str) -> Result<(), InstallError> {
        if let LayerGuard::Record(session) = self {
            *session = record_replay::open_session(base_name)?;
        }
        Ok(())
    }

    /// Runs right after the base armed: what must not predate it (the
    /// `+hooks` watcher thread, the `+sfip` counter baselines).
    fn armed(&mut self) {
        match self {
            LayerGuard::Hooks(h) => h.start_watcher(),
            LayerGuard::Sfip(g) => g.rebase(),
            LayerGuard::Record(_) | LayerGuard::Replay(_) => {}
        }
    }

    /// Runs after each simulated guest run: a synchronous recorder
    /// drains here, so rings never overflow across a multi-run session
    /// (each sim run can observe more events than one ring holds).
    pub(crate) fn after_run(&mut self) {
        if let LayerGuard::Record(Some(session)) = self {
            let _ = session.drain();
        }
    }
}

/// The base of a composed name.
enum Base {
    Static(&'static dyn Mechanism),
    /// `replay:<trace-path>`; the row to re-execute under is only known
    /// once the trace header is read at install.
    Replay(PathBuf),
}

/// A parsed `base(+layer)*` name.
struct Composed {
    key: &'static str,
    base: Base,
    /// In written order: outermost first.
    layers: Vec<Layer>,
}

/// Process-lifetime cache of constructed composed backends, keyed by
/// the name as written.
static CACHE: Mutex<Vec<(&'static str, &'static dyn Mechanism)>> = Mutex::new(Vec::new());

/// Parses a composed name; `None` if it does not match the grammar.
pub(crate) fn composed_by_name(name: &str) -> Option<&'static dyn Mechanism> {
    let mut cache = CACHE.lock().expect("no panic while the cache is locked");
    if let Some((_, m)) = cache.iter().find(|(k, _)| *k == name) {
        return Some(*m);
    }
    let (base, layers) = match name.strip_prefix("replay:") {
        Some("") => return None,
        Some(path) => (Base::Replay(PathBuf::from(path)), Vec::new()),
        None => {
            let mut words = name.split('+');
            let base = static_by_name(words.next()?)?;
            let mut layers = Vec::new();
            for word in words {
                let layer = Layer::parse(word)?;
                if layers.contains(&layer) {
                    return None;
                }
                layers.push(layer);
            }
            (Base::Static(base), layers)
        }
    };
    let key: &'static str = Box::leak(name.to_string().into_boxed_str());
    let built: &'static dyn Mechanism = Box::leak(Box::new(Composed { key, base, layers }));
    cache.push((key, built));
    Some(built)
}

impl Mechanism for Composed {
    fn name(&self) -> &'static str {
        self.key
    }

    fn traits(&self) -> Traits {
        match &self.base {
            Base::Static(m) => m.traits(),
            Base::Replay(_) => record_replay::REPLAY_TRAITS,
        }
    }

    /// A trace is only read at install; a bad path surfaces there as a
    /// structured [`InstallError::Io`], not here.
    fn is_available(&self) -> bool {
        match &self.base {
            Base::Static(m) => m.is_available(),
            Base::Replay(_) => true,
        }
    }

    fn install(
        &self,
        mut handler: Box<dyn SyscallHandler>,
    ) -> Result<ActiveMechanism, InstallError> {
        // Every layer loads and validates before anything with a side
        // effect outside this process happens, and all of it before the
        // base arms: a bad library, policy or trace leaves no trace
        // file, thread or armed mechanism behind (hooks that did load
        // run their `fini` as their guard drops). Handlers nest from
        // the inside out, so the last-written layer wraps first.
        let mut guards = Vec::new();
        let base = match &self.base {
            Base::Static(m) => *m,
            Base::Replay(path) => {
                let (base, state) = record_replay::load_replay(path)?;
                handler = Box::new(ReplayHandler::new(Arc::clone(&state)).observing(handler));
                guards.push(LayerGuard::Replay(state));
                base
            }
        };
        for layer in self.layers.iter().rev() {
            let (wrapped, guard) = layer.wrap(handler)?;
            handler = wrapped;
            guards.push(guard);
        }
        for guard in &mut guards {
            guard.open(base.name())?;
        }
        let mut active = base.install(handler)?;
        active.name = self.key;
        active.layers = guards;
        for guard in &mut active.layers {
            guard.armed();
        }
        Ok(active)
    }
}
