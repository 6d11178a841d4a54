//! `LD_PRELOAD` shim: interpose *arbitrary, unmodified* binaries — the
//! paper's deployment model ("non-intrusive").
//!
//! ```sh
//! cargo build --release
//! LP_MECHANISM=lazypoline+record LP_TRACE_OUT=/tmp/ls.%p.lpt LAZYPOLINE_STATS=1 \
//!   LD_PRELOAD=target/release/liblazypoline_preload.so  ls -l
//! ```
//!
//! The shim is a caller of the mechanism registry like any in-repo
//! driver: its constructor (`.init_array`, before `main`) reads the
//! environment once (`mechanism::EnvConfig::from_env`), builds the
//! *mode handler*, installs the `LP_MECHANISM` row with that
//! configuration, and keeps the [`ActiveMechanism`] for the life of the
//! process. Every variable it and the layers read is a row of
//! EXPERIMENTS.md's runtime-knob table ("Runtime knobs");
//! `LP_SITE_CACHE` drives the proven-site cache ([`sitecache`]).
//!
//! **One compatibility rule:** a non-empty `LP_HOOKS` with no `hooks`
//! layer in the name appends `+hooks` as the last, innermost layer, so
//! `LP_HOOKS=… LD_PRELOAD=… ls -l` works without naming a mechanism.
//!
//! **One failure rule, no silent fallback:** a malformed value of any
//! runtime variable, a row that cannot interpose a preloaded process
//! (`sud-raw` disarms after one syscall and relies on its caller to
//! re-arm) or any install error prints one
//! `lazypoline-preload: disabled (<why>)` line and the application runs
//! uninterposed. Nothing is ever half-installed. The proven-site cache
//! is outside this rule: a directory that fails its checks means no
//! cache, which only the `LAZYPOLINE_STATS` dump says.
//!
//! **The window is constructor to `exit_group`.** The mode handler is
//! innermost in every stack and ends the process itself when it sees
//! `exit_group`: it finishes a `+record` session, prints the dump and
//! issues the call, so no layer sees that one syscall — neither the
//! trace a policy is learned from nor the run it is enforced on — and
//! everything before it (stdio's final flush; `exit` or `_exit`) is in
//! both. Rows that dispatch nothing (`none`, `sud-allow`) never see the
//! end: no dump, and a trace keeps its `.part` name, as after a fatal
//! signal or a successful `execve`. A preloaded descendant arms the same
//! configuration again (`%p` keeps traces apart); fork children stay
//! interposed but own no trace and print no dump; `lazypoline-hardened`
//! does not survive `execve` (its seccomp filter does). DESIGN.md §4, §11.

mod ledger;
pub mod sitecache;

use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::OnceLock;

use interpose::{
    Action, CountHandler, InterestSet, PassthroughHandler, SyscallEvent, SyscallHandler,
    TraceHandler, TraceSink,
};
use lazypoline::faultinject;
use ledger::Stage;
use mechanism::{ActiveMechanism, EnvConfig, HandlerMode, InstallError, StatsSnapshot};
use sitecache::SiteCache;
use syscalls::{nr, SyscallArgs};

/// The installation, kept for the life of the process.
static ACTIVE: AtomicPtr<ActiveMechanism> = AtomicPtr::new(std::ptr::null_mut());

/// The proven-site cache's configuration: a static, not a field of the
/// boxed handler, so its path buffer never lands on the application's
/// heap.
static CACHE: OnceLock<SiteCache> = OnceLock::new();

/// The mode handler (none of the three has a `post`) plus what the end
/// of the window needs.
struct UntilExit {
    mode: Box<dyn SyscallHandler>,
    /// The process that installed; fork children finish nothing.
    pid: u32,
    /// A clone of the `count` mode handler, for the top-syscalls table.
    counter: Option<CountHandler>,
    /// `LAZYPOLINE_STATS=1`: a private dup of stderr taken at init —
    /// coreutils close fd 2 in an `atexit` handler, long before the end.
    stats_fd: Option<libc::c_int>,
    cache: &'static SiteCache,
}

impl SyscallHandler for UntilExit {
    fn handle(&self, event: &mut SyscallEvent) -> Action {
        if faultinject::check(faultinject::Site::HandlerPanic).is_some() {
            panic!("handler_panic injected at {}", event.call.nr);
        }
        let action = self.mode.handle(event);
        if event.call.nr == nr::EXIT_GROUP {
            // Both leave from the gate: from a site of the shim's or
            // libc's text they would take a SIGSYS on every run, warm
            // or cold, since the site cache is written before them.
            // SAFETY: getpid touches no memory.
            let pid = unsafe { zpoline::gate_syscall(&SyscallArgs::nullary(nr::GETPID)) };
            // The pid first: a `vfork` child shares `ACTIVE` with its parent.
            if u64::from(self.pid) == pid {
                self.finish();
            }
            // SAFETY: the application's own call, from dispatch context.
            let exit = SyscallArgs::new(nr::EXIT_GROUP, [event.call.args[0], 0, 0, 0, 0, 0]);
            unsafe { zpoline::gate_syscall(&exit) };
        }
        action
    }
    fn interest(&self) -> InterestSet {
        self.mode.interest().union(&InterestSet::of(&[nr::EXIT_GROUP]))
    }
    /// What the mode handler declares. The one call `handle` adds work
    /// to, `exit_group`, renders the dump with floating-point arithmetic
    /// but never returns to the stub's exit.
    fn leaves_fp_env(&self) -> bool {
        self.mode.leaves_fp_env()
    }
}

impl UntilExit {
    /// Finishes the trace, writes the proven-site cache and prints the
    /// dump, once — from dispatch context, where nothing this does is
    /// interposed.
    fn finish(&self) {
        // SAFETY: null, or the constructor's leak; the swap hands it to
        // one caller, and it is never freed.
        let taken = ACTIVE.swap(std::ptr::null_mut(), Ordering::SeqCst);
        let Some(active) = (unsafe { taken.as_mut() }) else {
            return;
        };
        if let Some(Err(e)) = active.finish_recording() {
            eprintln!("lazypoline-preload: trace not finished ({e})");
        }
        // The engine's counter, not a snapshot of every counter: every
        // row the shim arms and that dispatches is engine-backed, and
        // nothing trips before the install.
        ledger::start();
        self.cache.write(lazypoline::slow_path_hits());
        ledger::lap(Stage::ExitWrite);
        if let Some(fd) = self.stats_fd {
            // After the write: a trip the write itself takes shows here.
            let stats = active.stats();
            let cache = self.cache.status(stats.sites_from_cache);
            let out = render_dump(&stats, &cache, self.counter.as_ref());
            // SAFETY: writing an owned buffer to our private fd.
            unsafe { libc::write(fd, out.as_ptr() as *const libc::c_void, out.len()) };
        }
    }
}

/// Reads the configuration, builds the mode handler, resolves the
/// mechanism, installs.
fn arm() -> Result<ActiveMechanism, String> {
    ledger::start();
    let cfg = EnvConfig::from_env().map_err(|e| InstallError::from(e).to_string())?;
    let mut counter = None;
    let mode: Box<dyn SyscallHandler> = match cfg.mode {
        HandlerMode::Passthrough => Box::new(PassthroughHandler),
        HandlerMode::Trace => Box::new(TraceHandler::with_sink(TraceSink::Stderr)),
        HandlerMode::Count => Box::new(counter.insert(CountHandler::new()).clone()),
    };
    let mut name = cfg.mechanism.to_string();
    if !cfg.hooks.is_empty() && !name.split('+').any(|piece| piece == "hooks") {
        name.push_str("+hooks");
    }
    if name.split('+').next() == Some("sud-raw") {
        return Err(format!("{name} cannot interpose a preloaded process"));
    }
    ledger::lap(Stage::Config);
    let mechanism = mechanism::by_name(&name)
        .ok_or_else(|| format!("unknown mechanism {name:?}"))?;
    ledger::lap(Stage::ByName);
    // The shim's own syscalls come before the install: after it, this
    // thread's syscalls are the application's flow to every layer.
    let pid = std::process::id();
    let stats_fd = cfg
        .stats
        // SAFETY: duplicating our own stderr; on failure keep fd 2.
        .then(|| unsafe { libc::fcntl(2, libc::F_DUPFD_CLOEXEC, 700) }.max(2));
    ledger::lap(Stage::Config);
    let (cache, proven) = SiteCache::open(&name, cfg.site_cache.as_deref());
    let cache = CACHE.get_or_init(|| cache);
    let handler = UntilExit { mode, pid, counter, stats_fd, cache };
    let mut active = mechanism.install_with(Box::new(handler), &cfg).map_err(|e| {
        // SAFETY: closing the descriptor duplicated above.
        stats_fd.filter(|&fd| fd != 2).map(|fd| unsafe { libc::close(fd) });
        e.to_string()
    })?;
    ledger::lap(Stage::Install);
    if let Some(proven) = proven {
        proven.apply();
    }
    ledger::lap(Stage::Apply);
    if let Some(mask) = cfg.xstate {
        active.set_xstate(mask);
    }
    Ok(active)
}

/// The constructor entry registered in `.init_array`.
///
/// # Safety
///
/// Called once by the dynamic loader during process startup.
unsafe extern "C" fn preload_ctor() {
    match arm() {
        Ok(active) => ACTIVE.store(Box::into_raw(Box::new(active)), Ordering::SeqCst),
        Err(why) => eprintln!("lazypoline-preload: disabled ({why})"),
    }
}

/// The counters lpbench's `stats_field` reads by label prefix: always
/// printed. Every other counter prints under its [`StatsSnapshot`] field
/// name when it is not zero, so nothing here names a layer's counters.
const LABELLED: [(&str, &str); 6] = [
    ("slow_path_hits", "slow-path (SIGSYS) trips"),
    ("sites_patched", "sites lazily rewritten"),
    ("dispatches", "dispatcher invocations"),
    ("unpatchable_emulations", "unpatchable emulations"),
    ("patch_retries", "patch retries"),
    ("pages_blocklisted", "pages blocklisted"),
];

fn render_dump(s: &StatsSnapshot, cache: &str, counter: Option<&CountHandler>) -> String {
    let mut out = String::from("-- lazypoline stats --\n");
    let mut line = |label: &str, value: &dyn std::fmt::Display| {
        out.push_str(&format!("{label:<25}: {value}\n"));
    };
    line("mechanism", &s.mechanism);
    line("mode", &format_args!("{:?}", lazypoline::mode()));
    for (field, value) in s.counters() {
        match LABELLED.iter().find(|(f, _)| *f == field) {
            Some((_, label)) => line(label, &value),
            None if value != 0 => line(field, &value),
            None => {}
        }
    }
    if !s.sfip_mode.is_empty() {
        line("sfip_mode", &s.sfip_mode);
    }
    line("site cache", &cache);
    ledger::render(&mut out);
    if let Some(counter) = counter {
        out.push_str("-- top syscalls --\n");
        for (nr, count) in counter.top().into_iter().take(15) {
            let name = nr::name(nr).map_or_else(|| format!("syscall_{nr}"), str::to_string);
            out.push_str(&format!("{count:>10}  {name}\n"));
        }
    }
    out
}

#[used]
#[link_section = ".init_array"]
static PRELOAD_CTOR: unsafe extern "C" fn() = preload_ctor;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctor_is_registered() {
        // The static must survive to link time with the right type.
        let f: unsafe extern "C" fn() = PRELOAD_CTOR;
        assert_eq!(f as usize, preload_ctor as *const () as usize);
    }

    #[test]
    fn the_mode_handler_declares_for_the_window() {
        struct Undeclared;
        impl SyscallHandler for Undeclared {
            fn handle(&self, _event: &mut SyscallEvent) -> Action {
                Action::Passthrough
            }
        }
        let cache: &'static SiteCache = Box::leak(Box::new(SiteCache::open("test", None).0));
        let until_exit = |mode: Box<dyn SyscallHandler>| UntilExit {
            mode,
            pid: 0,
            counter: None,
            stats_fd: None,
            cache,
        };
        assert!(until_exit(Box::new(PassthroughHandler)).leaves_fp_env());
        assert!(until_exit(Box::new(CountHandler::new())).leaves_fp_env());
        assert!(until_exit(Box::new(TraceHandler::with_sink(TraceSink::Null))).leaves_fp_env());
        assert!(!until_exit(Box::new(Undeclared)).leaves_fp_env());
    }

    #[test]
    fn dump_keeps_the_parsed_labels_and_names_no_layer() {
        let s = StatsSnapshot {
            mechanism: "lazypoline+hooks",
            dispatches: 510,
            sites_patched: 100,
            hooks_loaded: 1,
            ..StatsSnapshot::default()
        };
        let dump = render_dump(&s, "off (LP_SITE_CACHE=off)", None);
        // What lpbench's `stats_field` does: first line with the prefix.
        let field = |label: &str| {
            dump.lines()
                .find_map(|l| l.strip_prefix(label))
                .and_then(|v| v.trim_start_matches([' ', ':']).trim().parse::<u64>().ok())
        };
        assert_eq!(field("dispatcher invocations"), Some(510));
        assert_eq!(field("sites lazily rewritten"), Some(100));
        for (_, label) in LABELLED {
            assert!(field(label).is_some(), "{label} missing:\n{dump}");
        }
        assert_eq!(field("hooks_loaded"), Some(1), "{dump}");
        assert_eq!(field("hook_dispatches"), None, "zero counters stay out");
        assert!(!dump.contains("top syscalls"));
        // The ledger's rows follow, in µs; none shares a counter's label.
        let ledger = dump
            .split_once("-- start-up ledger (us) --\n")
            .expect("a ledger")
            .1;
        let rows: Vec<&str> = ledger
            .lines()
            .map(|l| l.split(" :").next().unwrap().trim())
            .collect();
        assert_eq!(rows.first(), Some(&"configuration"), "{dump}");
        assert_eq!(rows.last(), Some(&"exit write"), "{dump}");
        assert_eq!(rows.len(), 10, "{dump}");
        assert!(
            ledger.lines().all(|l| l[27..].parse::<f64>().is_ok()),
            "{dump}"
        );
        assert!(
            dump.contains("\nsite cache               : off (LP_SITE_CACHE=off)\n"),
            "{dump}"
        );
    }
}
