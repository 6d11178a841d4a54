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
//! driver: its constructor (`.init_array`, before `main`) builds the
//! *mode handler*, resolves `LP_MECHANISM`, installs, and keeps the
//! [`ActiveMechanism`] for the life of the process.
//!
//! | Variable | Values | Effect |
//! |---|---|---|
//! | `LP_MECHANISM` | `base(+layer)*`, default `lazypoline` | mechanism and layers (`lp-mechanism` crate docs) |
//! | `LAZYPOLINE_MODE` | `passthrough` (default), `trace`, `count` | the mode handler, innermost in the stack |
//! | `LAZYPOLINE_XSTATE` | `avx`, `sse`, `x87`, `none`; default: the base's | `ActiveMechanism::set_xstate` (paper §IV-B(b)) |
//! | `LAZYPOLINE_STATS` | `1` | dump the installation's counters when the process ends |
//! | `LAZYPOLINE_FAULTS` | `site:schedule[:ERRNO],…` | fault-injection seams (`lp-faultinject` crate docs) |
//! | `LP_HOOKS`, `LP_HOOKS_WATCH` | `lib.so[:prio],…` | `+hooks` |
//! | `LP_TRACE_OUT`, `LP_DRAIN`, `LP_RING_CAPACITY`, … | path, a literal `%p` is the pid | `+record` |
//! | `LP_SFIP_POLICY`, `LP_SFIP_POLICY_ACTION`, `LP_SFIP_ORIGINS` | path, `kill`\|`quarantine`\|`count` | `+sfip` |
//!
//! **One compatibility rule:** a non-empty `LP_HOOKS` with no `hooks`
//! layer in the name appends `+hooks` as the last, innermost layer, so
//! `LP_HOOKS=… LD_PRELOAD=… ls -l` works without naming a mechanism.
//!
//! **One failure rule, no silent fallback:** an unknown name, an unknown
//! `LAZYPOLINE_MODE` or `LAZYPOLINE_XSTATE`, a row that cannot interpose
//! a preloaded process (`sim:*` runs guest programs; `sud-raw` disarms
//! after one syscall and relies on its caller to re-arm) or any install
//! error prints one `lazypoline-preload: disabled (<why>)` line and the
//! application runs uninterposed. Nothing is ever half-installed.
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

use std::sync::atomic::{AtomicPtr, Ordering};

use interpose::{
    Action, CountHandler, InterestSet, PassthroughHandler, SyscallEvent, SyscallHandler,
    TraceHandler, TraceSink,
};
use mechanism::{ActiveMechanism, StatsSnapshot, XstateMask};
use syscalls::nr;

/// The installation, kept for the life of the process.
static ACTIVE: AtomicPtr<ActiveMechanism> = AtomicPtr::new(std::ptr::null_mut());

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
}

impl SyscallHandler for UntilExit {
    fn handle(&self, event: &mut SyscallEvent) -> Action {
        let action = self.mode.handle(event);
        if event.call.nr == nr::EXIT_GROUP {
            // The pid first: a `vfork` child shares `ACTIVE` with its parent.
            if self.pid == std::process::id() {
                self.finish();
            }
            // SAFETY: the application's own call, from dispatch context.
            unsafe { syscalls::raw::syscall1(nr::EXIT_GROUP, event.call.args[0]) };
        }
        action
    }
    fn interest(&self) -> InterestSet {
        self.mode.interest().union(&InterestSet::of(&[nr::EXIT_GROUP]))
    }
}

impl UntilExit {
    /// Finishes the trace and prints the dump, once — from dispatch
    /// context, where nothing this does is interposed.
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
        if let Some(fd) = self.stats_fd {
            let out = render_dump(&active.stats(), self.counter.as_ref());
            // SAFETY: writing an owned buffer to our private fd.
            unsafe { libc::write(fd, out.as_ptr() as *const libc::c_void, out.len()) };
        }
    }
}

fn env(name: &str) -> String {
    std::env::var(name).unwrap_or_default()
}

/// Builds the mode handler, resolves the mechanism, installs.
fn arm() -> Result<ActiveMechanism, String> {
    let mut counter = None;
    let mode: Box<dyn SyscallHandler> = match env("LAZYPOLINE_MODE").as_str() {
        "" | "passthrough" => Box::new(PassthroughHandler),
        "trace" => Box::new(TraceHandler::with_sink(TraceSink::Stderr)),
        "count" => Box::new(counter.insert(CountHandler::new()).clone()),
        other => return Err(format!("LAZYPOLINE_MODE={other:?}: not passthrough|trace|count")),
    };
    let xstate = match env("LAZYPOLINE_XSTATE").as_str() {
        "" => None,
        "avx" => Some(XstateMask::Avx),
        "sse" => Some(XstateMask::Sse),
        "x87" => Some(XstateMask::X87),
        "none" => Some(XstateMask::None),
        other => return Err(format!("LAZYPOLINE_XSTATE={other:?}: not avx|sse|x87|none")),
    };
    let mut name = env(mechanism::ENV_VAR);
    if name.is_empty() {
        name.push_str(mechanism::DEFAULT_MECHANISM);
    }
    if !env(mechanism::HOOKS_ENV).is_empty() && !name.split('+').any(|piece| piece == "hooks") {
        name.push_str("+hooks");
    }
    if name.starts_with("sim:") || name.split('+').next() == Some("sud-raw") {
        return Err(format!("{name} cannot interpose a preloaded process"));
    }
    let mechanism = mechanism::by_name(&name)
        .ok_or_else(|| mechanism::UnknownMechanism(name.clone()).to_string())?;
    // The shim's own syscalls come before the install: after it, this
    // thread's syscalls are the application's flow to every layer.
    let pid = std::process::id();
    let stats_fd = (env("LAZYPOLINE_STATS") == "1")
        // SAFETY: duplicating our own stderr; on failure keep fd 2.
        .then(|| unsafe { libc::fcntl(2, libc::F_DUPFD_CLOEXEC, 700) }.max(2));
    let handler = UntilExit { mode, pid, counter, stats_fd };
    let mut active = mechanism.install(Box::new(handler)).map_err(|e| {
        // SAFETY: closing the descriptor duplicated above.
        stats_fd.filter(|&fd| fd != 2).map(|fd| unsafe { libc::close(fd) });
        e.to_string()
    })?;
    if let Some(mask) = xstate {
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

fn render_dump(s: &StatsSnapshot, counter: Option<&CountHandler>) -> String {
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
    fn dump_keeps_the_parsed_labels_and_names_no_layer() {
        let s = StatsSnapshot {
            mechanism: "lazypoline+hooks",
            dispatches: 510,
            sites_patched: 100,
            hooks_loaded: 1,
            ..StatsSnapshot::default()
        };
        let dump = render_dump(&s, None);
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
    }
}
