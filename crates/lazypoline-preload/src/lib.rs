//! `LD_PRELOAD` shim: arm lazypoline inside *arbitrary, unmodified*
//! binaries — the paper's deployment model ("non-intrusive").
//!
//! ```sh
//! cargo build -p lazypoline-preload --release
//! LAZYPOLINE_MODE=count LAZYPOLINE_STATS=1 \
//!   LD_PRELOAD=target/release/liblazypoline_preload.so  ls -l
//! ```
//!
//! Environment knobs:
//!
//! | Variable | Values | Effect |
//! |---|---|---|
//! | `LAZYPOLINE_MODE` | `passthrough` (default), `trace`, `count` | interposer choice |
//! | `LAZYPOLINE_XSTATE` | `avx` (default), `sse`, `x87`, `none` | extended-state preservation (paper §IV-B(b)) |
//! | `LAZYPOLINE_STATS` | `1` | dump engine counters at exit |
//! | `LAZYPOLINE_FAULTS` | `site:schedule[:ERRNO],…` | arm fault-injection seams (testing only) |
//! | `LP_HOOKS` | `lib.so[:prio],…` | dlopen `lp_hook_v1` hook libraries into a runtime stack around the mode handler |
//!
//! `LP_HOOKS` is the execve-propagation story for runtime hook stacks:
//! loaded libraries don't survive an `execve`, but the environment does
//! — a preloaded shim in the new image re-reads the same variable and
//! reloads the same hook set before `main`. Paths with a `/` are passed
//! to `dlopen` verbatim; prefer absolute paths here, since the
//! preloaded process's working directory and `current_exe` are the
//! *application's*, not the build tree's. A hook that fails to load
//! disables the whole `LP_HOOKS` set (with a diagnostic) rather than
//! running a partial policy stack.
//!
//! `LAZYPOLINE_FAULTS` (e.g. `trampoline_install:first=1` or
//! `patch_mprotect:every=3:EAGAIN`) arms the engine's built-in fault
//! seams before initialization; the engine then *degrades* instead of
//! failing — `trampoline_install` forces `Mode::SudOnly`, `sud_enroll`
//! forces `Mode::PrescanOnly`, and patch faults exercise the retry and
//! page-blocklist machinery. The resulting mode and robustness counters
//! are visible programmatically via `lazypoline::health()` and in the
//! `LAZYPOLINE_STATS=1` dump. Sites: `trampoline_install`,
//! `patch_mprotect`, `sud_enroll`, `selector_write`,
//! `slowpath_emulate`; schedules: `nth=N`, `every=N`, `first=K`.
//!
//! The constructor runs from `.init_array` before `main`, so every
//! syscall the application itself makes is interposed. Syscalls made
//! by the dynamic loader *before* our constructor are inherently out of
//! reach — the same holds for the C prototype.

use std::sync::atomic::{AtomicPtr, Ordering};

use interpose::{CountHandler, PassthroughHandler, SyscallHandler, TraceHandler, TraceSink};
use lazypoline::{Config, XstateMask};

static COUNTER: AtomicPtr<CountHandler> = AtomicPtr::new(std::ptr::null_mut());

/// Hooks loaded from `LP_HOOKS` at init (0 when unset); drives the
/// hooks section of the stats dump.
static HOOKS_LOADED: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Private dup of stderr taken at init: programs like coreutils close
/// fd 2 in their own atexit handlers, which run *before* ours (LIFO),
/// so stats must go to a descriptor the application cannot reach.
static STATS_FD: std::sync::atomic::AtomicI32 = std::sync::atomic::AtomicI32::new(2);

/// The constructor entry registered in `.init_array`.
///
/// # Safety
///
/// Called once by the dynamic loader during process startup.
unsafe extern "C" fn preload_ctor() {
    let mode = std::env::var("LAZYPOLINE_MODE").unwrap_or_default();
    let xstate = match std::env::var("LAZYPOLINE_XSTATE").as_deref() {
        Ok("none") => XstateMask::None,
        Ok("x87") => XstateMask::X87,
        Ok("sse") => XstateMask::Sse,
        _ => XstateMask::Avx,
    };

    let handler: Box<dyn SyscallHandler> = match mode.as_str() {
        "trace" => Box::new(TraceHandler::with_sink(TraceSink::Stderr)),
        "count" => {
            let leaked: &'static CountHandler = Box::leak(Box::new(CountHandler::new()));
            COUNTER.store(leaked as *const _ as *mut _, Ordering::SeqCst);
            struct Fwd(&'static CountHandler);
            impl SyscallHandler for Fwd {
                fn handle(&self, ev: &mut interpose::SyscallEvent) -> interpose::Action {
                    self.0.handle(ev)
                }
                fn name(&self) -> &str {
                    "count"
                }
            }
            Box::new(Fwd(leaked))
        }
        _ => Box::new(PassthroughHandler),
    };

    // LP_HOOKS: wrap the mode handler in a runtime hook stack and load
    // every named library around it (mode handler anchors priority 0).
    let handler: Box<dyn SyscallHandler> = match std::env::var("LP_HOOKS") {
        Ok(spec) if !spec.is_empty() => match hookabi::load_from_spec(&spec) {
            Ok(loaded) => {
                let stack = interpose::HookStack::new();
                stack.attach(handler, 0);
                for hook in loaded {
                    let prio = hook.priority();
                    stack.attach_dynamic(Box::new(hook), prio);
                }
                HOOKS_LOADED.store(stack.dynamic_len() as u64, Ordering::SeqCst);
                Box::new(stack)
            }
            Err(e) => {
                // All-or-nothing: a partial policy stack is worse than
                // none, so one bad spec entry disables the whole set.
                eprintln!("lazypoline-preload: LP_HOOKS disabled ({e})");
                handler
            }
        },
        _ => handler,
    };
    interpose::set_global_handler(handler);

    let config = Config {
        xstate,
        ..Config::default()
    };
    match lazypoline::init(config) {
        Ok(engine) => {
            // The engine must outlive main; prevent the drop-unenroll.
            std::mem::forget(engine);
            if std::env::var("LAZYPOLINE_STATS").as_deref() == Ok("1") {
                let fd = libc::fcntl(2, libc::F_DUPFD_CLOEXEC, 700);
                if fd >= 0 {
                    STATS_FD.store(fd, Ordering::SeqCst);
                }
                libc::atexit(dump_stats);
            }
        }
        Err(e) => {
            eprintln!("lazypoline-preload: disabled ({e})");
        }
    }
}

extern "C" fn dump_stats() {
    let fd = STATS_FD.load(Ordering::SeqCst);
    let mut out = String::new();
    let h = lazypoline::health();
    let s = h.stats;
    out.push_str("-- lazypoline stats --\n");
    out.push_str(&format!("mode                     : {:?}\n", h.mode));
    out.push_str(&format!("slow-path (SIGSYS) trips : {}\n", s.slow_path_hits));
    out.push_str(&format!("sites lazily rewritten   : {}\n", s.sites_patched));
    out.push_str(&format!("dispatcher invocations   : {}\n", s.dispatches));
    out.push_str(&format!("unpatchable emulations   : {}\n", s.unpatchable_emulations));
    out.push_str(&format!("disabled-mode emulations : {}\n", s.disabled_mode_emulations));
    out.push_str(&format!("signals wrapped          : {}\n", s.signals_wrapped));
    // Robustness lines appear only when something actually degraded,
    // keeping the healthy-path dump short.
    if s.patch_retries + s.pages_blocklisted + s.quarantined_handlers + h.faults_injected > 0 {
        out.push_str(&format!("patch retries            : {}\n", s.patch_retries));
        out.push_str(&format!("pages blocklisted        : {}\n", s.pages_blocklisted));
        out.push_str(&format!("handlers quarantined     : {}\n", s.quarantined_handlers));
        out.push_str(&format!("faults injected          : {}\n", h.faults_injected));
    }
    let hooks = HOOKS_LOADED.load(Ordering::SeqCst);
    if hooks > 0 {
        out.push_str(&format!("hooks loaded             : {hooks}\n"));
        out.push_str(&format!(
            "hook dispatches          : {}\n",
            interpose::hook_dispatches()
        ));
    }
    let counter = COUNTER.load(Ordering::SeqCst);
    if !counter.is_null() {
        out.push_str("-- top syscalls --\n");
        // SAFETY: set once from a leaked box.
        for (nr, count) in unsafe { &*counter }.top().into_iter().take(15) {
            match syscalls::nr::name(nr) {
                Some(name) => out.push_str(&format!("{count:>10}  {name}\n")),
                None => out.push_str(&format!("{count:>10}  syscall_{nr}\n")),
            }
        }
    }
    // SAFETY: writing an owned buffer to our private fd.
    unsafe {
        libc::write(fd, out.as_ptr() as *const libc::c_void, out.len());
    }
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
}
