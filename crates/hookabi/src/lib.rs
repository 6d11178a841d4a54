//! The `lp_hook_v1` loadable-hook ABI and its `dlopen` loader.
//!
//! Interposers compiled into the binary implement
//! [`SyscallHandler`](interpose::SyscallHandler) directly; this crate
//! is the bridge for interposers shipped as **shared objects** and
//! attached to a live process (`LP_HOOKS=libfoo.so:prio,...`) — the
//! zpoline `ZPOLINE_HOOK=` ops story, but versioned, stackable, and
//! quarantined.
//!
//! # The ABI
//!
//! A hook cdylib exports one symbol, `lp_hook_v1`, a `#[repr(C)]`
//! [`LpHookV1`] descriptor. The layout is frozen: `abi_version` is the
//! **first field**, so a loader can read it before trusting anything
//! else in the struct — a version mismatch is a typed
//! [`HookLoadError::AbiMismatch`], never UB.
//!
//! `handle` receives a mutable [`LpHookEvent`] (it may rewrite the
//! number and arguments before a passthrough) and an out-parameter for
//! return/errno values; its return code selects the action:
//! [`LP_HOOK_CALL_NEXT`] falls through to the next hook down the stack,
//! [`LP_HOOK_RETURN`] short-circuits with `*out`, [`LP_HOOK_FAIL`]
//! short-circuits with `-errno` (`*out` holds the positive errno),
//! [`LP_HOOK_PANIC`] reports an internal panic/fault the hook caught
//! (see below). Unknown codes are treated as `call_next` — forward
//! compatibility over silent failure.
//!
//! # Panics must not cross the boundary
//!
//! A `dlopen`'d Rust cdylib carries its **own copy** of the Rust
//! runtime; a panic unwinding out of it is a *foreign exception* to the
//! host's `catch_unwind` and aborts the process — exactly the crash the
//! quarantine machinery exists to prevent. The ABI contract is
//! therefore: **hooks catch their own panics** and return
//! [`LP_HOOK_PANIC`]. The loader escalates that code by raising a
//! *host-side* panic, which the registry's `catch_unwind` converts into
//! a stack-wide quarantine (PR-2 semantics) while the syscall passes
//! through. The fn pointers stay `extern "C-unwind"` so in-process
//! descriptors (same runtime — tests, embedders) may still unwind
//! directly; shipped hook libraries must not rely on that.
//!
//! Loaded libraries are **never `dlclose`d**: a detached hook can still
//! be mid-invocation on another thread (detach is asynchronous, see
//! `interpose::HookStack`), so its code must stay mapped for the life
//! of the process — the same leak-by-design as the handler registry.

#![deny(missing_docs)]

use std::ffi::{CStr, CString};
use std::fmt;
use std::path::{Path, PathBuf};

use interpose::{Action, InterestSet, SyscallEvent, SyscallHandler};
use libc::{c_char, c_int};
use syscalls::Errno;

/// The ABI revision this loader speaks.
pub const LP_HOOK_ABI_V1: u32 = 1;

/// The descriptor symbol a hook cdylib must export.
pub const LP_HOOK_SYMBOL: &str = "lp_hook_v1";

/// `handle` return code: no decision — fall through to the next hook.
pub const LP_HOOK_CALL_NEXT: c_int = 0;
/// `handle` return code: short-circuit, return `*out` to the app.
pub const LP_HOOK_RETURN: c_int = 1;
/// `handle` return code: short-circuit, fail with `-(*out)` (`*out` is
/// a positive errno; out-of-range values are clamped to `EINVAL`).
pub const LP_HOOK_FAIL: c_int = 2;
/// `handle`/`post` return code: the hook caught an internal panic (or
/// equivalent fault) and is no longer trustworthy. The loader raises a
/// host-side panic, which the registry quarantines — see the module
/// docs for why the hook must catch the panic itself rather than let it
/// unwind across the `dlopen` boundary.
pub const LP_HOOK_PANIC: c_int = -1;

/// One intercepted syscall, as presented across the C ABI. Mirrors
/// `interpose::SyscallEvent` field for field.
#[repr(C)]
#[derive(Clone, Copy, Debug)]
pub struct LpHookEvent {
    /// Syscall number (mutable for rewriting before a passthrough).
    pub nr: u64,
    /// The six syscall arguments (mutable for rewriting).
    pub args: [u64; 6],
    /// Invocation-site address, 0 when unknown.
    pub site: u64,
}

/// The versioned hook descriptor a cdylib exports as `lp_hook_v1`.
///
/// `abi_version` must stay the first field forever (see module docs).
#[repr(C)]
pub struct LpHookV1 {
    /// Must equal [`LP_HOOK_ABI_V1`] for this revision.
    pub abi_version: u32,
    /// Default stack priority (higher runs earlier); an `LP_HOOKS`
    /// spec suffix (`lib.so:prio`) overrides it.
    pub priority: i32,
    /// NUL-terminated hook name for reports; may be null (the loader
    /// falls back to the file stem).
    pub name: *const c_char,
    /// 512-bit interest bitmap, low syscall numbers in word 0 bit 0.
    /// All-ones means every syscall (the common tracing case).
    pub interest_words: [u64; 8],
    /// Optional: runs once at load, before the hook can see syscalls.
    /// A nonzero return refuses the load ([`HookLoadError::InitFailed`]).
    pub init: Option<extern "C" fn() -> c_int>,
    /// Optional: runs at detach. (The library itself stays mapped.)
    pub fini: Option<extern "C" fn()>,
    /// The interposer body; required. See the module docs for the
    /// return-code protocol. `C-unwind` so panics quarantine.
    pub handle: Option<extern "C-unwind" fn(event: *mut LpHookEvent, out: *mut u64) -> c_int>,
    /// Optional result observer for executed passthroughs; returns the
    /// (possibly rewritten) return value.
    pub post: Option<extern "C-unwind" fn(event: *const LpHookEvent, ret: u64) -> u64>,
}

// SAFETY: descriptors are immutable statics; `name` points at a static
// NUL-terminated string. Required so Rust hook crates can declare
// `#[no_mangle] pub static lp_hook_v1: LpHookV1`.
unsafe impl Sync for LpHookV1 {}

/// Why a hook failed to load. Every failure mode is typed — a bad hook
/// library degrades to a structured install error, never UB or a crash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HookLoadError {
    /// The `LP_HOOKS` spec string is malformed.
    BadSpec {
        /// The offending spec fragment.
        fragment: String,
        /// What was wrong with it.
        reason: String,
    },
    /// `dlopen` refused the library.
    Open {
        /// The path handed to `dlopen`.
        path: String,
        /// The `dlerror()` message.
        dlerror: String,
    },
    /// The library has no [`LP_HOOK_SYMBOL`] export.
    MissingSymbol {
        /// The library path.
        path: String,
        /// The symbol that was looked up.
        symbol: String,
    },
    /// The descriptor's `abi_version` is not one this loader speaks.
    /// Nothing past the version field was read.
    AbiMismatch {
        /// The library path.
        path: String,
        /// The version the descriptor declared.
        found: u32,
        /// The version this loader requires.
        expected: u32,
    },
    /// The descriptor is structurally invalid (e.g. no `handle` fn).
    BadDescriptor {
        /// The library path.
        path: String,
        /// What was wrong with it.
        reason: String,
    },
    /// The hook's `init` returned nonzero, refusing the load.
    InitFailed {
        /// The library path.
        path: String,
        /// The nonzero return code.
        code: i32,
    },
}

impl fmt::Display for HookLoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HookLoadError::BadSpec { fragment, reason } => {
                write!(f, "bad hook spec {fragment:?}: {reason}")
            }
            HookLoadError::Open { path, dlerror } => {
                write!(f, "dlopen({path}) failed: {dlerror}")
            }
            HookLoadError::MissingSymbol { path, symbol } => {
                write!(f, "{path}: no `{symbol}` descriptor symbol (not a hook library?)")
            }
            HookLoadError::AbiMismatch { path, found, expected } => {
                write!(f, "{path}: hook ABI v{found}, this loader speaks v{expected}")
            }
            HookLoadError::BadDescriptor { path, reason } => {
                write!(f, "{path}: invalid hook descriptor: {reason}")
            }
            HookLoadError::InitFailed { path, code } => {
                write!(f, "{path}: hook init() refused the load (returned {code})")
            }
        }
    }
}

impl std::error::Error for HookLoadError {}

/// One parsed fragment of an `LP_HOOKS` spec: a library path or bare
/// name, plus an optional priority override.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HookSpec {
    /// Library path (contains `/`) or bare name to resolve.
    pub library: String,
    /// Priority from a `:prio` suffix; `None` uses the descriptor's.
    pub priority: Option<i32>,
}

/// Parses `LP_HOOKS`-style specs: comma-separated
/// `path-or-name[:priority]` fragments. An empty string yields no
/// hooks.
///
/// ```
/// let specs = lp_hookabi::parse_specs("libfoo.so:5,hook_count").unwrap();
/// assert_eq!(specs.len(), 2);
/// assert_eq!(specs[0].priority, Some(5));
/// assert_eq!(specs[1].library, "hook_count");
/// ```
pub fn parse_specs(spec: &str) -> Result<Vec<HookSpec>, HookLoadError> {
    let mut out = Vec::new();
    for frag in spec.split(',') {
        let frag = frag.trim();
        if frag.is_empty() {
            if spec.trim().is_empty() {
                continue; // wholly empty spec: no hooks
            }
            return Err(HookLoadError::BadSpec {
                fragment: String::new(),
                reason: "empty fragment (stray comma?)".into(),
            });
        }
        // `:prio` suffix — split on the *last* colon so the rare path
        // containing a colon still works when it also has a priority.
        let (library, priority) = match frag.rsplit_once(':') {
            Some((lib, prio)) if !lib.is_empty() => match prio.parse::<i32>() {
                Ok(p) => (lib.to_string(), Some(p)),
                // Not a number: the colon belongs to the path.
                Err(_) => (frag.to_string(), None),
            },
            _ => (frag.to_string(), None),
        };
        out.push(HookSpec { library, priority });
    }
    Ok(out)
}

/// Resolves a spec's library field to a `dlopen`-able path.
///
/// Anything containing `/` is used verbatim. A bare name is tried as
/// `lib<name>.so` (and as-is, for names already shaped like a
/// filename) next to the running executable and in its ancestor
/// directories — see [`resolve_from`]. If nothing is found the bare
/// name is returned unchanged, letting `dlopen` run its normal
/// `LD_LIBRARY_PATH` search (and produce the error if that fails too).
pub fn resolve_library(library: &str) -> PathBuf {
    if library.contains('/') {
        return PathBuf::from(library);
    }
    std::env::current_exe()
        .ok()
        .and_then(|exe| resolve_from(exe.parent()?, library))
        .unwrap_or_else(|| PathBuf::from(library))
}

/// Walks up from `start` (four levels) looking for the bare `library`
/// name where cargo puts workspace cdylib artifacts relative to test
/// and bench binaries: the directory itself and its `deps/`. Only a
/// `debug/` profile directory also falls back to its sibling
/// `release/`: a test binary in `target/debug/deps/` finds its own
/// profile's artifact first, else the one `cargo build --release`
/// emitted (`cargo test` builds the hook crates' test harnesses, not
/// their `.so`). A release binary never picks up an unoptimised
/// `target/debug/` hook.
fn resolve_from(start: &Path, library: &str) -> Option<PathBuf> {
    let file = if library.ends_with(".so") {
        library.to_string()
    } else {
        format!("lib{library}.so")
    };
    start.ancestors().take(4).find_map(|d| {
        let release = d.ends_with("debug").then(|| d.with_file_name("release"));
        [Some(d.to_path_buf()), Some(d.join("deps")), release]
            .into_iter()
            .flatten()
            .map(|dir| dir.join(&file))
            .find(|probe| probe.exists())
    })
}

fn last_dlerror() -> String {
    // SAFETY: dlerror returns a thread-local NUL-terminated string or
    // null; we copy it out immediately.
    unsafe {
        let p = libc::dlerror();
        if p.is_null() {
            "unknown dlerror".to_string()
        } else {
            CStr::from_ptr(p).to_string_lossy().into_owned()
        }
    }
}

/// A loaded, validated hook, adapted to the
/// [`SyscallHandler`](interpose::SyscallHandler) trait so it can sit in
/// a `HookStack` next to compiled-in handlers.
pub struct LoadedHook {
    desc: &'static LpHookV1,
    name: String,
    priority: i32,
    origin: String,
}

impl LoadedHook {
    /// Validates `desc` and wraps it. This is the common tail of the
    /// `dlopen` path, public so tests (and embedders) can exercise the
    /// ABI without a shared object. **`desc.abi_version` must already
    /// have been checked** when `desc` came from an untrusted mapping;
    /// this function re-checks it for the in-process case.
    pub fn from_descriptor(
        desc: &'static LpHookV1,
        origin: &str,
        priority_override: Option<i32>,
    ) -> Result<LoadedHook, HookLoadError> {
        if desc.abi_version != LP_HOOK_ABI_V1 {
            return Err(HookLoadError::AbiMismatch {
                path: origin.to_string(),
                found: desc.abi_version,
                expected: LP_HOOK_ABI_V1,
            });
        }
        if desc.handle.is_none() {
            return Err(HookLoadError::BadDescriptor {
                path: origin.to_string(),
                reason: "handle fn pointer is null".into(),
            });
        }
        let name = if desc.name.is_null() {
            Path::new(origin)
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_else(|| "hook".into())
        } else {
            // SAFETY: the ABI requires `name` to be a NUL-terminated
            // static string when non-null.
            unsafe { CStr::from_ptr(desc.name).to_string_lossy().into_owned() }
        };
        if let Some(init) = desc.init {
            let code = init();
            if code != 0 {
                return Err(HookLoadError::InitFailed {
                    path: origin.to_string(),
                    code,
                });
            }
        }
        Ok(LoadedHook {
            desc,
            name,
            priority: priority_override.unwrap_or(desc.priority),
            origin: origin.to_string(),
        })
    }

    /// `dlopen`s `path`, finds and validates the [`LP_HOOK_SYMBOL`]
    /// descriptor, and runs its `init`. The library is never closed
    /// (module docs). `priority_override` comes from the spec suffix.
    pub fn load(path: &Path, priority_override: Option<i32>) -> Result<LoadedHook, HookLoadError> {
        let display = path.display().to_string();
        let cpath = CString::new(display.as_str()).map_err(|_| HookLoadError::BadSpec {
            fragment: display.clone(),
            reason: "path contains NUL".into(),
        })?;
        // SAFETY: plain dlopen of a caller-supplied path; flags are
        // RTLD_NOW (fail loads up front, not mid-dispatch) and
        // RTLD_LOCAL (hook symbols must not pollute the app's
        // namespace).
        let handle = unsafe { libc::dlopen(cpath.as_ptr(), libc::RTLD_NOW | libc::RTLD_LOCAL) };
        if handle.is_null() {
            return Err(HookLoadError::Open {
                path: display,
                dlerror: last_dlerror(),
            });
        }
        let sym = CString::new(LP_HOOK_SYMBOL).unwrap();
        // SAFETY: dlsym on the handle we just opened.
        let desc_ptr = unsafe { libc::dlsym(handle, sym.as_ptr()) } as *const LpHookV1;
        if desc_ptr.is_null() {
            return Err(HookLoadError::MissingSymbol {
                path: display,
                symbol: LP_HOOK_SYMBOL.to_string(),
            });
        }
        // Version gate BEFORE trusting the descriptor layout:
        // `abi_version` is the first u32 of every revision, so this
        // read is valid whatever the library actually exported.
        // SAFETY: desc_ptr points at ≥4 readable bytes (an exported
        // object symbol); only the leading u32 is read here.
        let found = unsafe { *(desc_ptr as *const u32) };
        if found != LP_HOOK_ABI_V1 {
            return Err(HookLoadError::AbiMismatch {
                path: display,
                found,
                expected: LP_HOOK_ABI_V1,
            });
        }
        // SAFETY: version checked — the full v1 layout applies. The
        // library is never unloaded, so 'static is accurate.
        let desc: &'static LpHookV1 = unsafe { &*desc_ptr };
        LoadedHook::from_descriptor(desc, &display, priority_override)
    }

    /// The hook's stack priority (spec override or descriptor default).
    pub fn priority(&self) -> i32 {
        self.priority
    }

    /// Where the hook came from (library path or descriptor origin).
    pub fn origin(&self) -> &str {
        &self.origin
    }

    /// Runs the descriptor's `fini`, if any. Called by the mechanism
    /// layer after detaching the hook from the stack.
    pub fn run_fini(&self) {
        if let Some(fini) = self.desc.fini {
            fini();
        }
    }
}

impl fmt::Debug for LoadedHook {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LoadedHook({} prio={} from {})", self.name, self.priority, self.origin)
    }
}

// SAFETY: the descriptor is an immutable static and its functions are
// required by the ABI to be callable from any thread (they run on
// whatever application thread makes the syscall).
unsafe impl Send for LoadedHook {}
unsafe impl Sync for LoadedHook {}

impl SyscallHandler for LoadedHook {
    fn handle(&self, event: &mut SyscallEvent) -> Action {
        let mut c_ev = LpHookEvent {
            nr: event.call.nr,
            args: event.call.args,
            site: event.site as u64,
        };
        let mut out: u64 = 0;
        // Required by from_descriptor; unwrap is unreachable.
        let handle = self.desc.handle.expect("validated at load");
        let code = handle(&mut c_ev, &mut out);
        // Propagate rewrites back for later hooks / the execution.
        event.call.nr = c_ev.nr;
        event.call.args = c_ev.args;
        match code {
            LP_HOOK_RETURN => Action::Return(out),
            LP_HOOK_FAIL => {
                let errno = match i32::try_from(out) {
                    Ok(n) if (1..=Errno::MAX).contains(&n) => Errno::new(n),
                    _ => Errno::EINVAL,
                };
                Action::Fail(errno)
            }
            // The hook caught an internal panic it could not unwind
            // across the dlopen boundary (module docs): re-raise it
            // host-side so the registry's catch_unwind quarantines the
            // stack and the syscall passes through.
            LP_HOOK_PANIC => panic!(
                "hook {:?} ({}) reported an internal panic on syscall {}",
                self.name, self.origin, event.call.nr
            ),
            // LP_HOOK_CALL_NEXT and any future code: fall through.
            _ => Action::Passthrough,
        }
    }

    fn post(&self, event: &SyscallEvent, ret: u64) -> u64 {
        match self.desc.post {
            Some(post) => {
                let c_ev = LpHookEvent {
                    nr: event.call.nr,
                    args: event.call.args,
                    site: event.site as u64,
                };
                post(&c_ev, ret)
            }
            None => ret,
        }
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn interest(&self) -> InterestSet {
        InterestSet::from_words(self.desc.interest_words)
    }
}

/// Parses `spec`, resolves each library, and loads every hook —
/// the one-call path behind `LP_HOOKS`. Fails on the first bad
/// fragment or library (a partial stack is worse than a typed error at
/// install time).
pub fn load_from_spec(spec: &str) -> Result<Vec<LoadedHook>, HookLoadError> {
    let mut hooks = Vec::new();
    for s in parse_specs(spec)? {
        let path = resolve_library(&s.library);
        hooks.push(LoadedHook::load(&path, s.priority)?);
    }
    Ok(hooks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use syscalls::{nr, SyscallArgs};

    extern "C-unwind" fn deny_execve(ev: *mut LpHookEvent, out: *mut u64) -> c_int {
        unsafe {
            if (*ev).nr == nr::EXECVE {
                *out = libc::EPERM as u64;
                return LP_HOOK_FAIL;
            }
            if (*ev).nr == nr::GETPID {
                *out = 4242;
                return LP_HOOK_RETURN;
            }
            // Rewrite arg0 on everything else, then fall through.
            (*ev).args[0] += 1;
        }
        LP_HOOK_CALL_NEXT
    }

    extern "C-unwind" fn double_ret(_ev: *const LpHookEvent, ret: u64) -> u64 {
        ret * 2
    }

    const NAME: &[u8] = b"testhook\0";

    static GOOD: LpHookV1 = LpHookV1 {
        abi_version: LP_HOOK_ABI_V1,
        priority: 3,
        name: NAME.as_ptr() as *const c_char,
        interest_words: [u64::MAX; 8],
        init: None,
        fini: None,
        handle: Some(deny_execve),
        post: Some(double_ret),
    };

    #[test]
    fn descriptor_adapts_to_syscall_handler() {
        let h = LoadedHook::from_descriptor(&GOOD, "inline", None).unwrap();
        assert_eq!(h.name(), "testhook");
        assert_eq!(h.priority(), 3);
        assert!(h.interest().is_all());

        let mut ev = SyscallEvent::new(SyscallArgs::nullary(nr::EXECVE));
        assert_eq!(h.handle(&mut ev), Action::Fail(Errno::EPERM));

        let mut ev = SyscallEvent::new(SyscallArgs::nullary(nr::GETPID));
        assert_eq!(h.handle(&mut ev), Action::Return(4242));

        let mut ev = SyscallEvent::new(SyscallArgs::new(nr::WRITE, [9, 0, 0, 0, 0, 0]));
        assert_eq!(h.handle(&mut ev), Action::Passthrough);
        assert_eq!(ev.call.args[0], 10, "rewrite visible to caller");
        assert_eq!(h.post(&ev, 21), 42);
    }

    #[test]
    fn priority_override_beats_descriptor() {
        let h = LoadedHook::from_descriptor(&GOOD, "inline", Some(-7)).unwrap();
        assert_eq!(h.priority(), -7);
    }

    static WRONG_VERSION: LpHookV1 = LpHookV1 {
        abi_version: 999,
        ..GOOD_TEMPLATE
    };
    static NO_HANDLE: LpHookV1 = LpHookV1 {
        handle: None,
        ..GOOD_TEMPLATE
    };
    extern "C" fn refuse() -> c_int {
        17
    }
    static INIT_REFUSES: LpHookV1 = LpHookV1 {
        init: Some(refuse),
        ..GOOD_TEMPLATE
    };
    const GOOD_TEMPLATE: LpHookV1 = LpHookV1 {
        abi_version: LP_HOOK_ABI_V1,
        priority: 0,
        name: std::ptr::null(),
        interest_words: [u64::MAX; 8],
        init: None,
        fini: None,
        handle: Some(deny_execve),
        post: None,
    };

    #[test]
    fn bad_descriptors_are_typed_errors() {
        assert_eq!(
            LoadedHook::from_descriptor(&WRONG_VERSION, "x.so", None).unwrap_err(),
            HookLoadError::AbiMismatch {
                path: "x.so".into(),
                found: 999,
                expected: LP_HOOK_ABI_V1
            }
        );
        assert!(matches!(
            LoadedHook::from_descriptor(&NO_HANDLE, "x.so", None).unwrap_err(),
            HookLoadError::BadDescriptor { .. }
        ));
        assert_eq!(
            LoadedHook::from_descriptor(&INIT_REFUSES, "x.so", None).unwrap_err(),
            HookLoadError::InitFailed {
                path: "x.so".into(),
                code: 17
            }
        );
    }

    #[test]
    fn null_name_falls_back_to_file_stem() {
        static ANON: LpHookV1 = GOOD_TEMPLATE;
        let h = LoadedHook::from_descriptor(&ANON, "/tmp/libmyhook.so", None).unwrap();
        assert_eq!(h.name(), "libmyhook");
    }

    #[test]
    fn spec_parsing() {
        assert!(parse_specs("").unwrap().is_empty());
        assert!(parse_specs("  ").unwrap().is_empty());

        let v = parse_specs("libfoo.so:5,hook_count,./x/libbar.so:-2").unwrap();
        assert_eq!(
            v,
            vec![
                HookSpec { library: "libfoo.so".into(), priority: Some(5) },
                HookSpec { library: "hook_count".into(), priority: None },
                HookSpec { library: "./x/libbar.so".into(), priority: Some(-2) },
            ]
        );

        // A colon suffix that isn't a number belongs to the path.
        let v = parse_specs("weird:name.so").unwrap();
        assert_eq!(v[0].library, "weird:name.so");
        assert_eq!(v[0].priority, None);

        assert!(matches!(
            parse_specs("libfoo.so,,libbar.so").unwrap_err(),
            HookLoadError::BadSpec { .. }
        ));
    }

    #[test]
    fn resolve_passes_paths_through() {
        assert_eq!(resolve_library("./libx.so"), PathBuf::from("./libx.so"));
        assert_eq!(resolve_library("/a/b/libx.so"), PathBuf::from("/a/b/libx.so"));
        // Unresolvable bare name falls back unchanged for dlopen's own
        // search.
        assert_eq!(
            resolve_library("definitely_not_built"),
            PathBuf::from("definitely_not_built")
        );

        // A tree shaped like cargo's: the test binary lives in
        // target/debug/deps, the cdylib only in target/release.
        let target = std::env::temp_dir().join(format!("lp_resolve_{}", std::process::id()));
        let deps = target.join("debug/deps");
        let release = target.join("release");
        std::fs::create_dir_all(&deps).unwrap();
        std::fs::create_dir_all(&release).unwrap();
        std::fs::write(release.join("libhook_x.so"), b"").unwrap();
        assert_eq!(
            resolve_from(&deps, "hook_x"),
            Some(release.join("libhook_x.so")),
            "sibling profile dir is probed"
        );
        assert_eq!(resolve_from(&deps, "hook_y"), None);
        // The running profile's own artifact wins over the sibling's,
        // and a release binary never falls back to a debug artifact.
        std::fs::write(target.join("debug/libhook_x.so"), b"").unwrap();
        std::fs::write(target.join("debug/libhook_y.so"), b"").unwrap();
        assert_eq!(
            resolve_from(&deps, "libhook_x.so"),
            Some(target.join("debug/libhook_x.so"))
        );
        assert_eq!(resolve_from(&release.join("deps"), "hook_y"), None);
        std::fs::remove_dir_all(&target).unwrap();
    }

    #[test]
    fn dlopen_of_missing_library_is_typed() {
        let err = LoadedHook::load(Path::new("/nonexistent/libnothing.so"), None).unwrap_err();
        assert!(matches!(err, HookLoadError::Open { .. }), "{err}");
        // Errors render human-readably.
        assert!(err.to_string().contains("/nonexistent/libnothing.so"));
    }

    #[test]
    fn missing_descriptor_symbol_is_typed() {
        // libc.so.6 loads fine but has no lp_hook_v1 symbol.
        let err = LoadedHook::load(Path::new("libc.so.6"), None).unwrap_err();
        assert_eq!(
            err,
            HookLoadError::MissingSymbol {
                path: "libc.so.6".into(),
                symbol: LP_HOOK_SYMBOL.into()
            }
        );
    }
}
