//! Integration tests for the hook stack: loading `lp_hook_v1` cdylibs,
//! every load failure mode, and panic quarantine for loaded hooks.
//!
//! The example hook libraries under `examples/hook_*` are workspace
//! default-members, so `target/<profile>/libhook_*.so` exists by the
//! time this test binary links; `hookabi::resolve_library` finds them
//! from the test binary's own path (`target/<profile>/deps/...`). None
//! of these tests need a native engine — they drive the registry's
//! dispatch sequence (`interpose_syscall`) directly, which is the same
//! decision path the engines run.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use lazypoline_suite::hookabi::{self, HookLoadError, HookSpec, LoadedHook, LP_HOOK_ABI_V1};
use lazypoline_suite::interpose::{
    self, install_handler, interpose_syscall, quarantined_handlers, CountHandler, HookStack,
    SyscallHandler,
};
use lazypoline_suite::syscalls::{nr, SyscallArgs};
use proptest::collection::vec;
use proptest::prelude::*;

/// The registry is process-global; tests that install a handler hold
/// this lock so they don't observe each other's stacks mid-assert.
static REGISTRY_LOCK: Mutex<()> = Mutex::new(());

/// An unused, in-range syscall number the `hook_panic` library is
/// compiled to panic on.
const PANIC_TRIGGER_NR: u64 = 511;

fn dispatch(nr: u64, ret: u64) -> u64 {
    interpose_syscall(SyscallArgs::nullary(nr), 0, |_| ret)
}

#[test]
fn load_failure_modes_are_typed_errors() {
    // A path that cannot exist: dlopen fails, with its diagnostic.
    match hookabi::load_from_spec("/no/such/dir/libnope.so") {
        Err(HookLoadError::Open { path, .. }) => {
            assert!(path.ends_with("libnope.so"), "{path:?}")
        }
        other => panic!("expected Open error, got {other:?}"),
    }

    // A real library without the descriptor symbol.
    match hookabi::load_from_spec("libc.so.6") {
        Err(HookLoadError::MissingSymbol { symbol, .. }) => {
            assert_eq!(symbol, hookabi::LP_HOOK_SYMBOL)
        }
        other => panic!("expected MissingSymbol error, got {other:?}"),
    }

    // A descriptor from the future: version read, layout never trusted.
    match hookabi::load_from_spec("hook_badabi") {
        Err(HookLoadError::AbiMismatch { found, expected, .. }) => {
            assert_eq!(found, 999);
            assert_eq!(expected, LP_HOOK_ABI_V1);
        }
        other => panic!("expected AbiMismatch error, got {other:?}"),
    }

    // An empty fragment in a non-empty spec is a spec error, and one
    // bad entry fails the whole set (no partial policy stacks).
    assert!(matches!(
        hookabi::load_from_spec("hook_count,,hook_noop"),
        Err(HookLoadError::BadSpec { .. })
    ));
    assert!(matches!(
        hookabi::load_from_spec("hook_count,/no/such/libnope.so"),
        Err(HookLoadError::Open { .. })
    ));

    // The degenerate spec loads nothing, successfully.
    assert!(hookabi::load_from_spec("").unwrap().is_empty());
}

#[test]
fn loaded_hook_dispatches_and_exports_its_count() {
    let _g = REGISTRY_LOCK.lock().unwrap_or_else(PoisonError::into_inner);

    let mut hooks = hookabi::load_from_spec("hook_count").unwrap();
    let hook = hooks.pop().unwrap();
    assert_eq!(hook.name(), "hook_count");
    assert_eq!(hook.priority(), 10, "descriptor priority");
    // Foreign code declares nothing about its floating-point use.
    assert!(!hook.leaves_fp_env());

    // Read the library's exported counter through dlsym, like an
    // external observer would: dlopen of the same path returns the
    // already-loaded module, so the counter state is shared.
    let path = std::ffi::CString::new(
        hookabi::resolve_library("hook_count").to_str().unwrap(),
    )
    .unwrap();
    let total: extern "C" fn() -> u64 = unsafe {
        let lib = libc::dlopen(path.as_ptr(), libc::RTLD_NOW | libc::RTLD_LOCAL);
        assert!(!lib.is_null(), "re-dlopen of a loaded module");
        let sym = libc::dlsym(lib, c"lp_hook_count_total".as_ptr());
        assert!(!sym.is_null(), "hook exports its counter");
        std::mem::transmute::<*mut std::ffi::c_void, extern "C" fn() -> u64>(sym)
    };

    let stack = HookStack::new();
    let counter = CountHandler::new();
    stack.attach(Box::new(counter.clone()), 0);
    stack.attach_dynamic(Box::new(hook), 10);
    let before_exported = total();
    let before_global = interpose::hook_dispatches();

    assert!(!stack.leaves_fp_env(), "a stack holding a loaded hook declares nothing");
    let guard = install_handler(Box::new(stack));
    for i in 0..25u64 {
        assert_eq!(dispatch(nr::GETPID, 4000 + i), 4000 + i);
    }
    drop(guard);

    assert_eq!(counter.count(nr::GETPID), 25, "compiled-in handler ran");
    assert_eq!(total() - before_exported, 25, "hook saw every dispatch");
    assert_eq!(
        interpose::hook_dispatches() - before_global,
        25,
        "dynamic dispatches counted"
    );
}

#[test]
fn loaded_hook_panic_is_quarantined_not_fatal() {
    let _g = REGISTRY_LOCK.lock().unwrap_or_else(PoisonError::into_inner);

    let mut hooks = hookabi::load_from_spec("hook_panic").unwrap();
    let hook: LoadedHook = hooks.pop().unwrap();
    let stack = HookStack::new();
    let counter = CountHandler::new();
    stack.attach(Box::new(counter.clone()), 0);
    stack.attach_dynamic(Box::new(hook), 50);

    let guard = install_handler(Box::new(stack));
    // Benign traffic flows through the loaded hook.
    assert_eq!(dispatch(nr::GETPID, 77), 77);
    assert_eq!(counter.count(nr::GETPID), 1);

    // The trigger: the hook's panic unwinds through the C-unwind ABI
    // into the registry's catch_unwind. The syscall itself must still
    // execute (quarantine passes through), the process must not abort.
    let before = quarantined_handlers();
    assert_eq!(dispatch(PANIC_TRIGGER_NR, 88), 88);
    assert_eq!(quarantined_handlers(), before + 1);

    // Quarantine is stack-wide (the stack is the installed handler):
    // later syscalls bypass it without re-counting.
    assert_eq!(dispatch(nr::GETPID, 99), 99);
    assert_eq!(counter.count(nr::GETPID), 1, "quarantined: handler skipped");
    assert_eq!(quarantined_handlers(), before + 1);
    drop(guard);
}

#[test]
fn in_process_descriptor_roundtrip() {
    // A descriptor does not need a library: from_descriptor is the
    // same entry dlopen'd hooks go through, so in-process statics give
    // the failure tests a loader without filesystem dependencies.
    static HITS: AtomicU64 = AtomicU64::new(0);
    extern "C-unwind" fn handle(
        _ev: *mut hookabi::LpHookEvent,
        _out: *mut u64,
    ) -> i32 {
        HITS.fetch_add(1, Ordering::Relaxed);
        hookabi::LP_HOOK_CALL_NEXT
    }
    static DESC: hookabi::LpHookV1 = hookabi::LpHookV1 {
        abi_version: LP_HOOK_ABI_V1,
        priority: -5,
        name: c"inproc".as_ptr(),
        interest_words: [u64::MAX; 8],
        init: None,
        fini: None,
        handle: Some(handle),
        post: None,
    };
    let hook = LoadedHook::from_descriptor(&DESC, "static", Some(7)).unwrap();
    assert_eq!(hook.name(), "inproc");
    assert_eq!(hook.priority(), 7, "spec priority overrides descriptor");

    let mut ev = interpose::SyscallEvent::new(SyscallArgs::nullary(nr::GETPID));
    assert_eq!(hook.handle(&mut ev), interpose::Action::Passthrough);
    assert_eq!(HITS.load(Ordering::Relaxed), 1);
}

/// What `parse_specs` must do with `spec`: a non-blank spec with an
/// empty fragment is the one `BadSpec`; anything else is one spec per
/// fragment.
fn check_spec(spec: &str) -> Result<(), String> {
    let empty_fragment = !spec.trim().is_empty() && spec.split(',').any(|f| f.trim().is_empty());
    match hookabi::parse_specs(spec) {
        Ok(specs) => {
            prop_assert!(!empty_fragment, "{:?} parsed", spec);
            let fragments = if spec.trim().is_empty() { 0 } else { spec.split(',').count() };
            prop_assert_eq!(specs.len(), fragments, "{:?}", spec);
            prop_assert!(specs.iter().all(|s| !s.library.is_empty() && !s.library.contains(',')));
        }
        Err(HookLoadError::BadSpec { .. }) => prop_assert!(empty_fragment, "{:?} rejected", spec),
        Err(other) => prop_assert!(false, "{:?}: not a BadSpec: {}", spec, other),
    }
    Ok(())
}

proptest! {
    /// `LP_HOOKS` strings of any shape — separator-heavy ones and
    /// arbitrary bytes — parse to specs or a typed `BadSpec`.
    #[test]
    fn any_spec_string_parses_or_is_a_bad_spec(
        spec in "[a-z/.:, 0-9\t+é-]{0,40}",
        noise in vec(any::<u8>(), 0..48),
    ) {
        check_spec(&spec)?;
        check_spec(&String::from_utf8_lossy(&noise))?;
    }

    /// Specs rendered as `LP_HOOKS` parse back to themselves.
    #[test]
    fn rendered_specs_round_trip(libs in vec(("[a-z/._]{1,12}", any::<bool>(), any::<i32>()), 1..6)) {
        let specs: Vec<HookSpec> = libs
            .into_iter()
            .map(|(library, with, priority)| HookSpec { library, priority: with.then_some(priority) })
            .collect();
        let rendered: Vec<String> = specs
            .iter()
            .map(|s| match s.priority {
                Some(p) => format!("{}:{p}", s.library),
                None => s.library.clone(),
            })
            .collect();
        let back = hookabi::parse_specs(&rendered.join(",")).map_err(|e| e.to_string())?;
        prop_assert_eq!(back, specs);
    }
}
