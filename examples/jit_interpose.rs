//! The exhaustiveness experiment, natively (paper §V-A).
//!
//! The paper JIT-compiles a C program containing a non-libc `getpid`
//! under tcc and shows that zpoline (static rewriting) misses the
//! runtime-generated syscall while lazypoline interposes it. This
//! example reproduces the exact situation without tcc: machine code
//! containing a fresh `syscall` instruction is emitted into an
//! anonymous executable page at runtime — *after* any static scan could
//! have run — and executed under the hybrid engine.
//!
//! ```sh
//! cargo run --example jit_interpose
//! LP_MECHANISM=lazypoline-nox cargo run --example jit_interpose
//! ```

use interpose::{Action, SyscallEvent, SyscallHandler};
use std::sync::atomic::{AtomicU64, Ordering};

/// Records whether the JIT'd getpid was observed.
struct JitSpy;

static JIT_GETPID_SEEN: AtomicU64 = AtomicU64::new(0);

impl SyscallHandler for JitSpy {
    fn handle(&self, ev: &mut SyscallEvent) -> Action {
        if ev.call.nr == syscalls::nr::GETPID {
            JIT_GETPID_SEEN.fetch_add(1, Ordering::SeqCst);
        }
        Action::Passthrough
    }
}

/// The experiment only makes sense for lazily-rewriting backends — the
/// whole point is catching a syscall site that appears after install.
fn lazy_rewriting(name: &str) -> bool {
    matches!(
        name,
        "zpoline" | "lazypoline-nox" | "lazypoline" | "lazypoline-nobatch"
    )
}

/// Emit `mov eax, <nr>; syscall; ret` into a fresh executable page —
/// the moral equivalent of `tcc -run` producing a syscall at runtime.
unsafe fn jit_emit_getpid() -> extern "C" fn() -> u64 {
    let page = libc::mmap(
        std::ptr::null_mut(),
        4096,
        libc::PROT_READ | libc::PROT_WRITE | libc::PROT_EXEC,
        libc::MAP_PRIVATE | libc::MAP_ANONYMOUS,
        -1,
        0,
    );
    assert_ne!(page, libc::MAP_FAILED);
    let code: [u8; 8] = [
        0xb8,
        syscalls::nr::GETPID as u8,
        0,
        0,
        0, // mov eax, 39
        0x0f,
        0x05, // syscall
        0xc3, // ret
    ];
    std::ptr::copy_nonoverlapping(code.as_ptr(), page as *mut u8, code.len());
    std::mem::transmute(page)
}

fn main() {
    let backend = match mechanism::EnvConfig::from_env() {
        Ok(cfg) => mechanism::by_name(cfg.mechanism).expect("a parsed name is registered"),
        Err(e) => {
            eprintln!("skip: {e}");
            return;
        }
    };
    if !lazy_rewriting(backend.name()) {
        eprintln!(
            "skip: LP_MECHANISM={} does not rewrite lazily; this experiment needs one of the \
             rewriting backends (e.g. lazypoline)",
            backend.name()
        );
        return;
    }
    if !backend.is_available() {
        eprintln!(
            "skip: {} unavailable here (needs Linux >= 5.11 SUD and vm.mmap_min_addr = 0)",
            backend.name()
        );
        return;
    }

    let mut active = match backend.install(Box::new(JitSpy)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("skip: {} install failed: {e}", backend.name());
            return;
        }
    };

    let before = active.stats();

    // Generate the code *after* interposition is armed — no static
    // rewriter could know about this site.
    let jit_getpid = unsafe { jit_emit_getpid() };

    let real_pid = std::process::id() as u64;
    let first = jit_getpid(); // slow path: SIGSYS → patch → fast path
    let second = jit_getpid(); // fast path only
    let third = jit_getpid();

    active.detach();
    let after = active.stats();

    assert_eq!(first, real_pid);
    assert_eq!(second, real_pid);
    assert_eq!(third, real_pid);
    let seen = JIT_GETPID_SEEN.load(Ordering::SeqCst);
    assert!(seen >= 3, "JIT getpid interposed {seen} < 3 times");
    assert!(
        after.sites_patched > before.sites_patched,
        "the JIT site should have been lazily rewritten"
    );

    println!("mechanism: {}", active.mechanism_name());
    println!("JIT-generated getpid returned pid {first} (correct)");
    println!("interposed {seen} JIT getpid invocations");
    println!(
        "slow-path trips {} → {}, sites patched {} → {}",
        before.slow_path_hits, after.slow_path_hits, before.sites_patched, after.sites_patched
    );
    println!("OK: exhaustive interposition of runtime-generated code");
}
