//! Regenerates the **§V-A exhaustiveness experiment**: a JIT-compiled
//! program containing a runtime-generated `getpid` is run under SUD,
//! zpoline, and lazypoline; the interposers' traces are compared.
//!
//! "lazypoline and SUD print the exact same syscalls, in the same
//! order, including our introduced getpid syscall […] zpoline's trace
//! does not include the relevant getpid, since the syscall instruction
//! from which it was invoked did not exist yet at load time."
//!
//! The simulated part reproduces the three-way comparison exactly; the
//! native part re-validates lazypoline's half on the real kernel
//! (runtime-emitted x86-64 code, real SIGSYS, real rewriting).

use sim_interpose::{Interposed, Mechanism};
use sim_kernel::sysno;

fn sim_trace(mechanism: Mechanism) -> Vec<String> {
    let program = sim_workloads::jit::build();
    let mut ip = Interposed::setup(mechanism, &program, true).expect("setup");
    ip.run().expect("run");
    ip.observed_trace()
        .into_iter()
        .map(|nr| {
            sysno::name(nr)
                .map(str::to_string)
                .unwrap_or_else(|| format!("syscall_{nr}"))
        })
        .collect()
}

fn main() {
    println!("Exhaustiveness experiment (paper §V-A) — tcc-like JIT workload\n");
    println!("The workload emits a fresh `getpid` SYSCALL at runtime and calls it,");
    println!("then performs one statically-visible getpid.\n");

    let sud = sim_trace(Mechanism::Sud);
    let zpoline = sim_trace(Mechanism::Zpoline);
    let lazypoline = sim_trace(Mechanism::Lazypoline { xstate: true });

    println!("observed traces (simulated):");
    println!("  SUD        : {}", sud.join(", "));
    println!("  zpoline    : {}", zpoline.join(", "));
    println!("  lazypoline : {}", lazypoline.join(", "));

    let sud_getpids = sud.iter().filter(|s| *s == "getpid").count();
    let zp_getpids = zpoline.iter().filter(|s| *s == "getpid").count();
    let lp_getpids = lazypoline.iter().filter(|s| *s == "getpid").count();

    println!();
    println!("getpid observations: SUD={sud_getpids}, zpoline={zp_getpids}, lazypoline={lp_getpids}");
    assert_eq!(sud, lazypoline, "lazypoline must match SUD exactly");
    assert_eq!(sud_getpids, 2, "both the JIT'd and the static getpid");
    assert_eq!(zp_getpids, 1, "zpoline misses the JIT'd one");
    println!("=> lazypoline's trace equals SUD's (exhaustive); zpoline misses the JIT syscall.\n");

    // — Native confirmation on the real kernel —
    if !zpoline::Trampoline::environment_supported() || !sud::is_supported() {
        println!("native half skipped (needs SUD + vm.mmap_min_addr=0)");
        return;
    }
    native_confirmation();
}

fn native_confirmation() {
    use interpose::{Action, SyscallEvent, SyscallHandler};
    use std::sync::atomic::{AtomicU64, Ordering};

    static GETPIDS: AtomicU64 = AtomicU64::new(0);
    struct Spy;
    impl SyscallHandler for Spy {
        fn handle(&self, ev: &mut SyscallEvent) -> Action {
            if ev.call.nr == syscalls::nr::GETPID {
                GETPIDS.fetch_add(1, Ordering::SeqCst);
            }
            Action::Passthrough
        }
    }
    let mut active = mechanism::by_name("lazypoline")
        .expect("registered")
        .install(Box::new(Spy))
        .expect("install");

    // Emit `mov eax, 39; syscall; ret` at runtime — after interposition
    // was armed, where no static scan can see it.
    let jit: extern "C" fn() -> u64 = unsafe {
        let page = libc::mmap(
            std::ptr::null_mut(),
            4096,
            libc::PROT_READ | libc::PROT_WRITE | libc::PROT_EXEC,
            libc::MAP_PRIVATE | libc::MAP_ANONYMOUS,
            -1,
            0,
        );
        assert_ne!(page, libc::MAP_FAILED);
        let code: [u8; 8] = [0xb8, 39, 0, 0, 0, 0x0f, 0x05, 0xc3];
        std::ptr::copy_nonoverlapping(code.as_ptr(), page as *mut u8, code.len());
        std::mem::transmute(page)
    };
    let before = active.stats();
    let pid = jit();
    let pid2 = jit();
    active.detach();
    let after = active.stats();

    assert_eq!(pid, std::process::id() as u64);
    assert_eq!(pid2, pid);
    assert!(GETPIDS.load(Ordering::SeqCst) >= 2);
    println!("native confirmation (real kernel, real rewriting):");
    println!(
        "  JIT-emitted getpid interposed {} times; slow-path trips {} -> {}, sites patched {} -> {}",
        GETPIDS.load(Ordering::SeqCst),
        before.slow_path_hits,
        after.slow_path_hits,
        before.sites_patched,
        after.sites_patched
    );
    println!("=> the runtime-generated site was discovered (SIGSYS), rewritten, and fast-pathed.");
}
