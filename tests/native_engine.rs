//! Native end-to-end tests of the lazypoline engine, run in
//! subprocesses.
//!
//! Engine initialization permanently rewrites code in the running
//! process (that is the design), so every scenario executes in a
//! fresh re-execution of this test binary (`LP_SCENARIO=<name>`), and
//! the parent asserts on exit status. Custom harness (`harness =
//! false` in Cargo.toml).

use std::process::Command;

use interpose::{Action, CountHandler, PolicyBuilder, SyscallEvent, SyscallHandler};
use lazypoline::Config;
use lp_bench::guest;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

fn environment_ready() -> bool {
    zpoline::Trampoline::environment_supported() && sud::is_supported()
}

/// Installs a named backend from the mechanism registry around
/// `handler` — the scenarios' single entry point into native
/// interposition. (The fault-injection scenarios below bypass this and
/// drive `lazypoline::init` directly: they assert on engine internals
/// beneath the mechanism layer.)
fn install(name: &str, handler: Box<dyn SyscallHandler>) -> mechanism::ActiveMechanism {
    mechanism::by_name(name)
        .unwrap_or_else(|| panic!("unknown mechanism {name}"))
        .install(handler)
        .unwrap_or_else(|e| panic!("install {name}: {e}"))
}

// ——— scenarios (run in child processes) ————————————————————————————

fn scenario_engine_counts() {
    let counter = CountHandler::new();
    let mut active = install("lazypoline", Box::new(counter.clone()));

    for _ in 0..50 {
        let _ = std::fs::metadata("/tmp");
    }
    let tmp = std::env::temp_dir().join(format!("lp-native-{}", std::process::id()));
    std::fs::write(&tmp, b"roundtrip").unwrap();
    let back = std::fs::read(&tmp).unwrap();
    std::fs::remove_file(&tmp).unwrap();
    assert_eq!(back, b"roundtrip");

    active.detach();
    let stats = active.stats();
    assert!(stats.sites_patched >= 3, "{stats:?}");
    assert!(stats.dispatches > stats.slow_path_hits, "{stats:?}");
    assert!(
        counter.count(syscalls::nr::STATX) >= 50
            || counter.count(syscalls::nr::NEWFSTATAT) >= 50,
        "metadata syscalls uncounted"
    );
}

fn scenario_signals() {
    signals_under("lazypoline").detach();
}

/// The same under the pure slow path: every syscall is emulated inside
/// the `SIGSYS` handler, so `raise`'s signal is delivered *nested* in
/// it (where `SIGSYS` is blocked), and the wrapper's `rt_sigreturn` is
/// itself emulated there.
fn scenario_signals_sud() {
    signals_under("sud").detach();
}

/// The same under hardened mode, whose backstop sees every syscall SUD
/// lets through, the wrapper's and the restorer's included. Then a
/// child's exit, which delivers `SIGCHLD` to a wrapped handler while the
/// parent waits.
fn scenario_signals_hardened() {
    static CHILD_EXITS: AtomicU64 = AtomicU64::new(0);
    extern "C" fn on_chld(_sig: libc::c_int) {
        CHILD_EXITS.fetch_add(1, Ordering::SeqCst);
    }

    let mut active = signals_under("lazypoline-hardened");
    unsafe {
        let mut sa: libc::sigaction = std::mem::zeroed();
        sa.sa_sigaction = on_chld as *const () as usize;
        sa.sa_flags = libc::SA_RESTART;
        assert_eq!(libc::sigaction(libc::SIGCHLD, &sa, std::ptr::null_mut()), 0);
        let pid = libc::fork();
        assert!(pid >= 0, "fork failed");
        if pid == 0 {
            libc::_exit(0);
        }
        let mut status = 0;
        assert_eq!(libc::waitpid(pid, &mut status, 0), pid);
        assert_eq!(status, 0, "child status");
    }
    assert_eq!(CHILD_EXITS.load(Ordering::SeqCst), 1, "SIGCHLD handler runs");
    assert_interposed("after SIGCHLD");
    active.detach();
}

/// Installs `base`, runs five wrapped `SIGUSR1`s through it and returns
/// the installation, still attached.
fn signals_under(base: &str) -> mechanism::ActiveMechanism {
    static HANDLER_RAN: AtomicU64 = AtomicU64::new(0);
    static SEEN_KILL: AtomicU64 = AtomicU64::new(0);

    struct Spy;
    impl SyscallHandler for Spy {
        fn handle(&self, ev: &mut SyscallEvent) -> Action {
            if ev.call.nr == syscalls::nr::TGKILL || ev.call.nr == syscalls::nr::KILL {
                SEEN_KILL.fetch_add(1, Ordering::SeqCst);
            }
            Action::Passthrough
        }
    }

    extern "C" fn on_usr1(_sig: libc::c_int) {
        // Handler performs syscalls of its own — they must be
        // interposed too (paper Fig. 3 step ②).
        let _ = std::fs::metadata("/proc/self");
        HANDLER_RAN.fetch_add(1, Ordering::SeqCst);
    }

    let active = install(base, Box::new(Spy));

    unsafe {
        // Register through libc (this rt_sigaction is itself
        // interposed and wrapped).
        let mut sa: libc::sigaction = std::mem::zeroed();
        sa.sa_sigaction = on_usr1 as *const () as usize;
        sa.sa_flags = 0;
        assert_eq!(libc::sigaction(libc::SIGUSR1, &sa, std::ptr::null_mut()), 0);

        // Query must transparently report the app handler, not the
        // wrapper.
        let mut q: libc::sigaction = std::mem::zeroed();
        assert_eq!(libc::sigaction(libc::SIGUSR1, std::ptr::null(), &mut q), 0);
        assert_eq!(q.sa_sigaction, on_usr1 as *const () as usize);

        for _ in 0..5 {
            libc::raise(libc::SIGUSR1);
        }
    }
    assert_eq!(HANDLER_RAN.load(Ordering::SeqCst), 5);
    let pre = active.stats().signals_wrapped;
    assert!(pre >= 5, "wrapped {pre}");
    // After the deliveries new syscall sites still get discovered.
    assert_interposed(&format!("{base}, after the signals"));

    // The raise() syscalls themselves were observed.
    assert!(SEEN_KILL.load(Ordering::SeqCst) >= 1);
    active
}

/// An `execve` emulated inside the `SIGSYS` handler (`sud` always)
/// must not hand the new image the handler's signal mask: `SigBlk` bit
/// 30 (`SIGSYS`) is application-visible, and fatal to an image that is
/// itself interposed. `lazypoline` (the `execve` runs from the
/// dispatcher, outside any handler) is the control.
fn exec_sigmask_under(base: &str) {
    let mut active = install(base, Box::new(interpose::PassthroughHandler));
    let out = Command::new("/bin/grep")
        .args(["SigBlk", "/proc/self/status"])
        .output()
        .expect("spawn grep");
    active.detach();
    let text = String::from_utf8_lossy(&out.stdout);
    let mask = text
        .split_whitespace()
        .nth(1)
        .and_then(|hex| u64::from_str_radix(hex, 16).ok())
        .unwrap_or_else(|| panic!("no SigBlk line: {out:?}"));
    assert_eq!(
        mask & (1 << (libc::SIGSYS - 1)),
        0,
        "{base}: the exec'd image starts with SIGSYS blocked ({text})"
    );
}

fn scenario_exec_sigmask_sud() {
    exec_sigmask_under("sud");
}

fn scenario_exec_sigmask_lazypoline() {
    exec_sigmask_under("lazypoline");
}

/// An `rt_sigprocmask` emulated inside the `SIGSYS` handler (`sud`
/// always) must edit and report the application's mask, not the
/// handler's (which has `SIGSYS` blocked and is discarded by
/// `sigreturn`). `lazypoline` (the call runs from the dispatcher) is
/// the control.
fn sigprocmask_under(base: &str) {
    static DELIVERED: AtomicU64 = AtomicU64::new(0);
    extern "C" fn on_usr2(_sig: libc::c_int) {
        DELIVERED.fetch_add(1, Ordering::SeqCst);
    }
    extern "C" {
        fn sigaddset(set: *mut libc::sigset_t, sig: libc::c_int) -> libc::c_int;
        fn sigpending(set: *mut libc::sigset_t) -> libc::c_int;
    }

    let mut active = install(base, Box::new(interpose::PassthroughHandler));
    unsafe {
        let mut sa: libc::sigaction = std::mem::zeroed();
        sa.sa_sigaction = on_usr2 as *const () as usize;
        assert_eq!(libc::sigaction(libc::SIGUSR2, &sa, std::ptr::null_mut()), 0);

        let mut usr2: libc::sigset_t = std::mem::zeroed();
        libc::sigemptyset(&mut usr2);
        sigaddset(&mut usr2, libc::SIGUSR2);
        assert_eq!(libc::pthread_sigmask(libc::SIG_BLOCK, &usr2, std::ptr::null_mut()), 0);

        // The block sticks: the signal stays pending.
        libc::raise(libc::SIGUSR2);
        assert_eq!(DELIVERED.load(Ordering::SeqCst), 0, "{base}: delivered while blocked");
        let mut pending: libc::sigset_t = std::mem::zeroed();
        assert_eq!(sigpending(&mut pending), 0);
        assert_eq!(libc::sigismember(&pending, libc::SIGUSR2), 1, "{base}: not pending");

        // A query reads the application's mask: exactly {SIGUSR2}.
        let mut old: libc::sigset_t = std::mem::zeroed();
        assert_eq!(libc::pthread_sigmask(libc::SIG_BLOCK, std::ptr::null(), &mut old), 0);
        let blocked: Vec<i32> = (1..=64).filter(|&s| libc::sigismember(&old, s) == 1).collect();
        assert_eq!(blocked, [libc::SIGUSR2], "{base}: oldset");

        assert_eq!(libc::pthread_sigmask(libc::SIG_UNBLOCK, &usr2, std::ptr::null_mut()), 0);
        assert_eq!(DELIVERED.load(Ordering::SeqCst), 1, "{base}: unblocking delivers once");
    }
    active.detach();
}

fn scenario_sigprocmask_sud() {
    sigprocmask_under("sud");
}

fn scenario_sigprocmask_lazypoline() {
    sigprocmask_under("lazypoline");
}

fn scenario_threads() {
    let counter = CountHandler::new();
    let mut active = install("lazypoline", Box::new(counter.clone()));

    // Threads created *after* enrollment are enrolled via the clone
    // shim (paper §IV-B(a)).
    let handles: Vec<_> = (0..4)
        .map(|i| {
            std::thread::spawn(move || {
                let p = std::env::temp_dir().join(format!("lp-thread-{i}-{}", std::process::id()));
                for _ in 0..25 {
                    std::fs::write(&p, b"x").unwrap();
                    let _ = std::fs::read(&p).unwrap();
                }
                std::fs::remove_file(&p).unwrap();
                std::process::id()
            })
        })
        .collect();
    for h in handles {
        assert_eq!(h.join().unwrap(), std::process::id());
    }
    active.detach();
    // 4 threads × 25 writes must all have been observed.
    assert!(
        counter.count(syscalls::nr::WRITE) >= 100,
        "writes observed: {}",
        counter.count(syscalls::nr::WRITE)
    );
    assert!(counter.count(syscalls::nr::UNLINK) + counter.count(syscalls::nr::UNLINKAT) >= 4);
}

fn scenario_fork() {
    let mut active = install("lazypoline", Box::new(interpose::PassthroughHandler));
    unsafe {
        let pid = libc::fork();
        assert!(pid >= 0);
        if pid == 0 {
            // Child: still interposed (re-enrolled); do some work.
            let before = lazypoline::stats().dispatches;
            let _ = std::fs::metadata("/tmp");
            let after = lazypoline::stats().dispatches;
            libc::_exit(if after > before { 33 } else { 1 });
        }
        let mut status = 0;
        libc::waitpid(pid, &mut status, 0);
        assert!(libc::WIFEXITED(status));
        assert_eq!(libc::WEXITSTATUS(status), 33, "child was not interposed");
    }
    active.detach();
}

fn scenario_sud_only() {
    // lazy_rewriting = false: a pure SUD interposer. Everything still
    // works, nothing is patched.
    let mut active = install("sud", Box::new(interpose::PassthroughHandler));
    let resumed = resumes();
    let tmp = std::env::temp_dir().join(format!("lp-sudonly-{}", std::process::id()));
    std::fs::write(&tmp, b"pure sud").unwrap();
    assert_eq!(std::fs::read(&tmp).unwrap(), b"pure sud");
    std::fs::remove_file(&tmp).unwrap();
    active.detach();
    // Every trip emulates, and returns through the kernel.
    assert_eq!(resumes(), resumed, "resumes");
    let stats = active.stats();
    assert_eq!(stats.sites_patched, 0, "{stats:?}");
    // Disabled rewriting is a *configuration* state, counted apart from
    // genuine patch failures.
    assert!(stats.disabled_mode_emulations >= 5, "{stats:?}");
    assert_eq!(stats.unpatchable_emulations, 0, "{stats:?}");
    assert!(stats.slow_path_hits >= 5, "{stats:?}");
}

/// A handler interested in `openat` alone, which it counts: under it
/// every other syscall is an interest miss.
struct OpenatOnly;

static OPENATS_HANDLED: AtomicU64 = AtomicU64::new(0);

impl SyscallHandler for OpenatOnly {
    fn handle(&self, _ev: &mut SyscallEvent) -> Action {
        OPENATS_HANDLED.fetch_add(1, Ordering::SeqCst);
        Action::Passthrough
    }

    fn interest(&self) -> interpose::InterestSet {
        interpose::InterestSet::of(&[syscalls::nr::OPENAT])
    }
}

// ——— xstate: the register canary ———————————————————————————————————

/// Everything one execution of [`lp_xstate_cell`] is given and observes.
/// The routine addresses the fields through `offset_of!`.
#[repr(C, align(64))]
struct XstateCell {
    /// An all-zero XSAVE image: `xrstor64` from it with RFBM = 1 puts
    /// x87 in its initial configuration and clears `XINUSE[0]`.
    zero_image: [u8; 576],
    /// `fxsave64` just before and just after the syscall.
    fx_before: [u8; 512],
    fx_after: [u8; 512],
    vec_in: [[u8; 32]; 16],
    vec_out: [[u8; 32]; 16],
    /// rbx rbp rdi rsi rdx r8 r9 r10 r12 r13 r14 r15.
    gpr_in: [u64; 12],
    /// rax, then the twelve above.
    gpr_out: [u64; 13],
    rsp_before: u64,
    rsp_after: u64,
    /// `xgetbv(1)`.
    inuse_before: u32,
    inuse_after: u32,
    mxcsr_in: u32,
    mxcsr_caller: u32,
    /// `zmm3` in full, when `zmm_live`: bits 255:0 are `vec_in[3]`.
    zmm_in: [u8; 64],
    zmm_out: [u8; 64],
    /// `k1`, when `zmm_live`.
    k_in: u16,
    k_out: u16,
    /// The red zone below the slot `call rax` pushes into, lowest
    /// address first: `[rsp - 128, rsp - 8)` at the syscall.
    red_in: [u64; 15],
    red_out: [u64; 15],
    /// What of the CPU the routine may use: AVX instructions,
    /// `xgetbv` with `ecx = 1`.
    avx: u32,
    xgetbv1: u32,
    /// Entry state: 0 = `ymm` uppers clean, `xmm0-15` hold the low
    /// halves of `vec_in`; 1 = `ymm0-15` hold `vec_in`.
    uppers_live: u32,
    /// Entry state: `zmm3` holds `zmm_in` (AVX-512F, with `uppers_live`).
    zmm_live: u32,
    /// Entry state: 0 = x87 initial; 1 = `fcw_in` and two values on the
    /// stack; 2 = `fcw_in` alone; 3 = a value pushed and popped (stack
    /// empty, control and status words as initial, but FIP and a data
    /// register are not).
    x87_mode: u32,
    fcw_in: u16,
}

// One interposed `getpid` with every register in a known state.
// Position-independent and self-contained, so that a copy on a fresh
// page is a fresh syscall site. SysV: rdi = &mut XstateCell.
std::arch::global_asm!(
    r#"
    .text
    .globl lp_xstate_cell
    .globl lp_xstate_cell_end
    .type lp_xstate_cell, @function
lp_xstate_cell:
    push rbp
    push rbx
    push r12
    push r13
    push r14
    push r15
    push rdi                      # [rsp] = cell, across the syscall
    mov r12, rdi
    stmxcsr dword ptr [r12 + {mxcsr_caller}]
    ldmxcsr dword ptr [r12 + {mxcsr_in}]
    mov eax, 1
    xor edx, edx
    xrstor64 [r12 + {zero_image}]
    cmp dword ptr [r12 + {x87_mode}], 0
    je 1f
    cmp dword ptr [r12 + {x87_mode}], 3
    je 6f
    fldcw word ptr [r12 + {fcw_in}]
    cmp dword ptr [r12 + {x87_mode}], 2
    je 1f
    fld1
    fldpi
    jmp 1f
6:
    fld1
    fstp st(0)
1:
    cmp dword ptr [r12 + {avx}], 0
    je 7f
    vzeroupper
7:
    cmp dword ptr [r12 + {uppers_live}], 0
    jne 2f
    .irp i,0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15
    movups xmm\i, xmmword ptr [r12 + {vec_in} + 32*\i]
    .endr
    jmp 3f
2:
    .irp i,0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15
    vmovdqu ymm\i, ymmword ptr [r12 + {vec_in} + 32*\i]
    .endr
    cmp dword ptr [r12 + {zmm_live}], 0
    je 3f
    vmovdqu64 zmm3, zmmword ptr [r12 + {zmm_in}]
    kmovw k1, word ptr [r12 + {k_in}]
3:
    fxsave64 [r12 + {fx_before}]
    cmp dword ptr [r12 + {xgetbv1}], 0
    je 8f
    mov ecx, 1
    xgetbv
    mov dword ptr [r12 + {inuse_before}], eax
8:
    mov qword ptr [r12 + {rsp_before}], rsp
    .irp k,0,1,2,3,4,5,6,7,8,9,10,11,12,13,14
    mov rax, qword ptr [r12 + {red_in} + 8*\k]
    mov qword ptr [rsp - 128 + 8*\k], rax
    .endr
    mov rbx, qword ptr [r12 + {gpr_in} + 0]
    mov rbp, qword ptr [r12 + {gpr_in} + 8]
    mov rdi, qword ptr [r12 + {gpr_in} + 16]
    mov rsi, qword ptr [r12 + {gpr_in} + 24]
    mov rdx, qword ptr [r12 + {gpr_in} + 32]
    mov r8, qword ptr [r12 + {gpr_in} + 40]
    mov r9, qword ptr [r12 + {gpr_in} + 48]
    mov r10, qword ptr [r12 + {gpr_in} + 56]
    mov r13, qword ptr [r12 + {gpr_in} + 72]
    mov r14, qword ptr [r12 + {gpr_in} + 80]
    mov r15, qword ptr [r12 + {gpr_in} + 88]
    mov r12, qword ptr [r12 + {gpr_in} + 64]
    mov eax, 39                   # getpid
    syscall
    # The red zone first, with the two registers a syscall leaves
    # undefined: the pushes below overwrite it.
    mov rcx, qword ptr [rsp]
    .irp k,0,1,2,3,4,5,6,7,8,9,10,11,12,13,14
    mov r11, qword ptr [rsp - 128 + 8*\k]
    mov qword ptr [rcx + {red_out} + 8*\k], r11
    .endr
    push r15
    push r14
    push r13
    push r12
    push r10
    push r9
    push r8
    push rdx
    push rsi
    push rdi
    push rbp
    push rbx
    push rax
    mov r12, qword ptr [rsp + 104]
    lea rax, [rsp + 104]
    mov qword ptr [r12 + {rsp_after}], rax
    cmp dword ptr [r12 + {xgetbv1}], 0
    je 9f
    mov ecx, 1
    xgetbv
    mov dword ptr [r12 + {inuse_after}], eax
9:
    fxsave64 [r12 + {fx_after}]
    cmp dword ptr [r12 + {avx}], 0
    jne 4f
    .irp i,0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15
    movups xmmword ptr [r12 + {vec_out} + 32*\i], xmm\i
    .endr
    jmp 5f
4:
    # Stores: clean uppers read as zero and stay clean.
    .irp i,0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15
    vmovdqu ymmword ptr [r12 + {vec_out} + 32*\i], ymm\i
    .endr
    cmp dword ptr [r12 + {zmm_live}], 0
    je 5f
    vmovdqu64 zmmword ptr [r12 + {zmm_out}], zmm3
    kmovw word ptr [r12 + {k_out}], k1
5:
    mov rsi, rsp
    lea rdi, [r12 + {gpr_out}]
    mov ecx, 13
    rep movsq
    # Hand the thread back to Rust as Rust expects it.
    mov eax, 1
    xor edx, edx
    xrstor64 [r12 + {zero_image}]
    cmp dword ptr [r12 + {avx}], 0
    je 12f
    vzeroupper
12:
    ldmxcsr dword ptr [r12 + {mxcsr_caller}]
    add rsp, 112
    pop r15
    pop r14
    pop r13
    pop r12
    pop rbx
    pop rbp
    ret
lp_xstate_cell_end:
    .size lp_xstate_cell, . - lp_xstate_cell
"#,
    zero_image = const std::mem::offset_of!(XstateCell, zero_image),
    fx_before = const std::mem::offset_of!(XstateCell, fx_before),
    fx_after = const std::mem::offset_of!(XstateCell, fx_after),
    vec_in = const std::mem::offset_of!(XstateCell, vec_in),
    vec_out = const std::mem::offset_of!(XstateCell, vec_out),
    gpr_in = const std::mem::offset_of!(XstateCell, gpr_in),
    gpr_out = const std::mem::offset_of!(XstateCell, gpr_out),
    rsp_before = const std::mem::offset_of!(XstateCell, rsp_before),
    rsp_after = const std::mem::offset_of!(XstateCell, rsp_after),
    inuse_before = const std::mem::offset_of!(XstateCell, inuse_before),
    inuse_after = const std::mem::offset_of!(XstateCell, inuse_after),
    mxcsr_in = const std::mem::offset_of!(XstateCell, mxcsr_in),
    mxcsr_caller = const std::mem::offset_of!(XstateCell, mxcsr_caller),
    zmm_in = const std::mem::offset_of!(XstateCell, zmm_in),
    zmm_out = const std::mem::offset_of!(XstateCell, zmm_out),
    k_in = const std::mem::offset_of!(XstateCell, k_in),
    k_out = const std::mem::offset_of!(XstateCell, k_out),
    red_in = const std::mem::offset_of!(XstateCell, red_in),
    red_out = const std::mem::offset_of!(XstateCell, red_out),
    avx = const std::mem::offset_of!(XstateCell, avx),
    xgetbv1 = const std::mem::offset_of!(XstateCell, xgetbv1),
    uppers_live = const std::mem::offset_of!(XstateCell, uppers_live),
    zmm_live = const std::mem::offset_of!(XstateCell, zmm_live),
    x87_mode = const std::mem::offset_of!(XstateCell, x87_mode),
    fcw_in = const std::mem::offset_of!(XstateCell, fcw_in),
);

extern "C" {
    fn lp_xstate_cell(cell: *mut XstateCell);
    static lp_xstate_cell_end: u8;
}

type XstateCellFn = unsafe extern "C" fn(*mut XstateCell);

/// A copy of [`lp_xstate_cell`] on a page of its own: a syscall site
/// nothing has executed yet.
unsafe fn fresh_xstate_cell_site() -> XstateCellFn {
    let start = lp_xstate_cell as *const () as *const u8;
    let len = (&raw const lp_xstate_cell_end).offset_from(start);
    let code = std::slice::from_raw_parts(start, len as usize);
    assert!(code.len() <= 4096);
    let page = ret_filled_rwx_page();
    std::ptr::copy_nonoverlapping(code.as_ptr(), page, code.len());
    std::mem::transmute::<*mut u8, XstateCellFn>(page)
}

/// The byte every vector register holds after [`XstateClobber`] ran.
const XSTATE_JUNK: u8 = 0xa5;

/// How [`XstateClobber`] writes the vector registers.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Clobber {
    /// Not at all: the handler only passes through.
    Nothing = 0,
    /// `xmm0-15` with legacy SSE: what a baseline x86-64 build does.
    Sse = 1,
    /// `ymm0-15` with VEX, uppers left dirty.
    Avx = 2,
}

static XSTATE_CLOBBER: AtomicU64 = AtomicU64::new(Clobber::Nothing as u64);

/// Whether the stack behind the stub declares `leaves_fp_env` (and
/// clobbers nothing). Its cells then carry a sticky exception flag in the
/// application's MXCSR, check x87 and MXCSR under every mask — the
/// declaration is all that keeps them where no mask does — and live `ymm`
/// uppers under `Sse` and `X87` too, which the declared exit must not
/// `vzeroupper`; and every full-path exit must be the declared one.
static XSTATE_DECLARED: AtomicBool = AtomicBool::new(false);

/// A handler nobody vetted: on `getpid` it overwrites the vector
/// registers as [`XSTATE_CLOBBER`] says, pushes a value on the x87
/// stack, drops FCW to single precision and MXCSR to round-to-zero —
/// then passes through.
struct XstateClobber;

impl SyscallHandler for XstateClobber {
    fn handle(&self, ev: &mut SyscallEvent) -> Action {
        static JUNK: [u8; 32] = [XSTATE_JUNK; 32];
        static SINGLE_PRECISION: u16 = 0x007f;
        static ROUND_TO_ZERO: u32 = 0x7f80;
        let clobber = XSTATE_CLOBBER.load(Ordering::Relaxed);
        if ev.call.nr == syscalls::nr::GETPID && clobber != Clobber::Nothing as u64 {
            // Deliberately breaks the rules for Rust inline asm (x87
            // stack, FCW and MXCSR are not put back): that is the
            // handler being modelled, and nothing up to the stub's exit
            // does floating-point arithmetic.
            unsafe {
                std::arch::asm!(
                    "cmp {clobber}, 2",
                    "je 2f",
                    ".irp i,0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15",
                    "movups xmm\\i, [{junk}]",
                    ".endr",
                    "jmp 3f",
                    "2:",
                    ".irp i,0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15",
                    "vmovdqu ymm\\i, [{junk}]",
                    ".endr",
                    "3:",
                    "fld1",
                    "fldcw [{fcw}]",
                    "ldmxcsr [{mxcsr}]",
                    clobber = in(reg) clobber,
                    junk = in(reg) &JUNK,
                    fcw = in(reg) &SINGLE_PRECISION,
                    mxcsr = in(reg) &ROUND_TO_ZERO,
                    out("ymm0") _, out("ymm1") _, out("ymm2") _, out("ymm3") _,
                    out("ymm4") _, out("ymm5") _, out("ymm6") _, out("ymm7") _,
                    out("ymm8") _, out("ymm9") _, out("ymm10") _, out("ymm11") _,
                    out("ymm12") _, out("ymm13") _, out("ymm14") _, out("ymm15") _,
                    out("st(0)") _, out("st(1)") _, out("st(2)") _, out("st(3)") _,
                    out("st(4)") _, out("st(5)") _, out("st(6)") _, out("st(7)") _,
                );
            }
        }
        Action::Passthrough
    }
}

/// What of the CPU one pass over the canary uses. Without AVX the cells
/// hold and check `xmm0-15` only and the handler clobbers with legacy
/// SSE; without `xgetbv(1)` — where the stub is `xsave64`/`xrstor64` on
/// every dispatch — `XINUSE` is not read.
#[derive(Clone, Copy, Debug)]
struct Canary {
    avx: bool,
    xgetbv1: bool,
    avx512f: bool,
}

impl Canary {
    fn detected() -> Canary {
        Canary {
            avx: std::arch::is_x86_feature_detected!("avx"),
            xgetbv1: core::arch::x86_64::__cpuid_count(0xd, 1).eax & (1 << 2) != 0,
            avx512f: std::arch::is_x86_feature_detected!("avx512f"),
        }
    }

    /// The part every x86-64 host has.
    const BASELINE: Canary = Canary { avx: false, xgetbv1: false, avx512f: false };

    fn clobber(self) -> Clobber {
        if self.avx {
            Clobber::Avx
        } else {
            Clobber::Sse
        }
    }
}

/// An entry state of the canary.
#[derive(Clone, Copy, Debug)]
struct EntryState {
    name: &'static str,
    uppers_live: bool,
    /// See [`XstateCell::x87_mode`].
    x87_mode: u32,
    zmm_live: bool,
}

const fn entry_state(name: &'static str, uppers_live: bool, x87_mode: u32) -> EntryState {
    EntryState { name, uppers_live, x87_mode, zmm_live: false }
}

const XSTATE_ENTRY_STATES: [EntryState; 5] = [
    entry_state("x87 initial, uppers clean", false, 0),
    entry_state("uppers live", true, 0),
    entry_state("x87 live: two values, FCW", false, 1),
    entry_state("x87 live: FCW alone", false, 2),
    entry_state("x87 live: pushed and popped", false, 3),
];

/// AVX-512 hosts: a pattern in all of `zmm3`. No mask names
/// `ZMM_Hi256`, so neither the stub nor `xsave64` under any mask may
/// write bits 511:256 — but a VEX instruction does, so this state runs
/// under the handlers that execute none.
const XSTATE_ZMM_STATE: EntryState =
    EntryState { name: "zmm3 live", uppers_live: true, x87_mode: 0, zmm_live: true };

/// Runs one cell at `site` and checks every component `mask` names;
/// `sigsys` is whether this execution should be the site's first.
unsafe fn xstate_cell(
    site: XstateCellFn,
    canary: Canary,
    mask: mechanism::XstateMask,
    state: EntryState,
    sigsys: bool,
    what: &str,
) {
    let clobber = if XSTATE_DECLARED.load(Ordering::Relaxed) {
        Clobber::Nothing
    } else if state.zmm_live {
        Clobber::Sse
    } else {
        canary.clobber()
    };
    xstate_cell_under(site, canary, clobber, mask, state, sigsys, what)
}

/// Dispatches of the calling thread that left from the entry stub's
/// miss exit, where the build counts them.
fn stub_exits() -> Option<u64> {
    cfg!(debug_assertions).then(|| zpoline::thread_block().stub_exits())
}

/// Full-path exits of the calling thread that found the dispatcher's
/// declaration, where the build counts them.
fn declared_exits() -> Option<u64> {
    cfg!(debug_assertions).then(|| zpoline::thread_block().declared_exits())
}

unsafe fn xstate_cell_under(
    site: XstateCellFn,
    canary: Canary,
    clobber: Clobber,
    mask: mechanism::XstateMask,
    state: EntryState,
    sigsys: bool,
    what: &str,
) {
    let declared = XSTATE_DECLARED.load(Ordering::Relaxed);
    let cell = format!(
        "mask {mask:?}, {}, {what}, {clobber:?} clobbered, declared: {declared}, {canary:?}",
        state.name
    );
    // While nobody is interested in `getpid` the dispatch must leave
    // from the entry stub, and only then.
    let miss = !interpose::global_interested(syscalls::nr::GETPID);
    let pid = std::process::id() as u64;
    let mut c: Box<XstateCell> = Box::new(std::mem::zeroed());
    for (i, v) in c.vec_in.iter_mut().enumerate() {
        *v = std::array::from_fn(|b| (0x10 * i + b + 1) as u8);
    }
    c.zmm_in = std::array::from_fn(|b| if b < 32 { c.vec_in[3][b] } else { 0xc0 + b as u8 });
    c.k_in = 0xa53c;
    c.red_in = std::array::from_fn(|i| 0x0ed0_0ed0_0ed0_0ed0 + i as u64);
    c.gpr_in = std::array::from_fn(|i| 0x0101_0101_0101_0101 * (i as u64 + 1));
    // Round up: neither the default nor the handler's. Behind a declared
    // stack, with the divide-by-zero flag set, which an exit that loaded
    // any other value would drop.
    c.mxcsr_in = 0x5f80 | if declared { 0x04 } else { 0 };
    c.fcw_in = 0x0b7f; // round up, extended precision: neither the default nor the handler's
    c.avx = canary.avx as u32;
    c.xgetbv1 = canary.xgetbv1 as u32;
    c.uppers_live = state.uppers_live as u32;
    c.x87_mode = state.x87_mode;
    c.zmm_live = state.zmm_live as u32;
    assert!(canary.avx || !state.uppers_live, "{cell}");
    assert!(canary.avx512f || !state.zmm_live, "{cell}");

    XSTATE_CLOBBER.store(clobber as u64, Ordering::Relaxed);
    let slow_path_hits = lazypoline::stats().slow_path_hits;
    let (left_from_stub, declared_before) = (stub_exits(), declared_exits());
    site(&mut *c);
    let left_from_stub = stub_exits().map(|n| n - left_from_stub.expect("counted before"));
    let declared_exited = declared_exits().map(|n| n - declared_before.expect("counted before"));
    let slow_path_hits = lazypoline::stats().slow_path_hits - slow_path_hits;
    assert_eq!(slow_path_hits, sigsys as u64, "SIGSYS trips, {cell}");
    assert_eq!(left_from_stub.unwrap_or(miss as u64), miss as u64, "stub exits, {cell}");
    // A hit is one full-path dispatch (a first execution's SIGSYS resumes
    // at the rewritten site), whose exit is the declared one or not.
    let want = (declared && !miss) as u64;
    assert_eq!(declared_exited.unwrap_or(want), want, "declared exits, {cell}");

    // General-purpose registers: all but rax/rcx/r11, under every mask;
    // so the red zone below the slot `call rax` pushes into.
    assert_eq!(c.gpr_out[0], pid, "rax, {cell}");
    assert_eq!(c.gpr_out[1..], c.gpr_in, "GPRs, {cell}");
    assert_eq!(c.rsp_after, c.rsp_before, "rsp, {cell}");
    assert_eq!(c.red_out, c.red_in, "red zone, {cell}");

    // The stub's exit preserves by touching nothing, so there the mask
    // is irrelevant. (A first execution also crosses the SIGSYS handler,
    // whose sigreturn restores everything, and then the full path.)
    let untouched = miss && !sigsys;
    let rfbm = if untouched { 7 } else { mask.rfbm() };
    if canary.xgetbv1 && untouched {
        assert_eq!(c.inuse_after, c.inuse_before, "XINUSE, {cell}");
    }
    if canary.xgetbv1 {
        // The set-up took; ZMM_Hi256 (bit 6) sends the stub down its
        // xsave64 path, so it must not linger from an earlier cell.
        assert_eq!(c.inuse_before & 1, (state.x87_mode != 0) as u32, "set-up, {cell}");
        assert_eq!(c.inuse_before & 4, (state.uppers_live as u32) << 2, "set-up, {cell}");
        assert_eq!(c.inuse_before & 0x40, (state.zmm_live as u32) << 6, "set-up, {cell}");
        // The kernel marks x87 in use on every signal return. A first
        // execution that then takes the full path is normalised there;
        // one that leaves from the stub keeps the mark (same values),
        // as after any signal the application takes un-interposed.
        let x87_mark = if miss && sigsys { 0 } else { 1 };
        let named = (rfbm & (4 | x87_mark)) as u32 | 0x40;
        assert_eq!(c.inuse_after & named, c.inuse_before & named, "XINUSE, {cell}");
    }
    if rfbm & 1 != 0 || declared {
        assert_eq!(c.fx_after[..24], c.fx_before[..24], "x87 environment, {cell}");
        assert_eq!(c.fx_after[32..160], c.fx_before[32..160], "ST0-7, {cell}");
    }
    if rfbm & 2 != 0 || declared {
        assert_eq!(c.fx_after[24..28], c.fx_before[24..28], "MXCSR, {cell}");
        assert_eq!(c.fx_after[24..28], c.mxcsr_in.to_le_bytes(), "MXCSR, {cell}");
    }
    // Under `Sse` and `X87` neither the stub nor a declared stack touches
    // the uppers.
    let uppers_kept = rfbm & 4 != 0 || declared && rfbm != 0;
    for (i, (got, want)) in c.vec_out.iter().zip(&c.vec_in).enumerate() {
        if rfbm & 2 != 0 {
            assert_eq!(got[..16], want[..16], "xmm{i}, {cell}");
        }
        if uppers_kept && canary.avx {
            let uppers = if state.uppers_live { want[16..].to_vec() } else { vec![0; 16] };
            assert_eq!(got[16..], uppers, "ymm{i} upper half, {cell}");
        }
    }
    if state.zmm_live {
        assert_eq!(c.zmm_out[32..], c.zmm_in[32..], "zmm3 bits 511:256, {cell}");
        assert_eq!(c.k_out, c.k_in, "k1, {cell}");
    }
    if rfbm == 0 {
        // Nothing is preserved, so the handler must show: xmm15 is not
        // a register the dispatcher's own code has a use for.
        match clobber {
            Clobber::Nothing => {}
            Clobber::Sse => assert_eq!(c.vec_out[15][..16], [XSTATE_JUNK; 16], "xmm15 under None, {cell}"),
            Clobber::Avx => assert_eq!(c.vec_out[15], [XSTATE_JUNK; 32], "ymm15 under None, {cell}"),
        }
    }
}

fn xinuse() -> u32 {
    let eax: u32;
    unsafe { std::arch::asm!("xgetbv", in("ecx") 1, out("eax") eax, out("edx") _) };
    eax
}

fn scenario_xstate() {
    xstate_canary("lazypoline", Box::new(XstateClobber));
}

/// The canary behind stacks that declare `leaves_fp_env`, whose hits
/// take the stub's declared exit.
fn scenario_xstate_declared() {
    XSTATE_DECLARED.store(true, Ordering::Relaxed);
    xstate_canary("lazypoline", Box::new(interpose::PassthroughHandler));
}

fn scenario_xstate_declared_record() {
    XSTATE_DECLARED.store(true, Ordering::Relaxed);
    xstate_canary("lazypoline+record", Box::new(interpose::PassthroughHandler));
}

fn xstate_canary(name: &str, handler: Box<dyn SyscallHandler>) {
    use mechanism::XstateMask;
    let detected = Canary::detected();
    if !(detected.avx && detected.xgetbv1) {
        println!("xstate: {detected:?}, running the baseline cells only");
    }
    let mut active = install(name, handler);

    // mask × entry state × {first execution: SIGSYS, then the stub;
    // the same site again: the stub alone} — with what every x86-64 host
    // has, then with what this one has.
    let mut rewritten = None;
    for canary in [Canary::BASELINE, detected] {
        for mask in [XstateMask::None, XstateMask::X87, XstateMask::Sse, XstateMask::Avx] {
            assert!(active.set_xstate(mask), "lazypoline is engine-backed");
            for state in XSTATE_ENTRY_STATES {
                if state.uppers_live && !canary.avx {
                    continue;
                }
                unsafe {
                    let site = fresh_xstate_cell_site();
                    xstate_cell(site, canary, mask, state, true, "fresh site");
                    xstate_cell(site, canary, mask, state, false, "rewritten site");
                    rewritten = Some(site);
                }
            }
            if canary.avx512f {
                // A declared stack clobbers nothing.
                let clobbers = if XSTATE_DECLARED.load(Ordering::Relaxed) { 1 } else { 2 };
                for clobber in [Clobber::Nothing, Clobber::Sse].into_iter().take(clobbers) {
                    unsafe {
                        let site = fresh_xstate_cell_site();
                        xstate_cell_under(site, canary, clobber, mask, XSTATE_ZMM_STATE, true, "fresh site");
                        xstate_cell_under(site, canary, clobber, mask, XSTATE_ZMM_STATE, false, "rewritten site");
                    }
                }
            }
        }
    }
    // The remaining cells reuse the last site; the mask stays `Avx`.
    let site = rewritten.expect("cells ran");
    let states = XSTATE_ENTRY_STATES
        .into_iter()
        .filter(|s| detected.avx || !s.uppers_live)
        .chain(detected.avx512f.then_some(XSTATE_ZMM_STATE));

    // The same canary while nobody is interested in `getpid`: the
    // dispatch leaves from the entry stub, which preserves by touching
    // nothing — under every mask, `None` included.
    {
        let _narrow = interpose::install_handler(Box::new(OpenatOnly));
        for mask in [XstateMask::None, XstateMask::Avx] {
            assert!(active.set_xstate(mask), "lazypoline is engine-backed");
            for state in states.clone() {
                unsafe {
                    let fresh = fresh_xstate_cell_site();
                    let nothing = Clobber::Nothing;
                    xstate_cell_under(fresh, detected, nothing, mask, state, true, "missed, fresh site");
                    xstate_cell_under(fresh, detected, nothing, mask, state, false, "missed, rewritten site");
                }
            }
        }
    }

    // An application signal delivered in application code: the kernel's
    // sigreturn marks x87 in use (its values initial), and the thread
    // resumes with the mark. Its next full-path dispatch takes the stub's
    // `xsave64` case, whose normaliser hands the thread back with the
    // mark cleared — and the dispatches after it hold.
    static READY: AtomicU64 = AtomicU64::new(0);
    static HANDLED: AtomicU64 = AtomicU64::new(0);
    extern "C" fn on_usr1(_sig: libc::c_int) {
        HANDLED.store(1, Ordering::SeqCst);
    }
    extern "C" {
        fn pthread_self() -> usize;
        fn pthread_kill(thread: usize, sig: libc::c_int) -> libc::c_int;
    }
    let ppid = std::os::unix::process::parent_id() as u64;
    unsafe {
        let mut sa: libc::sigaction = std::mem::zeroed();
        sa.sa_sigaction = on_usr1 as *const () as usize;
        assert_eq!(libc::sigaction(libc::SIGUSR1, &sa, std::ptr::null_mut()), 0);
        let main_thread = pthread_self();
        let killer = std::thread::spawn(move || {
            while READY.load(Ordering::SeqCst) == 0 {
                std::hint::spin_loop();
            }
            assert_eq!(pthread_kill(main_thread, libc::SIGUSR1), 0);
        });
        if detected.xgetbv1 {
            assert_eq!(xinuse() & 1, 0, "x87 marked in use before the signal");
        }
        READY.store(1, Ordering::SeqCst);
        while HANDLED.load(Ordering::SeqCst) == 0 {
            std::hint::spin_loop(); // no syscall: the signal lands here
        }
        assert_eq!(std::os::unix::process::parent_id() as u64, ppid, "the dispatch after the signal");
        if detected.xgetbv1 {
            assert_eq!(xinuse() & 1, 0, "the dispatch after the signal left x87 marked in use");
        }
        for state in states.clone() {
            xstate_cell(site, detected, XstateMask::Avx, state, false, "after SIGUSR1");
        }
        killer.join().expect("killer thread");
        assert!(active.stats().signals_wrapped >= 1);
    }

    // A fork child's first dispatches.
    unsafe {
        let pid = libc::fork();
        assert!(pid >= 0);
        if pid == 0 {
            for state in states {
                xstate_cell(site, detected, XstateMask::Avx, state, false, "fork child");
            }
            libc::_exit(33);
        }
        let mut status = 0;
        libc::waitpid(pid, &mut status, 0);
        assert!(libc::WIFEXITED(status));
        assert_eq!(libc::WEXITSTATUS(status), 33, "canary failed in the fork child");
    }
    assert_interposed("after the xstate cells");
    active.detach();
    assert!(active.stats().sites_patched >= 1);
}

// ——— the slow path's resume ————————————————————————————————————————

/// Everything one execution of [`lp_resume_cell`] is given and observes.
/// The routine addresses the fields through `offset_of!`.
#[repr(C, align(64))]
struct ResumeCell {
    /// `zmm16-31`, when `avx512`.
    zmm_in: [[u8; 64]; 16],
    zmm_out: [[u8; 64]; 16],
    /// r8 … r15, rdi, rsi, rbp, rbx, rdx, rax, rcx: the order a signal
    /// frame's `gregs` keep them in. `rax` in is the syscall's number.
    gpr_in: [u64; 15],
    gpr_out: [u64; 15],
    flags_in: u64,
    flags_out: u64,
    rsp_before: u64,
    rsp_after: u64,
    /// `k0-7`, when `avx512`.
    k_in: [u16; 8],
    k_out: [u16; 8],
    /// `xmm0-15`.
    xmm_in: [[u8; 16]; 16],
    xmm_out: [[u8; 16]; 16],
    /// PKRU, when `pku`; the caller's is put back.
    pkru_in: u32,
    pkru_out: u32,
    pkru_caller: u32,
    mxcsr_in: u32,
    mxcsr_out: u32,
    mxcsr_caller: u32,
    fcw_in: u16,
    fcw_out: u16,
    fcw_caller: u16,
    avx512: u32,
    pku: u32,
}

// One interposed syscall with every register the kernel preserves in a
// known state. Position-independent and self-contained, so that a copy
// on a fresh page is a fresh syscall site. SysV: rdi = &mut ResumeCell.
std::arch::global_asm!(
    r#"
    .text
    .globl lp_resume_cell
    .globl lp_resume_cell_end
    .type lp_resume_cell, @function
lp_resume_cell:
    push rbp
    push rbx
    push r12
    push r13
    push r14
    push r15
    push rdi                      # [rsp] = cell, across the syscall
    mov r12, rdi
    fnstcw word ptr [r12 + {fcw_caller}]
    stmxcsr dword ptr [r12 + {mxcsr_caller}]
    fldcw word ptr [r12 + {fcw_in}]
    ldmxcsr dword ptr [r12 + {mxcsr_in}]
    cmp dword ptr [r12 + {avx512}], 0
    je 1f
    .irp i,16,17,18,19,20,21,22,23,24,25,26,27,28,29,30,31
    vmovdqu64 zmm\i, zmmword ptr [r12 + {zmm_in} + 64*(\i-16)]
    .endr
    .irp i,0,1,2,3,4,5,6,7
    kmovw k\i, word ptr [r12 + {k_in} + 2*\i]
    .endr
1:
    .irp i,0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15
    movdqu xmm\i, xmmword ptr [r12 + {xmm_in} + 16*\i]
    .endr
    cmp dword ptr [r12 + {pku}], 0
    je 2f
    xor ecx, ecx
    rdpkru
    mov dword ptr [r12 + {pkru_caller}], eax
    mov eax, dword ptr [r12 + {pkru_in}]
    xor ecx, ecx
    xor edx, edx
    wrpkru
2:
    mov qword ptr [r12 + {rsp_before}], rsp
    push qword ptr [r12 + {flags_in}]
    mov r8, qword ptr [r12 + {gpr_in} + 0]
    mov r9, qword ptr [r12 + {gpr_in} + 8]
    mov r10, qword ptr [r12 + {gpr_in} + 16]
    mov r11, qword ptr [r12 + {gpr_in} + 24]
    mov r13, qword ptr [r12 + {gpr_in} + 40]
    mov r14, qword ptr [r12 + {gpr_in} + 48]
    mov r15, qword ptr [r12 + {gpr_in} + 56]
    mov rdi, qword ptr [r12 + {gpr_in} + 64]
    mov rsi, qword ptr [r12 + {gpr_in} + 72]
    mov rbp, qword ptr [r12 + {gpr_in} + 80]
    mov rbx, qword ptr [r12 + {gpr_in} + 88]
    mov rdx, qword ptr [r12 + {gpr_in} + 96]
    mov rax, qword ptr [r12 + {gpr_in} + 104]
    mov rcx, qword ptr [r12 + {gpr_in} + 112]
    popfq
    mov r12, qword ptr [r12 + {gpr_in} + 32]
    syscall
    pushfq
    push rcx
    push rax
    push rdx
    push rbx
    push rbp
    push rsi
    push rdi
    push r15
    push r14
    push r13
    push r12
    push r11
    push r10
    push r9
    push r8
    mov r12, qword ptr [rsp + 128]
    lea rax, [rsp + 128]
    mov qword ptr [r12 + {rsp_after}], rax
    .irp k,0,1,2,3,4,5,6,7,8,9,10,11,12,13,14
    mov rax, qword ptr [rsp + 8*\k]
    mov qword ptr [r12 + {gpr_out} + 8*\k], rax
    .endr
    mov rax, qword ptr [rsp + 120]
    mov qword ptr [r12 + {flags_out}], rax
    fnstcw word ptr [r12 + {fcw_out}]
    stmxcsr dword ptr [r12 + {mxcsr_out}]
    .irp i,0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15
    movdqu xmmword ptr [r12 + {xmm_out} + 16*\i], xmm\i
    .endr
    cmp dword ptr [r12 + {avx512}], 0
    je 3f
    .irp i,16,17,18,19,20,21,22,23,24,25,26,27,28,29,30,31
    vmovdqu64 zmmword ptr [r12 + {zmm_out} + 64*(\i-16)], zmm\i
    .endr
    .irp i,0,1,2,3,4,5,6,7
    kmovw word ptr [r12 + {k_out} + 2*\i], k\i
    .endr
3:
    cmp dword ptr [r12 + {pku}], 0
    je 4f
    xor ecx, ecx
    rdpkru
    mov dword ptr [r12 + {pkru_out}], eax
    mov eax, dword ptr [r12 + {pkru_caller}]
    xor ecx, ecx
    xor edx, edx
    wrpkru
4:
    # Hand the thread back to Rust as Rust expects it.
    fnclex
    fldcw word ptr [r12 + {fcw_caller}]
    ldmxcsr dword ptr [r12 + {mxcsr_caller}]
    add rsp, 136
    pop r15
    pop r14
    pop r13
    pop r12
    pop rbx
    pop rbp
    ret
lp_resume_cell_end:
    .size lp_resume_cell, . - lp_resume_cell
"#,
    zmm_in = const std::mem::offset_of!(ResumeCell, zmm_in),
    zmm_out = const std::mem::offset_of!(ResumeCell, zmm_out),
    gpr_in = const std::mem::offset_of!(ResumeCell, gpr_in),
    gpr_out = const std::mem::offset_of!(ResumeCell, gpr_out),
    flags_in = const std::mem::offset_of!(ResumeCell, flags_in),
    flags_out = const std::mem::offset_of!(ResumeCell, flags_out),
    rsp_before = const std::mem::offset_of!(ResumeCell, rsp_before),
    rsp_after = const std::mem::offset_of!(ResumeCell, rsp_after),
    k_in = const std::mem::offset_of!(ResumeCell, k_in),
    k_out = const std::mem::offset_of!(ResumeCell, k_out),
    xmm_in = const std::mem::offset_of!(ResumeCell, xmm_in),
    xmm_out = const std::mem::offset_of!(ResumeCell, xmm_out),
    pkru_in = const std::mem::offset_of!(ResumeCell, pkru_in),
    pkru_out = const std::mem::offset_of!(ResumeCell, pkru_out),
    pkru_caller = const std::mem::offset_of!(ResumeCell, pkru_caller),
    mxcsr_in = const std::mem::offset_of!(ResumeCell, mxcsr_in),
    mxcsr_out = const std::mem::offset_of!(ResumeCell, mxcsr_out),
    mxcsr_caller = const std::mem::offset_of!(ResumeCell, mxcsr_caller),
    fcw_in = const std::mem::offset_of!(ResumeCell, fcw_in),
    fcw_out = const std::mem::offset_of!(ResumeCell, fcw_out),
    fcw_caller = const std::mem::offset_of!(ResumeCell, fcw_caller),
    avx512 = const std::mem::offset_of!(ResumeCell, avx512),
    pku = const std::mem::offset_of!(ResumeCell, pku),
);

extern "C" {
    fn lp_resume_cell(cell: *mut ResumeCell);
    static lp_resume_cell_end: u8;
}

type ResumeCellFn = unsafe extern "C" fn(*mut ResumeCell);

/// A copy of [`lp_resume_cell`] on a page of its own: a syscall site
/// nothing has executed yet.
unsafe fn fresh_resume_cell_site() -> ResumeCellFn {
    let start = lp_resume_cell as *const () as *const u8;
    let len = (&raw const lp_resume_cell_end).offset_from(start);
    let page = ret_filled_rwx_page();
    std::ptr::copy_nonoverlapping(start, page, len as usize);
    std::mem::transmute::<*mut u8, ResumeCellFn>(page)
}

/// Signal frames the calling thread's SIGSYS handler put back in user
/// space, where the build counts them.
fn resumes() -> Option<u64> {
    cfg!(debug_assertions).then(|| zpoline::thread_block().resumes())
}

/// The flags a cell enters its syscall with: CF, PF, ZF, SF and OF set,
/// and ID, which no instruction of the interposer writes.
const RESUME_FLAGS_IN: u64 = 0x0020_0000 | 0x0800 | 0x80 | 0x40 | 0x04 | 0x01 | 0x202;

/// Runs one cell at `site`; `sigsys` is whether this execution should
/// be the site's first, and so the one the slow path resumes.
///
/// `zmm16-31` and `k0-7` are checked only when the syscall is a miss:
/// a hit's dispatcher may use them (glibc's EVEX string functions
/// write `ymm16` and up), and no mask names them (DESIGN.md §2), so
/// there they are not the resume's to answer for.
unsafe fn resume_cell(site: ResumeCellFn, row: &str, sigsys: bool) {
    let mut c = loaded_resume_cell();
    let (avx512, pku) = (c.avx512 != 0, c.pku != 0);
    let miss = !interpose::global_interested(syscalls::nr::GETPID);
    let cell_name =
        format!("{row}, first execution: {sigsys}, miss: {miss}, avx512f: {avx512}, pku: {pku}");

    let hits = lazypoline::stats().slow_path_hits;
    let resumed = resumes();
    site(&mut *c);
    let resumed = resumes().map(|n| n - resumed.expect("counted before"));
    let hits = lazypoline::stats().slow_path_hits - hits;
    assert_eq!(hits, sigsys as u64, "SIGSYS trips, {cell_name}");
    assert_eq!(resumed.unwrap_or(sigsys as u64), sigsys as u64, "resumes, {cell_name}");

    // rax holds the result; rcx and r11 are the stub's (DESIGN.md §11),
    // every other GPR its pattern.
    assert_eq!(c.gpr_out[13], std::process::id() as u64, "rax, {cell_name}");
    for i in (0..15).filter(|&i| ![3, 13, 14].contains(&i)) {
        assert_eq!(c.gpr_out[i], c.gpr_in[i], "gregs[{i}], {cell_name}");
    }
    assert_eq!(c.rsp_after, c.rsp_before, "rsp, {cell_name}");
    // The arithmetic flags are the stub's too; ID comes back.
    assert_eq!(c.flags_out & 0x0020_0000, c.flags_in & 0x0020_0000, "ID, {cell_name}");
    assert_eq!(c.fcw_out, c.fcw_in, "x87 control word, {cell_name}");
    assert_eq!(c.mxcsr_out, c.mxcsr_in, "MXCSR, {cell_name}");
    if avx512 && miss {
        for (i, (got, want)) in c.zmm_out.iter().zip(&c.zmm_in).enumerate() {
            assert_eq!(got, want, "zmm{}, {cell_name}", i + 16);
        }
        assert_eq!(c.k_out, c.k_in, "k0-7, {cell_name}");
    }
    if pku {
        assert_eq!(c.pkru_out, c.pkru_in, "PKRU, {cell_name}");
    }
}

/// A cell whose every input register holds a pattern of its own, for
/// the host's AVX-512 and PKU.
fn loaded_resume_cell() -> Box<ResumeCell> {
    let avx512 = std::arch::is_x86_feature_detected!("avx512f");
    let pku = core::arch::x86_64::__cpuid_count(7, 0).ecx & (1 << 4) != 0; // OSPKE
    // SAFETY: every field is an integer or an array of them.
    let mut c: Box<ResumeCell> = Box::new(unsafe { std::mem::zeroed() });
    c.gpr_in = std::array::from_fn(|i| 0x0101_0101_0101_0101 * (i as u64 + 1));
    c.gpr_in[13] = syscalls::nr::GETPID;
    c.flags_in = RESUME_FLAGS_IN;
    c.fcw_in = 0x0b7f; // round up, extended precision
    c.mxcsr_in = 0x1f80 | 0x20; // the precision flag, sticky
    for (i, z) in c.zmm_in.iter_mut().enumerate() {
        *z = std::array::from_fn(|b| (0x40 * (i % 4) + b) as u8 ^ (i as u8 * 0x11));
    }
    c.k_in = std::array::from_fn(|i| (0x1111 * (i as u16 + 1)) ^ 0x8421);
    c.xmm_in = std::array::from_fn(|i| std::array::from_fn(|b| (0x10 * i + b) as u8 ^ 0xa5));
    c.pkru_in = 0;
    c.avx512 = avx512 as u32;
    c.pku = pku as u32;
    c
}

/// A fresh site's first execution takes one SIGSYS, whose handler
/// rewrites it and resumes in user space: every register the kernel
/// preserves comes back, and so it does when the site runs again. Once
/// as a hit, once while nobody is interested in `getpid` (the stub's
/// miss exit, which touches nothing).
fn resume_registers_under(row: &str) {
    let mut active = install(row, Box::new(interpose::PassthroughHandler));
    for narrow in [false, true] {
        let _narrow = narrow.then(|| interpose::install_handler(Box::new(OpenatOnly)));
        for _ in 0..3 {
            unsafe {
                let site = fresh_resume_cell_site();
                resume_cell(site, row, true);
                resume_cell(site, row, false);
            }
        }
    }
    assert_interposed("after the resume cells");
    active.detach();
}

fn scenario_resume_registers() {
    resume_registers_under("lazypoline");
}

fn scenario_resume_registers_nox() {
    resume_registers_under("lazypoline-nox");
}

fn scenario_resume_registers_hardened() {
    resume_registers_under("lazypoline-hardened");
}

// ——— the poison hook ————————————————————————————————————————————————

/// The quadword `examples/hook_poison` writes into every vector register.
const POISON: u64 = 0x4c50_504f_4953_4f4e;
/// The `MXCSR` it leaves (this host's `MXCSR_MASK` keeps every bit).
const POISON_MXCSR: u32 = 0xffbf;
/// The x87 control word it leaves.
const POISON_FCW: u16 = 0x0c7f;

/// `row` with `hook_poison` loaded, running [`lp_resume_cell`] on a
/// fresh page twice. Both executions are hits: the first one's `SIGSYS`
/// rewrites the site and resumes at it. What comes back is what the
/// row's mask preserves. Under the default mask `xmm0-15`, `MXCSR` and
/// the x87 control word survive. Under `-nox` none of the `xmm`
/// registers does, `MXCSR` and the control word read the canary, and so
/// do `xmm8-15`; the dispatch that runs after the hook's `handle` uses
/// some of the low ones itself. `zmm16-31` and `k0-7` read the canary
/// under both: no mask names them (DESIGN.md §2).
fn poison_registers_under(row: &str, preserved: bool) {
    let hook = hookabi::resolve_library("hook_poison");
    assert!(hook.is_absolute(), "build the hook cdylibs first (cargo build --release)");
    let cfg = mechanism::EnvConfig {
        hooks: hook.to_str().unwrap().into(),
        ..mechanism::EnvConfig::from_env().expect("the harness passes a valid environment")
    };
    let mut active = mechanism::by_name(row)
        .unwrap_or_else(|| panic!("unknown mechanism {row}"))
        .install_with(Box::new(interpose::PassthroughHandler), &cfg)
        .unwrap_or_else(|e| panic!("install {row}: {e}"));
    assert_eq!(active.stats().hooks_loaded, 1, "{row}");
    let canary = |n: usize| -> Vec<u8> { POISON.to_le_bytes().repeat(n) };
    // SAFETY: the site is a copy of `lp_resume_cell`, which takes a cell.
    unsafe {
        let site = fresh_resume_cell_site();
        for sigsys in [true, false] {
            let mut c = loaded_resume_cell();
            let hits = lazypoline::stats().slow_path_hits;
            site(&mut *c);
            assert_eq!(lazypoline::stats().slow_path_hits - hits, sigsys as u64, "{row}");
            let cell = format!("{row}, first execution: {sigsys}");
            assert_eq!(c.gpr_out[13], std::process::id() as u64, "rax, {cell}");
            for (i, (got, want)) in c.xmm_out.iter().zip(&c.xmm_in).enumerate() {
                assert_eq!(got == want, preserved, "xmm{i} kept, {cell}");
                if !preserved && i >= 8 {
                    assert_eq!(got.to_vec(), canary(2), "xmm{i}, {cell}");
                }
            }
            let (mxcsr, fcw) = if preserved {
                (c.mxcsr_in, c.fcw_in)
            } else {
                (POISON_MXCSR, POISON_FCW)
            };
            assert_eq!(c.mxcsr_out, mxcsr, "MXCSR, {cell}");
            assert_eq!(c.fcw_out, fcw, "x87 control word, {cell}");
            if c.avx512 != 0 {
                for (i, got) in c.zmm_out.iter().enumerate() {
                    assert_eq!(got.to_vec(), canary(8), "zmm{}, {cell}", i + 16);
                }
                assert_eq!(c.k_out, [POISON as u16; 8], "k0-7, {cell}");
            }
        }
    }
    active.detach();
}

fn scenario_poison_registers() {
    poison_registers_under("lazypoline+hooks", true);
}

fn scenario_poison_registers_nox() {
    poison_registers_under("lazypoline-nox+hooks", false);
}

// ——— the entry stub's miss exit ————————————————————————————————————

/// A syscall site of its own, `mov eax, nr; syscall; ret`, at
/// `page + 64 * slot`: the SysV argument registers of the first three
/// arguments are the syscall's, so the function takes them as they are
/// and returns the kernel's `rax`.
type SiteFn = extern "C" fn(u64, u64, u64) -> u64;

const AT_FDCWD: u64 = -100i64 as u64;

unsafe fn syscall_site(page: *mut u8, slot: usize, nr: u64) -> SiteFn {
    let mut code = [0xb8, 0, 0, 0, 0, 0x0f, 0x05, 0xc3];
    code[1..5].copy_from_slice(&(nr as u32).to_le_bytes());
    std::ptr::copy_nonoverlapping(code.as_ptr(), page.add(64 * slot), code.len());
    std::mem::transmute::<*mut u8, SiteFn>(page.add(64 * slot))
}

/// The calling thread is still interposed: a syscall from a site nothing
/// has executed before takes the slow path. (An engine thread's SUD has
/// no selector to read instead.)
fn assert_interposed(task: &str) {
    let pid = std::process::id() as u64;
    unsafe {
        let page = ret_filled_rwx_page();
        let getpid = syscall_site(page, 0, syscalls::nr::GETPID);
        let before = lazypoline::stats().slow_path_hits;
        assert_eq!(getpid(0, 0, 0), pid, "{task}: getpid from a fresh site");
        let after = lazypoline::stats().slow_path_hits;
        assert!(after > before, "{task}: a fresh site took no SIGSYS");
        libc::munmap(page.cast(), 4096);
    }
}

/// What a handler saw around a syscall of its own that it issued from
/// an already rewritten site: the call is executed under the re-entry
/// guard, and not counted as a dispatch — it is the interposer's, not
/// the application's.
#[derive(Debug, PartialEq)]
struct NestedCall {
    ret: u64,
    slow_path_hits: u64,
    dispatches: u64,
    stub_exits: Option<u64>,
}

static NESTED_SITE: AtomicU64 = AtomicU64::new(0);
static NESTED_CALLS: std::sync::Mutex<Vec<NestedCall>> = std::sync::Mutex::new(Vec::new());

/// Interested in `openat` alone, and calls `getppid` — a number it is
/// not interested in — from a rewritten site while it handles one: any
/// narrow hook that logs through libc's `write` is this handler.
struct CallsGetppid;

impl SyscallHandler for CallsGetppid {
    fn handle(&self, _ev: &mut SyscallEvent) -> Action {
        // SAFETY: the scenario stored a `SiteFn` there before installing.
        let site = unsafe { std::mem::transmute::<usize, SiteFn>(NESTED_SITE.load(Ordering::SeqCst) as usize) };
        let (before, exits) = (lazypoline::stats(), stub_exits());
        let ret = site(0, 0, 0);
        let now = lazypoline::stats();
        NESTED_CALLS.lock().unwrap().push(NestedCall {
            ret,
            slow_path_hits: now.slow_path_hits - before.slow_path_hits,
            dispatches: now.dispatches - before.dispatches,
            stub_exits: stub_exits().map(|n| n - exits.expect("counted before")),
        });
        Action::Passthrough
    }

    fn interest(&self) -> interpose::InterestSet {
        interpose::InterestSet::of(&[syscalls::nr::OPENAT])
    }
}

fn scenario_nested_miss() {
    let ppid = std::os::unix::process::parent_id() as u64;
    let (getppid, openat) = unsafe {
        let page = ret_filled_rwx_page();
        (syscall_site(page, 0, syscalls::nr::GETPPID), syscall_site(page, 1, syscalls::nr::OPENAT))
    };
    NESTED_SITE.store(getppid as usize as u64, Ordering::SeqCst);
    let mut active = install("lazypoline", Box::new(CallsGetppid));
    // First executions: one SIGSYS rewrites both sites of the page.
    assert_eq!(getppid(0, 0, 0), ppid);

    let devnull = c"/dev/null";
    let open_devnull = || {
        let fd = openat(AT_FDCWD, devnull.as_ptr() as u64, libc::O_RDONLY as u64);
        assert!((fd as i64) >= 0, "openat: {:?}", syscalls::Errno::from_ret(fd));
        unsafe { libc::close(fd as i32) };
    };
    let nested = |from_stub: bool| NestedCall {
        ret: ppid,
        slow_path_hits: 0,
        dispatches: 0,
        stub_exits: stub_exits().map(|_| from_stub as u64),
    };
    // The nested call leaves from the entry stub...
    assert!(zpoline::thread_block().armed(), "enrolment arms the block");
    open_devnull();
    // ...and, with the block disarmed, from the dispatcher's own miss
    // exit.
    zpoline::thread_block().disarm();
    open_devnull();
    // Taken out first: a failing assertion opens files for its
    // backtrace, and the handler must find the lock free.
    let calls = std::mem::take(&mut *NESTED_CALLS.lock().unwrap());
    assert_eq!(calls, [nested(true), nested(false)]);
    assert_interposed("after the nested calls");
    active.detach();
}

/// A fixed sequence over eight sites — the numbers of lpbench's mix,
/// with calls that fail among them — issued from `sites`; returns every
/// raw return value (which carries the errno) in order.
fn run_site_mix(sites: &[SiteFn; 8]) -> Vec<u64> {
    let [getpid, getppid, getuid, fstat, lseek, read, openat, close] = *sites;
    let zero = std::fs::File::open("/dev/zero").expect("/dev/zero");
    let fd = std::os::fd::AsRawFd::as_raw_fd(&zero) as u64;
    let (devnull, missing) = (c"/dev/null", c"/nonexistent/lp-miss-exit");
    let (mut statbuf, mut byte) = ([0u8; 256], [0xffu8; 1]);
    let mut out = Vec::new();
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..400 {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let path = if state & (1 << 40) == 0 { devnull } else { missing };
        match (state >> 33) % 9 {
            0 => out.push(getpid(0, 0, 0)),
            1 => out.push(getppid(0, 0, 0)),
            2 => out.push(getuid(0, 0, 0)),
            3 => out.push(fstat(fd, statbuf.as_mut_ptr() as u64, 0)),
            4 => out.push(fstat(u64::MAX, statbuf.as_mut_ptr() as u64, 0)), // EBADF
            5 => out.push(lseek(fd, 0, 1 /* SEEK_CUR */)),
            6 => out.push(lseek(fd, 0, 99)), // EINVAL
            7 => out.push(read(fd, byte.as_mut_ptr() as u64, 1)),
            _ => {
                let opened = openat(AT_FDCWD, path.as_ptr() as u64, libc::O_RDONLY as u64);
                out.push(opened);
                if (opened as i64) >= 0 {
                    out.push(close(opened, 0, 0));
                }
            }
        }
    }
    out
}

const MIX_SYSNOS: [u64; 8] = [
    syscalls::nr::GETPID,
    syscalls::nr::GETPPID,
    syscalls::nr::GETUID,
    syscalls::nr::FSTAT,
    syscalls::nr::LSEEK,
    syscalls::nr::READ,
    syscalls::nr::OPENAT,
    syscalls::nr::CLOSE,
];

unsafe fn mix_sites() -> [SiteFn; 8] {
    let page = ret_filled_rwx_page();
    std::array::from_fn(|i| syscall_site(page, i, MIX_SYSNOS[i]))
}

/// One pass of the mix under an installed mechanism, and what it took.
struct MixRun {
    rets: Vec<u64>,
    dispatches: u64,
    /// Where the build counts them.
    stub_exits: Option<u64>,
    openats_handled: u64,
}

fn counted_site_mix(sites: &[SiteFn; 8]) -> MixRun {
    let (dispatches, exits) = (lazypoline::stats().dispatches, stub_exits());
    let openats = OPENATS_HANDLED.load(Ordering::SeqCst);
    let rets = run_site_mix(sites);
    MixRun {
        rets,
        dispatches: lazypoline::stats().dispatches - dispatches,
        stub_exits: stub_exits().map(|n| n - exits.expect("counted before")),
        openats_handled: OPENATS_HANDLED.load(Ordering::SeqCst) - openats,
    }
}

/// Installs `mechanism` around [`OpenatOnly`] and runs the mix on sites
/// already rewritten: every call is dispatched exactly once and the
/// `openat`s reach the handler. Returns the run's stub exits, where the
/// build counts them, and the installation, still attached.
fn mix_under(mechanism: &str) -> (Option<u64>, mechanism::ActiveMechanism) {
    let reference = run_site_mix(&unsafe { mix_sites() });
    let active = install(mechanism, Box::new(OpenatOnly));
    let sites = unsafe { mix_sites() };
    run_site_mix(&sites);
    let run = counted_site_mix(&sites);
    assert_eq!(run.rets, reference, "{mechanism}");
    // `/dev/zero` is opened through libc on the way: at least.
    assert!(run.dispatches >= run.rets.len() as u64, "{mechanism}: {} dispatches", run.dispatches);
    assert!(run.openats_handled >= 1, "{mechanism}");
    (run.stub_exits, active)
}

fn scenario_miss_exit() {
    let reference = run_site_mix(&unsafe { mix_sites() });
    assert!(reference.iter().any(|&r| syscalls::Errno::from_ret(r).is_some()));
    let mut active = install("lazypoline", Box::new(OpenatOnly));
    let sites = unsafe { mix_sites() };
    run_site_mix(&sites); // first executions

    // Differential: the same sequence leaving from the stub and, with
    // the block disarmed, from the dispatcher's miss exit. Likewise a
    // signal landing in a blocking, missed `read`: with and without
    // SA_RESTART the call returns what it returns un-interposed, and
    // the handler's own syscalls are dispatched.
    assert!(zpoline::thread_block().armed(), "enrolment arms the block");
    let from_stub = counted_site_mix(&sites);
    let read_from_stub = signal_in_blocking_read(&sites);
    zpoline::thread_block().disarm();
    let from_rust = counted_site_mix(&sites);
    let read_from_rust = signal_in_blocking_read(&sites);
    assert_eq!(from_stub.rets, reference, "stub exit vs none");
    assert_eq!(from_rust.rets, reference, "dispatcher exit vs none");
    assert_eq!(from_stub.dispatches, from_rust.dispatches, "dispatches");
    assert_eq!(from_stub.openats_handled, from_rust.openats_handled, "openats handled");
    // One more `openat` than the mix issues: `/dev/zero`, through libc.
    let misses = reference.len() as u64 - (from_stub.openats_handled - 1);
    if let Some(exits) = from_stub.stub_exits {
        // libc's own calls around the mix (an `openat`, a `close`) may
        // add a miss or two; the mix alone is the floor.
        assert!(exits >= misses, "{exits} stub exits, {misses} misses");
        assert_eq!(from_rust.stub_exits, Some(0), "a disarmed block never leaves from the stub");
    }
    let eintr = syscalls::Errno::EINTR.as_ret();
    assert_eq!(read_from_stub, [eintr, 1], "through the stub: no SA_RESTART, SA_RESTART");
    assert_eq!(read_from_rust, [eintr, 1], "through the dispatcher");
    active.detach();
}

/// Blocks in `read` on an empty pipe from `sites`' read site, takes
/// `SIGUSR1` there — once without and once with `SA_RESTART` — and
/// returns the two results. With `SA_RESTART` the byte that ends the
/// restarted call is written only after the handler has run.
fn signal_in_blocking_read(sites: &[SiteFn; 8]) -> [u64; 2] {
    static HANDLER_SITE: AtomicU64 = AtomicU64::new(0);
    static HANDLER_DISPATCHES: AtomicU64 = AtomicU64::new(0);
    static HANDLER_RAN: AtomicU64 = AtomicU64::new(0);
    static ENTERING_READ: AtomicU64 = AtomicU64::new(0);
    extern "C" fn on_usr1(_sig: libc::c_int) {
        // SAFETY: a `SiteFn` stored below.
        let getpid = unsafe { std::mem::transmute::<usize, SiteFn>(HANDLER_SITE.load(Ordering::SeqCst) as usize) };
        let before = lazypoline::stats().dispatches;
        let pid = getpid(0, 0, 0);
        let after = lazypoline::stats().dispatches;
        HANDLER_DISPATCHES.store(after - before, Ordering::SeqCst);
        HANDLER_RAN.store(pid, Ordering::SeqCst);
    }
    let read = sites[5];
    HANDLER_SITE.store(sites[0] as usize as u64, Ordering::SeqCst);
    // The scenario runs on the main thread, whose tid is the pid. One
    // bare `tgkill`: libc's `pthread_kill` follows it with a
    // `rt_sigprocmask`, a dispatch that would race the handler's count.
    let pid = std::process::id() as u64;
    let tgkill = unsafe { syscall_site(ret_filled_rwx_page(), 0, syscalls::nr::TGKILL) };
    let blocked_in_syscall = move || {
        std::fs::read_to_string(format!("/proc/self/task/{pid}/stat"))
            .is_ok_and(|stat| stat.rsplit(')').next().is_some_and(|rest| rest.trim_start().starts_with('S')))
    };
    let mut results = [0u64; 2];
    for (i, flags) in [0, libc::SA_RESTART].into_iter().enumerate() {
        let mut fds = [0 as libc::c_int; 2];
        unsafe {
            assert_eq!(libc::pipe2(fds.as_mut_ptr(), 0), 0);
            let mut sa: libc::sigaction = std::mem::zeroed();
            sa.sa_sigaction = on_usr1 as *const () as usize;
            sa.sa_flags = flags;
            assert_eq!(libc::sigaction(libc::SIGUSR1, &sa, std::ptr::null_mut()), 0);
        }
        HANDLER_RAN.store(0, Ordering::SeqCst);
        ENTERING_READ.store(0, Ordering::SeqCst);
        let write_end = fds[1];
        let helper = std::thread::spawn(move || {
            while ENTERING_READ.load(Ordering::SeqCst) == 0 || !blocked_in_syscall() {
                std::thread::yield_now();
            }
            assert_eq!(tgkill(pid, pid, libc::SIGUSR1 as u64), 0);
            // No syscall of this thread's while the handler counts its own.
            while HANDLER_RAN.load(Ordering::SeqCst) == 0 {
                std::hint::spin_loop();
            }
            assert_eq!(unsafe { libc::write(write_end, b"x".as_ptr().cast(), 1) }, 1);
        });
        let mut byte = [0u8; 1];
        let exits = stub_exits();
        ENTERING_READ.store(1, Ordering::SeqCst);
        results[i] = read(fds[0] as u64, byte.as_mut_ptr() as u64, 1);
        let exits = stub_exits().map(|n| n - exits.expect("counted before"));
        helper.join().expect("helper thread");
        assert_interposed("after the interrupted read");
        assert_eq!(HANDLER_RAN.load(Ordering::SeqCst), pid, "the handler's getpid");
        assert_eq!(HANDLER_DISPATCHES.load(Ordering::SeqCst), 1, "the handler's getpid is dispatched");
        if let Some(exits) = exits {
            // The read and the handler's getpid; a restarted read is
            // the same stub instruction again, not a second dispatch.
            let armed = zpoline::thread_block().armed();
            assert_eq!(exits, if armed { 2 } else { 0 }, "stub exits, SA_RESTART {}", flags != 0);
        }
        unsafe {
            libc::close(fds[0]);
            libc::close(fds[1]);
        }
    }
    results
}

/// Under hardened mode the block is armed and a miss leaves from the
/// stub, whose `syscall` lies in the gate: SUD lets it through by its
/// range, the backstop by its IP.
fn scenario_miss_exit_hardened() {
    std::env::set_var("LP_HARDEN_POLICY", "quarantine");
    let (exits, mut active) = mix_under("lazypoline-hardened");
    assert!(lazypoline::harden::backstop_armed(), "backstop must arm");
    assert!(zpoline::thread_block().armed(), "enrolment arms the block");
    if let Some(exits) = exits {
        assert!(exits > 0, "no miss left from the stub");
    }
    assert_eq!(lazypoline::harden::bypass_blocked(), 0, "a dispatch tripped the backstop");
    active.detach();
}

/// While a fault site is armed a miss still leaves from the stub: no
/// seam sits between it and its `syscall`.
fn scenario_miss_exit_faults() {
    std::env::set_var("LAZYPOLINE_FAULTS", "selector_write:every=1000000");
    let (exits, mut active) = mix_under("lazypoline");
    assert!(faultinject::is_armed(faultinject::Site::SelectorWrite));
    if let Some(exits) = exits {
        assert!(exits > 0, "no miss left from the stub");
    }
    active.detach();
}

/// `getpid` from the gate's own `syscall` (`zpoline::gate_syscall`).
fn gate_getpid() -> u64 {
    // SAFETY: getpid touches no memory.
    unsafe { zpoline::gate_syscall(&syscalls::SyscallArgs::nullary(syscalls::nr::GETPID)) }
}

/// On the calling task: the gate's syscall passes SUD untrapped, and a
/// fresh JIT-page site still takes its SIGSYS and is rewritten.
fn assert_gate_range(task: &str) {
    let pid = unsafe { libc::getpid() } as u64;
    let before = lazypoline::stats().slow_path_hits;
    assert_eq!(gate_getpid(), pid, "{task}: getpid from the gate");
    assert_eq!(
        lazypoline::stats().slow_path_hits,
        before,
        "{task}: the gate trapped"
    );

    unsafe {
        let page = ret_filled_rwx_page();
        let getpid = syscall_site(page, 0, syscalls::nr::GETPID);
        let before = lazypoline::stats().slow_path_hits;
        assert_eq!(getpid(0, 0, 0), pid, "{task}: getpid from a JIT page");
        assert_eq!(
            lazypoline::stats().slow_path_hits,
            before + 1,
            "{task}: the JIT site's SIGSYS"
        );
        assert_eq!(
            *page.add(5).cast::<[u8; 2]>(),
            [0xff, 0xd0],
            "{task}: the JIT site"
        );
        libc::munmap(page.cast(), 4096);
    }
}

/// Every enrolment of a plain engine arms SUD with the gate as its
/// allowed range: the main thread, a `pthread_create`d thread, a fork
/// child.
fn scenario_gate_range() {
    let mut active = install("lazypoline", Box::new(interpose::PassthroughHandler));
    assert_gate_range("main thread");
    // A first thread proves the sites a spawn and a join run, so the
    // main thread's join takes no SIGSYS while the second one counts.
    std::thread::spawn(|| ()).join().unwrap();
    std::thread::spawn(|| assert_gate_range("thread"))
        .join()
        .unwrap();
    unsafe {
        let pid = libc::fork();
        assert!(pid >= 0);
        if pid == 0 {
            let ok = std::panic::catch_unwind(|| assert_gate_range("fork child")).is_ok();
            libc::_exit(if ok { 0 } else { 1 });
        }
        let mut status = 0;
        assert_eq!(libc::waitpid(pid, &mut status, 0), pid);
        assert_eq!(status, 0, "fork child");
    }
    active.detach();
}

/// A hardened engine arms SUD with the gate too, so the gate's syscall
/// passes both layers unseen: SUD by the range, the backstop by the IP.
/// This pins a residue DESIGN.md §6 states; a change that closes it has
/// to flip these assertions.
fn scenario_gate_range_hardened() {
    std::env::set_var("LP_HARDEN_POLICY", "quarantine");
    let _active = install(
        "lazypoline-hardened",
        Box::new(interpose::PassthroughHandler),
    );
    assert!(lazypoline::harden::backstop_armed(), "backstop must arm");
    let before = lazypoline::stats();
    assert_gate_range("hardened main thread");
    let after = lazypoline::stats();
    assert_eq!(after.bypass_blocked, before.bypass_blocked, "the backstop saw the gate");
    assert_eq!(after.unpatchable_emulations, before.unpatchable_emulations);
    for site in [
        zpoline::trampoline::lp_zpoline_gate_syscall as *const () as usize,
        zpoline::sigreturn_restorer() + 5,
    ] {
        assert_eq!(unsafe { *(site as *const [u8; 2]) }, [0x0f, 0x05], "the gate was rewritten");
    }
}

// ——— interposed from enrolment to teardown ——————————————————————————

static SC_FRESH: AtomicU64 = AtomicU64::new(0);
static SC_FRESH_RET: AtomicU64 = AtomicU64::new(0);
static SC_RAISE: AtomicU64 = AtomicU64::new(0);
static SC_PPIDS_SEEN: AtomicU64 = AtomicU64::new(0);
static SC_PIDS_SEEN: AtomicU64 = AtomicU64::new(0);
static SC_USR1: AtomicU64 = AtomicU64::new(0);

/// Interested in `getuid`, the trigger, and in `getppid` and `getpid`,
/// which it counts. On `getuid` it — once each, when asked — calls a
/// fresh site of its own and raises `SIGUSR1`.
struct Trigger;

impl SyscallHandler for Trigger {
    fn handle(&self, ev: &mut SyscallEvent) -> Action {
        match ev.call.nr {
            syscalls::nr::GETPPID => {
                SC_PPIDS_SEEN.fetch_add(1, Ordering::SeqCst);
            }
            syscalls::nr::GETPID => {
                SC_PIDS_SEEN.fetch_add(1, Ordering::SeqCst);
            }
            syscalls::nr::GETUID => {
                let fresh = SC_FRESH.swap(0, Ordering::SeqCst);
                if fresh != 0 {
                    // SAFETY: a `SiteFn` the task stored.
                    let site = unsafe { std::mem::transmute::<usize, SiteFn>(fresh as usize) };
                    SC_FRESH_RET.store(site(0, 0, 0), Ordering::SeqCst);
                }
                if SC_RAISE.swap(0, Ordering::SeqCst) != 0 {
                    unsafe { libc::raise(libc::SIGUSR1) };
                }
            }
            _ => {}
        }
        Action::Passthrough
    }

    fn interest(&self) -> interpose::InterestSet {
        interpose::InterestSet::of(&[syscalls::nr::GETUID, syscalls::nr::GETPPID, syscalls::nr::GETPID])
    }
}

/// The application's `SIGUSR1` handler: its `getpid` must reach the
/// handler although the signal landed inside one.
extern "C" fn sc_on_usr1(_sig: libc::c_int) {
    let before = SC_PIDS_SEEN.load(Ordering::SeqCst);
    let pid = unsafe { libc::getpid() } as u32;
    let seen = SC_PIDS_SEEN.load(Ordering::SeqCst) - before;
    SC_USR1.store(if pid == std::process::id() && seen == 1 { 1 } else { 2 }, Ordering::SeqCst);
}

/// The four checks on the calling task, each from a JIT page of its own
/// (`sud_row`: every trigger is emulated in the SIGSYS handler).
fn assert_interposed_throughout(task: &str, sud_row: bool) {
    // SAFETY: getuid touches no memory.
    let uid = unsafe { syscalls::raw::syscall0(syscalls::nr::GETUID) };
    let ppid = std::os::unix::process::parent_id() as u64;
    unsafe {
        let getuid = syscall_site(ret_filled_rwx_page(), 0, syscalls::nr::GETUID);
        assert_eq!(getuid(0, 0, 0), uid, "{task}: first execution");
        let dispatches = lazypoline::stats().dispatches;
        for _ in 0..10_000 {
            assert_eq!(getuid(0, 0, 0), uid);
        }
        if !sud_row {
            assert!(lazypoline::stats().dispatches >= dispatches + 10_000, "{task}: dispatches");
        }

        // A handler's own call from a site never executed before: it
        // traps (nested in the SIGSYS handler under the `sud` row), and
        // is executed — raw result, no second notification.
        let fresh = syscall_site(ret_filled_rwx_page(), 0, syscalls::nr::GETPPID);
        SC_FRESH.store(fresh as usize as u64, Ordering::SeqCst);
        let (seen, slow) = (SC_PPIDS_SEEN.load(Ordering::SeqCst), lazypoline::stats().slow_path_hits);
        assert_eq!(getuid(0, 0, 0), uid);
        assert_eq!(SC_FRESH.load(Ordering::SeqCst), 0, "{task}: handle() ran");
        assert_eq!(SC_FRESH_RET.load(Ordering::SeqCst), ppid, "{task}: the handler's own getppid");
        assert_eq!(SC_PPIDS_SEEN.load(Ordering::SeqCst), seen, "{task}: the handler saw its own call");
        let trapped = lazypoline::stats().slow_path_hits - slow;
        assert!(trapped > sud_row as u64, "{task}: {trapped} SIGSYS, the fresh site's missing");
        // The same site, called by the application: dispatched.
        assert_eq!(fresh(0, 0, 0), ppid);
        assert_eq!(SC_PPIDS_SEEN.load(Ordering::SeqCst), seen + 1, "{task}: the application's getppid");

        // A wrapped signal raised inside handle(): the application's
        // handler runs interposed.
        SC_USR1.store(0, Ordering::SeqCst);
        SC_RAISE.store(1, Ordering::SeqCst);
        assert_eq!(getuid(0, 0, 0), uid);
        assert_eq!(SC_USR1.load(Ordering::SeqCst), 1, "{task}: SIGUSR1 inside handle()");
    }
    assert_interposed(task);
}

/// Installs `base` around [`Trigger`] and runs the checks on the main
/// thread, a spawned thread and a fork child; returns the installation,
/// still attached.
fn interposed_throughout_under(base: &str) -> mechanism::ActiveMechanism {
    let active = install(base, Box::new(Trigger));
    unsafe {
        let mut sa: libc::sigaction = std::mem::zeroed();
        sa.sa_sigaction = sc_on_usr1 as *const () as usize;
        assert_eq!(libc::sigaction(libc::SIGUSR1, &sa, std::ptr::null_mut()), 0);
    }
    assert_interposed_throughout(&format!("{base}, main thread"), false);
    let task = format!("{base}, thread");
    std::thread::spawn(move || assert_interposed_throughout(&task, false)).join().unwrap();
    unsafe {
        let pid = libc::fork();
        assert!(pid >= 0);
        if pid == 0 {
            let task = format!("{base}, fork child");
            let ok = std::panic::catch_unwind(|| assert_interposed_throughout(&task, false)).is_ok();
            libc::_exit(if ok { 0 } else { 1 });
        }
        let mut status = 0;
        assert_eq!(libc::waitpid(pid, &mut status, 0), pid);
        assert_eq!(status, 0, "{base}: fork child");
    }
    active
}

/// An enrolled thread stays interposed from enrolment to teardown:
/// across 10 000 dispatches, a handler's own call from a fresh site and
/// a signal raised in a handler — under `lazypoline`, and under `sud`,
/// where the handler runs inside the SIGSYS handler.
fn scenario_interposed_throughout() {
    interposed_throughout_under("lazypoline").detach();
    let mut active = install("sud", Box::new(Trigger));
    assert_interposed_throughout("sud, main thread", true);
    active.detach();
}

/// The same under `lazypoline-hardened`: no dispatch trips the backstop.
fn scenario_interposed_throughout_hardened() {
    let mut active = interposed_throughout_under("lazypoline-hardened");
    assert!(lazypoline::harden::backstop_armed(), "backstop must arm");
    assert_eq!(lazypoline::harden::bypass_blocked(), 0, "a dispatch tripped the backstop");
    active.detach();
}

fn scenario_rewrite_stress() {
    // Many threads hammering overlapping syscall sites: the rewrite
    // spinlock and already-patched race handling must hold up.
    let mut active = install("lazypoline", Box::new(interpose::PassthroughHandler));
    let handles: Vec<_> = (0..8)
        .map(|i| {
            std::thread::spawn(move || {
                for j in 0..50 {
                    let p = std::env::temp_dir()
                        .join(format!("lp-stress-{i}-{}", std::process::id()));
                    std::fs::write(&p, format!("{j}")).unwrap();
                    let s = std::fs::read_to_string(&p).unwrap();
                    assert_eq!(s, format!("{j}"));
                    std::fs::remove_file(&p).unwrap();
                    let _ = std::fs::metadata("/tmp");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    active.detach();
    let stats = active.stats();
    assert!(stats.dispatches >= 1000, "{stats:?}");
}

fn scenario_policy_native() {
    let policy = PolicyBuilder::allow_by_default()
        .deny(syscalls::nr::SOCKET)
        .build();
    let mut active = install("lazypoline", Box::new(policy));
    let denied = std::net::TcpStream::connect("127.0.0.1:1").is_err();
    let allowed = std::fs::metadata("/tmp").is_ok();
    active.detach();
    assert!(denied && allowed);
}

fn scenario_post_rewrite() {
    // The post hook can rewrite results — here getpid is shifted by 7.
    struct Shift;
    impl SyscallHandler for Shift {
        fn handle(&self, _ev: &mut SyscallEvent) -> Action {
            Action::Passthrough
        }
        fn post(&self, ev: &SyscallEvent, ret: u64) -> u64 {
            if ev.call.nr == syscalls::nr::GETPID {
                ret + 7
            } else {
                ret
            }
        }
    }
    // Reference taken *before* interposition: once a site is patched
    // it keeps dispatching even after unenroll (one-way by design), so
    // a post-unenroll getpid would be rewritten too.
    let real = std::process::id() as u64;
    let mut active = install("lazypoline", Box::new(Shift));
    let seen = unsafe { libc::getpid() } as u64;
    active.detach();
    assert_eq!(seen, real + 7, "post hook did not rewrite the result");
}

/// A handler that rewrites what a hit executes, in the three ways the
/// dispatcher tells apart by the *decided* call: into a number the
/// engine emulates, into another plain number, and in its arguments.
fn hit_rewrite_body() {
    static MODE: AtomicU64 = AtomicU64::new(0);
    static BLOCK_SIGSYS_AND_USR1: u64 = 1 << (libc::SIGSYS - 1) | 1 << (libc::SIGUSR1 - 1);
    static PIPE_WRITE_FD: AtomicU64 = AtomicU64::new(0);
    struct Rewriter;
    impl SyscallHandler for Rewriter {
        fn handle(&self, ev: &mut SyscallEvent) -> Action {
            match (MODE.load(Ordering::Relaxed), ev.call.nr) {
                // getpid becomes rt_sigprocmask(SIG_BLOCK, {SIGSYS, SIGUSR1}).
                (1, syscalls::nr::GETPID) => {
                    let set = &BLOCK_SIGSYS_AND_USR1 as *const u64 as u64;
                    ev.call = syscalls::SyscallArgs::new(
                        syscalls::nr::RT_SIGPROCMASK,
                        [libc::SIG_BLOCK as u64, set, 0, 8, 0, 0],
                    );
                }
                (2, syscalls::nr::GETPID) => ev.call.nr = syscalls::nr::GETPPID,
                // A write to fd -1 goes to the pipe instead.
                (3, syscalls::nr::WRITE) if ev.call.args[0] as i32 == -1 => {
                    ev.call.args[0] = PIPE_WRITE_FD.load(Ordering::Relaxed);
                }
                _ => {}
            }
            Action::Passthrough
        }
    }

    let mut fds = [0 as libc::c_int; 2];
    assert_eq!(unsafe { libc::pipe2(fds.as_mut_ptr(), 0) }, 0);
    PIPE_WRITE_FD.store(fds[1] as u64, Ordering::Relaxed);
    let real_pid = std::process::id() as u64;
    let getppid = syscalls::SyscallArgs::nullary(syscalls::nr::GETPPID);
    let real_ppid = unsafe { syscalls::raw::syscall(getppid) };

    let mut active = install("lazypoline", Box::new(Rewriter));
    unsafe {
        // First execution rewrites libc's site; from here on it is a hit.
        assert_eq!(libc::getpid() as u64, real_pid);
        let hits_before = active.stats().dispatches;

        // The decided number is one the engine emulates: the fast-out
        // must not issue it raw because the *original* one was plain.
        MODE.store(1, Ordering::Relaxed);
        assert_eq!(libc::getpid(), 0, "rt_sigprocmask's result");
        MODE.store(0, Ordering::Relaxed);
        let mut cur: libc::sigset_t = std::mem::zeroed();
        libc::pthread_sigmask(libc::SIG_BLOCK, std::ptr::null(), &mut cur);
        assert_eq!(libc::sigismember(&cur, libc::SIGUSR1), 1, "the rewritten call ran");
        assert_eq!(libc::sigismember(&cur, libc::SIGSYS), 0, "without the engine's emulation");
        // SIGSYS is still deliverable: a brand-new site is discovered.
        let slow_before = lazypoline::stats().slow_path_hits;
        let pid: u64;
        std::arch::asm!(
            "mov eax, 39",
            "syscall",
            out("rax") pid,
            out("rcx") _, out("r11") _,
        );
        assert_eq!(pid, real_pid);
        assert!(lazypoline::stats().slow_path_hits > slow_before);

        // Another plain number: issued from the event, not the frame.
        MODE.store(2, Ordering::Relaxed);
        assert_eq!(libc::getpid() as u64, real_ppid);

        // Rewritten arguments are the ones executed.
        MODE.store(3, Ordering::Relaxed);
        let msg = b"through the pipe";
        assert_eq!(libc::write(-1, msg.as_ptr().cast(), msg.len()), msg.len() as isize);
        MODE.store(0, Ordering::Relaxed);
        let mut back = [0u8; 32];
        let n = libc::read(fds[0], back.as_mut_ptr().cast(), back.len());
        assert_eq!(&back[..n as usize], msg);

        assert!(active.stats().dispatches >= hits_before + 5);
    }
    active.detach();
    assert_eq!(active.stats().quarantined_handlers, 0);
}

fn scenario_hit_rewrite() {
    hit_rewrite_body();
    assert_eq!(faultinject::total_injected(), 0);
}

/// Again with every selector store dropped: the engine writes no
/// selector — not on a hit, not at enrolment or teardown — so the seam
/// never fires.
fn scenario_hit_rewrite_faults() {
    std::env::set_var("LAZYPOLINE_FAULTS", "selector_write:every=1");
    hit_rewrite_body();
    assert!(faultinject::is_armed(faultinject::Site::SelectorWrite));
    assert_eq!(faultinject::injected(faultinject::Site::SelectorWrite), 0);
}

fn scenario_latency_histogram() {
    let h: &'static interpose::LatencyHandler =
        Box::leak(Box::new(interpose::LatencyHandler::new()));
    struct Fwd(&'static interpose::LatencyHandler);
    impl SyscallHandler for Fwd {
        fn handle(&self, ev: &mut SyscallEvent) -> Action {
            self.0.handle(ev)
        }
        fn post(&self, ev: &SyscallEvent, ret: u64) -> u64 {
            self.0.post(ev, ret)
        }
    }
    let mut active = install("lazypoline", Box::new(Fwd(h)));
    for _ in 0..200 {
        let _ = std::fs::metadata("/tmp");
    }
    active.detach();
    assert!(h.samples() >= 200, "samples {}", h.samples());
    let median = h.approx_median().unwrap();
    assert!(median > 16, "implausible syscall latency {median}");
}

fn scenario_sigprocmask_guard() {
    // An application blocking "all" signals must not be able to stall
    // interposition: the dispatcher strips SIGSYS from every mask.
    let mut active = install("lazypoline", Box::new(interpose::PassthroughHandler));
    unsafe {
        let mut all: libc::sigset_t = std::mem::zeroed();
        libc::sigfillset(&mut all);
        assert_eq!(
            libc::pthread_sigmask(libc::SIG_BLOCK, &all, std::ptr::null_mut()),
            0
        );
        // A brand-new syscall site (distinct asm) must still be
        // discovered through SIGSYS even though the app asked for a
        // full block.
        let before = lazypoline::stats().slow_path_hits;
        let pid: u64;
        std::arch::asm!(
            "mov eax, 39",
            "syscall",
            out("rax") pid,
            out("rcx") _, out("r11") _,
            in("rdi") 0u64, in("rsi") 0u64, in("rdx") 0u64,
            in("r10") 0u64, in("r8") 0u64, in("r9") 0u64,
        );
        let after = lazypoline::stats().slow_path_hits;
        assert_eq!(pid, std::process::id() as u64);
        assert!(after > before, "slow path stalled by sigprocmask");
        // And SIGSYS is indeed not blocked in the resulting mask.
        let mut cur: libc::sigset_t = std::mem::zeroed();
        libc::pthread_sigmask(libc::SIG_BLOCK, std::ptr::null(), &mut cur);
        assert_eq!(libc::sigismember(&cur, libc::SIGSYS), 0);
        assert_eq!(libc::sigismember(&cur, libc::SIGUSR2), 1);
        let mut none: libc::sigset_t = std::mem::zeroed();
        libc::sigemptyset(&mut none);
        libc::pthread_sigmask(libc::SIG_SETMASK, &none, std::ptr::null_mut());
    }
    active.detach();
}

fn scenario_nested_signals() {
    static OUTER: AtomicU64 = AtomicU64::new(0);
    static INNER: AtomicU64 = AtomicU64::new(0);

    extern "C" fn on_usr2(_sig: libc::c_int) {
        INNER.fetch_add(1, Ordering::SeqCst);
        let _ = std::fs::metadata("/proc/self/status");
    }
    extern "C" fn on_usr1(_sig: libc::c_int) {
        OUTER.fetch_add(1, Ordering::SeqCst);
        unsafe { libc::raise(libc::SIGUSR2) };
        // More interposed work after the nested delivery returned.
        let _ = std::fs::metadata("/proc/self");
    }

    let mut active = install("lazypoline", Box::new(interpose::PassthroughHandler));
    unsafe {
        let mut sa: libc::sigaction = std::mem::zeroed();
        sa.sa_sigaction = on_usr1 as *const () as usize;
        libc::sigaction(libc::SIGUSR1, &sa, std::ptr::null_mut());
        let mut sa2: libc::sigaction = std::mem::zeroed();
        sa2.sa_sigaction = on_usr2 as *const () as usize;
        libc::sigaction(libc::SIGUSR2, &sa2, std::ptr::null_mut());
        for _ in 0..3 {
            libc::raise(libc::SIGUSR1);
        }
    }
    assert_eq!(OUTER.load(Ordering::SeqCst), 3);
    assert_eq!(INNER.load(Ordering::SeqCst), 3);
    assert_interposed("after the nested signals");
    let wrapped = lazypoline::stats().signals_wrapped;
    assert!(wrapped >= 6, "wrapped {wrapped}");
    active.detach();
    // Still fully functional afterwards.
    assert!(std::fs::metadata("/tmp").is_ok());
}

fn scenario_path_remap() {
    // Deep pointer inspection + rewriting: redirect a well-known path
    // to a file we control — the expressiveness seccomp-bpf cannot
    // provide (paper §II-A: "does not allow … dereferencing pointers").
    let decoy = std::env::temp_dir().join(format!("lp-decoy-{}", std::process::id()));
    std::fs::write(&decoy, b"remapped contents\n").unwrap();
    let remap = interpose::PathRemapHandler::new()
        .rule("/etc/hostname", decoy.to_str().unwrap());
    let mut active = install("lazypoline", Box::new(remap));
    let seen = std::fs::read_to_string("/etc/hostname").unwrap();
    let untouched = std::fs::read_to_string("/proc/self/comm").unwrap();
    active.detach();
    std::fs::remove_file(&decoy).unwrap();
    assert_eq!(seen, "remapped contents\n", "open was not redirected");
    assert!(!untouched.is_empty(), "unrelated opens broke");
}

/// One freshly mapped RWX page of `ret`: room for code that must be a
/// syscall site nothing has executed yet, and a linear sweep of the
/// page stays synchronized past it.
unsafe fn ret_filled_rwx_page() -> *mut u8 {
    let page = libc::mmap(
        std::ptr::null_mut(),
        4096,
        libc::PROT_READ | libc::PROT_WRITE | libc::PROT_EXEC,
        libc::MAP_PRIVATE | libc::MAP_ANONYMOUS,
        -1,
        0,
    );
    assert_ne!(page, libc::MAP_FAILED);
    std::ptr::write_bytes(page as *mut u8, 0xc3, 4096);
    page as *mut u8
}

/// Emits `count` tiny JIT functions (`mov eax, GETPID; syscall; ret`)
/// at 64-byte intervals on one freshly mapped RWX page, padding with
/// `ret` so a linear sweep of the page stays synchronized. Returns the
/// page base.
unsafe fn emit_getpid_page(count: usize) -> *mut u8 {
    emit_getpid_page_filled(count, &[0xc3])
}

/// [`emit_getpid_page`] with the gaps between the functions filled by
/// cycling through `fill`, a list of one-byte instructions.
unsafe fn emit_getpid_page_filled(count: usize, fill: &[u8]) -> *mut u8 {
    assert!(count * 64 <= 4096);
    let p = ret_filled_rwx_page();
    for (i, &byte) in (0..4096).zip(fill.iter().cycle()) {
        p.add(i).write(byte);
    }
    for i in 0..count {
        syscall_site(p, i, syscalls::nr::GETPID);
    }
    p
}

const JIT_SITES: usize = 8;

fn scenario_batch_rewrite() {
    // Multi-site workload, batching on (the default): the FIRST site's
    // SIGSYS must patch every site on the page, so the remaining calls
    // all enter through the fast path. Once per one-byte fill the
    // slow path's walk steps over: `ret`, `int3`, `nop`, and a mix of
    // `push`/`pop` and `clc`..`std`.
    const FILLS: [&[u8]; 4] = [
        &[0xc3],
        &[0xcc],
        &[0x90],
        &[
            0x50, 0x51, 0x52, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59, 0x5a, 0x5b, 0x5c, 0x5d,
            0x5e, 0x5f, 0xf8, 0xf9, 0xfa, 0xfb, 0xfc, 0xfd,
        ],
    ];
    let mut active = install("lazypoline", Box::new(interpose::PassthroughHandler));
    for fill in FILLS {
        unsafe {
            let p = emit_getpid_page_filled(JIT_SITES, fill);
            // Resolve the expected pid *before* the measurement window:
            // libc's own getpid syscall site would otherwise contribute
            // its SIGSYS to the counters being asserted on.
            let pid = std::process::id() as u64;
            let before = lazypoline::stats();
            for i in 0..JIT_SITES {
                let f: extern "C" fn() -> u64 = std::mem::transmute(p.add(i * 64));
                assert_eq!(f(), pid, "fill {fill:02x?}, site {i}");
            }
            let after = lazypoline::stats();
            let slow = after.slow_path_hits - before.slow_path_hits;
            let patched = after.sites_patched - before.sites_patched;
            // One SIGSYS patched the whole page; every subsequent site was
            // already `call rax` when first executed.
            assert_eq!(
                slow, 1,
                "fill {fill:02x?}: batch did not amortize SIGSYS: {after:?}"
            );
            assert!(
                patched >= JIT_SITES as u64,
                "fill {fill:02x?}: page not swept: {after:?}"
            );
            for i in 0..JIT_SITES {
                let site = std::slice::from_raw_parts(p.add(i * 64 + 5), 2);
                assert_eq!(site, [0xff, 0xd0], "fill {fill:02x?}, site {i}");
            }
            libc::munmap(p as *mut _, 4096);
        }
    }
    active.detach();
}

fn scenario_batch_ablation() {
    // Same workload with batch_rewriting off: every site pays its own
    // SIGSYS — the baseline batch rewriting is measured against.
    let mut active = install("lazypoline-nobatch", Box::new(interpose::PassthroughHandler));
    unsafe {
        let p = emit_getpid_page(JIT_SITES);
        // Keep libc's getpid site out of the measurement window (see
        // scenario_batch_rewrite).
        let pid = std::process::id() as u64;
        let before = lazypoline::stats();
        for i in 0..JIT_SITES {
            let f: extern "C" fn() -> u64 = std::mem::transmute(p.add(i * 64));
            assert_eq!(f(), pid, "site {i}");
        }
        let after = lazypoline::stats();
        let slow = after.slow_path_hits - before.slow_path_hits;
        assert_eq!(
            slow, JIT_SITES as u64,
            "expected one SIGSYS per site without batching: {after:?}"
        );
        libc::munmap(p as *mut _, 4096);
    }
    active.detach();
}

// ——— robustness scenarios (fault injection / degradation) ———————————

/// One interposable `getpid` through inline asm — a single, distinct
/// syscall site owned by this test (`#[inline(never)]` keeps it one
/// site however often it is called).
#[inline(never)]
fn asm_getpid() -> u64 {
    let ret: u64;
    unsafe {
        std::arch::asm!(
            "mov eax, 39",
            "syscall",
            out("rax") ret,
            out("rcx") _, out("r11") _,
            in("rdi") 0u64, in("rsi") 0u64, in("rdx") 0u64,
            in("r10") 0u64, in("r8") 0u64, in("r9") 0u64,
        );
    }
    ret
}

fn scenario_fault_sud_only() {
    // The trampoline install fails (injected) → the engine must degrade
    // to Mode::SudOnly and still observe every syscall.
    let counter = CountHandler::new();
    interpose::set_global_handler(Box::new(counter.clone()));
    faultinject::arm(
        faultinject::Site::TrampolineInstall,
        faultinject::Schedule::FirstK(1),
        None,
    );
    let engine = lazypoline::init(Config::default()).expect("init must degrade, not fail");
    assert_eq!(lazypoline::mode(), lazypoline::Mode::SudOnly);
    assert!(engine.is_enrolled());

    let pid = std::process::id() as u64;
    for i in 0..20 {
        assert_eq!(asm_getpid(), pid, "call {i}");
    }
    let tmp = std::env::temp_dir().join(format!("lp-fsud-{}", std::process::id()));
    std::fs::write(&tmp, b"degraded but alive").unwrap();
    assert_eq!(std::fs::read(&tmp).unwrap(), b"degraded but alive");
    std::fs::remove_file(&tmp).unwrap();

    engine.unenroll_current_thread();
    let (h, s) = (lazypoline::health(), lazypoline::stats());
    assert_eq!(h.mode, lazypoline::Mode::SudOnly);
    assert!(h.faults_injected >= 1, "{h:?}");
    assert_eq!(s.sites_patched, 0, "SudOnly must never rewrite: {s:?}");
    assert!(s.disabled_mode_emulations >= 20, "{s:?}");
    assert!(
        counter.count(syscalls::nr::GETPID) >= 20,
        "lost interpositions in SudOnly: {}",
        counter.count(syscalls::nr::GETPID)
    );
    faultinject::disarm_all();
}

fn scenario_fault_unpatchable_page() {
    // A page whose mprotect persistently fails (injected): bounded
    // retry, then blocklist; the syscall itself must still succeed via
    // emulation, and the site's bytes stay untouched.
    interpose::set_global_handler(Box::new(interpose::PassthroughHandler));
    // An RWX page, which the patcher opens no mprotect window on: the
    // seam stands in for the mprotect all the same. (Looked up before
    // init, while the lookup's raw syscalls are nobody's business.)
    let p = unsafe { emit_getpid_page(2) };
    let perms = zpoline::patcher::region_perms(p as usize).expect("mapped");
    assert!(perms.read && perms.write && perms.exec, "{perms:?}");
    let engine = lazypoline::init(Config::default()).expect("init");
    unsafe {
        let pid = std::process::id() as u64;
        let f0: extern "C" fn() -> u64 = std::mem::transmute(p);
        let f1: extern "C" fn() -> u64 = std::mem::transmute(p.add(64));
        // Warm the snapshot path so the armed window below performs no
        // syscalls besides the JIT sites under test.
        let _ = (lazypoline::health(), lazypoline::stats());

        faultinject::arm(
            faultinject::Site::PatchMprotect,
            faultinject::Schedule::EveryNth(1),
            None, // default EAGAIN: transient, so the retry loop engages
        );
        let before = (lazypoline::health(), lazypoline::stats());
        let resumed = resumes();
        let r0 = f0();
        let mid = (lazypoline::health(), lazypoline::stats());
        let mut rs = [0u64; 5];
        for r in rs.iter_mut() {
            *r = f0();
        }
        let after = (lazypoline::health(), lazypoline::stats());
        let resumed = resumes().map(|n| n - resumed.expect("counted before"));
        faultinject::disarm(faultinject::Site::PatchMprotect);

        // (Asserting only now: format!/panic machinery may syscall.)
        assert_eq!(r0, pid, "emulation returned the wrong result");
        // Emulations return through the kernel, never the resume.
        assert_eq!(resumed.unwrap_or(0), 0, "resumes");
        for (i, r) in rs.iter().enumerate() {
            assert_eq!(*r, pid, "blocklisted call {i}");
        }
        // Exactly one retry burst: initial attempt + PATCH_RETRY_LIMIT
        // retries, then the page was blocklisted.
        assert_eq!(mid.1.patch_retries - before.1.patch_retries, 3, "{mid:?}");
        assert_eq!(
            mid.1.pages_blocklisted - before.1.pages_blocklisted,
            1,
            "{mid:?}"
        );
        assert_eq!(
            mid.1.unpatchable_emulations - before.1.unpatchable_emulations,
            1
        );
        assert_eq!(mid.0.faults_injected - before.0.faults_injected, 4);
        // The five follow-up trips short-circuited on the blocklist: no
        // further patch attempts, no further retries.
        assert_eq!(after.1.patch_retries, mid.1.patch_retries, "{after:?}");
        assert_eq!(after.0.faults_injected, mid.0.faults_injected, "{after:?}");
        assert_eq!(
            after.1.unpatchable_emulations - mid.1.unpatchable_emulations,
            5
        );
        assert_eq!(after.1.pages_blocklisted, mid.1.pages_blocklisted);
        // The site's bytes were never rewritten.
        assert_eq!(*p.add(5), 0x0f, "syscall opcode gone");
        assert_eq!(*p.add(6), 0x05, "syscall opcode gone");

        // Even disarmed, the other site on the same page goes straight
        // to emulation via the blocklist.
        let s0 = lazypoline::stats();
        assert_eq!(f1(), pid);
        let s1 = lazypoline::stats();
        assert_eq!(s1.unpatchable_emulations - s0.unpatchable_emulations, 1);
        assert_eq!(s1.sites_patched, s0.sites_patched);

        // A fresh page is unaffected and patches normally, and its one
        // SIGSYS resumes in user space.
        let q = emit_getpid_page(1);
        let g: extern "C" fn() -> u64 = std::mem::transmute(q);
        let resumed = resumes();
        assert_eq!(g(), pid);
        let resumed = resumes().map(|n| n - resumed.expect("counted before"));
        assert_eq!(resumed.unwrap_or(1), 1, "resumes");
        let s2 = lazypoline::stats();
        assert!(s2.sites_patched > s1.sites_patched, "{s2:?}");
        libc::munmap(q as *mut _, 4096);
        libc::munmap(p as *mut _, 4096);
    }
    engine.unenroll_current_thread();
}

#[repr(C)]
struct SockFilter {
    code: u16,
    jt: u8,
    jf: u8,
    k: u32,
}

const SECCOMP_RET_KILL_PROCESS: u32 = 0x8000_0000;
const SECCOMP_RET_ERRNO: u32 = 0x0005_0000;

/// A seccomp filter that answers each syscall of `numbers` with
/// `action` (a `SECCOMP_RET_*` value) and allows the rest. Built ahead
/// of [`arm_seccomp`] so that arming allocates nothing.
fn seccomp_by_number(numbers: &[u64], action: u32) -> Vec<SockFilter> {
    const SECCOMP_RET_ALLOW: u32 = 0x7fff_0000;
    let insn = |code, jt, k| SockFilter { code, jt, jf: 0, k };
    // A = seccomp_data.nr; one `jeq` per number, each jumping over the
    // rest and the allow to the action.
    let mut filter = vec![insn(0x20, 0, 0)];
    for (i, &nr) in numbers.iter().enumerate() {
        filter.push(insn(0x15, (numbers.len() - i) as u8, nr as u32));
    }
    filter.push(insn(0x06, 0, SECCOMP_RET_ALLOW));
    filter.push(insn(0x06, 0, action));
    filter
}

unsafe fn arm_seccomp(filter: &[SockFilter]) {
    #[repr(C)]
    struct SockFprog {
        len: u16,
        filter: *const SockFilter,
    }
    const PR_SET_SECCOMP: libc::c_int = 22;
    const PR_SET_NO_NEW_PRIVS: libc::c_int = 38;
    const SECCOMP_MODE_FILTER: libc::c_ulong = 2;
    let prog = SockFprog {
        len: filter.len() as u16,
        filter: filter.as_ptr(),
    };
    assert_eq!(
        libc::prctl(PR_SET_NO_NEW_PRIVS, 1 as libc::c_ulong, 0, 0, 0),
        0
    );
    let armed = libc::prctl(
        PR_SET_SECCOMP,
        SECCOMP_MODE_FILTER,
        &prog as *const SockFprog,
    );
    assert_eq!(armed, 0, "seccomp filter refused");
}

fn scenario_rwx_patch_without_mprotect() {
    // The patcher must not mprotect a page that is already writable.
    // Proved by taking mprotect away: a seccomp filter fails every one
    // with EPERM, after which an RWX page still patches (anchor plus
    // swept site) and an r-x page cannot — the control that shows the
    // filter bites.
    let no_mprotect = seccomp_by_number(
        &[syscalls::nr::MPROTECT],
        SECCOMP_RET_ERRNO | libc::EPERM as u32,
    );

    zpoline::Trampoline::install().expect("trampoline");
    unsafe {
        let rwx = emit_getpid_page(2);
        let rx = emit_getpid_page(1);
        let seam = emit_getpid_page(1);
        assert_eq!(
            libc::mprotect(rx.cast(), 4096, libc::PROT_READ | libc::PROT_EXEC),
            0
        );
        let perms_of = |p: *mut u8| zpoline::patcher::region_perms(p as usize).map(|r| r.prot());

        arm_seccomp(&no_mprotect);
        assert_eq!(
            libc::mprotect(rwx.cast(), 4096, libc::PROT_READ),
            -1,
            "filter inactive"
        );

        let out = zpoline::patch_page_sites(rwx as usize + 5).expect("no mprotect needed");
        assert_eq!(
            (out.site, out.extra_patched),
            (zpoline::PatchOutcome::Patched, 1)
        );
        assert_eq!(
            std::slice::from_raw_parts(rwx.add(64 + 5), 2),
            &[0xff, 0xd0]
        );
        assert_eq!(perms_of(rwx), perms_of(seam));

        assert_eq!(
            zpoline::patch_page_sites(rx as usize + 5),
            Err(zpoline::PatchError::MprotectFailed(syscalls::Errno::EPERM))
        );
        assert_eq!(std::slice::from_raw_parts(rx.add(5), 2), &[0x0f, 0x05]);
        assert_eq!(perms_of(rx), Some(libc::PROT_READ | libc::PROT_EXEC));

        // The fault seam fires on every attempt, window or no window.
        faultinject::arm(
            faultinject::Site::PatchMprotect,
            faultinject::Schedule::EveryNth(1),
            None,
        );
        assert_eq!(
            zpoline::patch_page_sites(seam as usize + 5),
            Err(zpoline::PatchError::MprotectFailed(syscalls::Errno::EAGAIN))
        );
        faultinject::disarm(faultinject::Site::PatchMprotect);
        assert_eq!(std::slice::from_raw_parts(seam.add(5), 2), &[0x0f, 0x05]);
    }
}

fn scenario_rwx_patch_without_proc() {
    // The slow path must not need `/proc` to patch a page that takes
    // stores as it is, and a page whose protection it cannot look up
    // must cost one failed `open`, not one per execution. Proved by
    // taking `open` away: once the engine is up, a seccomp filter fails
    // every `open`/`openat` with EMFILE. An RWX page still batch-patches
    // on its first SIGSYS; an r-x page is emulated and blocklisted, and
    // under a second filter that *kills* on `open` its next execution
    // survives.
    let opens = [syscalls::nr::OPEN, syscalls::nr::OPENAT];
    let no_open = seccomp_by_number(
        &opens,
        SECCOMP_RET_ERRNO | syscalls::Errno::EMFILE.as_i32() as u32,
    );
    let open_kills = seccomp_by_number(&opens, SECCOMP_RET_KILL_PROCESS);
    interpose::set_global_handler(Box::new(interpose::PassthroughHandler));
    unsafe {
        let rwx = emit_getpid_page(2);
        let rx = emit_getpid_page(2);
        assert_eq!(
            libc::mprotect(rx.cast(), 4096, libc::PROT_READ | libc::PROT_EXEC),
            0
        );
        let site = |page: *mut u8, i: usize| -> extern "C" fn() -> u64 {
            std::mem::transmute(page.add(i * 64))
        };
        let pid = std::process::id() as u64;
        let engine = lazypoline::init(Config::default()).expect("init");
        // libc's prctl site is rewritten (through /proc: its page is
        // r-x) by the call that arms the filter, not after it.
        arm_seccomp(&no_open);
        assert!(
            std::fs::File::open("/proc/self/maps").is_err(),
            "filter inactive"
        );

        let before = lazypoline::stats();
        let r0 = site(rwx, 0)();
        let r1 = site(rwx, 1)();
        let patched = lazypoline::stats();
        let r2 = site(rx, 0)();
        let listed = lazypoline::stats();
        arm_seccomp(&open_kills);
        let armed = lazypoline::stats();
        let r3 = site(rx, 0)();
        let r4 = site(rx, 1)();
        let after = lazypoline::stats();

        // (Asserting only now: format!/panic machinery may syscall.)
        assert_eq!([r0, r1, r2, r3, r4], [pid; 5]);
        // One SIGSYS patched the anchor and the swept site, no /proc.
        assert_eq!(patched.slow_path_hits - before.slow_path_hits, 1);
        assert_eq!(patched.sites_patched - before.sites_patched, 2);
        assert_eq!(
            patched.unpatchable_emulations,
            before.unpatchable_emulations
        );
        assert_eq!(patched.pages_blocklisted, before.pages_blocklisted);
        for i in 0..2 {
            assert_eq!(
                std::slice::from_raw_parts(rwx.add(i * 64 + 5), 2),
                &[0xff, 0xd0]
            );
        }
        // The r-x page: emulated once, blocklisted for the failed
        // lookup, bytes untouched…
        assert_eq!(listed.slow_path_hits - patched.slow_path_hits, 1);
        assert_eq!(listed.sites_patched, patched.sites_patched);
        assert_eq!(
            listed.unpatchable_emulations - patched.unpatchable_emulations,
            1
        );
        assert_eq!(listed.pages_blocklisted - patched.pages_blocklisted, 1);
        // …and its later executions (alive, so they opened nothing) went
        // straight to emulation.
        assert_eq!(after.slow_path_hits - armed.slow_path_hits, 2);
        assert_eq!(
            after.unpatchable_emulations - armed.unpatchable_emulations,
            2
        );
        assert_eq!(after.pages_blocklisted, listed.pages_blocklisted);
        assert_eq!(after.sites_patched, armed.sites_patched);
        for i in 0..2 {
            assert_eq!(
                std::slice::from_raw_parts(rx.add(i * 64 + 5), 2),
                &[0x0f, 0x05]
            );
        }
        engine.unenroll_current_thread();
    }
}

fn scenario_fault_soak() {
    // Multi-threaded hammer with each seam armed in turn; nothing may
    // abort and no interposition may be lost.
    let counter = CountHandler::new();
    interpose::set_global_handler(Box::new(counter.clone()));

    // Phase 1 arms from a spec, as `LAZYPOLINE_FAULTS` does.
    faultinject::arm_all(&faultinject::parse_spec("patch_mprotect:every=5").unwrap());
    let engine = lazypoline::init(Config::default()).expect("init");
    assert_eq!(lazypoline::mode(), lazypoline::Mode::Hybrid);
    let handles: Vec<_> = (0..4)
        .map(|i| {
            std::thread::spawn(move || {
                let p = std::env::temp_dir().join(format!("lp-soak-{i}-{}", std::process::id()));
                for _ in 0..50 {
                    std::fs::write(&p, b"x").unwrap();
                    let _ = std::fs::read(&p).unwrap();
                }
                std::fs::remove_file(&p).unwrap();
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert!(
        counter.count(syscalls::nr::WRITE) >= 200,
        "lost writes under patch faults: {}",
        counter.count(syscalls::nr::WRITE)
    );
    assert!(
        faultinject::injected(faultinject::Site::PatchMprotect) > 0,
        "spec-armed seam never fired"
    );
    assert!(lazypoline::stats().patch_retries > 0, "retry path never exercised");
    faultinject::disarm(faultinject::Site::PatchMprotect);

    // Phase 2: every selector store dropped — and none made. A dispatch
    // writes no selector, and neither does a new thread's enrolment.
    let base = counter.count(syscalls::nr::WRITE);
    faultinject::arm_all(&faultinject::parse_spec("selector_write:every=1").unwrap());
    let p = std::env::temp_dir().join(format!("lp-soak-sel-{}", std::process::id()));
    for _ in 0..50 {
        std::fs::write(&p, b"y").unwrap();
    }
    assert_eq!(faultinject::injected(faultinject::Site::SelectorWrite), 0, "a dispatch wrote the selector");
    let q = p.clone();
    std::thread::spawn(move || {
        for _ in 0..50 {
            std::fs::write(&q, b"y").unwrap();
        }
    })
    .join()
    .unwrap();
    std::fs::remove_file(&p).unwrap();
    faultinject::disarm(faultinject::Site::SelectorWrite);
    assert!(counter.count(syscalls::nr::WRITE) >= base + 100);
    assert_eq!(faultinject::injected(faultinject::Site::SelectorWrite), 0, "an enrolment wrote the selector");

    // Phase 3: transient enrollment failure at thread creation — the
    // clone shim's bounded retry must still enroll the thread.
    let base = counter.count(syscalls::nr::WRITE);
    faultinject::arm(
        faultinject::Site::SudEnroll,
        faultinject::Schedule::FirstK(2),
        None,
    );
    std::thread::spawn(|| {
        let p = std::env::temp_dir().join(format!("lp-soak-enr-{}", std::process::id()));
        for _ in 0..25 {
            std::fs::write(&p, b"z").unwrap();
        }
        std::fs::remove_file(&p).unwrap();
    })
    .join()
    .unwrap();
    faultinject::disarm_all();
    assert!(
        counter.count(syscalls::nr::WRITE) >= base + 25,
        "thread lost interposition after transient enroll faults"
    );
    assert_eq!(faultinject::injected(faultinject::Site::SudEnroll), 2);

    engine.unenroll_current_thread();
    let h = lazypoline::health();
    assert!(h.faults_injected >= 3, "{h:?}");
    assert_eq!(interpose::quarantined_handlers(), 0);
}

fn scenario_fault_soak_sudonly() {
    // Pure-SUD hammer with emulation faults (EINTR) injected and the
    // selector seam armed concurrently: every call either succeeds or
    // observes a clean EINTR — never a wrong result, never a crash — and
    // the slow path writes no selector for the seam to drop.
    use std::sync::atomic::AtomicBool;
    static READY: AtomicU64 = AtomicU64::new(0);
    static START: AtomicBool = AtomicBool::new(false);
    static DONE: AtomicU64 = AtomicU64::new(0);
    static EXIT: AtomicBool = AtomicBool::new(false);
    static OK_CALLS: AtomicU64 = AtomicU64::new(0);
    static EINTR_CALLS: AtomicU64 = AtomicU64::new(0);
    static BAD_CALLS: AtomicU64 = AtomicU64::new(0);
    const THREADS: u64 = 4;
    const CALLS: u64 = 200;

    interpose::set_global_handler(Box::new(interpose::PassthroughHandler));
    let engine = lazypoline::init(Config {
        lazy_rewriting: false,
        ..Config::default()
    })
    .expect("init");
    let pid = std::process::id() as u64;
    let eintr = syscalls::Errno::EINTR.as_ret();

    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            std::thread::spawn(move || {
                // Allocation- and syscall-free between the gates: with
                // the emulate seam armed, *any* syscall can fail.
                READY.fetch_add(1, Ordering::SeqCst);
                while !START.load(Ordering::SeqCst) {
                    std::hint::spin_loop();
                }
                for _ in 0..CALLS {
                    let r = asm_getpid();
                    if r == pid {
                        OK_CALLS.fetch_add(1, Ordering::SeqCst);
                    } else if r == eintr {
                        EINTR_CALLS.fetch_add(1, Ordering::SeqCst);
                    } else {
                        BAD_CALLS.fetch_add(1, Ordering::SeqCst);
                    }
                }
                DONE.fetch_add(1, Ordering::SeqCst);
                while !EXIT.load(Ordering::SeqCst) {
                    std::hint::spin_loop();
                }
            })
        })
        .collect();

    // Arm only once every thread is parked at the start line — thread
    // startup itself performs syscalls that must stay clean.
    while READY.load(Ordering::SeqCst) < THREADS {
        std::hint::spin_loop();
    }
    faultinject::arm(
        faultinject::Site::SlowpathEmulate,
        faultinject::Schedule::EveryNth(7),
        None, // default EINTR
    );
    faultinject::arm(
        faultinject::Site::SelectorWrite,
        faultinject::Schedule::EveryNth(9),
        None,
    );
    START.store(true, Ordering::SeqCst);
    while DONE.load(Ordering::SeqCst) < THREADS {
        std::hint::spin_loop();
    }
    faultinject::disarm_all();
    EXIT.store(true, Ordering::SeqCst);
    for h in handles {
        h.join().unwrap();
    }

    let ok = OK_CALLS.load(Ordering::SeqCst);
    let intr = EINTR_CALLS.load(Ordering::SeqCst);
    let bad = BAD_CALLS.load(Ordering::SeqCst);
    assert_eq!(bad, 0, "corrupted syscall results under fault soak");
    assert_eq!(ok + intr, THREADS * CALLS, "lost calls");
    assert!(ok > 0 && intr > 0, "soak did not exercise both outcomes: ok={ok} intr={intr}");
    assert_eq!(
        intr,
        faultinject::injected(faultinject::Site::SlowpathEmulate),
        "every injected emulate fault must surface as exactly one EINTR"
    );
    assert_eq!(faultinject::injected(faultinject::Site::SelectorWrite), 0, "the slow path wrote the selector");
    assert_interposed("after the soak");
    engine.unenroll_current_thread();
}

fn scenario_panic_quarantine() {
    // A handler panicking mid-stream is quarantined: the panic is
    // contained, the triggering syscall and all later ones pass
    // through, and a fresh handler revives interposition.
    static EVENTS: AtomicU64 = AtomicU64::new(0);
    struct PanicOnThird;
    impl SyscallHandler for PanicOnThird {
        fn handle(&self, ev: &mut SyscallEvent) -> Action {
            if ev.call.nr == syscalls::nr::GETPID {
                let n = EVENTS.fetch_add(1, Ordering::SeqCst) + 1;
                if n == 3 {
                    panic!("deliberate handler bug on event {n}");
                }
            }
            Action::Passthrough
        }
    }

    let pid = std::process::id() as u64;
    // The panic is expected; keep its backtrace out of the output.
    std::panic::set_hook(Box::new(|_| {}));
    interpose::set_global_handler(Box::new(PanicOnThird));
    let engine = lazypoline::init(Config::default()).expect("init");

    for i in 0..10 {
        assert_eq!(asm_getpid(), pid, "call {i} returned garbage");
    }
    assert_eq!(
        EVENTS.load(Ordering::SeqCst),
        3,
        "handler kept running after its panic"
    );
    assert_eq!(interpose::quarantined_handlers(), 1);

    // Installing a fresh handler lifts the quarantine.
    let counter = CountHandler::new();
    interpose::set_global_handler(Box::new(counter.clone()));
    for _ in 0..5 {
        assert_eq!(asm_getpid(), pid);
    }
    assert!(
        counter.count(syscalls::nr::GETPID) >= 5,
        "interposition not revived after quarantine"
    );
    assert_eq!(interpose::quarantined_handlers(), 1);
    engine.unenroll_current_thread();
}

fn scenario_fault_prescan_only() {
    // SUD enrollment fails persistently (injected) → the engine must
    // degrade to Mode::PrescanOnly: statically rewritten libc sites
    // still dispatch, nothing SIGSYS-based runs.
    let counter = CountHandler::new();
    interpose::set_global_handler(Box::new(counter.clone()));
    faultinject::arm(
        faultinject::Site::SudEnroll,
        faultinject::Schedule::EveryNth(1),
        None,
    );
    let engine = lazypoline::init(Config::default()).expect("init must degrade, not fail");
    faultinject::disarm_all();

    assert_eq!(lazypoline::mode(), lazypoline::Mode::PrescanOnly);
    assert!(!engine.is_enrolled(), "nothing to enroll in without SUD");

    let tmp = std::env::temp_dir().join(format!("lp-prescan-{}", std::process::id()));
    std::fs::write(&tmp, b"prescan").unwrap();
    assert_eq!(std::fs::read(&tmp).unwrap(), b"prescan");
    std::fs::remove_file(&tmp).unwrap();

    let (h, s) = (lazypoline::health(), lazypoline::stats());
    assert_eq!(h.mode, lazypoline::Mode::PrescanOnly);
    assert!(h.faults_injected >= 1, "{h:?}");
    assert_eq!(s.slow_path_hits, 0, "SIGSYS fired without SUD: {s:?}");
    assert!(s.sites_patched >= 1, "prescan rewrote nothing: {s:?}");
    assert!(
        counter.count(syscalls::nr::WRITE) >= 1,
        "prescanned libc write not interposed"
    );
}

fn scenario_degraded_smoke() {
    // Honors whatever LAZYPOLINE_FAULTS the harness (e.g. the CI fault
    // matrix) passed through: init must succeed — degraded if need be —
    // and basic I/O must keep working. `seccomp_install` is a seam only
    // hardened mode reaches, so such a spec installs that row (whose
    // install arms the faults) and lands on `Unprotected`; any other is
    // armed here, as an engine-backed install arms it, and drives
    // `lazypoline::init` directly, which reads no environment.
    let spec = std::env::var("LAZYPOLINE_FAULTS").unwrap_or_default();
    let hardened = spec.contains("seccomp_install");
    let teardown: Box<dyn FnOnce()> = if hardened {
        let mut active = install("lazypoline-hardened", Box::new(interpose::PassthroughHandler));
        Box::new(move || active.detach())
    } else {
        faultinject::arm_all(&faultinject::parse_spec(&spec).expect("the harness passes a well-formed spec"));
        interpose::set_global_handler(Box::new(interpose::PassthroughHandler));
        let engine = lazypoline::init(Config::default()).expect("init must degrade, not fail");
        Box::new(move || engine.unenroll_current_thread())
    };

    // On this thread and on a spawned one, whose enrolment is another
    // `prctl`.
    let io = || {
        let name = format!("lp-degraded-{}-{:?}", std::process::id(), std::thread::current().id());
        let tmp = std::env::temp_dir().join(name);
        std::fs::write(&tmp, b"degraded").unwrap();
        assert_eq!(std::fs::read(&tmp).unwrap(), b"degraded");
        std::fs::remove_file(&tmp).unwrap();
    };
    io();
    std::thread::spawn(io).join().unwrap();

    let h = lazypoline::health();
    let expected = if spec.contains("trampoline_install") {
        lazypoline::Mode::SudOnly
    } else if spec.contains("sud_enroll") {
        lazypoline::Mode::PrescanOnly
    } else {
        lazypoline::Mode::Hybrid
    };
    assert_eq!(h.mode, expected, "spec={spec:?} health={h:?}");
    let harden = if hardened { lazypoline::HardenLevel::Unprotected } else { lazypoline::HardenLevel::Off };
    assert_eq!(h.harden, harden, "spec={spec:?} health={h:?}");
    teardown();
    // By teardown every seam the run reaches has been hit.
    if !spec.is_empty() {
        let injected = faultinject::total_injected();
        assert!(injected >= 1, "armed faults never fired: {injected} injected, {h:?}");
    }
}

/// Teardown's `prctl` leaves from the gate: on an enrolled thread it
/// would be dispatched from anywhere else. Across an installation's
/// teardown, and across the handle-free detach a signal handler makes,
/// the process-wide slow-path and dispatch counts stay where they were.
fn scenario_teardown_from_the_gate() {
    for detach in [false, true] {
        let active = install("lazypoline", Box::new(interpose::PassthroughHandler));
        let _ = std::fs::metadata("/tmp");
        let before = lazypoline::stats();
        if detach {
            mechanism::detach_current_thread();
        } else {
            drop(active);
        }
        let after = lazypoline::stats();
        let what = if detach { "detach_current_thread" } else { "the teardown" };
        assert_eq!(after.slow_path_hits, before.slow_path_hits, "{what} trapped");
        assert_eq!(after.dispatches, before.dispatches, "{what} was dispatched");
    }
}

// ——— mechanism-layer scenarios ——————————————————————————————————————

/// One syscall to the non-existent number 500 through inline asm — a
/// single distinct site, like [`asm_getpid`].
#[inline(never)]
fn asm_nosys() -> u64 {
    let ret: u64;
    unsafe {
        std::arch::asm!(
            "mov eax, 500",
            "syscall",
            out("rax") ret,
            out("rcx") _, out("r11") _,
            in("rdi") 0u64, in("rsi") 0u64, in("rdx") 0u64,
            in("r10") 0u64, in("r8") 0u64, in("r9") 0u64,
        );
    }
    ret
}

fn scenario_mechanism_differential() {
    // Cross-mechanism differential: a fixed syscall workload must
    // produce identical observable results under every native backend,
    // each constructed purely by registry name. Backends differ only in
    // *how many* events they can observe (exhaustive vs one-shot vs
    // none), never in what the application sees.
    static GETPID_SEEN: AtomicU64 = AtomicU64::new(0);
    static NOSYS_SEEN: AtomicU64 = AtomicU64::new(0);
    struct Recorder;
    impl SyscallHandler for Recorder {
        fn handle(&self, ev: &mut SyscallEvent) -> Action {
            if ev.call.nr == syscalls::nr::GETPID {
                GETPID_SEEN.fetch_add(1, Ordering::SeqCst);
            } else if ev.call.nr == syscalls::NONEXISTENT_SYSCALL {
                NOSYS_SEEN.fetch_add(1, Ordering::SeqCst);
            }
            Action::Passthrough
        }
    }

    // Execution order matters only for the SIGSYS owners: `none` and
    // `sud-allow` run first so the asm sites are still virgin (no
    // trampoline dispatch can reach a handler), and `sud-raw` must
    // precede any engine-backed row (it owns the SIGSYS disposition).
    let backends: &[(&str, bool)] = &[
        // (name, exhaustive observation expected)
        ("none", false),
        ("sud-allow", false),
        ("sud-raw", false),
        ("sud", true),
        ("lazypoline", true),
        ("lazypoline-nox", true),
        ("lazypoline-nobatch", true),
        ("zpoline", true),
    ];

    let pid = std::process::id() as u64;
    let enosys = syscalls::Errno::ENOSYS.as_ret();
    let mut reference: Option<Vec<u64>> = None;
    for &(name, exhaustive) in backends {
        GETPID_SEEN.store(0, Ordering::SeqCst);
        NOSYS_SEEN.store(0, Ordering::SeqCst);
        let mut active = install(name, Box::new(Recorder));
        let mut results = Vec::new();
        for _ in 0..8 {
            results.push(asm_getpid());
        }
        results.push(asm_nosys());
        active.detach();
        let stats = active.stats();
        drop(active);

        // 1. Observable results are identical across every backend.
        assert_eq!(results[..8], [pid; 8], "{name}: wrong getpid results");
        assert_eq!(results[8], enosys, "{name}: wrong ENOSYS result");
        match &reference {
            None => reference = Some(results),
            Some(r) => assert_eq!(*r, results, "{name}: differs from reference"),
        }

        // 2. Observation counts match each backend's contract.
        let getpids = GETPID_SEEN.load(Ordering::SeqCst);
        let nosys = NOSYS_SEEN.load(Ordering::SeqCst);
        if exhaustive {
            assert!(getpids >= 8, "{name}: observed {getpids} < 8 getpids");
            assert!(nosys >= 1, "{name}: missed the nr-500 syscall");
            assert!(stats.dispatches >= 9, "{name}: {stats:?}");
        } else if name == "sud-raw" {
            // One-shot per arming: exactly the first syscall.
            assert_eq!(getpids, 1, "{name}: one-shot contract broken");
            assert_eq!(nosys, 0, "{name}");
            assert_eq!(stats.dispatches, 1, "{name}: {stats:?}");
        } else {
            assert_eq!(getpids + nosys, 0, "{name}: observed without a mechanism");
            assert_eq!(stats.dispatches, 0, "{name}: {stats:?}");
        }
    }
}

/// Whether the composed mechanism name `name` stacks `layer` anywhere
/// above its base (`lazypoline+hooks+sfip` has both `hooks` and `sfip`).
fn has_layer(name: &str, layer: &str) -> bool {
    name.split('+').skip(1).any(|l| l == layer)
}

/// Every `+hooks` / `+sfip` layer a composed name carries must have
/// done something, or the CI matrix row that selected it is vacuous.
fn assert_layers_ran(stats: &mechanism::StatsSnapshot) {
    let name = stats.mechanism;
    if has_layer(name, "hooks") {
        assert!(stats.hooks_loaded > 0, "{name}: LP_HOOKS loaded no hooks");
        assert!(stats.hook_dispatches > 0, "{name}: loaded hooks saw no syscalls");
    }
    if has_layer(name, "sfip") {
        assert!(stats.sfip_checks > 0, "{name}: no syscalls were flow-checked");
    }
}

fn scenario_mechanism_smoke() {
    // Honors whatever LP_MECHANISM the harness (e.g. the CI mechanism
    // matrix) passed through: the named backend must install, interpose
    // a small workload, and tear down cleanly.
    let cfg = mechanism::EnvConfig::from_env()
        .unwrap_or_else(|e| panic!("LP_MECHANISM must name a registered mechanism: {e}"));
    let backend = mechanism::by_name(cfg.mechanism).expect("a parsed name is registered");
    // `<base>+sfip` rows need a policy at install. CI's enforce rows
    // export a learned LP_SFIP_POLICY; when the harness didn't, an
    // allow-everything policy keeps the row exercising the check path
    // (counted per syscall) without constraining the workload.
    struct Scratch(Option<std::path::PathBuf>);
    impl Drop for Scratch {
        fn drop(&mut self) {
            if let Some(p) = self.0.take() {
                let _ = std::fs::remove_file(p);
            }
        }
    }
    let mut scratch = Scratch(None);
    if has_layer(backend.name(), "sfip") && std::env::var_os(sfip::POLICY_ENV).is_none() {
        let path = std::env::temp_dir().join(format!("lp-smoke-{}.sfip", std::process::id()));
        sfip::Policy::allow_all("smoke").save(&path).expect("policy saves");
        std::env::set_var(sfip::POLICY_ENV, &path);
        if std::env::var_os(sfip::ACTION_ENV).is_none() {
            std::env::set_var(sfip::ACTION_ENV, "count");
        }
        scratch.0 = Some(path);
    }
    if !backend.is_available() {
        println!("mechanism {}: unavailable on this host, skipping", backend.name());
        return;
    }
    if backend.name() == "sud-raw" && lazypoline::Engine::is_initialized() {
        println!("mechanism sud-raw: engine already initialized, skipping");
        return;
    }
    let mut active = backend
        .install(Box::new(interpose::PassthroughHandler))
        .unwrap_or_else(|e| panic!("install {}: {e}", backend.name()));
    let pid = std::process::id() as u64;
    for i in 0..10 {
        assert_eq!(asm_getpid(), pid, "call {i}");
    }
    let tmp = std::env::temp_dir().join(format!("lp-mech-smoke-{}", std::process::id()));
    std::fs::write(&tmp, b"smoke").unwrap();
    assert_eq!(std::fs::read(&tmp).unwrap(), b"smoke");
    std::fs::remove_file(&tmp).unwrap();
    active.detach();
    let stats = active.stats();
    assert_layers_ran(&stats);
    println!(
        "mechanism {}: {} dispatches, {} slow-path, {} patched",
        active.mechanism_name(),
        stats.dispatches,
        stats.slow_path_hits,
        stats.sites_patched
    );
}

/// The guest's syscall names, in the order `records` holds them.
fn sysnames(records: &[replay::EventRecord]) -> Vec<&'static str> {
    records.iter().map(|r| syscalls::nr::name(r.sysno).unwrap_or("?")).collect()
}

fn scenario_record_replay_native() {
    // Record the guest under the real engine, then replay it in the
    // same process: the trace holds the guest's calls and nothing else
    // (the recorder's own finish is not in it), and the replay makes
    // each of them and consumes the whole trace.
    let trace = std::env::temp_dir().join(format!("lp-rr-native-{}.lpt", std::process::id()));
    let cfg = mechanism::EnvConfig {
        trace_out: Some(trace.clone()),
        ..mechanism::EnvConfig::default()
    };
    let mut active = mechanism::by_name("lazypoline+record")
        .expect("+record composes natively")
        .install_with(Box::new(interpose::PassthroughHandler), &cfg)
        .expect("native record install");
    guest::window();
    active.detach();
    let stats = active.stats();
    let summary = active
        .finish_recording()
        .expect("trace session active")
        .expect("trace finishes");
    drop(active);
    assert_eq!(stats.events_recorded, summary.events, "stats missed the recorder");
    let (header, records) = replay::read_trace_path(&trace).expect("recorded trace parses");
    assert_eq!(header.source_mechanism, "lazypoline");
    assert_eq!(sysnames(&records), guest::WINDOW);

    let name = format!("replay:{}", trace.display());
    let mut active = mechanism::by_name(&name)
        .expect("replay name parses")
        .install(Box::new(interpose::PassthroughHandler))
        .expect("native replay install");
    guest::window();
    active.detach();
    let state = active.replay_state().expect("replay backend").clone();
    let verdict = state.verdict();
    drop(active);
    assert_eq!(verdict.unwrap_or_else(|e| panic!("{e}")), guest::WINDOW.len());
    std::fs::remove_file(&trace).unwrap();
}

/// `struct io_uring_params`: the scenario sets nothing and reads the
/// ring sizes and offsets the kernel fills in. `sq_off` is head, tail,
/// ring_mask, ring_entries, flags, dropped, array, …; `cq_off` is head,
/// tail, ring_mask, ring_entries, overflow, cqes, ….
#[repr(C)]
#[derive(Default)]
struct UringParams {
    sq_entries: u32,
    cq_entries: u32,
    flags: u32,
    sq_thread_cpu: u32,
    sq_thread_idle: u32,
    features: u32,
    wq_fd: u32,
    resv: [u32; 3],
    sq_off: [u32; 10],
    cq_off: [u32; 10],
}

/// Maps `len` bytes of the io_uring `ring_fd` at the kernel's `offset`
/// (`IORING_OFF_*`) shared, read-write.
fn map_ring(ring_fd: u64, len: u32, offset: i64) -> *mut u8 {
    const MAP_SHARED: libc::c_int = 0x01;
    // SAFETY: a fresh mapping the kernel places; nothing is overwritten.
    let p = unsafe {
        libc::mmap(
            std::ptr::null_mut(),
            len as usize,
            libc::PROT_READ | libc::PROT_WRITE,
            MAP_SHARED,
            ring_fd as libc::c_int,
            offset,
        )
    };
    assert_ne!(p, libc::MAP_FAILED, "io_uring mapping at {offset:#x}");
    p.cast()
}

/// Today's hole, pinned (DESIGN.md §11): a file opened by an
/// `IORING_OP_OPENAT` submission reaches no layer. The trace of a
/// `lazypoline+record` run names `io_uring_setup` and `io_uring_enter`
/// and the `read` of the new descriptor, but no `openat` of the path.
fn scenario_uring_open_unseen() {
    use std::sync::atomic::AtomicU32;
    use syscalls::nr;
    const IORING_OFF_CQ_RING: i64 = 0x800_0000;
    const IORING_OFF_SQES: i64 = 0x1000_0000;
    const IORING_OP_OPENAT: u8 = 18;
    const IORING_ENTER_GETEVENTS: u64 = 1;
    const AT_FDCWD: i32 = -100;

    let dir = std::env::temp_dir();
    let file = dir.join(format!("lp-uring-{}", std::process::id()));
    std::fs::write(&file, b"ring-borne").unwrap();
    let path = std::ffi::CString::new(file.to_str().unwrap()).unwrap();
    let trace = dir.join(format!("lp-uring-{}.lpt", std::process::id()));
    let cfg = mechanism::EnvConfig {
        trace_out: Some(trace.clone()),
        ..mechanism::EnvConfig::from_env().expect("the harness passes a valid environment")
    };
    let mut active = mechanism::by_name("lazypoline+record")
        .unwrap()
        .install_with(Box::new(interpose::PassthroughHandler), &cfg)
        .unwrap_or_else(|e| panic!("install lazypoline+record: {e}"));

    // SAFETY: the two calls made through it: `io_uring_setup` writes
    // `params`, which outlives it, and `io_uring_enter` reads the ring's
    // own mappings.
    let raw = |call, args| unsafe { syscalls::raw::syscall(syscalls::SyscallArgs::new(call, args)) };
    let mut params = UringParams::default();
    let ring = raw(nr::IO_URING_SETUP, [4, &mut params as *mut UringParams as u64, 0, 0, 0, 0]);
    if let Some(e) = syscalls::Errno::from_ret(ring) {
        active.detach();
        drop(active);
        let _ = std::fs::remove_file(&trace);
        std::fs::remove_file(&file).unwrap();
        println!("uring_open_unseen: skipped (io_uring_setup: errno {})", e.as_i32());
        return;
    }
    let (sq, cq) = (params.sq_off, params.cq_off);
    let sq_ring = map_ring(ring, sq[6] + params.sq_entries * 4, 0);
    let cq_ring = map_ring(ring, cq[5] + params.cq_entries * 16, IORING_OFF_CQ_RING);
    let sqes = map_ring(ring, params.sq_entries * 64, IORING_OFF_SQES);
    // SAFETY: every offset below is one the kernel reported for the
    // mappings just made (`struct io_uring_sqe` is 64 bytes,
    // `struct io_uring_cqe` 16); the ring's indices are shared with the
    // kernel, so they are read and written as atomics.
    let opened = unsafe {
        let at = |base: *mut u8, off: u32| &*(base.add(off as usize) as *const AtomicU32);
        let sqe = sqes; // slot 0, zeroed by the kernel
        sqe.write(IORING_OP_OPENAT);
        (sqe.add(4) as *mut i32).write(AT_FDCWD);
        (sqe.add(16) as *mut u64).write(path.as_ptr() as u64);
        (sqe.add(28) as *mut u32).write((libc::O_RDONLY | libc::O_CLOEXEC) as u32);
        let tail = at(sq_ring, sq[1]).load(Ordering::Acquire);
        let slot = tail & at(sq_ring, sq[2]).load(Ordering::Relaxed);
        (sq_ring.add(sq[6] as usize) as *mut u32).add(slot as usize).write(0);
        at(sq_ring, sq[1]).store(tail.wrapping_add(1), Ordering::Release);
        let submitted = raw(nr::IO_URING_ENTER, [ring, 1, 1, IORING_ENTER_GETEVENTS, 0, 0]);
        assert_eq!(submitted, 1, "io_uring_enter");
        let head = at(cq_ring, cq[0]).load(Ordering::Relaxed);
        assert_ne!(head, at(cq_ring, cq[1]).load(Ordering::Acquire), "a completion");
        let slot = head & at(cq_ring, cq[2]).load(Ordering::Relaxed);
        let res = (cq_ring.add(cq[5] as usize + 16 * slot as usize + 8) as *const i32).read();
        at(cq_ring, cq[0]).store(head.wrapping_add(1), Ordering::Release);
        res
    };
    assert!(opened >= 0, "IORING_OP_OPENAT: {opened}");
    let mut buf = [0u8; 16];
    // SAFETY: `buf` is writable for its length; `opened` is our fd.
    let n = unsafe { libc::read(opened, buf.as_mut_ptr().cast(), buf.len()) };
    assert_eq!(&buf[..n as usize], b"ring-borne");
    // SAFETY: both descriptors are ours and closed once.
    unsafe {
        libc::close(opened);
        libc::close(ring as libc::c_int);
    }
    active.detach();
    active
        .finish_recording()
        .expect("a trace session is active")
        .expect("trace finishes");
    drop(active);
    let (_, records) = replay::read_trace_path(&trace).expect("recorded trace parses");
    std::fs::remove_file(&trace).unwrap();
    std::fs::remove_file(&file).unwrap();

    let recorded = |sysno| records.iter().any(|r| r.sysno == sysno);
    assert!(recorded(nr::IO_URING_SETUP) && recorded(nr::IO_URING_ENTER), "{records:?}");
    assert!(
        records.iter().any(|r| r.sysno == nr::READ && r.args[0] == opened as u64),
        "the read of the ring-opened fd"
    );
    let path_ptr = path.as_ptr() as u64;
    assert!(
        !records.iter().any(|r| (r.sysno == nr::OPENAT && r.args[1] == path_ptr)
            || (r.sysno == nr::OPEN && r.args[0] == path_ptr)),
        "an openat of the path reached the recorder: the hole is closed, update DESIGN.md §11"
    );
}

fn scenario_compose_record_sfip() {
    // Three layers in one name against the real engine: lazypoline
    // dispatches into the recorder, which calls the hook stack, whose
    // anchor is the SFIP check, which calls the handler — one install
    // audits what it enforces. The base and the three layers count
    // over one window.
    let policy = std::env::temp_dir().join(format!("lp-compose-{}.sfip", std::process::id()));
    sfip::Policy::allow_all("compose").save(&policy).expect("policy saves");
    std::env::set_var(sfip::POLICY_ENV, &policy);
    std::env::set_var(sfip::ACTION_ENV, "count");
    let trace = std::env::temp_dir().join(format!("lp-compose-{}.lpt", std::process::id()));
    std::env::set_var("LP_TRACE_OUT", &trace);
    std::env::set_var("LP_HOOKS", "hook_count");
    let mut active = mechanism::by_name("lazypoline+record+hooks+sfip")
        .expect("layers compose natively")
        .install(Box::new(interpose::PassthroughHandler))
        .expect("native composed install");
    std::env::remove_var("LP_HOOKS");
    let pid = std::process::id() as u64;
    for _ in 0..10 {
        assert_eq!(asm_getpid(), pid);
    }
    active.detach();
    // Finish first: it joins the drain thread, so nothing dispatches
    // while the two layers' counters are read.
    let summary = active
        .finish_recording()
        .expect("the record layer holds a trace session")
        .expect("trace finishes");
    let stats = active.stats();
    assert_eq!(stats.mechanism, "lazypoline+record+hooks+sfip");
    assert_eq!(stats.sfip_mode, "count");
    assert_eq!(stats.sfip_violations, 0, "{stats:?}");
    // SFIP's invariant, every syscall flow-checked, over the one
    // baseline every layer shares.
    assert_eq!(stats.sfip_checks, stats.dispatches, "{stats:?}");
    assert_eq!(stats.hooks_loaded, 1, "{stats:?}");
    assert!(stats.hook_dispatches >= 10, "{stats:?}");
    assert!(summary.events >= 10, "recorded {} events", summary.events);
    // Every recorded syscall was flow-checked on its way in (a thread
    // that exits is checked but never reaches the recorder's `post`).
    assert!(stats.sfip_checks >= summary.events, "{stats:?}");
    assert!(stats.events_recorded >= summary.events, "{stats:?}");
    drop(active);

    let (header, records) = replay::read_trace_path(&trace).expect("recorded trace parses");
    assert_eq!(header.source_mechanism, "lazypoline", "the static base, for replay:");
    let getpids = records.iter().filter(|r| r.sysno == syscalls::nr::GETPID).count();
    assert!(getpids >= 10, "the getpid loop must appear in the trace");
    println!(
        "compose record+hooks+sfip: {} events recorded, {} flow checks, {} hook dispatches",
        summary.events, stats.sfip_checks, stats.hook_dispatches
    );
    std::fs::remove_file(&trace).unwrap();
    std::fs::remove_file(&policy).unwrap();
}

/// `dlsym`s a `() -> u64` counter getter out of an example hook library
/// (`dlopen` of an already-loaded path returns the existing module, so
/// the value read is the live hook's state).
fn hook_getter(lib: &str, symbol: &str) -> extern "C" fn() -> u64 {
    let path =
        std::ffi::CString::new(hookabi::resolve_library(lib).to_str().unwrap()).unwrap();
    let sym = std::ffi::CString::new(symbol).unwrap();
    unsafe {
        let handle = libc::dlopen(path.as_ptr(), libc::RTLD_NOW | libc::RTLD_LOCAL);
        assert!(!handle.is_null(), "dlopen {lib}");
        let ptr = libc::dlsym(handle, sym.as_ptr());
        assert!(!ptr.is_null(), "dlsym {symbol}");
        std::mem::transmute::<*mut libc::c_void, extern "C" fn() -> u64>(ptr)
    }
}

fn scenario_hook_stack_native() {
    // Runtime hook stacks against the real engine: the LP_HOOKS
    // libraries stack by priority around the compiled-in handler,
    // survive fork's SUD re-arm, and detach mid-workload without a
    // crash or a missed syscall for the survivors.
    std::env::set_var("LP_HOOKS", "hook_count:20,hook_openat");
    let counter = CountHandler::new();
    let mut active = install("lazypoline+hooks", Box::new(counter.clone()));
    std::env::remove_var("LP_HOOKS");

    let count_total = hook_getter("hook_count", "lp_hook_count_total");
    let openat_total = hook_getter("hook_openat", "lp_hook_openat_total");

    // Priority order: spec override 20, compiled-in 0 (priority ties
    // break by attach sequence), descriptor 0.
    let entries = active.hook_stack().expect("+hooks exposes the stack").entries();
    let names: Vec<&str> = entries.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, ["hook_count", "count", "hook_openat"], "{entries:?}");
    assert_eq!(active.stats().hooks_loaded, 2);

    let (c0, o0) = (count_total(), openat_total());
    let pid = std::process::id() as u64;
    for _ in 0..50 {
        assert_eq!(asm_getpid(), pid);
    }
    let tmp = std::env::temp_dir().join(format!("lp-hooks-{}", std::process::id()));
    std::fs::write(&tmp, b"hooked").unwrap();
    assert_eq!(std::fs::read(&tmp).unwrap(), b"hooked");
    assert!(counter.count(syscalls::nr::GETPID) >= 50, "compiled-in handler ran");
    assert!(count_total() - c0 >= 50, "wide hook saw the getpid loop");
    let opens = openat_total();
    assert!(opens - o0 >= 2, "narrow hook saw the file opens");

    // fork: the child re-arms SUD; the inherited stack keeps counting
    // in the child's copy of the hook state.
    unsafe {
        let child = libc::fork();
        assert!(child >= 0);
        if child == 0 {
            let (c, o) = (count_total(), openat_total());
            let own = libc::getpid() as u64;
            for _ in 0..10 {
                if asm_getpid() != own {
                    libc::_exit(1);
                }
            }
            if std::fs::read(&tmp).is_err() {
                libc::_exit(2);
            }
            if count_total() - c < 10 {
                libc::_exit(3);
            }
            if openat_total() - o < 1 {
                libc::_exit(4);
            }
            libc::_exit(44);
        }
        let mut status = 0;
        libc::waitpid(child, &mut status, 0);
        assert!(libc::WIFEXITED(status), "hooked fork child died: {status:#x}");
        assert_eq!(libc::WEXITSTATUS(status), 44, "hooks did not survive fork re-arm");
    }

    // Mid-workload detach of the wide hook: its counter freezes, the
    // survivors keep their interest, nothing crashes.
    let wide = active
        .loaded_hooks()
        .iter()
        .find(|(_, n, _)| n == "hook_count")
        .map(|(id, _, _)| *id)
        .expect("hook_count is loaded");
    let g_before = counter.count(syscalls::nr::GETPID);
    assert!(active.detach_hook(wide));
    let frozen = count_total();
    for _ in 0..25 {
        assert_eq!(asm_getpid(), pid);
    }
    assert_eq!(std::fs::read(&tmp).unwrap(), b"hooked");
    std::fs::remove_file(&tmp).unwrap();
    assert_eq!(count_total(), frozen, "detached hook must see nothing");
    assert!(
        counter.count(syscalls::nr::GETPID) >= g_before + 25,
        "compiled-in handler lost its interest after the narrow"
    );
    assert!(openat_total() > opens, "surviving narrow hook stopped seeing opens");
    let stats = active.stats();
    assert_eq!(stats.hooks_loaded, 1, "{stats:?}");
    assert!(stats.hook_dispatches > 0, "{stats:?}");
    active.detach();
}

// ——— hardened escape scenarios ————————————————————————————————————
//
// An engine thread's SUD has no selector: a store to any byte changes
// nothing (`escape_plain`). The attack that remains asks the kernel: the
// application's `prctl(PR_SET_SYSCALL_USER_DISPATCH, OFF)` — dispatched
// and executed like any other of its calls — then a syscall from its
// own text. Plain lazypoline does not see that syscall (DESIGN.md §6).
// Under `lazypoline-hardened` the seccomp backstop does: the syscall,
// issued from main-executable text, traps, and the process is killed
// or the syscall quarantined back through the interposer with SUD
// re-armed, per `LP_HARDEN_POLICY`.

/// The attacker's own `syscall` instruction, in main-executable text —
/// exactly where the backstop's IP allowlist has a deliberate hole.
/// Must never run while SUD is on (the slow path would lazily rewrite
/// it and defang the attack).
#[inline(never)]
fn attacker_syscall(nr: u64) -> i64 {
    let ret: i64;
    unsafe {
        std::arch::asm!(
            "syscall",
            inout("rax") nr => ret,
            out("rcx") _, out("r11") _,
        );
    }
    ret
}

/// A direct store of ALLOW to the thread's selector byte — no engine
/// API, the attacker "leaked" the address: what switched plain
/// lazypoline off while SUD read a selector.
fn flip_selector_to_allow() {
    unsafe {
        std::arch::asm!(
            "mov byte ptr [rdi], 0",
            in("rdi") sud::selector_ptr(),
            options(nostack, preserves_flags),
        );
    }
}

/// The attack: SUD off by a jump into the gate — hardened mode refuses
/// the application's own `prctl` (`sud_prctl_refused_hardened`) — then a
/// syscall from the application's own text. Nothing in between may make
/// a syscall.
fn attack(nr: u64) -> i64 {
    sud_off_from_gate();
    attacker_syscall(nr)
}

/// The attack's first step: `prctl(SUD, OFF)` by a jump into the gate.
fn sud_off_from_gate() {
    let off = syscalls::SyscallArgs::new(
        syscalls::nr::PRCTL,
        [
            sud::PR_SET_SYSCALL_USER_DISPATCH as u64,
            sud::PR_SYS_DISPATCH_OFF,
            0,
            0,
            0,
            0,
        ],
    );
    // SAFETY: the `prctl` takes no pointer.
    let off = unsafe { zpoline::gate_syscall(&off) };
    assert_eq!(off, 0, "prctl(SUD OFF) from the gate");
}

/// The application's own `prctl(PR_SET_SYSCALL_USER_DISPATCH, OFF)`
/// through libc.
fn libc_sud_off() -> libc::c_int {
    // SAFETY: the `prctl` takes no pointer.
    unsafe {
        libc::prctl(
            sud::PR_SET_SYSCALL_USER_DISPATCH,
            sud::PR_SYS_DISPATCH_OFF,
            0,
            0,
            0,
        )
    }
}

/// Plain mode keeps the paper's trust model: the application's own
/// `prctl(SUD, OFF)` executes, and the shadow of the executable
/// mappings stops vouching — the thread's mapping calls may now go
/// unseen.
fn scenario_sud_prctl_plain() {
    let _active = install("lazypoline", Box::new(interpose::PassthroughHandler));
    unsafe {
        let page = ret_filled_rwx_page();
        let rwx = Some(libc::PROT_READ | libc::PROT_WRITE | libc::PROT_EXEC);
        let vouched = || zpoline::maps::shadow::perms(page as usize).map(|p| p.prot());
        assert_eq!(vouched(), rwx, "the dispatched mmap was noted");
        assert_eq!(libc_sud_off(), 0, "plain mode executes the prctl");
        assert_eq!(vouched(), None, "the shadow still vouches after SUD OFF");
        assert_eq!(lazypoline::harden::bypass_blocked(), 0);
    }
}

/// Hardened mode refuses the application's own `prctl(SUD, …)`: `EPERM`,
/// counted with the blocked escapes, and the thread is still dispatched.
fn scenario_sud_prctl_refused_hardened() {
    let active = install(
        "lazypoline-hardened",
        Box::new(interpose::PassthroughHandler),
    );
    let before = active.stats();
    let off = libc_sud_off();
    let errno = std::io::Error::last_os_error().raw_os_error();
    let after = active.stats();
    assert_eq!(
        (off, errno),
        (-1, Some(libc::EPERM)),
        "prctl(SUD OFF) under hardened mode"
    );
    assert_eq!(after.bypass_blocked - before.bypass_blocked, 1, "{after:?}");
    assert!(
        after.dispatches > before.dispatches,
        "the prctl was not dispatched"
    );
    assert_interposed("after the refused prctl");
}
/// Hardened mode reaches `Full` whenever the backstop installs — on MPK
/// hosts and others alike — and `Unprotected` when it cannot.
fn scenario_harden_full() {
    let active = install("lazypoline-hardened", Box::new(interpose::PassthroughHandler));
    let _ = std::fs::metadata("/tmp");
    let expected = if faultinject::injected(faultinject::Site::SeccompInstall) > 0 {
        lazypoline::HardenLevel::Unprotected
    } else {
        lazypoline::HardenLevel::Full
    };
    assert_eq!(lazypoline::health().harden, expected);
    assert_eq!(active.stats().pkru_switches, 0, "{:?}", active.stats());
}

/// The paper's §VI attack on SUD's selector, against the real kernel:
/// under classic selector-only SUD (`sud-raw`), a store of ALLOW to the
/// thread's selector byte lets the attacker's `getuid` run unseen.
/// `escape_plain` makes the same store and call under `lazypoline`,
/// which arms SUD with no selector, and the call is dispatched.
fn scenario_escape_selector() {
    let active = install("sud-raw", Box::new(interpose::PassthroughHandler));
    // Without the store the call is dispatched (which parks the
    // selector at ALLOW: the row is one-shot per arming).
    let uid = attacker_syscall(syscalls::nr::GETUID);
    assert!(uid >= 0, "getuid failed: {uid}");
    let seen = active.stats().dispatches;
    assert_eq!(seen, 1, "the armed selector dispatched the getuid");
    sud::set_selector(sud::Dispatch::Block);
    flip_selector_to_allow();
    assert_eq!(attacker_syscall(syscalls::nr::GETUID), uid);
    assert_eq!(active.stats().dispatches, seen, "the handler saw the attacker's getuid");
}

/// A store of ALLOW to the selector byte no longer switches plain
/// lazypoline off: the attacker's syscall from main-executable text is
/// dispatched.
fn scenario_escape_plain() {
    let mut active = install("lazypoline", Box::new(interpose::PassthroughHandler));
    let before = active.stats();
    flip_selector_to_allow();
    let uid = attacker_syscall(syscalls::nr::GETUID);
    let after = active.stats();
    assert!(uid >= 0, "getuid failed: {uid}");
    assert!(after.slow_path_hits > before.slow_path_hits, "the attacker's site took no SIGSYS");
    assert!(after.dispatches > before.dispatches, "the attacker's getuid was not dispatched");
    assert_eq!(lazypoline::harden::bypass_blocked(), 0);
    active.detach();
}

fn scenario_escape_quarantine() {
    std::env::set_var("LP_HARDEN_POLICY", "quarantine");
    let active = install("lazypoline-hardened", Box::new(interpose::PassthroughHandler));
    assert!(lazypoline::harden::backstop_armed(), "backstop must arm");
    let my_pid = std::process::id();
    let pid = attack(syscalls::nr::GETPID);
    // Quarantine: the trapped syscall was forced through the
    // interposer and still produced its result — observed, not free.
    assert_eq!(pid as u32, my_pid, "quarantined getpid result");
    let blocked = active.stats().bypass_blocked;
    assert!(blocked >= 1, "backstop must count the escape, got {blocked}");
    println!("{:?}: bypass_blocked {blocked}", lazypoline::harden::level());
    // SUD is back on.
    assert_interposed("after the quarantine");
}

/// Hidden victim for `scenario_escape_kill`: dies by SIGKILL mid-attack
/// (never listed in SCENARIOS — the driver would count its death as a
/// failure).
fn scenario_escape_kill_victim() {
    let _active = install("lazypoline-hardened", Box::new(interpose::PassthroughHandler));
    assert!(lazypoline::harden::backstop_armed(), "backstop must arm");
    println!("ATTACK_IMMINENT");
    attack(syscalls::nr::GETPID);
    // Unreachable under the (default) kill policy.
    println!("SURVIVED");
    std::process::exit(3);
}

fn scenario_escape_kill() {
    let exe = std::env::current_exe().expect("self path");
    victim_dies(Command::new(&exe), "from its own path");
}

/// Runs `victim` as `escape_kill_victim` and asserts it died
/// mid-attack: by SIGKILL (no exit code) or the exit_group(137)
/// fallback.
fn victim_dies(mut victim: Command, how: &str) {
    let out = victim
        .env("LP_SCENARIO", "escape_kill_victim")
        .env_remove("LP_HARDEN_POLICY")
        .output()
        .expect("spawn victim");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let code = out.status.code();
    assert!(
        (code.is_none() || code == Some(137))
            && stdout.contains("ATTACK_IMMINENT")
            && !stdout.contains("SURVIVED"),
        "victim started {how} must die mid-attack: status {:?}, stdout:\n{stdout}",
        out.status,
    );
    println!("victim started {how}: {}", out.status);
}

/// The kill victim started three ways in which no path string names the
/// main executable: from a directory whose name holds a space, from a
/// memfd (its mapping reads `/memfd:… (deleted)`), and through an
/// explicit loader (`/proc/self/exe` is then the loader). The backstop
/// must still leave the program's own text out of its allowlist.
fn scenario_escape_kill_unnamed() {
    let exe = std::env::current_exe().expect("self path");

    let dir = std::env::temp_dir().join(format!("lp escape {}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("victim directory");
    let spaced = dir.join("native engine");
    std::fs::copy(&exe, &spaced).expect("copy of the victim");
    victim_dies(Command::new(&spaced), "from a path with spaces");
    std::fs::remove_dir_all(&dir).expect("remove the victim directory");

    let name = b"native engine\0";
    // SAFETY: memfd_create(2) with a NUL-terminated name.
    let fd = unsafe { syscalls::raw::syscall2(syscalls::nr::MEMFD_CREATE, name.as_ptr() as u64, 0) };
    assert!(syscalls::Errno::from_ret(fd).is_none(), "memfd_create");
    let writable = format!("/proc/self/fd/{fd}");
    std::fs::copy(&exe, &writable).expect("copy into the memfd");
    // A file open for writing cannot be executed: run a read-only
    // descriptor of it, with the writable one closed.
    let readable = std::fs::File::open(&writable).expect("memfd, read-only");
    unsafe { libc::close(fd as i32) };
    let path = format!("/proc/self/fd/{}", std::os::fd::AsRawFd::as_raw_fd(&readable));
    victim_dies(Command::new(path), "from a memfd");
    drop(readable);

    let mut loader = Command::new("/lib64/ld-linux-x86-64.so.2");
    loader.arg(&exe);
    victim_dies(loader, "through the loader");
}

fn scenario_escape_fork_rearm() {
    std::env::set_var("LP_HARDEN_POLICY", "quarantine");
    let _active = install("lazypoline-hardened", Box::new(interpose::PassthroughHandler));
    let pid = unsafe { libc::fork() };
    assert!(pid >= 0, "fork failed");
    if pid == 0 {
        // Child of a hardened process: ordinary syscalls still work
        // (via libc — `attacker_syscall` must stay unexecuted and
        // unpatched until the attack)...
        assert!(std::process::id() > 0);
        // ...and the inherited backstop still catches the escape.
        let caught = std::panic::catch_unwind(|| {
            attack(syscalls::nr::GETUID) >= 0 && lazypoline::harden::bypass_blocked() >= 1
        });
        std::process::exit(if caught.unwrap_or(false) { 42 } else { 7 });
    }
    let mut status = 0;
    let r = unsafe { libc::waitpid(pid, &mut status, 0) };
    assert_eq!(r, pid, "waitpid failed");
    assert!(libc::WIFEXITED(status), "fork child died: status {status:#x}");
    assert_eq!(
        libc::WEXITSTATUS(status),
        42,
        "fork child must catch the escape"
    );
}

extern "C" {
    /// glibc's `getppid`: `mov eax, 110; syscall; ret`.
    fn getppid() -> libc::pid_t;
}

/// The `0f 05` of libc's `getppid`, checked never rewritten: nothing in
/// a scenario calls it before its attack does.
fn libc_getppid_site() -> *const [u8; 2] {
    let f = getppid as *const u8;
    // SAFETY: the wrapper's first bytes are mapped text.
    let text = unsafe { std::slice::from_raw_parts(f, 16) };
    let at = text
        .windows(2)
        .position(|w| w == [0x0f, 0x05])
        .unwrap_or_else(|| panic!("no syscall in libc's getppid: {text:02x?}"));
    f.wrapping_add(at).cast()
}

/// The parent's pid, asked from the gate: no site is run, so none is
/// rewritten.
fn ppid_from_gate() -> u64 {
    // SAFETY: getppid touches no memory.
    unsafe { zpoline::gate_syscall(&syscalls::SyscallArgs::nullary(syscalls::nr::GETPPID)) }
}

/// SUD off from the gate, then libc's own `getppid`, whose `0f 05` was
/// never rewritten: the backstop admits the gate alone, so the syscall
/// traps, is counted, and is quarantined back through the interposer.
fn scenario_escape_libc() {
    std::env::set_var("LP_HARDEN_POLICY", "quarantine");
    let active = install("lazypoline-hardened", Box::new(interpose::PassthroughHandler));
    assert!(lazypoline::harden::backstop_armed(), "backstop must arm");
    let site = libc_getppid_site();
    assert_eq!(unsafe { *site }, [0x0f, 0x05], "libc's getppid was rewritten");
    let ppid = ppid_from_gate();
    let before = active.stats().bypass_blocked;
    sud_off_from_gate();
    // SAFETY: getppid touches no memory.
    let got = unsafe { getppid() } as u64;
    let after = active.stats().bypass_blocked;
    assert_eq!(got, ppid, "quarantined getppid result");
    assert_eq!(after - before, 1, "the backstop let libc's syscall through");
    assert_interposed("after the quarantine");
}

/// A raw `clone(CLONE_VM | SIGCHLD)` child — one the engine does not
/// enrol (no `CLONE_SETTLS`), which inherits the backstop — runs libc's
/// never-rewritten `getppid` and would then leave by `exit(0)` from the
/// gate. The kill policy takes the child alone: the parent lives on and
/// sees it die by `SIGKILL`.
fn scenario_escape_raw_clone() {
    const CLONE_VM: u64 = 0x100;
    const SIGCHLD: u64 = 17;
    std::env::set_var("LP_HARDEN_POLICY", "kill");
    let active = install("lazypoline-hardened", Box::new(interpose::PassthroughHandler));
    assert!(lazypoline::harden::backstop_armed(), "backstop must arm");
    let site = libc_getppid_site();
    assert_eq!(unsafe { *site }, [0x0f, 0x05], "libc's getppid was rewritten");
    let before = active.stats().bypass_blocked;
    unsafe {
        let stack = libc::mmap(
            std::ptr::null_mut(),
            64 * 1024,
            libc::PROT_READ | libc::PROT_WRITE,
            libc::MAP_PRIVATE | libc::MAP_ANONYMOUS | libc::MAP_STACK,
            -1,
            0,
        );
        assert_ne!(stack, libc::MAP_FAILED);
        let top = (stack as usize + 64 * 1024) & !15;
        let pid: i64;
        // The child resumes after the `syscall` on `top`, with rax = 0
        // and no other register of this frame: the dispatcher's `clone`
        // left from inside it. So the calls name their targets.
        std::arch::asm!(
            "syscall",
            "test rax, rax",
            "jnz 2f",
            "call {getppid}",
            "mov eax, 60",
            "xor edi, edi",
            "call {gate}",
            "2:",
            getppid = sym getppid,
            gate = sym zpoline::trampoline::lp_zpoline_gate_syscall,
            inlateout("rax") syscalls::nr::CLONE as i64 => pid,
            in("rdi") CLONE_VM | SIGCHLD,
            in("rsi") top,
            in("rdx") 0,
            in("r10") 0,
            in("r8") 0,
            out("rcx") _,
            out("r11") _,
        );
        assert!(pid > 0, "clone: {pid}");
        let mut status = 0;
        assert_eq!(libc::waitpid(pid as i32, &mut status, 0), pid as i32);
        assert!(
            !libc::WIFEXITED(status) && status & 0x7f == libc::SIGKILL,
            "the raw clone child ran libc's syscall: status {status:#x}"
        );
        libc::munmap(stack, 64 * 1024);
    }
    assert_eq!(active.stats().bypass_blocked - before, 1);
    assert_interposed("the parent, after its child died");
}

/// Hardened mode on the `PrescanOnly` rung: SUD enrolment fails, so no
/// thread is enrolled, and the backstop — which admits the gate alone —
/// does not arm: libc's syscalls would die under it. File I/O still
/// works.
fn scenario_prescan_hardened() {
    let cfg = mechanism::EnvConfig {
        faults: faultinject::parse_spec("sud_enroll:every=1").unwrap(),
        ..mechanism::EnvConfig::from_env().expect("the harness passes a valid environment")
    };
    let _active = mechanism::by_name("lazypoline-hardened")
        .unwrap()
        .install_with(Box::new(interpose::PassthroughHandler), &cfg)
        .unwrap_or_else(|e| panic!("install lazypoline-hardened: {e}"));
    let h = lazypoline::health();
    assert_eq!(h.mode, lazypoline::Mode::PrescanOnly, "{h:?}");
    assert_eq!(h.harden, lazypoline::HardenLevel::Unprotected, "{h:?}");
    assert!(!lazypoline::harden::backstop_armed());
    let tmp = std::env::temp_dir().join(format!("lp-prescan-hardened-{}", std::process::id()));
    std::fs::write(&tmp, b"prescan").unwrap();
    assert_eq!(std::fs::read(&tmp).unwrap(), b"prescan");
    std::fs::remove_file(&tmp).unwrap();
}

/// Every engine row on a host that lacks one rung — page zero or SUD,
/// taken away by a seccomp filter as `vm.mmap_min_addr > 0` or an old
/// kernel would — and under the fault seam that models the same loss.
/// The host's refusal refuses a row that needs the rung (the parent of
/// this check probed before installing); the seam's degrades it along
/// the ladder. One forked child per case: the rung is decided once per
/// process.
fn scenario_row_refusals() {
    const REFUSED: i32 = 2;
    let rung = |m: lazypoline::Mode| 10 + m as i32;
    // mmap(0, …, MAP_FIXED, …) fails with EPERM, as under
    // `vm.mmap_min_addr > 0`; every other mmap passes.
    let no_page_zero = {
        let insn = |code, jt, jf, k| SockFilter { code, jt, jf, k };
        vec![
            insn(0x20, 0, 0, 0),
            insn(0x15, 0, 7, syscalls::nr::MMAP as u32),
            insn(0x20, 0, 0, 16),
            insn(0x15, 0, 5, 0),
            insn(0x20, 0, 0, 20),
            insn(0x15, 0, 3, 0),
            insn(0x20, 0, 0, 40),
            insn(0x45, 0, 1, libc::MAP_FIXED as u32),
            insn(0x06, 0, 0, SECCOMP_RET_ERRNO | libc::EPERM as u32),
            insn(0x06, 0, 0, 0x7fff_0000),
        ]
    };
    let no_sud = seccomp_by_number(
        &[syscalls::nr::PRCTL],
        SECCOMP_RET_ERRNO | libc::EINVAL as u32,
    );
    let base = mechanism::EnvConfig::from_env().expect("the harness passes a valid environment");
    for row in [
        "sud",
        "zpoline",
        "lazypoline-nox",
        "lazypoline",
        "lazypoline-nobatch",
        "lazypoline-hardened",
    ] {
        let rewrites = row != "sud";
        let cases: [(&str, Option<&[SockFilter]>, &str, i32); 4] = [
            (
                "host without page zero",
                Some(&no_page_zero),
                "",
                if rewrites {
                    REFUSED
                } else {
                    rung(lazypoline::Mode::SudOnly)
                },
            ),
            (
                "trampoline_install seam",
                None,
                "trampoline_install:every=1",
                rung(lazypoline::Mode::SudOnly),
            ),
            ("host without SUD", Some(&no_sud), "", REFUSED),
            (
                "sud_enroll seam",
                None,
                "sud_enroll:every=1",
                rung(lazypoline::Mode::PrescanOnly),
            ),
        ];
        for (case, filter, faults, expected) in cases {
            let cfg = mechanism::EnvConfig {
                faults: faultinject::parse_spec(faults).unwrap(),
                ..base.clone()
            };
            unsafe {
                let pid = libc::fork();
                assert!(pid >= 0, "fork failed");
                if pid == 0 {
                    if let Some(f) = filter {
                        arm_seccomp(f);
                    }
                    let code = match mechanism::by_name(row)
                        .unwrap()
                        .install_with(Box::new(interpose::PassthroughHandler), &cfg)
                    {
                        Ok(active) => {
                            let code = rung(lazypoline::mode());
                            std::mem::forget(active);
                            code
                        }
                        Err(mechanism::InstallError::Unsupported(_)) => REFUSED,
                        Err(_) => 3,
                    };
                    libc::_exit(code);
                }
                let mut status = 0;
                assert_eq!(libc::waitpid(pid, &mut status, 0), pid);
                assert!(
                    libc::WIFEXITED(status),
                    "{row} on a {case}: status {status:#x}"
                );
                assert_eq!(
                    libc::WEXITSTATUS(status),
                    expected,
                    "{row} on a {case} (2 refused, 3 failed otherwise, 11–13 Hybrid/SudOnly/PrescanOnly)"
                );
            }
        }
    }
}

// ——— syscall-flow-integrity (sfip) scenarios ————————————————————————

/// The nr asm_nosys() issues — never used by this process otherwise,
/// so `forbid_into(NOSYS_NR)` makes a crafted policy with exactly one
/// reachable violation.
const NOSYS_NR: u64 = 500;

fn enosys() -> u64 {
    -(libc::ENOSYS as i64) as u64
}

/// Saves `policy` to a temp file and exports the sfip install env.
fn sfip_arm(policy: &sfip::Policy, action: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!(
        "lp-sfip-{action}-{}.sfip",
        std::process::id()
    ));
    policy.save(&path).expect("policy saves");
    std::env::set_var(sfip::POLICY_ENV, &path);
    std::env::set_var(sfip::ACTION_ENV, action);
    path
}

/// An allow-everything automaton with the one transition target the
/// attack uses carved out.
fn sfip_deny_nosys_policy() -> sfip::Policy {
    let mut policy = sfip::Policy::allow_all("native-escape");
    policy.forbid_into(NOSYS_NR);
    policy
}

/// The fixed workload both sfip phases run: raw getpid loop plus one
/// libc file round-trip.
fn sfip_workload() {
    let pid = std::process::id() as u64;
    for _ in 0..20 {
        assert_eq!(asm_getpid(), pid);
    }
    let probe = std::env::temp_dir().join(format!("lp-sfip-probe-{}", std::process::id()));
    std::fs::write(&probe, b"flow").unwrap();
    assert_eq!(std::fs::read(&probe).unwrap(), b"flow");
    std::fs::remove_file(&probe).unwrap();
}

fn scenario_sfip_native() {
    // Learn from this process's own recorded trace, then enforce over
    // the identical workload. The workload is recorded twice so the
    // steady-state flow (all sites already patched, allocator warm) is
    // fully in the automaton — the enforcement run is that steady
    // state's third iteration.
    let trace = std::env::temp_dir().join(format!("lp-sfip-learn-{}.lpt", std::process::id()));
    std::env::set_var("LP_TRACE_OUT", &trace);
    let mut rec = install("lazypoline+record", Box::new(interpose::PassthroughHandler));
    std::env::remove_var("LP_TRACE_OUT");
    sfip_workload();
    sfip_workload();
    rec.detach();
    rec.finish_recording()
        .expect("a trace session is active")
        .expect("trace finishes");
    drop(rec);
    let (header, records) = mechanism::replay::read_trace_path(&trace).expect("trace decodes");
    std::fs::remove_file(&trace).unwrap();
    let policy =
        sfip::Policy::learn(&records, &header.source_mechanism).expect("native trace learns");

    let path = std::env::temp_dir().join(format!("lp-sfip-native-{}.sfip", std::process::id()));
    policy.save(&path).expect("policy saves");
    // A learned number with a legal transition (getpid → getpid), issued
    // from a site no recording saw: mapped before the first install, so
    // its mmap is not in the checked flow.
    let jit: extern "C" fn() -> u64 = unsafe { std::mem::transmute(emit_getpid_page(1)) };
    let pid = std::process::id() as u64;
    for origins in [false, true] {
        let cfg = mechanism::EnvConfig {
            sfip_policy: Some(path.clone()),
            sfip_action: sfip::ViolationAction::Count,
            sfip_origins: origins,
            ..mechanism::EnvConfig::default()
        };
        let mut active = mechanism::by_name("lazypoline+sfip")
            .expect("+sfip composes natively")
            .install_with(Box::new(interpose::PassthroughHandler), &cfg)
            .unwrap_or_else(|e| panic!("install lazypoline+sfip: {e}"));
        sfip_workload();
        let learned = active.stats();
        assert!(learned.sfip_checks > 0, "no syscalls were flow-checked: {learned:?}");
        assert_eq!(
            learned.sfip_violations, 0,
            "origins {origins}: the learned workload must replay inside its own automaton: {learned:?}"
        );
        assert_eq!(asm_getpid(), pid);
        assert_eq!(jit(), pid);
        sfip_workload();
        active.detach();
        let stats = active.stats();
        assert_eq!(
            stats.sfip_violations, origins as u64,
            "origins {origins}: only the JIT site is off the learned origins: {stats:?}"
        );
        println!(
            "sfip native, origins {origins}: learned {} transitions, {} checks, {} violations",
            policy.transitions(),
            stats.sfip_checks,
            stats.sfip_violations
        );
    }
    std::fs::remove_file(&path).unwrap();
}

/// The guest's flow, learned from a recording of it, enforced on it and
/// on its escape variant ([`guest::escape`]: the RWX page issues
/// `getuid`). Plain lazypoline runs the escape like any other call; the
/// learned automaton flags `mmap → getuid` and `getuid → getpid`.
fn scenario_sfip_guest() {
    let dir = std::env::temp_dir();
    let trace = dir.join(format!("lp-sfip-guest-{}.lpt", std::process::id()));
    let cfg = mechanism::EnvConfig {
        trace_out: Some(trace.clone()),
        ..mechanism::EnvConfig::default()
    };
    let mut rec = mechanism::by_name("lazypoline+record")
        .expect("+record composes natively")
        .install_with(Box::new(interpose::PassthroughHandler), &cfg)
        .expect("native record install");
    guest::window();
    rec.detach();
    rec.finish_recording()
        .expect("a trace session is active")
        .expect("trace finishes");
    drop(rec);
    let (header, records) = replay::read_trace_path(&trace).expect("trace decodes");
    std::fs::remove_file(&trace).unwrap();
    assert_eq!(sysnames(&records), guest::WINDOW);
    let policy = sfip::Policy::learn(&records, &header.source_mechanism).expect("the guest learns");
    let path = dir.join(format!("lp-sfip-guest-{}.sfip", std::process::id()));
    policy.save(&path).expect("policy saves");

    let run = |name: &str, action: sfip::ViolationAction, body: fn()| {
        let cfg = mechanism::EnvConfig {
            sfip_policy: Some(path.clone()),
            sfip_action: action,
            ..mechanism::EnvConfig::default()
        };
        let mut active = mechanism::by_name(name)
            .expect("name parses")
            .install_with(Box::new(interpose::PassthroughHandler), &cfg)
            .unwrap_or_else(|e| panic!("install {name}: {e}"));
        body();
        active.detach();
        active.stats()
    };
    use sfip::ViolationAction::{Count, Quarantine};
    let clean = run("lazypoline+sfip", Count, guest::window);
    assert_eq!((clean.sfip_checks, clean.sfip_violations), (4, 0), "{clean:?}");
    let plain = run("lazypoline", Count, guest::escape);
    assert_eq!((plain.dispatches, plain.sfip_checks), (4, 0), "{plain:?}");
    let counted = run("lazypoline+sfip", Count, guest::escape);
    assert_eq!((counted.sfip_checks, counted.sfip_violations), (4, 2), "{counted:?}");
    // Quarantine stops checking at the first violation, the getuid.
    let frozen = run("lazypoline+sfip", Quarantine, guest::escape);
    assert_eq!((frozen.sfip_checks, frozen.sfip_violations), (3, 1), "{frozen:?}");
    std::fs::remove_file(&path).unwrap();
}

fn scenario_sfip_escape_plain() {
    // Plain lazypoline fails open on a *flow* violation: nr 500 right
    // after a getpid burst is interposed like any other syscall,
    // reaches the kernel, and nothing flags it.
    let mut active = install("lazypoline", Box::new(interpose::PassthroughHandler));
    let pid = std::process::id() as u64;
    assert_eq!(asm_getpid(), pid);
    assert_eq!(asm_nosys(), enosys(), "nr 500 executed unflagged");
    active.detach();
    let stats = active.stats();
    assert!(stats.dispatches >= 2, "both syscalls interposed: {stats:?}");
    assert_eq!(stats.sfip_checks, 0, "no flow checking without +sfip");
    assert_eq!(stats.sfip_violations, 0, "{stats:?}");
}

fn scenario_sfip_escape_count() {
    // count: the off-policy syscall still executes, but is audited.
    let path = sfip_arm(&sfip_deny_nosys_policy(), "count");
    let mut active = install("lazypoline+sfip", Box::new(interpose::PassthroughHandler));
    let pid = std::process::id() as u64;
    for _ in 0..5 {
        assert_eq!(asm_getpid(), pid);
    }
    assert_eq!(asm_nosys(), enosys(), "count mode does not block");
    active.detach();
    let stats = active.stats();
    std::fs::remove_file(&path).unwrap();
    assert!(stats.sfip_checks >= 6, "{stats:?}");
    assert_eq!(
        stats.sfip_violations, 1,
        "exactly the forbidden →500 transition: {stats:?}"
    );
}

fn scenario_sfip_escape_quarantine() {
    // quarantine: first violation disables checking; execution
    // continues uninterposed by the policy (but still dispatched).
    let path = sfip_arm(&sfip_deny_nosys_policy(), "quarantine");
    let mut active = install("lazypoline+sfip", Box::new(interpose::PassthroughHandler));
    let pid = std::process::id() as u64;
    assert_eq!(asm_getpid(), pid);
    assert_eq!(asm_nosys(), enosys(), "first violation passes through");
    // After quarantine the checker is frozen: further off-policy
    // syscalls run but are no longer counted.
    assert_eq!(asm_nosys(), enosys());
    assert_eq!(asm_getpid(), pid, "process still fully functional");
    active.detach();
    let stats = active.stats();
    std::fs::remove_file(&path).unwrap();
    assert_eq!(stats.sfip_mode, "quarantine");
    assert_eq!(
        stats.sfip_violations, 1,
        "checking froze after the first violation: {stats:?}"
    );
}

/// Hidden victim for `scenario_sfip_escape_kill`: the parent exports a
/// deny-500 policy with action=kill; the off-policy syscall must kill
/// the process mid-attack.
fn scenario_sfip_escape_kill_victim() {
    let _active = install("lazypoline+sfip", Box::new(interpose::PassthroughHandler));
    println!("ATTACK_IMMINENT");
    asm_nosys();
    // Unreachable under the kill action.
    println!("SURVIVED");
    std::process::exit(3);
}

fn scenario_sfip_escape_kill() {
    let path = std::env::temp_dir().join(format!("lp-sfip-kill-{}.sfip", std::process::id()));
    sfip_deny_nosys_policy().save(&path).expect("policy saves");
    let exe = std::env::current_exe().expect("self path");
    let out = Command::new(&exe)
        .env("LP_SCENARIO", "sfip_escape_kill_victim")
        .env(sfip::POLICY_ENV, &path)
        .env(sfip::ACTION_ENV, "kill")
        .env_remove("LAZYPOLINE_FAULTS")
        .output()
        .expect("spawn victim");
    std::fs::remove_file(&path).unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Killed by SIGKILL (no exit code) or the exit_group(137) fallback.
    let code = out.status.code();
    assert!(
        (code.is_none() || code == Some(137))
            && stdout.contains("ATTACK_IMMINENT")
            && !stdout.contains("SURVIVED"),
        "victim must die on the off-policy syscall: status {:?}, stdout:\n{stdout}",
        out.status,
    );
}

// ——— the shadow of the executable mappings —————————————————————————
//
// The dispatcher keeps a shadow of what it saw mapped executable
// (`zpoline::maps::shadow`); the patch window asks it before the kernel.
// `zpoline::patcher::kernel_queries` counts what the window still asks:
// store probes and mapping lookups.

fn kernel_queries() -> u64 {
    zpoline::patcher::kernel_queries()
}

const RWX: libc::c_int = libc::PROT_READ | libc::PROT_WRITE | libc::PROT_EXEC;
const RX: libc::c_int = libc::PROT_READ | libc::PROT_EXEC;

/// Runs the getpid site at `site` (its first execution) and returns the
/// patch window's kernel queries for it; the site must come back
/// rewritten.
unsafe fn queries_to_patch(site: *mut u8, task: &str) -> u64 {
    let pid = std::process::id() as u64;
    let f: extern "C" fn() -> u64 = std::mem::transmute(site);
    let before = kernel_queries();
    let got = f();
    let queries = kernel_queries() - before;
    assert_eq!(got, pid, "{task}");
    assert_eq!(
        std::slice::from_raw_parts(site.add(5), 2),
        &[0xff, 0xd0],
        "{task}: site not rewritten"
    );
    queries
}

/// [`queries_to_patch`] of a one-site RWX page mapped just now, through
/// the dispatcher.
fn queries_for_a_fresh_page(task: &str) -> u64 {
    unsafe {
        let page = emit_getpid_page(1);
        let queries = queries_to_patch(page, task);
        libc::munmap(page.cast(), 4096);
        queries
    }
}

/// The protection the kernel reports for the page at `p`.
fn prot_of(p: *mut u8) -> Option<libc::c_int> {
    zpoline::patcher::region_perms(p as usize).map(|r| r.prot())
}

/// An RWX page mapped after the install is rewritten with no kernel
/// query: the dispatcher saw its `mmap`. A page mapped before the
/// install is the control: the shadow never saw it, so its window asks.
fn scenario_shadow_rwx_without_query() {
    let early = unsafe { emit_getpid_page(1) };
    let mut active = install("lazypoline", Box::new(interpose::PassthroughHandler));
    let before = active.stats();
    let control = unsafe { queries_to_patch(early, "a page mapped before the install") };
    assert!(
        control > 0,
        "the window asked nothing for a page the shadow never saw"
    );
    for i in 0..3 {
        let queries = queries_for_a_fresh_page(&format!("fresh page {i}"));
        assert_eq!(queries, 0, "fresh page {i}: the window asked the kernel");
    }
    let after = active.stats();
    assert!(after.sites_patched - before.sites_patched >= 4, "{after:?}");
    assert_eq!(
        after.pages_blocklisted, before.pages_blocklisted,
        "{after:?}"
    );
    active.detach();
}

/// A raw `clone(CLONE_VM | SIGCHLD)` from a fresh site in this
/// executable's text: the child shares the address space, is not
/// enrolled (no `CLONE_SETTLS`), and exits at once.
fn raw_clone_vm_child() {
    const CLONE_VM: u64 = 0x100;
    const SIGCHLD: u64 = 17;
    unsafe {
        let stack = libc::mmap(
            std::ptr::null_mut(),
            64 * 1024,
            libc::PROT_READ | libc::PROT_WRITE,
            libc::MAP_PRIVATE | libc::MAP_ANONYMOUS | libc::MAP_STACK,
            -1,
            0,
        );
        assert_ne!(stack, libc::MAP_FAILED);
        let top = (stack as usize + 64 * 1024) & !15;
        let pid: i64;
        // The child resumes after the `syscall` on `top`, with rax = 0,
        // and leaves by `exit` before it touches any memory.
        std::arch::asm!(
            "syscall",
            "test rax, rax",
            "jnz 2f",
            "mov eax, 60",
            "xor edi, edi",
            "syscall",
            "2:",
            inlateout("rax") syscalls::nr::CLONE as i64 => pid,
            in("rdi") CLONE_VM | SIGCHLD,
            in("rsi") top,
            in("rdx") 0,
            in("r10") 0,
            in("r8") 0,
            out("rcx") _,
            out("r11") _,
        );
        assert!(pid > 0, "clone: {pid}");
        let mut status = 0;
        assert_eq!(libc::waitpid(pid as i32, &mut status, 0), pid as i32);
        assert!(
            libc::WIFEXITED(status) && libc::WEXITSTATUS(status) == 0,
            "{status:#x}"
        );
        libc::munmap(stack, 64 * 1024);
    }
}

/// Every condition under which the shadow must not vouch falls back to
/// the probe and the lookup, and the page is still rewritten: a second
/// thread alive at the install, a raw `CLONE_VM` child the engine does
/// not enrol, and `userfaultfd`. Each case starts from a fresh install
/// whose fresh page takes no query (the control).
fn scenario_shadow_untrusted_probes() {
    let handler = || Box::new(interpose::PassthroughHandler);

    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let parked = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        })
    };
    let active = install("lazypoline", handler());
    assert!(queries_for_a_fresh_page("a second thread at install") > 0);
    stop.store(true, Ordering::SeqCst);
    parked.join().unwrap();
    drop(active);

    let active = install("lazypoline", handler());
    assert_eq!(queries_for_a_fresh_page("the only thread"), 0);
    raw_clone_vm_child();
    assert!(queries_for_a_fresh_page("after a CLONE_VM child") > 0);
    drop(active);

    let active = install("lazypoline", handler());
    assert_eq!(queries_for_a_fresh_page("the only thread, again"), 0);
    unsafe {
        let page = ret_filled_rwx_page();
        let userfaultfd = syscall_site(page, 0, syscalls::nr::USERFAULTFD);
        let fd = userfaultfd(libc::O_CLOEXEC as u64, 0, 0);
        if syscalls::Errno::from_ret(fd).is_none() {
            libc::close(fd as i32);
        }
        libc::munmap(page.cast(), 4096);
    }
    assert!(queries_for_a_fresh_page("after userfaultfd") > 0);
    drop(active);
}

/// An RWX page `mprotect`ed to `r-x` through the dispatcher: its fresh
/// sites get their window, and `r-x` comes back. The first page asks
/// the kernel (the `mprotect` forgot the range); the second page of the
/// mapping takes its window from the kept answer, with no query.
fn scenario_shadow_mprotect_window() {
    let mut active = install("lazypoline", Box::new(interpose::PassthroughHandler));
    unsafe {
        let p = libc::mmap(
            std::ptr::null_mut(),
            8192,
            RWX,
            libc::MAP_PRIVATE | libc::MAP_ANONYMOUS,
            -1,
            0,
        ) as *mut u8;
        assert_ne!(p.cast(), libc::MAP_FAILED);
        std::ptr::write_bytes(p, 0xc3, 8192);
        syscall_site(p, 0, syscalls::nr::GETPID);
        syscall_site(p, 64, syscalls::nr::GETPID);
        let vouched = |p: *mut u8| zpoline::maps::shadow::perms(p as usize).map(|r| r.prot());
        assert_eq!(vouched(p), Some(RWX), "the dispatched mmap was noted");
        // A shadow that kept the RWX range would have the window store
        // into an r-x page: SIGSEGV in the SIGSYS handler.
        assert_eq!(libc::mprotect(p.cast(), 8192, RX), 0);

        let first = queries_to_patch(p, "first r-x page");
        let second = queries_to_patch(p.add(4096), "second r-x page");
        assert!(first > 0, "the window asked nothing for a forgotten range");
        assert_eq!(second, 0, "the kept answer did not open the window");
        assert_eq!((prot_of(p), prot_of(p.add(4096))), (Some(RX), Some(RX)));
        libc::munmap(p.cast(), 8192);
    }
    active.detach();
}

/// A `MAP_FIXED` `mmap` replaces a noted RWX range with a private `r-x`
/// mapping of a file holding a fresh site: the range is forgotten, and
/// the page gets its window as in `shadow_mprotect_window`.
fn scenario_shadow_map_fixed() {
    let mut active = install("lazypoline", Box::new(interpose::PassthroughHandler));
    unsafe {
        let mut code = [0xc3u8; 4096];
        code[..8].copy_from_slice(&[0xb8, 0x27, 0, 0, 0, 0x0f, 0x05, 0xc3]);
        let name = b"lp shadow\0";
        let fd = syscalls::raw::syscall2(syscalls::nr::MEMFD_CREATE, name.as_ptr() as u64, 0);
        assert!(syscalls::Errno::from_ret(fd).is_none(), "memfd_create");
        assert_eq!(libc::write(fd as i32, code.as_ptr().cast(), 4096), 4096);

        let p = emit_getpid_page(1);
        assert_eq!(
            zpoline::maps::shadow::perms(p as usize).map(|r| r.prot()),
            Some(RWX)
        );
        let flags = libc::MAP_PRIVATE | libc::MAP_FIXED;
        let q = libc::mmap(p.cast(), 4096, RX, flags, fd as i32, 0) as *mut u8;
        assert_eq!(q, p, "MAP_FIXED");
        libc::close(fd as i32);
        // The RWX range kept would be a store into the r-x page.

        assert!(queries_to_patch(p, "the file's r-x page") > 0);
        assert_eq!(prot_of(p), Some(RX));
        libc::munmap(p.cast(), 4096);
    }
    active.detach();
}

/// A `brk` that lowers the break empties the shadow, and so does `shmdt`.
/// An `shmat` over a noted RWX page (`SHM_REMAP`) with a read-only
/// segment empties it too: the page is then not writable, and its fresh
/// site, whose window cannot open on a read-only segment, is emulated.
fn scenario_shadow_brk_shm() {
    const SHM_RDONLY: u64 = 0o10000;
    const SHM_REMAP: u64 = 0o40000;
    const SHM_EXEC: u64 = 0o100000;
    const IPC_PRIVATE: u64 = 0;
    const IPC_CREAT: u64 = 0o1000;
    const IPC_RMID: u64 = 0;
    use syscalls::nr;

    let active = install("lazypoline", Box::new(interpose::PassthroughHandler));
    unsafe {
        let calls = ret_filled_rwx_page();
        let brk = syscall_site(calls, 0, nr::BRK);
        let shmget = syscall_site(calls, 1, nr::SHMGET);
        let shmat = syscall_site(calls, 2, nr::SHMAT);
        let shmdt = syscall_site(calls, 3, nr::SHMDT);
        let shmctl = syscall_site(calls, 4, nr::SHMCTL);
        let noted = |p: *mut u8| zpoline::maps::shadow::perms(p as usize).is_some();

        // Raise the break by two pages and give them back, with nothing
        // allocated in between: the heap's own top is below `now`.
        let p = emit_getpid_page(1);
        let now = brk(0, 0, 0);
        let raised = brk(now + 8192, 0, 0);
        let still = noted(p);
        let lowered = brk(now, 0, 0);
        let emptied = !noted(p);
        assert_eq!((raised, lowered), (now + 8192, now));
        assert!(still, "raising the break emptied the shadow");
        assert!(emptied, "lowering the break left the shadow vouching");

        // A segment holding a fresh site, written through a first attach.
        let id = shmget(IPC_PRIVATE, 4096, IPC_CREAT | 0o600);
        assert!(syscalls::Errno::from_ret(id).is_none(), "shmget");
        let rw = shmat(id, 0, 0) as *mut u8;
        assert!(syscalls::Errno::from_ret(rw as u64).is_none(), "shmat");
        std::ptr::write_bytes(rw, 0xc3, 4096);
        syscall_site(rw, 0, nr::GETPID);

        let p = emit_getpid_page(1);
        assert!(noted(p));
        assert_eq!(shmdt(rw as u64, 0, 0), 0);
        assert!(!noted(p), "shmdt left the shadow vouching");

        let p = emit_getpid_page(1);
        assert!(noted(p));
        let at = shmat(id, p as u64, SHM_RDONLY | SHM_EXEC | SHM_REMAP) as *mut u8;
        assert_eq!(at, p, "shmat over the noted page");
        // The RWX range kept would be a store into the read-only segment.
        let before = active.stats();
        let f: extern "C" fn() -> u64 = std::mem::transmute(p);
        assert_eq!(f(), std::process::id() as u64);
        let after = active.stats();
        assert_eq!(
            after.unpatchable_emulations - before.unpatchable_emulations,
            1
        );
        assert_eq!(std::slice::from_raw_parts(p.add(5), 2), &[0x0f, 0x05]);
        assert_eq!(shmdt(p as u64, 0, 0), 0);
        assert_eq!(shmctl(id, IPC_RMID, 0), 0);
        libc::munmap(calls.cast(), 4096);
    }
    drop(active);
}

/// A signal that lands while the thread's `SIGSYS` handler holds the
/// rewrite lock, and whose handler runs a fresh site, must not wait for
/// that lock: the site is emulated and rewritten on its next trap. A
/// 50 µs `ITIMER_REAL` whose `SIGALRM` handler runs a fresh site each
/// time, against a main loop that churns fresh one-site RWX pages, in a
/// fork child a watchdog kills if it hangs.
fn scenario_rewrite_lock_signal() {
    const SIGALRM: libc::c_int = 14;
    const ITIMER_REAL: u64 = 0;
    const WNOHANG: libc::c_int = 1;
    const POOL_PAGES: usize = 256;
    const PAGES: usize = 100_000;
    static POOL: AtomicU64 = AtomicU64::new(0);
    static TAKEN: AtomicU64 = AtomicU64::new(0);

    /// Runs the next never-executed site of the pool: the pages' sites
    /// from the last slot down, so that no batch sweep reaches one first.
    extern "C" fn on_alarm(_sig: libc::c_int) {
        let n = TAKEN.fetch_add(1, Ordering::Relaxed) as usize;
        if n < POOL_PAGES * 64 {
            let site = POOL.load(Ordering::Relaxed) as usize + (n / 64) * 4096 + (63 - n % 64) * 64;
            let f: extern "C" fn() -> u64 = unsafe { std::mem::transmute(site) };
            f();
        }
    }

    let child = unsafe { libc::fork() };
    assert!(child >= 0, "fork");
    if child == 0 {
        let _active = install("lazypoline", Box::new(interpose::PassthroughHandler));
        unsafe {
            let pool = libc::mmap(
                std::ptr::null_mut(),
                POOL_PAGES * 4096,
                RWX,
                libc::MAP_PRIVATE | libc::MAP_ANONYMOUS,
                -1,
                0,
            ) as *mut u8;
            assert_ne!(pool.cast(), libc::MAP_FAILED);
            std::ptr::write_bytes(pool, 0xc3, POOL_PAGES * 4096);
            for page in 0..POOL_PAGES {
                for slot in 0..64 {
                    syscall_site(pool.add(page * 4096), slot, syscalls::nr::GETPID);
                }
            }
            POOL.store(pool as u64, Ordering::Relaxed);
            let mut sa: libc::sigaction = std::mem::zeroed();
            sa.sa_sigaction = on_alarm as *const () as usize;
            sa.sa_flags = libc::SA_RESTART;
            assert_eq!(libc::sigaction(SIGALRM, &sa, std::ptr::null_mut()), 0);
            let every_50us = [0u64, 50, 0, 50]; // interval, then value: sec, usec
            let off = [0u64; 4];
            let setitimer = |t: &[u64; 4]| {
                syscalls::raw::syscall3(syscalls::nr::SETITIMER, ITIMER_REAL, t.as_ptr() as u64, 0)
            };
            assert_eq!(setitimer(&every_50us), 0);
            // Until the pool runs dry: later alarms run no fresh site.
            let mut pages = 0;
            while pages < PAGES && TAKEN.load(Ordering::Relaxed) < (POOL_PAGES * 64) as u64 {
                let page = emit_getpid_page(1);
                let f: extern "C" fn() -> u64 = std::mem::transmute(page);
                f();
                libc::munmap(page.cast(), 4096);
                pages += 1;
            }
            setitimer(&off);
            let taken = TAKEN.load(Ordering::Relaxed).min((POOL_PAGES * 64) as u64);
            println!("{pages} pages churned, {taken} alarms ran a fresh site");
            libc::_exit(if taken > 0 { 0 } else { 3 });
        }
    }
    let mut status = 0;
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    loop {
        let r = unsafe { libc::waitpid(child, &mut status, WNOHANG) };
        if r == child {
            break;
        }
        if std::time::Instant::now() > deadline {
            unsafe { libc::kill(child, 9) };
            unsafe { libc::waitpid(child, &mut status, 0) };
            panic!("the churning child hung: a signal handler waits for the rewrite lock");
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    assert!(
        libc::WIFEXITED(status) && libc::WEXITSTATUS(status) == 0,
        "child status {status:#x}"
    );
}

/// Page zero is execute-only: under each native base with a trampoline a
/// read of address `0x10` faults, on hosts with protection keys (the
/// kernel backs `PROT_EXEC` alone with one). Elsewhere x86 page tables
/// cannot take the read away, and the scenario skips.
fn scenario_page_zero_execute_only() {
    // SAFETY: glibc returns a pointer to static data for every index.
    let leaf7 = unsafe { *libc::__x86_get_cpuid_feature_leaf(libc::CPUID_INDEX_7) };
    if leaf7.cpuid_array[2] & (1 << 4) == 0 {
        println!("no protection keys (OSPKE clear): page zero stays readable; skipping");
        return;
    }
    for base in [
        "sud",
        "zpoline",
        "lazypoline-nox",
        "lazypoline",
        "lazypoline-nobatch",
        "lazypoline-hardened",
    ] {
        let child = unsafe { libc::fork() };
        assert!(child >= 0, "fork");
        if child == 0 {
            let _active = install(base, Box::new(interpose::PassthroughHandler));
            let byte: u8;
            // SAFETY: a read that faults (the point) or reads the sled.
            unsafe { std::arch::asm!("mov {b}, byte ptr [0x10]", b = out(reg_byte) byte) };
            println!("{base}: read {byte:#x} at 0x10");
            unsafe { libc::_exit(0) };
        }
        let mut status = 0;
        assert_eq!(unsafe { libc::waitpid(child, &mut status, 0) }, child);
        assert_eq!(status & 0x7f, libc::SIGSEGV, "{base}: status {status:#x}");
    }
}
// ——— harness ————————————————————————————————————————————————————————

const SCENARIOS: &[(&str, fn())] = &[
    ("engine_counts", scenario_engine_counts),
    ("signals", scenario_signals),
    ("signals_sud", scenario_signals_sud),
    ("signals_hardened", scenario_signals_hardened),
    ("exec_sigmask_sud", scenario_exec_sigmask_sud),
    ("exec_sigmask_lazypoline", scenario_exec_sigmask_lazypoline),
    ("sigprocmask_sud", scenario_sigprocmask_sud),
    ("sigprocmask_lazypoline", scenario_sigprocmask_lazypoline),
    ("threads", scenario_threads),
    ("fork", scenario_fork),
    ("sud_only", scenario_sud_only),
    ("xstate", scenario_xstate),
    ("xstate_declared", scenario_xstate_declared),
    ("xstate_declared_record", scenario_xstate_declared_record),
    ("resume_registers", scenario_resume_registers),
    ("resume_registers_nox", scenario_resume_registers_nox),
    ("resume_registers_hardened", scenario_resume_registers_hardened),
    ("poison_registers", scenario_poison_registers),
    ("poison_registers_nox", scenario_poison_registers_nox),
    ("nested_miss", scenario_nested_miss),
    ("miss_exit", scenario_miss_exit),
    ("miss_exit_hardened", scenario_miss_exit_hardened),
    ("miss_exit_faults", scenario_miss_exit_faults),
    ("gate_range", scenario_gate_range),
    ("gate_range_hardened", scenario_gate_range_hardened),
    ("interposed_throughout", scenario_interposed_throughout),
    ("interposed_throughout_hardened", scenario_interposed_throughout_hardened),
    ("rewrite_stress", scenario_rewrite_stress),
    ("policy_native", scenario_policy_native),
    ("post_rewrite", scenario_post_rewrite),
    ("hit_rewrite", scenario_hit_rewrite),
    ("hit_rewrite_faults", scenario_hit_rewrite_faults),
    ("latency_histogram", scenario_latency_histogram),
    ("sigprocmask_guard", scenario_sigprocmask_guard),
    ("nested_signals", scenario_nested_signals),
    ("path_remap", scenario_path_remap),
    ("batch_rewrite", scenario_batch_rewrite),
    ("batch_ablation", scenario_batch_ablation),
    ("fault_sud_only", scenario_fault_sud_only),
    ("fault_unpatchable_page", scenario_fault_unpatchable_page),
    ("rwx_patch_without_mprotect", scenario_rwx_patch_without_mprotect),
    ("rwx_patch_without_proc", scenario_rwx_patch_without_proc),
    ("fault_soak", scenario_fault_soak),
    ("fault_soak_sudonly", scenario_fault_soak_sudonly),
    ("panic_quarantine", scenario_panic_quarantine),
    ("fault_prescan_only", scenario_fault_prescan_only),
    ("degraded_smoke", scenario_degraded_smoke),
    ("teardown_from_the_gate", scenario_teardown_from_the_gate),
    ("mechanism_differential", scenario_mechanism_differential),
    ("mechanism_smoke", scenario_mechanism_smoke),
    ("record_replay_native", scenario_record_replay_native),
    ("uring_open_unseen", scenario_uring_open_unseen),
    ("compose_record_sfip", scenario_compose_record_sfip),
    ("hook_stack_native", scenario_hook_stack_native),
    ("harden_full", scenario_harden_full),
    ("escape_selector", scenario_escape_selector),
    ("escape_plain", scenario_escape_plain),
    ("escape_quarantine", scenario_escape_quarantine),
    ("escape_kill", scenario_escape_kill),
    ("escape_kill_unnamed", scenario_escape_kill_unnamed),
    ("escape_fork_rearm", scenario_escape_fork_rearm),
    ("escape_libc", scenario_escape_libc),
    ("escape_raw_clone", scenario_escape_raw_clone),
    ("prescan_hardened", scenario_prescan_hardened),
    ("row_refusals", scenario_row_refusals),
    ("sud_prctl_plain", scenario_sud_prctl_plain),
    ("sud_prctl_refused_hardened", scenario_sud_prctl_refused_hardened),
    ("shadow_rwx_without_query", scenario_shadow_rwx_without_query),
    ("shadow_untrusted_probes", scenario_shadow_untrusted_probes),
    ("shadow_mprotect_window", scenario_shadow_mprotect_window),
    ("shadow_map_fixed", scenario_shadow_map_fixed),
    ("shadow_brk_shm", scenario_shadow_brk_shm),
    ("rewrite_lock_signal", scenario_rewrite_lock_signal),
    ("page_zero_execute_only", scenario_page_zero_execute_only),
    ("sfip_native", scenario_sfip_native),
    ("sfip_guest", scenario_sfip_guest),
    ("sfip_escape_plain", scenario_sfip_escape_plain),
    ("sfip_escape_count", scenario_sfip_escape_count),
    ("sfip_escape_quarantine", scenario_sfip_escape_quarantine),
    ("sfip_escape_kill", scenario_sfip_escape_kill),
];

/// Scenarios reachable via `LP_SCENARIO` but never driven directly —
/// they end abnormally by design (e.g. killed mid-attack).
const HIDDEN_SCENARIOS: &[(&str, fn())] = &[
    ("escape_kill_victim", scenario_escape_kill_victim),
    ("sfip_escape_kill_victim", scenario_sfip_escape_kill_victim),
];

fn main() {
    if let Ok(name) = std::env::var("LP_SCENARIO") {
        let (_, f) = SCENARIOS
            .iter()
            .chain(HIDDEN_SCENARIOS)
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("unknown scenario {name}"));
        f();
        println!("scenario {name}: ok");
        return;
    }

    if !environment_ready() {
        println!("native_engine: SKIPPED (needs SUD + vm.mmap_min_addr=0)");
        return;
    }

    let exe = std::env::current_exe().expect("self path");
    // Most scenarios arm faults via the API and assert exact deltas, so
    // ambient LAZYPOLINE_FAULTS (the CI fault matrix exports it for the
    // whole run) is stripped; degraded_smoke is the one scenario that
    // deliberately honours it.
    let ambient_faults = std::env::var("LAZYPOLINE_FAULTS").ok();
    let mut failed = Vec::new();
    for (name, _) in SCENARIOS {
        let mut cmd = Command::new(&exe);
        cmd.env("LP_SCENARIO", name).env_remove("LAZYPOLINE_FAULTS");
        if *name == "degraded_smoke" {
            if let Some(spec) = &ambient_faults {
                cmd.env("LAZYPOLINE_FAULTS", spec);
            }
        }
        let status = cmd.status().expect("spawn scenario");
        if status.success() {
            println!("native_engine::{name} ... ok");
        } else {
            println!("native_engine::{name} ... FAILED ({status})");
            failed.push(*name);
        }
    }
    if !failed.is_empty() {
        panic!("failed scenarios: {failed:?}");
    }
    println!("native_engine: {} scenarios passed", SCENARIOS.len());
}
