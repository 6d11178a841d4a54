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
use std::sync::atomic::{AtomicU64, Ordering};

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
    signals_under("lazypoline");
}

/// The same under the pure slow path: every syscall is emulated inside
/// the `SIGSYS` handler, so `raise`'s signal is delivered *nested* in
/// it (where `SIGSYS` is blocked), and the wrapper's `rt_sigreturn` is
/// itself emulated there.
fn scenario_signals_sud() {
    signals_under("sud");
}

fn signals_under(base: &str) {
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

    let mut active = install(base, Box::new(Spy));

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
    // After each delivery the selector must be live again: new syscall
    // sites still get discovered.
    let pre = active.stats().signals_wrapped;
    assert!(pre >= 5, "wrapped {pre}");
    assert!(sud::selector() == sud::Dispatch::Block, "selector lost");

    // The raise() syscalls themselves were observed.
    assert!(SEEN_KILL.load(Ordering::SeqCst) >= 1);
    active.detach();
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
    let tmp = std::env::temp_dir().join(format!("lp-sudonly-{}", std::process::id()));
    std::fs::write(&tmp, b"pure sud").unwrap();
    assert_eq!(std::fs::read(&tmp).unwrap(), b"pure sud");
    std::fs::remove_file(&tmp).unwrap();
    active.detach();
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
    let clobber = if state.zmm_live { Clobber::Sse } else { canary.clobber() };
    xstate_cell_under(site, canary, clobber, mask, state, sigsys, what)
}

/// Dispatches of the calling thread that left from the entry stub's
/// miss exit, where the build counts them.
fn stub_exits() -> Option<u64> {
    cfg!(debug_assertions).then(|| zpoline::thread_block().stub_exits())
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
    let cell = format!("mask {mask:?}, {}, {what}, {clobber:?} clobbered, {canary:?}", state.name);
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
    c.mxcsr_in = 0x5f80; // round up: neither the default nor the handler's
    c.fcw_in = 0x0b7f; // round up, extended precision: likewise
    c.avx = canary.avx as u32;
    c.xgetbv1 = canary.xgetbv1 as u32;
    c.uppers_live = state.uppers_live as u32;
    c.x87_mode = state.x87_mode;
    c.zmm_live = state.zmm_live as u32;
    assert!(canary.avx || !state.uppers_live, "{cell}");
    assert!(canary.avx512f || !state.zmm_live, "{cell}");

    XSTATE_CLOBBER.store(clobber as u64, Ordering::Relaxed);
    let (slow_path_hits, left_from_stub) = (lazypoline::stats().slow_path_hits, stub_exits());
    site(&mut *c);
    let left_from_stub = stub_exits().map(|n| n - left_from_stub.expect("counted before"));
    let slow_path_hits = lazypoline::stats().slow_path_hits - slow_path_hits;
    assert_eq!(slow_path_hits, sigsys as u64, "SIGSYS trips, {cell}");
    assert_eq!(sud::selector(), sud::Dispatch::Block, "selector on return, {cell}");
    assert_eq!(left_from_stub.unwrap_or(miss as u64), miss as u64, "stub exits, {cell}");

    // General-purpose registers: all but rax/rcx/r11, under every mask;
    // so the red zone below the slot `call rax` pushes into.
    assert_eq!(c.gpr_out[0], pid, "rax, {cell}");
    assert_eq!(c.gpr_out[1..], c.gpr_in, "GPRs, {cell}");
    assert_eq!(c.rsp_after, c.rsp_before, "rsp, {cell}");
    assert_eq!(c.red_out, c.red_in, "red zone, {cell}");

    // The stub's exit preserves by touching nothing, so there the mask
    // is irrelevant. (A first execution also crosses the SIGSYS handler
    // and its sigreturn trampoline, which preserve what the mask names.)
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
    if rfbm & 1 != 0 {
        assert_eq!(c.fx_after[..24], c.fx_before[..24], "x87 environment, {cell}");
        assert_eq!(c.fx_after[32..160], c.fx_before[32..160], "ST0-7, {cell}");
    }
    if rfbm & 2 != 0 {
        assert_eq!(c.fx_after[24..28], c.fx_before[24..28], "MXCSR, {cell}");
        assert_eq!(c.fx_after[24..28], c.mxcsr_in.to_le_bytes(), "MXCSR, {cell}");
    }
    for (i, (got, want)) in c.vec_out.iter().zip(&c.vec_in).enumerate() {
        if rfbm & 2 != 0 {
            assert_eq!(got[..16], want[..16], "xmm{i}, {cell}");
        }
        if rfbm & 4 != 0 && canary.avx {
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
    use mechanism::XstateMask;
    let detected = Canary::detected();
    if !(detected.avx && detected.xgetbv1) {
        println!("xstate: {detected:?}, running the baseline cells only");
    }
    let mut active = install("lazypoline", Box::new(XstateClobber));

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
                for clobber in [Clobber::Nothing, Clobber::Sse] {
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
    // sigreturn marks x87 in use, the sigreturn trampoline must hand the
    // thread back with the mark cleared — and the next dispatch holds.
    static READY: AtomicU64 = AtomicU64::new(0);
    static HANDLED: AtomicU64 = AtomicU64::new(0);
    extern "C" fn on_usr1(_sig: libc::c_int) {
        HANDLED.store(1, Ordering::SeqCst);
    }
    extern "C" {
        fn pthread_self() -> usize;
        fn pthread_kill(thread: usize, sig: libc::c_int) -> libc::c_int;
    }
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
        if detected.xgetbv1 {
            assert_eq!(xinuse() & 1, 0, "sigreturn trampoline left x87 marked in use");
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
    active.detach();
    assert!(active.stats().sites_patched >= 1);
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

/// What a handler saw around a syscall of its own that it issued from
/// an already rewritten site.
#[derive(Debug, PartialEq)]
struct NestedCall {
    selector_on_entry: u8,
    selector_after: u8,
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
        let selector = || unsafe { sud::selector_ptr().read_volatile() };
        let (on_entry, before, exits) = (selector(), lazypoline::stats(), stub_exits());
        let ret = site(0, 0, 0);
        let (after, now) = (selector(), lazypoline::stats());
        // BLOCK here is the bug this scenario exists for; put ALLOW back
        // so that it is reported below and not as a SIGSYS inside the
        // dispatcher, which kills the process.
        sud::set_selector(sud::Dispatch::Allow);
        NESTED_CALLS.lock().unwrap().push(NestedCall {
            selector_on_entry: on_entry,
            selector_after: after,
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
        // The outer dispatch re-arms BLOCK, whatever went on inside it.
        assert_eq!(sud::selector(), sud::Dispatch::Block, "selector after the outer dispatch");
        unsafe { libc::close(fd as i32) };
    };
    let nested = |from_stub: bool| NestedCall {
        selector_on_entry: sud::SYSCALL_DISPATCH_FILTER_ALLOW,
        selector_after: sud::SYSCALL_DISPATCH_FILTER_ALLOW,
        ret: ppid,
        slow_path_hits: 0,
        dispatches: 1,
        stub_exits: stub_exits().map(|_| from_stub as u64),
    };
    // The nested call leaves from the entry stub...
    assert!(zpoline::thread_block().armed(), "enrolment arms the block");
    open_devnull();
    // ...and, with the block disarmed, from the dispatcher's own miss
    // exit: the selector must stay ALLOW under the handler either way.
    zpoline::thread_block().disarm();
    open_devnull();
    // Taken out first: a failing assertion opens files for its
    // backtrace, and the handler must find the lock free.
    let calls = std::mem::take(&mut *NESTED_CALLS.lock().unwrap());
    assert_eq!(calls, [nested(true), nested(false)]);
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
/// already rewritten: every call is dispatched exactly once, the
/// `openat`s reach the handler, and none leaves from the stub.
fn assert_mix_stays_on_the_full_path(mechanism: &str) {
    let reference = run_site_mix(&unsafe { mix_sites() });
    let mut active = install(mechanism, Box::new(OpenatOnly));
    let sites = unsafe { mix_sites() };
    run_site_mix(&sites);
    let run = counted_site_mix(&sites);
    assert_eq!(run.rets, reference, "{mechanism}");
    // `/dev/zero` is opened through libc on the way: at least.
    assert!(run.dispatches >= run.rets.len() as u64, "{mechanism}: {} dispatches", run.dispatches);
    assert!(run.openats_handled >= 1, "{mechanism}");
    if let Some(exits) = run.stub_exits {
        assert_eq!(exits, 0, "{mechanism}: the stub issued syscalls itself");
    }
    active.detach();
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
        assert_eq!(sud::selector(), sud::Dispatch::Block, "selector after the interrupted read");
        helper.join().expect("helper thread");
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

/// Hardened threads never execute the stub's `syscall`: the seccomp
/// backstop admits the gate page, not zpoline's text.
fn scenario_miss_exit_hardened() {
    std::env::set_var("LP_HARDEN_POLICY", "quarantine");
    assert_mix_stays_on_the_full_path("lazypoline-hardened");
    assert!(lazypoline::harden::backstop_armed(), "backstop must arm");
    assert_eq!(lazypoline::harden::bypass_blocked(), 0, "a dispatch tripped the backstop");
}

/// While any fault site is armed every dispatch takes the path the
/// seams are on, so `selector_write` keeps its whole coverage.
fn scenario_miss_exit_faults() {
    std::env::set_var("LAZYPOLINE_FAULTS", "selector_write:every=1000000");
    assert_mix_stays_on_the_full_path("lazypoline");
    assert!(faultinject::is_armed(faultinject::Site::SelectorWrite));
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

/// Again with every second selector store dropped: while a site is armed
/// the hit path's two stores go through `sud::set_selector`'s seam and
/// write-verify loop, not the block.
fn scenario_hit_rewrite_faults() {
    std::env::set_var("LAZYPOLINE_FAULTS", "selector_write:every=2");
    hit_rewrite_body();
    assert!(faultinject::injected(faultinject::Site::SelectorWrite) > 0);
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
    assert_eq!(sud::selector(), sud::Dispatch::Block, "selector lost");
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
    assert!(count * 64 <= 4096);
    let p = ret_filled_rwx_page();
    for i in 0..count {
        syscall_site(p, i, syscalls::nr::GETPID);
    }
    p
}

const JIT_SITES: usize = 8;

fn scenario_batch_rewrite() {
    // Multi-site workload, batching on (the default): the FIRST site's
    // SIGSYS must patch every site on the page, so the remaining calls
    // all enter through the fast path.
    let mut active = install("lazypoline", Box::new(interpose::PassthroughHandler));
    unsafe {
        let p = emit_getpid_page(JIT_SITES);
        // Resolve the expected pid *before* the measurement window:
        // libc's own getpid syscall site would otherwise contribute
        // its SIGSYS to the counters being asserted on.
        let pid = std::process::id() as u64;
        let before = lazypoline::stats();
        for i in 0..JIT_SITES {
            let f: extern "C" fn() -> u64 = std::mem::transmute(p.add(i * 64));
            assert_eq!(f(), pid, "site {i}");
        }
        let after = lazypoline::stats();
        let slow = after.slow_path_hits - before.slow_path_hits;
        let patched = after.sites_patched - before.sites_patched;
        // One SIGSYS patched the whole page; every subsequent site was
        // already `call rax` when first executed.
        assert_eq!(slow, 1, "batch did not amortize SIGSYS: {after:?}");
        assert!(patched >= JIT_SITES as u64, "page not swept: {after:?}");
        libc::munmap(p as *mut _, 4096);
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
    let h = lazypoline::health();
    assert_eq!(h.mode, lazypoline::Mode::SudOnly);
    assert!(h.faults_injected >= 1, "{h:?}");
    assert_eq!(h.stats.sites_patched, 0, "SudOnly must never rewrite: {h:?}");
    assert!(h.stats.disabled_mode_emulations >= 20, "{h:?}");
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
        let _ = lazypoline::health();

        faultinject::arm(
            faultinject::Site::PatchMprotect,
            faultinject::Schedule::EveryNth(1),
            None, // default EAGAIN: transient, so the retry loop engages
        );
        let before = lazypoline::health();
        let r0 = f0();
        let mid = lazypoline::health();
        let mut rs = [0u64; 5];
        for r in rs.iter_mut() {
            *r = f0();
        }
        let after = lazypoline::health();
        faultinject::disarm(faultinject::Site::PatchMprotect);

        // (Asserting only now: format!/panic machinery may syscall.)
        assert_eq!(r0, pid, "emulation returned the wrong result");
        for (i, r) in rs.iter().enumerate() {
            assert_eq!(*r, pid, "blocklisted call {i}");
        }
        // Exactly one retry burst: initial attempt + PATCH_RETRY_LIMIT
        // retries, then the page was blocklisted.
        assert_eq!(mid.patch_retries - before.patch_retries, 3, "{mid:?}");
        assert_eq!(
            mid.stats.pages_blocklisted - before.stats.pages_blocklisted,
            1,
            "{mid:?}"
        );
        assert_eq!(mid.patch_blocklist_pages - before.patch_blocklist_pages, 1);
        assert_eq!(
            mid.stats.unpatchable_emulations - before.stats.unpatchable_emulations,
            1
        );
        assert_eq!(mid.faults_injected - before.faults_injected, 4);
        // The five follow-up trips short-circuited on the blocklist: no
        // further patch attempts, no further retries.
        assert_eq!(after.patch_retries, mid.patch_retries, "{after:?}");
        assert_eq!(after.faults_injected, mid.faults_injected, "{after:?}");
        assert_eq!(
            after.stats.unpatchable_emulations - mid.stats.unpatchable_emulations,
            5
        );
        assert_eq!(after.stats.pages_blocklisted, mid.stats.pages_blocklisted);
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

        // A fresh page is unaffected and patches normally.
        let q = emit_getpid_page(1);
        let g: extern "C" fn() -> u64 = std::mem::transmute(q);
        assert_eq!(g(), pid);
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

    // Phase 1 arms via the environment path (covers arm_from_env).
    std::env::set_var("LAZYPOLINE_FAULTS", "patch_mprotect:every=5");
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
        "env-armed seam never fired"
    );
    assert!(lazypoline::stats().patch_retries > 0, "retry path never exercised");
    faultinject::disarm(faultinject::Site::PatchMprotect);

    // Phase 2: dropped selector writes — repaired transparently.
    let base = counter.count(syscalls::nr::WRITE);
    faultinject::arm_from_spec("selector_write:every=7").unwrap();
    let p = std::env::temp_dir().join(format!("lp-soak-sel-{}", std::process::id()));
    for _ in 0..50 {
        std::fs::write(&p, b"y").unwrap();
    }
    std::fs::remove_file(&p).unwrap();
    faultinject::disarm(faultinject::Site::SelectorWrite);
    assert!(counter.count(syscalls::nr::WRITE) >= base + 50);
    assert!(faultinject::injected(faultinject::Site::SelectorWrite) > 0);

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
    assert_eq!(h.stats.quarantined_handlers, 0, "{h:?}");
}

fn scenario_fault_soak_sudonly() {
    // Pure-SUD hammer with emulation faults (EINTR) and dropped
    // selector writes injected concurrently: every call either succeeds
    // or observes a clean EINTR — never a wrong result, never a crash.
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
    assert!(faultinject::injected(faultinject::Site::SelectorWrite) > 0);
    assert_eq!(sud::selector(), sud::Dispatch::Block, "selector repair failed");
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
    let h = lazypoline::health();
    assert_eq!(h.quarantined_handlers, 1, "{h:?}");

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
    assert_eq!(lazypoline::health().quarantined_handlers, 1);
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

    let h = lazypoline::health();
    assert_eq!(h.mode, lazypoline::Mode::PrescanOnly);
    assert!(h.faults_injected >= 1, "{h:?}");
    assert_eq!(h.stats.slow_path_hits, 0, "SIGSYS fired without SUD: {h:?}");
    assert!(h.stats.sites_patched >= 1, "prescan rewrote nothing: {h:?}");
    assert!(
        counter.count(syscalls::nr::WRITE) >= 1,
        "prescanned libc write not interposed"
    );
}

fn scenario_degraded_smoke() {
    // Honors whatever LAZYPOLINE_FAULTS the harness (e.g. the CI fault
    // matrix) passed through: init must succeed — degraded if need be —
    // and basic I/O must keep working.
    let spec = std::env::var("LAZYPOLINE_FAULTS").unwrap_or_default();
    interpose::set_global_handler(Box::new(interpose::PassthroughHandler));
    let engine = lazypoline::init(Config::default()).expect("init must degrade, not fail");

    let tmp = std::env::temp_dir().join(format!("lp-degraded-{}", std::process::id()));
    std::fs::write(&tmp, b"degraded").unwrap();
    assert_eq!(std::fs::read(&tmp).unwrap(), b"degraded");
    std::fs::remove_file(&tmp).unwrap();

    let h = lazypoline::health();
    let expected = if spec.contains("trampoline_install") {
        lazypoline::Mode::SudOnly
    } else if spec.contains("sud_enroll") {
        lazypoline::Mode::PrescanOnly
    } else {
        lazypoline::Mode::Hybrid
    };
    assert_eq!(h.mode, expected, "spec={spec:?} health={h:?}");
    if !spec.is_empty() {
        assert!(h.faults_injected >= 1, "armed faults never fired: {h:?}");
    }
    engine.unenroll_current_thread();
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
    let backend = mechanism::from_env()
        .unwrap_or_else(|e| panic!("LP_MECHANISM must name a registered mechanism: {e}"));
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
    if backend.name().starts_with("sim:") {
        // Simulated backend: drive a canned program through the same
        // trait instead of this process's syscalls.
        let mut active = backend
            .install(Box::new(interpose::PassthroughHandler))
            .expect("sim install");
        let outcome = active
            .run_program(&sim_workloads::bench::microbench(50))
            .expect("sim run");
        assert_eq!(outcome.exit, 0, "{}: bad exit", active.mechanism_name());
        assert_layers_ran(&active.stats());
        println!(
            "mechanism {}: simulated, {} syscalls observed",
            active.mechanism_name(),
            outcome.observed.len()
        );
        return;
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

fn scenario_record_replay_native() {
    // Smoke the flight recorder against the real engine: record this
    // process's own syscalls into a trace, then re-install against the
    // trace in replay mode. Native replay is best-effort (ambient
    // runtime syscalls diverge), so the assertion is structural: both
    // phases install, run, and tear down without panicking, and the
    // recorded trace is well-formed with nonzero events.
    let trace = std::env::temp_dir().join(format!("lp-rr-native-{}.lpt", std::process::id()));
    std::env::set_var("LP_TRACE_OUT", &trace);
    let backend = mechanism::by_name("lazypoline+record").expect("+record composes natively");
    let mut active = backend
        .install(Box::new(interpose::PassthroughHandler))
        .expect("native record install");
    let pid = std::process::id() as u64;
    for _ in 0..10 {
        assert_eq!(asm_getpid(), pid);
    }
    let probe = std::env::temp_dir().join(format!("lp-rr-probe-{}", std::process::id()));
    std::fs::write(&probe, b"recorded").unwrap();
    assert_eq!(std::fs::read(&probe).unwrap(), b"recorded");
    std::fs::remove_file(&probe).unwrap();
    active.detach();
    let stats = active.stats();
    let summary = active
        .finish_recording()
        .expect("trace session active")
        .expect("trace finishes");
    std::env::remove_var("LP_TRACE_OUT");
    assert!(summary.events > 0, "recorded nothing");
    assert!(stats.events_recorded > 0, "stats missed the recorder");

    // The trace is well-formed and attributes its source mechanism.
    let (header, records) = replay::read_trace_path(&trace).expect("recorded trace parses");
    assert_eq!(header.source_mechanism, "lazypoline");
    assert_eq!(records.len() as u64, summary.events);
    assert!(
        records.iter().any(|r| r.sysno == syscalls::nr::GETPID),
        "the getpid loop must appear in the trace"
    );

    // Replay smoke: the backend installs from the trace and tears down;
    // divergence counting is exercised but not asserted to be zero.
    let name = format!("replay:{}", trace.display());
    let mut active = mechanism::by_name(&name)
        .expect("replay name parses")
        .install(Box::new(interpose::PassthroughHandler))
        .expect("native replay install");
    for _ in 0..3 {
        asm_getpid();
    }
    active.detach();
    let state = active.replay_state().expect("replay backend").clone();
    println!(
        "record/replay native: {} events recorded, replay consumed {}/{} ({} divergences)",
        summary.events,
        state.position(),
        state.len(),
        state.divergences()
    );
    drop(active);
    std::fs::remove_file(&trace).unwrap();
}

fn scenario_compose_record_sfip() {
    // Two layers in one name against the real engine: lazypoline
    // dispatches into the recorder, which calls the SFIP check, which
    // calls the handler — one install audits what it enforces.
    let policy = std::env::temp_dir().join(format!("lp-compose-{}.sfip", std::process::id()));
    sfip::Policy::allow_all("compose").save(&policy).expect("policy saves");
    std::env::set_var(sfip::POLICY_ENV, &policy);
    std::env::set_var(sfip::ACTION_ENV, "count");
    let trace = std::env::temp_dir().join(format!("lp-compose-{}.lpt", std::process::id()));
    std::env::set_var("LP_TRACE_OUT", &trace);
    let mut active = mechanism::by_name("lazypoline+record+sfip")
        .expect("layers compose natively")
        .install(Box::new(interpose::PassthroughHandler))
        .expect("native composed install");
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
    assert_eq!(stats.mechanism, "lazypoline+record+sfip");
    assert_eq!(stats.sfip_mode, "count");
    assert_eq!(stats.sfip_violations, 0, "{stats:?}");
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
        "compose record+sfip: {} events recorded, {} flow checks",
        summary.events, stats.sfip_checks
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

// ——— hardened escape scenarios (ISSUE 7) ————————————————————————————
//
// The attack: application code that learned the SUD selector's address
// flips it to ALLOW and issues a syscall from its own text. Plain
// lazypoline cannot see it (that is §VII's open residue); hardened
// mode either kills the process or quarantines the syscall back
// through the interposer, depending on `LP_HARDEN_POLICY`.

/// The attacker's own `syscall` instruction, in main-executable text —
/// exactly where the backstop's IP allowlist has a deliberate hole.
/// Must never run while the selector is BLOCK (the slow path would
/// lazily rewrite it and defang the attack).
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

/// A direct store of ALLOW to the selector byte — no engine API, the
/// attacker "leaked" the address. Only sound when the selector is not
/// on a hardware-protected slab (the store itself would fault there,
/// which is rung 1 doing its job; the simulator asserts that path).
fn flip_selector_to_allow() {
    unsafe { sud::selector_ptr().write_volatile(0) };
}

/// Whether the pkey layer would fault the direct write before the
/// backstop ever sees a syscall. On MPK hosts the scenarios exit
/// early: the write-fault path is asserted deterministically in
/// `sim-interpose`'s security tests instead.
fn selector_is_hardware_protected() -> bool {
    matches!(
        lazypoline::harden::level(),
        lazypoline::harden::HardenLevel::Full | lazypoline::harden::HardenLevel::PkeyOnly
    )
}

fn scenario_escape_plain() {
    let mut active = install("lazypoline", Box::new(interpose::PassthroughHandler));
    let before = active.stats().dispatches;
    flip_selector_to_allow();
    let uid = attacker_syscall(syscalls::nr::GETUID);
    let after = active.stats().dispatches;
    // The syscall executed for real and the dispatcher never saw it:
    // this is the escape hardened mode exists to close.
    assert!(uid >= 0, "bypassed getuid failed: {uid}");
    assert_eq!(after, before, "plain engine must not observe the bypass");
    assert_eq!(lazypoline::harden::bypass_blocked(), 0);
    active.detach();
}

fn scenario_escape_quarantine() {
    std::env::set_var("LP_HARDEN_POLICY", "quarantine");
    let active = install("lazypoline-hardened", Box::new(interpose::PassthroughHandler));
    assert!(lazypoline::harden::backstop_armed(), "backstop must arm");
    if selector_is_hardware_protected() {
        println!("selector is pkey-protected; direct-write attack not applicable");
        return;
    }
    let my_pid = std::process::id();
    flip_selector_to_allow();
    let pid = attacker_syscall(syscalls::nr::GETPID);
    // Quarantine: the trapped syscall was forced through the
    // interposer and still produced its result — observed, not free.
    assert_eq!(pid as u32, my_pid, "quarantined getpid result");
    let blocked = active.stats().bypass_blocked;
    assert!(blocked >= 1, "backstop must count the escape, got {blocked}");
}

/// Hidden victim for `scenario_escape_kill`: dies by SIGKILL mid-attack
/// (never listed in SCENARIOS — the driver would count its death as a
/// failure).
fn scenario_escape_kill_victim() {
    let _active = install("lazypoline-hardened", Box::new(interpose::PassthroughHandler));
    assert!(lazypoline::harden::backstop_armed(), "backstop must arm");
    if selector_is_hardware_protected() {
        // Signal the parent to skip: no clean way to demo the kill
        // without the writable selector.
        println!("SURVIVED pkey-protected");
        std::process::exit(3);
    }
    println!("ATTACK_IMMINENT");
    flip_selector_to_allow();
    attacker_syscall(syscalls::nr::GETPID);
    // Unreachable under the (default) kill policy.
    println!("SURVIVED");
    std::process::exit(3);
}

fn scenario_escape_kill() {
    let exe = std::env::current_exe().expect("self path");
    let out = Command::new(&exe)
        .env("LP_SCENARIO", "escape_kill_victim")
        .env_remove("LP_HARDEN_POLICY")
        .env_remove("LAZYPOLINE_FAULTS")
        .output()
        .expect("spawn victim");
    let stdout = String::from_utf8_lossy(&out.stdout);
    if stdout.contains("pkey-protected") {
        println!("victim skipped (pkey-protected selector)");
        return;
    }
    // Killed by SIGKILL (no exit code) or the exit_group(137) fallback.
    let code = out.status.code();
    assert!(
        (code.is_none() || code == Some(137))
            && stdout.contains("ATTACK_IMMINENT")
            && !stdout.contains("SURVIVED"),
        "victim must die mid-attack: status {:?}, stdout:\n{stdout}",
        out.status,
    );
}

fn scenario_escape_fork_rearm() {
    std::env::set_var("LP_HARDEN_POLICY", "quarantine");
    let _active = install("lazypoline-hardened", Box::new(interpose::PassthroughHandler));
    if selector_is_hardware_protected() {
        println!("selector is pkey-protected; direct-write attack not applicable");
        return;
    }
    let pid = unsafe { libc::fork() };
    assert!(pid >= 0, "fork failed");
    if pid == 0 {
        // Child of a hardened process: ordinary syscalls still work
        // (via libc — `attacker_syscall` must stay unexecuted and
        // unpatched until the attack)...
        assert!(std::process::id() > 0);
        // ...and the inherited filter still catches the escape.
        flip_selector_to_allow();
        let r = attacker_syscall(syscalls::nr::GETUID);
        let caught = r >= 0 && lazypoline::harden::bypass_blocked() >= 1;
        std::process::exit(if caught { 42 } else { 7 });
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

    let path = sfip_arm(&policy, "count");
    let mut active = install("lazypoline+sfip", Box::new(interpose::PassthroughHandler));
    sfip_workload();
    active.detach();
    let stats = active.stats();
    std::fs::remove_file(&path).unwrap();
    assert!(stats.sfip_checks > 0, "no syscalls were flow-checked: {stats:?}");
    assert_eq!(
        stats.sfip_violations, 0,
        "the learned workload must replay inside its own automaton: {stats:?}"
    );
    println!(
        "sfip native: learned {} transitions, {} checks, 0 violations",
        policy.transitions(),
        stats.sfip_checks
    );
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

// ——— harness ————————————————————————————————————————————————————————

const SCENARIOS: &[(&str, fn())] = &[
    ("engine_counts", scenario_engine_counts),
    ("signals", scenario_signals),
    ("signals_sud", scenario_signals_sud),
    ("exec_sigmask_sud", scenario_exec_sigmask_sud),
    ("exec_sigmask_lazypoline", scenario_exec_sigmask_lazypoline),
    ("sigprocmask_sud", scenario_sigprocmask_sud),
    ("sigprocmask_lazypoline", scenario_sigprocmask_lazypoline),
    ("threads", scenario_threads),
    ("fork", scenario_fork),
    ("sud_only", scenario_sud_only),
    ("xstate", scenario_xstate),
    ("nested_miss", scenario_nested_miss),
    ("miss_exit", scenario_miss_exit),
    ("miss_exit_hardened", scenario_miss_exit_hardened),
    ("miss_exit_faults", scenario_miss_exit_faults),
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
    ("mechanism_differential", scenario_mechanism_differential),
    ("mechanism_smoke", scenario_mechanism_smoke),
    ("record_replay_native", scenario_record_replay_native),
    ("compose_record_sfip", scenario_compose_record_sfip),
    ("hook_stack_native", scenario_hook_stack_native),
    ("escape_plain", scenario_escape_plain),
    ("escape_quarantine", scenario_escape_quarantine),
    ("escape_kill", scenario_escape_kill),
    ("escape_fork_rearm", scenario_escape_fork_rearm),
    ("sfip_native", scenario_sfip_native),
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
