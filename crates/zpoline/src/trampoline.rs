//! The page-zero trampoline, the assembly entry stub and the per-thread
//! block the stub reads.
//!
//! # Control flow after rewriting
//!
//! ```text
//! app:  mov rax, NR          ; syscall number, per the ABI
//!       call rax             ; ← was `syscall` (0f 05), now ff d0
//!         │ pushes return address, jumps to VA = NR (< 512)
//!         ▼
//! 0x000..0x200: eb 66 90 eb 66 90 … 90 90 ; the sled: a chain of short
//!         │                                 jumps, at most five taken
//!         ▼
//! 0x200: movabs r11, lp_zpoline_entry ; jmp r11
//!         ▼
//! lp_zpoline_entry (asm below), on rcx and r11 alone:
//!       NR < 512, exit byte NR is 0 (nobody interested, not one
//!       the dispatcher must see), this thread's block armed ──┐
//!         │ byte is RECORD_EXIT (the stack only records it) │ the miss exit
//!         │ and the thread's record window has room?        ▼
//!         │   │ yes: the record exit     │ no             bump slot NR of
//!         │   ▼                          │                the thread's row
//!         │ bump slot NR; syscall;       │                syscall (in the gate)
//!         │ claim an index in the        │                  │
//!         │ window; write the record;    ▼                  │
//!         │ publish it          label 90, the full path:    │
//!         │   │                 save registers → save live  │
//!         │   │                 xstate → call the registered│
//!         │   │                 dispatcher → restore xstate │
//!         │   │                 → restore registers         │
//!         ▼   ▼                          ▼                  ▼
//!       ret   ; straight back to the instruction after the call site
//! ```
//!
//! # The sled
//!
//! Every one of the 512 offsets is an entry point, so whatever the sled
//! holds must decode, from every byte, to something that changes no
//! register, flag or stack slot and ends at `0x200`. Plain `nop`s do,
//! and cost one decode slot each: a `read` (number 0) walked 512 of
//! them. The sled is instead the three-byte unit `eb XX 90` repeated
//! ([`sled`]): entered at `+0` it is `jmp rel8`, at `+1` the bytes
//! `XX 90` are a prefixed `nop` — every `XX` used is an operand-size or
//! segment-override prefix, which a `nop` ignores — and at `+2` a plain
//! `nop`. `XX` is the longest of five such hops that does not pass
//! `0x200`, and the last 38 bytes, from where even the shortest hop
//! would, are plain `nop`s: at most five taken jumps and 43 `nop`s from
//! any entry (the unit test walks all 512 with [`crate::disasm`]).
//!
//! # The miss exit and the per-thread block
//!
//! The paper keeps per-task state in a `%gs`-relative region so that
//! the stub reaches it "without spilling application registers"
//! (§IV-A, §IV-B(a)). [`ThreadBlock`] is the start of that region here:
//! one cache line of `%fs`-relative (initial-exec) TLS, declared next to
//! the stub, holding the thread's row of the dispatch counter (a
//! [`DispatchRow`]: one slot per syscall number) and whether the thread
//! is that row's only writer (it then counts with a plain `inc`, others
//! with `lock inc`), the enrolment and in-dispatch flags the
//! dispatcher reads, and the record window and tid of the record exit
//! (below). The row is also what arms the block: a thread with
//! one leaves from the stub, counting the call in slot `rax`. The
//! dispatcher a *hit* reaches counts in the same row
//! ([`ThreadBlock::sole_writer_dispatches`]). Neither path makes a
//! syscall SUD would dispatch: every `syscall` they execute lies in the
//! gate (below), the range the kernel lets through.
//!
//! With it, a syscall nobody asked to see never builds a frame. The
//! dispatcher publishes an [`ExitTable`] ([`set_exits`]): one byte per
//! number, the same bytes its own gate reads, which say whether a
//! handler wants the number, only records it, or the dispatcher must
//! see it whatever the interest. The stub loads byte `rax` into `rcx` —
//! `syscall` clobbers exactly `rcx` and `r11`, and it uses no other
//! register — and, when the byte is 0 and the thread's block is armed
//! ([`ThreadBlock::arm`]), issues the `syscall` itself. Between entry
//! and that instruction only `rcx`, `r11` and the flags change; the
//! kernel preserves every other register and all extended state, and
//! the stack below the `call rax` push is never written. Anything else
//! — a hit, a number ≥ 512, an unarmed or zeroed block (a thread that
//! never enrolled), no published table — falls through to the full
//! path, which remains the reference the tests compare with.
//!
//! # The record exit
//!
//! Under a flight recorder most hits are calls the stack only records:
//! the dispatcher would execute them and append one record to the
//! thread's ring. Their exit byte is [`RECORD_EXIT`] (wanted, and left
//! alone by the installed handler, `SyscallHandler::leaves_alone`, and
//! not one the dispatcher must see), and on a thread whose
//! block holds a *record window* the stub serves them itself, with no
//! frame, no xstate and no Rust: it counts the call in the thread's row
//! as the miss exit does, issues it from the gate and appends its
//! record — number, arguments, result, `rdtsc`, the `call rax` return
//! address and the block's tid — to the slot its claim names
//! ([`record`] holds the layouts). The window is the producer cursor of
//! the thread's ring, which the recorder's push hands to the block
//! ([`ThreadBlock::set_record_window`]): the next index to claim, the
//! end of the indices the stub may claim, the address of their slots
//! and the published head. The push alone opens a window, rewinds the
//! ring, drops, counts backpressure and wakes the drain thread; a
//! window ends before the ring would be 3/4 full, at the end of the slot
//! array and after at most a few hundred records, and a call that finds
//! no room, or the ring drained empty, goes to the full path, where the
//! push rewinds and opens the next window.
//!
//! The stub claims after its syscall, so an append is a few dozen
//! instructions, and both writers follow one producer protocol
//! (`replay::ring`'s module docs): a count of the thread's appends in
//! flight goes up first; the claim is one `cmpxchg` on the cursor (no
//! `lock`: only the owning thread and its signal handlers write it), so
//! a signal handler's append that lands in the middle claims the next
//! index; and the append that is outermost publishes everything claimed
//! once its own record is written, looking again after it lowers the
//! count. A signal that lands between the stub's syscall and its claim
//! can use the window up, or close it with a push of its own: the stub
//! then hands the call, executed, to the recorder's push on a frame and
//! saved xstate as the full path's ([`set_record_late`]) — the rare
//! exit, whose `call` sits behind `lp_zpoline_record_late`, outside the
//! record exit's text.
//!
//! Initial-exec TLS is what lets two instructions reach the block, and
//! it is sound wherever this crate is linked today: into an executable,
//! or into the `LD_PRELOAD` shim, which the dynamic loader maps before
//! it sizes the static TLS area. The price is paid by an object that
//! is `dlopen`ed instead: one initial-exec reference marks the whole
//! object `DF_STATIC_TLS`, so *all* of its TLS (the shim's is ~1.3 KiB)
//! must fit the loader's static-TLS surplus — 1664 bytes in glibc
//! unless `glibc.rtld.optional_static_tls` raises it — and `dlopen`
//! fails when it does not.
//!
//! # The gate
//!
//! Every `syscall` the engine executes sits in this file's one
//! `global_asm!` block, [`gate`]: the miss exit's; the raw-syscall
//! function behind the stub, which [`gate_syscall`] calls (lazypoline's
//! dispatcher and SIGSYS handler issue their own syscalls through it —
//! `clone` with a seeded child stack included, whose child `ret`s from
//! it into that stack); and the signal restorer, `mov eax, 15; syscall`,
//! which the engine's SIGSYS handler returns through and
//! [`gate_sigreturn`] jumps to. The block's bytes are the allowed code
//! range lazypoline arms Syscall User Dispatch with, and the one text
//! hardened mode's seccomp backstop admits (besides the kernel's
//! `[vdso]` and `[vsyscall]`). lazypoline arms SUD with
//! that range and no selector byte: a syscall from the gate passes, and
//! every other one is dispatched, with no user read of a selector on
//! either (on x86-64 that read is most of what SUD adds to a syscall).
//! The kernel compares the address *after* the instruction, so the gate
//! ends past the instruction behind its last `syscall`.
//!
//! Nothing in the gate is ever rewritten: the patcher skips every site
//! in it ([`crate::patcher`]). A `call rax` there would send the miss
//! exit, or the dispatcher's own syscalls, back into the stub.
//!
//! # The resume
//!
//! The restorer's twin, and the one way out of the interposer that is
//! not a syscall: [`resume_context`] puts a signal frame's interrupted
//! context back in user space, where the restorer asks the kernel to.
//! lazypoline's SIGSYS handler takes it after a rewrite. It is
//! assembled behind the gate's end, outside the range, because it
//! issues no syscall. Five steps, in this order:
//!
//! 1. `xrstor64` of the frame's `xsave` image with RFBM = the
//!    `xfeatures` the kernel wrote beside it: the components the
//!    kernel's own sigreturn restores (x87, `MXCSR`, `xmm`/`ymm`,
//!    `zmm` and `k`, PKRU);
//! 2. copy the fifteen GPRs other than `rsp`, then `rflags` and `rip`,
//!    into a 136-byte image at `[rsp − 264, rsp − 128)` of the
//!    interrupted `rsp`: inside the dead signal frame, under the red
//!    zone. After the `xrstor64`, which reads what the image may
//!    overwrite;
//! 3. point `rsp` at the image;
//! 4. `pop` the fifteen, then `popfq`;
//! 5. `ret 128`, to `rip` with `rsp` where it was.
//!
//! From step 3 on, everything still to be read lies at or above `rsp`,
//! so a signal that lands there builds its frame below the image. What
//! the kernel's return does besides — install `uc_sigmask`, restore the
//! alternate stack, refuse a frame it cannot honour — the caller must
//! have no need of ([`resume_context`]).
//!
//! # ABI fidelity (paper §IV-B(b))
//!
//! On x86-64 Linux, `syscall` clobbers only `rax` (return value), `rcx`
//! and `r11`. The stub preserves every other general-purpose register
//! exactly, and — when an [`XstateMask`] is set — the x87/SSE/AVX state
//! the mask names across the dispatcher, since compilers freely keep
//! live values in `xmm` registers across syscalls (the paper's Listing 1
//! shows glibc's pthread initialization doing exactly that). The vector
//! registers are saved whatever the dispatcher says: a Rust handler, a
//! `dlopen`ed hook or glibc's vector string functions use `xmm`/`ymm`
//! unannounced. x87 and `MXCSR` are another matter: code that does no
//! floating-point arithmetic leaves them alone, and a dispatcher may say
//! so for the dispatch it is returning from
//! ([`ThreadBlock::set_leaves_fp_env`]; lazypoline's does when the
//! handler it called declares `SyscallHandler::leaves_fp_env`).
//!
//! What a dispatch pays for depends on what is *live*, which the stub
//! reads with `xgetbv` (`ecx = 1`: `XCR0 & XINUSE`, the components not
//! in their initial configuration). The text is `xstate_save_asm!` /
//! `xstate_restore_asm!`. Three cases:
//!
//! 1. **x87 in its initial configuration** (the rule in an x86-64
//!    process). Entry stores `MXCSR` and `xmm0–15` with legacy-SSE
//!    `movaps` when the `ymm` uppers are clean (`XINUSE[2] = 0`), or
//!    `ymm0–15` with `vmovdqu` when they are live — never a 256-bit VEX
//!    instruction on clean uppers, which would flip an
//!    application-visible `XINUSE` bit and carry SSE/AVX transition
//!    penalties into application code. Exit reads `xgetbv(1)` again and
//!    compares with the entry's record: x87 now in use (the handler ran
//!    `fld`, `printf("%Lf")`, MMX; or a signal returned in the middle of
//!    the dispatch) → `xrstor64` with RFBM = 1 from a static all-zero
//!    image, whose `XSTATE_BV[0] = 0` loads the initial configuration
//!    *and* returns `XINUSE[0]` to 0 (`fninit` does neither: it leaves
//!    the data registers and the bit); uppers clean on entry and live
//!    now → `vzeroupper`; then the registers and `MXCSR` come back as
//!    stored. Restoring "initial" is exact because initial is what
//!    entry observed.
//!
//!    **The declared exit.** When the dispatcher declared x87 and
//!    `MXCSR` untouched, exit skips the second `xgetbv(1)`, the x87
//!    re-initialisation and `ldmxcsr` (EXPERIMENTS.md measures them)
//!    and, where the entry's mask names AVX and
//!    recorded the uppers clean, executes `vzeroupper` without asking
//!    whether they are dirty; the `xmm`/`ymm` moves are the same. What
//!    it gives up: a signal that returns in the middle of the dispatch
//!    leaves `XINUSE[0] = 1` (the values initial), as after a signal
//!    the application takes un-interposed, and the thread's next
//!    dispatch takes case 2, whose normaliser clears it.
//! 2. **x87 live on entry** → `xsave64`/`xrstor64` under the mask, as
//!    the C prototype does on every dispatch, plus a *normaliser*. (So
//!    does an entry with `ZMM_Hi256` live, `XINUSE[6]`, under a mask
//!    that names AVX: case 1's VEX moves and `vzeroupper` zero bits
//!    511:256 of `zmm0–15`, which the pair leaves alone.) The
//!    kernel ORs FP|SSE into the `XSTATE_BV` of every signal frame
//!    (`save_xstate_epilog`), so a thread comes back from every
//!    `sigreturn` — every SIGSYS of a lazily rewritten site — with
//!    `XINUSE[0] = 1` although x87 still holds its initial values. When
//!    the saved x87 image is byte-equal to the initial configuration,
//!    the stub clears bit 0 of the area's `XSTATE_BV`; the `xrstor64`
//!    at exit then loads the same values and returns the thread to
//!    `XINUSE[0] = 0`, so its next dispatch is case 1. A thread whose
//!    x87 unit really holds state keeps this path for as long as it
//!    does.
//! 3. **No `xgetbv(1)`** (CPUID.(EAX=0DH,ECX=1):EAX bit 2 clear, read
//!    once in [`Trampoline::install`]) → case 2 without the normaliser
//!    on every dispatch: the C prototype's stub.
//!
//! The declaration is a byte of the thread's block, which the stub reads
//! and clears after every call of the dispatcher, whatever the case: a
//! dispatcher that never sets it (zpoline's passthrough, any other
//! [`DispatchFn`]) gets case 1's exit as above, and a nested dispatch —
//! a signal handler's syscall landing between the dispatcher's store
//! and the stub's read — takes the byte with it, which leaves the outer
//! exit the undeclared one.
//!
//! The mask ([`XstateMask`]) bounds all three; `None` skips everything.
//! Exit restores under the mask *recorded at entry*, so a mask changed
//! in the middle of a dispatch cannot make the two halves disagree.
//! `XINUSE[1]` (SSE) is not tracked: the `xmm` registers are saved
//! whenever the mask names them, and the kernel sets that bit on every
//! signal return anyway. The AVX-512 components are outside the mask,
//! as in the prototype: the stub neither saves nor writes them.
//!
//! Deviation from the C prototype: the save area lives on the
//! (64-byte-aligned) stack rather than in a dedicated `%gs`-relative
//! per-task region. Stack placement nests naturally across reentrant
//! interposer invocations (the paper manages its off-stack region "as a
//! stack" for the same reason; each level restores what *it* saw on
//! entry) at the cost of ~4 KiB of stack per nesting level. And the
//! prototype pays `xsave`/`xrstor` on every dispatch, where this stub
//! pays for what is live.
//!
//! # Red zone
//!
//! The `call rax` push itself overwrites the top 8 bytes of the
//! System-V red zone — an inherent property of the zpoline technique
//! that the prototype shares. The full path protects the *rest* of the
//! red zone by moving `rsp` down 128 bytes before its own pushes, and
//! so does the record exit before it keeps the number, the result and
//! `rdx` across its `syscall` and `rdtsc`; the miss exit never moves
//! `rsp` and writes nothing below it.

use std::cell::Cell;
use std::io;
use std::mem::offset_of;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicU8, AtomicUsize, Ordering};

use syscalls::MAX_SYSCALL_NR;

/// Register image captured by the entry stub, in stack layout order.
///
/// The dispatcher receives a `*mut RawFrame`; mutating `a1..a6` before
/// re-issuing the syscall implements argument rewriting, and the
/// dispatcher's return value becomes the application-visible `rax`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct RawFrame {
    /// Syscall number (`rax` at the call site).
    pub nr: u64,
    /// `rdi`.
    pub a1: u64,
    /// `rsi`.
    pub a2: u64,
    /// `rdx`.
    pub a3: u64,
    /// `r10`.
    pub a4: u64,
    /// `r8`.
    pub a5: u64,
    /// `r9`.
    pub a6: u64,
    /// Application `rbx` (saved/restored by the stub; exposed for
    /// completeness and debugging).
    pub saved_rbx: u64,
    /// Application `rbp` (saved/restored by the stub).
    pub saved_rbp: u64,
    /// Return address pushed by `call rax`: the address of the
    /// instruction following the original `syscall`. `clone` handling
    /// needs this to construct the child's initial frame.
    pub ret_addr: u64,
}

impl RawFrame {
    /// The invocation as a [`syscalls::SyscallArgs`] bundle.
    pub fn syscall_args(&self) -> syscalls::SyscallArgs {
        syscalls::SyscallArgs::new(self.nr, [self.a1, self.a2, self.a3, self.a4, self.a5, self.a6])
    }
}

/// A dispatcher invoked by the entry stub for every rewritten syscall.
///
/// # Safety contract
///
/// Runs on the application thread, possibly deep in a libc call; it must
/// be async-signal-safe-ish (no panicking across the boundary, no
/// assumptions about libc state). The returned value is placed in the
/// application's `rax`.
pub type DispatchFn = unsafe extern "C" fn(frame: *mut RawFrame) -> u64;

/// Which extended-state components the stub preserves around the
/// dispatcher (paper §IV-B(b): "a configurable option that controls
/// which extended state components are preserved, if any").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum XstateMask {
    /// Preserve nothing beyond general-purpose registers — the
    /// "lazypoline without xstate preservation" configuration.
    None,
    /// Preserve x87 FPU state only (XCR0 bit 0).
    X87,
    /// Preserve x87 + SSE (`xmm0-15`).
    Sse,
    /// Preserve x87 + SSE + AVX (`ymm` high halves) — the full
    /// default configuration benchmarked in Table II.
    #[default]
    Avx,
}

impl XstateMask {
    /// The XSAVE requested-feature bitmap low byte.
    pub fn rfbm(self) -> u8 {
        match self {
            XstateMask::None => 0b000,
            XstateMask::X87 => 0b001,
            XstateMask::Sse => 0b011,
            XstateMask::Avx => 0b111,
        }
    }
}

// ——— Globals read by the asm stub ———————————————————————————————————

/// Everything process-global the entry stub reads, in one object so
/// that the assembly names one symbol: passed to it as a `sym` operand
/// and addressed `rip`-relative. (The per-thread part is
/// `lp_thread_block`, TLS declared in the asm.) Neither this nor any other
/// name the stub uses is a dynamic symbol: an application or a second
/// preloaded object cannot interpose on the interposer's own state.
#[repr(C, align(64))]
struct StubGlobals {
    /// The registered dispatcher (never 0 once installed).
    dispatch: AtomicUsize,
    /// The recorder's push for a call the record exit executed but
    /// found no room for ([`set_record_late`]).
    record_late: AtomicUsize,
    /// The dispatcher's [`ExitTable`], null while it has none.
    exits: AtomicPtr<ExitTable>,
    /// The XSAVE RFBM (0 = preserve no xstate).
    xstate_mask: AtomicU8,
    /// Non-zero once [`Trampoline::install`] has seen CPUID report
    /// `xgetbv` with `ecx = 1`; zero → always `xsave64`.
    xgetbv1: AtomicU8,
    /// An all-zero XSAVE image (legacy region + header); `xrstor64` from
    /// it loads the initial configuration of the components in RFBM.
    xstate_init: XsaveImage,
}

#[repr(C, align(64))]
struct XsaveImage([u8; 576]);

/// The one instance (see [`StubGlobals`]).
static STUB_GLOBALS: StubGlobals = StubGlobals {
    dispatch: AtomicUsize::new(0),
    record_late: AtomicUsize::new(0),
    exits: AtomicPtr::new(std::ptr::null_mut()),
    xstate_mask: AtomicU8::new(0b111),
    xgetbv1: AtomicU8::new(0),
    xstate_init: XsaveImage([0; 576]),
};

/// What a dispatcher publishes ([`set_exits`]) so that the entry stub
/// can serve, by itself, the syscalls the dispatcher would only pass
/// through or record: one exit byte per syscall number. `0` is the miss
/// exit, [`RECORD_EXIT`] the record exit, and any other value the full
/// path.
pub type ExitTable = [AtomicU8; SLED_LEN];

/// The exit byte of a number the installed stack wants but only records
/// (the record exit, module docs).
pub const RECORD_EXIT: u8 = 0b011;

/// Publishes (or, with `None`, withdraws) the dispatcher's
/// [`ExitTable`]. Takes effect for subsequent trampoline entries on all
/// threads whose [`ThreadBlock`] is armed.
pub fn set_exits(table: Option<&'static ExitTable>) {
    let p = table.map_or(std::ptr::null_mut(), |t| t as *const ExitTable as *mut ExitTable);
    // Release: a reader that sees the pointer must see the table as
    // initialised.
    STUB_GLOBALS.exits.store(p, Ordering::Release);
}

/// What the record exit calls, with the call's frame and result, when
/// it executed a call and then found no room in its window: a signal's
/// append used the window up, or the drain emptied the ring, which only
/// the recorder's push rewinds. Runs in application context, on a frame
/// and with the extended state saved as the full path's; it must make
/// no syscall but under the re-entry guard, and not unwind.
pub type RecordLateFn = unsafe extern "C" fn(frame: *const RawFrame, ret: u64);

/// Registers the record exit's [`RecordLateFn`]. A thread takes the
/// record exit only once the recorder's push has given its block a
/// window, and whatever gives the windows registers this first.
pub fn set_record_late(f: RecordLateFn) {
    STUB_GLOBALS.record_late.store(f as usize, Ordering::Release);
}

/// A thread's dispatch counts by syscall number: what
/// [`ThreadBlock::arm`] takes. The stub's miss exit counts number `nr`
/// in slot `nr`; every number it takes is below the sled's length,
/// which is this row's.
pub type DispatchRow = [AtomicU64; SLED_LEN];

/// Per-thread interposition state the entry stub reads (module docs).
///
/// A zeroed block — every thread starts with one — is a thread that is
/// not enrolled, not in a dispatch, and never leaves from the stub.
#[repr(C)]
pub struct ThreadBlock {
    /// The thread's row of the dispatcher's dispatch counter; null =
    /// unarmed.
    dispatches: Cell<*const DispatchRow>,
    in_dispatch: Cell<bool>,
    enrolled: Cell<bool>,
    /// Whether other threads write `dispatches` too: they then all
    /// count with `lock inc`, where a sole writer uses a plain `inc`.
    dispatches_shared: Cell<bool>,
    /// Dispatches that left from the stub (debug builds count).
    stub_exits: Cell<u64>,
    /// Set while this thread takes or holds the rewrite spinlock
    /// (`patcher::SpinGuard`).
    rewrite_lock: Cell<bool>,
    /// The dispatcher's declaration for the dispatch it returns from
    /// ([`ThreadBlock::set_leaves_fp_env`]); the stub clears it.
    leaves_fp_env: Cell<bool>,
    /// Full-path exits that found the declaration (debug builds count).
    declared_exits: Cell<u64>,
    /// Signal frames put back by [`resume_context`] (debug builds
    /// count).
    resumes: Cell<u64>,
    /// The producer cursor of this thread's flight-recorder ring, which
    /// the record exit appends through ([`ThreadBlock::set_record_window`]);
    /// 0 = none.
    record_window: Cell<usize>,
    /// This thread's kernel tid as recorded events carry it; 0 until
    /// [`ThreadBlock::tid`] first asks.
    tid: Cell<u32>,
}

// The asm reserves one cache line per thread.
const _: () = assert!(std::mem::size_of::<ThreadBlock>() <= 64);

impl ThreadBlock {
    /// Whether this thread asked for interposition.
    #[inline]
    pub fn enrolled(&self) -> bool {
        self.enrolled.get()
    }

    /// Records whether this thread asked for interposition.
    #[inline]
    pub fn set_enrolled(&self, v: bool) {
        self.enrolled.set(v);
    }

    /// Whether the dispatcher is running handler code on this thread:
    /// the re-entry guard, under which the thread's own syscalls are
    /// executed and never shown to a handler.
    #[inline]
    pub fn in_dispatch(&self) -> bool {
        self.in_dispatch.get()
    }

    /// Sets the in-dispatch flag, returning the previous value.
    #[inline]
    pub fn set_in_dispatch(&self, v: bool) -> bool {
        self.in_dispatch.replace(v)
    }

    /// Arms the block for this thread with its row of the dispatch
    /// counter: the stub's miss exit, which counts a call in the slot
    /// of its number, and the dispatcher's plain count.
    ///
    /// # Safety
    ///
    /// With `sole_writer`, no other thread may ever write a slot of
    /// `dispatches` — this one increments them without `lock`.
    #[inline]
    pub unsafe fn arm(&self, dispatches: &'static DispatchRow, sole_writer: bool) {
        self.dispatches_shared.set(!sole_writer);
        // The row is the key the stub tests: a signal handler that runs
        // between the stores must not find it with a stale flag.
        std::sync::atomic::compiler_fence(Ordering::SeqCst);
        self.dispatches.set(dispatches);
    }

    /// Sends this thread's dispatches back through the full path, and
    /// its dispatcher's count back to the counters' own way.
    #[inline]
    pub fn disarm(&self) {
        self.dispatches.set(std::ptr::null());
    }

    /// Whether [`ThreadBlock::arm`] took effect.
    #[inline]
    pub fn armed(&self) -> bool {
        !self.dispatches.get().is_null()
    }

    /// The row [`ThreadBlock::arm`] was given for this thread's
    /// dispatch counts, when the block is armed and this thread is the
    /// row's sole writer: the dispatcher may then count a call in the
    /// slot of its number with a plain `inc`, as the stub does.
    #[inline]
    pub fn sole_writer_dispatches(&self) -> Option<&'static DispatchRow> {
        if !self.armed() || self.dispatches_shared.get() {
            return None;
        }
        // SAFETY: `arm` stored a `&'static`.
        Some(unsafe { &*self.dispatches.get() })
    }

    /// Dispatches of this thread that left from the stub's miss exit.
    /// Counted in builds with debug assertions only — an instrument for
    /// the tests that must know which path ran; always 0 otherwise.
    #[inline]
    pub fn stub_exits(&self) -> u64 {
        self.stub_exits.get()
    }

    /// Whether this thread takes or holds the rewrite spinlock: a signal
    /// handler that runs on it then must not wait for the lock, which
    /// would never be released.
    #[inline]
    pub fn holds_rewrite_lock(&self) -> bool {
        self.rewrite_lock.get()
    }

    #[inline]
    pub(crate) fn set_rewrite_lock(&self, v: bool) {
        self.rewrite_lock.set(v);
    }

    /// Declares, for the dispatch the calling dispatcher is about to
    /// return from, whether everything it ran since the stub called it
    /// left x87 and `MXCSR` as it found them: no x87 or MMX instruction,
    /// no change of `MXCSR`, sticky exception flags included. The stub's
    /// exit then restores neither (module docs, "The declared exit"). A
    /// dispatcher sets it last, after anything that may dispatch again;
    /// the stub clears it on every exit.
    #[inline]
    pub fn set_leaves_fp_env(&self, v: bool) {
        self.leaves_fp_env.set(v);
    }

    /// The declaration set and not yet taken by the stub's exit.
    #[inline]
    pub fn leaves_fp_env(&self) -> bool {
        self.leaves_fp_env.get()
    }

    /// Full-path exits of this thread that found the declaration set.
    /// Counted in builds with debug assertions only, like
    /// [`ThreadBlock::stub_exits`]; always 0 otherwise.
    #[inline]
    pub fn declared_exits(&self) -> u64 {
        self.declared_exits.get()
    }

    /// Signal frames of this thread that [`resume_context`] put back.
    /// Counted in builds with debug assertions only, like
    /// [`ThreadBlock::stub_exits`]; always 0 otherwise.
    #[inline]
    pub fn resumes(&self) -> u64 {
        self.resumes.get()
    }

    /// Gives the record exit the producer cursor of this thread's
    /// flight-recorder ring, laid out as [`record`] says (module docs,
    /// "The record exit"); 0 withdraws it. The recorder's push calls
    /// this; the stub appends only inside the window the cursor holds.
    #[inline]
    pub fn set_record_window(&self, cursor: usize) {
        self.record_window.set(cursor);
    }

    /// This thread's kernel tid, the one both recorder writers stamp
    /// on its events: asked from the gate once, then read from here.
    #[inline]
    pub fn tid(&self) -> u32 {
        match self.tid.get() {
            0 => {
                // SAFETY: gettid takes no arguments and cannot fail.
                let tid = unsafe { gate_syscall(&syscalls::SyscallArgs::nullary(syscalls::nr::GETTID)) } as u32;
                self.tid.set(tid);
                tid
            }
            tid => tid,
        }
    }

    /// Forgets the tid and the record window: a fork child's tid is its
    /// own, and so is the copy of the ring its block pointed into, which
    /// its first recorded call hands back through the recorder's push.
    #[inline]
    pub fn forget_record(&self) {
        self.record_window.set(0);
        self.tid.set(0);
    }
}

/// The two layouts the record exit writes through: an event record in a
/// ring slot (`replay::EventRecord`, `#[repr(C)]`) and a ring's producer
/// cursor. The recorder owns both; this crate cannot name it, so the
/// crate that names both sides pins these offsets to them at compile
/// time.
pub mod record {
    /// Bytes per slot.
    pub const SLOT_SIZE: usize = 88;
    /// The syscall number.
    pub const SYSNO: usize = 0;
    /// The six arguments, in register order.
    pub const ARGS: usize = 8;
    /// The return value.
    pub const RET: usize = 56;
    /// The `rdtsc` stamp.
    pub const TSC: usize = 64;
    /// The call site: the `call rax` return address.
    pub const SITE: usize = 72;
    /// The kernel tid (4 bytes).
    pub const TID: usize = 80;

    /// The next index to claim.
    pub const CLAIM: usize = 0;
    /// The record window's end: the stub claims only below it.
    pub const LIMIT: usize = 8;
    /// Slot address of index `i` inside the window: `bias + i * SLOT_SIZE`.
    pub const BIAS: usize = 16;
    /// The published index the drain reads.
    pub const HEAD: usize = 24;
    /// Appends in flight on the owning thread.
    pub const NEST: usize = 32;
    /// The consumer's next read index, right behind the cursor: the
    /// stub leaves an empty ring to the push, which rewinds it.
    pub const TAIL: usize = 40;
}

/// The calling thread's [`ThreadBlock`].
///
/// The `'static` is the thread's lifetime; the type is neither `Send`
/// nor `Sync` (cells and raw pointers), so the reference cannot reach
/// another thread.
#[inline(always)]
pub fn thread_block() -> &'static ThreadBlock {
    let block: *const ThreadBlock;
    // SAFETY: initial-exec TLS arithmetic, `lp_thread_block`'s offset
    // from the thread pointer plus the thread pointer (`fs:[0]`); the
    // object is 64 zero-initialised, 64-aligned bytes per thread, a
    // valid `ThreadBlock`, and only this thread (its signal handlers
    // included) ever touches it — through `Cell`s here, through `fs:`
    // in the stub.
    unsafe {
        std::arch::asm!(
            "mov {block}, qword ptr [rip + lp_thread_block@GOTTPOFF]",
            "add {block}, qword ptr fs:[0]",
            block = out(reg) block,
            options(pure, readonly, nostack),
        );
        &*block
    }
}

/// Default dispatcher: execute the syscall unchanged (the paper's
/// "dummy" interposition function used throughout the evaluation).
unsafe extern "C" fn passthrough_dispatch(frame: *mut RawFrame) -> u64 {
    syscalls::raw::syscall((*frame).syscall_args())
}

/// Registers the dispatcher invoked for every rewritten syscall site,
/// returning the previous one (if any). An [`ExitTable`] belongs to the
/// dispatcher that published it, so this withdraws the current one: the
/// new dispatcher sees every call until it publishes its own.
pub fn set_dispatcher(f: DispatchFn) -> Option<DispatchFn> {
    set_exits(None);
    // Release publishes the dispatcher's code and any state it closes
    // over before the pointer becomes visible; Acquire pairs with a
    // concurrent swap so the returned previous pointer is safe to call.
    // Nothing here needs a single global order across *other* atomics,
    // so SeqCst would only add fence cost on the path every rewritten
    // syscall's stub-load races with.
    let old = STUB_GLOBALS.dispatch.swap(f as usize, Ordering::AcqRel);
    if old == 0 {
        None
    } else {
        // SAFETY: only ever stores valid DispatchFn pointers.
        Some(unsafe { std::mem::transmute::<usize, DispatchFn>(old) })
    }
}

/// Configures extended-state preservation. Takes effect for subsequent
/// trampoline entries on all threads.
pub fn set_xstate_mask(mask: XstateMask) {
    // Relaxed: the stub reads the byte once per entry and records the
    // value in its save area: the exit restores under that record, so a
    // store that lands in the middle of a dispatch cannot split a
    // save/restore pair.
    STUB_GLOBALS.xstate_mask.store(mask.rfbm(), Ordering::Relaxed);
}

/// Reads the current xstate preservation mask byte (RFBM encoding).
pub fn xstate_mask_byte() -> u8 {
    STUB_GLOBALS.xstate_mask.load(Ordering::Relaxed)
}

/// Whether `xgetbv` with `ecx = 1` exists: CPUID.(EAX=0DH, ECX=1):EAX
/// bit 2, from glibc's record of the leaf (`x86_cpu_XGETBV_ECX_1` in
/// `<sys/platform/x86.h>`; all-zero where leaf 0DH does not exist).
/// Executing `cpuid` here would trap to the hypervisor in a VM — 10 µs
/// and more of a set-up that takes 100 — and `is_x86_feature_detected!`
/// walks a dozen leaves on its first call.
fn cpu_has_xgetbv1() -> bool {
    // SAFETY: glibc returns a pointer to static data for every index.
    let leaf = unsafe { *libc::__x86_get_cpuid_feature_leaf(libc::CPUID_INDEX_D_ECX_1) };
    leaf.cpuid_array[0] & (1 << 2) != 0
}

/// Assembly text (Intel syntax) that saves the live part of the
/// extended state the configured [`XstateMask`] names — the module docs
/// of [`trampoline`](crate::trampoline) give the three cases. For
/// `global_asm!` stubs that call into Rust from application context,
/// like the entry stub here. The including `global_asm!` passes the
/// operands `stub_globals = sym STUB_GLOBALS` and the offsets
/// `xstate_mask`, `xgetbv1` and `xstate_init` of [`StubGlobals`].
///
/// Carves one 64-byte-aligned area of 4096 bytes below `rsp` and leaves
/// its address in `rbx` (0, and `rsp` untouched, under
/// [`XstateMask::None`]); the caller restores `rsp` from its own
/// anchor. Clobbers `rax`, `rcx`, `rdx`, `rsi` and the flags. Area
/// layout: the XSAVE image, or `xmm`/`ymm` `i` at `16*i`/`32*i`; at
/// 1024 the mask at entry, at 1028 `XINUSE & mask` at entry (bit 0 set:
/// the area holds an XSAVE image), at 1032 `MXCSR`.
macro_rules! xstate_save_asm {
    () => {
        r#"
    xor ebx, ebx
    movzx eax, byte ptr [rip + {stub_globals} + {xstate_mask}]
    test eax, eax
    jz 29f
    # 4096 bytes cover x87+SSE+AVX (832) with ample slack on every
    # xsave-capable CPU.
    sub rsp, 4096 + 64
    and rsp, -64
    mov rbx, rsp
    mov esi, eax
    mov dword ptr [rbx + 1024], eax
    cmp byte ptr [rip + {stub_globals} + {xgetbv1}], 0
    je 21f                        # eax = mask: bit 0 set, so xsave64
    mov ecx, 1
    xgetbv                        # eax = XCR0 & XINUSE
    # ZMM_Hi256 (bit 6) live and the mask names AVX (bit 2): the VEX
    # moves and vzeroupper below would zero bits 511:256 of zmm0-15,
    # which xsave64/xrstor64 under the mask leave alone. Record bit 0.
    mov ecx, eax
    and ecx, 0x40
    shr ecx, 4
    and ecx, esi
    shr ecx, 2
    and eax, esi
    or eax, ecx
21:
    mov dword ptr [rbx + 1028], eax
    test al, 1
    jnz 24f                       # x87 or ZMM_Hi256 live
    test sil, 2
    jz 29f                        # mask X87: nothing live to save
    stmxcsr dword ptr [rbx + 1032]
    test al, 4
    jnz 22f
    # Uppers clean (or not asked for): legacy SSE only. A 256-bit VEX
    # instruction here would set XINUSE[2].
    .irp i,0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15
    movaps xmmword ptr [rbx + 16*\i], xmm\i
    .endr
    jmp 29f
22:
    .irp i,0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15
    vmovdqu ymmword ptr [rbx + 32*\i], ymm\i
    .endr
    jmp 29f
24:
    # The XSAVE header (bytes 512..576) must be zero before XSAVE.
    xor edx, edx
    .irp o,512,520,528,536,544,552,560,568
    mov qword ptr [rbx + \o], rdx
    .endr
    mov eax, esi                  # edx:eax = RFBM
    xsave64 [rbx]
    cmp byte ptr [rip + {stub_globals} + {xgetbv1}], 0
    je 29f
    # Normaliser: x87 reads "in use" but byte-equal to its initial
    # configuration (every signal return leaves it so) — FCW 0x37f with
    # FSW, FTW and FOP zero; FIP, FDP and ST0-7 (32..160) zero; bytes
    # 24..32 are MXCSR and its mask, not x87. Clear XSTATE_BV[0]: the
    # xrstor64 at exit loads the same values and resets XINUSE[0].
    cmp qword ptr [rbx], 0x37f
    jne 29f
    mov rax, qword ptr [rbx + 8]
    or rax, qword ptr [rbx + 16]
    .irp o,32,40,48,56,64,72,80,88,96,104,112,120,128,136,144,152
    or rax, qword ptr [rbx + \o]
    .endr
    jnz 29f
    and byte ptr [rbx + 512], 0xfe
29:
"#
    };
}

/// Assembly text (Intel syntax) that undoes `xstate_save_asm!`
/// from the record in the area `rbx` points to (nothing when `rbx` is
/// 0): every component of the entry's mask is as it was on entry,
/// `XINUSE` bits 0 and 2 included. With `edx` non-zero — the dispatcher
/// declared x87 and `MXCSR` untouched — case 1 restores the vector
/// registers alone (module docs). Clobbers `rax`, `rcx`, `rdx`, `rsi`,
/// `rdi` and the flags; leaves `rsp` alone. Takes the same operands.
macro_rules! xstate_restore_asm {
    () => {
        r#"
    test rbx, rbx
    jz 39f
    # Under the mask this entry saved with, not the global one: that
    # may have changed since, and RFBM wider than the image initialises
    # what the image lacks.
    mov esi, dword ptr [rbx + 1024]
    mov edi, dword ptr [rbx + 1028]
    test dil, 1
    jnz 34f
    test edx, edx
    jnz 35f                       # declared: x87 and MXCSR untouched
    mov ecx, 1
    xgetbv
    and eax, esi
    mov edx, edi
    not edx
    and eax, edx                  # live now, initial on entry
    test al, 4
    jz 30f
    vzeroupper
30:
    test al, 1
    jz 31f
    mov eax, 1                    # edx:eax = RFBM: x87 only
    xor edx, edx
    # xstate_init; XSTATE_BV[0] = 0: initial x87, XINUSE[0] = 0
    xrstor64 [rip + {stub_globals} + {xstate_init}]
31:
    test sil, 2
    jz 39f
    ldmxcsr dword ptr [rbx + 1032]
    test dil, 4
    jnz 33f
32:
    .irp i,0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15
    movaps xmm\i, xmmword ptr [rbx + 16*\i]
    .endr
    jmp 39f
33:
    .irp i,0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15
    vmovdqu ymm\i, ymmword ptr [rbx + 32*\i]
    .endr
    jmp 39f
34:
    mov eax, esi                  # edx:eax = RFBM
    xor edx, edx
    xrstor64 [rbx]
    jmp 39f
35:
    # The declared exit: the vector registers only. Uppers the entry
    # recorded clean under a mask naming AVX are cleaned again, dirty
    # or not; under Sse or X87 the uppers are not the stub's to touch.
    test sil, 2
    jz 39f                        # mask X87: nothing was saved
    test dil, 4
    jnz 33b                       # uppers live on entry: ymm moves
    test sil, 4
    jz 32b
    vzeroupper
    jmp 32b
39:
"#
    };
}

/// Assembly text (Intel syntax) that ends an append through the ring
/// cursor in `r11` (module docs, "The record exit"), then jumps to
/// `$done`: an append nested in another leaves the publishing to it;
/// the outermost publishes every index claimed so far, lowers the count
/// and looks again, for a signal's append that claimed in between.
/// Clobbers `rcx` and the flags.
macro_rules! record_commit_asm {
    ($done:literal) => {
        concat!(
            r#"
    cmp qword ptr [r11 + {nest}], 1
    je 2f
    dec qword ptr [r11 + {nest}]
    jmp "#,
            $done,
            r#"
2:
    mov rcx, qword ptr [r11 + {claim}]
    mov qword ptr [r11 + {head}], rcx
    mov qword ptr [r11 + {nest}], 0
    cmp rcx, qword ptr [r11 + {claim}]
    je "#,
            $done,
            r#"
    mov qword ptr [r11 + {nest}], 1
    jmp 2b
"#
        )
    };
}

std::arch::global_asm!(
    r#"
    # One cache line of initial-exec TLS per thread: the ThreadBlock.
    .section .tbss,"awT",@nobits
    .globl lp_thread_block
    .hidden lp_thread_block
    .type lp_thread_block, @object
    .align 64
lp_thread_block:
    .zero 64
    .size lp_thread_block, 64

    .text
    .globl lp_zpoline_entry
    .type lp_zpoline_entry, @function
    .align 16
lp_zpoline_entry:
    # On entry (via the sled): [rsp] = return address pushed by `call rax`,
    # rax = syscall nr, args in rdi/rsi/rdx/r10/r8/r9.
    #
    # The miss exit (module docs). `syscall` clobbers rcx and r11, so
    # they are free; nothing else may change before it is known that
    # this path is taken to its end.
    cmp rax, 512
    jae 90f                       # outside the table: always interesting
    mov r11, qword ptr [rip + {stub_globals} + {exits}]
    test r11, r11
    jz 90f                        # no dispatcher published one
    movzx ecx, byte ptr [r11 + rax]   # the exit byte of nr
    test ecx, ecx
    jnz 50f                       # not a miss (hits leave here)
    mov rcx, qword ptr [rip + lp_thread_block@GOTTPOFF]
    mov r11, qword ptr fs:[rcx + {dispatches}]
    test r11, r11
    jz 90f                        # this thread's block is not armed
    cmp byte ptr fs:[rcx + {in_dispatch}], 0
    jne 81f                       # a handler's own call: not counted
    cmp byte ptr fs:[rcx + {dispatches_shared}], 0
    jne 80f
    inc qword ptr [r11 + rax*8]   # sole writer: one instruction, so a
                                  # signal handler's bump cannot split it
81:
"#,
    #[cfg(debug_assertions)]
    "inc qword ptr fs:[rcx + {stub_exits}]",
    r#"
    syscall                       # in the gate: SUD lets it through
    ret
80: # Other threads count in the same row.
    lock inc qword ptr [r11 + rax*8]
    jmp 81b

    # The record exit (module docs): a hit whose handler only records
    # it. ecx = the exit byte.
    .globl lp_zpoline_record_exit
    .hidden lp_zpoline_record_exit
lp_zpoline_record_exit:
50:
    cmp ecx, {record_exit}
    jne 90f                       # the handler or the dispatcher sees it
    mov rcx, qword ptr [rip + lp_thread_block@GOTTPOFF]
    cmp qword ptr fs:[rcx + {dispatches}], 0
    je 90f                        # this thread's block is not armed
    cmp byte ptr fs:[rcx + {in_dispatch}], 0
    jne 81b                       # a handler's own call: executed alone
    cmp byte ptr fs:[rcx + {dispatches_shared}], 0
    jne 90f                       # a shared row counts with a lock
    mov r11, qword ptr fs:[rcx + {record_window}]
    test r11, r11
    jz 90f                        # no window: the recorder's push gives one
    mov rcx, qword ptr [r11 + {claim}]
    cmp rcx, qword ptr [r11 + {tail}]
    je 90f                        # drained: the push rewinds an empty ring
    cmp rcx, qword ptr [r11 + {limit}]
    jae 90f                       # the window is used up or closed
    mov rcx, qword ptr [rip + lp_thread_block@GOTTPOFF]
    mov r11, qword ptr fs:[rcx + {dispatches}]
    inc qword ptr [r11 + rax*8]   # the sole writer's count, as a miss
"#,
    #[cfg(debug_assertions)]
    "inc qword ptr fs:[rcx + {stub_exits}]",
    r#"
    lea rsp, [rsp - 128]          # under the red zone, as the full path
    push rax                      # nr
    syscall                       # in the gate, like the miss exit's
    push rax                      # ret
    push rdx                      # a3; the site is at [rsp + 152]
    mov r11, qword ptr [rip + lp_thread_block@GOTTPOFF]
    mov r11, qword ptr fs:[r11 + {record_window}]
    test r11, r11
    jz 58f                        # a signal's fork child forgot it
    inc qword ptr [r11 + {nest}]  # an append in flight: the count a
                                  # signal's append nests under
51: # Claim the next index, inside the window, on a ring not drained.
    mov rax, qword ptr [r11 + {claim}]
    cmp rax, qword ptr [r11 + {tail}]
    je 57f
    lea rcx, [rax + 1]
    cmp rcx, qword ptr [r11 + {limit}]
    ja 57f
    cmpxchg qword ptr [r11 + {claim}], rcx
    jne 51b                       # a signal's append claimed first
    imul rax, rax, {slot_size}
    add rax, qword ptr [r11 + {bias}]   # rax = the slot
    mov rcx, qword ptr [rsp + 16]
    mov qword ptr [rax + {sysno}], rcx
    mov qword ptr [rax + {args}], rdi
    mov qword ptr [rax + {args} + 8], rsi
    mov rcx, qword ptr [rsp]
    mov qword ptr [rax + {args} + 16], rcx
    mov qword ptr [rax + {args} + 24], r10
    mov qword ptr [rax + {args} + 32], r8
    mov qword ptr [rax + {args} + 40], r9
    mov rcx, qword ptr [rsp + 8]
    mov qword ptr [rax + {ret}], rcx
    mov rcx, qword ptr [rsp + 152]
    mov qword ptr [rax + {site}], rcx   # the `call rax` return address
    mov rcx, qword ptr [rip + lp_thread_block@GOTTPOFF]
    mov ecx, dword ptr fs:[rcx + {tid}]
    mov dword ptr [rax + {slot_tid}], ecx
    mov rcx, rax
    rdtsc
    shl rdx, 32
    or rax, rdx
    mov qword ptr [rcx + {tsc}], rax
"#,
    record_commit_asm!("52f"),
    r#"
52:
    pop rdx
    pop rax
    lea rsp, [rsp + 136]
    ret
    # No room after all — a signal's append used the window up, or the
    # drain emptied the ring: the recorder's push records the call.
    .globl lp_zpoline_record_late
    .hidden lp_zpoline_record_late
lp_zpoline_record_late:
57:
"#,
    record_commit_asm!("58f"),
    r#"
58:
    pop rdx
    pop rax                       # [rsp] = nr, the site at [rsp + 136]
    push rax                      # ret, above the frame
    push qword ptr [rsp + 144]    # frame.ret_addr = the site
    push rbp
    push rbx
    push r9
    push r8
    push r10
    push rdx
    push rsi
    push rdi
    push qword ptr [rsp + 80]     # frame.nr
    mov rbp, rsp                  # rbp = &RawFrame; [rbp + 80] = ret
"#,
    xstate_save_asm!(),
    r#"
    mov rdi, rbp
    mov rsi, qword ptr [rbp + 80]
    and rsp, -16
    call qword ptr [rip + {stub_globals} + {record_late}]
    xor edx, edx                  # nothing declared: the full exit
"#,
    xstate_restore_asm!(),
    r#"
    lea rsp, [rbp + 8]
    pop rdi
    pop rsi
    pop rdx
    pop r10
    pop r8
    pop r9
    pop rbx
    pop rbp
    add rsp, 8                    # frame.ret_addr
    pop rax                       # ret
    lea rsp, [rsp + 136]          # nr and the red zone
    ret

    .globl lp_zpoline_full_path
    .hidden lp_zpoline_full_path
lp_zpoline_full_path:
90: # The full path.
    sub rsp, 128                  # protect the rest of the red zone
    push qword ptr [rsp + 128]    # frame.ret_addr
    push rbp                      # frame.saved_rbp
    push rbx                      # frame.saved_rbx (rbx = our xstate anchor)
    push r9                       # frame.a6
    push r8                       # frame.a5
    push r10                      # frame.a4
    push rdx                      # frame.a3
    push rsi                      # frame.a2
    push rdi                      # frame.a1
    push rax                      # frame.nr
    mov rbp, rsp                  # rbp = &RawFrame
"#,
    xstate_save_asm!(),
    r#"
    mov rdi, rbp                  # arg0 = &RawFrame
    and rsp, -16                  # C ABI alignment for the call
    call qword ptr [rip + {stub_globals} + {dispatch}]   # rax = syscall result
    mov qword ptr [rbp], rax      # stash result in frame.nr slot
    # The dispatcher's declaration (module docs), taken: read, then
    # cleared, so that no later exit finds it.
    mov rcx, qword ptr [rip + lp_thread_block@GOTTPOFF]
    movzx edx, byte ptr fs:[rcx + {leaves_fp_env}]
    mov byte ptr fs:[rcx + {leaves_fp_env}], 0
"#,
    #[cfg(debug_assertions)]
    "add qword ptr fs:[rcx + {declared_exits}], rdx",
    xstate_restore_asm!(),
    r#"
    mov rax, qword ptr [rbp]      # reload result
    lea rsp, [rbp + 8]            # drop frame.nr (rax now holds result)
    pop rdi
    pop rsi
    pop rdx
    pop r10
    pop r8
    pop r9
    pop rbx
    pop rbp
    add rsp, 8                    # drop frame.ret_addr copy
    add rsp, 128                  # un-skip the red zone
    ret                           # to the instruction after the call site
    .size lp_zpoline_entry, . - lp_zpoline_entry

    # The gate's raw-syscall function (module docs), called with the
    # registers of a `syscall`: rax = nr, args in rdi/rsi/rdx/r10/r8/r9.
    .globl lp_zpoline_gate_syscall
    .hidden lp_zpoline_gate_syscall
    .type lp_zpoline_gate_syscall, @function
lp_zpoline_gate_syscall:
    syscall
    ret
    .size lp_zpoline_gate_syscall, . - lp_zpoline_gate_syscall

    # The gate's signal restorer (module docs): `rt_sigreturn` with the
    # signal frame at rsp.
    .globl lp_zpoline_gate_sigreturn
    .hidden lp_zpoline_gate_sigreturn
    .type lp_zpoline_gate_sigreturn, @function
lp_zpoline_gate_sigreturn:
    mov eax, 15
    syscall
    ud2
    .size lp_zpoline_gate_sigreturn, . - lp_zpoline_gate_sigreturn
    # The gate ends past the `ud2`: the kernel tests the address after a
    # `syscall` against the range SUD is armed with.
    .globl lp_zpoline_gate_end
    .hidden lp_zpoline_gate_end
lp_zpoline_gate_end:

    # The resume (module docs): the interrupted context of the signal
    # frame whose `ucontext_t` is at rdi, put back without a syscall.
    .globl lp_zpoline_resume
    .hidden lp_zpoline_resume
    .type lp_zpoline_resume, @function
lp_zpoline_resume:
    mov rsi, qword ptr [rdi + {uc_fpregs}]
    mov eax, dword ptr [rsi + {sw_xfeatures}]
    mov edx, dword ptr [rsi + {sw_xfeatures} + 4]
    xrstor64 [rsi]                # 1. RFBM = the frame's xfeatures
    lea rsi, [rdi + {uc_gregs}]
    mov rdx, qword ptr [rsi + {greg_rsp}]
    sub rdx, 264                  # 2. the image, under the red zone
    .irp i,0,1,2,3,4,5,6,7,8,9,10,11,12,13,14
    mov rax, qword ptr [rsi + 8*\i]   # gregs keep r8 … rcx in pop order
    mov qword ptr [rdx + 8*\i], rax
    .endr
    mov rax, qword ptr [rsi + {greg_efl}]
    mov qword ptr [rdx + 120], rax
    mov rax, qword ptr [rsi + {greg_rip}]
    mov qword ptr [rdx + 128], rax
    mov rsp, rdx                  # 3.
    pop r8                        # 4.
    pop r9
    pop r10
    pop r11
    pop r12
    pop r13
    pop r14
    pop r15
    pop rdi
    pop rsi
    pop rbp
    pop rbx
    pop rdx
    pop rax
    pop rcx
    popfq
    ret 128                       # 5. to rip, past the red zone
    .size lp_zpoline_resume, . - lp_zpoline_resume
"#,
    stub_globals = sym STUB_GLOBALS,
    xstate_mask = const offset_of!(StubGlobals, xstate_mask),
    xgetbv1 = const offset_of!(StubGlobals, xgetbv1),
    xstate_init = const offset_of!(StubGlobals, xstate_init),
    dispatch = const offset_of!(StubGlobals, dispatch),
    record_late = const offset_of!(StubGlobals, record_late),
    exits = const offset_of!(StubGlobals, exits),
    record_exit = const RECORD_EXIT,
    dispatches = const offset_of!(ThreadBlock, dispatches),
    in_dispatch = const offset_of!(ThreadBlock, in_dispatch),
    dispatches_shared = const offset_of!(ThreadBlock, dispatches_shared),
    leaves_fp_env = const offset_of!(ThreadBlock, leaves_fp_env),
    record_window = const offset_of!(ThreadBlock, record_window),
    tid = const offset_of!(ThreadBlock, tid),
    slot_size = const record::SLOT_SIZE,
    sysno = const record::SYSNO,
    args = const record::ARGS,
    ret = const record::RET,
    tsc = const record::TSC,
    site = const record::SITE,
    slot_tid = const record::TID,
    claim = const record::CLAIM,
    limit = const record::LIMIT,
    bias = const record::BIAS,
    head = const record::HEAD,
    nest = const record::NEST,
    tail = const record::TAIL,
    #[cfg(debug_assertions)]
    stub_exits = const offset_of!(ThreadBlock, stub_exits),
    #[cfg(debug_assertions)]
    declared_exits = const offset_of!(ThreadBlock, declared_exits),
    uc_fpregs = const offset_of!(libc::ucontext_t, uc_mcontext.fpregs),
    uc_gregs = const offset_of!(libc::ucontext_t, uc_mcontext.gregs),
    greg_rsp = const 8 * libc::REG_RSP,
    greg_rip = const 8 * libc::REG_RIP,
    greg_efl = const 8 * libc::REG_EFL,
    sw_xfeatures = const SW_XFEATURES,
);

// The resume pops `gregs[0..15]` in order: r8 … r15, rdi, rsi, rbp,
// rbx, rdx, rax, rcx.
const _: () = assert!(
    libc::REG_R8 == 0
        && libc::REG_R15 == 7
        && libc::REG_RDI == 8
        && libc::REG_RSI == 9
        && libc::REG_RBP == 10
        && libc::REG_RBX == 11
        && libc::REG_RDX == 12
        && libc::REG_RAX == 13
        && libc::REG_RCX == 14
        && libc::REG_RSP == 15
);

/// Offset of `fx_sw.xfeatures` in a signal frame's `xsave` image: the
/// software-reserved bytes of the legacy area start at 464, with the
/// first magic word and the extended size before it.
const SW_XFEATURES: usize = 472;

extern "C" {
    /// The assembly entry stub (see module docs).
    pub fn lp_zpoline_entry();
    /// The gate's raw-syscall function: `syscall; ret`, entered by
    /// `call` with a syscall's registers (`rax` = number, arguments in
    /// `rdi`, `rsi`, `rdx`, `r10`, `r8`, `r9`; `rcx`, `r11` clobbered).
    pub fn lp_zpoline_gate_syscall();
    fn lp_zpoline_gate_sigreturn();
    fn lp_zpoline_gate_end();
    fn lp_zpoline_resume();
}

/// The gate (module docs): the bytes from the entry stub to just past
/// the restorer behind it, which hold every `syscall` the stub,
/// [`gate_syscall`] and [`gate_sigreturn`] execute, and no other.
pub fn gate() -> std::ops::Range<usize> {
    lp_zpoline_entry as *const () as usize..lp_zpoline_gate_end as *const () as usize
}

/// The gate's signal restorer, `mov eax, 15; syscall`: an `sa_restorer`
/// (`SA_RESTORER`) whose `rt_sigreturn` passes SUD by its range.
pub fn sigreturn_restorer() -> usize {
    lp_zpoline_gate_sigreturn as *const () as usize
}

/// Issues `rt_sigreturn` from the gate with the stack pointer at
/// `frame_rsp`, where the kernel reads the signal frame to restore.
///
/// # Safety
///
/// `frame_rsp` must be this thread's stack pointer just above a kernel
/// signal frame (what `rsp` was at an `rt_sigreturn` instruction). The
/// current stack is abandoned.
pub unsafe fn gate_sigreturn(frame_rsp: u64) -> ! {
    std::arch::asm!(
        "mov rsp, {rsp}",
        "jmp {restorer}",
        rsp = in(reg) frame_rsp,
        restorer = sym lp_zpoline_gate_sigreturn,
        options(noreturn),
    );
}

/// Resumes the interrupted context of the signal frame whose
/// `ucontext_t` is at `uc`, in user space (module docs, "The resume"):
/// the extended state as the frame's `xfeatures` name it, the GPRs, the
/// flags and `rip` — what `rt_sigreturn` restores, without the kernel
/// and without a syscall.
///
/// # Safety
///
/// `uc` must be the `ucontext_t` the kernel passed to the signal
/// handler running on this thread, with an `xsave` image the kernel
/// wrote (both magic words), its `gregs` below the interrupted
/// `rsp − 264`, `TF` clear, the 64-bit user `cs`, and no user shadow
/// stack active: `sud::sigsys::UContext::resumable` checks all of that.
/// The handler must run with the interrupted context's signal mask and
/// alternate stack, which nothing here restores. Its stack, and every
/// value on it, is abandoned.
pub unsafe fn resume_context(uc: *const libc::ucontext_t) -> ! {
    #[cfg(debug_assertions)]
    {
        let block = thread_block();
        block.resumes.set(block.resumes.get() + 1);
    }
    // SAFETY: the caller vouches for the frame (above); the routine
    // leaves this function's stack for the interrupted context's.
    std::arch::asm!(
        "jmp {resume}",
        resume = sym lp_zpoline_resume,
        in("rdi") uc,
        options(noreturn),
    );
}

/// Issues `call` from the gate's `syscall` instruction.
///
/// # Safety
///
/// Same contract as [`syscalls::raw::syscall`].
#[inline(always)]
pub unsafe fn gate_syscall(call: &syscalls::SyscallArgs) -> u64 {
    let ret;
    // Not `nostack`: the `call` pushes its return address.
    std::arch::asm!(
        "call {gate}",
        gate = sym lp_zpoline_gate_syscall,
        inlateout("rax") call.nr => ret,
        in("rdi") call.args[0],
        in("rsi") call.args[1],
        in("rdx") call.args[2],
        in("r10") call.args[3],
        in("r8") call.args[4],
        in("r9") call.args[5],
        out("rcx") _,
        out("r11") _,
    );
    ret
}

/// The arities of `syscalls::raw` this crate's patcher and
/// [`crate::maps`] use, issued from the gate instead: they run in lazypoline's SIGSYS
/// handler with the rewrite lock held, where an enrolled thread's
/// syscall from outside the gate would trap into a nested handler that
/// waits for the same lock.
pub(crate) mod raw {
    use syscalls::SyscallArgs;

    /// # Safety
    ///
    /// As [`syscalls::raw::syscall1`].
    pub(crate) unsafe fn syscall1(nr: u64, a1: u64) -> u64 {
        super::gate_syscall(&SyscallArgs::new(nr, [a1, 0, 0, 0, 0, 0]))
    }

    /// # Safety
    ///
    /// As [`syscalls::raw::syscall3`].
    pub(crate) unsafe fn syscall3(nr: u64, a1: u64, a2: u64, a3: u64) -> u64 {
        super::gate_syscall(&SyscallArgs::new(nr, [a1, a2, a3, 0, 0, 0]))
    }
}

static TRAMPOLINE_INSTALLED: AtomicBool = AtomicBool::new(false);

/// Held while page zero is being mapped, filled or probed. (The guard
/// protects no data, so a poisoned lock is taken all the same.)
static PAGE_ZERO: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Handle to the installed page-zero trampoline.
///
/// The mapping is process-global and irrevocable by design: rewritten
/// `call rax` sites all over the process depend on it, so there is no
/// uninstall and the handle is a zero-sized witness.
#[derive(Debug)]
pub struct Trampoline {
    sled_len: usize,
}

/// Total bytes mapped at address 0 (sled + jump stub, page-rounded).
pub const TRAMPOLINE_BYTES: usize = 4096;

const SLED_LEN: usize = MAX_SYSCALL_NR as usize;

/// The displacements of the sled's jumps, longest first. Each is also
/// a prefix byte (operand size, then the DS, SS, CS and ES overrides,
/// which 64-bit mode ignores): in front of a `nop` it makes a longer
/// `nop`.
const SLED_HOPS: [u8; 5] = [0x66, 0x3e, 0x36, 0x2e, 0x26];

/// The sled (module docs): `eb XX 90` units, `XX` the longest hop whose
/// target `i + 2 + XX` does not pass the end, then plain `nop`s from
/// where the shortest would.
pub const fn sled() -> [u8; SLED_LEN] {
    let mut bytes = [0x90u8; SLED_LEN];
    let mut i = 0;
    loop {
        let mut hop = 0;
        while hop < SLED_HOPS.len() && i + 2 + SLED_HOPS[hop] as usize > SLED_LEN {
            hop += 1;
        }
        if hop == SLED_HOPS.len() {
            return bytes;
        }
        bytes[i] = 0xeb;
        bytes[i + 1] = SLED_HOPS[hop];
        i += 3;
    }
}

impl Trampoline {
    /// Maps the trampoline page at virtual address 0 and arms it.
    ///
    /// Registers the passthrough dispatcher if none is installed yet.
    /// Idempotent: a second call returns a handle without remapping.
    ///
    /// # Errors
    ///
    /// Fails with the underlying `mmap`/`mprotect` error — most commonly
    /// `EPERM` when `vm.mmap_min_addr > 0`.
    pub fn install() -> io::Result<Trampoline> {
        let sled_len = SLED_LEN;
        // Acquire pairs with the Release store at the end of a
        // concurrent install, so a caller that observes `true` also
        // observes the fully written trampoline page.
        if TRAMPOLINE_INSTALLED.load(Ordering::Acquire) {
            return Ok(Trampoline { sled_len });
        }
        // One installer (or prober) at a time: a second `MAP_FIXED`
        // would replace the page the first is still filling, and the
        // first's `mprotect` would pull it out from under the second.
        let _page_zero = PAGE_ZERO.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        if TRAMPOLINE_INSTALLED.load(Ordering::Acquire) {
            return Ok(Trampoline { sled_len });
        }

        // Fault seam: lets tests and CI force the "page zero
        // unavailable" environment without actually changing
        // vm.mmap_min_addr. Placed after the idempotency check — an
        // already-live trampoline cannot retroactively fail.
        if let Some(e) = faultinject::check(faultinject::Site::TrampolineInstall) {
            return Err(io::Error::from_raw_os_error(e));
        }

        // Published by the Release store of TRAMPOLINE_INSTALLED below,
        // like the page itself; until then no rewritten site exists.
        STUB_GLOBALS.xgetbv1.store(cpu_has_xgetbv1() as u8, Ordering::Relaxed);

        STUB_GLOBALS
            .dispatch
            .compare_exchange(
                0,
                passthrough_dispatch as *const () as usize,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .ok();

        // SAFETY: MAP_FIXED at 0 over a region nothing can legitimately
        // occupy; we fully initialize it before making it executable.
        let page = unsafe {
            libc::mmap(
                std::ptr::null_mut(),
                TRAMPOLINE_BYTES,
                libc::PROT_READ | libc::PROT_WRITE,
                libc::MAP_PRIVATE | libc::MAP_ANONYMOUS | libc::MAP_FIXED,
                -1,
                0,
            )
        };
        if page == libc::MAP_FAILED {
            return Err(io::Error::last_os_error());
        }
        if !page.is_null() {
            // The kernel honored MAP_FIXED at some other address only if
            // we asked wrongly; treat as unsupported environment.
            unsafe { libc::munmap(page, TRAMPOLINE_BYTES) };
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "kernel refused a mapping at virtual address 0",
            ));
        }

        unsafe {
            // The sled, an entry point for every syscall number. It
            // starts at address 0, which Rust pointer intrinsics treat
            // as null, so the copy goes through libc (plain FFI, no
            // null checks).
            static SLED: [u8; SLED_LEN] = sled();
            libc::memcpy(page, SLED.as_ptr().cast(), sled_len);
            // movabs r11, lp_zpoline_entry ; jmp r11
            // (r11 is syscall-clobbered, so scribbling it is ABI-clean.)
            let stub = sled_len as *mut u8; // page base is 0
            stub.add(0).write(0x49);
            stub.add(1).write(0xbb);
            (stub.add(2) as *mut u64).write_unaligned(lp_zpoline_entry as *const () as usize as u64);
            stub.add(10).write(0x41);
            stub.add(11).write(0xff);
            stub.add(12).write(0xe3);

            // Execute-only: on a host with protection keys the kernel
            // backs `PROT_EXEC` alone with its execute-only key, so a
            // null-pointer read below 4096 faults again; elsewhere the
            // page stays readable (x86 page tables cannot say otherwise).
            if libc::mprotect(page, TRAMPOLINE_BYTES, libc::PROT_EXEC) != 0 {
                return Err(io::Error::last_os_error());
            }
        }

        // Release: everything above — the sled bytes, the jump stub,
        // the mprotect — happens-before any thread that Acquire-loads
        // `true`. (The patcher checks this flag before every rewrite,
        // so the flag's load cost recurs; its SeqCst fence did not buy
        // anything — there is no second atomic to totally order with.)
        TRAMPOLINE_INSTALLED.store(true, Ordering::Release);
        Ok(Trampoline { sled_len })
    }

    /// Whether the trampoline is live in this process.
    pub fn is_installed() -> bool {
        TRAMPOLINE_INSTALLED.load(Ordering::Acquire)
    }

    /// Length of the sled (= number of syscall numbers covered).
    pub fn sled_len(&self) -> usize {
        self.sled_len
    }

    /// Probes whether this environment permits mapping page zero,
    /// without leaving the trampoline installed. Useful for skipping
    /// tests/benches gracefully.
    ///
    /// `vm.mmap_min_addr = 0` is sufficient but not necessary:
    /// `CAP_SYS_RAWIO` (e.g. root in a container) bypasses the sysctl,
    /// so the probe actually maps page zero once and unmaps it. The
    /// result is cached — both to keep the probe cheap and so a late
    /// probe can never unmap a concurrently installed trampoline.
    pub fn environment_supported() -> bool {
        if Self::is_installed() {
            return true;
        }
        static PROBE: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        *PROBE.get_or_init(|| {
            let _page_zero = PAGE_ZERO.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
            if Self::is_installed() {
                return true;
            }
            // SAFETY: PROT_NONE mapping at a fixed address nothing can
            // legitimately occupy before the trampoline exists;
            // immediately unmapped.
            let page = unsafe {
                libc::mmap(
                    std::ptr::null_mut(),
                    4096,
                    libc::PROT_NONE,
                    libc::MAP_PRIVATE | libc::MAP_ANONYMOUS | libc::MAP_FIXED,
                    -1,
                    0,
                )
            };
            if page == libc::MAP_FAILED {
                return false;
            }
            let ok = page.is_null();
            // SAFETY: unmapping exactly what the probe mapped.
            unsafe { libc::munmap(page, 4096) };
            ok
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::{Mutex, MutexGuard};
    use syscalls::{nr, Errno};

    static SEEN_NR: AtomicU64 = AtomicU64::new(0);

    /// Exit bytes as `interpose::exit` spells them: a number a handler
    /// wants, and one the dispatcher must see whatever the interest.
    const WANTED: u8 = 0b001;
    const ROUTED: u8 = 0b100;

    /// The dispatcher, the mask and the `xgetbv(1)` byte are process
    /// globals; tests that set one hold this while they depend on it.
    static GLOBALS: Mutex<()> = Mutex::new(());

    fn lock_globals() -> MutexGuard<'static, ()> {
        GLOBALS.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    unsafe extern "C" fn counting_dispatch(frame: *mut RawFrame) -> u64 {
        SEEN_NR.store((*frame).nr, Ordering::SeqCst);
        syscalls::raw::syscall((*frame).syscall_args())
    }

    /// Never inlined: every call goes through one `call rax` site,
    /// which the record exit's test reads back as the record's site.
    #[inline(never)]
    fn call_via_trampoline(args: syscalls::SyscallArgs) -> u64 {
        // Simulate an already-rewritten site: `call rax` with rax = nr.
        let ret: u64;
        unsafe {
            std::arch::asm!(
                "call rax",
                inlateout("rax") args.nr => ret,
                in("rdi") args.args[0],
                in("rsi") args.args[1],
                in("rdx") args.args[2],
                in("r10") args.args[3],
                in("r8") args.args[4],
                in("r9") args.args[5],
                out("rcx") _,
                out("r11") _,
            );
        }
        ret
    }

    #[test]
    fn trampoline_end_to_end() {
        if !Trampoline::environment_supported() {
            eprintln!("vm.mmap_min_addr != 0; skipping trampoline test");
            return;
        }
        let _globals = lock_globals();
        let t = Trampoline::install().unwrap();
        assert_eq!(t.sled_len(), 512);
        assert!(Trampoline::is_installed());
        set_dispatcher(counting_dispatch);

        // getpid through the trampoline must match the real pid.
        let pid = call_via_trampoline(syscalls::SyscallArgs::nullary(nr::GETPID));
        assert_eq!(pid, unsafe { libc::getpid() } as u64);
        assert_eq!(SEEN_NR.load(Ordering::SeqCst), nr::GETPID);

        // Syscall 500 (tail of the sled) must come back ENOSYS.
        let r = call_via_trampoline(syscalls::SyscallArgs::nullary(
            syscalls::NONEXISTENT_SYSCALL,
        ));
        assert_eq!(Errno::from_ret(r), Some(Errno::ENOSYS));
        assert_eq!(SEEN_NR.load(Ordering::SeqCst), syscalls::NONEXISTENT_SYSCALL);

        // Arguments must flow through unmangled: write to an invalid fd.
        let buf = b"zz";
        let r = call_via_trampoline(syscalls::SyscallArgs::new(
            nr::WRITE,
            [u64::MAX, buf.as_ptr() as u64, 2, 0, 0, 0],
        ));
        assert_eq!(Errno::from_ret(r), Some(Errno::EBADF));
    }

    /// What executing the sled from `entry` does, decoded with this
    /// crate's own decoder: (taken jumps, nops) up to offset `0x200`.
    fn walk_sled(sled: &[u8], entry: usize) -> (usize, usize) {
        let (mut at, mut jumps, mut nops) = (entry, 0, 0);
        while at < sled.len() {
            let insn = crate::disasm::decode(&sled[at..]);
            assert!(insn.known && !insn.is_syscall, "entry {entry}: byte {at}");
            match sled[at..at + insn.len] {
                [0xeb, rel] => {
                    assert!(rel < 0x80, "entry {entry}: backward jump at {at}");
                    at += 2 + rel as usize;
                    jumps += 1;
                    assert!(at <= sled.len(), "entry {entry}: jump past the sled");
                    continue;
                }
                // A nop, or a nop behind one prefix that it ignores.
                [0x90] | [0x66 | 0x3e | 0x36 | 0x2e | 0x26, 0x90] => nops += 1,
                ref other => panic!("entry {entry}: {other:02x?} at {at}"),
            }
            at += insn.len;
        }
        assert_eq!(at, sled.len(), "entry {entry} must end exactly at the stub");
        (jumps, nops)
    }

    #[test]
    fn sled_is_transparent_from_every_entry() {
        let sled = sled();
        assert_eq!(sled.len(), 0x200);
        let walks: Vec<_> = (0..sled.len()).map(|entry| walk_sled(&sled, entry)).collect();
        assert_eq!(walks.iter().map(|w| w.0).max(), Some(5), "taken jumps");
        assert_eq!(walks.iter().map(|w| w.1).max(), Some(43), "nops executed");
        // The numbers new code uses most sit where a fixed `eb 66 90`
        // chain would leave a 103-nop tail.
        for nr in [435, 436, 437, 439] {
            assert!(walks[nr].0 == 1 && walks[nr].1 <= 13, "{nr}: {:?}", walks[nr]);
        }
    }

    unsafe extern "C" fn recording_dispatch(frame: *mut RawFrame) -> u64 {
        SEEN_NR.store((*frame).nr, Ordering::SeqCst);
        0x5eed
    }

    #[test]
    fn sled_delivers_the_number_it_was_entered_at() {
        if !Trampoline::environment_supported() {
            eprintln!("vm.mmap_min_addr != 0; skipping trampoline test");
            return;
        }
        let _globals = lock_globals();
        Trampoline::install().unwrap();
        let prev = set_dispatcher(recording_dispatch).expect("install registers one");
        for nr in [0, 1, 2, 39, 231, 257, 334, 435, 511] {
            SEEN_NR.store(u64::MAX, Ordering::SeqCst);
            assert_eq!(call_via_trampoline(syscalls::SyscallArgs::nullary(nr)), 0x5eed);
            assert_eq!(SEEN_NR.load(Ordering::SeqCst), nr);
        }
        set_dispatcher(prev);
    }

    #[test]
    fn block_starts_zeroed_and_is_per_thread() {
        assert!(std::mem::size_of::<ThreadBlock>() <= 64);
        std::thread::spawn(|| {
            let block = thread_block();
            assert_eq!(block as *const ThreadBlock as usize % 64, 0);
            assert!(!block.armed() && !block.enrolled() && !block.in_dispatch());
            block.set_enrolled(true);
            assert!(!block.set_in_dispatch(true));
            assert!(block.set_in_dispatch(false));
            let other = std::thread::spawn(|| thread_block().enrolled()).join().unwrap();
            assert!(!other, "one block per thread");
        })
        .join()
        .unwrap();
    }

    /// The miss exit against a dispatcher that would answer differently:
    /// which of the two ran shows in the return value.
    #[test]
    fn miss_exit_is_taken_only_when_everything_allows_it() {
        if !Trampoline::environment_supported() {
            eprintln!("vm.mmap_min_addr != 0; skipping trampoline test");
            return;
        }
        static EXITS: ExitTable = [const { AtomicU8::new(0) }; SLED_LEN];
        // getuid stands in for a call the dispatcher emulates.
        EXITS[nr::GETUID as usize].store(ROUTED, Ordering::Relaxed);
        static DISPATCHES: DispatchRow = [const { AtomicU64::new(0) }; SLED_LEN];
        let _globals = lock_globals();
        Trampoline::install().unwrap();
        let prev = set_dispatcher(recording_dispatch).expect("install registers one");
        let pid = unsafe { libc::getpid() } as u64;
        let getpid = || call_via_trampoline(syscalls::SyscallArgs::nullary(nr::GETPID));

        // A thread of its own: a fresh block, and nobody else's armed.
        std::thread::spawn(move || {
            let block = thread_block();
            let stub_exits = || thread_block().stub_exits();

            assert_eq!(getpid(), 0x5eed, "nothing published");
            set_exits(Some(&EXITS));
            assert_eq!(getpid(), 0x5eed, "block not armed");
            // SAFETY: the row's sole writer first: the plain `inc`.
            unsafe { block.arm(&DISPATCHES, true) };
            let row = block
                .sole_writer_dispatches()
                .expect("armed as its sole writer");
            assert!(std::ptr::eq(row, &DISPATCHES));
            // The stub counts in the slot of the number it issues, and
            // in no other.
            let counted = || DISPATCHES[nr::GETPID as usize].load(Ordering::SeqCst);
            let total = || {
                DISPATCHES
                    .iter()
                    .map(|s| s.load(Ordering::SeqCst))
                    .sum::<u64>()
            };

            let before = (counted(), stub_exits());
            assert_eq!(getpid(), pid, "the stub's own syscall");
            assert_eq!(counted(), before.0 + 1);
            assert_eq!(stub_exits(), before.1 + cfg!(debug_assertions) as u64);
            block.set_in_dispatch(true);
            assert_eq!(getpid(), pid, "under a handler");
            block.set_in_dispatch(false);
            assert_eq!(counted(), before.0 + 1, "a handler's own call");

            let getpid_exit = &EXITS[nr::GETPID as usize];
            getpid_exit.store(WANTED, Ordering::Relaxed);
            assert_eq!(getpid(), 0x5eed, "a handler is interested");
            for byte in 1..=u8::MAX {
                getpid_exit.store(byte, Ordering::Relaxed);
                assert_eq!(getpid(), 0x5eed, "byte {byte}: no window, so the full path");
            }
            getpid_exit.store(0, Ordering::Relaxed);
            let getuid = call_via_trampoline(syscalls::SyscallArgs::nullary(nr::GETUID));
            assert_eq!(getuid, 0x5eed, "the dispatcher emulates it");
            // No seam sits between the stub and its `syscall`.
            faultinject::arm(faultinject::Site::SelectorWrite, faultinject::Schedule::Nth(1), None);
            assert_eq!(getpid(), pid, "a fault site is armed");
            faultinject::disarm(faultinject::Site::SelectorWrite);
            assert_eq!(counted(), before.0 + 2);
            // One of several writers of the row: the `lock inc` arm.
            unsafe { block.arm(&DISPATCHES, false) };
            assert!(block.sole_writer_dispatches().is_none());
            assert_eq!(getpid(), pid);
            assert_eq!(stub_exits(), before.1 + 4 * cfg!(debug_assertions) as u64);
            block.disarm();
            assert_eq!(getpid(), 0x5eed, "disarmed");
            assert_eq!(counted(), before.0 + 3);
            assert_eq!(total(), counted(), "getpid's slot alone");
        })
        .join()
        .unwrap();

        set_dispatcher(prev);
        let published = STUB_GLOBALS.exits.load(Ordering::SeqCst);
        assert!(published.is_null(), "withdrawn with its dispatcher");
    }

    /// The record exit against a dispatcher that would answer
    /// differently, on a cursor and slots laid out as [`record`] says:
    /// it appends inside the window alone, and publishes what it wrote.
    #[test]
    fn record_exit_appends_inside_its_window_only() {
        if !Trampoline::environment_supported() {
            eprintln!("vm.mmap_min_addr != 0; skipping trampoline test");
            return;
        }
        static EXITS: ExitTable = [const { AtomicU8::new(RECORD_EXIT) }; SLED_LEN];
        // Record-only, but the dispatcher emulates it.
        EXITS[nr::GETUID as usize].store(RECORD_EXIT | ROUTED, Ordering::Relaxed);
        static DISPATCHES: DispatchRow = [const { AtomicU64::new(0) }; SLED_LEN];
        static LATE: AtomicU64 = AtomicU64::new(0);
        unsafe extern "C" fn late(_frame: *const RawFrame, _ret: u64) {
            LATE.fetch_add(1, Ordering::SeqCst);
        }
        let _globals = lock_globals();
        Trampoline::install().unwrap();
        set_record_late(late);
        let prev = set_dispatcher(recording_dispatch).expect("install registers one");
        let pid = unsafe { libc::getpid() } as u64;
        let args = [11, 22, 33, 44, 55, 66];
        let getpid = move || call_via_trampoline(syscalls::SyscallArgs::new(nr::GETPID, args));

        std::thread::spawn(move || {
            // claim, limit, bias, head, nest, tail; three slots of 11
            // words.
            let cursor: [AtomicU64; 6] = [const { AtomicU64::new(0) }; 6];
            const WORDS: usize = record::SLOT_SIZE / 8;
            let slots: [AtomicU64; 3 * WORDS] = [const { AtomicU64::new(0) }; 3 * WORDS];
            let word = |slot: usize, offset: usize| slots[slot * WORDS + offset / 8].load(Ordering::SeqCst);
            let field = |i: usize| cursor[i].load(Ordering::SeqCst);
            let block = thread_block();
            set_exits(Some(&EXITS));
            // SAFETY: the row's sole writer.
            unsafe { block.arm(&DISPATCHES, true) };
            assert_eq!(getpid(), 0x5eed, "no window");

            // A window of two, from index 5 on, handed over (as the
            // recorder's push does) once the block knows its tid.
            let want_tid = block.tid() as u64;
            cursor[0].store(5, Ordering::SeqCst);
            cursor[1].store(7, Ordering::SeqCst);
            let bias = (slots.as_ptr() as u64).wrapping_sub(5 * record::SLOT_SIZE as u64);
            cursor[2].store(bias, Ordering::SeqCst);
            cursor[3].store(5, Ordering::SeqCst);
            block.set_record_window(cursor.as_ptr() as usize);
            let (counted, exits) = (DISPATCHES[nr::GETPID as usize].load(Ordering::SeqCst), block.stub_exits());
            assert_eq!(getpid(), pid, "the record exit");
            assert_eq!(getpid(), pid, "the record exit again");
            assert_eq!([field(0), field(3), field(4)], [7, 7, 0], "claimed, published, none in flight");
            for slot in 0..2 {
                assert_eq!(word(slot, record::SYSNO), nr::GETPID);
                let written: Vec<u64> = (0..6).map(|a| word(slot, record::ARGS + 8 * a)).collect();
                assert_eq!(written, args);
                assert_eq!(word(slot, record::RET), pid);
                assert_ne!(word(slot, record::TSC), 0);
                assert_ne!(word(slot, record::SITE), 0);
                assert_eq!(word(slot, record::SITE), word(0, record::SITE), "one call site");
                assert_eq!(word(slot, record::TID) & 0xffff_ffff, want_tid);
            }
            assert!(word(0, record::TSC) <= word(1, record::TSC));
            assert_eq!(DISPATCHES[nr::GETPID as usize].load(Ordering::SeqCst), counted + 2);
            assert_eq!(block.stub_exits(), exits + 2 * cfg!(debug_assertions) as u64);

            assert_eq!(getpid(), 0x5eed, "the window is used up");
            assert!((0..WORDS).all(|w| word(2, 8 * w) == 0), "nothing past the window");
            cursor[1].store(8, Ordering::SeqCst);
            cursor[5].store(7, Ordering::SeqCst);
            assert_eq!(getpid(), 0x5eed, "the ring is empty: the push rewinds it");
            cursor[5].store(0, Ordering::SeqCst);
            block.set_in_dispatch(true);
            assert_eq!(getpid(), pid, "a handler's own call: executed alone");
            block.set_in_dispatch(false);
            EXITS[nr::GETPID as usize].store(WANTED, Ordering::SeqCst);
            assert_eq!(getpid(), 0x5eed, "a number the stack does not only record");
            EXITS[nr::GETPID as usize].store(RECORD_EXIT, Ordering::SeqCst);
            let getuid = call_via_trampoline(syscalls::SyscallArgs::nullary(nr::GETUID));
            assert_eq!(getuid, 0x5eed, "the dispatcher emulates it");
            unsafe { block.arm(&DISPATCHES, false) };
            assert_eq!(getpid(), 0x5eed, "a shared row");
            assert_eq!([field(0), field(3), field(4)], [7, 7, 0], "none of them appended");
            assert_eq!(DISPATCHES[nr::GETPID as usize].load(Ordering::SeqCst), counted + 2);
            assert_eq!(LATE.load(Ordering::SeqCst), 0, "every call found its room");
            block.disarm();
            block.set_record_window(0);
        })
        .join()
        .unwrap();

        set_dispatcher(prev);
    }

    /// A signal handler registered with the gate's restorer returns
    /// through it: the restorer lies in the gate, and its `rt_sigreturn`
    /// restores the interrupted context.
    #[test]
    fn gate_restorer_returns_from_a_signal() {
        static RAN: AtomicU64 = AtomicU64::new(0);
        extern "C" fn on_usr2(_sig: libc::c_int) {
            RAN.fetch_add(1, Ordering::SeqCst);
        }
        let restorer = sigreturn_restorer();
        assert!(gate().contains(&restorer) && gate().contains(&(restorer + 7)));
        // SAFETY: reading the restorer's own bytes.
        let bytes = unsafe { *(restorer as *const [u8; 7]) };
        assert_eq!(bytes, [0xb8, 15, 0, 0, 0, 0x0f, 0x05], "mov eax, 15; syscall");
        const SA_RESTORER: u64 = 0x0400_0000;
        // The kernel's `rt_sigaction` layout: handler, flags, restorer, mask.
        let act = [on_usr2 as *const () as usize as u64, SA_RESTORER, restorer as u64, 0];
        let mut old = [0u64; 4];
        unsafe {
            let call = |new: &[u64; 4], old: &mut [u64; 4]| {
                syscalls::raw::syscall4(
                    nr::RT_SIGACTION,
                    libc::SIGUSR2 as u64,
                    new.as_ptr() as u64,
                    old.as_mut_ptr() as u64,
                    8,
                )
            };
            assert_eq!(call(&act, &mut old), 0);
            let sentinel = 0x1234_5678_9abc_def0u64;
            let r12: u64;
            std::arch::asm!(
                "mov r12, {s}",
                "call {raise}",
                s = in(reg) sentinel,
                raise = sym raise_usr2,
                lateout("r12") r12,
                clobber_abi("C"),
            );
            assert_eq!(r12, sentinel, "a callee-saved register across the signal");
            assert_eq!(call(&old, &mut [0; 4]), 0);
        }
        assert_eq!(RAN.load(Ordering::SeqCst), 1);
    }

    extern "C" fn raise_usr2() {
        // SAFETY: the test registered a handler for it.
        unsafe { libc::raise(libc::SIGUSR2) };
    }

    /// What [`lp_resume_probe`] is given and observes.
    #[repr(C)]
    struct ResumeProbe {
        /// r8 … r15, rdi, rsi, rbp, rbx, rdx, rax, rcx: `gregs` order.
        gpr_in: [u64; 15],
        flags_in: u64,
        /// Then the flags, stored with them.
        gpr_out: [u64; 15],
        flags_out: u64,
        rsp_before: u64,
        rsp_after: u64,
        xmm_in: [u8; 16],
        xmm_out: [u8; 16],
        mxcsr_in: u32,
        mxcsr_out: u32,
        mxcsr_caller: u32,
        fcw_in: u16,
        fcw_out: u16,
        fcw_caller: u16,
    }

    // Every GPR but rsp, the flags, xmm7, the x87 control word and
    // MXCSR in a known state at a `ud2`, whose SIGILL handler steps
    // over it and resumes. SysV: rdi = &mut ResumeProbe.
    std::arch::global_asm!(
        r#"
        .text
        .globl lp_resume_probe
        .hidden lp_resume_probe
        .type lp_resume_probe, @function
    lp_resume_probe:
        push rbp
        push rbx
        push r12
        push r13
        push r14
        push r15
        push rdi                      # [rsp] = probe
        fnstcw word ptr [rdi + {fcw_caller}]
        stmxcsr dword ptr [rdi + {mxcsr_caller}]
        fldcw word ptr [rdi + {fcw_in}]
        ldmxcsr dword ptr [rdi + {mxcsr_in}]
        movdqu xmm7, xmmword ptr [rdi + {xmm_in}]
        mov qword ptr [rdi + {rsp_before}], rsp
        push qword ptr [rdi + {flags_in}]
        mov r8, qword ptr [rdi + {gpr_in} + 0]
        mov r9, qword ptr [rdi + {gpr_in} + 8]
        mov r10, qword ptr [rdi + {gpr_in} + 16]
        mov r11, qword ptr [rdi + {gpr_in} + 24]
        mov r12, qword ptr [rdi + {gpr_in} + 32]
        mov r13, qword ptr [rdi + {gpr_in} + 40]
        mov r14, qword ptr [rdi + {gpr_in} + 48]
        mov r15, qword ptr [rdi + {gpr_in} + 56]
        mov rsi, qword ptr [rdi + {gpr_in} + 72]
        mov rbp, qword ptr [rdi + {gpr_in} + 80]
        mov rbx, qword ptr [rdi + {gpr_in} + 88]
        mov rdx, qword ptr [rdi + {gpr_in} + 96]
        mov rax, qword ptr [rdi + {gpr_in} + 104]
        mov rcx, qword ptr [rdi + {gpr_in} + 112]
        popfq
        mov rdi, qword ptr [rdi + {gpr_in} + 64]
        ud2
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
        cld
        mov rdi, qword ptr [rsp + 128]
        lea rax, [rsp + 128]
        mov qword ptr [rdi + {rsp_after}], rax
        .irp k,0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15
        mov rax, qword ptr [rsp + 8*\k]
        mov qword ptr [rdi + {gpr_out} + 8*\k], rax
        .endr
        fnstcw word ptr [rdi + {fcw_out}]
        stmxcsr dword ptr [rdi + {mxcsr_out}]
        movdqu xmmword ptr [rdi + {xmm_out}], xmm7
        fldcw word ptr [rdi + {fcw_caller}]
        ldmxcsr dword ptr [rdi + {mxcsr_caller}]
        add rsp, 136
        pop r15
        pop r14
        pop r13
        pop r12
        pop rbx
        pop rbp
        ret
        .size lp_resume_probe, . - lp_resume_probe
    "#,
        gpr_in = const offset_of!(ResumeProbe, gpr_in),
        gpr_out = const offset_of!(ResumeProbe, gpr_out),
        rsp_before = const offset_of!(ResumeProbe, rsp_before),
        rsp_after = const offset_of!(ResumeProbe, rsp_after),
        flags_in = const offset_of!(ResumeProbe, flags_in),
        xmm_in = const offset_of!(ResumeProbe, xmm_in),
        xmm_out = const offset_of!(ResumeProbe, xmm_out),
        mxcsr_in = const offset_of!(ResumeProbe, mxcsr_in),
        mxcsr_out = const offset_of!(ResumeProbe, mxcsr_out),
        mxcsr_caller = const offset_of!(ResumeProbe, mxcsr_caller),
        fcw_in = const offset_of!(ResumeProbe, fcw_in),
        fcw_out = const offset_of!(ResumeProbe, fcw_out),
        fcw_caller = const offset_of!(ResumeProbe, fcw_caller),
    );

    extern "C" {
        fn lp_resume_probe(probe: *mut ResumeProbe);
    }

    /// Steps over the `ud2` and resumes in user space.
    unsafe extern "C" fn resume_past_ud2(
        _sig: libc::c_int,
        _info: *mut libc::siginfo_t,
        ctx: *mut libc::c_void,
    ) {
        let uc = ctx as *mut libc::ucontext_t;
        (*uc).uc_mcontext.gregs[libc::REG_RIP as usize] += 2;
        resume_context(uc);
    }

    /// The resume puts back what the kernel's sigreturn would: every
    /// GPR, every flag the application may set, and the extended state
    /// (the handler starts from the initial one), with `rsp` where it
    /// was — from a frame the kernel built for a `SIGILL` at a `ud2`,
    /// where no syscall has clobbered `rcx` and `r11`.
    #[test]
    fn resume_puts_back_the_interrupted_context() {
        const SA_SIGINFO: u64 = 4;
        const SA_NODEFER: u64 = 0x4000_0000;
        const SA_RESTORER: u64 = 0x0400_0000;
        // The kernel's `rt_sigaction` layout: handler, flags, restorer,
        // mask. An empty mask and `SA_NODEFER`: the handler runs with
        // the interrupted context's mask, as the resume requires.
        let act = [
            resume_past_ud2 as *const () as usize as u64,
            SA_SIGINFO | SA_NODEFER | SA_RESTORER,
            sigreturn_restorer() as u64,
            0,
        ];
        let call = |new: &[u64; 4], old: &mut [u64; 4]| unsafe {
            syscalls::raw::syscall4(
                nr::RT_SIGACTION,
                libc::SIGILL as u64,
                new.as_ptr() as u64,
                old.as_mut_ptr() as u64,
                8,
            )
        };
        let mut old = [0u64; 4];
        assert_eq!(call(&act, &mut old), 0);
        // SAFETY: all-integer fields.
        let mut p: ResumeProbe = unsafe { std::mem::zeroed() };
        p.gpr_in = std::array::from_fn(|i| 0x0101_0101_0101_0101 * (i as u64 + 1));
        // CF, PF, AF, ZF, SF, DF, OF and ID.
        p.flags_in = 0x0020_0000 | 0x0800 | 0x0400 | 0x80 | 0x40 | 0x10 | 0x04 | 0x01 | 0x202;
        p.xmm_in = std::array::from_fn(|b| 0xa0 + b as u8);
        p.mxcsr_in = 0x1f80 | 0x20; // the precision flag, sticky
        p.fcw_in = 0x0b7f;
        let resumed = thread_block().resumes();
        // SAFETY: the probe restores what it changes.
        unsafe { lp_resume_probe(&mut p) };
        assert_eq!(call(&old, &mut [0; 4]), 0);
        assert_eq!(thread_block().resumes(), resumed + cfg!(debug_assertions) as u64);
        assert_eq!(p.gpr_out, p.gpr_in, "GPRs");
        assert_eq!(p.flags_out, p.flags_in, "rflags");
        assert_eq!(p.rsp_after, p.rsp_before, "rsp");
        assert_eq!(p.xmm_out, p.xmm_in, "xmm7");
        assert_eq!(p.mxcsr_out, p.mxcsr_in, "MXCSR");
        assert_eq!(p.fcw_out, p.fcw_in, "x87 control word");
    }

    /// Loads a sentinel into xmm7, crosses the trampoline, reads it
    /// back: exactly the glibc pattern from the paper's Listing 1.
    fn xmm7_across_trampoline() {
        let before: u64 = 0xdead_beef_cafe_f00d;
        let after: u64;
        unsafe {
            std::arch::asm!(
                "movq xmm7, {before}",
                "call rax",
                "movq {after}, xmm7",
                before = in(reg) before,
                after = out(reg) after,
                inlateout("rax") nr::GETPID => _,
                in("rdi") 0u64, in("rsi") 0u64, in("rdx") 0u64,
                in("r10") 0u64, in("r8") 0u64, in("r9") 0u64,
                out("rcx") _, out("r11") _,
            );
        }
        assert_eq!(after, before, "xmm7 clobbered across interposition");
    }

    #[test]
    fn xstate_preserved_across_trampoline() {
        if !Trampoline::environment_supported() {
            eprintln!("vm.mmap_min_addr != 0; skipping xstate test");
            return;
        }
        let _globals = lock_globals();
        Trampoline::install().unwrap();
        set_xstate_mask(XstateMask::Avx);
        xmm7_across_trampoline();
    }

    /// Entered under `X87`, widens the mask before it returns — what
    /// `ActiveMechanism::set_xstate` on another thread does to a
    /// dispatch in flight.
    unsafe extern "C" fn widening_dispatch(frame: *mut RawFrame) -> u64 {
        set_xstate_mask(XstateMask::Avx);
        syscalls::raw::syscall((*frame).syscall_args())
    }

    #[test]
    fn mask_widened_mid_dispatch_restores_under_entry_mask() {
        if !Trampoline::environment_supported() {
            eprintln!("vm.mmap_min_addr != 0; skipping xstate test");
            return;
        }
        let _globals = lock_globals();
        Trampoline::install().unwrap();
        let prev = set_dispatcher(widening_dispatch).expect("install registers one");
        set_xstate_mask(XstateMask::X87);
        // Restoring under the *new* mask would run XRSTOR with RFBM = 7
        // over an image that holds x87 only, i.e. zero xmm0-15.
        xmm7_across_trampoline();
        set_dispatcher(prev);
    }

    /// A handler nobody vetted, in baseline x86-64 only so that the test
    /// runs on every host: junk in `xmm7`, a value left on the x87
    /// stack, MXCSR rounding changed. (`scenario_xstate` in
    /// `tests/native_engine.rs` is the full register canary.)
    unsafe extern "C" fn clobbering_dispatch(frame: *mut RawFrame) -> u64 {
        static ROUND_TO_ZERO: u32 = 0x7f80;
        std::arch::asm!(
            "pcmpeqd xmm7, xmm7",
            "fld1",
            "ldmxcsr [{rz}]",
            rz = in(reg) &ROUND_TO_ZERO,
            out("xmm7") _,
            out("st(0)") _, out("st(1)") _, out("st(2)") _, out("st(3)") _,
            out("st(4)") _, out("st(5)") _, out("st(6)") _, out("st(7)") _,
        );
        syscalls::raw::syscall((*frame).syscall_args())
    }

    /// Crosses the trampoline with a sentinel in `xmm7`, MXCSR rounding
    /// up and x87 either initial or holding a value; the clobbering
    /// dispatcher must be invisible under mask `Avx`.
    fn clobbering_dispatcher_is_invisible() {
        let prev = set_dispatcher(clobbering_dispatch).expect("install registers one");
        set_xstate_mask(XstateMask::Avx);
        for x87_live in [false, true] {
            // Twice: the first crossing must leave the thread in a state
            // the second handles as well.
            for round in 0..2 {
                let (xmm7_in, st0_in, mxcsr_in) = (0xdead_beef_cafe_f00d_u64, 1234.5678_f64, 0x5f80_u32);
                let xmm7_out: u64;
                let (mut st0_out, mut mxcsr_out, mut mxcsr_caller) = (0.0_f64, 0u32, 0u32);
                let mut fsw = [0u16; 2]; // x87 status word (stack top) before, after
                unsafe {
                    std::arch::asm!(
                        "stmxcsr [{caller}]",
                        "mov eax, 1",
                        "xor edx, edx",
                        "xrstor64 [{init}]",      // x87 initial, XINUSE[0] = 0
                        "test {live:e}, {live:e}",
                        "jz 2f",
                        "fld qword ptr [{st0_in}]",
                        "2:",
                        "movq xmm7, {xmm7_in}",
                        "ldmxcsr [{mxcsr_in}]",
                        "fnstsw word ptr [{fsw}]",
                        "mov eax, 39",            // getpid
                        "call rax",
                        "fnstsw word ptr [{fsw} + 2]",
                        "stmxcsr [{mxcsr_out}]",
                        "movq {xmm7_out}, xmm7",
                        "test {live:e}, {live:e}",
                        "jz 3f",
                        "fstp qword ptr [{st0_out}]",
                        "3:",
                        "mov eax, 1",
                        "xor edx, edx",
                        "xrstor64 [{init}]",
                        "ldmxcsr [{caller}]",
                        caller = in(reg) &mut mxcsr_caller,
                        init = in(reg) &STUB_GLOBALS.xstate_init,
                        live = in(reg) x87_live as u32,
                        st0_in = in(reg) &st0_in,
                        st0_out = in(reg) &mut st0_out,
                        xmm7_in = in(reg) xmm7_in,
                        xmm7_out = out(reg) xmm7_out,
                        mxcsr_in = in(reg) &mxcsr_in,
                        mxcsr_out = in(reg) &mut mxcsr_out,
                        fsw = in(reg) &mut fsw,
                        out("rax") _, out("rcx") _, out("rdx") _, out("r11") _,
                        out("xmm7") _,
                        out("st(0)") _, out("st(1)") _, out("st(2)") _, out("st(3)") _,
                        out("st(4)") _, out("st(5)") _, out("st(6)") _, out("st(7)") _,
                    );
                }
                let cell = format!("x87_live={x87_live} round={round}");
                assert_eq!(xmm7_out, xmm7_in, "xmm7, {cell}");
                assert_eq!(mxcsr_out, mxcsr_in, "MXCSR, {cell}");
                assert_eq!(fsw[1], fsw[0], "x87 status word, {cell}");
                if x87_live {
                    assert_eq!(st0_out, st0_in, "st(0), {cell}");
                }
            }
        }
        set_dispatcher(prev);
    }

    #[test]
    fn clobbering_dispatcher_invisible_across_trampoline() {
        if !Trampoline::environment_supported() {
            eprintln!("vm.mmap_min_addr != 0; skipping xstate test");
            return;
        }
        let _globals = lock_globals();
        Trampoline::install().unwrap();
        assert_eq!(STUB_GLOBALS.xgetbv1.load(Ordering::Relaxed), cpu_has_xgetbv1() as u8);
        clobbering_dispatcher_is_invisible();
    }

    #[test]
    fn stub_without_xgetbv1_preserves_the_same() {
        if !Trampoline::environment_supported() {
            eprintln!("vm.mmap_min_addr != 0; skipping xstate test");
            return;
        }
        let _globals = lock_globals();
        Trampoline::install().unwrap();
        // As on a CPU whose CPUID lacks the bit: every dispatch takes
        // xsave64/xrstor64, no normaliser.
        let detected = STUB_GLOBALS.xgetbv1.swap(0, Ordering::Relaxed);
        set_xstate_mask(XstateMask::Avx);
        xmm7_across_trampoline();
        clobbering_dispatcher_is_invisible();
        STUB_GLOBALS.xgetbv1.store(detected, Ordering::Relaxed);
    }

    /// What [`declaring_dispatch`] declares, and whether it dirties the
    /// `ymm` uppers (hosts with AVX).
    static DECLARE: AtomicBool = AtomicBool::new(false);
    static DIRTY_UPPERS: AtomicBool = AtomicBool::new(false);

    /// Says what [`DECLARE`] says and breaks the promise where a
    /// crossing can see it: junk in `xmm7` (all of `ymm7` with
    /// [`DIRTY_UPPERS`]), MXCSR rounding toward zero.
    unsafe extern "C" fn declaring_dispatch(frame: *mut RawFrame) -> u64 {
        static ROUND_TO_ZERO: u32 = 0x7f80;
        if DIRTY_UPPERS.load(Ordering::Relaxed) {
            std::arch::asm!("vpcmpeqd ymm7, ymm7, ymm7", out("ymm7") _);
        } else {
            std::arch::asm!("pcmpeqd xmm7, xmm7", out("xmm7") _);
        }
        std::arch::asm!("ldmxcsr [{rz}]", rz = in(reg) &ROUND_TO_ZERO);
        let ret = syscalls::raw::syscall((*frame).syscall_args());
        thread_block().set_leaves_fp_env(DECLARE.load(Ordering::Relaxed));
        ret
    }

    /// Crosses the trampoline from x87 initial and `ymm` uppers clean,
    /// with a sentinel in `xmm7` and MXCSR rounding up; returns `xmm7`,
    /// MXCSR and `XINUSE` (0 without `xgetbv(1)`) after.
    fn cross_declaring() -> (u64, u32, u32) {
        let (xmm7_in, mxcsr_in) = (0xdead_beef_cafe_f00d_u64, 0x5f80_u32);
        let xmm7_out: u64;
        let (mut mxcsr_out, mut mxcsr_caller, mut inuse) = (0u32, 0u32, 0u32);
        let xgetbv1 = cpu_has_xgetbv1() as u32;
        unsafe {
            std::arch::asm!(
                "stmxcsr [{caller}]",
                "mov eax, 1",
                "xor edx, edx",
                "xrstor64 [{init}]",      // x87 initial, XINUSE[0] = 0
                "movq xmm7, {xmm7_in}",
                "ldmxcsr [{mxcsr_in}]",
                "mov eax, 39",            // getpid
                "call rax",
                "stmxcsr [{mxcsr_out}]",
                "movq {xmm7_out}, xmm7",
                "test {xgetbv1:e}, {xgetbv1:e}",
                "jz 2f",
                "mov ecx, 1",
                "xgetbv",
                "mov dword ptr [{inuse}], eax",
                "2:",
                "ldmxcsr [{caller}]",
                caller = in(reg) &mut mxcsr_caller,
                init = in(reg) &STUB_GLOBALS.xstate_init,
                xmm7_in = in(reg) xmm7_in,
                xmm7_out = out(reg) xmm7_out,
                mxcsr_in = in(reg) &mxcsr_in,
                mxcsr_out = in(reg) &mut mxcsr_out,
                xgetbv1 = in(reg) xgetbv1,
                inuse = in(reg) &mut inuse,
                out("rax") _, out("rcx") _, out("rdx") _, out("r11") _,
                out("xmm7") _,
            );
        }
        (xmm7_out, mxcsr_out, inuse)
    }

    #[test]
    fn declared_exit_restores_the_vector_registers_alone() {
        if !Trampoline::environment_supported() {
            eprintln!("vm.mmap_min_addr != 0; skipping xstate test");
            return;
        }
        let _globals = lock_globals();
        Trampoline::install().unwrap();
        let prev = set_dispatcher(declaring_dispatch).expect("install registers one");
        let case1 = STUB_GLOBALS.xgetbv1.load(Ordering::Relaxed) != 0;
        let avx = std::arch::is_x86_feature_detected!("avx");
        for mask in [XstateMask::None, XstateMask::Sse, XstateMask::Avx] {
            set_xstate_mask(mask);
            // Undeclared after declared too: the exit took the byte.
            for declare in [false, true, false] {
                DECLARE.store(declare, Ordering::Relaxed);
                let cell = format!("{mask:?}, declared: {declare}");
                let (xmm7, mxcsr, _) = cross_declaring();
                assert!(!thread_block().leaves_fp_env(), "the exit clears the byte, {cell}");
                if mask == XstateMask::None {
                    assert_eq!((xmm7, mxcsr), (u64::MAX, 0x7f80), "nothing restored, {cell}");
                    continue;
                }
                assert_eq!(xmm7, 0xdead_beef_cafe_f00d, "xmm7, {cell}");
                // Only case 1 has a declared exit; case 3 (no xgetbv(1))
                // is xrstor64 from the entry's image.
                let skipped = declare && case1;
                assert_eq!(mxcsr, if skipped { 0x7f80 } else { 0x5f80 }, "MXCSR, {cell}");
            }
        }
        if avx && case1 {
            // Uppers clean on entry, dirtied by the dispatcher: under
            // `Avx` the declared exit cleans them again without asking.
            DIRTY_UPPERS.store(true, Ordering::Relaxed);
            DECLARE.store(true, Ordering::Relaxed);
            let (xmm7, _, inuse) = cross_declaring();
            assert_eq!(xmm7, 0xdead_beef_cafe_f00d);
            assert_eq!(inuse & 4, 0, "ymm uppers left dirty");
            DIRTY_UPPERS.store(false, Ordering::Relaxed);
            DECLARE.store(false, Ordering::Relaxed);
        }
        set_xstate_mask(XstateMask::Avx);
        set_dispatcher(prev);
    }

    #[test]
    fn xgetbv1_detection_matches_cpuid() {
        use core::arch::x86_64::{__cpuid, __cpuid_count};
        let cpuid = __cpuid(0).eax >= 0xd && __cpuid_count(0xd, 1).eax & (1 << 2) != 0;
        assert_eq!(cpu_has_xgetbv1(), cpuid);
    }

    #[test]
    fn xstate_mask_encoding() {
        assert_eq!(XstateMask::None.rfbm(), 0);
        assert_eq!(XstateMask::X87.rfbm(), 1);
        assert_eq!(XstateMask::Sse.rfbm(), 3);
        assert_eq!(XstateMask::Avx.rfbm(), 7);
        assert_eq!(XstateMask::default(), XstateMask::Avx);
    }

    #[test]
    fn mask_round_trip() {
        let _globals = lock_globals();
        let orig = xstate_mask_byte();
        set_xstate_mask(XstateMask::Sse);
        assert_eq!(xstate_mask_byte(), 3);
        set_xstate_mask(XstateMask::Avx);
        assert_eq!(xstate_mask_byte(), 7);
        STUB_GLOBALS.xstate_mask.store(orig, Ordering::Relaxed);
    }
}
