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
//!       NR < 512, nobody interested in it, not one the dispatcher must
//!       emulate, this thread's block armed?
//!         │ yes: the miss exit                  │ no: label 90, the full path
//!         ▼                                     ▼
//!       bump the thread's dispatch slot       save registers → save live
//!         (unless a handler's own call)
//!       syscall (in the gate)                 xstate → call the registered
//!                                             dispatcher → restore xstate →
//!                                             restore registers
//!         ▼                                     ▼
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
//! the stub, holding the thread's slot of the dispatch counter and
//! whether the thread is that slot's only writer (it then counts with a
//! plain `inc`, others with `lock inc`), and the enrolment and
//! in-dispatch flags the dispatcher reads. The slot is also what arms
//! the block: a thread with one leaves from the stub. The dispatcher a
//! *hit* reaches counts in the same slot
//! ([`ThreadBlock::sole_writer_dispatches`]). Neither path makes a
//! syscall SUD would dispatch: every `syscall` they execute lies in the
//! gate (below), the range the kernel lets through.
//!
//! With it, a syscall nobody asked to see never builds a frame. The
//! dispatcher publishes a [`MissExit`] ([`set_miss_exit`]): the address
//! of the interest words its own gate reads and a bitmap of the numbers
//! it must handle whatever the interest. The stub tests both for `rax`
//! using `rcx` and `r11` only — `syscall` clobbers exactly those two —
//! and, when the thread's block is armed ([`ThreadBlock::arm`]), issues
//! the `syscall` itself. Between entry and that instruction only `rcx`,
//! `r11` and the flags change; the kernel preserves every other
//! register and all extended state, and the stack below the `call rax`
//! push is never written. Anything else — a hit, a number ≥ 512, an
//! unarmed or zeroed block (a thread that never enrolled), no published
//! `MissExit` — falls through to the full path, which remains the
//! reference the tests compare with.
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
//! it into that stack — and `syscalls::raw` is redirected to it); and
//! the signal restorer, `mov eax, 15; syscall`, which the engine's
//! SIGSYS handler returns through and [`gate_sigreturn`] jumps to. The
//! block's bytes are the allowed code range lazypoline arms Syscall
//! User Dispatch with, and the one range of the main executable
//! hardened mode's seccomp backstop admits. lazypoline arms SUD with
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
//! # ABI fidelity (paper §IV-B(b))
//!
//! On x86-64 Linux, `syscall` clobbers only `rax` (return value), `rcx`
//! and `r11`. The stub preserves every other general-purpose register
//! exactly, and — when an [`XstateMask`] is set — the x87/SSE/AVX state
//! the mask names across the dispatcher, since compilers freely keep
//! live values in `xmm` registers across syscalls (the paper's Listing 1
//! shows glibc's pthread initialization doing exactly that). No handler
//! declares what it touches: a Rust handler, a `dlopen`ed hook or
//! glibc's vector string functions use `xmm`/`ymm` unannounced.
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
//! red zone by moving `rsp` down 128 bytes before its own pushes; the
//! miss exit never moves `rsp` and writes nothing below it.

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
    /// The dispatcher's [`MissExit`], null while it has none.
    miss_exit: AtomicPtr<MissExit>,
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
    miss_exit: AtomicPtr::new(std::ptr::null_mut()),
    xstate_mask: AtomicU8::new(0b111),
    xgetbv1: AtomicU8::new(0),
    xstate_init: XsaveImage([0; 576]),
};

/// What a dispatcher publishes ([`set_miss_exit`]) so that the entry
/// stub can issue, by itself, the syscalls the dispatcher would only
/// pass through. Bit `nr % 64` of word `nr / 64` in both tables.
#[repr(C)]
pub struct MissExit {
    /// Numbers the dispatcher handles whatever the interest in them.
    pub full_path: [u64; 8],
    /// The words the dispatcher's own interest gate reads, so that a
    /// handler swap, a widening or a quarantine reaches the stub by the
    /// same stores.
    pub interest: &'static [AtomicU64; 8],
}

/// Publishes (or, with `None`, withdraws) the dispatcher's
/// [`MissExit`]. Takes effect for subsequent trampoline entries on all
/// threads whose [`ThreadBlock`] is armed.
pub fn set_miss_exit(exit: Option<&'static MissExit>) {
    let p = exit.map_or(std::ptr::null_mut(), |e| e as *const MissExit as *mut MissExit);
    // Release: the tables are read-only statics, but a reader that sees
    // the pointer must see them as initialised.
    STUB_GLOBALS.miss_exit.store(p, Ordering::Release);
}

/// Per-thread interposition state the entry stub reads (module docs).
///
/// A zeroed block — every thread starts with one — is a thread that is
/// not enrolled, not in a dispatch, and never leaves from the stub.
#[repr(C)]
pub struct ThreadBlock {
    /// The thread's slot of the dispatcher's dispatch counter; null =
    /// unarmed.
    dispatches: Cell<*const AtomicU64>,
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
}

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

    /// Arms the block for this thread with its slot of the dispatch
    /// counter: the stub's miss exit, and the dispatcher's plain count.
    ///
    /// # Safety
    ///
    /// With `sole_writer`, no other thread may ever write `dispatches` —
    /// this one increments it without `lock`.
    #[inline]
    pub unsafe fn arm(&self, dispatches: &'static AtomicU64, sole_writer: bool) {
        self.dispatches_shared.set(!sole_writer);
        // The slot is the key the stub tests: a signal handler that runs
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

    /// The slot [`ThreadBlock::arm`] was given for this thread's
    /// dispatch count, when the block is armed and this thread is the
    /// slot's sole writer: the dispatcher may then count in it with a
    /// plain `inc`, as the stub does.
    #[inline]
    pub fn sole_writer_dispatches(&self) -> Option<&'static AtomicU64> {
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
/// returning the previous one (if any). A [`MissExit`] belongs to the
/// dispatcher that published it, so this withdraws the current one: the
/// new dispatcher sees every call until it publishes its own.
pub fn set_dispatcher(f: DispatchFn) -> Option<DispatchFn> {
    set_miss_exit(None);
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
/// `XINUSE` bits 0 and 2 included. Clobbers `rax`, `rcx`, `rdx`, `rsi`,
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
39:
"#
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
    jae 90f                       # outside the tables: always interesting
    mov r11, qword ptr [rip + {stub_globals} + {miss_exit}]
    test r11, r11
    jz 90f                        # no dispatcher published one
    mov ecx, eax
    shr ecx, 6
    shl ecx, 3
    add rcx, qword ptr [r11 + {interest}]
    mov rcx, qword ptr [rcx]      # interest word nr / 64
    bt rcx, rax                   # bit nr % 64: a register bt wraps
    jc 90f                        # a handler wants it (hits leave here)
    mov ecx, eax
    shr ecx, 6
    mov rcx, qword ptr [r11 + {full_path} + rcx*8]
    bt rcx, rax
    jc 90f                        # the dispatcher emulates it
    mov rcx, qword ptr [rip + lp_thread_block@GOTTPOFF]
    mov r11, qword ptr fs:[rcx + {dispatches}]
    test r11, r11
    jz 90f                        # this thread's block is not armed
    cmp byte ptr fs:[rcx + {in_dispatch}], 0
    jne 81f                       # a handler's own call: not counted
    cmp byte ptr fs:[rcx + {dispatches_shared}], 0
    jne 80f
    inc qword ptr [r11]           # sole writer: one instruction, so a
                                  # signal handler's bump cannot split it
81:
"#,
    #[cfg(debug_assertions)]
    "inc qword ptr fs:[rcx + {stub_exits}]",
    r#"
    syscall                       # in the gate: SUD lets it through
    ret
80: # Other threads count in the same slot.
    lock inc qword ptr [r11]
    jmp 81b

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
"#,
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
"#,
    stub_globals = sym STUB_GLOBALS,
    xstate_mask = const offset_of!(StubGlobals, xstate_mask),
    xgetbv1 = const offset_of!(StubGlobals, xgetbv1),
    xstate_init = const offset_of!(StubGlobals, xstate_init),
    dispatch = const offset_of!(StubGlobals, dispatch),
    miss_exit = const offset_of!(StubGlobals, miss_exit),
    interest = const offset_of!(MissExit, interest),
    full_path = const offset_of!(MissExit, full_path),
    dispatches = const offset_of!(ThreadBlock, dispatches),
    in_dispatch = const offset_of!(ThreadBlock, in_dispatch),
    dispatches_shared = const offset_of!(ThreadBlock, dispatches_shared),
    #[cfg(debug_assertions)]
    stub_exits = const offset_of!(ThreadBlock, stub_exits),
);

extern "C" {
    /// The assembly entry stub (see module docs).
    pub fn lp_zpoline_entry();
    /// The gate's raw-syscall function: `syscall; ret`, entered by
    /// `call` with a syscall's registers (a [`syscalls::raw::GateFn`]).
    pub fn lp_zpoline_gate_syscall();
    fn lp_zpoline_gate_sigreturn();
    fn lp_zpoline_gate_end();
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
        static INTEREST: [AtomicU64; 8] = [const { AtomicU64::new(0) }; 8];
        static EXIT: MissExit = MissExit {
            // getuid stands in for a call the dispatcher emulates.
            full_path: [0, 1 << (nr::GETUID - 64), 0, 0, 0, 0, 0, 0],
            interest: &INTEREST,
        };
        static DISPATCHES: AtomicU64 = AtomicU64::new(0);
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
            set_miss_exit(Some(&EXIT));
            assert_eq!(getpid(), 0x5eed, "block not armed");
            // SAFETY: the slot's sole writer first: the plain `inc`.
            unsafe { block.arm(&DISPATCHES, true) };
            let slot = block.sole_writer_dispatches().expect("armed as its sole writer");
            assert!(std::ptr::eq(slot, &DISPATCHES));

            let before = (DISPATCHES.load(Ordering::SeqCst), stub_exits());
            assert_eq!(getpid(), pid, "the stub's own syscall");
            assert_eq!(DISPATCHES.load(Ordering::SeqCst), before.0 + 1);
            assert_eq!(stub_exits(), before.1 + cfg!(debug_assertions) as u64);
            block.set_in_dispatch(true);
            assert_eq!(getpid(), pid, "under a handler");
            block.set_in_dispatch(false);
            assert_eq!(DISPATCHES.load(Ordering::SeqCst), before.0 + 1, "a handler's own call");

            INTEREST[(nr::GETPID / 64) as usize].store(1 << (nr::GETPID % 64), Ordering::Relaxed);
            assert_eq!(getpid(), 0x5eed, "a handler is interested");
            INTEREST[(nr::GETPID / 64) as usize].store(0, Ordering::Relaxed);
            let getuid = call_via_trampoline(syscalls::SyscallArgs::nullary(nr::GETUID));
            assert_eq!(getuid, 0x5eed, "the dispatcher emulates it");
            // No seam sits between the stub and its `syscall`.
            faultinject::arm(faultinject::Site::SelectorWrite, faultinject::Schedule::Nth(1), None);
            assert_eq!(getpid(), pid, "a fault site is armed");
            faultinject::disarm(faultinject::Site::SelectorWrite);
            assert_eq!(DISPATCHES.load(Ordering::SeqCst), before.0 + 2);
            // One of several writers of the slot: the `lock inc` arm.
            unsafe { block.arm(&DISPATCHES, false) };
            assert!(block.sole_writer_dispatches().is_none());
            assert_eq!(getpid(), pid);
            assert_eq!(stub_exits(), before.1 + 4 * cfg!(debug_assertions) as u64);
            block.disarm();
            assert_eq!(getpid(), 0x5eed, "disarmed");
            assert_eq!(DISPATCHES.load(Ordering::SeqCst), before.0 + 3);
        })
        .join()
        .unwrap();

        set_dispatcher(prev);
        let published = STUB_GLOBALS.miss_exit.load(Ordering::SeqCst);
        assert!(published.is_null(), "withdrawn with its dispatcher");
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
