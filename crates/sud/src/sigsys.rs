//! Decoding of SUD-generated `SIGSYS` signals.
//!
//! When SUD dispatches a syscall to userspace, the kernel delivers
//! `SIGSYS` with `si_code == SYS_USER_DISPATCH` and fills the
//! `_sigsys` member of `siginfo_t`:
//!
//! * `si_call_addr` — the address **after** the intercepted `syscall`
//!   instruction (i.e. the return address the syscall would have used),
//! * `si_syscall` — the syscall number from `rax`,
//! * `si_arch`   — the AUDIT_ARCH of the calling ABI.
//!
//! The lazy rewriter computes the patch site as
//! `si_call_addr - SYSCALL_INSN_LEN` (paper §IV-A: "rewrite the invoked
//! syscall instruction").

use std::ffi::c_void;
use std::io;

use syscalls::SyscallArgs;

/// Byte length of the x86-64 `syscall`/`sysenter` instruction.
pub const SYSCALL_INSN_LEN: usize = 2;

/// The `0f 05` encoding of `syscall`.
pub const SYSCALL_INSN: [u8; 2] = [0x0f, 0x05];

/// The `ff d0` encoding of `call rax` — same length, which is the key
/// fact zpoline-style rewriting exploits (paper §II-B).
pub const CALL_RAX_INSN: [u8; 2] = [0xff, 0xd0];

/// Decoded `SIGSYS` siginfo for a SUD dispatch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SigsysInfo {
    /// Intercepted syscall number.
    pub syscall_nr: u64,
    /// Address immediately after the `syscall` instruction.
    pub call_addr: usize,
    /// AUDIT_ARCH value of the calling ABI.
    pub arch: u32,
    /// Raw `si_code` (should be [`crate::SYS_USER_DISPATCH`]).
    pub code: i32,
}

impl SigsysInfo {
    /// Address of the first byte of the intercepted `syscall`
    /// instruction — the rewrite target.
    pub fn syscall_insn_addr(&self) -> usize {
        self.call_addr - SYSCALL_INSN_LEN
    }

    /// Decodes from the raw `siginfo_t` delivered to a `SA_SIGINFO`
    /// handler.
    ///
    /// # Safety
    ///
    /// `info` must be a valid `siginfo_t` pointer for a `SIGSYS` signal,
    /// as passed by the kernel to a signal handler.
    pub unsafe fn from_siginfo(info: *const libc::siginfo_t) -> SigsysInfo {
        // The _sigsys union member is not exposed by the libc crate;
        // mirror the kernel's layout (3 ints, 4 bytes padding on 64-bit,
        // then { void* _call_addr; int _syscall; unsigned _arch; }).
        #[repr(C)]
        struct RawSigsys {
            si_signo: libc::c_int,
            si_errno: libc::c_int,
            si_code: libc::c_int,
            _pad: libc::c_int,
            call_addr: *mut c_void,
            syscall: libc::c_int,
            arch: libc::c_uint,
        }
        let raw = &*(info as *const RawSigsys);
        SigsysInfo {
            syscall_nr: raw.syscall as u64,
            call_addr: raw.call_addr as usize,
            arch: raw.arch,
            code: raw.si_code,
        }
    }
}

/// Mutable view of the interrupted context (`ucontext_t`) inside a
/// signal handler.
///
/// lazypoline's slow path modifies this context instead of handling the
/// syscall in the handler: it redirects `rip` so the interrupted thread
/// resumes in the fast path (paper §IV-A).
#[derive(Debug)]
pub struct UContext {
    uc: *mut libc::ucontext_t,
}

macro_rules! greg_accessors {
    ($(($get:ident, $set:ident, $reg:expr, $doc:expr);)*) => {
        $(
            #[doc = concat!("Reads `", $doc, "` from the interrupted context.")]
            pub fn $get(&self) -> u64 {
                unsafe { (*self.uc).uc_mcontext.gregs[$reg as usize] as u64 }
            }

            #[doc = concat!("Writes `", $doc, "` in the interrupted context.")]
            pub fn $set(&mut self, v: u64) {
                unsafe { (*self.uc).uc_mcontext.gregs[$reg as usize] = v as i64 }
            }
        )*
    };
}

impl UContext {
    /// Wraps the `*mut c_void` third argument of a `SA_SIGINFO` handler.
    ///
    /// # Safety
    ///
    /// `ptr` must be the `ucontext_t` pointer the kernel passed to the
    /// currently-executing signal handler.
    pub unsafe fn from_ptr(ptr: *mut c_void) -> UContext {
        UContext {
            uc: ptr as *mut libc::ucontext_t,
        }
    }

    greg_accessors! {
        (rip, set_rip, libc::REG_RIP, "rip");
        (rax, set_rax, libc::REG_RAX, "rax");
        (rdi, set_rdi, libc::REG_RDI, "rdi");
        (rsi, set_rsi, libc::REG_RSI, "rsi");
        (rdx, set_rdx, libc::REG_RDX, "rdx");
        (r10, set_r10, libc::REG_R10, "r10");
        (r8, set_r8, libc::REG_R8, "r8");
        (r9, set_r9, libc::REG_R9, "r9");
        (rsp, set_rsp, libc::REG_RSP, "rsp");
        (rcx, set_rcx, libc::REG_RCX, "rcx");
        (r11, set_r11, libc::REG_R11, "r11");
    }

    /// The interrupted context's signal mask (`uc_sigmask`), as the
    /// 8-byte kernel `sigset_t` `rt_sigprocmask` takes: what
    /// `sigreturn` will restore, i.e. the mask the application had when
    /// the signal arrived.
    pub fn sigmask(&self) -> *const u64 {
        unsafe { std::ptr::addr_of!((*self.uc).uc_sigmask).cast() }
    }

    /// Replaces the interrupted context's signal mask: the mask the
    /// application resumes with.
    pub fn set_sigmask(&mut self, mask: u64) {
        unsafe { std::ptr::addr_of_mut!((*self.uc).uc_sigmask).cast::<u64>().write(mask) }
    }

    /// The `ucontext_t` the kernel passed to the handler.
    pub fn as_ptr(&self) -> *const libc::ucontext_t {
        self.uc
    }

    /// The interrupted `rflags`.
    pub fn rflags(&self) -> u64 {
        // SAFETY: `from_ptr`'s contract: a live `ucontext_t`.
        unsafe { (*self.uc).uc_mcontext.gregs[libc::REG_EFL as usize] as u64 }
    }

    /// The interrupted code segment selector: `0x33` for 64-bit code,
    /// `0x23` for compat (32-bit) code.
    pub fn cs(&self) -> u16 {
        // SAFETY: as in `rflags`; `cs` is the low 16 bits of the slot.
        unsafe { (*self.uc).uc_mcontext.gregs[libc::REG_CSGSFS as usize] as u16 }
    }

    /// The extended-state image the kernel wrote into the signal frame
    /// (`uc_mcontext.fpregs`): an `fxsave` area, followed by the `xsave`
    /// header and components when [`UContext::xfeatures`] is `Some`.
    /// Null when the frame carries none.
    pub fn fpstate(&self) -> *const u8 {
        // SAFETY: as in `rflags`.
        unsafe { (*self.uc).uc_mcontext.fpregs as *const u8 }
    }

    /// The components the `xsave` image in [`UContext::fpstate`] holds —
    /// the software-reserved bytes' `xfeatures`, the set the kernel's
    /// sigreturn restores from it — when the frame is one the kernel's
    /// sigreturn would accept as `xsave`: both magic words in place, a
    /// 64-byte aligned image at least a legacy area and a header long.
    /// `None` for a frame without them (an `fxsave`-only image, or
    /// none).
    pub fn xfeatures(&self) -> Option<u64> {
        let fp = self.fpstate();
        if fp.is_null() || !(fp as usize).is_multiple_of(64) {
            return None;
        }
        // SAFETY: a kernel-written image is at least the 512-byte
        // legacy area; its software-reserved bytes (464..512) say how
        // far the rest goes.
        unsafe {
            let sw = fp.add(FX_SW_OFFSET);
            let magic1 = sw.cast::<u32>().read();
            let extended_size = sw.add(4).cast::<u32>().read();
            let xfeatures = sw.add(8).cast::<u64>().read();
            let xstate_size = sw.add(16).cast::<u32>().read();
            if magic1 != FP_XSTATE_MAGIC1
                || (xstate_size as usize) < XSAVE_MIN_SIZE
                || xstate_size > extended_size
            {
                return None;
            }
            let magic2 = fp.add(xstate_size as usize).cast::<u32>().read_unaligned();
            (magic2 == FP_XSTATE_MAGIC2).then_some(xfeatures)
        }
    }

    /// Whether `zpoline::resume_context` can put this interrupted
    /// context back in user space, as the kernel's sigreturn would: the
    /// frame has an `xsave` image ([`UContext::xfeatures`]); `TF` is
    /// clear (after `popfq` it would trap on the resume's own `ret`, one
    /// instruction early); `cs` is the 64-bit user selector; the
    /// register image lies below `rsp − 264`, where the resume copies
    /// it; and no user shadow stack is active (its `ret` would find no
    /// matching entry). Anything else takes the kernel's return.
    pub fn resumable(&self) -> bool {
        const TF: u64 = 1 << 8;
        let gregs_end = self.uc as u64 + GREGS_END as u64;
        self.xfeatures().is_some()
            && self.rflags() & TF == 0
            && self.cs() == USER64_CS
            && gregs_end <= self.rsp().wrapping_sub(264)
            && !shadow_stack_active()
    }

    /// Extracts the full syscall invocation (number + 6 args) from the
    /// interrupted register image.
    pub fn syscall_args(&self) -> SyscallArgs {
        SyscallArgs::new(
            self.rax(),
            [
                self.rdi(),
                self.rsi(),
                self.rdx(),
                self.r10(),
                self.r8(),
                self.r9(),
            ],
        )
    }
}

/// The kernel's 64-bit user code segment selector (`__USER_CS`).
const USER64_CS: u16 = 0x33;

/// `FP_XSTATE_MAGIC1`, at the start of the software-reserved bytes of
/// a signal frame's `xsave` image.
const FP_XSTATE_MAGIC1: u32 = 0x4650_5853;

/// `FP_XSTATE_MAGIC2`, right after the `xsave` image.
const FP_XSTATE_MAGIC2: u32 = 0x4650_5845;

/// Where the software-reserved bytes (`struct _fpx_sw_bytes`) start in
/// the legacy area.
const FX_SW_OFFSET: usize = 464;

/// The legacy area and the `xsave` header.
const XSAVE_MIN_SIZE: usize = 512 + 64;

/// The end of `uc_mcontext.gregs`, from the start of the `ucontext_t`.
const GREGS_END: usize = std::mem::offset_of!(libc::ucontext_t, uc_mcontext.gregs)
    + std::mem::size_of::<[libc::greg_t; 23]>();

/// Whether this thread runs with a user shadow stack: `rdsspq` reads
/// its pointer, and is a `nop` that leaves the register 0 where shadow
/// stacks are off or unknown to the CPU.
fn shadow_stack_active() -> bool {
    let mut ssp: u64 = 0;
    // SAFETY: `rdsspq` only reads the shadow-stack pointer.
    unsafe {
        std::arch::asm!(
            "rdsspq {ssp}",
            ssp = inout(reg) ssp,
            options(nomem, nostack, preserves_flags),
        )
    };
    ssp != 0
}

/// Signature of a raw `SA_SIGINFO` handler.
pub type RawHandler = unsafe extern "C" fn(libc::c_int, *mut libc::siginfo_t, *mut c_void);

/// Installs `handler` for `SIGSYS` with `SA_SIGINFO`.
///
/// The previous disposition is returned so callers can chain or restore
/// it. `SIGSYS` is masked while the handler runs (no `SA_NODEFER`), so
/// the handler must not itself trigger SUD dispatch — the `sud-raw`
/// row's handler flips the selector to ALLOW as its first action.
///
/// # Errors
///
/// Returns the `sigaction` error on failure.
///
/// # Safety
///
/// `handler` must be async-signal-safe and must follow the SUD protocol
/// described above.
pub unsafe fn install_sigsys_handler(handler: RawHandler) -> io::Result<libc::sigaction> {
    let mut sa: libc::sigaction = std::mem::zeroed();
    sa.sa_sigaction = handler as usize;
    sa.sa_flags = libc::SA_SIGINFO | libc::SA_RESTART;
    libc::sigemptyset(&mut sa.sa_mask);
    let mut old: libc::sigaction = std::mem::zeroed();
    if libc::sigaction(libc::SIGSYS, &sa, &mut old) == 0 {
        Ok(old)
    } else {
        Err(io::Error::last_os_error())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{enable_thread, set_selector, Dispatch, SYS_USER_DISPATCH};
    use std::cell::UnsafeCell;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::sync::Mutex;
    use syscalls::nr;

    /// The `SIGSYS` disposition is the process's: tests that install a
    /// handler hold this.
    static SIGSYS_HANDLER: Mutex<()> = Mutex::new(());

    static LAST_NR: AtomicU64 = AtomicU64::new(0);
    static LAST_CODE: AtomicUsize = AtomicUsize::new(0);
    static LAST_INSN: AtomicUsize = AtomicUsize::new(0);

    unsafe extern "C" fn recording_handler(
        _sig: libc::c_int,
        info: *mut libc::siginfo_t,
        ctx: *mut c_void,
    ) {
        // First action per SUD protocol: stop intercepting.
        set_selector(Dispatch::Allow);
        let si = SigsysInfo::from_siginfo(info);
        LAST_NR.store(si.syscall_nr, Ordering::SeqCst);
        LAST_CODE.store(si.code as usize, Ordering::SeqCst);
        LAST_INSN.store(si.syscall_insn_addr(), Ordering::SeqCst);
        // Emulate the syscall: report success with a recognizable value.
        let mut uc = UContext::from_ptr(ctx);
        assert_eq!(uc.syscall_args().nr, si.syscall_nr);
        uc.set_rax(0x1234);
    }

    #[test]
    fn sigsys_decoding_end_to_end() {
        if !crate::is_supported() {
            eprintln!("kernel lacks SUD; skipping");
            return;
        }
        let _handler = SIGSYS_HANDLER.lock().unwrap_or_else(|e| e.into_inner());
        unsafe {
            let old = install_sigsys_handler(recording_handler).unwrap();
            enable_thread().unwrap();
            set_selector(Dispatch::Block);
            let ret = syscalls::raw::syscall0(nr::GETPPID);
            // Handler set ALLOW, so we reach here; it also faked the return.
            assert_eq!(ret, 0x1234);
            assert_eq!(LAST_NR.load(Ordering::SeqCst), nr::GETPPID);
            assert_eq!(LAST_CODE.load(Ordering::SeqCst), SYS_USER_DISPATCH as usize);
            // The recorded instruction address must contain `syscall`.
            let insn = LAST_INSN.load(Ordering::SeqCst) as *const u8;
            assert_eq!(std::slice::from_raw_parts(insn, 2), &SYSCALL_INSN);
            crate::disable_thread().unwrap();
            libc::sigaction(libc::SIGSYS, &old, std::ptr::null_mut());
        }
    }

    /// Room for a signal frame from its `ucontext_t` to the red zone:
    /// an AVX-512 `xsave` image is under 3 KiB.
    #[repr(C, align(64))]
    struct FrameCopy(UnsafeCell<[u8; 16384]>);

    // SAFETY: written by the handler of a signal the test thread raises
    // synchronously, read by that thread after it.
    unsafe impl Sync for FrameCopy {}

    static FRAME: FrameCopy = FrameCopy(UnsafeCell::new([0; 16384]));
    /// Where the copied bytes started, and where in them the
    /// `ucontext_t` was; 0 when the frame did not fit.
    static FRAME_BASE: AtomicUsize = AtomicUsize::new(0);
    static FRAME_UC: AtomicUsize = AtomicUsize::new(0);

    /// Copies its own frame, `[ucontext_t, rsp − 128)` from a 64-byte
    /// boundary, so that the copy keeps the `xsave` image's alignment.
    unsafe extern "C" fn capturing_handler(
        _sig: libc::c_int,
        _info: *mut libc::siginfo_t,
        ctx: *mut c_void,
    ) {
        set_selector(Dispatch::Allow);
        let mut uc = UContext::from_ptr(ctx);
        let base = ctx as usize & !63;
        let end = uc.rsp() as usize - 128;
        let frame = &mut *FRAME.0.get();
        if end - base <= frame.len() {
            std::ptr::copy_nonoverlapping(base as *const u8, frame.as_mut_ptr(), end - base);
            FRAME_BASE.store(base, Ordering::SeqCst);
            FRAME_UC.store(ctx as usize, Ordering::SeqCst);
        }
        uc.set_rax(0);
    }

    /// A frame a real SUD `SIGSYS` delivered, copied, with its `fpregs`
    /// and `rsp` moved along: resumable as it came, and every change
    /// the resume cannot honour sends it to the kernel's return.
    #[test]
    fn resume_preconditions_of_a_captured_frame() {
        if !crate::is_supported() {
            eprintln!("kernel lacks SUD; skipping");
            return;
        }
        let _handler = SIGSYS_HANDLER.lock().unwrap_or_else(|e| e.into_inner());
        unsafe {
            let old = install_sigsys_handler(capturing_handler).unwrap();
            enable_thread().unwrap();
            set_selector(Dispatch::Block);
            assert_eq!(syscalls::raw::syscall0(nr::GETPPID), 0);
            crate::disable_thread().unwrap();
            libc::sigaction(libc::SIGSYS, &old, std::ptr::null_mut());
        }
        let (base, at) = (FRAME_BASE.load(Ordering::SeqCst), FRAME_UC.load(Ordering::SeqCst));
        if base == 0 {
            eprintln!("the signal frame is larger than the copy; skipping");
            return;
        }
        let copy = FRAME.0.get() as usize;
        let moved = |addr: u64| addr - base as u64 + copy as u64;
        // SAFETY: the copy holds the whole frame, the `ucontext_t` at
        // the offset the original had.
        let mut uc = unsafe { UContext::from_ptr((copy + at - base) as *mut c_void) };
        unsafe {
            let mc = &mut (*(uc.uc)).uc_mcontext;
            mc.fpregs = moved(mc.fpregs as u64) as *mut c_void;
        }
        uc.set_rsp(moved(uc.rsp()));
        assert_eq!(uc.cs(), USER64_CS);
        let xfeatures = uc.xfeatures().expect("an xsave image with both magic words");
        assert_eq!(xfeatures & 3, 3, "x87 and SSE are always saved");
        assert!(uc.resumable(), "the frame as the kernel built it");

        // SAFETY: every edit stays inside the copied frame and is undone.
        let edit = |uc: &mut UContext, at: *mut u32, v: u32, what: &str| unsafe {
            let was = at.read_unaligned();
            at.write_unaligned(v);
            assert!(!uc.resumable(), "{what}");
            at.write_unaligned(was);
            assert!(uc.resumable(), "{what}, undone");
        };
        let fp = uc.fpstate() as *mut u8;
        let magic1 = unsafe { fp.add(FX_SW_OFFSET) }.cast::<u32>();
        edit(&mut uc, magic1, 0, "no FP_XSTATE_MAGIC1");
        let xstate_size = unsafe { fp.add(FX_SW_OFFSET + 16).cast::<u32>().read() } as usize;
        let magic2 = unsafe { fp.add(xstate_size) }.cast::<u32>();
        edit(&mut uc, magic2, 0, "no FP_XSTATE_MAGIC2");
        // SAFETY: slots of the copy's `gregs`.
        let greg = |i: libc::c_int| unsafe {
            (*uc.uc).uc_mcontext.gregs.as_mut_ptr().add(i as usize).cast::<u32>()
        };
        let (eflags, csgsfs) = (greg(libc::REG_EFL), greg(libc::REG_CSGSFS));
        let tf = uc.rflags() as u32 | 1 << 8;
        edit(&mut uc, eflags, tf, "TF set");
        edit(&mut uc, csgsfs, 0x23, "a compat cs");
        // The register image must lie under the resume's copy of it.
        let rsp = uc.rsp();
        uc.set_rsp(uc.uc as u64 + 128);
        assert!(!uc.resumable(), "gregs above rsp - 264");
        uc.set_rsp(rsp);
        assert!(uc.resumable());
    }

    #[test]
    fn insn_encodings() {
        // The whole rewriting scheme rests on these being 2 bytes each.
        assert_eq!(SYSCALL_INSN.len(), CALL_RAX_INSN.len());
        assert_eq!(SYSCALL_INSN, [0x0f, 0x05]);
        assert_eq!(CALL_RAX_INSN, [0xff, 0xd0]);
    }
}
