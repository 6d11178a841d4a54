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
/// resumes in the fast path (paper §IV-A "selector-only SUD").
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

/// Signature of a raw `SA_SIGINFO` handler.
pub type RawHandler = unsafe extern "C" fn(libc::c_int, *mut libc::siginfo_t, *mut c_void);

/// Installs `handler` for `SIGSYS` with `SA_SIGINFO`.
///
/// The previous disposition is returned so callers can chain or restore
/// it. `SIGSYS` is masked while the handler runs (no `SA_NODEFER`), so
/// the handler must not itself trigger SUD dispatch — lazypoline's
/// handler flips the selector to ALLOW as its first action.
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
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use syscalls::nr;

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

    #[test]
    fn insn_encodings() {
        // The whole rewriting scheme rests on these being 2 bytes each.
        assert_eq!(SYSCALL_INSN.len(), CALL_RAX_INSN.len());
        assert_eq!(SYSCALL_INSN, [0x0f, 0x05]);
        assert_eq!(CALL_RAX_INSN, [0xff, 0xd0]);
    }
}
