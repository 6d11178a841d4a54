//! One dispatch of a hook between a program's writes and its reads, as
//! the entry stub runs it between its save and restore: what the program
//! held across the call, and what it reads after it.

use std::arch::asm;
use std::mem::offset_of;

use hookabi::LpHookV1;

/// What `handle` finds in its `out` slot; it is the syscall's result
/// only if the hook answers.
pub const OUT_UNTOUCHED: u64 = 0x0075_6e74_6f75_6368;

/// What a program holds across the dispatch.
#[derive(Clone, Debug)]
pub struct Held {
    /// `xmm0`.
    pub xmm0: [u64; 2],
    /// `rbx`, `rbp`, `r13`, `r14` and `r15`.
    pub gprs: [u64; 5],
    /// `MXCSR`; every exception stays masked.
    pub mxcsr: u32,
    /// The x87 control word; every exception stays masked.
    pub fcw: u16,
    /// Values on the x87 stack (at most 6, so two more fit).
    pub x87_depth: u32,
}

impl Default for Held {
    fn default() -> Held {
        Held {
            xmm0: [0x1111_2222_3333_4444, 0x5555_6666_7777_8888],
            gprs: [0xb0, 0xb1, 0xb2, 0xb3, 0xb4].map(|g| g * 0x0101_0101_0101_0101),
            mxcsr: 0x1f80,
            fcw: 0x037f,
            x87_depth: 0,
        }
    }
}

/// What the program reads after the dispatch.
#[derive(Debug)]
pub struct Seen {
    /// `handle`'s return value.
    pub ret: i32,
    /// `handle`'s `out` slot, [`OUT_UNTOUCHED`] before the call.
    pub out: u64,
    /// `xmm0`.
    pub xmm0: [u64; 2],
    /// The upper half of `ymm0`, read only at `level` ≥ 1.
    pub ymm0_hi: [u64; 2],
    /// `zmm31`, read only at `level` ≥ 2.
    pub zmm31: [u64; 8],
    /// `k7`: 16 bits at `level` 2, 64 at 3.
    pub k7: u64,
    /// The [`Held::gprs`] registers.
    pub gprs: [u64; 5],
    /// `MXCSR`.
    pub mxcsr: u32,
    /// The x87 control word.
    pub fcw: u16,
    /// The `fxsave` image before and after the dispatch.
    pub fxsave: [[u8; 512]; 2],
    /// `1.0 + 1.0` on the x87 stack, computed after the dispatch by
    /// code that loads every register it reads.
    pub x87_sum: i32,
}

#[repr(C, align(64))]
struct Frame {
    fx_before: [u8; 512],
    fx_after: [u8; 512],
    zmm31: [u64; 8],
    xmm0_in: [u64; 2],
    xmm0: [u64; 2],
    ymm0_hi: [u64; 2],
    gprs_in: [u64; 5],
    gprs: [u64; 5],
    k7: u64,
    out: u64,
    mxcsr_in: u32,
    mxcsr: u32,
    saved_mxcsr: u32,
    depth: u32,
    level: u32,
    ret: i32,
    sum: i32,
    fcw_in: u16,
    fcw: u16,
    saved_fcw: u16,
}

/// Loads `held`, calls `hook`'s `handle` once (no event, an untouched
/// `out` slot) and reads the state back, reading the AVX and AVX-512
/// registers only as far as `level` says the host has them (the hook's
/// own scale: 0 = SSE, 1 = AVX, 2 = AVX-512F, 3 = AVX512BW). The
/// caller's `MXCSR`, x87 control word and x87 stack are restored.
pub fn across_dispatch(hook: &LpHookV1, level: u32, held: &Held) -> Seen {
    assert!(held.x87_depth <= 6, "two more values must fit");
    let handle = hook.handle.expect("a handle");
    let mut f = Box::new(Frame {
        fx_before: [0; 512],
        fx_after: [0; 512],
        zmm31: [0; 8],
        xmm0_in: held.xmm0,
        xmm0: [0; 2],
        ymm0_hi: [0; 2],
        gprs_in: held.gprs,
        gprs: [0; 5],
        k7: 0,
        out: OUT_UNTOUCHED,
        mxcsr_in: held.mxcsr | 0x1f80,
        mxcsr: 0,
        saved_mxcsr: 0,
        depth: held.x87_depth,
        level,
        ret: 0,
        sum: 0,
        fcw_in: held.fcw | 0x3f,
        fcw: 0,
        saved_fcw: 0,
    });
    // SAFETY: the block restores rbx, rbp, the stack, MXCSR, the x87
    // control word and an empty x87 stack; everything else it writes is
    // an output or caller-saved (`clobber_abi`). It runs AVX and AVX-512
    // instructions only at the `level` the caller found the host to
    // have, and `handle` is an `lp_hook_v1` entry point.
    unsafe {
        asm!(
            "push rbx",
            "push rbp",
            "stmxcsr [r12 + {saved_mxcsr}]",
            "fnstcw [r12 + {saved_fcw}]",
            "ldmxcsr [r12 + {mxcsr_in}]",
            "fldcw [r12 + {fcw_in}]",
            "mov ecx, [r12 + {depth}]",
            "2:",
            "test ecx, ecx",
            "jz 3f",
            "fld1",
            "dec ecx",
            "jmp 2b",
            "3:",
            "fxsave64 [r12 + {fx_before}]",
            "movdqu xmm0, [r12 + {xmm0_in}]",
            "mov rbx, [r12 + {gprs_in}]",
            "mov rbp, [r12 + {gprs_in} + 8]",
            "mov r13, [r12 + {gprs_in} + 16]",
            "mov r14, [r12 + {gprs_in} + 24]",
            "mov r15, [r12 + {gprs_in} + 32]",
            "xor edi, edi",
            "lea rsi, [r12 + {out}]",
            "call rax",
            "mov [r12 + {ret}], eax",
            "movdqu [r12 + {xmm0}], xmm0",
            "stmxcsr [r12 + {mxcsr}]",
            "fnstcw [r12 + {fcw}]",
            "fxsave64 [r12 + {fx_after}]",
            "mov [r12 + {gprs}], rbx",
            "mov [r12 + {gprs} + 8], rbp",
            "mov [r12 + {gprs} + 16], r13",
            "mov [r12 + {gprs} + 24], r14",
            "mov [r12 + {gprs} + 32], r15",
            "cmp dword ptr [r12 + {level}], 1",
            "jb 4f",
            "vextractf128 xmmword ptr [r12 + {ymm0_hi}], ymm0, 1",
            "vzeroupper",
            "cmp dword ptr [r12 + {level}], 2",
            "jb 4f",
            "vmovdqu64 zmmword ptr [r12 + {zmm31}], zmm31",
            "kmovw eax, k7",
            "cmp dword ptr [r12 + {level}], 3",
            "jb 5f",
            "kmovq rax, k7",
            "5:",
            "mov [r12 + {k7}], rax",
            "4:",
            // Code that loads every register it reads: a clean program.
            "fld1",
            "fld1",
            "faddp st(1), st",
            "fistp dword ptr [r12 + {sum}]",
            "fninit",
            "fldcw [r12 + {saved_fcw}]",
            "ldmxcsr [r12 + {saved_mxcsr}]",
            "pop rbp",
            "pop rbx",
            in("r12") &mut *f as *mut Frame,
            in("rax") handle as usize,
            out("r13") _,
            out("r14") _,
            out("r15") _,
            fx_before = const offset_of!(Frame, fx_before),
            fx_after = const offset_of!(Frame, fx_after),
            zmm31 = const offset_of!(Frame, zmm31),
            xmm0_in = const offset_of!(Frame, xmm0_in),
            xmm0 = const offset_of!(Frame, xmm0),
            ymm0_hi = const offset_of!(Frame, ymm0_hi),
            gprs_in = const offset_of!(Frame, gprs_in),
            gprs = const offset_of!(Frame, gprs),
            k7 = const offset_of!(Frame, k7),
            out = const offset_of!(Frame, out),
            mxcsr_in = const offset_of!(Frame, mxcsr_in),
            mxcsr = const offset_of!(Frame, mxcsr),
            saved_mxcsr = const offset_of!(Frame, saved_mxcsr),
            depth = const offset_of!(Frame, depth),
            level = const offset_of!(Frame, level),
            ret = const offset_of!(Frame, ret),
            sum = const offset_of!(Frame, sum),
            fcw_in = const offset_of!(Frame, fcw_in),
            fcw = const offset_of!(Frame, fcw),
            saved_fcw = const offset_of!(Frame, saved_fcw),
            clobber_abi("C"),
        );
    }
    Seen {
        ret: f.ret,
        out: f.out,
        xmm0: f.xmm0,
        ymm0_hi: f.ymm0_hi,
        zmm31: f.zmm31,
        k7: f.k7,
        gprs: f.gprs,
        mxcsr: f.mxcsr,
        fcw: f.fcw,
        fxsave: [f.fx_before, f.fx_after],
        x87_sum: f.sum,
    }
}

/// The x87 status word and abridged tag word of an `fxsave` image: the
/// stack's top and which of its slots are in use.
pub fn x87_stack(image: &[u8; 512]) -> (u16, u8) {
    (u16::from_le_bytes([image[2], image[3]]), image[4])
}
