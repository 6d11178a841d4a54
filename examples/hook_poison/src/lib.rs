//! The poisoning hook: interested in every syscall, it overwrites with
//! a canary all the vector and floating-point state the host has and
//! passes the call on. It runs between the entry stub's save and
//! restore, so what reaches the application is exactly what the row's
//! `XstateMask` does not preserve (Table III's native section,
//! EXPERIMENTS.md).
//!
//! Every `xmm`/`ymm`/`zmm0–31` quadword and every x87 data register
//! holds [`CANARY`], and so do `k0–7` (their low 16 bits without
//! AVX512BW). `MXCSR` is [`MXCSR_CANARY`]: every flag raised, every
//! exception masked, round toward zero, flush to zero. The x87 control word is [`FCW_CANARY`]:
//! every exception masked, single precision, round toward zero. Nothing
//! traps, and the x87 stack's top and tags stay as they were.
//!
//! This breaks the SysV ABI on purpose: the control bits of `MXCSR` and
//! the x87 control word are callee-saved. The rest of the dispatch,
//! which does no floating-point work, runs under them. A loaded hook
//! never declares `leaves_fp_env`, so every dispatch it sees takes the
//! stub's undeclared exit.

use std::sync::atomic::{AtomicU32, Ordering};

use hookabi::{LpHookEvent, LpHookV1, LP_HOOK_ABI_V1, LP_HOOK_CALL_NEXT};

/// The quadword every poisoned register holds ("NOSIOPPL" in memory).
pub const CANARY: u64 = 0x4c50_504f_4953_4f4e;
/// The `MXCSR` the hook leaves; within the `MXCSR_MASK` every CPU has.
pub const MXCSR_CANARY: u32 = 0xffbf;
/// The x87 control word the hook leaves.
pub const FCW_CANARY: u16 = 0x0c7f;

/// What the host has, read once in `init`: 0 = `xmm0–15` only, 1 = AVX
/// (`ymm0–15`), 2 = AVX-512F (`zmm0–31`, 16-bit `k0–7`), 3 = AVX512BW
/// too (64-bit `k0–7`).
static LEVEL: AtomicU32 = AtomicU32::new(0);

#[repr(C, align(64))]
struct Line([u64; 8]);

static LINE: Line = Line([CANARY; 8]);

extern "C" fn init() -> i32 {
    let level = if is_x86_feature_detected!("avx512bw") {
        3
    } else if is_x86_feature_detected!("avx512f") {
        2
    } else {
        is_x86_feature_detected!("avx") as u32
    };
    LEVEL.store(level, Ordering::Relaxed);
    0
}

extern "C-unwind" fn handle(_event: *mut LpHookEvent, _out: *mut u64) -> i32 {
    // SAFETY: `lp_poison` writes registers the caller does not expect
    // preserved, except the two control words (module docs), and
    // instructions `init` found the host to have.
    unsafe { lp_poison(LEVEL.load(Ordering::Relaxed)) };
    LP_HOOK_CALL_NEXT
}

extern "C" {
    fn lp_poison(level: u32);
}

// x87, MXCSR and xmm0-15 through one fxsave/fxrstor of the live image,
// then the wider registers over the xmm ones. SysV: edi = level. Both
// symbols are global so any object of the crate links to them, and
// hidden so the library exports neither; `lp_poison_end` bounds the code
// for `tests/machine_prop.rs`.
std::arch::global_asm!(
    r#"
    .text
    .p2align 4
    .globl lp_poison
    .hidden lp_poison
    .globl lp_poison_end
    .hidden lp_poison_end
    .type lp_poison, @function
lp_poison:
    push rbp
    mov rbp, rsp
    sub rsp, 512
    and rsp, -64
    fxsave64 [rsp]
    mov word ptr [rsp], {fcw}
    mov dword ptr [rsp + 24], {mxcsr}
    lea rax, [rip + {line}]
    mov rcx, qword ptr [rax]
    .irp i,0,1,2,3,4,5,6,7
    mov qword ptr [rsp + 32 + 16*\i], rcx
    mov word ptr [rsp + 40 + 16*\i], cx
    .endr
    .irp i,0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15
    mov qword ptr [rsp + 160 + 16*\i], rcx
    mov qword ptr [rsp + 168 + 16*\i], rcx
    .endr
    fxrstor64 [rsp]
    cmp edi, 1
    jb 9f
    ja 2f
    .irp i,0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15
    vmovdqu ymm\i, ymmword ptr [rax]
    .endr
    jmp 9f
2:
    .irp i,0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23,24,25,26,27,28,29,30,31
    vmovdqu64 zmm\i, zmmword ptr [rax]
    .endr
    .irp i,0,1,2,3,4,5,6,7
    kmovw k\i, ecx
    .endr
    cmp edi, 3
    jb 9f
    .irp i,0,1,2,3,4,5,6,7
    kmovq k\i, rcx
    .endr
9:
    mov rsp, rbp
    pop rbp
    ret
lp_poison_end:
    .size lp_poison, . - lp_poison
"#,
    fcw = const FCW_CANARY,
    mxcsr = const MXCSR_CANARY,
    line = sym LINE,
);

/// The versioned hook descriptor the loader looks up.
#[no_mangle]
pub static lp_hook_v1: LpHookV1 = LpHookV1 {
    abi_version: LP_HOOK_ABI_V1,
    priority: 0,
    name: c"hook_poison".as_ptr(),
    interest_words: [u64::MAX; 8],
    init: Some(init),
    fini: None,
    handle: Some(handle),
    post: None,
};

#[cfg(test)]
#[path = "../tests/support/mod.rs"]
mod support;

#[cfg(test)]
mod tests {
    use super::support::{across_dispatch, x87_stack, Held, Seen, OUT_UNTOUCHED};
    use super::*;

    fn dispatch(held: &Held) -> Seen {
        init();
        across_dispatch(&lp_hook_v1, LEVEL.load(Ordering::Relaxed), held)
    }

    #[test]
    fn listing_one_pattern_is_detected() {
        // The paper's Listing 1 shape: xmm0 written before a syscall and
        // read after it. With nothing to restore it, the read sees the
        // canary, and so does code that relies on MXCSR or the x87
        // control word.
        let seen = dispatch(&Held::default());
        assert_eq!(seen.xmm0, [CANARY; 2]);
        assert_eq!(seen.mxcsr, MXCSR_CANARY);
        assert_eq!(seen.fcw, FCW_CANARY);
    }

    #[test]
    fn clean_program_has_no_vector_findings() {
        // A program that loads every register it reads after the
        // dispatch computes as it would without it: the poison leaves no
        // exception unmasked and the x87 stack as deep as it was, so
        // two more pushes neither trap nor overflow into NaN.
        for x87_depth in 0..=6 {
            let seen = dispatch(&Held {
                x87_depth,
                ..Held::default()
            });
            assert_eq!(seen.x87_sum, 2, "depth {x87_depth}");
            assert_eq!(
                x87_stack(&seen.fxsave[1]),
                x87_stack(&seen.fxsave[0]),
                "depth {x87_depth}"
            );
        }
    }

    #[test]
    fn syscall_result_read_is_not_a_finding() {
        // The hook passes every call on and writes no result, so what a
        // program reads in rax after the syscall is the kernel's answer.
        let seen = dispatch(&Held::default());
        assert_eq!(seen.ret, LP_HOOK_CALL_NEXT);
        assert_eq!(seen.out, OUT_UNTOUCHED);
        assert_eq!(lp_hook_v1.interest_words, [u64::MAX; 8]);
    }

    #[test]
    fn gpr_windows_are_tracked_too() {
        // Callee-saved GPRs held across the dispatch read back: the
        // poison reaches only the vector and floating-point state.
        let held = Held::default();
        let seen = dispatch(&held);
        assert_eq!(seen.gprs, held.gprs);
    }

    #[test]
    fn wide_registers_are_poisoned_where_the_host_has_them() {
        let seen = dispatch(&Held::default());
        let level = LEVEL.load(Ordering::Relaxed);
        if level >= 1 {
            assert_eq!(seen.ymm0_hi, [CANARY; 2]);
        }
        if level >= 2 {
            assert_eq!(seen.zmm31, [CANARY; 8]);
            let k = if level == 3 { CANARY } else { CANARY & 0xffff };
            assert_eq!(seen.k7, k);
        }
    }
}
