//! Property tests of the poison at the machine level: what a program
//! reads after a dispatch does not depend on what it held, the `fxsave`
//! image the poison rewrites keeps every field it does not own, and its
//! assembled code decodes cleanly, with no syscall of its own.

mod support;

use hook_poison::{lp_hook_v1, CANARY, FCW_CANARY, MXCSR_CANARY};
use hookabi::LP_HOOK_CALL_NEXT;
use proptest::prelude::*;
use support::{across_dispatch, x87_stack, Held, Seen, OUT_UNTOUCHED};

/// A held state from random bits: any `xmm0` and GPRs, any `MXCSR`
/// flags, rounding, FZ and DAZ, any x87 rounding and a valid precision,
/// and 0–6 values on the x87 stack.
fn held(bits: [u64; 8], x87_depth: u32) -> Held {
    let precision = [0x000, 0x200, 0x300][(bits[7] % 3) as usize];
    Held {
        xmm0: [bits[0], bits[1]],
        gprs: [bits[2], bits[3], bits[4], bits[5], bits[6]],
        mxcsr: (bits[7] >> 8) as u32 & 0xe07f,
        fcw: precision | (bits[7] >> 32) as u16 & 0x0c00,
        x87_depth,
    }
}

/// What the host has, on the hook's scale (`across_dispatch`).
fn level() -> u32 {
    if is_x86_feature_detected!("avx512bw") {
        3
    } else if is_x86_feature_detected!("avx512f") {
        2
    } else {
        is_x86_feature_detected!("avx") as u32
    }
}

fn dispatch(held: &Held) -> Seen {
    (lp_hook_v1.init.expect("an init"))();
    across_dispatch(&lp_hook_v1, level(), held)
}

proptest! {
    /// Whatever a program held, it reads the same canaries after the
    /// dispatch, and its GPRs back.
    #[test]
    fn execution_is_deterministic(bits in any::<[u64; 8]>(), depth in 0u32..7) {
        let held = held(bits, depth);
        let seen = dispatch(&held);
        prop_assert_eq!(seen.xmm0, [CANARY; 2]);
        prop_assert_eq!(seen.mxcsr, MXCSR_CANARY);
        prop_assert_eq!(seen.fcw, FCW_CANARY);
        prop_assert_eq!(seen.gprs, held.gprs);
        prop_assert_eq!(seen.x87_sum, 2);
        prop_assert_eq!((seen.ret, seen.out), (LP_HOOK_CALL_NEXT, OUT_UNTOUCHED));
        let level = level();
        if level >= 1 {
            prop_assert_eq!(seen.ymm0_hi, [CANARY; 2]);
        }
        if level >= 2 {
            prop_assert_eq!(seen.zmm31, [CANARY; 8]);
            prop_assert_eq!(seen.k7, if level == 3 { CANARY } else { CANARY & 0xffff });
        }
    }

    /// The poison saves the live image, writes its canaries into it and
    /// loads it back: after the dispatch the image holds the canaries
    /// where the poison writes and what it held before where it does
    /// not (the x87 stack's top and tags, `MXCSR_MASK`).
    #[test]
    fn memory_write_read_consistency(bits in any::<[u64; 8]>(), depth in 0u32..7) {
        let seen = dispatch(&held(bits, depth));
        let [before, after] = &seen.fxsave;
        prop_assert_eq!(x87_stack(after), x87_stack(before));
        prop_assert_eq!(&after[28..32], &before[28..32]);
        prop_assert_eq!(&after[0..2], &FCW_CANARY.to_le_bytes()[..]);
        prop_assert_eq!(&after[24..28], &MXCSR_CANARY.to_le_bytes()[..]);
        let canary = CANARY.to_le_bytes();
        for st in 0..8 {
            let slot = &after[32 + 16 * st..];
            prop_assert_eq!(&slot[..8], &canary[..]);
            prop_assert_eq!(&slot[8..10], &canary[..2]);
        }
        for xmm in after[160..416].chunks(8) {
            prop_assert_eq!(xmm, &canary[..]);
        }
    }
}

extern "C" {
    static lp_poison: u8;
    static lp_poison_end: u8;
}

/// The poison's machine code (VEX and EVEX moves, `kmov`, `fxsave64`)
/// decodes instruction by instruction through the zpoline decoder,
/// ends with its `ret`, and holds no `syscall` for a rewriter to find.
#[test]
fn assembler_output_decodes_cleanly() {
    // SAFETY: both symbols bound `lp_poison`'s code in the text segment.
    let code = unsafe {
        let start = &raw const lp_poison;
        let len = (&raw const lp_poison_end).offset_from(start);
        std::slice::from_raw_parts(start, usize::try_from(len).unwrap())
    };
    let insns: Vec<_> = zpoline::disasm::sweep(code).collect();
    assert!(insns.len() > 100, "{} instructions", insns.len());
    for &(at, insn) in &insns {
        assert!(
            insn.known,
            "unknown instruction at +{at:#x}: {:02x?}",
            &code[at..]
        );
        assert!(!insn.is_syscall, "syscall at +{at:#x}");
    }
    let &(last, insn) = insns.last().unwrap();
    assert_eq!((last + insn.len, code[last]), (code.len(), 0xc3));
}
