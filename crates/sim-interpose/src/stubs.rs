//! Guest-code building blocks: the trampoline page and the slow-path
//! SIGSYS handler.
//!
//! The stub honours the simulated syscall ABI: a `SYSCALL` clobbers
//! only `r0`, so anything else it touches is saved and restored — the
//! simulated counterpart of the paper's §IV-B(b) ABI-compatibility
//! discipline. Vector state is preserved via `xsave`/`xrstor`.

use sim_cpu::asm::Asm;
use sim_cpu::reg::Gpr;
use sim_kernel::kernel::frame;
use sim_kernel::sysno;

use crate::layout::*;

/// Appends the trace-recording fragment: appends `r0` (the syscall
/// number) to the guest trace buffer. Clobbers `r7`, `r8`, `r9`.
///
/// `prefix` disambiguates labels when the fragment is instantiated
/// more than once in a program.
pub fn record_nr(asm: Asm, prefix: &str) -> Asm {
    let skip = format!("{prefix}_rec_skip");
    asm
        // r7 = &idx; r8 = idx
        .mov_ri(Gpr::R7, TRACE_IDX_ADDR)
        .load(Gpr::R8, Gpr::R7, 0)
        .cmp_ri(Gpr::R8, TRACE_CAP as i32)
        .jl(&format!("{prefix}_rec_ok"))
        .jmp(&skip)
        .label(&format!("{prefix}_rec_ok"))
        // r9 = &entries[idx] = &idx + 8 + idx*8
        .mov_rr(Gpr::R9, Gpr::R8)
        .add_rr(Gpr::R9, Gpr::R9) // ×2
        .add_rr(Gpr::R9, Gpr::R9) // ×4
        .add_rr(Gpr::R9, Gpr::R9) // ×8
        .add_rr(Gpr::R9, Gpr::R7)
        .store(Gpr::R9, Gpr::R0, 8)
        .add_ri(Gpr::R8, 1)
        .store(Gpr::R7, Gpr::R8, 0)
        .label(&skip)
}

/// Configuration of the trampoline entry stub.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StubConfig {
    /// Record intercepted numbers to the guest trace buffer.
    pub trace: bool,
    /// Consult the guest interest table ([`INTEREST_BASE`]) and skip
    /// the recording fragment for uninterested numbers — the simulated
    /// counterpart of the native registry's interest bitmap.
    pub interest: bool,
}

/// Appends the interest guard: jump to `{prefix}_int_skip` (which the
/// caller must place after the guarded fragment) unless the interest
/// table byte for the syscall number in `r0` is nonzero. Clobbers
/// `r7`, `r8`.
fn guard_interest(asm: Asm, prefix: &str) -> Asm {
    asm.mov_ri(Gpr::R7, INTEREST_BASE)
        .add_rr(Gpr::R7, Gpr::R0) // byte-indexed: no shifts needed
        .load_b(Gpr::R8, Gpr::R7, 0)
        .cmp_ri(Gpr::R8, 0)
        .jz(&format!("{prefix}_int_skip"))
}

/// Builds the trampoline entry stub (lives at [`STUB_BASE`], reached
/// through the nop sled by `call r0`).
///
/// On entry the application's syscall number is in `r0` and arguments
/// in `r1..r6`; the return address pushed by `call r0` is on the
/// stack. The stub saves vector state, parks the selector at ALLOW,
/// records as configured, executes the real syscall, re-arms BLOCK,
/// restores vector state, and returns with only `r0` changed —
/// ABI-identical to the `SYSCALL` it replaced.
pub fn trampoline_stub(cfg: StubConfig) -> Asm {
    let mut asm = Asm::new()
        .push(Gpr::R7)
        .push(Gpr::R8)
        .push(Gpr::R9)
        // Carve an xsave area well below the live stack.
        .mov_rr(Gpr::R7, Gpr::SP)
        .sub_ri(Gpr::R7, 4096)
        .xsave(Gpr::R7)
        .mov_ri(Gpr::R7, SELECTOR_ADDR)
        .mov_ri(Gpr::R8, sysno::SELECTOR_ALLOW as u64)
        .store_b(Gpr::R7, Gpr::R8, 0);
    if cfg.trace {
        if cfg.interest {
            asm = guard_interest(asm, "stub");
        }
        asm = record_nr(asm, "stub");
        if cfg.interest {
            asm = asm.label("stub_int_skip");
        }
    }
    asm.syscall()
        .mov_ri(Gpr::R7, SELECTOR_ADDR)
        .mov_ri(Gpr::R8, sysno::SELECTOR_BLOCK as u64)
        .store_b(Gpr::R7, Gpr::R8, 0)
        .mov_rr(Gpr::R7, Gpr::SP)
        .sub_ri(Gpr::R7, 4096)
        .xrstor(Gpr::R7)
        .pop(Gpr::R9)
        .pop(Gpr::R8)
        .pop(Gpr::R7)
        .ret()
}

/// Builds the full trampoline page image: nop sled + entry stub.
pub fn trampoline_page(cfg: StubConfig) -> Vec<u8> {
    let mut page = vec![0x90u8; SLED_LEN as usize];
    let stub = trampoline_stub(cfg)
        .assemble_at(STUB_BASE)
        .expect("stub assembles");
    page.extend_from_slice(&stub);
    page
}

/// Builds the lazypoline slow-path handler: rewrite the faulting
/// `SYSCALL` to `CALL r0` under guest `mprotect`, point the saved
/// `rip` back at the now-rewritten instruction, and sigreturn with the
/// selector at ALLOW — the paper's "selector-only SUD" (§IV-A). The
/// re-executed site enters the fast path, which re-arms BLOCK.
pub fn lazypoline_handler() -> Asm {
    Asm::new()
        .mov_rr(Gpr::R10, Gpr::R2) // frame
        // selector ← ALLOW: our own syscalls must not dispatch.
        .mov_ri(Gpr::R7, SELECTOR_ADDR)
        .mov_ri(Gpr::R8, sysno::SELECTOR_ALLOW as u64)
        .store_b(Gpr::R7, Gpr::R8, 0)
        // r11 = syscall insn address = call_addr - 2
        .load(Gpr::R11, Gpr::R10, frame::CALL_ADDR as i32)
        .sub_ri(Gpr::R11, 2)
        // r12 = page base
        .mov_rr(Gpr::R12, Gpr::R11)
        .and_ri(Gpr::R12, -4096)
        // mprotect(page, 4096, RWX)
        .mov_ri(Gpr::R0, sysno::MPROTECT)
        .mov_rr(Gpr::R1, Gpr::R12)
        .mov_ri(Gpr::R2, 4096)
        .mov_ri(Gpr::R3, 7)
        .syscall()
        // Patch: syscall (0f 05) → call r0 (ff d0).
        .mov_ri(Gpr::R8, 0xff)
        .store_b(Gpr::R11, Gpr::R8, 0)
        .mov_ri(Gpr::R8, 0xd0)
        .store_b(Gpr::R11, Gpr::R8, 1)
        // mprotect(page, 4096, RX)
        .mov_ri(Gpr::R0, sysno::MPROTECT)
        .mov_rr(Gpr::R1, Gpr::R12)
        .mov_ri(Gpr::R2, 4096)
        .mov_ri(Gpr::R3, 5)
        .syscall()
        // Resume at the rewritten instruction (fast-path entry).
        .store(Gpr::R10, Gpr::R11, frame::RIP as i32)
        // Leave selector ALLOW; the fast path re-arms BLOCK on exit.
        .mov_ri(Gpr::R0, sysno::RT_SIGRETURN)
        .mov_rr(Gpr::R1, Gpr::R10)
        .syscall()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_cpu::insn::{decode, Op};

    #[test]
    fn stub_variants_assemble_and_decode() {
        for trace in [false, true] {
            for interest in [false, true] {
                let cfg = StubConfig { trace, interest };
                let code = trampoline_stub(cfg).assemble_at(STUB_BASE).unwrap();
                // Fully decodable, ends in ret.
                let mut pos = 0;
                let mut last = None;
                while pos < code.len() {
                    let i = decode(&code[pos..]).unwrap();
                    pos += i.len as usize;
                    last = Some(i.op);
                }
                assert_eq!(last, Some(Op::Ret), "{cfg:?}");
            }
        }
    }

    #[test]
    fn trampoline_page_is_sled_plus_stub() {
        let page = trampoline_page(StubConfig::default());
        assert!(page.len() > SLED_LEN as usize);
        assert!(page[..SLED_LEN as usize].iter().all(|&b| b == 0x90));
        assert_eq!(
            decode(&page[SLED_LEN as usize..]).unwrap().op,
            Op::Push(Gpr::R7)
        );
    }

    #[test]
    fn handlers_assemble() {
        let lp = lazypoline_handler().assemble_at(HANDLER_BASE).unwrap();
        assert!(!lp.is_empty());
    }
}
