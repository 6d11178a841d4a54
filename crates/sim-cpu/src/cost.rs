//! The cycle cost model.
//!
//! User-mode instruction costs live here; kernel-side costs (syscall
//! entry, SUD selector check, signal delivery, context switches) live
//! in the simulated kernel's own cost table — matching where the time
//! is spent on real hardware.
//!
//! Absolute values are loosely calibrated so the *ratios* of the
//! microbenchmark (Table II) land near the paper's: a bare kernel
//! round trip is a few hundred cycles, `xsave`/`xrstor` cost ~100
//! cycles each, and ALU work is single-cycle. EXPERIMENTS.md records
//! the calibration.

use crate::insn::Op;

/// Per-instruction-class cycle costs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CostModel {
    /// `nop` and register-to-register moves.
    pub nop: u64,
    /// ALU (add/sub/mul/and/cmp).
    pub alu: u64,
    /// 64-bit and 8-bit loads/stores, push/pop.
    pub mem: u64,
    /// Vector register moves.
    pub vec: u64,
    /// 128-bit vector loads/stores.
    pub vec_mem: u64,
    /// Full vector-state save (`xsave`).
    pub xsave: u64,
    /// Full vector-state restore (`xrstor`).
    pub xrstor: u64,
    /// Taken or not-taken branches and indirect jumps.
    pub branch: u64,
    /// Calls.
    pub call: u64,
    /// Returns.
    pub ret: u64,
    /// User-mode share of a `syscall` instruction (the kernel adds its
    /// own entry/exit cost).
    pub syscall_user: u64,
}

impl Default for CostModel {
    fn default() -> CostModel {
        CostModel {
            nop: 1,
            alu: 1,
            mem: 3,
            vec: 2,
            vec_mem: 4,
            xsave: 100,
            xrstor: 100,
            branch: 2,
            call: 4,
            ret: 4,
            syscall_user: 2,
        }
    }
}

impl CostModel {
    /// Cycles for one executed operation (user-mode share).
    pub fn of(&self, op: &Op) -> u64 {
        use Op::*;
        match op {
            Nop | Hlt => self.nop,
            MovRI(..) | MovRR(..) => self.nop,
            AddRI(..) | AddRR(..) | SubRI(..) | SubRR(..) | MulRR(..) | AndRI(..)
            | CmpRI(..) | CmpRR(..) => self.alu,
            Load(..) | Store(..) | LoadB(..) | StoreB(..) | Push(..) | Pop(..) => self.mem,
            MovXR(..) | MovRX(..) | MovXI(..) => self.vec,
            LoadX(..) | StoreX(..) => self.vec_mem,
            Xsave(..) => self.xsave,
            Xrstor(..) => self.xrstor,
            Jmp(..) | Jz(..) | Jnz(..) | Jl(..) | JmpReg(..) => self.branch,
            Call(..) | CallReg(..) => self.call,
            Ret => self.ret,
            Syscall => self.syscall_user,
        }
    }
}
