//! The simulated ISA: encoding, decoding, and linear-sweep scanning.
//!
//! The ISA is variable-length by design, and two encodings are copied
//! verbatim from x86-64 because the entire rewriting technique depends
//! on them (paper §II-B):
//!
//! * `SYSCALL` = `0f 05` (2 bytes),
//! * `CALL r`  = `ff d0+r` (2 bytes) — same length, so a syscall site
//!   can be patched in place.
//!
//! Immediate operands can contain arbitrary bytes — including `0f 05`
//! — which gives the linear-sweep scanner the same false-positive/
//! desynchronization hazards as real static disassembly.

use crate::reg::{Gpr, RegSet, Xmm};

/// One decoded operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// No operation.
    Nop,
    /// Trap into the kernel (`0f 05`).
    Syscall,
    /// Indirect call through a GPR (`ff d0+r`) — pushes the return
    /// address and jumps to the register value.
    CallReg(Gpr),
    /// `r ← imm64`.
    MovRI(Gpr, u64),
    /// `rd ← rs`.
    MovRR(Gpr, Gpr),
    /// `rd ← mem64[rs + disp]`.
    Load(Gpr, Gpr, i32),
    /// `mem64[rbase + disp] ← rs`.
    Store(Gpr, Gpr, i32),
    /// `rd ← mem8[rs + disp]` (zero-extended).
    LoadB(Gpr, Gpr, i32),
    /// `mem8[rbase + disp] ← low byte of rs`.
    StoreB(Gpr, Gpr, i32),
    /// `r ← r + imm32` (sign-extended).
    AddRI(Gpr, i32),
    /// `rd ← rd + rs`.
    AddRR(Gpr, Gpr),
    /// `r ← r - imm32`.
    SubRI(Gpr, i32),
    /// `rd ← rd - rs`.
    SubRR(Gpr, Gpr),
    /// `rd ← rd * rs`.
    MulRR(Gpr, Gpr),
    /// `r ← r & imm32` (sign-extended mask).
    AndRI(Gpr, i32),
    /// Compare `r` with imm32: sets ZF/LF.
    CmpRI(Gpr, i32),
    /// Compare `ra` with `rb`: sets ZF/LF.
    CmpRR(Gpr, Gpr),
    /// Unconditional relative jump (offset from next insn).
    Jmp(i32),
    /// Jump if ZF.
    Jz(i32),
    /// Jump if !ZF.
    Jnz(i32),
    /// Jump if LF (last compare was less-than).
    Jl(i32),
    /// Relative call: push return address, jump.
    Call(i32),
    /// Pop return address and jump to it.
    Ret,
    /// Push a GPR.
    Push(Gpr),
    /// Pop into a GPR.
    Pop(Gpr),
    /// Vector: `x.low ← r` (high lane zeroed).
    MovXR(Xmm, Gpr),
    /// Vector: `r ← x.low`.
    MovRX(Gpr, Xmm),
    /// Vector: `x ← imm64` in low lane.
    MovXI(Xmm, u64),
    /// Vector load: `x ← mem128[r + disp]`.
    LoadX(Xmm, Gpr, i32),
    /// Vector store: `mem128[r + disp] ← x`.
    StoreX(Gpr, Xmm, i32),
    /// Save all 16 vector registers to `mem[r ..]` (256 bytes).
    Xsave(Gpr),
    /// Restore all 16 vector registers from `mem[r ..]`.
    Xrstor(Gpr),
    /// Indirect jump through a GPR.
    JmpReg(Gpr),
    /// Stop the machine.
    Hlt,
}

/// A decoded instruction with its encoded length.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Insn {
    /// The operation.
    pub op: Op,
    /// Encoded length in bytes.
    pub len: u64,
}

/// Encoding errors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// First byte is not a known opcode.
    InvalidOpcode(u8),
    /// The buffer ends inside the instruction.
    Truncated,
    /// A register field exceeds 15.
    BadRegister(u8),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::InvalidOpcode(b) => write!(f, "invalid opcode {b:#04x}"),
            DecodeError::Truncated => write!(f, "truncated instruction"),
            DecodeError::BadRegister(r) => write!(f, "bad register field {r}"),
        }
    }
}

impl std::error::Error for DecodeError {}

fn gpr(b: u8) -> Result<Gpr, DecodeError> {
    if b < 16 {
        Ok(Gpr::from_index(b as usize))
    } else {
        Err(DecodeError::BadRegister(b))
    }
}

fn xmm(b: u8) -> Result<Xmm, DecodeError> {
    if b < 16 {
        Ok(Xmm(b))
    } else {
        Err(DecodeError::BadRegister(b))
    }
}

fn imm32(bytes: &[u8], at: usize) -> Result<i32, DecodeError> {
    let s: [u8; 4] = bytes
        .get(at..at + 4)
        .ok_or(DecodeError::Truncated)?
        .try_into()
        .unwrap();
    Ok(i32::from_le_bytes(s))
}

fn imm64(bytes: &[u8], at: usize) -> Result<u64, DecodeError> {
    let s: [u8; 8] = bytes
        .get(at..at + 8)
        .ok_or(DecodeError::Truncated)?
        .try_into()
        .unwrap();
    Ok(u64::from_le_bytes(s))
}

/// Decodes the instruction at the start of `bytes`.
///
/// # Errors
///
/// See [`DecodeError`].
pub fn decode(bytes: &[u8]) -> Result<Insn, DecodeError> {
    let op0 = *bytes.first().ok_or(DecodeError::Truncated)?;
    let b = |i: usize| -> Result<u8, DecodeError> {
        bytes.get(i).copied().ok_or(DecodeError::Truncated)
    };
    let insn = match op0 {
        0x90 => Insn { op: Op::Nop, len: 1 },
        0x0f => {
            if b(1)? == 0x05 {
                Insn {
                    op: Op::Syscall,
                    len: 2,
                }
            } else {
                return Err(DecodeError::InvalidOpcode(0x0f));
            }
        }
        0xff => {
            let m = b(1)?;
            if (0xd0..0xe0).contains(&m) {
                Insn {
                    op: Op::CallReg(gpr(m - 0xd0)?),
                    len: 2,
                }
            } else {
                return Err(DecodeError::InvalidOpcode(0xff));
            }
        }
        0x01 => Insn {
            op: Op::MovRI(gpr(b(1)?)?, imm64(bytes, 2)?),
            len: 10,
        },
        0x02 => Insn {
            op: Op::MovRR(gpr(b(1)?)?, gpr(b(2)?)?),
            len: 3,
        },
        0x03 => Insn {
            op: Op::Load(gpr(b(1)?)?, gpr(b(2)?)?, imm32(bytes, 3)?),
            len: 7,
        },
        0x04 => Insn {
            op: Op::Store(gpr(b(1)?)?, gpr(b(2)?)?, imm32(bytes, 3)?),
            len: 7,
        },
        0x05 => Insn {
            op: Op::AddRI(gpr(b(1)?)?, imm32(bytes, 2)?),
            len: 6,
        },
        0x06 => Insn {
            op: Op::AddRR(gpr(b(1)?)?, gpr(b(2)?)?),
            len: 3,
        },
        0x07 => Insn {
            op: Op::SubRI(gpr(b(1)?)?, imm32(bytes, 2)?),
            len: 6,
        },
        0x08 => Insn {
            op: Op::SubRR(gpr(b(1)?)?, gpr(b(2)?)?),
            len: 3,
        },
        0x09 => Insn {
            op: Op::CmpRI(gpr(b(1)?)?, imm32(bytes, 2)?),
            len: 6,
        },
        0x0a => Insn {
            op: Op::CmpRR(gpr(b(1)?)?, gpr(b(2)?)?),
            len: 3,
        },
        0x0b => Insn {
            op: Op::Jmp(imm32(bytes, 1)?),
            len: 5,
        },
        0x0c => Insn {
            op: Op::Jz(imm32(bytes, 1)?),
            len: 5,
        },
        0x0d => Insn {
            op: Op::Jnz(imm32(bytes, 1)?),
            len: 5,
        },
        0x0e => Insn {
            op: Op::Jl(imm32(bytes, 1)?),
            len: 5,
        },
        0x11 => Insn {
            op: Op::Call(imm32(bytes, 1)?),
            len: 5,
        },
        0x12 => Insn { op: Op::Ret, len: 1 },
        0x13 => Insn {
            op: Op::Push(gpr(b(1)?)?),
            len: 2,
        },
        0x14 => Insn {
            op: Op::Pop(gpr(b(1)?)?),
            len: 2,
        },
        0x15 => Insn {
            op: Op::MovXR(xmm(b(1)?)?, gpr(b(2)?)?),
            len: 3,
        },
        0x16 => Insn {
            op: Op::MovRX(gpr(b(1)?)?, xmm(b(2)?)?),
            len: 3,
        },
        0x17 => Insn {
            op: Op::MovXI(xmm(b(1)?)?, imm64(bytes, 2)?),
            len: 10,
        },
        0x18 => Insn {
            op: Op::LoadX(xmm(b(1)?)?, gpr(b(2)?)?, imm32(bytes, 3)?),
            len: 7,
        },
        0x19 => Insn {
            op: Op::StoreX(gpr(b(1)?)?, xmm(b(2)?)?, imm32(bytes, 3)?),
            len: 7,
        },
        0x1a => Insn {
            op: Op::Xsave(gpr(b(1)?)?),
            len: 2,
        },
        0x1b => Insn {
            op: Op::Xrstor(gpr(b(1)?)?),
            len: 2,
        },
        0x1d => Insn {
            op: Op::JmpReg(gpr(b(1)?)?),
            len: 2,
        },
        0x1e => Insn {
            op: Op::MulRR(gpr(b(1)?)?, gpr(b(2)?)?),
            len: 3,
        },
        0x1f => Insn {
            op: Op::AndRI(gpr(b(1)?)?, imm32(bytes, 2)?),
            len: 6,
        },
        0x20 => Insn {
            op: Op::LoadB(gpr(b(1)?)?, gpr(b(2)?)?, imm32(bytes, 3)?),
            len: 7,
        },
        0x21 => Insn {
            op: Op::StoreB(gpr(b(1)?)?, gpr(b(2)?)?, imm32(bytes, 3)?),
            len: 7,
        },
        0x1c => Insn { op: Op::Hlt, len: 1 },
        other => return Err(DecodeError::InvalidOpcode(other)),
    };
    Ok(insn)
}

impl Op {
    /// Registers this operation reads (architectural sources, including
    /// address bases), for the Pin-like analysis.
    pub fn reads(&self) -> RegSet {
        use Op::*;
        let s = RegSet::EMPTY;
        match *self {
            Nop | Hlt | Jmp(_) | Jz(_) | Jnz(_) | Jl(_) | Call(_) | MovRI(..) | MovXI(..) => s,
            Syscall => {
                // Kernel convention: number + six argument registers.
                s.with_gpr(Gpr::R0)
                    .with_gpr(Gpr::R1)
                    .with_gpr(Gpr::R2)
                    .with_gpr(Gpr::R3)
                    .with_gpr(Gpr::R4)
                    .with_gpr(Gpr::R5)
                    .with_gpr(Gpr::R6)
            }
            CallReg(r) | JmpReg(r) | Push(r) => s.with_gpr(r).with_gpr(Gpr::SP),
            Pop(_) | Ret => s.with_gpr(Gpr::SP),
            MovRR(_, src) => s.with_gpr(src),
            Load(_, base, _) | LoadB(_, base, _) => s.with_gpr(base),
            Store(base, src, _) | StoreB(base, src, _) => s.with_gpr(base).with_gpr(src),
            AddRI(r, _) | SubRI(r, _) | AndRI(r, _) | CmpRI(r, _) => s.with_gpr(r),
            AddRR(d, src) | SubRR(d, src) | MulRR(d, src) => s.with_gpr(d).with_gpr(src),
            CmpRR(a, b2) => s.with_gpr(a).with_gpr(b2),
            MovXR(_, r) => s.with_gpr(r),
            MovRX(_, x) => s.with_xmm(x),
            LoadX(_, base, _) => s.with_gpr(base),
            StoreX(base, x, _) => s.with_gpr(base).with_xmm(x),
            Xsave(base) => {
                let mut s = s.with_gpr(base);
                for i in 0..16 {
                    s = s.with_xmm(Xmm(i));
                }
                s
            }
            Xrstor(base) => s.with_gpr(base),
        }
    }

    /// Registers this operation writes.
    pub fn writes(&self) -> RegSet {
        use Op::*;
        let s = RegSet::EMPTY;
        match *self {
            Nop | Hlt | Jmp(_) | Jz(_) | Jnz(_) | Jl(_) | JmpReg(_) | CmpRI(..) | CmpRR(..)
            | Store(..) | StoreB(..) | StoreX(..) | Xsave(_) => s,
            // Kernel convention (mirrors x86-64): the return value lands
            // in r0; nothing else is architecturally clobbered.
            Syscall => s.with_gpr(Gpr::R0),
            CallReg(_) | Call(_) | Push(_) => s.with_gpr(Gpr::SP),
            Ret => s.with_gpr(Gpr::SP),
            Pop(r) => s.with_gpr(r).with_gpr(Gpr::SP),
            MovRI(r, _) | MovRR(r, _) | MovRX(r, _) | Load(r, ..) | LoadB(r, ..) => s.with_gpr(r),
            AddRI(r, _) | SubRI(r, _) | AndRI(r, _) => s.with_gpr(r),
            AddRR(d, _) | SubRR(d, _) | MulRR(d, _) => s.with_gpr(d),
            MovXR(x, _) | MovXI(x, _) | LoadX(x, ..) => s.with_xmm(x),
            Xrstor(_) => {
                let mut s = s;
                for i in 0..16 {
                    s = s.with_xmm(Xmm(i));
                }
                s
            }
        }
    }
}

/// Linear-sweep scan: yields `(offset, Result<Insn>)`; undecodable
/// bytes advance by one (resynchronization), mirroring how real static
/// rewriters degrade.
pub fn sweep(bytes: &[u8]) -> impl Iterator<Item = (usize, Result<Insn, DecodeError>)> + '_ {
    let mut pos = 0usize;
    std::iter::from_fn(move || {
        if pos >= bytes.len() {
            return None;
        }
        let at = pos;
        let r = decode(&bytes[pos..]);
        pos += match &r {
            Ok(i) => i.len as usize,
            Err(_) => 1,
        };
        Some((at, r))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The offsets of `SYSCALL` instructions at decoded boundaries: the
    /// static identification step of a zpoline-style rewriter.
    fn syscall_offsets(bytes: &[u8]) -> Vec<usize> {
        sweep(bytes)
            .filter_map(|(off, r)| matches!(r, Ok(Insn { op: Op::Syscall, .. })).then_some(off))
            .collect()
    }

    #[test]
    fn fixed_encodings_match_x86() {
        assert_eq!(
            decode(&[0x0f, 0x05]).unwrap(),
            Insn {
                op: Op::Syscall,
                len: 2
            }
        );
        assert_eq!(
            decode(&[0xff, 0xd0]).unwrap(),
            Insn {
                op: Op::CallReg(Gpr::R0),
                len: 2
            }
        );
        assert_eq!(
            decode(&[0xff, 0xd5]).unwrap().op,
            Op::CallReg(Gpr::R5)
        );
        assert_eq!(decode(&[0x90]).unwrap().op, Op::Nop);
    }

    #[test]
    fn imm_decoding() {
        let mut b = vec![0x01, 3];
        b.extend_from_slice(&0xdead_beef_u64.to_le_bytes());
        assert_eq!(
            decode(&b).unwrap().op,
            Op::MovRI(Gpr::R3, 0xdead_beef)
        );
        let mut b = vec![0x05, 2];
        b.extend_from_slice(&(-7i32).to_le_bytes());
        assert_eq!(decode(&b).unwrap().op, Op::AddRI(Gpr::R2, -7));
    }

    #[test]
    fn errors() {
        assert_eq!(decode(&[]), Err(DecodeError::Truncated));
        assert_eq!(decode(&[0x01, 3]), Err(DecodeError::Truncated));
        assert_eq!(decode(&[0x42]), Err(DecodeError::InvalidOpcode(0x42)));
        assert_eq!(decode(&[0x02, 99, 0]), Err(DecodeError::BadRegister(99)));
        assert_eq!(decode(&[0x0f, 0x06]), Err(DecodeError::InvalidOpcode(0x0f)));
        assert_eq!(decode(&[0xff, 0xc0]), Err(DecodeError::InvalidOpcode(0xff)));
    }

    #[test]
    fn syscall_reads_args_writes_ret() {
        let r = Op::Syscall.reads();
        for i in 0..7 {
            assert!(r.has_gpr(Gpr::from_index(i)));
        }
        assert!(!r.has_gpr(Gpr::R7));
        assert!(Op::Syscall.writes().has_gpr(Gpr::R0));
    }

    #[test]
    fn vector_ops_touch_xmm() {
        assert!(Op::MovXI(Xmm(3), 1).writes().has_xmm(Xmm(3)));
        assert!(Op::StoreX(Gpr::R1, Xmm(4), 0).reads().has_xmm(Xmm(4)));
        assert!(Op::Xsave(Gpr::R1).reads().has_xmm(Xmm(15)));
        assert!(Op::Xrstor(Gpr::R1).writes().has_xmm(Xmm(0)));
    }

    #[test]
    fn sweep_finds_boundary_syscalls_only() {
        // MovRI r0, imm containing 0f 05 bytes, then a real syscall.
        let mut code = vec![0x01, 0];
        code.extend_from_slice(&u64::from_le_bytes([0x0f, 0x05, 0, 0, 0, 0, 0, 0]).to_le_bytes());
        code.extend_from_slice(&[0x0f, 0x05]); // real syscall at 10
        code.push(0x1c); // hlt
        assert_eq!(syscall_offsets(&code), vec![10]);
    }

    #[test]
    fn sweep_desynchronizes_on_data_in_text() {
        // A raw data byte (invalid opcode) followed by a syscall: the
        // sweep resyncs and still finds it; but data bytes that *look*
        // like instruction starts can swallow a following syscall —
        // demonstrate the hazard with 0x01 (MovRI) eating 9 bytes.
        let mut code = vec![0x01]; // looks like MovRI, consumes 9 more
        code.extend_from_slice(&[0x00; 7]);
        code.extend_from_slice(&[0x0f, 0x05]); // swallowed!
        let found = syscall_offsets(&code);
        assert!(found.is_empty(), "hazard did not manifest: {found:?}");
    }

    #[test]
    fn all_ops_roundtrip_reads_writes_without_panic() {
        // Smoke-test every decodable first byte for reads()/writes().
        for b0 in 0u8..=255 {
            let buf = [b0, 0x05, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0];
            if let Ok(i) = decode(&buf) {
                let _ = i.op.reads();
                let _ = i.op.writes();
                assert!(i.len >= 1);
            }
        }
    }
}
