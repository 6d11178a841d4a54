//! The simulated ISA: encoding and decoding.
//!
//! The ISA is variable-length; `SYSCALL` is x86-64's `0f 05` (2 bytes).
//! The guest programs' addresses, and with them every Table III
//! finding `tests/sim_experiments.rs` pins, follow from these
//! encodings' lengths: change one and every report moves.

use crate::reg::{Gpr, RegSet, Xmm};

/// One decoded operation: what Table III's guest programs execute.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Trap into the kernel (`0f 05`).
    Syscall,
    /// `r ← imm64`.
    MovRI(Gpr, u64),
    /// `rd ← rs`.
    MovRR(Gpr, Gpr),
    /// Compare `r` with imm32: sets ZF.
    CmpRI(Gpr, i32),
    /// Unconditional relative jump (offset from next insn).
    Jmp(i32),
    /// Jump if ZF.
    Jz(i32),
    /// Vector: `x.low ← r` (high lane zeroed).
    MovXR(Xmm, Gpr),
    /// Vector: `x ← imm64` in low lane.
    MovXI(Xmm, u64),
    /// Vector store: `mem128[r + disp] ← x`.
    StoreX(Gpr, Xmm, i32),
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

fn imm<const N: usize>(bytes: &[u8], at: usize) -> Result<[u8; N], DecodeError> {
    let s = bytes.get(at..at + N).ok_or(DecodeError::Truncated)?;
    Ok(s.try_into().unwrap())
}

fn imm32(bytes: &[u8], at: usize) -> Result<i32, DecodeError> {
    imm(bytes, at).map(i32::from_le_bytes)
}

fn imm64(bytes: &[u8], at: usize) -> Result<u64, DecodeError> {
    imm(bytes, at).map(u64::from_le_bytes)
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
    let (op, len) = match op0 {
        0x0f if b(1)? == 0x05 => (Op::Syscall, 2),
        0x01 => (Op::MovRI(gpr(b(1)?)?, imm64(bytes, 2)?), 10),
        0x02 => (Op::MovRR(gpr(b(1)?)?, gpr(b(2)?)?), 3),
        0x09 => (Op::CmpRI(gpr(b(1)?)?, imm32(bytes, 2)?), 6),
        0x0b => (Op::Jmp(imm32(bytes, 1)?), 5),
        0x0c => (Op::Jz(imm32(bytes, 1)?), 5),
        0x15 => (Op::MovXR(xmm(b(1)?)?, gpr(b(2)?)?), 3),
        0x17 => (Op::MovXI(xmm(b(1)?)?, imm64(bytes, 2)?), 10),
        0x19 => (Op::StoreX(gpr(b(1)?)?, xmm(b(2)?)?, imm32(bytes, 3)?), 7),
        other => return Err(DecodeError::InvalidOpcode(other)),
    };
    Ok(Insn { op, len })
}

impl Op {
    /// Registers this operation reads (architectural sources, including
    /// address bases), for the Pin-like analysis.
    pub fn reads(&self) -> RegSet {
        let s = RegSet::EMPTY;
        match *self {
            Op::Jmp(_) | Op::Jz(_) | Op::MovRI(..) | Op::MovXI(..) => s,
            // Kernel convention: number + six argument registers.
            Op::Syscall => (0..7).fold(s, |s, i| s.with_gpr(Gpr::from_index(i))),
            Op::MovRR(_, r) | Op::CmpRI(r, _) | Op::MovXR(_, r) => s.with_gpr(r),
            Op::StoreX(base, x, _) => s.with_gpr(base).with_xmm(x),
        }
    }

    /// Registers this operation writes.
    pub fn writes(&self) -> RegSet {
        let s = RegSet::EMPTY;
        match *self {
            Op::Jmp(_) | Op::Jz(_) | Op::CmpRI(..) | Op::StoreX(..) => s,
            // Kernel convention (mirrors x86-64): the return value lands
            // in r0; nothing else is architecturally clobbered.
            Op::Syscall => s.with_gpr(Gpr::R0),
            Op::MovRI(r, _) | Op::MovRR(r, _) => s.with_gpr(r),
            Op::MovXR(x, _) | Op::MovXI(x, _) => s.with_xmm(x),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_encodings_match_x86() {
        assert_eq!(
            decode(&[0x0f, 0x05]).unwrap(),
            Insn {
                op: Op::Syscall,
                len: 2
            }
        );
    }

    #[test]
    fn imm_decoding() {
        let mut b = vec![0x01, 3];
        b.extend_from_slice(&0xdead_beef_u64.to_le_bytes());
        assert_eq!(decode(&b).unwrap().op, Op::MovRI(Gpr::R3, 0xdead_beef));
        let mut b = vec![0x09, 2];
        b.extend_from_slice(&(-7i32).to_le_bytes());
        assert_eq!(decode(&b).unwrap().op, Op::CmpRI(Gpr::R2, -7));
    }

    #[test]
    fn errors() {
        assert_eq!(decode(&[]), Err(DecodeError::Truncated));
        assert_eq!(decode(&[0x01, 3]), Err(DecodeError::Truncated));
        assert_eq!(decode(&[0x0f]), Err(DecodeError::Truncated));
        assert_eq!(decode(&[0x42]), Err(DecodeError::InvalidOpcode(0x42)));
        assert_eq!(decode(&[0x02, 99, 0]), Err(DecodeError::BadRegister(99)));
        assert_eq!(decode(&[0x0f, 0x06]), Err(DecodeError::InvalidOpcode(0x0f)));
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
        assert!(Op::MovXR(Xmm(0), Gpr::R12).writes().has_xmm(Xmm(0)));
        assert!(Op::StoreX(Gpr::R1, Xmm(4), 0).reads().has_xmm(Xmm(4)));
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
