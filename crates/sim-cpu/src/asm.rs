//! A small assembler with labels for the simulated ISA.
//!
//! ```rust
//! use lp_sim_cpu::asm::Asm;
//! use lp_sim_cpu::reg::Gpr;
//!
//! // while read(3, buf, 8) != 0 {}
//! let code = Asm::new()
//!     .label("loop")
//!     .mov_ri(Gpr::R0, 0)
//!     .mov_ri(Gpr::R1, 3)
//!     .mov_ri(Gpr::R2, 0xb000)
//!     .mov_ri(Gpr::R3, 8)
//!     .syscall()
//!     .cmp_ri(Gpr::R0, 0)
//!     .jz("done")
//!     .jmp("loop")
//!     .label("done")
//!     .assemble()?;
//! # Ok::<(), lp_sim_cpu::asm::AsmError>(())
//! ```

use std::collections::HashMap;

use crate::reg::{Gpr, Xmm};

/// Assembly errors (reported at [`Asm::assemble`] time).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AsmError {
    /// A jump referenced a label that was never defined.
    UndefinedLabel(String),
    /// The same label was defined twice.
    DuplicateLabel(String),
    /// A relative displacement overflowed 32 bits.
    DisplacementOverflow(String),
}

impl std::fmt::Display for AsmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AsmError::UndefinedLabel(l) => write!(f, "undefined label `{l}`"),
            AsmError::DuplicateLabel(l) => write!(f, "duplicate label `{l}`"),
            AsmError::DisplacementOverflow(l) => write!(f, "displacement to `{l}` overflows i32"),
        }
    }
}

impl std::error::Error for AsmError {}

enum Fixup {
    /// Patch 4 bytes at `at` with `label_addr - (at + 4)`.
    Rel32 { at: usize, label: String },
    /// Patch 8 bytes at `at` with `base + label_offset` (absolute).
    Abs64 { at: usize, label: String },
}

/// The assembler/builder. Methods append one instruction each and
/// return `self` for chaining.
#[derive(Default)]
pub struct Asm {
    bytes: Vec<u8>,
    labels: HashMap<String, usize>,
    fixups: Vec<Fixup>,
    error: Option<AsmError>,
}

impl std::fmt::Debug for Asm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Asm({} bytes, {} labels)",
            self.bytes.len(),
            self.labels.len()
        )
    }
}

impl Asm {
    /// Creates an empty program.
    pub fn new() -> Asm {
        Asm::default()
    }

    /// Defines a label at the current position.
    pub fn label(mut self, name: &str) -> Asm {
        if self
            .labels
            .insert(name.to_string(), self.bytes.len())
            .is_some()
            && self.error.is_none()
        {
            self.error = Some(AsmError::DuplicateLabel(name.to_string()));
        }
        self
    }

    /// Appends `syscall` (`0f 05`).
    pub fn syscall(self) -> Asm {
        self.raw(&[0x0f, 0x05])
    }

    /// Appends `mov r, imm64`.
    pub fn mov_ri(self, r: Gpr, imm: u64) -> Asm {
        self.raw(&[0x01, r.index() as u8]).raw(&imm.to_le_bytes())
    }

    /// Appends `mov r, &label` — the label's absolute address once the
    /// program is assembled at a base (see [`Asm::assemble_at`]).
    pub fn mov_ri_label(self, r: Gpr, label: &str) -> Asm {
        let mut asm = self.raw(&[0x01, r.index() as u8]);
        asm.fixups.push(Fixup::Abs64 {
            at: asm.bytes.len(),
            label: label.to_string(),
        });
        asm.raw(&[0; 8])
    }

    /// Appends `mov rd, rs`.
    pub fn mov_rr(self, d: Gpr, s: Gpr) -> Asm {
        self.raw(&[0x02, d.index() as u8, s.index() as u8])
    }

    /// Appends `cmp r, imm32`.
    pub fn cmp_ri(self, r: Gpr, imm: i32) -> Asm {
        self.raw(&[0x09, r.index() as u8]).raw(&imm.to_le_bytes())
    }

    /// Appends `jmp label`.
    pub fn jmp(self, label: &str) -> Asm {
        self.jump(0x0b, label)
    }

    /// Appends `jz label`.
    pub fn jz(self, label: &str) -> Asm {
        self.jump(0x0c, label)
    }

    fn jump(self, opcode: u8, label: &str) -> Asm {
        let mut asm = self.raw(&[opcode]);
        asm.fixups.push(Fixup::Rel32 {
            at: asm.bytes.len(),
            label: label.to_string(),
        });
        asm.raw(&[0; 4])
    }

    /// Appends `movx x, r` (vector low lane ← GPR).
    pub fn mov_xr(self, x: Xmm, r: Gpr) -> Asm {
        self.raw(&[0x15, x.0, r.index() as u8])
    }

    /// Appends `movx x, imm64`.
    pub fn mov_xi(self, x: Xmm, imm: u64) -> Asm {
        self.raw(&[0x17, x.0]).raw(&imm.to_le_bytes())
    }

    /// Appends `storex [r + disp], x` (128-bit).
    pub fn store_x(self, base: Gpr, x: Xmm, disp: i32) -> Asm {
        self.raw(&[0x19, base.index() as u8, x.0])
            .raw(&disp.to_le_bytes())
    }

    /// Appends raw bytes (data, or hand-encoded instructions).
    pub fn raw(mut self, bytes: &[u8]) -> Asm {
        self.bytes.extend_from_slice(bytes);
        self
    }

    /// Assembles with absolute labels resolved against base address 0.
    ///
    /// # Errors
    ///
    /// See [`AsmError`].
    pub fn assemble(self) -> Result<Vec<u8>, AsmError> {
        self.assemble_at(0)
    }

    /// Assembles the program as if loaded at `base` (affects only
    /// [`Asm::mov_ri_label`] absolute fixups; jumps are relative).
    ///
    /// # Errors
    ///
    /// See [`AsmError`].
    pub fn assemble_at(mut self, base: u64) -> Result<Vec<u8>, AsmError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        for fixup in &self.fixups {
            let (Fixup::Rel32 { at, label } | Fixup::Abs64 { at, label }) = fixup;
            let target = *self
                .labels
                .get(label)
                .ok_or_else(|| AsmError::UndefinedLabel(label.clone()))?;
            match fixup {
                Fixup::Rel32 { .. } => {
                    let rel = target as i64 - (*at as i64 + 4);
                    let rel32 = i32::try_from(rel)
                        .map_err(|_| AsmError::DisplacementOverflow(label.clone()))?;
                    self.bytes[*at..at + 4].copy_from_slice(&rel32.to_le_bytes());
                }
                Fixup::Abs64 { .. } => {
                    let abs = base + target as u64;
                    self.bytes[*at..at + 8].copy_from_slice(&abs.to_le_bytes());
                }
            }
        }
        Ok(self.bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::{decode, Op};

    #[test]
    fn basic_encoding() {
        let code = Asm::new()
            .mov_ri(Gpr::R0, 39)
            .syscall()
            .cmp_ri(Gpr::R0, 0)
            .assemble()
            .unwrap();
        assert_eq!(code.len(), 18);
        assert_eq!(decode(&code).unwrap().op, Op::MovRI(Gpr::R0, 39));
        assert_eq!(decode(&code[10..]).unwrap().op, Op::Syscall);
        assert_eq!(decode(&code[12..]).unwrap().op, Op::CmpRI(Gpr::R0, 0));
    }

    #[test]
    fn backward_jump_resolves() {
        let code = Asm::new()
            .label("top")
            .syscall()
            .jmp("top")
            .assemble()
            .unwrap();
        // jmp at offset 2, rel32 at 3..7, target 0 → rel = 0 - 7 = -7.
        assert_eq!(decode(&code[2..]).unwrap().op, Op::Jmp(-7));
    }

    #[test]
    fn forward_jump_resolves() {
        let code = Asm::new()
            .jz("end")
            .syscall()
            .label("end")
            .syscall()
            .assemble()
            .unwrap();
        // jz at 0, next insn at 5, target 7 → rel 2.
        assert_eq!(decode(&code).unwrap().op, Op::Jz(2));
    }

    #[test]
    fn absolute_label_fixup_uses_base() {
        let code = Asm::new()
            .mov_ri_label(Gpr::R3, "data")
            .syscall()
            .label("data")
            .raw(&[1, 2, 3])
            .assemble_at(0x5000)
            .unwrap();
        assert_eq!(decode(&code).unwrap().op, Op::MovRI(Gpr::R3, 0x5000 + 12));
    }

    #[test]
    fn errors_reported() {
        assert_eq!(
            Asm::new().jmp("nowhere").assemble(),
            Err(AsmError::UndefinedLabel("nowhere".into()))
        );
        assert_eq!(
            Asm::new().label("x").label("x").assemble(),
            Err(AsmError::DuplicateLabel("x".into()))
        );
    }

    #[test]
    fn every_emitter_produces_decodable_output() {
        let code = Asm::new()
            .label("top")
            .syscall()
            .mov_ri(Gpr::R1, 7)
            .mov_ri_label(Gpr::R1, "top")
            .mov_rr(Gpr::R2, Gpr::R1)
            .cmp_ri(Gpr::R1, 0)
            .jmp("top")
            .jz("top")
            .mov_xr(Xmm(0), Gpr::R1)
            .mov_xi(Xmm(1), 42)
            .store_x(Gpr::R15, Xmm(2), 0)
            .assemble()
            .unwrap();
        // The whole buffer must decode cleanly with no resync.
        let mut pos = 0;
        let mut count = 0;
        while pos < code.len() {
            let i = decode(&code[pos..]).unwrap_or_else(|e| panic!("at {pos}: {e}"));
            pos += i.len as usize;
            count += 1;
        }
        assert_eq!(count, 10);
    }
}
