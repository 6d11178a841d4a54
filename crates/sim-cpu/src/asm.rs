//! A small assembler with labels for the simulated ISA.
//!
//! ```rust
//! use lp_sim_cpu::asm::Asm;
//! use lp_sim_cpu::reg::Gpr;
//!
//! // for i in 0..3 { syscall(39) }
//! let code = Asm::new()
//!     .mov_ri(Gpr::R7, 3)
//!     .label("loop")
//!     .mov_ri(Gpr::R0, 39)
//!     .syscall()
//!     .sub_ri(Gpr::R7, 1)
//!     .cmp_ri(Gpr::R7, 0)
//!     .jnz("loop")
//!     .hlt()
//!     .assemble()?;
//! # Ok::<(), lp_sim_cpu::asm::AsmError>(())
//! ```

use std::collections::HashMap;

use crate::reg::{Gpr, Xmm};

/// Assembly errors (reported at [`Asm::assemble`] time).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AsmError {
    /// A jump/call referenced a label that was never defined.
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
        write!(f, "Asm({} bytes, {} labels)", self.bytes.len(), self.labels.len())
    }
}

macro_rules! emit_r {
    ($(($fn:ident, $opc:expr, $doc:expr);)*) => {
        $(
            #[doc = $doc]
            pub fn $fn(mut self, r: Gpr) -> Asm {
                self.bytes.push($opc);
                self.bytes.push(r.index() as u8);
                self
            }
        )*
    };
}

macro_rules! emit_rr {
    ($(($fn:ident, $opc:expr, $doc:expr);)*) => {
        $(
            #[doc = $doc]
            pub fn $fn(mut self, a: Gpr, b: Gpr) -> Asm {
                self.bytes.push($opc);
                self.bytes.push(a.index() as u8);
                self.bytes.push(b.index() as u8);
                self
            }
        )*
    };
}

macro_rules! emit_ri32 {
    ($(($fn:ident, $opc:expr, $doc:expr);)*) => {
        $(
            #[doc = $doc]
            pub fn $fn(mut self, r: Gpr, imm: i32) -> Asm {
                self.bytes.push($opc);
                self.bytes.push(r.index() as u8);
                self.bytes.extend_from_slice(&imm.to_le_bytes());
                self
            }
        )*
    };
}

macro_rules! emit_jump {
    ($(($fn:ident, $opc:expr, $doc:expr);)*) => {
        $(
            #[doc = $doc]
            pub fn $fn(mut self, label: &str) -> Asm {
                self.bytes.push($opc);
                self.fixups.push(Fixup::Rel32 {
                    at: self.bytes.len(),
                    label: label.to_string(),
                });
                self.bytes.extend_from_slice(&[0; 4]);
                self
            }
        )*
    };
}

macro_rules! emit_mem {
    ($(($fn:ident, $opc:expr, $doc:expr);)*) => {
        $(
            #[doc = $doc]
            pub fn $fn(mut self, a: Gpr, b: Gpr, disp: i32) -> Asm {
                self.bytes.push($opc);
                self.bytes.push(a.index() as u8);
                self.bytes.push(b.index() as u8);
                self.bytes.extend_from_slice(&disp.to_le_bytes());
                self
            }
        )*
    };
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

    /// Appends a `nop`.
    pub fn nop(mut self) -> Asm {
        self.bytes.push(0x90);
        self
    }

    /// Appends `syscall` (`0f 05`).
    pub fn syscall(mut self) -> Asm {
        self.bytes.extend_from_slice(&[0x0f, 0x05]);
        self
    }

    /// Appends `call r` (`ff d0+r`).
    pub fn call_reg(mut self, r: Gpr) -> Asm {
        self.bytes.push(0xff);
        self.bytes.push(0xd0 + r.index() as u8);
        self
    }

    /// Appends `mov r, imm64`.
    pub fn mov_ri(mut self, r: Gpr, imm: u64) -> Asm {
        self.bytes.push(0x01);
        self.bytes.push(r.index() as u8);
        self.bytes.extend_from_slice(&imm.to_le_bytes());
        self
    }

    /// Appends `mov r, &label` — the label's absolute address once the
    /// program is assembled at a base (see [`Asm::assemble_at`]).
    pub fn mov_ri_label(mut self, r: Gpr, label: &str) -> Asm {
        self.bytes.push(0x01);
        self.bytes.push(r.index() as u8);
        self.fixups.push(Fixup::Abs64 {
            at: self.bytes.len(),
            label: label.to_string(),
        });
        self.bytes.extend_from_slice(&[0; 8]);
        self
    }

    emit_rr! {
        (mov_rr, 0x02, "Appends `mov rd, rs`.");
        (add_rr, 0x06, "Appends `add rd, rs`.");
        (sub_rr, 0x08, "Appends `sub rd, rs`.");
        (cmp_rr, 0x0a, "Appends `cmp ra, rb`.");
        (mul_rr, 0x1e, "Appends `mul rd, rs`.");
    }

    emit_ri32! {
        (add_ri, 0x05, "Appends `add r, imm32`.");
        (sub_ri, 0x07, "Appends `sub r, imm32`.");
        (cmp_ri, 0x09, "Appends `cmp r, imm32`.");
        (and_ri, 0x1f, "Appends `and r, imm32`.");
    }

    emit_mem! {
        (load, 0x03, "Appends `load rd, [rs + disp]` (64-bit).");
        (store, 0x04, "Appends `store [rbase + disp], rs` (64-bit).");
        (load_b, 0x20, "Appends `loadb rd, [rs + disp]` (8-bit).");
        (store_b, 0x21, "Appends `storeb [rbase + disp], rs` (8-bit).");
    }

    emit_jump! {
        (jmp, 0x0b, "Appends `jmp label`.");
        (jz, 0x0c, "Appends `jz label`.");
        (jnz, 0x0d, "Appends `jnz label`.");
        (jl, 0x0e, "Appends `jl label`.");
        (call, 0x11, "Appends `call label`.");
    }

    emit_r! {
        (push, 0x13, "Appends `push r`.");
        (pop, 0x14, "Appends `pop r`.");
        (xsave, 0x1a, "Appends `xsave [r]` (all 16 vector regs, 256 bytes).");
        (xrstor, 0x1b, "Appends `xrstor [r]`.");
        (jmp_reg, 0x1d, "Appends `jmp r` (indirect).");
    }

    /// Appends `ret`.
    pub fn ret(mut self) -> Asm {
        self.bytes.push(0x12);
        self
    }

    /// Appends `hlt`.
    pub fn hlt(mut self) -> Asm {
        self.bytes.push(0x1c);
        self
    }

    /// Appends `movx x, r` (vector low lane ← GPR).
    pub fn mov_xr(mut self, x: Xmm, r: Gpr) -> Asm {
        self.bytes.extend_from_slice(&[0x15, x.0, r.index() as u8]);
        self
    }

    /// Appends `movx r, x` (GPR ← vector low lane).
    pub fn mov_rx(mut self, r: Gpr, x: Xmm) -> Asm {
        self.bytes.extend_from_slice(&[0x16, r.index() as u8, x.0]);
        self
    }

    /// Appends `movx x, imm64`.
    pub fn mov_xi(mut self, x: Xmm, imm: u64) -> Asm {
        self.bytes.push(0x17);
        self.bytes.push(x.0);
        self.bytes.extend_from_slice(&imm.to_le_bytes());
        self
    }

    /// Appends `loadx x, [r + disp]` (128-bit).
    pub fn load_x(mut self, x: Xmm, base: Gpr, disp: i32) -> Asm {
        self.bytes.push(0x18);
        self.bytes.push(x.0);
        self.bytes.push(base.index() as u8);
        self.bytes.extend_from_slice(&disp.to_le_bytes());
        self
    }

    /// Appends `storex [r + disp], x` (128-bit).
    pub fn store_x(mut self, base: Gpr, x: Xmm, disp: i32) -> Asm {
        self.bytes.push(0x19);
        self.bytes.push(base.index() as u8);
        self.bytes.push(x.0);
        self.bytes.extend_from_slice(&disp.to_le_bytes());
        self
    }

    /// Appends raw bytes (data, or hand-encoded instructions).
    pub fn raw(mut self, bytes: &[u8]) -> Asm {
        self.bytes.extend_from_slice(bytes);
        self
    }

    /// Current offset (for size assertions in tests).
    pub fn here(&self) -> usize {
        self.bytes.len()
    }

    /// Resolved offset of a label, if defined so far.
    pub fn label_offset(&self, name: &str) -> Option<usize> {
        self.labels.get(name).copied()
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
            match fixup {
                Fixup::Rel32 { at, label } => {
                    let target = *self
                        .labels
                        .get(label)
                        .ok_or_else(|| AsmError::UndefinedLabel(label.clone()))?;
                    let rel = target as i64 - (*at as i64 + 4);
                    let rel32 = i32::try_from(rel)
                        .map_err(|_| AsmError::DisplacementOverflow(label.clone()))?;
                    self.bytes[*at..at + 4].copy_from_slice(&rel32.to_le_bytes());
                }
                Fixup::Abs64 { at, label } => {
                    let target = *self
                        .labels
                        .get(label)
                        .ok_or_else(|| AsmError::UndefinedLabel(label.clone()))?;
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
            .hlt()
            .assemble()
            .unwrap();
        assert_eq!(code.len(), 13);
        assert_eq!(decode(&code).unwrap().op, Op::MovRI(Gpr::R0, 39));
        assert_eq!(decode(&code[10..]).unwrap().op, Op::Syscall);
        assert_eq!(decode(&code[12..]).unwrap().op, Op::Hlt);
    }

    #[test]
    fn backward_jump_resolves() {
        let code = Asm::new()
            .label("top")
            .nop()
            .jmp("top")
            .assemble()
            .unwrap();
        // jmp at offset 1, rel32 at 2..6, target 0 → rel = 0 - 6 = -6.
        assert_eq!(decode(&code[1..]).unwrap().op, Op::Jmp(-6));
    }

    #[test]
    fn forward_jump_resolves() {
        let code = Asm::new()
            .jz("end")
            .nop()
            .label("end")
            .hlt()
            .assemble()
            .unwrap();
        // jz at 0, next insn at 5, target 6 → rel 1.
        assert_eq!(decode(&code).unwrap().op, Op::Jz(1));
    }

    #[test]
    fn absolute_label_fixup_uses_base() {
        let code = Asm::new()
            .mov_ri_label(Gpr::R3, "data")
            .hlt()
            .label("data")
            .raw(&[1, 2, 3])
            .assemble_at(0x5000)
            .unwrap();
        assert_eq!(
            decode(&code).unwrap().op,
            Op::MovRI(Gpr::R3, 0x5000 + 11)
        );
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
            .nop()
            .syscall()
            .call_reg(Gpr::R0)
            .mov_ri(Gpr::R1, 7)
            .mov_rr(Gpr::R2, Gpr::R1)
            .load(Gpr::R3, Gpr::R15, 8)
            .store(Gpr::R15, Gpr::R3, 8)
            .load_b(Gpr::R4, Gpr::R15, 0)
            .store_b(Gpr::R15, Gpr::R4, 0)
            .add_ri(Gpr::R1, 1)
            .add_rr(Gpr::R1, Gpr::R2)
            .sub_ri(Gpr::R1, 1)
            .sub_rr(Gpr::R1, Gpr::R2)
            .mul_rr(Gpr::R1, Gpr::R2)
            .and_ri(Gpr::R1, -16)
            .cmp_ri(Gpr::R1, 0)
            .cmp_rr(Gpr::R1, Gpr::R2)
            .push(Gpr::R1)
            .pop(Gpr::R1)
            .mov_xr(Xmm(0), Gpr::R1)
            .mov_rx(Gpr::R1, Xmm(0))
            .mov_xi(Xmm(1), 42)
            .load_x(Xmm(2), Gpr::R15, 0)
            .store_x(Gpr::R15, Xmm(2), 0)
            .xsave(Gpr::R14)
            .xrstor(Gpr::R14)
            .jmp_reg(Gpr::R9)
            .ret()
            .hlt()
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
        assert_eq!(count, 29);
    }
}
