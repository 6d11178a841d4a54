//! Register identifiers and register-set bitmaps.

use std::fmt;

/// General-purpose register id (16 registers, `r0..r15`).
///
/// Conventions (mirroring the x86-64 syscall ABI shape):
/// * `R0` — syscall number and return value ("rax"),
/// * `R1..=R6` — syscall arguments.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Gpr {
    /// r0 — syscall number / return value ("rax").
    R0,
    /// r1 — first syscall argument.
    R1,
    /// r2 — second syscall argument.
    R2,
    /// r3 — third syscall argument.
    R3,
    /// r4 — fourth syscall argument.
    R4,
    /// r5 — fifth syscall argument.
    R5,
    /// r6 — sixth syscall argument.
    R6,
    /// r7 — scratch.
    R7,
    /// r8 — scratch.
    R8,
    /// r9 — scratch.
    R9,
    /// r10 — scratch.
    R10,
    /// r11 — scratch.
    R11,
    /// r12 — scratch.
    R12,
    /// r13 — scratch.
    R13,
    /// r14 — scratch.
    R14,
    /// r15 — scratch.
    R15,
}

impl Gpr {
    /// All sixteen GPRs in index order.
    pub const ALL: [Gpr; 16] = [
        Gpr::R0,
        Gpr::R1,
        Gpr::R2,
        Gpr::R3,
        Gpr::R4,
        Gpr::R5,
        Gpr::R6,
        Gpr::R7,
        Gpr::R8,
        Gpr::R9,
        Gpr::R10,
        Gpr::R11,
        Gpr::R12,
        Gpr::R13,
        Gpr::R14,
        Gpr::R15,
    ];

    /// Numeric index (0..16).
    pub fn index(self) -> usize {
        self as usize
    }

    /// From a numeric index.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 16`.
    pub fn from_index(i: usize) -> Gpr {
        Self::ALL[i]
    }
}

impl fmt::Display for Gpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.index())
    }
}

/// Vector register id (16 registers, `x0..x15`, 128-bit) — the
/// simulated analogue of `xmm0..xmm15`, the extended state whose
/// preservation Table III studies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Xmm(pub u8);

impl Xmm {
    /// Numeric index (0..16).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Xmm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// A compact bitmap over all registers: bits 0-15 = GPRs, 16-31 =
/// vector registers. Used by the execution tracer to report which
/// registers an instruction read and wrote.
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct RegSet(pub u32);

impl RegSet {
    /// The empty set.
    pub const EMPTY: RegSet = RegSet(0);

    /// Adds a GPR.
    pub fn with_gpr(mut self, r: Gpr) -> RegSet {
        self.0 |= 1 << r.index();
        self
    }

    /// Adds a vector register.
    pub fn with_xmm(mut self, x: Xmm) -> RegSet {
        self.0 |= 1 << (16 + x.index());
        self
    }

    /// Membership test for a GPR.
    pub fn has_gpr(self, r: Gpr) -> bool {
        self.0 & (1 << r.index()) != 0
    }

    /// Membership test for a vector register.
    pub fn has_xmm(self, x: Xmm) -> bool {
        self.0 & (1 << (16 + x.index())) != 0
    }

    /// Iterates all members as (is_vector, index) pairs.
    pub fn iter(self) -> impl Iterator<Item = (bool, usize)> {
        (0..32).filter_map(move |bit| {
            if self.0 & (1 << bit) != 0 {
                Some((bit >= 16, bit % 16))
            } else {
                None
            }
        })
    }
}

impl fmt::Debug for RegSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for (vec, idx) in self.iter() {
            if !first {
                write!(f, ",")?;
            }
            first = false;
            if vec {
                write!(f, "x{idx}")?;
            } else {
                write!(f, "r{idx}")?;
            }
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpr_indices_roundtrip() {
        for (i, r) in Gpr::ALL.iter().enumerate() {
            assert_eq!(r.index(), i);
            assert_eq!(Gpr::from_index(i), *r);
        }
    }

    #[test]
    fn regset_membership() {
        let s = RegSet::EMPTY.with_gpr(Gpr::R3).with_xmm(Xmm(7));
        assert!(s.has_gpr(Gpr::R3));
        assert!(!s.has_gpr(Gpr::R4));
        assert!(s.has_xmm(Xmm(7)));
        assert!(!s.has_xmm(Xmm(8)));
        assert_ne!(s, RegSet::EMPTY);
    }

    #[test]
    fn regset_iter_and_debug() {
        let s = RegSet::EMPTY.with_gpr(Gpr::R0).with_xmm(Xmm(2));
        let members: Vec<_> = s.iter().collect();
        assert_eq!(members, vec![(false, 0), (true, 2)]);
        assert_eq!(format!("{s:?}"), "{r0,x2}");
    }

    #[test]
    fn display_names() {
        assert_eq!(Gpr::R11.to_string(), "r11");
        assert_eq!(Xmm(5).to_string(), "x5");
    }
}
