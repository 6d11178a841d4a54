//! A deterministic simulated CPU for interposition experiments.
//!
//! Some of the paper's experiments cannot run on the host: Intel Pin
//! is proprietary (Table III), and no native engine keeps the
//! selector the §VI attack targets. This crate provides the substrate
//! those experiments run on instead: a small machine with
//!
//! * sixteen 64-bit general-purpose registers and sixteen 128-bit
//!   vector registers ([`reg`]),
//! * paged memory with R/W/X permissions ([`mem`]),
//! * a **variable-length ISA** ([`insn`]) that deliberately shares the
//!   two encodings the rewriting trick depends on with x86-64: the
//!   2-byte `SYSCALL` (`0f 05`) and 2-byte `CALL r0` (`ff d0`) — so a
//!   zpoline-style rewriter works (and mis-disassembles!) exactly as
//!   on real hardware,
//! * an assembler with labels ([`asm`]),
//! * a linear-sweep disassembler with the same data-vs-code blindness
//!   real static rewriters suffer ([`insn::sweep`]),
//! * an execution engine with a retired-instruction count and
//!   per-instruction register read/write tracing for the Pin-like
//!   analysis ([`machine`]).
//!
//! The machine is single-ISA, little-endian, and completely
//! deterministic: identical programs retire identical instruction
//! streams. It models no time: what each mechanism costs is measured
//! natively (`table2`).
//!
//! # Example
//!
//! ```rust
//! use lp_sim_cpu::asm::Asm;
//! use lp_sim_cpu::machine::{Event, Machine};
//! use lp_sim_cpu::reg::Gpr;
//!
//! let code = Asm::new()
//!     .mov_ri(Gpr::R0, 39) // "getpid"
//!     .syscall()
//!     .hlt()
//!     .assemble()?;
//! let mut m = Machine::new();
//! m.load_code(0x1000, &code)?;
//! assert!(matches!(m.run()?, Event::Syscall));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod asm;
pub mod insn;
pub mod machine;
pub mod mem;
pub mod reg;

pub use asm::Asm;
pub use insn::{decode, sweep, Insn, Op};
pub use machine::{Event, Fault, Machine};
pub use mem::{Memory, Perms, PAGE_SIZE};
pub use reg::{Gpr, RegSet, Xmm};
