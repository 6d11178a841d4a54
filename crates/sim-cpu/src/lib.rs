//! A deterministic simulated CPU for Table III's register-preservation
//! study.
//!
//! Table III comes from an Intel Pin study of coreutils on glibc 2.31
//! and 2.39, which this host cannot run; `sim-pin` reruns that study
//! over this machine and `sim-kernel`. It keeps only what those guest
//! programs execute:
//!
//! * sixteen 64-bit general-purpose registers and sixteen 128-bit
//!   vector registers ([`reg`]),
//! * sparse paged memory, where an access to an unmapped address
//!   faults ([`mem`]),
//! * a variable-length ISA of nine operations whose `SYSCALL` keeps
//!   its x86-64 encoding, `0f 05` ([`insn`]),
//! * an assembler with labels ([`asm`]),
//! * an execution engine with a retired-instruction count, a fuel
//!   guard, and per-instruction register read/write tracing for the
//!   Pin-like analysis ([`machine`]).
//!
//! The machine is little-endian and completely deterministic:
//! identical programs retire identical instruction streams. It models
//! no time and no interposition mechanism; those run natively.
//!
//! # Example
//!
//! ```rust
//! use lp_sim_cpu::asm::Asm;
//! use lp_sim_cpu::machine::Machine;
//! use lp_sim_cpu::reg::Gpr;
//!
//! let code = Asm::new()
//!     .mov_ri(Gpr::R0, 218) // "set_tid_address"
//!     .syscall()
//!     .assemble()?;
//! let mut m = Machine::new();
//! m.load_code(0x1000, &code)?;
//! m.run_fuel(100)?; // stops at the syscall
//! assert_eq!(m.syscall_args().0, 218);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod asm;
pub mod insn;
pub mod machine;
pub mod mem;
pub mod reg;
