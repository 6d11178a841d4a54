//! The execution engine.

use crate::insn::{decode, DecodeError, Op};
use crate::mem::{MemFault, Memory};
use crate::reg::{Gpr, RegSet, Xmm};

/// Why execution failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Fault {
    /// A memory access faulted.
    Mem(MemFault),
    /// Instruction decode failed at `addr`.
    Decode {
        /// Address of the undecodable instruction.
        addr: u64,
        /// The underlying decode error.
        err: DecodeError,
    },
    /// The fuel limit passed to [`Machine::run_fuel`] was exhausted.
    FuelExhausted,
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Fault::Mem(m) => write!(f, "memory fault: {m}"),
            Fault::Decode { addr, err } => write!(f, "decode fault at {addr:#x}: {err}"),
            Fault::FuelExhausted => write!(f, "fuel exhausted"),
        }
    }
}

impl std::error::Error for Fault {}

impl From<MemFault> for Fault {
    fn from(m: MemFault) -> Fault {
        Fault::Mem(m)
    }
}

/// One executed instruction, as seen by a trace hook.
#[derive(Clone, Copy, Debug)]
pub struct TraceRecord {
    /// Address of the instruction.
    pub rip: u64,
    /// The operation.
    pub op: Op,
    /// Architectural register sources.
    pub reads: RegSet,
    /// Architectural register destinations.
    pub writes: RegSet,
}

/// Per-instruction observation hook (the Pin-like instrumentation
/// attachment point).
pub type TraceHook = Box<dyn FnMut(&TraceRecord)>;

/// The simulated CPU.
pub struct Machine {
    gpr: [u64; 16],
    xmm: [u128; 16],
    rip: u64,
    zf: bool,
    /// The machine's memory (public: the kernel copies syscall buffers
    /// in and out of it).
    pub mem: Memory,
    retired: u64,
    hook: Option<TraceHook>,
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Machine(rip={:#x}, retired={})", self.rip, self.retired)
    }
}

impl Default for Machine {
    fn default() -> Machine {
        Machine::new()
    }
}

impl Machine {
    /// A fresh machine: zeroed registers, empty memory.
    pub fn new() -> Machine {
        Machine {
            gpr: [0; 16],
            xmm: [0; 16],
            rip: 0,
            zf: false,
            mem: Memory::new(),
            retired: 0,
            hook: None,
        }
    }

    /// Attaches a per-instruction trace hook (replacing any previous).
    pub fn set_trace_hook(&mut self, hook: TraceHook) {
        self.hook = Some(hook);
    }

    /// Maps a page-aligned region sized for `code` at `addr`, copies the
    /// program, and points `rip` at it.
    ///
    /// # Errors
    ///
    /// Propagates mapping faults.
    pub fn load_code(&mut self, addr: u64, code: &[u8]) -> Result<(), Fault> {
        self.mem.map(addr, code.len().max(1) as u64);
        self.mem.write(addr, code)?;
        self.rip = addr;
        Ok(())
    }

    /// Reads a GPR.
    pub fn gpr(&self, r: Gpr) -> u64 {
        self.gpr[r.index()]
    }

    /// Reads a vector register.
    pub fn xmm(&self, x: Xmm) -> u128 {
        self.xmm[x.index()]
    }

    /// The instruction pointer.
    pub fn rip(&self) -> u64 {
        self.rip
    }

    /// Instructions retired so far.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// The pending syscall as `(number, args)` — valid once
    /// [`Machine::run_fuel`] stopped at a `SYSCALL`.
    pub fn syscall_args(&self) -> (u64, [u64; 6]) {
        let g = &self.gpr;
        (g[0], [g[1], g[2], g[3], g[4], g[5], g[6]])
    }

    /// Delivers a syscall return value (into `r0`).
    pub fn set_syscall_ret(&mut self, v: u64) {
        self.gpr[0] = v;
    }

    /// Executes one instruction; `true` if it was a `SYSCALL` (then
    /// `rip` points after it and the kernel should service
    /// [`Machine::syscall_args`]).
    ///
    /// # Errors
    ///
    /// Returns a [`Fault`] on decode or memory errors; the machine
    /// state is left at the faulting instruction.
    pub fn step(&mut self) -> Result<bool, Fault> {
        // Fetch up to the longest encoding, tolerating shorter reads at
        // the end of the mapped range.
        let mut buf = [0u8; 10];
        let mut have = 0;
        for (i, b) in buf.iter_mut().enumerate() {
            match self.mem.read(self.rip + i as u64, std::slice::from_mut(b)) {
                Ok(()) => have += 1,
                Err(e) if i == 0 => return Err(e.into()),
                Err(_) => break,
            }
        }
        let insn = decode(&buf[..have]).map_err(|err| Fault::Decode {
            addr: self.rip,
            err,
        })?;

        if let Some(hook) = self.hook.as_mut() {
            hook(&TraceRecord {
                rip: self.rip,
                op: insn.op,
                reads: insn.op.reads(),
                writes: insn.op.writes(),
            });
        }

        self.retired += 1;
        let next = self.rip + insn.len;
        let mut target = next;
        match insn.op {
            Op::Syscall => {}
            Op::MovRI(r, imm) => self.gpr[r.index()] = imm,
            Op::MovRR(d, s) => self.gpr[d.index()] = self.gpr[s.index()],
            Op::CmpRI(r, imm) => self.zf = self.gpr[r.index()] as i64 == imm as i64,
            Op::Jmp(rel) => target = next.wrapping_add_signed(rel as i64),
            Op::Jz(rel) if self.zf => target = next.wrapping_add_signed(rel as i64),
            Op::Jz(_) => {}
            Op::MovXR(x, r) => self.xmm[x.index()] = self.gpr[r.index()] as u128,
            Op::MovXI(x, imm) => self.xmm[x.index()] = imm as u128,
            Op::StoreX(base, x, disp) => {
                let addr = self.gpr[base.index()].wrapping_add_signed(disp as i64);
                self.mem.write(addr, &self.xmm[x.index()].to_le_bytes())?;
            }
        }
        self.rip = target;
        Ok(insn.op == Op::Syscall)
    }

    /// Runs until the next `SYSCALL` or until `fuel` instructions have
    /// retired (then [`Fault::FuelExhausted`] — the guard against
    /// runaway guest loops).
    ///
    /// # Errors
    ///
    /// Propagates faults; returns `FuelExhausted` at the limit.
    pub fn run_fuel(&mut self, fuel: u64) -> Result<(), Fault> {
        for _ in 0..fuel {
            if self.step()? {
                return Ok(());
            }
        }
        Err(Fault::FuelExhausted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;

    #[test]
    fn syscall_event_exposes_args() {
        let code = Asm::new()
            .mov_ri(Gpr::R0, 1)
            .mov_ri(Gpr::R1, 2)
            .mov_ri(Gpr::R2, 3)
            .syscall()
            .mov_rr(Gpr::R9, Gpr::R0)
            .syscall()
            .assemble()
            .unwrap();
        let mut m = Machine::new();
        m.load_code(0x1000, &code).unwrap();
        m.run_fuel(100).unwrap();
        let (nr, args) = m.syscall_args();
        assert_eq!(nr, 1);
        assert_eq!(args[0], 2);
        assert_eq!(args[1], 3);
        // rip points after the syscall insn.
        assert_eq!(m.rip(), 0x1000 + 30 + 2);
        m.set_syscall_ret(42);
        m.run_fuel(100).unwrap();
        assert_eq!(m.gpr(Gpr::R9), 42);
    }

    #[test]
    fn faults_surface() {
        let mut m = Machine::new();
        // Unmapped rip.
        assert!(matches!(m.step(), Err(Fault::Mem(_))));
        // Invalid opcode.
        let mut m = Machine::new();
        m.load_code(0x1000, &[0x42]).unwrap();
        assert!(matches!(m.step(), Err(Fault::Decode { addr: 0x1000, .. })));
        // A store to an unmapped address leaves rip at the store.
        let mut m = Machine::new();
        let code = Asm::new()
            .mov_ri(Gpr::R1, 0x9000)
            .store_x(Gpr::R1, Xmm(0), 0)
            .assemble()
            .unwrap();
        m.load_code(0x1000, &code).unwrap();
        assert_eq!(m.run_fuel(10), Err(Fault::Mem(MemFault { addr: 0x9000 })));
        assert_eq!(m.rip(), 0x1000 + 10);
        // Fuel.
        let mut m = Machine::new();
        m.load_code(0x1000, &Asm::new().label("x").jmp("x").assemble().unwrap())
            .unwrap();
        assert_eq!(m.run_fuel(10), Err(Fault::FuelExhausted));
    }

    #[test]
    fn cycles_accumulate_deterministically() {
        let run = || {
            let code = Asm::new()
                .mov_ri(Gpr::R1, 5)
                .cmp_ri(Gpr::R1, 5)
                .jz("equal")
                .mov_ri(Gpr::R1, 0)
                .label("equal")
                .mov_xr(Xmm(2), Gpr::R1)
                .mov_rr(Gpr::R2, Gpr::R1)
                .syscall()
                .assemble()
                .unwrap();
            let mut m = Machine::new();
            m.load_code(0x1000, &code).unwrap();
            m.run_fuel(100).unwrap();
            m
        };
        let (a, b) = (run(), run());
        // Six instructions (the skipped `mov` is not one), the
        // `syscall` included, and the same result.
        assert_eq!(a.retired(), 6);
        assert_eq!(b.retired(), a.retired());
        assert_eq!((a.gpr(Gpr::R2), b.gpr(Gpr::R2)), (5, 5));
        assert_eq!(a.xmm(Xmm(2)), 5);
    }

    #[test]
    fn trace_hook_sees_reads_writes() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let log: Rc<RefCell<Vec<(u64, RegSet, RegSet)>>> = Rc::default();
        let log2 = Rc::clone(&log);
        let code = Asm::new()
            .mov_ri(Gpr::R1, 7)
            .mov_rr(Gpr::R2, Gpr::R1)
            .syscall()
            .assemble()
            .unwrap();
        let mut m = Machine::new();
        m.load_code(0x1000, &code).unwrap();
        m.set_trace_hook(Box::new(move |t| {
            log2.borrow_mut().push((t.rip, t.reads, t.writes));
        }));
        m.run_fuel(100).unwrap();
        let log = log.borrow();
        assert_eq!(log.len(), 3);
        assert!(log[0].2.has_gpr(Gpr::R1)); // mov_ri writes r1
        assert!(log[1].1.has_gpr(Gpr::R1)); // mov_rr reads r1
        assert!(log[1].2.has_gpr(Gpr::R2));
        assert_eq!(log[2].0, 0x1000 + 13);
    }
}
