//! The execution engine.

use crate::insn::{decode, DecodeError, Op};
use crate::mem::{MemFault, Memory, Perms};
use crate::reg::{Gpr, RegSet, Xmm};

/// Why execution paused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    /// A `SYSCALL` instruction executed; `rip` points *after* it and
    /// the kernel should service [`Machine::syscall_args`].
    Syscall,
    /// A `HLT` instruction executed.
    Halt,
}

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
    lf: bool,
    /// The machine's memory (public: the kernel manipulates it
    /// directly, e.g. to build signal frames).
    pub mem: Memory,
    retired: u64,
    hook: Option<TraceHook>,
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Machine(rip={:#x}, retired={})",
            self.rip, self.retired
        )
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
            lf: false,
            mem: Memory::new(),
            retired: 0,
            hook: None,
        }
    }

    /// Attaches a per-instruction trace hook (replacing any previous).
    pub fn set_trace_hook(&mut self, hook: TraceHook) {
        self.hook = Some(hook);
    }

    /// Removes the trace hook.
    pub fn clear_trace_hook(&mut self) {
        self.hook = None;
    }

    /// Maps a code page at `addr` (page-aligned region sized for
    /// `code`), copies the program, marks it `r-x`, and points `rip`
    /// at it.
    ///
    /// # Errors
    ///
    /// Propagates mapping faults.
    pub fn load_code(&mut self, addr: u64, code: &[u8]) -> Result<(), Fault> {
        self.mem.map(addr, code.len().max(1) as u64, Perms::RW);
        self.mem.write(addr, code)?;
        self.mem
            .protect(addr, code.len().max(1) as u64, Perms::RX)?;
        self.rip = addr;
        Ok(())
    }

    /// Maps a stack of `len` bytes ending at `top` (exclusive) and
    /// points the stack pointer at `top`.
    pub fn setup_stack(&mut self, top: u64, len: u64) {
        self.mem.map(top - len, len, Perms::RW);
        self.gpr[Gpr::SP.index()] = top;
    }

    /// Reads a GPR.
    pub fn gpr(&self, r: Gpr) -> u64 {
        self.gpr[r.index()]
    }

    /// Writes a GPR.
    pub fn set_gpr(&mut self, r: Gpr, v: u64) {
        self.gpr[r.index()] = v;
    }

    /// Reads a vector register.
    pub fn xmm(&self, x: Xmm) -> u128 {
        self.xmm[x.index()]
    }

    /// Writes a vector register.
    pub fn set_xmm(&mut self, x: Xmm, v: u128) {
        self.xmm[x.index()] = v;
    }

    /// The instruction pointer.
    pub fn rip(&self) -> u64 {
        self.rip
    }

    /// Redirects execution (the kernel uses this to deliver signals
    /// and the SUD slow path uses it to re-execute rewritten sites).
    pub fn set_rip(&mut self, rip: u64) {
        self.rip = rip;
    }

    /// Instructions retired so far.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// The condition flags `(zero, less-than)` — saved/restored by the
    /// simulated kernel across signal delivery.
    pub fn flags(&self) -> (bool, bool) {
        (self.zf, self.lf)
    }

    /// Restores the condition flags.
    pub fn set_flags(&mut self, zf: bool, lf: bool) {
        self.zf = zf;
        self.lf = lf;
    }

    /// The pending syscall as `(number, args)` — valid when the last
    /// event was [`Event::Syscall`].
    pub fn syscall_args(&self) -> (u64, [u64; 6]) {
        (
            self.gpr[0],
            [
                self.gpr[1], self.gpr[2], self.gpr[3], self.gpr[4], self.gpr[5], self.gpr[6],
            ],
        )
    }

    /// Delivers a syscall return value (into `r0`).
    pub fn set_syscall_ret(&mut self, v: u64) {
        self.gpr[0] = v;
    }

    /// Executes one instruction.
    ///
    /// # Errors
    ///
    /// Returns a [`Fault`] on decode or memory errors; the machine
    /// state is left at the faulting instruction.
    pub fn step(&mut self) -> Result<Option<Event>, Fault> {
        // Fetch up to the longest encoding, tolerating shorter reads at
        // page boundaries.
        let mut buf = [0u8; 10];
        let mut have = 0;
        for i in 0..buf.len() as u64 {
            let mut b = [0u8; 1];
            match self.mem.fetch(self.rip + i, &mut b) {
                Ok(()) => {
                    buf[i as usize] = b[0];
                    have += 1;
                }
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

        use Op::*;
        match insn.op {
            Nop => self.rip = next,
            Hlt => {
                self.rip = next;
                return Ok(Some(Event::Halt));
            }
            Syscall => {
                self.rip = next;
                return Ok(Some(Event::Syscall));
            }
            MovRI(r, imm) => {
                self.gpr[r.index()] = imm;
                self.rip = next;
            }
            MovRR(d, s) => {
                self.gpr[d.index()] = self.gpr[s.index()];
                self.rip = next;
            }
            Load(d, base, disp) => {
                let addr = self.gpr[base.index()].wrapping_add_signed(disp as i64);
                self.gpr[d.index()] = self.mem.read_u64(addr)?;
                self.rip = next;
            }
            Store(base, s, disp) => {
                let addr = self.gpr[base.index()].wrapping_add_signed(disp as i64);
                self.mem.write_u64(addr, self.gpr[s.index()])?;
                self.rip = next;
            }
            LoadB(d, base, disp) => {
                let addr = self.gpr[base.index()].wrapping_add_signed(disp as i64);
                let mut b = [0u8; 1];
                self.mem.read(addr, &mut b)?;
                self.gpr[d.index()] = b[0] as u64;
                self.rip = next;
            }
            StoreB(base, s, disp) => {
                let addr = self.gpr[base.index()].wrapping_add_signed(disp as i64);
                self.mem.write(addr, &[self.gpr[s.index()] as u8])?;
                self.rip = next;
            }
            AddRI(r, imm) => {
                self.gpr[r.index()] = self.gpr[r.index()].wrapping_add_signed(imm as i64);
                self.rip = next;
            }
            AddRR(d, s) => {
                self.gpr[d.index()] = self.gpr[d.index()].wrapping_add(self.gpr[s.index()]);
                self.rip = next;
            }
            SubRI(r, imm) => {
                self.gpr[r.index()] = self.gpr[r.index()].wrapping_sub(imm as i64 as u64);
                self.rip = next;
            }
            SubRR(d, s) => {
                self.gpr[d.index()] = self.gpr[d.index()].wrapping_sub(self.gpr[s.index()]);
                self.rip = next;
            }
            MulRR(d, s) => {
                self.gpr[d.index()] = self.gpr[d.index()].wrapping_mul(self.gpr[s.index()]);
                self.rip = next;
            }
            AndRI(r, imm) => {
                self.gpr[r.index()] &= imm as i64 as u64;
                self.rip = next;
            }
            CmpRI(r, imm) => {
                let a = self.gpr[r.index()] as i64;
                let b = imm as i64;
                self.zf = a == b;
                self.lf = a < b;
                self.rip = next;
            }
            CmpRR(ra, rb) => {
                let a = self.gpr[ra.index()] as i64;
                let b = self.gpr[rb.index()] as i64;
                self.zf = a == b;
                self.lf = a < b;
                self.rip = next;
            }
            Jmp(rel) => self.rip = next.wrapping_add_signed(rel as i64),
            Jz(rel) => {
                self.rip = if self.zf {
                    next.wrapping_add_signed(rel as i64)
                } else {
                    next
                }
            }
            Jnz(rel) => {
                self.rip = if !self.zf {
                    next.wrapping_add_signed(rel as i64)
                } else {
                    next
                }
            }
            Jl(rel) => {
                self.rip = if self.lf {
                    next.wrapping_add_signed(rel as i64)
                } else {
                    next
                }
            }
            JmpReg(r) => self.rip = self.gpr[r.index()],
            Call(rel) => {
                self.push_u64(next)?;
                self.rip = next.wrapping_add_signed(rel as i64);
            }
            CallReg(r) => {
                self.push_u64(next)?;
                self.rip = self.gpr[r.index()];
            }
            Ret => {
                self.rip = self.pop_u64()?;
            }
            Push(r) => {
                self.push_u64(self.gpr[r.index()])?;
                self.rip = next;
            }
            Pop(r) => {
                let v = self.pop_u64()?;
                self.gpr[r.index()] = v;
                self.rip = next;
            }
            MovXR(x, r) => {
                self.xmm[x.index()] = self.gpr[r.index()] as u128;
                self.rip = next;
            }
            MovRX(r, x) => {
                self.gpr[r.index()] = self.xmm[x.index()] as u64;
                self.rip = next;
            }
            MovXI(x, imm) => {
                self.xmm[x.index()] = imm as u128;
                self.rip = next;
            }
            LoadX(x, base, disp) => {
                let addr = self.gpr[base.index()].wrapping_add_signed(disp as i64);
                let mut b = [0u8; 16];
                self.mem.read(addr, &mut b)?;
                self.xmm[x.index()] = u128::from_le_bytes(b);
                self.rip = next;
            }
            StoreX(base, x, disp) => {
                let addr = self.gpr[base.index()].wrapping_add_signed(disp as i64);
                self.mem.write(addr, &self.xmm[x.index()].to_le_bytes())?;
                self.rip = next;
            }
            Xsave(base) => {
                let addr = self.gpr[base.index()];
                for i in 0..16 {
                    self.mem
                        .write(addr + 16 * i as u64, &self.xmm[i].to_le_bytes())?;
                }
                self.rip = next;
            }
            Xrstor(base) => {
                let addr = self.gpr[base.index()];
                for i in 0..16 {
                    let mut b = [0u8; 16];
                    self.mem.read(addr + 16 * i as u64, &mut b)?;
                    self.xmm[i] = u128::from_le_bytes(b);
                }
                self.rip = next;
            }
        }
        Ok(None)
    }

    fn push_u64(&mut self, v: u64) -> Result<(), Fault> {
        let sp = self.gpr[Gpr::SP.index()] - 8;
        self.mem.write_u64(sp, v)?;
        self.gpr[Gpr::SP.index()] = sp;
        Ok(())
    }

    fn pop_u64(&mut self) -> Result<u64, Fault> {
        let sp = self.gpr[Gpr::SP.index()];
        let v = self.mem.read_u64(sp)?;
        self.gpr[Gpr::SP.index()] = sp + 8;
        Ok(v)
    }

    /// Runs until the next [`Event`].
    ///
    /// # Errors
    ///
    /// Propagates the first [`Fault`].
    pub fn run(&mut self) -> Result<Event, Fault> {
        loop {
            if let Some(ev) = self.step()? {
                return Ok(ev);
            }
        }
    }

    /// Runs until the next [`Event`] or until `fuel` instructions have
    /// retired (then [`Fault::FuelExhausted`] — the guard against
    /// runaway guest loops).
    ///
    /// # Errors
    ///
    /// Propagates faults; returns `FuelExhausted` at the limit.
    pub fn run_fuel(&mut self, mut fuel: u64) -> Result<Event, Fault> {
        while fuel > 0 {
            if let Some(ev) = self.step()? {
                return Ok(ev);
            }
            fuel -= 1;
        }
        Err(Fault::FuelExhausted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;

    fn run_prog(asm: Asm) -> Machine {
        let code = asm.assemble().unwrap();
        let mut m = Machine::new();
        m.load_code(0x1000, &code).unwrap();
        m.setup_stack(0x20000, 0x4000);
        assert_eq!(m.run_fuel(100_000).unwrap(), Event::Halt);
        m
    }

    #[test]
    fn arithmetic_and_moves() {
        let m = run_prog(
            Asm::new()
                .mov_ri(Gpr::R1, 10)
                .mov_ri(Gpr::R2, 4)
                .mov_rr(Gpr::R3, Gpr::R1)
                .add_rr(Gpr::R3, Gpr::R2) // 14
                .sub_ri(Gpr::R3, 3) // 11
                .mul_rr(Gpr::R3, Gpr::R2) // 44
                .and_ri(Gpr::R3, 0x3c) // 44 & 0x3c = 44
                .hlt(),
        );
        assert_eq!(m.gpr(Gpr::R3), 44);
    }

    #[test]
    fn loop_with_counter() {
        // r1 = sum(1..=5)
        let m = run_prog(
            Asm::new()
                .mov_ri(Gpr::R1, 0)
                .mov_ri(Gpr::R2, 5)
                .label("loop")
                .add_rr(Gpr::R1, Gpr::R2)
                .sub_ri(Gpr::R2, 1)
                .cmp_ri(Gpr::R2, 0)
                .jnz("loop")
                .hlt(),
        );
        assert_eq!(m.gpr(Gpr::R1), 15);
    }

    #[test]
    fn memory_and_stack() {
        let m = run_prog(
            Asm::new()
                .mov_ri(Gpr::R1, 0xabcd)
                .push(Gpr::R1)
                .pop(Gpr::R2)
                .store(Gpr::R15, Gpr::R2, -64)
                .load(Gpr::R3, Gpr::R15, -64)
                .mov_ri(Gpr::R4, 0x7f)
                .store_b(Gpr::R15, Gpr::R4, -100)
                .load_b(Gpr::R5, Gpr::R15, -100)
                .hlt(),
        );
        assert_eq!(m.gpr(Gpr::R2), 0xabcd);
        assert_eq!(m.gpr(Gpr::R3), 0xabcd);
        assert_eq!(m.gpr(Gpr::R5), 0x7f);
    }

    #[test]
    fn call_and_ret() {
        let m = run_prog(
            Asm::new()
                .call("fn")
                .hlt()
                .label("fn")
                .mov_ri(Gpr::R9, 99)
                .ret(),
        );
        assert_eq!(m.gpr(Gpr::R9), 99);
    }

    #[test]
    fn call_reg_like_zpoline() {
        // call r0 with r0 pointing into a nop sled at 0 that slides
        // into code setting a marker and returning — the trampoline
        // shape.
        let sled = Asm::new()
            .nop()
            .nop()
            .nop()
            .nop()
            .mov_ri(Gpr::R9, 7)
            .ret()
            .assemble()
            .unwrap();
        let main = Asm::new()
            .mov_ri(Gpr::R0, 2) // land mid-sled
            .call_reg(Gpr::R0)
            .hlt()
            .assemble()
            .unwrap();
        let mut m = Machine::new();
        m.mem.map(0, 4096, Perms::RW);
        m.mem.write(0, &sled).unwrap();
        m.mem.protect(0, 4096, Perms::RX).unwrap();
        m.load_code(0x1000, &main).unwrap();
        m.setup_stack(0x20000, 0x4000);
        assert_eq!(m.run_fuel(1000).unwrap(), Event::Halt);
        assert_eq!(m.gpr(Gpr::R9), 7);
    }

    #[test]
    fn syscall_event_exposes_args() {
        let code = Asm::new()
            .mov_ri(Gpr::R0, 1)
            .mov_ri(Gpr::R1, 2)
            .mov_ri(Gpr::R2, 3)
            .syscall()
            .hlt()
            .assemble()
            .unwrap();
        let mut m = Machine::new();
        m.load_code(0x1000, &code).unwrap();
        assert_eq!(m.run().unwrap(), Event::Syscall);
        let (nr, args) = m.syscall_args();
        assert_eq!(nr, 1);
        assert_eq!(args[0], 2);
        assert_eq!(args[1], 3);
        // rip points after the syscall insn.
        assert_eq!(m.rip(), 0x1000 + 30 + 2);
        m.set_syscall_ret(42);
        assert_eq!(m.run().unwrap(), Event::Halt);
        assert_eq!(m.gpr(Gpr::R0), 42);
    }

    #[test]
    fn vector_registers_and_xsave() {
        let m = run_prog(
            Asm::new()
                .mov_ri(Gpr::R1, 0x1111)
                .mov_xr(Xmm(3), Gpr::R1)
                .mov_xi(Xmm(4), 0x2222)
                // Save all, clobber, restore.
                .mov_rr(Gpr::R14, Gpr::R15)
                .sub_ri(Gpr::R14, 1024)
                .xsave(Gpr::R14)
                .mov_xi(Xmm(3), 0)
                .mov_xi(Xmm(4), 0)
                .xrstor(Gpr::R14)
                .mov_rx(Gpr::R2, Xmm(3))
                .mov_rx(Gpr::R3, Xmm(4))
                .hlt(),
        );
        assert_eq!(m.gpr(Gpr::R2), 0x1111);
        assert_eq!(m.gpr(Gpr::R3), 0x2222);
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
        // Fuel.
        let mut m = Machine::new();
        m.load_code(0x1000, &Asm::new().label("x").jmp("x").assemble().unwrap())
            .unwrap();
        assert_eq!(m.run_fuel(10), Err(Fault::FuelExhausted));
    }

    #[test]
    fn writes_to_code_pages_fault() {
        let mut m = Machine::new();
        m.load_code(0x1000, &Asm::new().hlt().assemble().unwrap())
            .unwrap();
        assert!(m.mem.write(0x1000, &[0x90]).is_err());
    }

    #[test]
    fn cycles_accumulate_deterministically() {
        let prog = || {
            Asm::new()
                .mov_ri(Gpr::R1, 5)
                .add_ri(Gpr::R1, 1)
                .push(Gpr::R1)
                .pop(Gpr::R2)
                .hlt()
        };
        let a = run_prog(prog());
        let b = run_prog(prog());
        // Five instructions, `hlt` included, and the same result.
        assert_eq!(a.retired(), 5);
        assert_eq!(b.retired(), a.retired());
        assert_eq!((a.gpr(Gpr::R2), b.gpr(Gpr::R2)), (6, 6));
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
            .hlt()
            .assemble()
            .unwrap();
        let mut m = Machine::new();
        m.load_code(0x1000, &code).unwrap();
        m.set_trace_hook(Box::new(move |t| {
            log2.borrow_mut().push((t.rip, t.reads, t.writes));
        }));
        m.run().unwrap();
        let log = log.borrow();
        assert_eq!(log.len(), 3);
        assert!(log[0].2.has_gpr(Gpr::R1)); // mov_ri writes r1
        assert!(log[1].1.has_gpr(Gpr::R1)); // mov_rr reads r1
        assert!(log[1].2.has_gpr(Gpr::R2));
    }
}
