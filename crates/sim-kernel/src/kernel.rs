//! The kernel proper: entry path and syscall table.

use sim_cpu::machine::{Event, Fault, Machine};
use sim_cpu::mem::Perms;

use crate::fs::Fs;
use crate::sysno::{self, errno};

/// Kernel event counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Syscall instructions that entered the kernel.
    pub syscalls: u64,
}

/// Terminal simulation errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// CPU fault (decode/memory/fuel).
    Fault(Fault),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Fault(x) => write!(f, "cpu fault: {x}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<Fault> for SimError {
    fn from(f: Fault) -> SimError {
        SimError::Fault(f)
    }
}

/// The simulated kernel state.
#[derive(Debug)]
pub struct Kernel {
    /// The filesystem (public: tests pre-populate and inspect it).
    pub fs: Fs,
    exit: Option<i64>,
    rng: u64,
    mmap_cursor: u64,
    stats: KernelStats,
}

impl Default for Kernel {
    fn default() -> Kernel {
        Kernel::new()
    }
}

impl Kernel {
    /// A fresh kernel with an empty filesystem.
    pub fn new() -> Kernel {
        Kernel {
            fs: Fs::new(),
            exit: None,
            rng: 0x243f_6a88_85a3_08d3,
            mmap_cursor: 0x7000_0000,
            stats: KernelStats::default(),
        }
    }

    /// Event counters.
    pub fn stats(&self) -> KernelStats {
        self.stats
    }

    /// The exit code once the guest called `exit`/`exit_group`.
    pub fn exit_code(&self) -> Option<i64> {
        self.exit
    }

    /// Handles one `SYSCALL` event.
    ///
    /// # Errors
    ///
    /// Terminal conditions only ([`SimError`]); ordinary syscall
    /// failures are delivered to the guest as `-errno`.
    pub fn on_syscall(&mut self, m: &mut Machine) -> Result<(), SimError> {
        self.stats.syscalls += 1;
        let (nr, args) = m.syscall_args();
        let ret = self.dispatch(m, nr, args)?;
        m.set_syscall_ret(ret);
        Ok(())
    }

    fn read_path(&self, m: &Machine, ptr: u64, len: u64) -> Result<Option<String>, SimError> {
        if len > 4096 {
            return Ok(None);
        }
        let mut buf = vec![0u8; len as usize];
        if m.mem.read(ptr, &mut buf).is_err() {
            return Ok(None);
        }
        Ok(String::from_utf8(buf).ok())
    }

    fn dispatch(&mut self, m: &mut Machine, nr: u64, args: [u64; 6]) -> Result<u64, SimError> {
        let ret = match nr {
            sysno::READ => {
                let (fd, buf, len) = (args[0], args[1], args[2]);
                let mut tmp = vec![0u8; (len as usize).min(1 << 20)];
                match self.fs.read(fd, &mut tmp) {
                    Some(n) => {
                        if m.mem.write(buf, &tmp[..n]).is_err() {
                            errno::ret(errno::EFAULT)
                        } else {
                            n as u64
                        }
                    }
                    None => errno::ret(errno::EBADF),
                }
            }
            sysno::WRITE => {
                let (fd, buf, len) = (args[0], args[1], args[2]);
                let mut tmp = vec![0u8; (len as usize).min(1 << 20)];
                if m.mem.read(buf, &mut tmp).is_err() {
                    errno::ret(errno::EFAULT)
                } else {
                    match self.fs.write(fd, &tmp) {
                        Some(n) => n as u64,
                        None => errno::ret(errno::EBADF),
                    }
                }
            }
            sysno::OPEN => match self.read_path(m, args[0], args[1])? {
                Some(path) => match self.fs.open(&path, args[2] & 1 != 0) {
                    Some(fd) => fd,
                    None => errno::ret(errno::ENOENT),
                },
                None => errno::ret(errno::EFAULT),
            },
            sysno::CLOSE => {
                if self.fs.close(args[0]) {
                    0
                } else {
                    errno::ret(errno::EBADF)
                }
            }
            sysno::STAT => match self.read_path(m, args[0], args[1])? {
                Some(path) => match self.fs.size(&path) {
                    Some(size) => {
                        if m.mem.write_u64(args[2], size).is_err() {
                            errno::ret(errno::EFAULT)
                        } else {
                            0
                        }
                    }
                    None => errno::ret(errno::ENOENT),
                },
                None => errno::ret(errno::EFAULT),
            },
            sysno::GETDENTS => {
                let mut tmp = vec![0u8; (args[2] as usize).min(4096)];
                match self.fs.getdents(args[0], &mut tmp) {
                    Some(n) => {
                        if m.mem.write(args[1], &tmp).is_err() {
                            errno::ret(errno::EFAULT)
                        } else {
                            n as u64
                        }
                    }
                    None => errno::ret(errno::EBADF),
                }
            }
            sysno::UNLINK => match self.read_path(m, args[0], args[1])? {
                Some(p) if self.fs.unlink(&p) => 0,
                Some(_) => errno::ret(errno::ENOENT),
                None => errno::ret(errno::EFAULT),
            },
            sysno::RENAME => {
                let old = self.read_path(m, args[0], args[1])?;
                let new = self.read_path(m, args[2], args[3])?;
                match (old, new) {
                    (Some(o), Some(n)) if self.fs.rename(&o, &n) => 0,
                    (Some(_), Some(_)) => errno::ret(errno::ENOENT),
                    _ => errno::ret(errno::EFAULT),
                }
            }
            sysno::CHMOD => match self.read_path(m, args[0], args[1])? {
                Some(p) if self.fs.chmod(&p, args[2]) => 0,
                Some(_) => errno::ret(errno::ENOENT),
                None => errno::ret(errno::EFAULT),
            },
            sysno::MKDIR => 0,
            sysno::MMAP => {
                let (addr, len, prot, flags) = (args[0], args[1], args[2], args[3]);
                if len == 0 {
                    errno::ret(errno::EINVAL)
                } else {
                    let perms = Perms {
                        r: prot & 1 != 0,
                        w: prot & 2 != 0,
                        x: prot & 4 != 0,
                    };
                    let base = if flags & 0x10 != 0 {
                        addr & !(sim_cpu::mem::PAGE_SIZE - 1)
                    } else {
                        let b = self.mmap_cursor;
                        self.mmap_cursor += len.div_ceil(sim_cpu::mem::PAGE_SIZE)
                            * sim_cpu::mem::PAGE_SIZE
                            + sim_cpu::mem::PAGE_SIZE;
                        b
                    };
                    m.mem.map(base, len, perms);
                    base
                }
            }
            sysno::MPROTECT => {
                let perms = Perms {
                    r: args[2] & 1 != 0,
                    w: args[2] & 2 != 0,
                    x: args[2] & 4 != 0,
                };
                match m.mem.protect(args[0], args[1], perms) {
                    Ok(()) => 0,
                    Err(_) => errno::ret(errno::EINVAL),
                }
            }
            sysno::MUNMAP => {
                m.mem.unmap(args[0], args[1]);
                0
            }
            sysno::GETPID | sysno::GETTID | sysno::SET_TID_ADDRESS => 1000,
            sysno::GETUID => 0,
            sysno::SET_ROBUST_LIST => 0,
            sysno::GETRANDOM => {
                let (buf, len) = (args[0], args[1].min(4096));
                let mut bytes = Vec::with_capacity(len as usize);
                for _ in 0..len {
                    // xorshift64*
                    self.rng ^= self.rng >> 12;
                    self.rng ^= self.rng << 25;
                    self.rng ^= self.rng >> 27;
                    bytes.push((self.rng.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 56) as u8);
                }
                if m.mem.write(buf, &bytes).is_err() {
                    errno::ret(errno::EFAULT)
                } else {
                    len
                }
            }
            sysno::CLOCK_GETTIME => {
                if m.mem.write_u64(args[1], m.retired()).is_err() {
                    errno::ret(errno::EFAULT)
                } else {
                    0
                }
            }
            sysno::TIME => m.retired() >> 10,
            sysno::EXIT | sysno::EXIT_GROUP => {
                self.exit = Some(args[0] as i64);
                0
            }
            _ => errno::ret(errno::ENOSYS),
        };
        Ok(ret)
    }
}

/// A machine plus kernel: one runnable guest.
#[derive(Debug)]
pub struct System {
    /// The CPU.
    pub machine: Machine,
    /// The kernel.
    pub kernel: Kernel,
    fuel: u64,
}

impl Default for System {
    fn default() -> System {
        System::new()
    }
}

/// Default load address for guest programs.
pub const LOAD_ADDR: u64 = 0x10000;
/// Default stack top.
pub const STACK_TOP: u64 = 0x7fff_0000;
/// Default stack size.
pub const STACK_SIZE: u64 = 0x10_0000;

impl System {
    /// A fresh system with a 50M-instruction fuel budget.
    pub fn new() -> System {
        System {
            machine: Machine::new(),
            kernel: Kernel::new(),
            fuel: 50_000_000,
        }
    }

    /// Adjusts the runaway-guard fuel budget.
    pub fn set_fuel(&mut self, fuel: u64) {
        self.fuel = fuel;
    }

    /// Loads `code` at [`LOAD_ADDR`] with a standard stack.
    ///
    /// # Errors
    ///
    /// Propagates mapping faults.
    pub fn load_program(&mut self, code: &[u8]) -> Result<(), SimError> {
        self.machine.load_code(LOAD_ADDR, code)?;
        self.machine.setup_stack(STACK_TOP, STACK_SIZE);
        Ok(())
    }

    /// Runs until the guest exits (or halts), returning the exit code.
    ///
    /// # Errors
    ///
    /// See [`SimError`].
    pub fn run(&mut self) -> Result<i64, SimError> {
        loop {
            let remaining = self.fuel.saturating_sub(self.machine.retired());
            if remaining == 0 {
                return Err(Fault::FuelExhausted.into());
            }
            match self.machine.run_fuel(remaining) {
                Ok(Event::Halt) => return Ok(0),
                Ok(Event::Syscall) => {
                    self.kernel.on_syscall(&mut self.machine)?;
                    if let Some(code) = self.kernel.exit_code() {
                        return Ok(code);
                    }
                }
                Err(f) => return Err(f.into()),
            }
        }
    }

    /// Captured stdout as UTF-8 (lossy).
    pub fn stdout(&self) -> String {
        String::from_utf8_lossy(&self.kernel.fs.stdout).into_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_cpu::asm::Asm;
    use sim_cpu::reg::Gpr;

    fn exit_group(asm: Asm, code: u64) -> Asm {
        asm.mov_ri(Gpr::R0, sysno::EXIT_GROUP)
            .mov_ri(Gpr::R1, code)
            .syscall()
    }

    #[test]
    fn hello_world() {
        // write(1, msg, len); exit_group(0)
        let asm = Asm::new()
            .jmp("start")
            .label("msg")
            .raw(b"hello sim\n")
            .label("start")
            .mov_ri(Gpr::R0, sysno::WRITE)
            .mov_ri(Gpr::R1, 1)
            .mov_ri_label(Gpr::R2, "msg")
            .mov_ri(Gpr::R3, 10)
            .syscall();
        let code = exit_group(asm, 0).assemble_at(LOAD_ADDR).unwrap();
        let mut sys = System::new();
        sys.load_program(&code).unwrap();
        assert_eq!(sys.run().unwrap(), 0);
        assert_eq!(sys.stdout(), "hello sim\n");
        assert_eq!(sys.kernel.stats().syscalls, 2);
    }

    #[test]
    fn file_roundtrip_via_syscalls() {
        // open("f",w); write(fd,"abc"); close; open read; read; compare
        let asm = Asm::new()
            .jmp("start")
            .label("fname")
            .raw(b"f")
            .label("data")
            .raw(b"abc")
            .label("start")
            // fd = open("f", 1)
            .mov_ri(Gpr::R0, sysno::OPEN)
            .mov_ri_label(Gpr::R1, "fname")
            .mov_ri(Gpr::R2, 1)
            .mov_ri(Gpr::R3, 1)
            .syscall()
            .mov_rr(Gpr::R10, Gpr::R0) // save fd
            // write(fd, data, 3)
            .mov_ri(Gpr::R0, sysno::WRITE)
            .mov_rr(Gpr::R1, Gpr::R10)
            .mov_ri_label(Gpr::R2, "data")
            .mov_ri(Gpr::R3, 3)
            .syscall()
            // close(fd)
            .mov_ri(Gpr::R0, sysno::CLOSE)
            .mov_rr(Gpr::R1, Gpr::R10)
            .syscall();
        let code = exit_group(asm, 0).assemble_at(LOAD_ADDR).unwrap();
        let mut sys = System::new();
        sys.load_program(&code).unwrap();
        assert_eq!(sys.run().unwrap(), 0);
        assert_eq!(sys.kernel.fs.file("f").unwrap(), b"abc");
    }

    #[test]
    fn nonexistent_syscall_is_enosys() {
        let asm = Asm::new()
            .mov_ri(Gpr::R0, sysno::NONEXISTENT)
            .syscall()
            .mov_rr(Gpr::R10, Gpr::R0);
        let code = exit_group(asm, 0).assemble_at(LOAD_ADDR).unwrap();
        let mut sys = System::new();
        sys.load_program(&code).unwrap();
        sys.run().unwrap();
        assert_eq!(
            errno::from_ret(sys.machine.gpr(Gpr::R10)),
            Some(errno::ENOSYS)
        );
    }

    #[test]
    fn getrandom_is_deterministic() {
        let run = || {
            let asm = Asm::new()
                .mov_ri(Gpr::R0, sysno::GETRANDOM)
                .mov_ri(Gpr::R1, 0x9000)
                .mov_ri(Gpr::R2, 8)
                .syscall();
            let code = exit_group(asm, 0).assemble_at(LOAD_ADDR).unwrap();
            let mut sys = System::new();
            sys.load_program(&code).unwrap();
            sys.machine.mem.map(0x9000, 4096, Perms::RW);
            sys.run().unwrap();
            sys.machine.mem.read_u64(0x9000).unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert_ne!(a, 0);
    }

    #[test]
    fn fuel_guard_stops_runaway_guests() {
        let code = Asm::new().label("x").jmp("x").assemble().unwrap();
        let mut sys = System::new();
        sys.set_fuel(1000);
        sys.load_program(&code).unwrap();
        assert_eq!(sys.run(), Err(SimError::Fault(Fault::FuelExhausted)));
    }
}
