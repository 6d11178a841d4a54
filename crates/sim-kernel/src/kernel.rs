//! The kernel proper: entry path, syscall table, SUD, signals.

use sim_cpu::machine::{Event, Fault, Machine};
use sim_cpu::mem::Perms;
use sim_cpu::reg::{Gpr, Xmm};

use crate::fs::Fs;
use crate::seccomp::{BpfAction, BpfProgram, SeccompData};
use crate::sysno::{self, errno};

/// Guest-visible signal-frame layout (offsets in bytes from the frame
/// base). Interposer stubs read and *modify* these fields — e.g. the
/// lazypoline slow path rewrites `RIP` to re-execute a patched site
/// and `GPRS` (`r0`) to emulate a syscall result — so the layout is a
/// public contract.
pub mod frame {
    /// Saved instruction pointer (u64).
    pub const RIP: u64 = 0;
    /// Saved general-purpose registers (16 × u64).
    pub const GPRS: u64 = 8;
    /// Saved vector registers (16 × u128).
    pub const XMMS: u64 = 136;
    /// Saved condition flags (u64: bit0 = zf, bit1 = lf).
    pub const FLAGS: u64 = 392;
    /// Signal number (u64).
    pub const SIG: u64 = 400;
    /// For SIGSYS: the intercepted syscall number.
    pub const SYS_NR: u64 = 408;
    /// For SIGSYS: the address *after* the `SYSCALL` instruction
    /// (mirrors `si_call_addr`).
    pub const CALL_ADDR: u64 = 416;
    /// Total frame size (16-aligned).
    pub const SIZE: u64 = 432;
}

/// Per-task Syscall User Dispatch state (mirrors the real prctl).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SudConfig {
    /// Whether dispatch is enabled.
    pub enabled: bool,
    /// Guest address of the selector byte (read on every syscall).
    pub selector_addr: u64,
    /// Allowlisted code range start (syscalls from here never
    /// dispatch).
    pub allow_start: u64,
    /// Allowlisted code range length.
    pub allow_len: u64,
}

/// Kernel event counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Syscall instructions that entered the kernel.
    pub syscalls: u64,
    /// Syscalls actually dispatched to the syscall table.
    pub dispatched: u64,
    /// SIGSYS deliveries caused by SUD.
    pub sud_dispatches: u64,
    /// SIGSYS deliveries caused by seccomp TRAP.
    pub seccomp_traps: u64,
    /// Total signal frames built.
    pub signals_delivered: u64,
    /// rt_sigreturns processed.
    pub sigreturns: u64,
}

/// Terminal simulation errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// CPU fault (decode/memory/fuel).
    Fault(Fault),
    /// A signal had no handler (default action: kill).
    UnhandledSignal {
        /// The fatal signal number.
        sig: u64,
    },
    /// The SUD selector byte held an illegal value (the real kernel
    /// kills the task in this case too).
    BadSelector {
        /// The illegal byte.
        value: u8,
    },
    /// A seccomp filter returned KILL.
    SeccompKill,
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Fault(x) => write!(f, "cpu fault: {x}"),
            SimError::UnhandledSignal { sig } => write!(f, "unhandled signal {sig}"),
            SimError::BadSelector { value } => write!(f, "illegal SUD selector {value}"),
            SimError::SeccompKill => write!(f, "killed by seccomp filter"),
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
    sig_handlers: [u64; 65],
    sud: SudConfig,
    seccomp: Option<BpfProgram>,
    ptrace: bool,
    /// Syscalls observed by the attached ptrace tracer (number only —
    /// the tracer sees everything, which is what makes ptrace
    /// exhaustive in Table I).
    pub ptrace_log: Vec<u64>,
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
            sig_handlers: [0; 65],
            sud: SudConfig::default(),
            seccomp: None,
            ptrace: false,
            ptrace_log: Vec::new(),
            exit: None,
            rng: 0x243f_6a88_85a3_08d3,
            mmap_cursor: 0x7000_0000,
            stats: KernelStats::default(),
        }
    }

    /// Attaches a ptrace tracer in syscall-tracing mode: from now on
    /// the tracer logs every tracee syscall ([`Kernel::ptrace_log`]).
    pub fn set_ptrace(&mut self, enabled: bool) {
        self.ptrace = enabled;
    }

    /// Installs a filter before the guest starts, as a launcher process
    /// would (the guest has no `seccomp` call).
    pub fn install_seccomp(&mut self, prog: BpfProgram) {
        self.seccomp = Some(prog);
    }

    /// Current SUD configuration (tests/benches).
    pub fn sud(&self) -> SudConfig {
        self.sud
    }

    /// Host-side SUD configuration (equivalent to the guest calling
    /// `prctl` during init, as the paper's deployments do).
    pub fn set_sud(&mut self, sud: SudConfig) {
        self.sud = sud;
    }

    /// Host-side signal-handler registration (equivalent to a guest
    /// `rt_sigaction` during init).
    pub fn set_signal_handler(&mut self, sig: u64, handler: u64) {
        self.sig_handlers[sig as usize] = handler;
    }

    /// Event counters.
    pub fn stats(&self) -> KernelStats {
        self.stats
    }

    /// The exit code once the guest called `exit`/`exit_group`.
    pub fn exit_code(&self) -> Option<i64> {
        self.exit
    }

    /// Handles one `SYSCALL` event: the Figure-1 entry path.
    ///
    /// # Errors
    ///
    /// Terminal conditions only ([`SimError`]); ordinary syscall
    /// failures are delivered to the guest as `-errno`.
    pub fn on_syscall(&mut self, m: &mut Machine) -> Result<(), SimError> {
        self.stats.syscalls += 1;
        let (nr, args) = m.syscall_args();
        let insn_addr = m.rip() - 2;

        // — Syscall User Dispatch (paper Fig. 1) —
        if self.sud.enabled && nr != sysno::RT_SIGRETURN {
            let mut sel = [0u8; 1];
            m.mem
                .read_privileged(self.sud.selector_addr, &mut sel)
                .map_err(|e| SimError::Fault(Fault::Mem(e)))?;
            let in_allowlist = self.sud.allow_len > 0
                && insn_addr >= self.sud.allow_start
                && insn_addr < self.sud.allow_start + self.sud.allow_len;
            match sel[0] {
                sysno::SELECTOR_ALLOW => {}
                sysno::SELECTOR_BLOCK if in_allowlist => {}
                sysno::SELECTOR_BLOCK => {
                    self.stats.sud_dispatches += 1;
                    self.deliver_signal(m, sysno::SIGSYS, nr, m.rip())?;
                    return Ok(());
                }
                bad => return Err(SimError::BadSelector { value: bad }),
            }
        }

        // — seccomp —
        if let Some(prog) = self.seccomp.clone() {
            let data = SeccompData {
                nr,
                instruction_pointer: m.rip(),
                args,
            };
            match prog.run(&data).0 {
                BpfAction::Allow => {}
                BpfAction::Errno(e) => {
                    m.set_syscall_ret(errno::ret(e as u64));
                    return Ok(());
                }
                BpfAction::Trap => {
                    self.stats.seccomp_traps += 1;
                    self.deliver_signal(m, sysno::SIGSYS, nr, m.rip())?;
                    return Ok(());
                }
                BpfAction::Kill => return Err(SimError::SeccompKill),
            }
        }

        // — ptrace: the tracer sees the call at its entry stop —
        if self.ptrace {
            self.ptrace_log.push(nr);
        }

        // — dispatch —
        self.stats.dispatched += 1;
        if nr == sysno::RT_SIGRETURN {
            return self.do_sigreturn(m, args[0]);
        }
        let ret = self.dispatch(m, nr, args)?;
        m.set_syscall_ret(ret);
        Ok(())
    }

    /// Builds a signal frame on the guest stack and redirects execution
    /// to the registered handler.
    fn deliver_signal(
        &mut self,
        m: &mut Machine,
        sig: u64,
        sys_nr: u64,
        call_addr: u64,
    ) -> Result<(), SimError> {
        let handler = self.sig_handlers[sig as usize];
        if handler == 0 {
            return Err(SimError::UnhandledSignal { sig });
        }
        self.stats.signals_delivered += 1;

        let sp = m.gpr(Gpr::SP);
        let base = (sp - frame::SIZE - 128) & !15;

        fn write64(
            mem: &mut sim_cpu::mem::Memory,
            base: u64,
            off: u64,
            v: u64,
        ) -> Result<(), sim_cpu::mem::MemFault> {
            mem.write_privileged(base + off, &v.to_le_bytes())
        }
        let rip = m.rip();
        write64(&mut m.mem, base, frame::RIP, rip).map_err(Fault::Mem)?;
        for (i, r) in Gpr::ALL.iter().enumerate() {
            let v = m.gpr(*r);
            write64(&mut m.mem, base, frame::GPRS + 8 * i as u64, v).map_err(Fault::Mem)?;
        }
        for i in 0..16u64 {
            let v = m.xmm(Xmm(i as u8)).to_le_bytes();
            m.mem
                .write_privileged(base + frame::XMMS + 16 * i, &v)
                .map_err(Fault::Mem)?;
        }
        let (zf, lf) = m.flags();
        write64(
            &mut m.mem,
            base,
            frame::FLAGS,
            (zf as u64) | ((lf as u64) << 1),
        )
        .map_err(Fault::Mem)?;
        write64(&mut m.mem, base, frame::SIG, sig).map_err(Fault::Mem)?;
        write64(&mut m.mem, base, frame::SYS_NR, sys_nr).map_err(Fault::Mem)?;
        write64(&mut m.mem, base, frame::CALL_ADDR, call_addr).map_err(Fault::Mem)?;

        // Handler ABI: r1 = signal, r2 = frame base, sp = frame base
        // (the frame sits above the handler's stack).
        m.set_gpr(Gpr::R1, sig);
        m.set_gpr(Gpr::R2, base);
        m.set_gpr(Gpr::SP, base);
        m.set_rip(handler);
        Ok(())
    }

    /// `rt_sigreturn(frame_base)`: restores the interrupted context —
    /// *as currently stored*, honouring handler modifications.
    fn do_sigreturn(&mut self, m: &mut Machine, base: u64) -> Result<(), SimError> {
        self.stats.sigreturns += 1;
        let read64 = |mem: &sim_cpu::mem::Memory, off: u64| -> Result<u64, Fault> {
            let mut b = [0u8; 8];
            mem.read_privileged(base + off, &mut b).map_err(Fault::Mem)?;
            Ok(u64::from_le_bytes(b))
        };
        for (i, r) in Gpr::ALL.iter().enumerate() {
            let v = read64(&m.mem, frame::GPRS + 8 * i as u64)?;
            m.set_gpr(*r, v);
        }
        for i in 0..16u64 {
            let mut b = [0u8; 16];
            m.mem
                .read_privileged(base + frame::XMMS + 16 * i, &mut b)
                .map_err(Fault::Mem)?;
            m.set_xmm(Xmm(i as u8), u128::from_le_bytes(b));
        }
        let fl = read64(&m.mem, frame::FLAGS)?;
        m.set_flags(fl & 1 != 0, fl & 2 != 0);
        let rip = read64(&m.mem, frame::RIP)?;
        m.set_rip(rip);
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
            sysno::RT_SIGACTION => {
                let sig = args[0];
                if sig == 0 || sig > 64 {
                    errno::ret(errno::EINVAL)
                } else {
                    self.sig_handlers[sig as usize] = args[1];
                    0
                }
            }
            sysno::PRCTL => {
                if args[0] == sysno::PR_SET_SYSCALL_USER_DISPATCH {
                    match args[1] {
                        sysno::PR_SYS_DISPATCH_ON => {
                            self.sud = SudConfig {
                                enabled: true,
                                allow_start: args[2],
                                allow_len: args[3],
                                selector_addr: args[4],
                            };
                            0
                        }
                        sysno::PR_SYS_DISPATCH_OFF => {
                            self.sud = SudConfig::default();
                            0
                        }
                        _ => errno::ret(errno::EINVAL),
                    }
                } else {
                    errno::ret(errno::EINVAL)
                }
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
    fn sud_dispatches_blocked_syscalls_to_handler() {
        // Layout: selector byte in data page at 0x9000; handler sets
        // r0 in the frame to 0x42 and sigreturns; main enables SUD,
        // sets BLOCK, performs getpid (intercepted → 0x42), sets
        // ALLOW, getpid again (real → 1000), exits with r10 diff check.
        let handler = Asm::new()
            // r2 = frame. Emulate: frame.r0 = 0x42 (GPRS + 0*8).
            .mov_ri(Gpr::R4, 0x42)
            .store(Gpr::R2, Gpr::R4, frame::GPRS as i32)
            // selector ← ALLOW so we do not recurse (the sigreturn
            // syscall itself is exempted by nr, but post-resume code
            // must run unintercepted until it re-arms).
            .mov_ri(Gpr::R5, 0x9000)
            .mov_ri(Gpr::R6, sysno::SELECTOR_ALLOW as u64)
            .store_b(Gpr::R5, Gpr::R6, 0)
            // rt_sigreturn(frame)
            .mov_ri(Gpr::R0, sysno::RT_SIGRETURN)
            .mov_rr(Gpr::R1, Gpr::R2)
            .syscall();
        let handler_code = handler.assemble_at(0x8000).unwrap();

        let main = Asm::new()
            // rt_sigaction(SIGSYS, 0x8000)
            .mov_ri(Gpr::R0, sysno::RT_SIGACTION)
            .mov_ri(Gpr::R1, sysno::SIGSYS)
            .mov_ri(Gpr::R2, 0x8000)
            .syscall()
            // prctl(SUD_ON, selector=0x9000, no allowlist)
            .mov_ri(Gpr::R0, sysno::PRCTL)
            .mov_ri(Gpr::R1, sysno::PR_SET_SYSCALL_USER_DISPATCH)
            .mov_ri(Gpr::R2, sysno::PR_SYS_DISPATCH_ON)
            .mov_ri(Gpr::R3, 0)
            .mov_ri(Gpr::R4, 0)
            .mov_ri(Gpr::R5, 0x9000)
            .syscall()
            // selector ← BLOCK
            .mov_ri(Gpr::R8, 0x9000)
            .mov_ri(Gpr::R9, sysno::SELECTOR_BLOCK as u64)
            .store_b(Gpr::R8, Gpr::R9, 0)
            // getpid → intercepted, handler fakes 0x42
            .mov_ri(Gpr::R0, sysno::GETPID)
            .syscall()
            .mov_rr(Gpr::R10, Gpr::R0)
            // getpid again with ALLOW (handler already reset it)
            .mov_ri(Gpr::R0, sysno::GETPID)
            .syscall()
            .mov_rr(Gpr::R11, Gpr::R0);
        let main_code = exit_group(main, 0).assemble_at(LOAD_ADDR).unwrap();

        let mut sys = System::new();
        sys.load_program(&main_code).unwrap();
        sys.machine.mem.map(0x8000, 4096, Perms::RW);
        sys.machine.mem.write(0x8000, &handler_code).unwrap();
        sys.machine.mem.protect(0x8000, 4096, Perms::RX).unwrap();
        sys.machine.mem.map(0x9000, 4096, Perms::RW);

        assert_eq!(sys.run().unwrap(), 0);
        assert_eq!(sys.machine.gpr(Gpr::R10), 0x42, "intercepted result");
        assert_eq!(sys.machine.gpr(Gpr::R11), 1000, "native result");
        let st = sys.kernel.stats();
        assert_eq!(st.sud_dispatches, 1);
        assert_eq!(st.signals_delivered, 1);
        assert_eq!(st.sigreturns, 1);
    }

    #[test]
    fn sud_allowlist_exempts_range() {
        // Enable SUD with an allowlist covering the whole program:
        // BLOCK then getpid still executes natively.
        let main = Asm::new()
            .mov_ri(Gpr::R0, sysno::PRCTL)
            .mov_ri(Gpr::R1, sysno::PR_SET_SYSCALL_USER_DISPATCH)
            .mov_ri(Gpr::R2, sysno::PR_SYS_DISPATCH_ON)
            .mov_ri(Gpr::R3, LOAD_ADDR)
            .mov_ri(Gpr::R4, 0x1000)
            .mov_ri(Gpr::R5, 0x9000)
            .syscall()
            .mov_ri(Gpr::R8, 0x9000)
            .mov_ri(Gpr::R9, sysno::SELECTOR_BLOCK as u64)
            .store_b(Gpr::R8, Gpr::R9, 0)
            .mov_ri(Gpr::R0, sysno::GETPID)
            .syscall()
            .mov_rr(Gpr::R10, Gpr::R0);
        let code = exit_group(main, 0).assemble_at(LOAD_ADDR).unwrap();
        let mut sys = System::new();
        sys.load_program(&code).unwrap();
        sys.machine.mem.map(0x9000, 4096, Perms::RW);
        assert_eq!(sys.run().unwrap(), 0);
        assert_eq!(sys.machine.gpr(Gpr::R10), 1000);
        assert_eq!(sys.kernel.stats().sud_dispatches, 0);
    }

    #[test]
    fn bad_selector_kills() {
        let main = Asm::new()
            .mov_ri(Gpr::R0, sysno::PRCTL)
            .mov_ri(Gpr::R1, sysno::PR_SET_SYSCALL_USER_DISPATCH)
            .mov_ri(Gpr::R2, sysno::PR_SYS_DISPATCH_ON)
            .mov_ri(Gpr::R3, 0)
            .mov_ri(Gpr::R4, 0)
            .mov_ri(Gpr::R5, 0x9000)
            .syscall()
            .mov_ri(Gpr::R8, 0x9000)
            .mov_ri(Gpr::R9, 7) // illegal selector value
            .store_b(Gpr::R8, Gpr::R9, 0)
            .mov_ri(Gpr::R0, sysno::GETPID)
            .syscall();
        let code = exit_group(main, 0).assemble_at(LOAD_ADDR).unwrap();
        let mut sys = System::new();
        sys.load_program(&code).unwrap();
        sys.machine.mem.map(0x9000, 4096, Perms::RW);
        assert_eq!(sys.run(), Err(SimError::BadSelector { value: 7 }));
    }

    #[test]
    fn seccomp_errno_and_trap() {
        // Errno path.
        let main = Asm::new()
            .mov_ri(Gpr::R0, sysno::GETPID)
            .syscall()
            .mov_rr(Gpr::R10, Gpr::R0);
        let code = exit_group(main, 0).assemble_at(LOAD_ADDR).unwrap();
        let mut sys = System::new();
        sys.kernel
            .install_seccomp(BpfProgram::deny_numbers(&[sysno::GETPID]));
        sys.load_program(&code).unwrap();
        assert_eq!(sys.run().unwrap(), 0);
        assert_eq!(
            errno::from_ret(sys.machine.gpr(Gpr::R10)),
            Some(errno::EPERM)
        );

        // Trap path with no handler kills.
        let code2 = exit_group(
            Asm::new().mov_ri(Gpr::R0, sysno::GETPID).syscall(),
            0,
        )
        .assemble_at(LOAD_ADDR)
        .unwrap();
        let mut sys = System::new();
        sys.kernel
            .install_seccomp(BpfProgram::trap_all_except_ip_range(0, 0));
        sys.load_program(&code2).unwrap();
        assert_eq!(
            sys.run(),
            Err(SimError::UnhandledSignal { sig: sysno::SIGSYS })
        );
    }

    #[test]
    fn seccomp_kill_ends_the_run() {
        use crate::seccomp::BpfInsn;
        let code = exit_group(Asm::new(), 0).assemble_at(LOAD_ADDR).unwrap();
        let mut sys = System::new();
        sys.kernel
            .install_seccomp(BpfProgram::new(vec![BpfInsn::Ret(BpfAction::Kill)]).unwrap());
        sys.load_program(&code).unwrap();
        assert_eq!(sys.run(), Err(SimError::SeccompKill));
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
