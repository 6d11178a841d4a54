//! Two simulated C-library flavours.
//!
//! The runtime-init code each flavour prepends to a program is what
//! makes Table III's results: whether an `xmm` register is expected to
//! survive a syscall depends on the libc build, not on the utility's
//! own code.

use sim_cpu::asm::Asm;
use sim_cpu::reg::{Gpr, Xmm};
use sim_kernel::sysno;

/// Which simulated libc a program is "linked" against.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LibcFlavor {
    /// "glibc 2.31 on Ubuntu 20.04, x86-64-v1": thread-capable
    /// programs run a pthread initialization that pre-loads `xmm0`
    /// with `&__stack_user` and only uses it *after* the
    /// `set_tid_address` and `set_robust_list` syscalls — the paper's
    /// Listing 1.
    V1Ubuntu2004,
    /// "glibc 2.39 on Clear Linux, x86-64-v3": every program runs
    /// `ptmalloc_init`, which pre-loads an `xmm` with `main_arena`
    /// initialization data and uses it after an intervening
    /// `getrandom` syscall.
    V3ClearLinux,
}

impl LibcFlavor {
    /// Distro label used in Table III.
    pub fn distro(&self) -> &'static str {
        match self {
            LibcFlavor::V1Ubuntu2004 => "Ubuntu 20.04",
            LibcFlavor::V3ClearLinux => "Clear Linux",
        }
    }
}

/// Scratch data page every program maps for libc-internal state
/// (`__stack_user`, `main_arena`, TID address, robust list head).
pub const LIBC_DATA: u64 = 0xa000;

/// Emits the C-runtime entry for `flavor`. `threaded` marks programs
/// whose real-world counterparts link the pthread machinery (which is
/// what decides Ubuntu-flavour exposure).
pub fn crt_init(asm: Asm, flavor: LibcFlavor, threaded: bool) -> Asm {
    // Map the libc data page: mmap(LIBC_DATA, 4096, RW, FIXED).
    let asm = asm
        .mov_ri(Gpr::R0, sysno::MMAP)
        .mov_ri(Gpr::R1, LIBC_DATA)
        .mov_ri(Gpr::R2, 4096)
        .mov_ri(Gpr::R3, 3)
        .mov_ri(Gpr::R4, 0x10)
        .syscall();
    match flavor {
        LibcFlavor::V1Ubuntu2004 => {
            if threaded {
                // Listing 1: xmm0 ← &__stack_user (both halves), then
                // two syscalls, then movups [r12], xmm0.
                asm.mov_ri(Gpr::R12, LIBC_DATA + 0x100) // &__stack_user
                    .mov_xr(Xmm(0), Gpr::R12) // load into xmm0
                    // set_tid_address(&tid)
                    .mov_ri(Gpr::R0, sysno::SET_TID_ADDRESS)
                    .mov_ri(Gpr::R1, LIBC_DATA + 0x80)
                    .syscall()
                    // set_robust_list(head, len)
                    .mov_ri(Gpr::R0, sysno::SET_ROBUST_LIST)
                    .mov_ri(Gpr::R1, LIBC_DATA + 0x90)
                    .mov_ri(Gpr::R2, 24)
                    .syscall()
                    // write '&__stack_user' to 'prev' + 'next'
                    .store_x(Gpr::R12, Xmm(0), 0)
            } else {
                // Non-threaded startup: plain init, no xmm use.
                asm.mov_ri(Gpr::R0, sysno::SET_TID_ADDRESS)
                    .mov_ri(Gpr::R1, LIBC_DATA + 0x80)
                    .syscall()
            }
        }
        LibcFlavor::V3ClearLinux => {
            // ptmalloc_init: xmm1 ← main_arena template, then
            // getrandom (heap cookie), then initialize main_arena
            // fields from xmm1 — every program runs this.
            asm.mov_ri(Gpr::R12, LIBC_DATA + 0x200) // &main_arena
                .mov_xi(Xmm(1), 0x6d61_696e_5f61_7265) // template
                // getrandom(&cookie, 8)
                .mov_ri(Gpr::R0, sysno::GETRANDOM)
                .mov_ri(Gpr::R1, LIBC_DATA + 0x88)
                .mov_ri(Gpr::R2, 8)
                .syscall()
                // prepopulate two adjacent main_arena fields
                .store_x(Gpr::R12, Xmm(1), 0)
                // non-threaded remainder of startup
                .mov_ri(Gpr::R0, sysno::SET_TID_ADDRESS)
                .mov_ri(Gpr::R1, LIBC_DATA + 0x80)
                .syscall()
        }
    }
}

/// Emits `exit_group(code)`.
pub fn exit_group(asm: Asm, code: u64) -> Asm {
    asm.mov_ri(Gpr::R0, sysno::EXIT_GROUP)
        .mov_ri(Gpr::R1, code)
        .syscall()
}

/// Emits `write(fd, label, len)` for a data blob placed at `label`.
pub fn write_str(asm: Asm, fd: u64, label: &str, len: u64) -> Asm {
    asm.mov_ri(Gpr::R0, sysno::WRITE)
        .mov_ri(Gpr::R1, fd)
        .mov_ri_label(Gpr::R2, label)
        .mov_ri(Gpr::R3, len)
        .syscall()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_kernel::kernel::LOAD_ADDR;
    use sim_kernel::System;

    fn run(flavor: LibcFlavor, threaded: bool) -> System {
        let code = exit_group(crt_init(Asm::new(), flavor, threaded), 0)
            .assemble_at(LOAD_ADDR)
            .unwrap();
        let mut sys = System::new();
        sys.load_program(&code).unwrap();
        assert_eq!(sys.run().unwrap(), 0);
        sys
    }

    #[test]
    fn v1_threaded_initializes_stack_user_via_xmm() {
        let sys = run(LibcFlavor::V1Ubuntu2004, true);
        // movups wrote &__stack_user to both prev and next (the low
        // half of xmm0; high half zero in our simplified model).
        assert_eq!(
            sys.machine.mem.read_u64(LIBC_DATA + 0x100).unwrap(),
            LIBC_DATA + 0x100
        );
        assert!(sys.kernel.stats().syscalls >= 3);
    }

    #[test]
    fn v1_unthreaded_skips_xmm_usage() {
        let sys = run(LibcFlavor::V1Ubuntu2004, false);
        assert_eq!(sys.machine.mem.read_u64(LIBC_DATA + 0x100).unwrap(), 0);
    }

    #[test]
    fn v3_initializes_main_arena_after_getrandom() {
        let sys = run(LibcFlavor::V3ClearLinux, false);
        assert_eq!(
            sys.machine.mem.read_u64(LIBC_DATA + 0x200).unwrap(),
            0x6d61_696e_5f61_7265
        );
        // getrandom filled the cookie.
        assert_ne!(sys.machine.mem.read_u64(LIBC_DATA + 0x88).unwrap(), 0);
    }

    #[test]
    fn distro_labels() {
        assert_eq!(LibcFlavor::V1Ubuntu2004.distro(), "Ubuntu 20.04");
        assert_eq!(LibcFlavor::V3ClearLinux.distro(), "Clear Linux");
    }
}
