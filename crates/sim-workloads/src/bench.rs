//! Benchmark guest programs.

use sim_cpu::asm::Asm;
use sim_cpu::reg::Gpr;
use sim_kernel::sysno;

use crate::libc::exit_group;

/// The Table II microbenchmark: invoke the non-existent syscall 500
/// `iters` times from a single hot site and exit.
///
/// "A non-existent syscall gives a lower bound on the round trip time
/// of entering and exiting the kernel […] syscall number 500 will
/// cause zpoline's nop sled to be entered at its very tail" (§V-B(a)).
pub fn microbench(iters: u64) -> Vec<u8> {
    let asm = Asm::new()
        .mov_ri(Gpr::R11, iters)
        .label("loop")
        .mov_ri(Gpr::R0, sysno::NONEXISTENT)
        .syscall()
        .sub_ri(Gpr::R11, 1)
        .cmp_ri(Gpr::R11, 0)
        .jnz("loop");
    exit_group(asm, 0)
        .assemble_at(sim_kernel::kernel::LOAD_ADDR)
        .expect("microbench assembles")
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_kernel::System;

    #[test]
    fn microbench_counts_syscalls() {
        let mut sys = System::new();
        sys.load_program(&microbench(10)).unwrap();
        assert_eq!(sys.run().unwrap(), 0);
        // 10 × syscall-500 + exit_group.
        assert_eq!(sys.kernel.stats().syscalls, 11);
    }

    #[test]
    fn microbench_scales_linearly() {
        let retired = |iters| {
            let mut sys = System::new();
            sys.load_program(&microbench(iters)).unwrap();
            sys.run().unwrap();
            sys.machine.retired()
        };
        // One iteration is `mov`, `syscall`, `sub`, `cmp`, `jnz`.
        assert_eq!(retired(100) - retired(10), 90 * 5);
    }
}
