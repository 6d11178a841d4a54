//! Pin-like dynamic register-preservation analysis (paper §IV-B(b),
//! Table III).
//!
//! The paper built an Intel Pin tool "that tracks at run time whether
//! a syscall is executed between a consecutive write to and read from
//! the same register. This indicates that the application expected the
//! register contents to remain preserved across the syscall."
//!
//! Intel Pin is proprietary and host-specific; this crate implements
//! the identical analysis over the simulator's per-instruction trace
//! hook: for every register (general-purpose *and* vector), track the
//! window from a write to its next read, and record a finding when one
//! or more `SYSCALL`s executed inside that window. Findings on vector
//! registers are the ones that matter for interposer design: the
//! kernel preserves them, but a binary-rewriting interposer that
//! skips `xsave` does not.
//!
//! Like the original ("as the Pin tool performs a dynamic analysis, it
//! will generally underestimate the frequency of such occurrences"),
//! this only observes executed paths.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::cell::RefCell;
use std::rc::Rc;

use sim_cpu::insn::Op;
use sim_cpu::machine::{Fault, TraceRecord};
use sim_kernel::System;

/// One write→syscall→read occurrence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Finding {
    /// `true` for a vector register (extended state), `false` for a
    /// GPR.
    pub vector: bool,
    /// Register index (0..16).
    pub reg: usize,
    /// Address of the *reading* instruction (the use that expected
    /// preservation).
    pub read_rip: u64,
    /// Address of the intervening `SYSCALL` (the first one in the
    /// window).
    pub syscall_rip: u64,
}

/// Analysis results for one program run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PinReport {
    /// All distinct findings (deduplicated by register + read site).
    pub findings: Vec<Finding>,
    /// Total syscalls observed.
    pub syscalls: u64,
    /// Total instructions analyzed.
    pub instructions: u64,
}

impl PinReport {
    /// Whether any *extended-state* (vector) register was expected to
    /// survive a syscall — the ✓/✗ of Table III.
    pub fn extended_state_affected(&self) -> bool {
        self.findings.iter().any(|f| f.vector)
    }

    /// The affected vector registers, deduplicated and sorted.
    pub fn affected_vector_regs(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self
            .findings
            .iter()
            .filter(|f| f.vector)
            .map(|f| f.reg)
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

#[derive(Clone, Copy, Default)]
struct RegWindow {
    written: bool,
    crossed_syscall: bool,
    syscall_rip: u64,
}

#[derive(Default)]
struct AnalysisState {
    gpr: [RegWindow; 16],
    xmm: [RegWindow; 16],
    report: PinReport,
}

impl AnalysisState {
    fn on_insn(&mut self, t: &TraceRecord) {
        self.report.instructions += 1;

        // Reads first: a read that happens on this instruction sees
        // the register state from *before* any write it also performs
        // (and before a SYSCALL's own kernel entry).
        for (vec, idx) in t.reads.iter() {
            let w = if vec {
                &mut self.xmm[idx]
            } else {
                &mut self.gpr[idx]
            };
            if w.written && w.crossed_syscall {
                let finding = Finding {
                    vector: vec,
                    reg: idx,
                    read_rip: t.rip,
                    syscall_rip: w.syscall_rip,
                };
                if !self.report.findings.contains(&finding) {
                    self.report.findings.push(finding);
                }
                // One finding per write-window.
                w.crossed_syscall = false;
            }
        }

        if t.op == Op::Syscall {
            self.report.syscalls += 1;
            for w in self.gpr.iter_mut().chain(self.xmm.iter_mut()) {
                if w.written && !w.crossed_syscall {
                    w.crossed_syscall = true;
                    w.syscall_rip = t.rip;
                }
            }
        }

        // Writes open a fresh window (and close any previous one).
        for (vec, idx) in t.writes.iter() {
            let w = if vec {
                &mut self.xmm[idx]
            } else {
                &mut self.gpr[idx]
            };
            w.written = true;
            w.crossed_syscall = false;
        }
    }
}

/// Runs `program` (loaded at the standard address) under the
/// preservation analysis; `prepare` may seed kernel state (files).
///
/// # Errors
///
/// Propagates guest failures.
pub fn analyze<F>(program: &[u8], prepare: F) -> Result<PinReport, Fault>
where
    F: FnOnce(&mut System),
{
    let mut system = System::new();
    prepare(&mut system);
    system.load_program(program)?;

    let state = Rc::new(RefCell::new(AnalysisState::default()));
    let hook_state = Rc::clone(&state);
    system
        .machine
        .set_trace_hook(Box::new(move |t| hook_state.borrow_mut().on_insn(t)));

    system.run()?;
    drop(system);

    let state = Rc::try_unwrap(state).unwrap_or_else(|_| unreachable!("hook dropped with machine"));
    Ok(state.into_inner().report)
}

/// Convenience: analyzes one Table III cell (utility × libc flavour).
///
/// # Errors
///
/// Propagates guest failures.
pub fn analyze_coreutil(
    util: sim_workloads::Coreutil,
    flavor: sim_workloads::LibcFlavor,
) -> Result<PinReport, Fault> {
    let program = sim_workloads::coreutils::build(util, flavor);
    analyze(&program, |sys| {
        sim_workloads::coreutils::prepare_fs(&mut sys.kernel)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_cpu::asm::Asm;
    use sim_cpu::reg::{Gpr, Xmm};
    use sim_kernel::kernel::LOAD_ADDR;
    use sim_kernel::sysno;

    fn exit(asm: Asm) -> Vec<u8> {
        asm.mov_ri(Gpr::R0, sysno::EXIT_GROUP)
            .mov_ri(Gpr::R1, 0)
            .syscall()
            .assemble_at(LOAD_ADDR)
            .unwrap()
    }

    /// Maps the page the programs below store to.
    fn map_data(sys: &mut System) {
        sys.machine.mem.map(0xb000, 4096);
    }

    #[test]
    fn clean_program_has_no_vector_findings() {
        // Writes and reads xmm with no syscall in between.
        let prog = exit(
            Asm::new()
                .mov_ri(Gpr::R12, 0xb000)
                .mov_xi(Xmm(2), 7)
                .store_x(Gpr::R12, Xmm(2), 0)
                .mov_ri(Gpr::R0, sysno::SET_TID_ADDRESS)
                .syscall(),
        );
        let r = analyze(&prog, map_data).unwrap();
        assert!(!r.extended_state_affected(), "{:?}", r.findings);
        assert_eq!(r.syscalls, 2);
    }

    #[test]
    fn listing_one_pattern_is_detected() {
        // The paper's Listing 1 shape: xmm0 written, two syscalls,
        // xmm0 read.
        let prog = exit(
            Asm::new()
                .mov_ri(Gpr::R12, 0xb000)
                .mov_xr(Xmm(0), Gpr::R12)
                .mov_ri(Gpr::R0, sysno::SET_TID_ADDRESS)
                .syscall()
                .mov_ri(Gpr::R0, sysno::SET_ROBUST_LIST)
                .syscall()
                .mov_ri(Gpr::R9, sysno::MMAP) // unrelated noise
                .store_x(Gpr::R12, Xmm(0), 0), // ← the expecting read
        );
        let r = analyze(&prog, map_data).unwrap();
        assert!(r.extended_state_affected());
        assert_eq!(r.affected_vector_regs(), vec![0]);
        // The finding points at the first intervening syscall.
        let f = r.findings.iter().find(|f| f.vector).unwrap();
        assert!(f.read_rip > f.syscall_rip);
    }

    #[test]
    fn syscall_result_read_is_not_a_finding() {
        // Reading r0 after a syscall reads the *result* — the ABI says
        // r0 is clobbered, so this must not count.
        let prog = exit(
            Asm::new()
                .mov_ri(Gpr::R0, sysno::SET_TID_ADDRESS)
                .syscall()
                .mov_rr(Gpr::R9, Gpr::R0),
        );
        let r = analyze(&prog, |_| {}).unwrap();
        assert!(r.findings.iter().all(|f| f.vector || f.reg != 0));
    }

    #[test]
    fn gpr_windows_are_tracked_too() {
        // r12 written, syscall, r12 read: a (benign, kernel-preserved)
        // GPR finding.
        let prog = exit(
            Asm::new()
                .mov_ri(Gpr::R12, 5)
                .mov_ri(Gpr::R0, sysno::SET_TID_ADDRESS)
                .syscall()
                .mov_rr(Gpr::R9, Gpr::R12),
        );
        let r = analyze(&prog, |_| {}).unwrap();
        assert!(r
            .findings
            .iter()
            .any(|f| !f.vector && f.reg == Gpr::R12.index()));
        assert!(!r.extended_state_affected());
    }

    #[test]
    fn table_three_ubuntu_column() {
        use sim_workloads::{LibcFlavor, COREUTILS};
        let mut affected = Vec::new();
        for util in COREUTILS {
            let r = analyze_coreutil(util, LibcFlavor::V1Ubuntu2004).unwrap();
            if r.extended_state_affected() {
                affected.push(util.name);
            }
        }
        assert_eq!(affected, vec!["ls", "mkdir", "mv", "cp"]);
    }

    #[test]
    fn table_three_clear_linux_column() {
        use sim_workloads::{LibcFlavor, COREUTILS};
        for util in COREUTILS {
            let r = analyze_coreutil(util, LibcFlavor::V3ClearLinux).unwrap();
            assert!(
                r.extended_state_affected(),
                "{} should be affected on Clear Linux",
                util.name
            );
        }
    }
}
