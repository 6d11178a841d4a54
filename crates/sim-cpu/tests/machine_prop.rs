//! Property tests for the simulated CPU: determinism, decode/assemble
//! agreement, and memory consistency.

use proptest::prelude::*;
use lp_sim_cpu::asm::Asm;
use lp_sim_cpu::insn::{decode, sweep};
use lp_sim_cpu::machine::{Event, Machine};
use lp_sim_cpu::mem::{Memory, Perms, PAGE_SIZE};
use lp_sim_cpu::reg::Gpr;

/// A small random straight-line ALU program description.
#[derive(Clone, Debug)]
enum AluOp {
    MovRI(u8, u64),
    AddRI(u8, i32),
    SubRI(u8, i32),
    AddRR(u8, u8),
    MovRR(u8, u8),
    MulRR(u8, u8),
    AndRI(u8, i32),
}

fn alu_op() -> impl Strategy<Value = AluOp> {
    // Registers 1..14 (avoid r0 = syscall and r15 = stack pointer).
    let reg = 1u8..14;
    prop_oneof![
        (reg.clone(), any::<u64>()).prop_map(|(r, i)| AluOp::MovRI(r, i)),
        (reg.clone(), any::<i32>()).prop_map(|(r, i)| AluOp::AddRI(r, i)),
        (reg.clone(), any::<i32>()).prop_map(|(r, i)| AluOp::SubRI(r, i)),
        (reg.clone(), reg.clone()).prop_map(|(a, b)| AluOp::AddRR(a, b)),
        (reg.clone(), reg.clone()).prop_map(|(a, b)| AluOp::MovRR(a, b)),
        (reg.clone(), reg.clone()).prop_map(|(a, b)| AluOp::MulRR(a, b)),
        (reg, any::<i32>()).prop_map(|(r, i)| AluOp::AndRI(r, i)),
    ]
}

fn emit(asm: Asm, op: &AluOp) -> Asm {
    let g = |i: u8| Gpr::from_index(i as usize);
    match *op {
        AluOp::MovRI(r, i) => asm.mov_ri(g(r), i),
        AluOp::AddRI(r, i) => asm.add_ri(g(r), i),
        AluOp::SubRI(r, i) => asm.sub_ri(g(r), i),
        AluOp::AddRR(a, b) => asm.add_rr(g(a), g(b)),
        AluOp::MovRR(a, b) => asm.mov_rr(g(a), g(b)),
        AluOp::MulRR(a, b) => asm.mul_rr(g(a), g(b)),
        AluOp::AndRI(r, i) => asm.and_ri(g(r), i),
    }
}

fn run(ops: &[AluOp]) -> (Vec<u64>, u64) {
    let mut asm = Asm::new();
    for op in ops {
        asm = emit(asm, op);
    }
    let code = asm.hlt().assemble().unwrap();
    let mut m = Machine::new();
    m.load_code(0x1000, &code).unwrap();
    assert_eq!(m.run_fuel(100_000).unwrap(), Event::Halt);
    (
        Gpr::ALL.iter().map(|&r| m.gpr(r)).collect(),
        m.retired(),
    )
}

proptest! {
    /// The machine is deterministic: identical programs produce
    /// identical register files and retired-instruction counts.
    #[test]
    fn execution_is_deterministic(ops in proptest::collection::vec(alu_op(), 1..64)) {
        let a = run(&ops);
        let b = run(&ops);
        prop_assert_eq!(a, b);
    }

    /// Everything the assembler emits decodes back at exact
    /// boundaries with no decode errors.
    #[test]
    fn assembler_output_decodes_cleanly(ops in proptest::collection::vec(alu_op(), 1..64)) {
        let mut asm = Asm::new();
        for op in &ops {
            asm = emit(asm, op);
        }
        let code = asm.hlt().assemble().unwrap();
        let mut count = 0;
        for (_, r) in sweep(&code) {
            prop_assert!(r.is_ok(), "{r:?}");
            count += 1;
        }
        prop_assert_eq!(count, ops.len() + 1);
    }

    /// Memory: bytes written are read back identically, across page
    /// boundaries, and never bleed into neighbours.
    #[test]
    fn memory_write_read_consistency(
        offset in 0u64..(2 * PAGE_SIZE - 64),
        data in proptest::collection::vec(any::<u8>(), 1..64),
    ) {
        let mut mem = Memory::new();
        mem.map(0x4000, 2 * PAGE_SIZE, Perms::RW);
        mem.write(0x4000 + offset, &data).unwrap();
        let mut back = vec![0u8; data.len()];
        mem.read(0x4000 + offset, &mut back).unwrap();
        prop_assert_eq!(&back, &data);
        // A guard byte before and after stays zero (if in range).
        if offset > 0 {
            let mut b = [0u8; 1];
            mem.read(0x4000 + offset - 1, &mut b).unwrap();
            prop_assert_eq!(b[0], 0);
        }
        let end = 0x4000 + offset + data.len() as u64;
        if end < 0x4000 + 2 * PAGE_SIZE {
            let mut b = [0u8; 1];
            mem.read(end, &mut b).unwrap();
            prop_assert_eq!(b[0], 0);
        }
    }

    /// decode() never panics and never claims a length beyond the
    /// longest encoding.
    #[test]
    fn decode_bounded(bytes in proptest::collection::vec(any::<u8>(), 0..32)) {
        if let Ok(insn) = decode(&bytes) {
            prop_assert!(insn.len >= 1 && insn.len <= 10);
            prop_assert!(insn.len as usize <= bytes.len());
        }
    }
}
