//! Property tests for the simulated CPU: determinism, decode/assemble
//! agreement, and memory consistency.

use lp_sim_cpu::asm::Asm;
use lp_sim_cpu::insn::decode;
use lp_sim_cpu::machine::Machine;
use lp_sim_cpu::mem::{Memory, PAGE_SIZE};
use lp_sim_cpu::reg::{Gpr, Xmm};
use proptest::prelude::*;

/// Where the `storex` of a random program lands: `r0` is loaded with
/// this address first and never written again.
const DATA: u64 = 0x4000;

/// A small random straight-line program description.
#[derive(Clone, Debug)]
enum SimOp {
    MovRI(u8, u64),
    MovRR(u8, u8),
    CmpRI(u8, i32),
    MovXR(u8, u8),
    MovXI(u8, u64),
    StoreX(u8, i32),
}

fn sim_op() -> impl Strategy<Value = SimOp> {
    // GPRs 1..16 (r0 holds the data address and, at the end, the
    // syscall number); any vector register.
    let reg = 1u8..16;
    let x = 0u8..16;
    prop_oneof![
        (reg.clone(), any::<u64>()).prop_map(|(r, i)| SimOp::MovRI(r, i)),
        (reg.clone(), reg.clone()).prop_map(|(a, b)| SimOp::MovRR(a, b)),
        (reg.clone(), any::<i32>()).prop_map(|(r, i)| SimOp::CmpRI(r, i)),
        (x.clone(), reg).prop_map(|(x, r)| SimOp::MovXR(x, r)),
        (x.clone(), any::<u64>()).prop_map(|(x, i)| SimOp::MovXI(x, i)),
        (x, 0i32..(PAGE_SIZE as i32 - 16)).prop_map(|(x, d)| SimOp::StoreX(x, d)),
    ]
}

fn assemble(ops: &[SimOp]) -> Vec<u8> {
    let g = |i: u8| Gpr::from_index(i as usize);
    let mut asm = Asm::new().mov_ri(Gpr::R0, DATA);
    for op in ops {
        asm = match *op {
            SimOp::MovRI(r, i) => asm.mov_ri(g(r), i),
            SimOp::MovRR(a, b) => asm.mov_rr(g(a), g(b)),
            SimOp::CmpRI(r, i) => asm.cmp_ri(g(r), i),
            SimOp::MovXR(x, r) => asm.mov_xr(Xmm(x), g(r)),
            SimOp::MovXI(x, i) => asm.mov_xi(Xmm(x), i),
            SimOp::StoreX(x, d) => asm.store_x(Gpr::R0, Xmm(x), d),
        };
    }
    asm.syscall().assemble().unwrap()
}

fn run(ops: &[SimOp]) -> (Vec<u64>, Vec<u128>, Vec<u8>, u64) {
    let mut m = Machine::new();
    m.load_code(0x1000, &assemble(ops)).unwrap();
    m.mem.map(DATA, PAGE_SIZE);
    m.run_fuel(100_000).unwrap();
    let mut data = vec![0u8; PAGE_SIZE as usize];
    m.mem.read(DATA, &mut data).unwrap();
    (
        Gpr::ALL.iter().map(|&r| m.gpr(r)).collect(),
        (0..16).map(|x| m.xmm(Xmm(x))).collect(),
        data,
        m.retired(),
    )
}

proptest! {
    /// The machine is deterministic: identical programs produce
    /// identical register files, memory and retired-instruction counts.
    #[test]
    fn execution_is_deterministic(ops in proptest::collection::vec(sim_op(), 1..64)) {
        let a = run(&ops);
        let b = run(&ops);
        prop_assert_eq!(a.3, ops.len() as u64 + 2);
        prop_assert_eq!(a, b);
    }

    /// Everything the assembler emits decodes back at exact
    /// boundaries with no decode errors.
    #[test]
    fn assembler_output_decodes_cleanly(ops in proptest::collection::vec(sim_op(), 1..64)) {
        let code = assemble(&ops);
        let (mut pos, mut count) = (0, 0);
        while pos < code.len() {
            let r = decode(&code[pos..]);
            prop_assert!(r.is_ok(), "{r:?}");
            pos += r.unwrap().len as usize;
            count += 1;
        }
        prop_assert_eq!(count, ops.len() + 2);
    }

    /// Memory: bytes written are read back identically, across page
    /// boundaries, and never bleed into neighbours.
    #[test]
    fn memory_write_read_consistency(
        offset in 0u64..(2 * PAGE_SIZE - 64),
        data in proptest::collection::vec(any::<u8>(), 1..64),
    ) {
        let mut mem = Memory::new();
        mem.map(0x4000, 2 * PAGE_SIZE);
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
