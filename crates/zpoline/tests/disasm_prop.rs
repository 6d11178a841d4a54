//! Property tests for the x86-64 length disassembler — the component
//! whose heuristic nature motivates the paper's dynamic approach, so
//! its *mechanical* invariants (progress, boundary discipline) must be
//! ironclad even where its *identification* is best-effort.

use proptest::prelude::*;
use lp_zpoline::disasm::{decode, decode_general, sweep};

proptest! {
    /// Arbitrary bytes never produce a zero-length decode (which would
    /// hang a linear sweep) and never panic.
    #[test]
    fn decode_always_progresses(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let insn = decode(&bytes);
        prop_assert!(insn.len >= 1);
    }

    /// A sweep consumes exactly the buffer: offsets strictly increase
    /// and the final instruction ends at or before the end.
    #[test]
    fn sweep_partitions_buffer(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let mut expected = 0usize;
        for (off, insn) in sweep(&bytes) {
            prop_assert_eq!(off, expected);
            prop_assert!(insn.len >= 1);
            expected = off + insn.len;
        }
        if !bytes.is_empty() {
            prop_assert!(expected >= bytes.len());
        }
    }

    /// A syscall instruction always *ends* with the 0f 05 bytes
    /// (prefixed encodings like `40 0f 05` are legal), which is what
    /// the patcher targets.
    #[test]
    fn syscall_reports_are_byte_accurate(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        for (off, insn) in sweep(&bytes) {
            if insn.is_syscall {
                let end = off + insn.len;
                prop_assert_eq!(&bytes[end - 2..end], &[0x0f, 0x05]);
            }
        }
    }
}

/// Generator for single well-formed instructions (encoding, length).
fn wellformed_insn() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        Just(vec![0x90]),                                     // nop
        Just(vec![0xc3]),                                     // ret
        Just(vec![0x0f, 0x05]),                               // syscall
        Just(vec![0xff, 0xd0]),                               // call rax
        any::<u32>().prop_map(|i| {                           // mov eax, imm32
            let mut v = vec![0xb8];
            v.extend_from_slice(&i.to_le_bytes());
            v
        }),
        any::<u64>().prop_map(|i| {                           // movabs rax, imm64
            let mut v = vec![0x48, 0xb8];
            v.extend_from_slice(&i.to_le_bytes());
            v
        }),
        any::<i32>().prop_map(|d| {                           // call rel32
            let mut v = vec![0xe8];
            v.extend_from_slice(&d.to_le_bytes());
            v
        }),
        (0u8..8).prop_map(|r| vec![0x50 + r]),                // push r
        Just(vec![0x48, 0x89, 0xe5]),                         // mov rbp, rsp
        Just(vec![0x48, 0x83, 0xec, 0x20]),                   // sub rsp, 0x20
        any::<u8>().prop_map(|d| vec![0xeb, d]),              // jmp rel8
        Just(vec![0x8b, 0x45, 0xfc]),                         // mov eax, [rbp-4]
        Just(vec![0x66, 0x0f, 0x6f, 0x07]),                   // movdqa
        Just(vec![0xc5, 0xf8, 0x77]),                         // vzeroupper
    ]
}

proptest! {
    /// Concatenated well-formed instructions decode back at exactly
    /// their original boundaries with no unknown bytes — the property
    /// that makes linear sweep usable on compiler output at all.
    #[test]
    fn wellformed_streams_resynchronize_exactly(
        insns in proptest::collection::vec(wellformed_insn(), 1..32)
    ) {
        let mut buf = Vec::new();
        let mut boundaries = Vec::new();
        for i in &insns {
            boundaries.push(buf.len());
            buf.extend_from_slice(i);
        }
        let decoded: Vec<(usize, _)> = sweep(&buf).collect();
        let offsets: Vec<usize> = decoded.iter().map(|(o, _)| *o).collect();
        prop_assert_eq!(offsets, boundaries);
        for (_, insn) in &decoded {
            prop_assert!(insn.known);
        }
    }

    /// Within a well-formed stream, the scanner finds exactly the real
    /// syscall instructions — no false positives from immediates.
    #[test]
    fn scanner_exact_on_wellformed_streams(
        insns in proptest::collection::vec(wellformed_insn(), 1..32)
    ) {
        let mut buf = Vec::new();
        let mut true_sites = Vec::new();
        for i in &insns {
            if i == &[0x0f, 0x05] {
                true_sites.push(buf.len());
            }
            buf.extend_from_slice(i);
        }
        let report = lp_zpoline::find_syscall_sites(0, &buf);
        prop_assert_eq!(report.sites, true_sites);
        prop_assert_eq!(report.unknown_bytes, 0);
    }
}

// ---- `decode` (table fast path) against `decode_general` (its oracle) ----

/// A first or second byte: any byte, or one from the classes the fast
/// path has to tell apart — REX, the `0f` escape, legacy prefixes,
/// VEX/EVEX, group 3, `mov r, imm`, moffs.
fn leading_byte() -> impl Strategy<Value = u8> {
    const LEGACY: [u8; 11] = [
        0x66, 0x67, 0xf0, 0xf2, 0xf3, 0x2e, 0x36, 0x3e, 0x26, 0x64, 0x65,
    ];
    prop_oneof![
        any::<u8>(),
        0x40u8..=0x4f,
        Just(0x0f),
        (0usize..LEGACY.len()).prop_map(|i| LEGACY[i]),
        (0usize..3).prop_map(|i| [0xc4, 0xc5, 0x62][i]),
        0xf6u8..=0xf7,
        0xb8u8..=0xbf,
        0xa0u8..=0xa3,
    ]
}

proptest! {
    /// 0-24 bytes straddle the 16 the fast path asks for, so both the
    /// declined short tails and the table-fed answers are drawn.
    #[test]
    fn fast_path_agrees_with_general_decoder(
        lead in (leading_byte(), leading_byte()),
        bytes in proptest::collection::vec(any::<u8>(), 0..25)
    ) {
        let mut bytes = bytes;
        for (slot, byte) in bytes.iter_mut().zip([lead.0, lead.1]) {
            *slot = byte;
        }
        prop_assert_eq!(decode(&bytes), decode_general(&bytes));
    }
}

/// Inputs that once told the two decoders apart (or were written to),
/// one per line as hex bytes; re-run before anything generated.
const DIFF_SEEDS: &str = include_str!("disasm_diff.seeds");

#[test]
fn committed_seeds_agree() {
    let mut seeds = 0;
    for line in DIFF_SEEDS.lines() {
        let line = line.split('#').next().unwrap().trim();
        if line.is_empty() {
            continue;
        }
        let bytes: Vec<u8> = line
            .split_whitespace()
            .map(|b| u8::from_str_radix(b, 16).expect("hex byte"))
            .collect();
        assert_eq!(decode(&bytes), decode_general(&bytes), "seed {line}");
        seeds += 1;
    }
    assert!(seeds >= 8, "seed file not read");
}

/// Every opcode of both maps, alone and under three REX prefixes, with
/// every ModRM byte and SIB bytes of each base class: all a fast-table
/// or ModRM-table entry can depend on.
#[test]
fn fast_path_agrees_on_every_opcode_modrm_and_sib() {
    let mut buf = [0x5au8; 24];
    for prefix in [None, Some(0x41u8), Some(0x48), Some(0x4f)] {
        for escaped in [false, true] {
            let mut at = 0;
            for byte in prefix.into_iter().chain(escaped.then_some(0x0f)) {
                buf[at] = byte;
                at += 1;
            }
            for opcode in 0..=255u8 {
                buf[at] = opcode;
                for modrm in 0..=255u8 {
                    buf[at + 1] = modrm;
                    for sib in [0x00, 0x24, 0x25, 0x6d, 0xe5, 0xff] {
                        buf[at + 2] = sib;
                        let (fast, general) = (decode(&buf), decode_general(&buf));
                        assert_eq!(fast, general, "{:02x?}", &buf[..at + 3]);
                    }
                }
            }
        }
    }
}

/// The test binary's own text and libc's, as the kernel mapped them.
fn live_texts() -> Vec<(String, &'static [u8])> {
    let here = live_texts as *const () as usize;
    let regions = lp_zpoline::exec_regions().expect("/proc/self/maps");
    let own = regions.iter().find(|r| (r.start..r.end).contains(&here));
    let libc = regions.iter().find(|r| r.path.contains("libc"));
    let texts = [
        own.expect("own text"),
        libc.expect("an executable libc mapping"),
    ];
    texts
        .into_iter()
        .map(|r| {
            // SAFETY: file-backed r-x mappings of this process, which
            // unmaps neither its own image nor libc.
            let text = unsafe { std::slice::from_raw_parts(r.start as *const u8, r.len()) };
            (r.path.clone(), text)
        })
        .collect()
}

/// Compiler output, decoded from *every* byte offset: aligned starts
/// cover what compilers emit, misaligned ones whatever bytes can follow
/// each other in immediates and displacements.
#[test]
fn fast_path_agrees_at_every_offset_of_live_text() {
    for (path, text) in live_texts() {
        assert!(text.len() > 64 << 10, "{path}: {} bytes", text.len());
        for off in 0..text.len() {
            let (fast, general) = (decode(&text[off..]), decode_general(&text[off..]));
            let end = text.len().min(off + 16);
            assert_eq!(fast, general, "{path}+{off:#x}: {:02x?}", &text[off..end]);
        }
    }
}

/// `find_syscall_sites` with `decode_general` in place of `decode`.
fn scan_with_general_decoder(base: usize, bytes: &[u8]) -> lp_zpoline::scanner::ScanReport {
    let mut report = lp_zpoline::scanner::ScanReport::default();
    let mut off = 0;
    while off < bytes.len() {
        let insn = decode_general(&bytes[off..]);
        report.instructions += 1;
        if !insn.known {
            report.unknown_bytes += insn.len;
        } else if insn.is_syscall {
            report.sites.push(base + off + insn.len - 2);
        }
        off += insn.len;
    }
    report
}

/// The static scan of libc — zpoline's load-time mode — finds the same
/// sites, unknown bytes and instruction count through either decoder.
#[test]
fn libc_scan_is_the_same_through_either_decoder() {
    for (path, text) in live_texts() {
        let report = lp_zpoline::find_syscall_sites(0, text);
        assert_eq!(report, scan_with_general_decoder(0, text), "{path}");
        if path.contains("libc") {
            let sites = report.sites.len();
            assert!(sites > 100, "{sites} sites in {path}");
        }
    }
}
