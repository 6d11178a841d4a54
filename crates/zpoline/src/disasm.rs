//! A table-driven x86-64 instruction-*length* decoder.
//!
//! Static rewriters (zpoline, SaBRe, syscall_intercept) must disassemble
//! the text section to locate `syscall` instructions at correct
//! instruction boundaries — a 2-byte scan alone would also match `0f 05`
//! byte pairs embedded in immediates or data (paper §II-B: "syscall
//! instructions may inadvertently appear as part of other instructions
//! or data"). This module implements the minimum a rewriter needs: given
//! a byte slice, decode the length of the instruction at its start.
//!
//! The decoder covers legacy/REX/VEX/EVEX encodings of the instruction
//! set that compilers emit. Truly unknown opcodes yield
//! [`Insn::unknown`], letting a linear sweep resynchronize — this is
//! exactly the *heuristic* quality of static disassembly whose failure
//! modes motivate lazypoline's dynamic approach, and the scanner
//! propagates that uncertainty to its callers.
//!
//! # Two decoders, one map
//!
//! The opcode maps are the `const fn` matches `one_byte` and
//! `two_byte`, written once. [`decode_general`] walks them for any
//! input. [`decode`] first tries the shape nearly all compiled code has
//! — no legacy prefix, at most one REX, an opcode of the one- or
//! two-byte map, at least 16 bytes (`FAST_MIN`) left so that no length
//! needs a bounds check — and answers it from three loads: one of two
//! 256-entry tables the compiler derives from those same matches
//! (opcode + immediate length, has-ModRM, the REX.W-sized immediate,
//! the group-3 immediate), a 256-entry ModRM → length table, and the
//! SIB byte where `mod = 00` needs it. Everything else it *declines*
//! and hands to [`decode_general`]: legacy prefixes (`66`/`67` resize
//! immediates and moffs), VEX/EVEX, the `0f 38`/`0f 3a` maps, `a0`-`a3`
//! moffs, unknown opcodes, and the last 15 bytes of a buffer. The
//! general decoder is also the oracle the differential tests
//! (`tests/disasm_prop.rs`) hold `decode` to, byte offset by byte
//! offset of this crate's own text and libc's.
//!
//! What the fast path buys is a short dependency chain, not fewer
//! instructions: a sweep's next offset waits on this length, so the
//! loads are kept independent of each other (fixed offsets behind a
//! *branch* on REX, `decode_fast`) — a `ret`-filled page decodes in
//! ~4 ns an instruction against ~10.6 through the general decoder,
//! libc's text in ~9.9 against ~19.6 (EXPERIMENTS.md, "A SIGSYS pays
//! for the bytes it proves").
//!
//! # Two walks, one oracle
//!
//! [`sweep`] decodes every instruction in turn. It is the reference: the
//! static scanner uses it, and so does lpbench's
//! `zpoline.sweep_ns_per_page` row. [`walk`] is the slow path's. It
//! yields what [`sweep`] yields, at the same offsets, except for
//! one-byte instructions (one opcode byte, no ModRM, no immediate: an
//! entry of 1 in the one-byte fast table). It steps over a run of those
//! without decoding it. A JIT page's `ret`/`int3`/`nop` fill goes 16
//! bytes at a time with SSE2, and any other one-byte instruction one
//! byte at a time. Its oracle is [`sweep`] with the one-byte
//! instructions filtered out, checked on arbitrary bytes, on
//! compiler-shaped streams with runs of fill, and from every offset of
//! live text. [`last_syscall_pair`] gives the slow path its bound, the
//! last `0f 05` pair, with one vector scan from the end. On compiled
//! text, runs of one-byte instructions are a fraction of a percent of
//! the bytes, so there the walk decodes nearly all that the sweep does
//! (EXPERIMENTS.md, "A SIGSYS decodes only what can hold a syscall").

/// A decoded instruction (length + the properties the scanner needs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Insn {
    /// Total encoded length in bytes (≥ 1).
    pub len: usize,
    /// Whether this is the `syscall` instruction (`0f 05`).
    pub is_syscall: bool,
    /// Whether the opcode was recognized. Unknown opcodes decode with
    /// `len == 1` so the sweep can resynchronize.
    pub known: bool,
}

impl Insn {
    fn new(len: usize, is_syscall: bool) -> Insn {
        Insn {
            len,
            is_syscall,
            known: true,
        }
    }

    /// An unrecognized byte: length 1, not a syscall.
    pub fn unknown() -> Insn {
        Insn {
            len: 1,
            is_syscall: false,
            known: false,
        }
    }
}

/// Immediate kinds attached to opcodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Imm {
    None,
    /// 1 byte.
    B,
    /// 2 bytes.
    W,
    /// 2 or 4 bytes depending on the 66 prefix (the common "z" form).
    Z,
    /// 2/4/8 bytes depending on 66/REX.W (only `mov r64, imm64`).
    V,
    /// 8-byte (4 with the 67 prefix) absolute moffs (A0-A3).
    Moffs,
    /// ENTER: imm16 + imm8.
    Enter,
    /// Group 3 (F6/F7): TEST (/0, /1) carries an immediate, the rest
    /// do not — resolved via ModRM.reg.
    Group3B,
    /// Like `Group3B` but the immediate is z-sized.
    Group3Z,
}

#[derive(Clone, Copy)]
struct OpSpec {
    modrm: bool,
    imm: Imm,
}

const fn op(modrm: bool, imm: Imm) -> OpSpec {
    OpSpec { modrm, imm }
}

/// One-byte opcode map. `None` = invalid/unhandled in 64-bit mode.
const fn one_byte(opcode: u8) -> Option<OpSpec> {
    Some(match opcode {
        // ALU r/m,r and r,r/m forms: 00-03, 08-0b, ... 38-3b
        0x00..=0x03
        | 0x08..=0x0b
        | 0x10..=0x13
        | 0x18..=0x1b
        | 0x20..=0x23
        | 0x28..=0x2b
        | 0x30..=0x33
        | 0x38..=0x3b => op(true, Imm::None),
        // ALU al/ax/eax, imm forms: 04-05, 0c-0d, ...
        0x04 | 0x0c | 0x14 | 0x1c | 0x24 | 0x2c | 0x34 | 0x3c => op(false, Imm::B),
        0x05 | 0x0d | 0x15 | 0x1d | 0x25 | 0x2d | 0x35 | 0x3d => op(false, Imm::Z),
        // push/pop r64
        0x50..=0x5f => op(false, Imm::None),
        0x63 => op(true, Imm::None),         // movsxd
        0x68 => op(false, Imm::Z),           // push imm32
        0x69 => op(true, Imm::Z),            // imul r, r/m, imm32
        0x6a => op(false, Imm::B),           // push imm8
        0x6b => op(true, Imm::B),            // imul r, r/m, imm8
        0x6c..=0x6f => op(false, Imm::None), // ins/outs
        0x70..=0x7f => op(false, Imm::B),    // Jcc rel8
        0x80 => op(true, Imm::B),            // grp1 r/m8, imm8
        0x81 => op(true, Imm::Z),            // grp1 r/m, imm32
        0x82 => return None,                 // invalid in 64-bit
        0x83 => op(true, Imm::B),            // grp1 r/m, imm8
        0x84..=0x8e => op(true, Imm::None),  // test/xchg/mov/lea...
        0x8f => op(true, Imm::None),         // pop r/m
        0x90..=0x97 => op(false, Imm::None), // nop/xchg
        0x98..=0x99 => op(false, Imm::None), // cwde/cdq
        0x9b..=0x9f => op(false, Imm::None), // fwait/pushf/popf/sahf/lahf
        0xa0..=0xa3 => op(false, Imm::Moffs),
        0xa4..=0xa7 => op(false, Imm::None), // movs/cmps
        0xa8 => op(false, Imm::B),           // test al, imm8
        0xa9 => op(false, Imm::Z),           // test eax, imm32
        0xaa..=0xaf => op(false, Imm::None), // stos/lods/scas
        0xb0..=0xb7 => op(false, Imm::B),    // mov r8, imm8
        0xb8..=0xbf => op(false, Imm::V),    // mov r, imm (REX.W → imm64)
        0xc0 | 0xc1 => op(true, Imm::B),     // shift grp2 imm8
        0xc2 => op(false, Imm::W),           // ret imm16
        0xc3 => op(false, Imm::None),        // ret
        0xc6 => op(true, Imm::B),            // mov r/m8, imm8
        0xc7 => op(true, Imm::Z),            // mov r/m, imm32
        0xc8 => op(false, Imm::Enter),       // enter imm16, imm8
        0xc9 => op(false, Imm::None),        // leave
        0xca => op(false, Imm::W),           // retf imm16
        0xcb..=0xcf => op(false, Imm::None), // retf/int3/iret (0xcd below)
        0xd0..=0xd3 => op(true, Imm::None),  // shift grp2 by 1/cl
        0xd7 => op(false, Imm::None),        // xlat
        0xd8..=0xdf => op(true, Imm::None),  // x87
        0xe0..=0xe3 => op(false, Imm::B),    // loop/jcxz rel8
        0xe4 | 0xe5 => op(false, Imm::B),    // in al, imm8
        0xe6 | 0xe7 => op(false, Imm::B),    // out imm8, al
        0xe8 | 0xe9 => op(false, Imm::Z),    // call/jmp rel32
        0xeb => op(false, Imm::B),           // jmp rel8
        0xec..=0xef => op(false, Imm::None), // in/out dx
        0xf1 => op(false, Imm::None),        // int1
        0xf4 | 0xf5 => op(false, Imm::None), // hlt/cmc
        0xf6 => op(true, Imm::Group3B),      // grp3 r/m8
        0xf7 => op(true, Imm::Group3Z),      // grp3 r/m
        0xf8..=0xfd => op(false, Imm::None), // clc..std
        0xfe | 0xff => op(true, Imm::None),  // inc/dec/call/jmp/push r/m
        _ => return None,
    })
}

/// Handles `0xcd` (int imm8) separately since 0xcb..=0xcf above groups it.
const fn one_byte_fixups(opcode: u8) -> Option<OpSpec> {
    match opcode {
        0xcd => Some(op(false, Imm::B)), // int imm8
        _ => one_byte(opcode),
    }
}

/// Two-byte opcode map (after `0f`).
const fn two_byte(opcode: u8) -> Option<OpSpec> {
    Some(match opcode {
        0x05 => op(false, Imm::None), // ← syscall
        0x00..=0x03 => op(true, Imm::None),
        0x06..=0x09 => op(false, Imm::None), // clts/sysret/invd/wbinvd
        0x0b => op(false, Imm::None),        // ud2
        0x0d => op(true, Imm::None),         // prefetch
        0x10..=0x17 => op(true, Imm::None),  // movups etc.
        0x18..=0x1f => op(true, Imm::None),  // nop r/m, prefetch
        0x20..=0x23 => op(true, Imm::None),  // mov crN/drN
        0x28..=0x2f => op(true, Imm::None),  // movaps/cvt/ucomiss...
        0x30..=0x33 => op(false, Imm::None), // wrmsr/rdtsc/rdmsr/rdpmc
        0x34..=0x35 => op(false, Imm::None), // sysenter/sysexit
        0x38 | 0x3a => return None,          // three-byte maps (handled upstream)
        0x40..=0x4f => op(true, Imm::None),  // cmovcc
        0x50..=0x6f => op(true, Imm::None),  // SSE
        0x70..=0x73 => op(true, Imm::B),     // pshuf/pslldq etc. imm8
        0x74..=0x76 => op(true, Imm::None),
        0x77 => op(false, Imm::None),        // emms
        0x78..=0x7f => op(true, Imm::None),
        0x80..=0x8f => op(false, Imm::Z),    // Jcc rel32
        0x90..=0x9f => op(true, Imm::None),  // setcc
        0xa0..=0xa1 => op(false, Imm::None), // push/pop fs
        0xa2 => op(false, Imm::None),        // cpuid
        0xa3 => op(true, Imm::None),         // bt
        0xa4 => op(true, Imm::B),            // shld imm8
        0xa5 => op(true, Imm::None),
        0xa8..=0xa9 => op(false, Imm::None), // push/pop gs
        0xaa => op(false, Imm::None),        // rsm
        0xab => op(true, Imm::None),
        0xac => op(true, Imm::B), // shrd imm8
        0xad..=0xaf => op(true, Imm::None),
        0xb0..=0xb7 => op(true, Imm::None), // cmpxchg/movzx...
        0xb8 => op(true, Imm::None),        // popcnt (F3)
        0xba => op(true, Imm::B),           // bt grp8 imm8
        0xbb..=0xbf => op(true, Imm::None),
        0xc0..=0xc1 => op(true, Imm::None),
        0xc2 => op(true, Imm::B), // cmpps imm8
        0xc3 => op(true, Imm::None),
        0xc4..=0xc6 => op(true, Imm::B), // pinsrw/pextrw/shufps
        0xc7 => op(true, Imm::None),     // cmpxchg8b / rdrand grp9
        0xc8..=0xcf => op(false, Imm::None), // bswap
        0xd0..=0xfe => op(true, Imm::None), // MMX/SSE block
        _ => return None,
    })
}

/// Shortest slice [`decode`] answers from its tables: longer than any
/// instruction they describe (REX + opcode + ModRM + SIB + disp32 +
/// imm32 = 12 bytes), so no load or length on that path needs a check.
const FAST_MIN: usize = 16;

// A fast-table entry. 0 declines: the opcode is unknown, or its length
// depends on what only `decode_general` tracks.
/// Opcode bytes (1, or 2 with the `0f` escape) + unconditional immediate.
const LEN_MASK: u8 = 0x0f;
/// A ModRM byte follows the opcode.
const HAS_MODRM: u8 = 0x10;
/// `mov r, imm` (`b8`-`bf`): REX.W widens the imm32 to imm64.
const IMM_V: u8 = 0x20;
/// Group 3 (`f6`): an imm8 when ModRM.reg ≤ 1.
const GROUP3_B: u8 = 0x40;
/// Group 3 (`f7`): an imm32 when ModRM.reg ≤ 1.
const GROUP3_Z: u8 = 0x80;

/// The fast-table entry of one opcode of `opcode_len` bytes, sized as
/// under no `66`/`67` prefix (the fast path sees none).
const fn fast_entry(spec: Option<OpSpec>, opcode_len: u8) -> u8 {
    let Some(spec) = spec else { return 0 };
    let (imm, flags) = match spec.imm {
        Imm::None => (0, 0),
        Imm::B => (1, 0),
        Imm::W => (2, 0),
        Imm::Z => (4, 0),
        Imm::V => (4, IMM_V),
        Imm::Enter => (3, 0),
        Imm::Group3B => (0, GROUP3_B),
        Imm::Group3Z => (0, GROUP3_Z),
        Imm::Moffs => return 0,
    };
    (opcode_len + imm) | flags | if spec.modrm { HAS_MODRM } else { 0 }
}

const fn fast_table(escaped: bool) -> [u8; 256] {
    let mut table = [0u8; 256];
    let mut opcode = 0;
    while opcode < 256 {
        table[opcode] = if escaped {
            fast_entry(two_byte(opcode as u8), 2)
        } else {
            fast_entry(one_byte_fixups(opcode as u8), 1)
        };
        opcode += 1;
    }
    table
}

// The longest instruction either table describes fits in `FAST_MIN`.
const _: () = {
    let tables = [fast_table(false), fast_table(true)];
    let mut opcode = 0;
    while opcode < 512 {
        let entry = tables[opcode / 256][opcode % 256];
        let mut len = 1 + (entry & LEN_MASK) as usize; // REX
        if entry & IMM_V != 0 {
            len += 4;
        }
        if entry & HAS_MODRM != 0 {
            len += 6; // ModRM + SIB + disp32
        }
        if entry & (GROUP3_B | GROUP3_Z) != 0 {
            len += 4;
        }
        assert!(len <= FAST_MIN);
        opcode += 1;
    }
};

/// [`one_byte_fixups`] as fast-table entries. Prefix, escape and
/// VEX/EVEX bytes are not in that map, so they decline by themselves.
static FAST_ONE: [u8; 256] = fast_table(false);
/// [`two_byte`] as fast-table entries, indexed by the byte after `0f`
/// (`38`/`3a` are not in that map either).
static FAST_TWO: [u8; 256] = fast_table(true);

/// In a [`FAST_MODRM`] entry: `mod = 00` with a SIB byte, whose base
/// field 5 means "no base, disp32".
const SIB_BASE5: u8 = 0x80;

/// ModRM byte → bytes of ModRM + SIB + displacement, but for the disp32
/// a [`SIB_BASE5`] entry may still owe. Mirrors [`modrm_len`].
static FAST_MODRM: [u8; 256] = {
    let mut table = [0u8; 256];
    let mut modrm = 0;
    while modrm < 256 {
        let (md, rm) = (modrm >> 6, modrm & 7);
        let sib = md != 0b11 && rm == 0b100;
        let disp = match md {
            0b00 if rm == 0b101 => 4, // RIP-relative
            0b01 => 1,
            0b10 => 4,
            _ => 0,
        };
        let owes = if sib && md == 0b00 { SIB_BASE5 } else { 0 };
        table[modrm] = (1 + sib as u8 + disp) | owes;
        modrm += 1;
    }
    table
};

/// Decodes the instruction at the start of `bytes`.
///
/// Returns [`Insn::unknown`] (length 1) for invalid or unsupported
/// encodings; the caller's linear sweep then advances one byte, which
/// mirrors how real static rewriters degrade on undecodable input.
///
/// Answers the common shape from the tables (see the module docs) and
/// is [`decode_general`] for everything else; the two agree everywhere.
#[inline]
pub fn decode(bytes: &[u8]) -> Insn {
    if let Some(head) = bytes.first_chunk::<FAST_MIN>() {
        let fast = if head[0] & 0xf0 == 0x40 {
            decode_fast::<1>(head, head[0] & 0x08 != 0)
        } else {
            decode_fast::<0>(head, false)
        };
        if let Some(insn) = fast {
            return insn;
        }
    }
    decode_general(bytes)
}

/// The table-fed answer for an opcode at `head[AT]` (`AT` = 1 behind a
/// REX prefix, whose W bit is `rex_w`), or `None` to decline. One copy
/// per `AT`, so every load sits at a fixed offset or one past it and
/// waits on nothing but the bytes themselves.
#[inline(always)]
fn decode_fast<const AT: usize>(head: &[u8; FAST_MIN], rex_w: bool) -> Option<Insn> {
    let escaped = head[AT] == 0x0f;
    let (entry, modrm, sib) = if escaped {
        (FAST_TWO[head[AT + 1] as usize], head[AT + 2], head[AT + 3])
    } else {
        (FAST_ONE[head[AT] as usize], head[AT + 1], head[AT + 2])
    };
    if entry == 0 {
        return None;
    }
    let mut len = AT + (entry & LEN_MASK) as usize;
    if entry & IMM_V != 0 && rex_w {
        len += 4;
    }
    if entry & HAS_MODRM != 0 {
        let tail = FAST_MODRM[modrm as usize];
        len += (tail & LEN_MASK) as usize;
        if tail & SIB_BASE5 != 0 && sib & 0x07 == 0b101 {
            len += 4;
        }
        if entry & (GROUP3_B | GROUP3_Z) != 0 && modrm & 0x30 == 0 {
            len += if entry & GROUP3_Z != 0 { 4 } else { 1 };
        }
    }
    Some(Insn::new(len, escaped && head[AT + 1] == 0x05))
}

/// [`decode`] without the table fast path: prefixes, VEX/EVEX, the
/// three-byte maps and short tails, walking the opcode maps directly.
/// The whole decoder for what `decode` declines, and its oracle.
pub fn decode_general(bytes: &[u8]) -> Insn {
    let mut i = 0usize;
    let mut opsize16 = false;
    let mut addr32 = false;
    let mut rex_w = false;

    // Legacy + REX prefixes.
    while i < bytes.len() && i < 14 {
        match bytes[i] {
            0xf0 | 0xf2 | 0xf3 | 0x2e | 0x36 | 0x3e | 0x26 | 0x64 | 0x65 => i += 1,
            0x66 => {
                opsize16 = true;
                i += 1;
            }
            0x67 => {
                addr32 = true;
                i += 1;
            }
            0x40..=0x4f => {
                rex_w = bytes[i] & 0x08 != 0;
                i += 1;
                break; // REX must immediately precede the opcode
            }
            _ => break,
        }
    }
    if i >= bytes.len() {
        return Insn::unknown();
    }

    // VEX/EVEX encodings (always ModRM, imm8 only for a few — we decode
    // imm8 for the 0F 3A map which always carries one).
    match bytes[i] {
        0xc5 => {
            // 2-byte VEX: c5 P0 opcode modrm...
            if bytes.len() < i + 3 {
                return Insn::unknown();
            }
            if bytes[i + 2] == 0x77 {
                // vzeroupper/vzeroall: no ModRM.
                return Insn::new(i + 3, false);
            }
            let imm8 = false; // 2-byte VEX implies map 0F (no mandatory imm8)
            return decode_modrm_tail(bytes, i + 3, false, imm8);
        }
        0xc4 => {
            // 3-byte VEX: c4 P0 P1 opcode modrm...
            if bytes.len() < i + 4 {
                return Insn::unknown();
            }
            let map = bytes[i + 1] & 0x1f;
            if map == 1 && bytes[i + 3] == 0x77 {
                // vzeroupper/vzeroall: no ModRM.
                return Insn::new(i + 4, false);
            }
            let imm8 = map == 3; // map 0F3A always has imm8
            return decode_modrm_tail(bytes, i + 4, false, imm8);
        }
        0x62 => {
            // EVEX: 62 P0 P1 P2 opcode modrm...
            if bytes.len() < i + 6 {
                return Insn::unknown();
            }
            let map = bytes[i + 1] & 0x07;
            let imm8 = map == 3;
            return decode_modrm_tail(bytes, i + 5, false, imm8);
        }
        _ => {}
    }

    // Opcode maps.
    let (spec, op_end, is_syscall) = if bytes[i] == 0x0f {
        if bytes.len() < i + 2 {
            return Insn::unknown();
        }
        match bytes[i + 1] {
            0x38 => {
                if bytes.len() < i + 3 {
                    return Insn::unknown();
                }
                (op(true, Imm::None), i + 3, false)
            }
            0x3a => {
                if bytes.len() < i + 3 {
                    return Insn::unknown();
                }
                (op(true, Imm::B), i + 3, false)
            }
            second => match two_byte(second) {
                Some(s) => (s, i + 2, second == 0x05),
                None => return Insn::unknown(),
            },
        }
    } else {
        match one_byte_fixups(bytes[i]) {
            Some(s) => (s, i + 1, false),
            None => return Insn::unknown(),
        }
    };

    let mut len = op_end;
    let mut modrm_reg = 0u8;
    if spec.modrm {
        match modrm_len(bytes, len) {
            Some((ml, reg)) => {
                modrm_reg = reg;
                len += ml;
            }
            None => return Insn::unknown(),
        }
    }

    let imm_len = match spec.imm {
        Imm::None => 0,
        Imm::B => 1,
        Imm::W => 2,
        Imm::Z => {
            if opsize16 {
                2
            } else {
                4
            }
        }
        Imm::V => {
            if rex_w {
                8
            } else if opsize16 {
                2
            } else {
                4
            }
        }
        Imm::Moffs => {
            if addr32 {
                4
            } else {
                8
            }
        }
        Imm::Enter => 3,
        Imm::Group3B => {
            if modrm_reg <= 1 {
                1
            } else {
                0
            }
        }
        Imm::Group3Z => {
            if modrm_reg <= 1 {
                if opsize16 {
                    2
                } else {
                    4
                }
            } else {
                0
            }
        }
    };
    len += imm_len;

    if len > bytes.len() {
        return Insn::unknown();
    }
    Insn::new(len, is_syscall)
}

/// Length of ModRM + SIB + displacement starting at `pos`; also returns
/// the ModRM.reg field (needed for immediate-bearing opcode groups).
fn modrm_len(bytes: &[u8], pos: usize) -> Option<(usize, u8)> {
    let modrm = *bytes.get(pos)?;
    let md = modrm >> 6;
    let rm = modrm & 0x07;
    let reg = (modrm >> 3) & 0x07;
    let mut len = 1usize;
    if md != 0b11 && rm == 0b100 {
        // SIB byte
        let sib = *bytes.get(pos + 1)?;
        len += 1;
        if md == 0b00 && (sib & 0x07) == 0b101 {
            len += 4; // disp32 with no base
        }
    }
    match md {
        0b00
            if rm == 0b101 => {
                len += 4; // RIP-relative disp32
            }
        0b01 => len += 1,
        0b10 => len += 4,
        _ => {}
    }
    Some((len, reg))
}

fn decode_modrm_tail(bytes: &[u8], opcode_end: usize, _w: bool, imm8: bool) -> Insn {
    let mut len = opcode_end;
    match modrm_len(bytes, len) {
        Some((ml, _)) => len += ml,
        None => return Insn::unknown(),
    }
    if imm8 {
        len += 1;
    }
    if len > bytes.len() {
        return Insn::unknown();
    }
    Insn::new(len, false)
}

/// Linear-sweep disassembly: yields `(offset, Insn)` pairs until the
/// buffer is exhausted.
pub fn sweep(bytes: &[u8]) -> Sweep<'_> {
    Sweep { bytes, pos: 0 }
}

/// Iterator returned by [`sweep`].
#[derive(Debug)]
pub struct Sweep<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Iterator for Sweep<'_> {
    type Item = (usize, Insn);

    #[inline]
    fn next(&mut self) -> Option<(usize, Insn)> {
        if self.pos >= self.bytes.len() {
            return None;
        }
        let insn = decode(&self.bytes[self.pos..]);
        let at = self.pos;
        self.pos += insn.len;
        Some((at, insn))
    }
}

/// The [`FAST_ONE`] entry of a *one-byte instruction*: one opcode byte,
/// no ModRM, no immediate (`c3`, `cc`, `90`, `50`-`5f`, `f8`-`fd`, …).
/// No prefix, REX or escape byte has it, so such a byte decodes as
/// itself — length 1, known, not a syscall — whatever follows it.
const ONE_BYTE_INSN: u8 = 1;

/// Whether `byte` alone is a whole instruction (see [`ONE_BYTE_INSN`]).
#[inline(always)]
fn is_one_byte(byte: u8) -> bool {
    FAST_ONE[byte as usize] == ONE_BYTE_INSN
}

/// [`sweep`] without its one-byte instructions: the same `(offset,
/// Insn)` pairs, at the same offsets, for every other instruction. A run
/// of one-byte instructions — the fill between a JIT page's stubs — is
/// stepped over, not decoded: `ret`, `int3` and `nop` 16 at a time,
/// other one-byte instructions one at a time by a table load.
///
/// The slow path's batch rewrite walks with this; [`sweep`] is its
/// per-instruction reference and oracle (`tests/disasm_prop.rs`).
pub fn walk(bytes: &[u8]) -> Walk<'_> {
    Walk { bytes, pos: 0 }
}

/// Iterator returned by [`walk`].
#[derive(Debug)]
pub struct Walk<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Iterator for Walk<'_> {
    type Item = (usize, Insn);

    #[inline]
    fn next(&mut self) -> Option<(usize, Insn)> {
        let at = skip_one_byte_run(self.bytes, self.pos);
        if at >= self.bytes.len() {
            self.pos = at;
            return None;
        }
        let insn = decode(&self.bytes[at..]);
        self.pos = at + insn.len;
        Some((at, insn))
    }
}

/// The first offset from `pos` on that does not hold a one-byte
/// instruction (`bytes.len()` if none does).
#[inline]
fn skip_one_byte_run(bytes: &[u8], mut pos: usize) -> usize {
    // In compiled code the answer is nearly always `pos`, from the one
    // table load `decode` makes next anyway.
    while let Some(&byte) = bytes.get(pos) {
        if !is_one_byte(byte) {
            break;
        }
        pos += 1;
        while let Some(chunk) = bytes.get(pos..).and_then(<[u8]>::first_chunk) {
            let fill = common_fill_mask(chunk);
            if fill != 0xffff {
                // Up to the first byte that is not common fill.
                pos += (!fill).trailing_zeros() as usize;
                break;
            }
            // A constant step: the next load waits on no byte loaded.
            pos += 16;
        }
    }
    pos
}

/// Bit `i` set when `chunk[i]` is one of the common fill bytes — `c3`
/// (`ret`), `cc` (`int3`), `90` (`nop`) — all one-byte instructions.
#[inline(always)]
fn common_fill_mask(chunk: &[u8; 16]) -> u32 {
    eq_mask(chunk, 0xc3) | eq_mask(chunk, 0xcc) | eq_mask(chunk, 0x90)
}

/// Bit `i` set when `chunk[i] == byte`: one SSE2 compare. SSE2 is in
/// the x86-64 baseline, so nothing is detected at run time (a `cpuid`
/// in a VM costs more than the page).
#[inline(always)]
fn eq_mask(chunk: &[u8; 16], byte: u8) -> u32 {
    use core::arch::x86_64::{_mm_cmpeq_epi8, _mm_loadu_si128, _mm_movemask_epi8, _mm_set1_epi8};
    // SAFETY: every x86-64 has SSE2; the load reads the 16 bytes of
    // `chunk`, with no alignment required.
    unsafe {
        let v = _mm_loadu_si128(chunk.as_ptr().cast());
        _mm_movemask_epi8(_mm_cmpeq_epi8(v, _mm_set1_epi8(byte as i8))) as u32
    }
}

/// The offset of the last `0f 05` byte pair in `bytes` — the last place
/// a `syscall` can end — found by one scan from the end, 64 pair
/// positions a step. Equal to
/// `bytes.windows(2).rposition(|p| p == [0x0f, 0x05])`.
pub fn last_syscall_pair(bytes: &[u8]) -> Option<usize> {
    // A step covers pair positions `at..at + 64`, which read one byte
    // more; one without a `0f` needs no second look.
    const STEP: usize = 64;
    let Some(mut at) = bytes.len().checked_sub(STEP + 1) else {
        return bytes.windows(2).rposition(|pair| pair == [0x0f, 0x05]);
    };
    loop {
        let step = |from: usize| bytes[from..].first_chunk().expect("a step reads 65 bytes");
        let opens = eq_mask64(step(at), 0x0f);
        if opens != 0 {
            let pairs = opens & eq_mask64(step(at + 1), 0x05);
            if pairs != 0 {
                return Some(at + 63 - pairs.leading_zeros() as usize);
            }
        }
        if at == 0 {
            return None;
        }
        // The last step overlaps the one before it, which held no pair.
        at = at.saturating_sub(STEP);
    }
}

/// [`eq_mask`] of 64 bytes.
#[inline(always)]
fn eq_mask64(bytes: &[u8; 64], byte: u8) -> u64 {
    let (lanes, _) = bytes.as_chunks::<16>();
    let lane = |i: usize| u64::from(eq_mask(&lanes[i], byte)) << (16 * i);
    lane(0) | lane(1) | lane(2) | lane(3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[track_caller]
    fn assert_len(bytes: &[u8], expect: usize) {
        let insn = decode(bytes);
        assert!(insn.known, "expected known insn for {bytes:02x?}");
        assert_eq!(insn.len, expect, "length of {bytes:02x?}");
    }

    #[test]
    fn basic_lengths() {
        assert_len(&[0x90], 1); // nop
        assert_len(&[0xc3], 1); // ret
        assert_len(&[0x0f, 0x05], 2); // syscall
        assert_len(&[0x55], 1); // push rbp
        assert_len(&[0x48, 0x89, 0xe5], 3); // mov rbp, rsp
        assert_len(&[0x48, 0x83, 0xec, 0x20], 4); // sub rsp, 0x20
        assert_len(&[0xe8, 0, 0, 0, 0], 5); // call rel32
        assert_len(&[0xeb, 0x10], 2); // jmp rel8
        assert_len(&[0xcd, 0x80], 2); // int 0x80
        assert_len(&[0xff, 0xd0], 2); // call rax
    }

    #[test]
    fn modrm_addressing_forms() {
        assert_len(&[0x8b, 0x45, 0xfc], 3); // mov eax, [rbp-4]  (disp8)
        assert_len(&[0x8b, 0x85, 0, 0, 0, 0], 6); // mov eax, [rbp+disp32]
        assert_len(&[0x8b, 0x05, 0, 0, 0, 0], 6); // mov eax, [rip+disp32]
        assert_len(&[0x8b, 0x04, 0x24], 3); // mov eax, [rsp] (SIB)
        assert_len(&[0x8b, 0x04, 0x25, 0, 0, 0, 0], 7); // mov eax, [abs32]
        assert_len(&[0x8b, 0x44, 0x24, 0x08], 4); // mov eax, [rsp+8]
    }

    #[test]
    fn immediates() {
        assert_len(&[0xb8, 1, 0, 0, 0], 5); // mov eax, imm32
        assert_len(&[0x48, 0xb8, 1, 2, 3, 4, 5, 6, 7, 8], 10); // movabs rax, imm64
        assert_len(&[0x66, 0xb8, 1, 0], 4); // mov ax, imm16
        assert_len(&[0x68, 1, 0, 0, 0], 5); // push imm32
        assert_len(&[0x6a, 0x01], 2); // push imm8
        assert_len(&[0xc2, 0x08, 0x00], 3); // ret imm16
        assert_len(&[0xc8, 0x10, 0x00, 0x01], 4); // enter 16, 1
        assert_len(&[0x48, 0xc7, 0xc0, 0x3c, 0, 0, 0], 7); // mov rax, 60
    }

    #[test]
    fn group3_test_vs_not() {
        // test r/m32, imm32 (reg=0) carries an immediate…
        assert_len(&[0xf7, 0xc0, 1, 0, 0, 0], 6);
        // …but not r/m32 (reg=3, same opcode byte) does not.
        assert_len(&[0xf7, 0xd8], 2); // neg eax
        assert_len(&[0xf6, 0xc0, 0x01], 3); // test al, 1
        assert_len(&[0xf6, 0xd8], 2); // neg al
    }

    #[test]
    fn sse_and_prefixes() {
        assert_len(&[0x0f, 0x10, 0x07], 3); // movups xmm0, [rdi]
        assert_len(&[0x66, 0x0f, 0x6f, 0x07], 4); // movdqa xmm0, [rdi]
        assert_len(&[0xf3, 0x0f, 0x6f, 0x07], 4); // movdqu
        assert_len(&[0x0f, 0x70, 0xc0, 0x01], 4); // pshufd imm8 (0f map)
        assert_len(&[0x66, 0x0f, 0x3a, 0x0f, 0xc1, 0x08], 6); // palignr imm8
        assert_len(&[0x66, 0x0f, 0x38, 0x00, 0xc1], 5); // pshufb
    }

    #[test]
    fn vex_evex() {
        // vzeroupper: c5 f8 77
        assert_len(&[0xc5, 0xf8, 0x77], 3);
        // vmovdqu ymm0, [rdi]: c5 fe 6f 07
        assert_len(&[0xc5, 0xfe, 0x6f, 0x07], 4);
        // vpalignr (3-byte VEX map 0F3A has imm8): c4 e3 79 0f c1 08
        assert_len(&[0xc4, 0xe3, 0x79, 0x0f, 0xc1, 0x08], 6);
        // EVEX vmovdqu64 zmm0, [rdi]: 62 f1 fe 48 6f 07
        assert_len(&[0x62, 0xf1, 0xfe, 0x48, 0x6f, 0x07], 6);
    }

    #[test]
    fn syscall_detection() {
        assert!(decode(&[0x0f, 0x05]).is_syscall);
        assert!(!decode(&[0x0f, 0x04]).is_syscall || !decode(&[0x0f, 0x04]).known);
        assert!(!decode(&[0xff, 0xd0]).is_syscall);
    }

    #[test]
    fn embedded_syscall_bytes_are_not_flagged() {
        // `mov eax, 0x050f` — the 0f 05 bytes live inside the immediate.
        let buf = [0xb8, 0x0f, 0x05, 0x00, 0x00];
        let hits: Vec<_> = sweep(&buf).filter(|(_, i)| i.is_syscall).collect();
        assert!(hits.is_empty(), "immediate bytes misidentified: {hits:?}");
    }

    #[test]
    fn sweep_covers_whole_buffer() {
        let buf = [
            0x55, // push rbp
            0x48, 0x89, 0xe5, // mov rbp, rsp
            0x0f, 0x05, // syscall
            0xc9, // leave
            0xc3, // ret
        ];
        let offs: Vec<usize> = sweep(&buf).map(|(o, _)| o).collect();
        assert_eq!(offs, vec![0, 1, 4, 6, 7]);
        let sys: Vec<usize> = sweep(&buf)
            .filter(|(_, i)| i.is_syscall)
            .map(|(o, _)| o)
            .collect();
        assert_eq!(sys, vec![4]);
    }

    #[test]
    fn truncated_input_is_unknown() {
        assert!(!decode(&[0x0f]).known);
        assert!(!decode(&[0x48]).known);
        assert!(!decode(&[0xe8, 0x01]).known); // call missing imm bytes
        assert!(!decode(&[]).known || decode(&[]).len == 1);
    }

    #[test]
    fn one_byte_class_is_the_decoders() {
        let alone = Insn::new(1, false);
        let mut buf = [0u8; 16];
        for byte in 0..=255u8 {
            buf[0] = byte;
            // Alone means alone after any next byte, at any length.
            let decodes_alone = (0..=255u8).all(|next| {
                buf[1] = next;
                (1..=16).all(|len| decode_general(&buf[..len]) == alone)
            });
            assert_eq!(is_one_byte(byte), decodes_alone, "{byte:#04x}");
        }
        for byte in [0xc3, 0xcc, 0x90, 0x50, 0x5f, 0xf8, 0xfd] {
            assert!(is_one_byte(byte), "{byte:#04x}");
        }
        for byte in [0x0f, 0x40, 0x48, 0x4f, 0x66, 0xf3, 0xc4, 0xc5, 0x62, 0xcd] {
            assert!(!is_one_byte(byte), "{byte:#04x}");
        }
    }

    #[test]
    fn decoder_never_returns_zero_length() {
        // A zero-length decode would hang the sweep; fuzz all single and
        // a sample of double bytes.
        for b0 in 0u8..=255 {
            assert!(decode(&[b0]).len >= 1);
            for b1 in (0u8..=255).step_by(7) {
                let i = decode(&[b0, b1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]);
                assert!(i.len >= 1, "zero len for {b0:02x} {b1:02x}");
            }
        }
    }
}
