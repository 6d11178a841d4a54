//! Property tests for the varint codec, at both generations it
//! writes (LPTRACE2 and LPTRACE3): arbitrary record streams round-trip
//! bit-exactly through encode → decode, including tsc deltas that wrap
//! the u64 space, sites revisited with some values changed, tid
//! switches and dictionary-heavy site mixes; damaged streams fail with
//! a typed error; and the encoder writes exactly the bytes of its
//! per-byte oracle.

use std::collections::HashMap;

use lp_replay::codec::{get_varint, put_varint, unzigzag, zigzag, Decoder, Encoder, DICT_CAP};
use lp_replay::{EventRecord, TraceError, VERSION2, VERSION3};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

const BOTH: [u32; 2] = [VERSION2, VERSION3];

/// The encoder's oracle, written field by field: a `put_varint` (one
/// `Vec::push` per byte) per field, a plain `HashMap` as the whole
/// dictionary, and at v3 a second one from each dictionary pair to its
/// reference (the args and ret of its last record).
struct OracleEncoder {
    v3: bool,
    dict: HashMap<(u64, u64), u64>,
    refs: HashMap<(u64, u64), [u64; 7]>,
    prev_tsc: u64,
    prev_tid: u32,
}

impl OracleEncoder {
    fn new(version: u32) -> OracleEncoder {
        OracleEncoder {
            v3: version == VERSION3,
            dict: HashMap::new(),
            refs: HashMap::new(),
            prev_tsc: 0,
            prev_tid: 0,
        }
    }

    fn encode(&mut self, rec: &EventRecord, out: &mut Vec<u8>) -> usize {
        let start = out.len();
        let pair = (rec.sysno, rec.site);
        let in_dict = match self.dict.get(&pair) {
            Some(&idx) => {
                put_varint(out, idx + 1);
                true
            }
            None => {
                put_varint(out, 0);
                put_varint(out, rec.sysno);
                put_varint(out, rec.site);
                if self.dict.len() < DICT_CAP {
                    let idx = self.dict.len() as u64;
                    self.dict.insert(pair, idx);
                }
                self.dict.contains_key(&pair)
            }
        };
        let reference = match self.refs.get(&pair) {
            Some(&values) if self.v3 && in_dict => values,
            _ => [0; 7],
        };
        put_varint(out, zigzag(rec.tsc.wrapping_sub(self.prev_tsc) as i64));
        self.prev_tsc = rec.tsc;
        let tid_delta = zigzag(i64::from(rec.tid).wrapping_sub(i64::from(self.prev_tid)));
        if !self.v3 {
            put_varint(out, tid_delta);
        }
        let mut values = [rec.ret; 7];
        values[..6].copy_from_slice(&rec.args);
        let mut flags = 0u8;
        for i in 0..6 {
            if values[i] != reference[i] {
                flags |= 1 << i;
            }
        }
        if self.v3 && values[6] != reference[6] {
            flags |= 1 << 6;
        }
        if self.v3 && rec.tid != self.prev_tid {
            flags |= 1 << 7;
        }
        self.prev_tid = rec.tid;
        out.push(flags);
        if flags & (1 << 7) != 0 {
            put_varint(out, tid_delta);
        }
        for i in (0..6).filter(|i| flags & (1 << i) != 0) {
            put_varint(out, rec.args[i]);
        }
        if !self.v3 || flags & (1 << 6) != 0 {
            put_varint(out, zigzag(rec.ret as i64));
        }
        if self.v3 && in_dict {
            self.refs.insert(pair, values);
        }
        out.len() - start
    }
}

/// Sites of the pairs a filled dictionary holds: pair `i` is
/// `(i % 11, FILL_SITE + i * 16)`.
const FILL_SITE: u64 = 0x7f00_0000_0000;

/// The encoder's front-table slot of a pair, a replica of
/// `codec::front_slot` so that the streams can aim collisions at it.
fn front_slot(sysno: u64, site: u64) -> usize {
    (site.wrapping_add(sysno).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 56) as usize
}

/// Four pairs in one front slot: `(a, s)`, another sysno at `s`, `a`
/// at another site, and a pair that differs from `(a, s)` in both.
fn colliding_pairs(rng: &mut TestRng) -> [(u64, u64); 4] {
    let (a, s) = (rng.below(512), 0x40_0000 + rng.below(4096) * 16);
    let slot = front_slot(a, s);
    let b = (0..).find(|&b| b != a && front_slot(b, s) == slot).unwrap();
    let t = (1..)
        .map(|j| s + j * 16)
        .find(|&t| front_slot(a, t) == slot)
        .unwrap();
    [(a, s), (b, s), (a, t), (a + 1, s - 1)]
}

/// A stream of `len` records from `seed`. Each record's pair is a hot
/// one, one of four that collide in one front slot, an all-ones or
/// all-zero one, an arbitrary one, one of 256 more (more than the front
/// has slots), or (with `filled`, which first sends
/// `DICT_CAP + 64` distinct pairs) one from the filled dictionary or
/// past its end. Fields mix realistic values with their extremes. Half
/// the records of a pair seen before revisit it: they start from its
/// last record and change each arg and the ret with odds of one in
/// four, as a site's next call mostly does.
fn seeded_stream(seed: u64, len: usize, filled: bool) -> Vec<EventRecord> {
    let mut rng = TestRng::for_case(seed);
    let collide = colliding_pairs(&mut rng);
    let mut records: Vec<EventRecord> = Vec::new();
    let mut last: HashMap<(u64, u64), ([u64; 6], u64)> = HashMap::new();
    let fill = if filled { DICT_CAP as u64 + 64 } else { 0 };
    for i in 0..fill {
        records.push(EventRecord {
            sysno: i % 11,
            site: FILL_SITE + i * 16,
            tsc: i,
            ..EventRecord::ZERO
        });
    }
    let mut tsc = fill;
    for _ in 0..len {
        let (sysno, site) = match rng.below(if filled { 7 } else { 6 }) {
            0 | 1 => (rng.below(4), 0x40_0000 + rng.below(3) * 16),
            2 => collide[rng.below(4) as usize],
            3 => [(u64::MAX, u64::MAX), (0, 0), (u64::MAX, 0)][rng.below(3) as usize],
            4 => (rng.next_u64(), rng.next_u64()),
            5 => (rng.below(64), 0x40_0000 + rng.below(4) * 16),
            _ => {
                let i = rng.below(fill + 256);
                (i % 11, FILL_SITE + i * 16)
            }
        };
        tsc = match rng.below(8) {
            0 => rng.next_u64(),
            1 => tsc.wrapping_add(i64::MIN as u64),
            _ => tsc.wrapping_add(rng.below(2_000)),
        };
        let mut value = || match rng.below(6) {
            0..=2 => 0,
            3 => rng.below(4096),
            4 => u64::MAX,
            _ => rng.next_u64(),
        };
        let mut args: [u64; 6] = std::array::from_fn(|_| value());
        let mut ret = match rng.below(4) {
            0 => rng.below(4096),
            1 => (-(rng.below(4096) as i64)) as u64,
            2 => [i64::MIN as u64, u64::MAX, i64::MAX as u64][rng.below(3) as usize],
            _ => rng.next_u64(),
        };
        if let Some(&(old_args, old_ret)) = last.get(&(sysno, site)).filter(|_| rng.below(2) == 0) {
            for (arg, old) in args.iter_mut().zip(old_args) {
                if rng.below(4) != 0 {
                    *arg = old;
                }
            }
            if rng.below(4) != 0 {
                ret = old_ret;
            }
        }
        last.insert((sysno, site), (args, ret));
        let tid = match rng.below(4) {
            0 => [0, u32::MAX][rng.below(2) as usize],
            1 => rng.next_u64() as u32,
            _ => 100 + rng.below(3) as u32,
        };
        records.push(EventRecord {
            sysno,
            args,
            ret,
            tsc,
            site,
            tid,
        });
    }
    records
}

fn arb_record() -> impl Strategy<Value = EventRecord> {
    (
        // Small sysno pool exercises the dictionary hit path; the
        // arbitrary arm exercises the literal-escape path.
        prop_oneof![0u64..32, any::<u64>()],
        prop_oneof![Just([0u64; 6]), any::<[u64; 6]>()],
        any::<u64>(),
        // tsc: arbitrary, so consecutive deltas go negative and wrap.
        any::<u64>(),
        prop_oneof![Just(0x40_0000u64), any::<u64>()],
        any::<u32>(),
    )
        .prop_map(|(sysno, args, ret, tsc, site, tid)| EventRecord {
            sysno,
            args,
            ret,
            tsc,
            site,
            tid,
        })
}

/// `records` encoded at `version`, and where each record ends.
fn encode_at(version: u32, records: &[EventRecord]) -> (Vec<u8>, Vec<usize>) {
    let mut enc = Encoder::for_version(version);
    let mut bytes = Vec::new();
    let ends = records
        .iter()
        .map(|r| {
            enc.encode(r, &mut bytes);
            bytes.len()
        })
        .collect();
    (bytes, ends)
}

fn encode_stream(records: &[EventRecord]) -> Vec<u8> {
    encode_at(VERSION3, records).0
}

fn decode_at(version: u32, bytes: &[u8]) -> Result<Vec<EventRecord>, TraceError> {
    Decoder::for_version(version).decode_all(bytes, 0)
}

proptest! {
    /// Any record sequence round-trips exactly, whatever the tsc
    /// ordering (deltas are wrapping-signed, so descending and
    /// wrapping timestamps must survive too).
    #[test]
    fn stream_roundtrips_bit_exactly(records in proptest::collection::vec(arb_record(), 0..64)) {
        for version in BOTH {
            let (bytes, _) = encode_at(version, &records);
            let decoded = decode_at(version, &bytes).expect("well-formed stream");
            prop_assert_eq!(&decoded, &records);
        }
    }

    /// Streams that revisit their keys with some args and the ret
    /// changed and some not, switch tid, jump and wrap tsc, and (one
    /// case in eight) first send more than `DICT_CAP` distinct keys
    /// round-trip exactly at both generations.
    #[test]
    fn revisiting_streams_roundtrip(seed in any::<u64>(), len in 0usize..512, fill in 0u8..8) {
        let records = seeded_stream(seed, len, fill == 0);
        for version in BOTH {
            let (bytes, _) = encode_at(version, &records);
            let decoded = decode_at(version, &bytes).expect("well-formed stream");
            prop_assert!(decoded == records, "v{} stream does not round-trip", version);
        }
    }

    /// Explicit wraparound: consecutive tsc values straddling u64::MAX
    /// and 0 decode back exactly.
    #[test]
    fn tsc_wraparound_deltas_roundtrip(base in any::<u64>(), steps in proptest::collection::vec(any::<i64>(), 1..32)) {
        let mut tsc = base;
        let mut records = Vec::new();
        for (i, s) in steps.iter().enumerate() {
            tsc = tsc.wrapping_add(*s as u64);
            records.push(EventRecord { sysno: i as u64, tsc, ..EventRecord::ZERO });
        }
        for version in BOTH {
            let (bytes, _) = encode_at(version, &records);
            let decoded = decode_at(version, &bytes).expect("well-formed stream");
            prop_assert_eq!(&decoded, &records);
        }
    }

    /// Realistic streams (repeating sites, mostly-monotonic tsc) stay
    /// well under a record's own 88 bytes on average.
    #[test]
    fn repetitive_streams_compress(n in 16u64..256) {
        let records: Vec<EventRecord> = (0..n)
            .map(|i| EventRecord {
                sysno: i % 7,
                args: [3, 4096, 0, 0, 0, 0],
                ret: 4096,
                tsc: 1_000_000 + i * 800,
                site: 0x40_1000 + (i % 5) * 64,
                tid: 7001,
            })
            .collect();
        for version in BOTH {
            let (bytes, _) = encode_at(version, &records);
            let per_record = bytes.len() as f64 / n as f64;
            prop_assert!(
                per_record * 3.0 <= std::mem::size_of::<EventRecord>() as f64,
                "v{}: expected >=3x compression, got {} B/record", version, per_record
            );
        }
    }

    /// varint and zigzag primitives invert for every u64/i64.
    #[test]
    fn varint_and_zigzag_invert(v in any::<u64>(), s in any::<i64>()) {
        let mut buf = Vec::new();
        put_varint(&mut buf, v);
        let mut pos = 0;
        prop_assert_eq!(get_varint(&buf, &mut pos), Some(v));
        prop_assert_eq!(pos, buf.len());
        prop_assert_eq!(unzigzag(zigzag(s)), s);
    }

    /// The encoder writes, record by record, the bytes its per-byte
    /// oracle writes, at both generations. One case in sixteen first
    /// fills the dictionary.
    #[test]
    fn encoder_bytes_equal_the_oracles(seed in any::<u64>(), len in 0usize..512, fill in 0u8..16) {
        let records = seeded_stream(seed, len, fill == 0);
        for version in BOTH {
            let (mut enc, mut oracle) = (Encoder::for_version(version), OracleEncoder::new(version));
            let (mut bytes, mut expected) = (Vec::new(), Vec::new());
            for (i, rec) in records.iter().enumerate() {
                let n = enc.encode(rec, &mut bytes);
                prop_assert_eq!(n, oracle.encode(rec, &mut expected), "v{} record {} length", version, i);
                prop_assert!(
                    bytes[bytes.len() - n..] == expected[expected.len() - n..],
                    "v{} record {} ({:?}): bytes differ", version, i, rec
                );
            }
        }
    }

    /// A v3 stream cut at any byte decodes to the records before the
    /// cut when it falls between records, and is `Truncated` when it
    /// falls inside one; with a byte flipped it decodes to something or
    /// fails typed. Never a panic.
    #[test]
    fn damaged_v3_streams_fail_typed(seed in any::<u64>(), len in 1usize..48, flip in any::<u64>()) {
        let records = seeded_stream(seed, len, false);
        let (bytes, ends) = encode_at(VERSION3, &records);
        for cut in 0..bytes.len() {
            let whole = ends.iter().take_while(|&&end| end <= cut).count();
            let between = cut == 0 || ends.contains(&cut);
            match decode_at(VERSION3, &bytes[..cut]) {
                Ok(prefix) => {
                    prop_assert!(between, "cut at {} inside a record decoded", cut);
                    prop_assert_eq!(prefix.as_slice(), &records[..whole]);
                }
                Err(e) => prop_assert!(
                    matches!(e, TraceError::Truncated) && !between,
                    "cut at {}: {}", cut, e
                ),
            }
        }
        let mut rng = TestRng::for_case(flip);
        for _ in 0..64 {
            let mut damaged = bytes.clone();
            let at = rng.below(bytes.len() as u64) as usize;
            damaged[at] ^= 1 + rng.below(255) as u8;
            let decoded = decode_at(VERSION3, &damaged);
            prop_assert!(matches!(decoded, Ok(_) | Err(TraceError::Truncated)), "{:?}", decoded.err());
        }
    }

    /// Any truncation point strictly inside an encoded stream is a
    /// structured error or a clean shorter prefix — never a panic,
    /// never an invented record.
    #[test]
    fn truncation_never_panics_or_invents(records in proptest::collection::vec(arb_record(), 1..32), cut_pct in 0usize..100) {
        for version in BOTH {
            let (bytes, _) = encode_at(version, &records);
            let cut = bytes.len() * cut_pct / 100;
            match decode_at(version, &bytes[..cut]) {
                Ok(prefix) => {
                    prop_assert!(prefix.len() <= records.len());
                    prop_assert_eq!(prefix.as_slice(), &records[..prefix.len()]);
                }
                Err(e) => {
                    // Mid-record cut: structured truncation error.
                    let msg = e.to_string();
                    prop_assert!(msg.contains("truncated"), "{}", msg);
                }
            }
        }
    }
}

/// More distinct (sysno, site) pairs than one resize of the encoder's
/// dictionary table holds, the all-ones pair among them: the second
/// pass over the same pairs must find every one (a reference is a few
/// bytes, a literal is the key again), and the stream round-trips.
#[test]
fn many_distinct_pairs_are_found_again_after_the_table_grows() {
    const PAIRS: u64 = 5000;
    let pass = |base_tsc: u64| {
        (0..PAIRS)
            .map(move |i| EventRecord {
                // Real shapes: few syscall numbers, 16-aligned sites.
                sysno: i % 11,
                site: 0x7f00_0000_0000 + (i / 11) * 16,
                tsc: base_tsc + i,
                ..EventRecord::ZERO
            })
            .chain(std::iter::once(EventRecord {
                sysno: u64::MAX,
                site: u64::MAX,
                tsc: base_tsc + PAIRS,
                ..EventRecord::ZERO
            }))
    };
    let first: Vec<EventRecord> = pass(0).collect();
    let both: Vec<EventRecord> = pass(0).chain(pass(PAIRS + 1)).collect();
    let literal = encode_stream(&first).len();
    let referenced = encode_stream(&both).len() - literal;
    assert!(
        referenced * 2 < literal,
        "second pass {referenced} B against {literal} B: dictionary misses"
    );
    let decoded = decode_at(VERSION3, &encode_stream(&both)).expect("well-formed stream");
    assert_eq!(decoded, both);
}
