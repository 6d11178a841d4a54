//! Property tests for the LPTRACE2 codec: arbitrary record streams
//! round-trip bit-exactly through encode → decode, including tsc
//! deltas that wrap the u64 space and dictionary-heavy site mixes.

use lp_replay::codec::{get_varint, put_varint, unzigzag, zigzag, Lp2Decoder, Lp2Encoder};
use lp_replay::{EventRecord, RECORD_SIZE};
use proptest::prelude::*;

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

fn encode_stream(records: &[EventRecord]) -> Vec<u8> {
    let mut enc = Lp2Encoder::new();
    let mut bytes = Vec::new();
    for r in records {
        enc.encode(r, &mut bytes);
    }
    bytes
}

proptest! {
    /// Any record sequence round-trips exactly, whatever the tsc
    /// ordering (deltas are wrapping-signed, so descending and
    /// wrapping timestamps must survive too).
    #[test]
    fn stream_roundtrips_bit_exactly(records in proptest::collection::vec(arb_record(), 0..64)) {
        let bytes = encode_stream(&records);
        let decoded = Lp2Decoder::new().decode_all(&bytes, 0).expect("well-formed stream");
        prop_assert_eq!(decoded, records);
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
        let bytes = encode_stream(&records);
        let decoded = Lp2Decoder::new().decode_all(&bytes, 0).expect("well-formed stream");
        prop_assert_eq!(decoded, records);
    }

    /// Realistic streams (repeating sites, mostly-monotonic tsc) stay
    /// well under the fixed LPTRACE1 record size on average.
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
        let bytes = encode_stream(&records);
        let per_record = bytes.len() as f64 / n as f64;
        prop_assert!(
            per_record * 3.0 <= RECORD_SIZE as f64,
            "expected >=3x compression, got {} B/record", per_record
        );
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

    /// Any truncation point strictly inside an encoded stream is a
    /// structured error or a clean shorter prefix — never a panic,
    /// never an invented record.
    #[test]
    fn truncation_never_panics_or_invents(records in proptest::collection::vec(arb_record(), 1..32), cut_pct in 0usize..100) {
        let bytes = encode_stream(&records);
        let cut = bytes.len() * cut_pct / 100;
        match Lp2Decoder::new().decode_all(&bytes[..cut], 0) {
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
    let decoded = Lp2Decoder::new()
        .decode_all(&encode_stream(&both), 0)
        .expect("well-formed stream");
    assert_eq!(decoded, both);
}
