//! Compact `LPTRACE2` record encoding.
//!
//! LPTRACE1 spends a fixed 88 bytes per record; at production event
//! rates the disk write becomes the recorder's bottleneck. LPTRACE2
//! exploits what syscall streams actually look like — the same few
//! (sysno, call-site) pairs repeat millions of times, timestamps are
//! monotonic with small deltas, most argument registers are zero or
//! small — to get the typical record down to a handful of bytes
//! (~3–5× smaller end to end; see `DESIGN.md` §5).
//!
//! # Record wire format (all varints LEB128, little-endian groups)
//!
//! | field | encoding |
//! |-------|----------|
//! | key | varint: `0` = literal escape, then varint sysno + varint site; `k>0` = dictionary entry `k-1` |
//! | tsc | zigzag varint of the **wrapping** delta from the previous record's tsc |
//! | tid | zigzag varint of the delta from the previous record's tid |
//! | args mask | one byte, bit *i* set ⇔ `args[i] != 0` |
//! | args | varint of each `args[i]` whose mask bit is set |
//! | ret | zigzag varint (returns are small positives or small `-errno`s) |
//!
//! The (sysno, site) dictionary is built **implicitly and identically**
//! on both sides: each literal escape appends to the dictionary while
//! it has room ([`DICT_CAP`]); once full, further new pairs stay
//! literal forever. There is no table in the file and no
//! synchronization to get wrong — the decoder replays exactly the
//! inserts the encoder performed.
//!
//! Records are self-delimiting, so the stream needs no count field:
//! clean EOF at a record boundary is the end of the trace; EOF inside
//! a record is [`TraceError::Truncated`](crate::TraceError::Truncated).
//!
//! Encoding runs on the drain thread (never the interposer hot path),
//! so it may allocate freely.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::event::EventRecord;
use crate::format::TraceError;

/// Dictionary entries both sides will build before falling back to
/// literal-only encoding. 2¹⁶ distinct (sysno, site) pairs is far past
/// any real workload (the paper's exhaustiveness suite exercises a few
/// hundred sites).
pub const DICT_CAP: usize = 1 << 16;

/// Worst-case encoded size of one record: literal key (1 + 10 + 10) +
/// tsc (10) + tid (10) + mask (1) + six args (60) + ret (10).
pub const MAX_ENCODED_SIZE: usize = 102;

// ——— varint primitives ——————————————————————————————————————————————

/// Appends `v` as LEB128 (7 bits per byte, high bit = continuation).
#[inline]
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Zigzag-maps a signed value so small magnitudes encode small.
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Reads a LEB128 varint from `buf` at `*pos`, advancing it. `None`
/// when the buffer ends mid-varint (or immediately) — the caller
/// decides whether that is clean EOF or truncation.
#[inline]
pub fn get_varint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *buf.get(*pos)?;
        *pos += 1;
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
        if shift >= 64 {
            // Over-long varint: treat as corruption (caller maps to
            // Truncated — the stream is unrecoverable either way).
            return None;
        }
    }
}

// ——— encoder ————————————————————————————————————————————————————————

/// Hasher for the encoder's `(sysno, site)` key: one multiply per
/// word and a fold, where the default SipHash was the larger half of an
/// encode. Not collision-resistant — a program that crafts its call
/// sites to collide slows its own recording's drain thread, no more.
#[derive(Default)]
struct PairHasher(u64);

impl Hasher for PairHasher {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        // 2^64 / golden ratio, odd: spreads a word's low bits upward.
        self.0 = (self.0 ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn write(&mut self, bytes: &[u8]) {
        // Not the key's path (a `u64` hashes through `write_u64`).
        bytes.iter().for_each(|&b| self.write_u64(b.into()));
    }

    #[inline]
    fn finish(&self) -> u64 {
        // The table indexes with the low bits, which a multiply leaves
        // the poorest (sites are 16-aligned): fold the high half in.
        self.0 ^ (self.0 >> 32)
    }
}

/// Streaming LPTRACE2 encoder: one per trace, records in trace order.
pub struct Lp2Encoder {
    dict: HashMap<(u64, u64), u64, BuildHasherDefault<PairHasher>>,
    prev_tsc: u64,
    prev_tid: u32,
}

impl Default for Lp2Encoder {
    fn default() -> Lp2Encoder {
        Lp2Encoder::new()
    }
}

impl Lp2Encoder {
    /// An encoder with an empty dictionary and zero deltas — matches a
    /// fresh [`Lp2Decoder`].
    pub fn new() -> Lp2Encoder {
        Lp2Encoder {
            dict: HashMap::default(),
            prev_tsc: 0,
            prev_tid: 0,
        }
    }

    /// Appends `rec`'s encoding to `out` and returns the encoded byte
    /// length.
    pub fn encode(&mut self, rec: &EventRecord, out: &mut Vec<u8>) -> usize {
        let start = out.len();
        let pair = (rec.sysno, rec.site);
        match self.dict.get(&pair) {
            Some(&idx) => put_varint(out, idx + 1),
            None => {
                put_varint(out, 0);
                put_varint(out, rec.sysno);
                put_varint(out, rec.site);
                if self.dict.len() < DICT_CAP {
                    let idx = self.dict.len() as u64;
                    self.dict.insert(pair, idx);
                }
            }
        }
        put_varint(out, zigzag(rec.tsc.wrapping_sub(self.prev_tsc) as i64));
        self.prev_tsc = rec.tsc;
        put_varint(
            out,
            zigzag(i64::from(rec.tid).wrapping_sub(i64::from(self.prev_tid))),
        );
        self.prev_tid = rec.tid;
        let mut mask = 0u8;
        for (i, &a) in rec.args.iter().enumerate() {
            if a != 0 {
                mask |= 1 << i;
            }
        }
        out.push(mask);
        for &a in rec.args.iter().filter(|&&a| a != 0) {
            put_varint(out, a);
        }
        put_varint(out, zigzag(rec.ret as i64));
        out.len() - start
    }
}

// ——— decoder ————————————————————————————————————————————————————————

/// Streaming LPTRACE2 decoder — mirrors [`Lp2Encoder`]'s state machine
/// (same implicit dictionary inserts, same delta bases).
pub struct Lp2Decoder {
    dict: Vec<(u64, u64)>,
    prev_tsc: u64,
    prev_tid: u32,
}

impl Default for Lp2Decoder {
    fn default() -> Lp2Decoder {
        Lp2Decoder::new()
    }
}

impl Lp2Decoder {
    /// A decoder in the initial state (empty dictionary, zero deltas).
    pub fn new() -> Lp2Decoder {
        Lp2Decoder {
            dict: Vec::new(),
            prev_tsc: 0,
            prev_tid: 0,
        }
    }

    /// Decodes the record starting at `*pos`, advancing it past the
    /// record. `Ok(None)` = clean EOF at a record boundary; EOF inside
    /// a record (or a malformed varint / dictionary reference) is
    /// [`TraceError::Truncated`].
    pub fn decode_next(
        &mut self,
        buf: &[u8],
        pos: &mut usize,
    ) -> Result<Option<EventRecord>, TraceError> {
        if *pos >= buf.len() {
            return Ok(None);
        }
        let key = get_varint(buf, pos).ok_or(TraceError::Truncated)?;
        let (sysno, site) = if key == 0 {
            let sysno = get_varint(buf, pos).ok_or(TraceError::Truncated)?;
            let site = get_varint(buf, pos).ok_or(TraceError::Truncated)?;
            if self.dict.len() < DICT_CAP {
                self.dict.push((sysno, site));
            }
            (sysno, site)
        } else {
            *self
                .dict
                .get(key as usize - 1)
                .ok_or(TraceError::Truncated)?
        };
        let tsc_delta = get_varint(buf, pos).ok_or(TraceError::Truncated)?;
        let tsc = self.prev_tsc.wrapping_add(unzigzag(tsc_delta) as u64);
        self.prev_tsc = tsc;
        let tid_delta = get_varint(buf, pos).ok_or(TraceError::Truncated)?;
        let tid = i64::from(self.prev_tid).wrapping_add(unzigzag(tid_delta)) as u32;
        self.prev_tid = tid;
        let mask = *buf.get(*pos).ok_or(TraceError::Truncated)?;
        *pos += 1;
        let mut args = [0u64; 6];
        for (i, a) in args.iter_mut().enumerate() {
            if mask & (1 << i) != 0 {
                *a = get_varint(buf, pos).ok_or(TraceError::Truncated)?;
            }
        }
        let ret = unzigzag(get_varint(buf, pos).ok_or(TraceError::Truncated)?) as u64;
        Ok(Some(EventRecord {
            sysno,
            args,
            ret,
            tsc,
            site,
            tid,
        }))
    }

    /// Decodes every record remaining in `buf` from offset `pos`.
    pub fn decode_all(
        &mut self,
        buf: &[u8],
        mut pos: usize,
    ) -> Result<Vec<EventRecord>, TraceError> {
        let mut out = Vec::new();
        while let Some(rec) = self.decode_next(buf, &mut pos)? {
            out.push(rec);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(records: &[EventRecord]) -> Vec<EventRecord> {
        let mut enc = Lp2Encoder::new();
        let mut bytes = Vec::new();
        for r in records {
            enc.encode(r, &mut bytes);
        }
        Lp2Decoder::new().decode_all(&bytes, 0).unwrap()
    }

    #[test]
    fn varint_roundtrip_edges() {
        for v in [0u64, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX] {
            let mut out = Vec::new();
            put_varint(&mut out, v);
            let mut pos = 0;
            assert_eq!(get_varint(&out, &mut pos), Some(v));
            assert_eq!(pos, out.len());
        }
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn typical_stream_roundtrips_and_compresses() {
        let mut records = Vec::new();
        let mut tsc = 1_000_000u64;
        for i in 0..1000u64 {
            tsc += 150 + i % 7;
            records.push(EventRecord {
                sysno: syscalls::nr::GETPID + i % 3,
                args: [3, 0x1000, 64, 0, 0, 0],
                ret: 64,
                tsc,
                site: 0x40_0000 + (i % 5) * 16,
                tid: 100 + (i % 4) as u32,
            });
        }
        let mut enc = Lp2Encoder::new();
        let mut bytes = Vec::new();
        for r in &records {
            enc.encode(r, &mut bytes);
        }
        assert_eq!(roundtrip(&records), records);
        let fixed = records.len() * crate::event::RECORD_SIZE;
        assert!(
            bytes.len() * 3 <= fixed,
            "compression below 1/3 of LPTRACE1 on a typical stream: {} vs {fixed}",
            bytes.len()
        );
    }

    #[test]
    fn adversarial_values_roundtrip() {
        let records = vec![
            EventRecord {
                sysno: u64::MAX,
                args: [u64::MAX; 6],
                ret: u64::MAX,
                tsc: u64::MAX, // next delta wraps
                site: u64::MAX,
                tid: u32::MAX,
            },
            EventRecord {
                sysno: 0,
                args: [0; 6],
                ret: (-4095i64) as u64,
                tsc: 0, // wrapping delta from u64::MAX
                site: 0,
                tid: 0,
            },
            EventRecord::ZERO,
        ];
        assert_eq!(roundtrip(&records), records);
    }

    #[test]
    fn dictionary_overflow_falls_back_to_literals() {
        // More distinct (sysno, site) pairs than DICT_CAP: the tail
        // stays literal on both sides and still round-trips.
        let n = DICT_CAP + 50;
        let records: Vec<EventRecord> = (0..n as u64)
            .map(|i| EventRecord {
                sysno: i,
                site: i * 2,
                tsc: i * 100,
                ..EventRecord::ZERO
            })
            .collect();
        assert_eq!(roundtrip(&records), records);
    }

    #[test]
    fn truncation_inside_a_record_is_detected() {
        let mut enc = Lp2Encoder::new();
        let mut bytes = Vec::new();
        enc.encode(
            &EventRecord {
                sysno: 1,
                tsc: 500,
                ..EventRecord::ZERO
            },
            &mut bytes,
        );
        let full = bytes.len();
        // Every proper prefix (except empty = clean EOF) is truncated.
        for cut in 1..full {
            let mut dec = Lp2Decoder::new();
            assert!(
                matches!(dec.decode_all(&bytes[..cut], 0), Err(TraceError::Truncated)),
                "cut at {cut} must be Truncated"
            );
        }
        assert!(Lp2Decoder::new().decode_all(&bytes[..0], 0).unwrap().is_empty());
        assert_eq!(Lp2Decoder::new().decode_all(&bytes, 0).unwrap().len(), 1);
    }

    #[test]
    fn bad_dictionary_reference_is_structured() {
        // key = 5 with an empty dictionary.
        let bytes = [5u8, 0, 0, 0, 0];
        let mut dec = Lp2Decoder::new();
        assert!(matches!(
            dec.decode_all(&bytes, 0),
            Err(TraceError::Truncated)
        ));
    }
}
