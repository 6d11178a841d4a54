//! Compact record encoding: `LPTRACE3`, and `LPTRACE2` on request.
//!
//! LPTRACE1 spends a fixed 88 bytes per record; at production event
//! rates the disk write becomes the recorder's bottleneck. The varint
//! generations exploit what syscall streams actually look like — the
//! same few (sysno, call-site) pairs repeat millions of times,
//! timestamps are monotonic with small deltas, and a site mostly
//! repeats the arguments and result it had the last time. LPTRACE2
//! (~15 B/event on `record_stream`'s mix) codes every record on its
//! own; LPTRACE3 (~4 B/event there) codes a record's arguments and
//! return value against the last record from the same site, and is
//! what every recording writes (see `DESIGN.md` §5).
//!
//! # Record wire format (all varints LEB128, little-endian groups)
//!
//! | field | encoding |
//! |-------|----------|
//! | key | varint: `0` = literal escape, then varint sysno + varint site; `k>0` = dictionary entry `k-1` |
//! | tsc | zigzag varint of the **wrapping** delta from the previous record's tsc |
//! | tid | v2 only: zigzag varint of the delta from the previous record's tid |
//! | flags | one byte: bit *i* < 6 ⇔ `args[i]` differs from the reference; v3 only: bit 6 ⇔ ret differs, bit 7 ⇔ tid differs from the previous record's |
//! | tid | v3, when flag 7 is set: zigzag varint of the delta from the previous record's tid |
//! | args | varint of each `args[i]` whose flag is set; the others are the reference's |
//! | ret | zigzag varint (returns are small positives or small `-errno`s); v3 writes it only when flag 6 is set |
//!
//! The *reference* of a v3 record is the args and ret of the last
//! record with the same key, or all zero when the key joins the
//! dictionary with this record or is a literal past [`DICT_CAP`]. v2
//! pins it at zero (its flags are the nonzero-argument mask) and always
//! writes tid and ret, so one encoder and one decoder serve both.
//!
//! The (sysno, site) dictionary is built **implicitly and identically**
//! on both sides: each literal escape appends to the dictionary while
//! it has room ([`DICT_CAP`]); once full, further new pairs stay
//! literal forever. There is no table in the file and no
//! synchronization to get wrong — the decoder replays exactly the
//! inserts (and, in v3, the reference updates) the encoder performed.
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
use crate::format::{TraceError, VERSION2, VERSION3};

/// Dictionary entries both sides will build before falling back to
/// literal-only encoding. 2¹⁶ distinct (sysno, site) pairs is far past
/// any real workload (the paper's exhaustiveness suite exercises a few
/// hundred sites).
pub const DICT_CAP: usize = 1 << 16;

/// Worst-case encoded size of one record, in either generation: literal
/// key (1 + 10 + 10) + tsc (10) + tid (5: a zigzagged 33-bit
/// difference) + flags (1) + six args (60) + ret (10). The encoder
/// writes into this much reserved room without further checks.
pub const MAX_ENCODED_SIZE: usize = 107;

/// Slots in the encoder's direct-mapped front of its dictionary.
const FRONT_SLOTS: usize = 256;

/// v3 flag: the return value differs from the reference.
const RET_CHANGED: u8 = 1 << 6;

/// v3 flag: the tid differs from the previous record's.
const TID_CHANGED: u8 = 1 << 7;

/// A record's six args and its ret, in that order: what a v3 record is
/// coded against.
type Values = [u64; 7];

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

/// Stores `v` as LEB128 at `p` and returns the byte after it.
///
/// # Safety
/// `p` must be valid for writes of `v`'s encoded length (≤ 10 bytes).
#[inline(always)]
unsafe fn put_varint_at(mut p: *mut u8, mut v: u64) -> *mut u8 {
    while v >= 0x80 {
        *p = v as u8 | 0x80;
        p = p.add(1);
        v >>= 7;
    }
    *p = v as u8;
    p.add(1)
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

/// Whether `version` codes against references: [`VERSION3`] does,
/// [`VERSION2`] does not. Any other generation is a caller's bug (the
/// header reader rejects it before a decoder exists).
fn against_references(version: u32) -> bool {
    assert!(
        version == VERSION2 || version == VERSION3,
        "no varint codec for trace format generation {version}"
    );
    version == VERSION3
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

/// Streaming record encoder: one per trace, records in trace order.
pub struct Encoder {
    /// v3: code args and ret against `refs`; v2: against zero.
    v3: bool,
    /// The authority: every pair the stream has given an index.
    dict: HashMap<(u64, u64), u64, BuildHasherDefault<PairHasher>>,
    /// Direct-mapped cache of `dict` entries, `(sysno, site, idx + 1)`
    /// with 0 = empty: a hot pair costs a multiply and one compare.
    /// Allocated at the first dictionary hit, so opening a session does
    /// not grow a preloaded program's heap: its `brk`s are part of the
    /// flow a recording captures.
    front: Vec<(u64, u64, u64)>,
    /// v3: the reference of each dictionary index, in step with `dict`.
    refs: Vec<Values>,
    prev_tsc: u64,
    prev_tid: u32,
}

/// The encoder's former name, kept for callers that still use it.
pub type Lp2Encoder = Encoder;

/// `front` slot of a pair: the top byte of the sum's multiply, which
/// every bit of both words reaches (pairs with equal sums share a slot,
/// which costs them a `HashMap` lookup).
#[inline]
fn front_slot(sysno: u64, site: u64) -> usize {
    (site.wrapping_add(sysno).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 56) as usize
}

impl Default for Encoder {
    fn default() -> Encoder {
        Encoder::new()
    }
}

impl Encoder {
    /// An encoder of the generation every recording writes
    /// ([`VERSION3`]), with an empty dictionary and zero deltas —
    /// matches a fresh [`Decoder`].
    pub fn new() -> Encoder {
        Encoder::for_version(VERSION3)
    }

    /// A fresh encoder of format generation `version` ([`VERSION2`] or
    /// [`VERSION3`]).
    pub fn for_version(version: u32) -> Encoder {
        Encoder {
            v3: against_references(version),
            dict: HashMap::default(),
            front: Vec::new(),
            refs: Vec::new(),
            prev_tsc: 0,
            prev_tid: 0,
        }
    }

    /// The record's key: `idx + 1` of a known pair, 0 (the literal
    /// escape) for a new one, which joins the dictionary while it has
    /// room.
    #[inline]
    fn key(&mut self, sysno: u64, site: u64) -> u64 {
        let slot = front_slot(sysno, site);
        if let Some(&(s, p, key)) = self.front.get(slot) {
            if key != 0 && s == sysno && p == site {
                return key;
            }
        }
        let key = match self.dict.get(&(sysno, site)) {
            Some(&idx) => idx + 1,
            None if self.dict.len() < DICT_CAP => {
                self.dict.insert((sysno, site), self.dict.len() as u64);
                return 0;
            }
            None => return 0,
        };
        if self.front.is_empty() {
            self.front = vec![(0, 0, 0); FRONT_SLOTS];
        }
        self.front[slot] = (sysno, site, key);
        key
    }

    /// Appends `rec`'s encoding to `out` and returns the encoded byte
    /// length.
    pub fn encode(&mut self, rec: &EventRecord, out: &mut Vec<u8>) -> usize {
        if self.v3 {
            self.encode_as::<true>(rec, out)
        } else {
            self.encode_as::<false>(rec, out)
        }
    }

    /// [`encode`](Self::encode) at one generation, so that its
    /// generation branches are settled at compile time.
    #[inline(always)]
    fn encode_as<const V3: bool>(&mut self, rec: &EventRecord, out: &mut Vec<u8>) -> usize {
        let key = self.key(rec.sysno, rec.site);
        let tsc_delta = zigzag(rec.tsc.wrapping_sub(self.prev_tsc) as i64);
        let tid_delta = zigzag(i64::from(rec.tid).wrapping_sub(i64::from(self.prev_tid)));
        self.prev_tsc = rec.tsc;
        self.prev_tid = rec.tid;
        // Where this record's values become its key's reference: a known
        // key's entry, or a new one when the key just joined `dict` (the
        // only way `refs` falls behind it). v2 and literals past the
        // cap keep none, and code against zero.
        let slot = if !V3 {
            None
        } else if key != 0 {
            Some(&mut self.refs[key as usize - 1])
        } else if self.refs.len() < self.dict.len() {
            self.refs.push([0; 7]);
            self.refs.last_mut()
        } else {
            None
        };
        let reference = slot.as_deref().copied().unwrap_or([0; 7]);
        out.reserve(MAX_ENCODED_SIZE);
        let start = out.len();
        // SAFETY: `reserve` left at least MAX_ENCODED_SIZE writable bytes
        // past `start`, and no record encodes to more (the constant is
        // the field-by-field worst case, which a unit test builds for
        // each generation). Every byte below `p` is written before
        // `set_len` exposes it.
        let n = unsafe {
            let base = out.as_mut_ptr().add(start);
            let mut p = put_varint_at(base, key);
            if key == 0 {
                p = put_varint_at(p, rec.sysno);
                p = put_varint_at(p, rec.site);
            }
            p = put_varint_at(p, tsc_delta);
            if !V3 {
                p = put_varint_at(p, tid_delta);
            }
            let flags_at = p;
            p = p.add(1);
            let mut flags = 0u8;
            if V3 && tid_delta != 0 {
                flags |= TID_CHANGED;
                p = put_varint_at(p, tid_delta);
            }
            for (i, &a) in rec.args.iter().enumerate() {
                if a != reference[i] {
                    flags |= 1 << i;
                    p = put_varint_at(p, a);
                }
            }
            if !V3 || rec.ret != reference[6] {
                if V3 {
                    flags |= RET_CHANGED;
                }
                p = put_varint_at(p, zigzag(rec.ret as i64));
            }
            *flags_at = flags;
            let n = p.offset_from(base) as usize;
            out.set_len(start + n);
            n
        };
        if let Some(slot) = slot {
            slot[..6].copy_from_slice(&rec.args);
            slot[6] = rec.ret;
        }
        n
    }
}

// ——— decoder ————————————————————————————————————————————————————————

/// Streaming record decoder — mirrors [`Encoder`]'s state machine
/// (same implicit dictionary inserts, same references, same delta
/// bases).
pub struct Decoder {
    /// v3: read args and ret against each entry's reference.
    v3: bool,
    /// `(sysno, site, reference)` per dictionary index; v2 leaves every
    /// reference at zero.
    dict: Vec<(u64, u64, Values)>,
    prev_tsc: u64,
    prev_tid: u32,
}

/// The decoder's former name, kept for callers that still use it.
pub type Lp2Decoder = Decoder;

impl Default for Decoder {
    fn default() -> Decoder {
        Decoder::new()
    }
}

impl Decoder {
    /// A decoder of the generation every recording writes
    /// ([`VERSION3`]), in the initial state (empty dictionary, zero
    /// deltas).
    pub fn new() -> Decoder {
        Decoder::for_version(VERSION3)
    }

    /// A fresh decoder of format generation `version` ([`VERSION2`] or
    /// [`VERSION3`]).
    pub fn for_version(version: u32) -> Decoder {
        Decoder {
            v3: against_references(version),
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
        if self.v3 {
            self.decode_as::<true>(buf, pos)
        } else {
            self.decode_as::<false>(buf, pos)
        }
    }

    /// [`decode_next`](Self::decode_next) at one generation, so that its
    /// generation branches are settled at compile time.
    #[inline(always)]
    fn decode_as<const V3: bool>(
        &mut self,
        buf: &[u8],
        pos: &mut usize,
    ) -> Result<Option<EventRecord>, TraceError> {
        if *pos >= buf.len() {
            return Ok(None);
        }
        let varint = |pos: &mut usize| get_varint(buf, pos).ok_or(TraceError::Truncated);
        let key = varint(pos)?;
        // The pair and its dictionary index; a literal past the cap has
        // none, and is read against zero.
        let (sysno, site, idx) = if key == 0 {
            let sysno = varint(pos)?;
            let site = varint(pos)?;
            let idx = (self.dict.len() < DICT_CAP).then(|| {
                self.dict.push((sysno, site, [0; 7]));
                self.dict.len() - 1
            });
            (sysno, site, idx)
        } else {
            let idx = key as usize - 1;
            let &(sysno, site, _) = self.dict.get(idx).ok_or(TraceError::Truncated)?;
            (sysno, site, Some(idx))
        };
        let mut values = match idx {
            Some(i) if V3 => self.dict[i].2,
            _ => [0; 7],
        };
        let tsc = self.prev_tsc.wrapping_add(unzigzag(varint(pos)?) as u64);
        let byte = |pos: &mut usize| {
            let b = *buf.get(*pos).ok_or(TraceError::Truncated)?;
            *pos += 1;
            Ok::<u8, TraceError>(b)
        };
        // v2 writes the tid before its mask and the ret always; v3's
        // flags say which of the two follow.
        let (flags, tid_delta) = if V3 {
            let flags = byte(pos)?;
            let tid_delta = if flags & TID_CHANGED != 0 { varint(pos)? } else { 0 };
            (flags, tid_delta)
        } else {
            let tid_delta = varint(pos)?;
            let mask = byte(pos)? & !(RET_CHANGED | TID_CHANGED);
            (mask | RET_CHANGED, tid_delta)
        };
        let tid = i64::from(self.prev_tid).wrapping_add(unzigzag(tid_delta)) as u32;
        for (i, v) in values[..6].iter_mut().enumerate() {
            if flags & (1 << i) != 0 {
                *v = varint(pos)?;
            }
        }
        if flags & RET_CHANGED != 0 {
            values[6] = unzigzag(varint(pos)?) as u64;
        }
        if let (true, Some(i)) = (V3, idx) {
            self.dict[i].2 = values;
        }
        self.prev_tsc = tsc;
        self.prev_tid = tid;
        let [a0, a1, a2, a3, a4, a5, ret] = values;
        Ok(Some(EventRecord {
            sysno,
            args: [a0, a1, a2, a3, a4, a5],
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

    const BOTH: [u32; 2] = [VERSION2, VERSION3];

    fn encode_all(version: u32, records: &[EventRecord]) -> Vec<u8> {
        let mut enc = Encoder::for_version(version);
        let mut bytes = Vec::new();
        for r in records {
            enc.encode(r, &mut bytes);
        }
        bytes
    }

    fn roundtrip(version: u32, records: &[EventRecord]) -> Vec<EventRecord> {
        let bytes = encode_all(version, records);
        Decoder::for_version(version).decode_all(&bytes, 0).unwrap()
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
        for version in BOTH {
            let bytes = encode_all(version, &records);
            assert_eq!(roundtrip(version, &records), records);
            let fixed = records.len() * crate::event::RECORD_SIZE;
            assert!(
                bytes.len() * 3 <= fixed,
                "v{version}: compression below 1/3 of LPTRACE1 on a typical stream: {} vs {fixed}",
                bytes.len()
            );
        }
    }

    /// Fixed args and ret per site, one thread, advancing timestamps:
    /// `record_stream`'s shape. A v3 record is then key, tsc delta and
    /// flags.
    #[test]
    fn mix_shaped_stream_codes_to_at_most_five_bytes_per_event() {
        let records: Vec<EventRecord> = (0..10_000u64)
            .map(|i| {
                let sysno = [0, 1, 39, 257, 3, 5, 8, 9][(i * 7 % 8) as usize];
                EventRecord {
                    sysno,
                    args: [3, 0x7ffd_0000_1000, 1, 0, 0, 0],
                    ret: sysno % 4,
                    tsc: 1_000_000 + 900 * i,
                    site: 0x7f00_0000_0000 + 64 * sysno,
                    tid: 4242,
                }
            })
            .collect();
        let v2 = encode_all(VERSION2, &records).len();
        let v3 = encode_all(VERSION3, &records).len();
        assert!(v3 <= 5 * records.len(), "v3: {v3} B for {} events", records.len());
        assert!(v3 * 2 < v2, "v3 {v3} B against v2 {v2} B");
        assert_eq!(roundtrip(VERSION3, &records), records);
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
            EventRecord {
                sysno: u64::MAX,
                site: u64::MAX,
                ..EventRecord::ZERO // every value back to zero at a known key
            },
        ];
        for version in BOTH {
            assert_eq!(roundtrip(version, &records), records, "v{version}");
        }
    }

    #[test]
    fn worst_record_fills_max_encoded_size_exactly() {
        // Every field at its longest: a literal all-ones key, the tsc
        // delta i64::MIN, the tid delta 0 → u32::MAX (a changed tid),
        // six all-ones args and ret i64::MIN (all changed against a new
        // key's zero reference).
        let worst = EventRecord {
            sysno: u64::MAX,
            args: [u64::MAX; 6],
            ret: i64::MIN as u64,
            tsc: i64::MIN as u64,
            site: u64::MAX,
            tid: u32::MAX,
        };
        for version in BOTH {
            let mut bytes = Vec::new();
            assert_eq!(
                Encoder::for_version(version).encode(&worst, &mut bytes),
                MAX_ENCODED_SIZE,
                "v{version}"
            );
            assert_eq!(bytes.len(), MAX_ENCODED_SIZE);
            let decoded = Decoder::for_version(version).decode_all(&bytes, 0);
            assert_eq!(decoded.unwrap(), [worst]);
        }
    }

    #[test]
    fn dictionary_overflow_falls_back_to_literals() {
        // More distinct (sysno, site) pairs than DICT_CAP: the tail
        // stays literal on both sides and still round-trips, and so do
        // repeats of a pair past the cap, coded against zero.
        let n = DICT_CAP + 50;
        let mut records: Vec<EventRecord> = (0..n as u64)
            .map(|i| EventRecord {
                sysno: i,
                site: i * 2,
                args: [i; 6],
                tsc: i * 100,
                ..EventRecord::ZERO
            })
            .collect();
        records.extend_from_within(n - 100..);
        for version in BOTH {
            assert_eq!(roundtrip(version, &records), records, "v{version}");
        }
    }

    #[test]
    fn truncation_inside_a_record_is_detected() {
        for version in BOTH {
            let bytes = encode_all(
                version,
                &[EventRecord {
                    sysno: 1,
                    tsc: 500,
                    ret: 7,
                    tid: 3,
                    ..EventRecord::ZERO
                }],
            );
            let full = bytes.len();
            // Every proper prefix (except empty = clean EOF) is truncated.
            for cut in 1..full {
                let mut dec = Decoder::for_version(version);
                assert!(
                    matches!(dec.decode_all(&bytes[..cut], 0), Err(TraceError::Truncated)),
                    "v{version}: cut at {cut} must be Truncated"
                );
            }
            let mut dec = Decoder::for_version(version);
            assert!(dec.decode_all(&bytes[..0], 0).unwrap().is_empty());
            let mut dec = Decoder::for_version(version);
            assert_eq!(dec.decode_all(&bytes, 0).unwrap().len(), 1);
        }
    }

    #[test]
    fn bad_dictionary_reference_is_structured() {
        // key = 5 with an empty dictionary.
        let bytes = [5u8, 0, 0, 0, 0];
        for version in BOTH {
            assert!(matches!(
                Decoder::for_version(version).decode_all(&bytes, 0),
                Err(TraceError::Truncated)
            ));
        }
    }
}
