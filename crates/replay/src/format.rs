//! The versioned binary trace format and its strace-like `dump`
//! rendering.
//!
//! # Layout
//!
//! A trace is a 64-byte header followed by the record payload. Both
//! format generations share the header layout; the magic carries the
//! generation and selects the payload encoding:
//!
//! | offset | size | field |
//! |-------:|-----:|-------|
//! | 0  | 8  | magic `"LPTRACE2"` or `"LPTRACE3"` |
//! | 8  | 4  | format version (LE u32; 2 or 3, matching the magic) |
//! | 12 | 4  | architecture (ELF machine id; 62 = x86-64) |
//! | 16 | 4  | page size of the recording host |
//! | 20 | 4  | 0 (records are variable-length) |
//! | 24 | 8  | TSC frequency in Hz (0 = uncalibrated) |
//! | 32 | 8  | events dropped by the overflow policy (patched at finalize) |
//! | 40 | 24 | recording mechanism name, NUL-padded |
//!
//! Both payloads are self-delimiting [`codec`](crate::codec) varint
//! streams — clean EOF at a record boundary ends the trace; v3 codes
//! each record's args and ret against the last record from its site.
//! Readers accept both generations transparently. Recordings write v3;
//! the writer writes v2 only when its header asks for it.
//!
//! Everything is little-endian. The header is written first with
//! `events_dropped = 0` and patched in place (with the TSC frequency,
//! which a recording measures over its own length) on
//! [`TraceWriter::finalize`], so a crash mid-recording leaves a
//! readable (if drop-undercounting) trace — flight-recorder semantics.

use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;

use crate::codec::{Decoder, Encoder, MAX_ENCODED_SIZE};
use crate::event::EventRecord;

/// Trace file magic of the compressed-varint generation.
pub const MAGIC2: [u8; 8] = *b"LPTRACE2";

/// Trace file magic of the generation that codes each record against
/// the last one from its site.
pub const MAGIC3: [u8; 8] = *b"LPTRACE3";

/// The compressed format generation, written when a header asks for it.
pub const VERSION2: u32 = 2;

/// The per-site reference generation — what every recording writes.
pub const VERSION3: u32 = 3;

/// Header size in bytes.
pub const HEADER_SIZE: usize = 64;

/// ELF machine id for x86-64, the only architecture the native
/// interposers support.
pub const ARCH_X86_64: u32 = 62;

/// Byte offset of the `tsc_hz` header field; `events_dropped` follows
/// it, and finalize patches the pair.
const TSC_HZ_OFFSET: u64 = 24;

/// Encoded bytes [`TraceWriter::append`] collects before it writes
/// them out on its own.
const BATCH_BYTES: usize = 64 << 10;

/// Maximum stored length of the source-mechanism name.
const MECHANISM_FIELD: usize = 24;

/// The decoded trace header.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceHeader {
    /// Format generation: [`VERSION3`], or the generation of the trace
    /// it was read from.
    pub version: u32,
    /// Architecture of the recording host ([`ARCH_X86_64`]).
    pub arch: u32,
    /// Page size of the recording host.
    pub page_size: u32,
    /// TSC frequency in Hz; 0 when calibration was unavailable.
    pub tsc_hz: u64,
    /// Events the overflow policy dropped during recording.
    pub events_dropped: u64,
    /// Registry name of the mechanism the trace was recorded under
    /// (e.g. `lazypoline`) — replay uses it to pick its base
    /// mechanism.
    pub source_mechanism: String,
}

impl TraceHeader {
    /// A fresh header for a recording on this host.
    pub fn new(source_mechanism: &str, tsc_hz: u64) -> TraceHeader {
        TraceHeader {
            version: VERSION3,
            arch: ARCH_X86_64,
            page_size: 4096,
            tsc_hz,
            events_dropped: 0,
            source_mechanism: source_mechanism.to_string(),
        }
    }

    /// The same header re-stamped at format generation `version`
    /// ([`VERSION2`] or [`VERSION3`]).
    pub fn with_version(mut self, version: u32) -> TraceHeader {
        assert!(
            magic_of(version).is_some(),
            "unknown trace format generation {version}"
        );
        self.version = version;
        self
    }

    /// The wire layout (record size 0: records are variable-length).
    fn encode(&self) -> [u8; HEADER_SIZE] {
        let mut out = [0u8; HEADER_SIZE];
        let magic = magic_of(self.version).expect("writers take known generations only");
        out[0..8].copy_from_slice(&magic);
        out[8..12].copy_from_slice(&self.version.to_le_bytes());
        out[12..16].copy_from_slice(&self.arch.to_le_bytes());
        out[16..20].copy_from_slice(&self.page_size.to_le_bytes());
        out[24..32].copy_from_slice(&self.tsc_hz.to_le_bytes());
        out[32..40].copy_from_slice(&self.events_dropped.to_le_bytes());
        let name = self.source_mechanism.as_bytes();
        let n = name.len().min(MECHANISM_FIELD - 1); // keep a NUL
        out[40..40 + n].copy_from_slice(&name[..n]);
        out
    }

    fn decode(buf: &[u8; HEADER_SIZE]) -> Result<TraceHeader, TraceError> {
        let expected_version = [VERSION2, VERSION3]
            .into_iter()
            .find(|&v| magic_of(v).is_some_and(|m| buf[0..8] == m))
            .ok_or(TraceError::BadMagic)?;
        let u32_at = |o: usize| u32::from_le_bytes(buf[o..o + 4].try_into().unwrap());
        let u64_at = |o: usize| u64::from_le_bytes(buf[o..o + 8].try_into().unwrap());
        let version = u32_at(8);
        if version != expected_version {
            return Err(TraceError::BadVersion(version));
        }
        let name_field = &buf[40..40 + MECHANISM_FIELD];
        let end = name_field.iter().position(|&b| b == 0).unwrap_or(MECHANISM_FIELD);
        Ok(TraceHeader {
            version,
            arch: u32_at(12),
            page_size: u32_at(16),
            tsc_hz: u64_at(24),
            events_dropped: u64_at(32),
            source_mechanism: String::from_utf8_lossy(&name_field[..end]).into_owned(),
        })
    }
}

/// The magic of format generation `version`, if it is one.
fn magic_of(version: u32) -> Option<[u8; 8]> {
    match version {
        VERSION2 => Some(MAGIC2),
        VERSION3 => Some(MAGIC3),
        _ => None,
    }
}

/// Why a trace could not be read.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file does not start with [`MAGIC2`] or [`MAGIC3`].
    BadMagic,
    /// The file's format version is not the one its magic names.
    BadVersion(u32),
    /// The file ends mid-record (or mid-header).
    Truncated,
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace I/O failed: {e}"),
            TraceError::BadMagic => write!(f, "not a lazypoline trace (bad magic)"),
            TraceError::BadVersion(v) => {
                write!(
                    f,
                    "unsupported trace version {v} (this build reads {VERSION2} and {VERSION3})"
                )
            }
            TraceError::Truncated => write!(f, "trace truncated mid-record"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> TraceError {
        TraceError::Io(e)
    }
}

impl From<TraceError> for io::Error {
    fn from(e: TraceError) -> io::Error {
        match e {
            TraceError::Io(e) => e,
            other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

/// Streams records into the binary trace format: the header, then the
/// compressed [`codec`](crate::codec) stream of the header's generation
/// (v3, or v2 when the header asks for it).
pub struct TraceWriter<W: Write + Seek> {
    out: W,
    events: u64,
    bytes: u64,
    tsc_hz: u64,
    encoder: Encoder,
    /// Encoded records not yet written to `out`.
    scratch: Vec<u8>,
}

impl<W: Write + Seek> TraceWriter<W> {
    /// Writes the header (with `events_dropped = 0`, patched later)
    /// and readies the writer for [`append`](TraceWriter::append).
    /// A header of any other generation is `InvalidInput`.
    pub fn new(mut out: W, header: &TraceHeader) -> io::Result<TraceWriter<W>> {
        if header.version != VERSION2 && header.version != VERSION3 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "trace format {} is not written; writers emit {VERSION3} (or {VERSION2})",
                    header.version
                ),
            ));
        }
        out.write_all(&header.encode())?;
        Ok(TraceWriter {
            out,
            events: 0,
            bytes: HEADER_SIZE as u64,
            tsc_hz: header.tsc_hz,
            encoder: Encoder::for_version(header.version),
            scratch: Vec::with_capacity(BATCH_BYTES + MAX_ENCODED_SIZE),
        })
    }

    /// Appends one record. Its bytes reach the sink with the batch they
    /// fill, at the next [`flush`](TraceWriter::flush), or at
    /// [`finalize`](TraceWriter::finalize).
    pub fn append(&mut self, rec: &EventRecord) -> io::Result<()> {
        self.bytes += self.encoder.encode(rec, &mut self.scratch) as u64;
        self.events += 1;
        if self.scratch.len() >= BATCH_BYTES {
            self.flush()?;
        }
        Ok(())
    }

    /// Writes every appended record's bytes to the sink.
    pub fn flush(&mut self) -> io::Result<()> {
        self.out.write_all(&self.scratch)?;
        self.scratch.clear();
        Ok(())
    }

    /// Records appended so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Bytes appended so far (header included).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Replaces the header's TSC frequency, for a recording that
    /// calibrates while it runs; [`finalize`](TraceWriter::finalize)
    /// writes it.
    pub fn set_tsc_hz(&mut self, tsc_hz: u64) {
        self.tsc_hz = tsc_hz;
    }

    /// Writes out what is buffered, patches the TSC frequency and the
    /// final drop count into the header, flushes, and returns the
    /// underlying writer plus the record count.
    pub fn finalize(mut self, events_dropped: u64) -> io::Result<(W, u64)> {
        self.flush()?;
        self.out.seek(SeekFrom::Start(TSC_HZ_OFFSET))?;
        self.out.write_all(&self.tsc_hz.to_le_bytes())?;
        self.out.write_all(&events_dropped.to_le_bytes())?;
        self.out.seek(SeekFrom::End(0))?;
        self.out.flush()?;
        Ok((self.out, self.events))
    }
}

/// Reads a complete trace from `r`: header plus every record.
pub fn read_trace<R: Read>(mut r: R) -> Result<(TraceHeader, Vec<EventRecord>), TraceError> {
    let mut hdr = [0u8; HEADER_SIZE];
    r.read_exact(&mut hdr).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            TraceError::Truncated
        } else {
            TraceError::Io(e)
        }
    })?;
    let header = TraceHeader::decode(&hdr)?;
    // Records are variable-length: pull the payload in and let the
    // streaming decoder delimit (clean EOF at a boundary ends the trace;
    // EOF inside a record is Truncated).
    let mut payload = Vec::new();
    r.read_to_end(&mut payload).map_err(TraceError::Io)?;
    let records = Decoder::for_version(header.version).decode_all(&payload, 0)?;
    Ok((header, records))
}

/// Reads a complete trace from a file path.
pub fn read_trace_path(path: &Path) -> Result<(TraceHeader, Vec<EventRecord>), TraceError> {
    read_trace(io::BufReader::new(File::open(path)?))
}

/// Renders one record as an strace-like line into `buf`, returning the
/// byte length: the existing shared syscall formatter
/// ([`interpose::format_syscall_line`]) plus a ` = <ret>` suffix.
///
/// This is **the** text rendering of a recorded syscall — the
/// `lp-trace dump` subcommand and the `strace_lite` example both go
/// through here, so there is exactly one formatting path.
pub fn render_record(rec: &EventRecord, buf: &mut [u8]) -> usize {
    let call = syscalls::SyscallArgs::new(rec.sysno, rec.args);
    let mut n = interpose::format_syscall_line(&call, rec.site as usize, buf);
    // Replace the formatter's trailing newline with " = <ret>\n".
    if n > 0 && buf[n - 1] == b'\n' {
        n -= 1;
    }
    let mut push = |b: u8| {
        if n < buf.len() {
            buf[n] = b;
            n += 1;
        }
    };
    for b in b" = " {
        push(*b);
    }
    let ret = rec.ret as i64;
    // Signed decimal, matching strace's result column (-errno visible).
    let mut digits = [0u8; 20];
    let mut v = ret.unsigned_abs();
    let mut k = 0;
    loop {
        digits[k] = b'0' + (v % 10) as u8;
        v /= 10;
        k += 1;
        if v == 0 {
            break;
        }
    }
    if ret < 0 {
        push(b'-');
    }
    for i in (0..k).rev() {
        push(digits[i]);
    }
    push(b'\n');
    n
}

/// Renders a whole trace strace-style into `out` (header summary line
/// first, then one line per record).
pub fn dump_trace(path: &Path, out: &mut impl Write) -> Result<u64, TraceError> {
    let (header, records) = read_trace_path(path)?;
    writeln!(
        out,
        "# lazypoline trace v{}: {} events, {} dropped, recorded under {:?} (tsc {} Hz)",
        header.version,
        records.len(),
        header.events_dropped,
        header.source_mechanism,
        header.tsc_hz,
    )?;
    let mut buf = [0u8; 256];
    for rec in &records {
        let n = render_record(rec, &mut buf);
        out.write_all(&buf[..n])?;
    }
    Ok(records.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn sample(n: u64) -> EventRecord {
        EventRecord {
            sysno: syscalls::nr::READ,
            args: [3, 0x1000, 64, 0, 0, 0],
            ret: 64,
            tsc: n,
            site: 0x40_0000 + n,
            tid: 7,
        }
    }

    #[test]
    fn write_read_roundtrip_with_drop_patch() {
        let header = TraceHeader::new("lazypoline", 2_100_000_000);
        let mut w = TraceWriter::new(Cursor::new(Vec::new()), &header).unwrap();
        for i in 0..5 {
            w.append(&sample(i)).unwrap();
        }
        let (cursor, events) = w.finalize(42).unwrap();
        assert_eq!(events, 5);

        let (h, recs) = read_trace(Cursor::new(cursor.into_inner())).unwrap();
        assert_eq!(h.version, VERSION3, "new headers are stamped v3");
        assert_eq!(h.events_dropped, 42, "finalize patches the header");
        assert_eq!(h.source_mechanism, "lazypoline");
        assert_eq!(h.tsc_hz, 2_100_000_000);
        assert_eq!(recs.len(), 5);
        assert_eq!(recs[3], sample(3));
    }

    #[test]
    fn appends_reach_the_sink_in_batches_at_flush_and_at_finalize() {
        let header = TraceHeader::new("x", 0);
        let mut w = TraceWriter::new(Cursor::new(Vec::new()), &header).unwrap();
        w.append(&sample(0)).unwrap();
        assert_eq!(w.out.get_ref().len(), HEADER_SIZE, "buffered, not written");
        w.flush().unwrap();
        assert_eq!(w.out.get_ref().len() as u64, w.bytes());
        let (flushed, mut n) = (w.bytes(), 1);
        while w.out.get_ref().len() as u64 == flushed {
            assert!(w.bytes() < flushed + (BATCH_BYTES + MAX_ENCODED_SIZE) as u64);
            w.append(&sample(n)).unwrap();
            n += 1;
        }
        assert!(w.bytes() >= flushed + BATCH_BYTES as u64, "a full batch");
        assert_eq!(w.out.get_ref().len() as u64, w.bytes(), "went out whole");
        w.append(&sample(n)).unwrap();
        // A session calibrates while it records; finalize stamps it.
        w.set_tsc_hz(2_400_000_000);
        let (cursor, events) = w.finalize(3).unwrap();
        let (h, recs) = read_trace(Cursor::new(cursor.into_inner())).unwrap();
        assert_eq!((h.tsc_hz, h.events_dropped), (2_400_000_000, 3));
        assert_eq!(recs.len() as u64, events);
        assert_eq!(recs.last(), Some(&sample(n)));
    }

    #[test]
    fn v2_write_read_roundtrip_is_transparent_and_smaller() {
        let header = TraceHeader::new("lazypoline", 2_100_000_000).with_version(VERSION2);
        let mut w = TraceWriter::new(Cursor::new(Vec::new()), &header).unwrap();
        for i in 0..200 {
            w.append(&sample(i)).unwrap();
        }
        let v2_bytes = w.bytes();
        let (cursor, events) = w.finalize(7).unwrap();
        assert_eq!(events, 200);

        let (h, recs) = read_trace(Cursor::new(cursor.into_inner())).unwrap();
        assert_eq!(h.version, VERSION2);
        assert_eq!(h.events_dropped, 7);
        assert_eq!(h.source_mechanism, "lazypoline");
        assert_eq!(recs.len(), 200);
        assert_eq!(recs[123], sample(123));
        let raw_bytes = (HEADER_SIZE + 200 * std::mem::size_of::<EventRecord>()) as u64;
        assert!(
            v2_bytes * 3 <= raw_bytes,
            "v2 at least 3x smaller than the records here: {v2_bytes} vs {raw_bytes}"
        );
    }

    /// A writer given a v2 header writes v2, and the same records at v3
    /// (the default) come out smaller and read back the same.
    #[test]
    fn the_header_picks_the_generation_written() {
        let write = |header: TraceHeader| {
            let mut w = TraceWriter::new(Cursor::new(Vec::new()), &header).unwrap();
            for i in 0..200 {
                w.append(&EventRecord {
                    tsc: 1000 * i,
                    ..sample(i % 4)
                })
                .unwrap();
            }
            w.finalize(0).unwrap().0.into_inner()
        };
        let v2 = write(TraceHeader::new("x", 0).with_version(VERSION2));
        let v3 = write(TraceHeader::new("x", 0));
        assert_eq!((&v2[..8], &v3[..8]), (&MAGIC2[..], &MAGIC3[..]));
        let (h2, r2) = read_trace(Cursor::new(&v2)).unwrap();
        let (h3, r3) = read_trace(Cursor::new(&v3)).unwrap();
        assert_eq!((h2.version, h3.version), (VERSION2, VERSION3));
        assert_eq!(r2, r3);
        assert!(
            v3.len() * 2 < v2.len(),
            "v3 {} B, v2 {} B",
            v3.len(),
            v2.len()
        );
    }

    #[test]
    fn v2_truncated_payload_detected() {
        let header = TraceHeader::new("x", 0).with_version(VERSION2);
        let mut w = TraceWriter::new(Cursor::new(Vec::new()), &header).unwrap();
        w.append(&sample(0)).unwrap();
        w.append(&sample(1)).unwrap();
        let (cursor, _) = w.finalize(0).unwrap();
        let mut bytes = cursor.into_inner();
        bytes.truncate(bytes.len() - 1);
        assert!(matches!(
            read_trace(Cursor::new(bytes)),
            Err(TraceError::Truncated)
        ));
    }

    #[test]
    fn v2_magic_with_wrong_version_field_rejected() {
        let mut bytes = TraceHeader::new("x", 0)
            .with_version(VERSION2)
            .encode()
            .to_vec();
        bytes[8] = 1; // claims v1 under the v2 magic
        assert!(matches!(
            read_trace(Cursor::new(bytes)),
            Err(TraceError::BadVersion(1))
        ));
    }

    #[test]
    fn bad_magic_and_version_are_structured_errors() {
        assert!(matches!(
            read_trace(Cursor::new(vec![0u8; 256])),
            Err(TraceError::BadMagic)
        ));
        let mut bytes = TraceHeader::new("x", 0).encode().to_vec();
        bytes[8] = 99; // version
        assert!(matches!(
            read_trace(Cursor::new(bytes)),
            Err(TraceError::BadVersion(99))
        ));
        assert!(matches!(
            read_trace(Cursor::new(vec![1u8; 10])),
            Err(TraceError::Truncated)
        ));
    }

    #[test]
    fn truncated_record_detected() {
        let mut w = TraceWriter::new(Cursor::new(Vec::new()), &TraceHeader::new("x", 0)).unwrap();
        for i in 0..3 {
            w.append(&sample(i)).unwrap();
        }
        let bytes = w.finalize(0).unwrap().0.into_inner();
        assert_eq!(read_trace(Cursor::new(&bytes)).unwrap().1.len(), 3);
        assert!(matches!(
            read_trace(Cursor::new(&bytes[..bytes.len() - 1])),
            Err(TraceError::Truncated)
        ));
    }

    #[test]
    fn writer_refuses_a_v1_header() {
        let v1 = TraceHeader {
            version: 1,
            ..TraceHeader::new("x", 0)
        };
        let err = TraceWriter::new(Cursor::new(Vec::new()), &v1)
            .err()
            .expect("no writer emits LPTRACE1");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn long_mechanism_name_is_clamped_not_fatal() {
        let long = "lazypoline+".repeat(4);
        let header = TraceHeader::new(&long, 0);
        let w = TraceWriter::new(Cursor::new(Vec::new()), &header).unwrap();
        let (cursor, _) = w.finalize(0).unwrap();
        let (h, _) = read_trace(Cursor::new(cursor.into_inner())).unwrap();
        assert!(h.source_mechanism.len() < MECHANISM_FIELD);
        assert!(long.starts_with(&h.source_mechanism));
    }

    #[test]
    fn render_matches_shared_formatter_with_ret_suffix() {
        let rec = sample(1);
        let mut buf = [0u8; 256];
        let n = render_record(&rec, &mut buf);
        let line = std::str::from_utf8(&buf[..n]).unwrap();
        assert_eq!(line, "read(0x3, 0x1000, 0x40, 0x0, 0x0, 0x0) @0x400001 = 64\n");

        let errno = EventRecord {
            ret: (-2i64) as u64,
            site: 0,
            ..rec
        };
        let n = render_record(&errno, &mut buf);
        let line = std::str::from_utf8(&buf[..n]).unwrap();
        assert!(line.ends_with(" = -2\n"), "{line}");
    }
}
