//! The fixed-size syscall event record — the unit of the
//! flight-recorder rings, and of the read-only LPTRACE1 trace payload.

/// Encoded size of one [`EventRecord`] in an LPTRACE1 trace, in bytes.
///
/// 8 (sysno) + 48 (args) + 8 (ret) + 8 (tsc) + 8 (site) + 4 (tid) +
/// 4 (pad), all little-endian. The size is part of that format's
/// contract (stored in the header, checked on read).
pub const RECORD_SIZE: usize = 88;

/// One recorded syscall: the complete invocation, its result, and
/// where/when it happened.
///
/// Fixed-size and `Copy` so the hot path can store it into a
/// pre-allocated ring slot with a plain memcpy — no allocation, no
/// pointers, safe from signal-handler context.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EventRecord {
    /// The syscall number, post-rewrite (what actually executed).
    pub sysno: u64,
    /// The six argument registers, post-rewrite.
    pub args: [u64; 6],
    /// The raw return value delivered to the application.
    pub ret: u64,
    /// `rdtsc` timestamp at record time (0 on non-x86-64 builds).
    /// Orders events across per-thread rings at drain time.
    pub tsc: u64,
    /// Invocation-site address, when the mechanism knows it (else 0).
    pub site: u64,
    /// Kernel thread id of the recording thread.
    pub tid: u32,
}

impl EventRecord {
    /// The all-zero record (ring slots start in this state).
    pub const ZERO: EventRecord = EventRecord {
        sysno: 0,
        args: [0; 6],
        ret: 0,
        tsc: 0,
        site: 0,
        tid: 0,
    };

    /// Decodes from the LPTRACE1 wire layout (see [`RECORD_SIZE`]).
    /// Any byte pattern is a valid record — integrity is the trace
    /// header's job, divergence detection is the replayer's.
    pub fn decode(buf: &[u8; RECORD_SIZE]) -> EventRecord {
        let u64_at = |o: usize| u64::from_le_bytes(buf[o..o + 8].try_into().unwrap());
        let mut args = [0u64; 6];
        for (i, a) in args.iter_mut().enumerate() {
            *a = u64_at(8 + i * 8);
        }
        EventRecord {
            sysno: u64_at(0),
            args,
            ret: u64_at(56),
            tsc: u64_at(64),
            site: u64_at(72),
            tid: u32::from_le_bytes(buf[80..84].try_into().unwrap()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_reads_each_field_at_its_offset() {
        // Byte i holds i, so every field must decode to the
        // little-endian run starting at its documented offset.
        let buf: [u8; RECORD_SIZE] = std::array::from_fn(|i| i as u8);
        let le = |o: usize| u64::from_le_bytes(std::array::from_fn(|i| (o + i) as u8));
        let r = EventRecord::decode(&buf);
        assert_eq!(r.sysno, le(0));
        assert_eq!(r.args, std::array::from_fn(|i| le(8 + 8 * i)));
        assert_eq!((r.ret, r.tsc, r.site), (le(56), le(64), le(72)));
        assert_eq!(r.tid, le(80) as u32);
    }

    #[test]
    fn zero_record_is_all_zero_bytes() {
        assert_eq!(EventRecord::decode(&[0u8; RECORD_SIZE]), EventRecord::ZERO);
    }

    #[test]
    fn record_size_matches_layout() {
        // 8 + 48 + 8 + 8 + 8 + 4 + 4 pad.
        assert_eq!(RECORD_SIZE, 88);
        assert_eq!(RECORD_SIZE % 8, 0, "records stay 8-byte aligned in a trace");
    }
}
