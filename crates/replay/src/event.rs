//! The fixed-size syscall event record — the unit of the
//! flight-recorder rings and of the trace codec.

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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_size_matches_layout() {
        // 8 + 48 + 8 + 8 + 8 + 4 + 4 pad: a ring slot, and what the
        // codec's compression is measured against.
        assert_eq!(std::mem::size_of::<EventRecord>(), 88);
        assert_eq!(std::mem::align_of::<EventRecord>(), 8);
    }
}
