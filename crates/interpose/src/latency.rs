//! Per-syscall latency measurement via the pre/post hook pair.
//!
//! Demonstrates the full expressiveness story: the handler observes
//! the call before execution (`handle`), the result after (`post`),
//! and correlates them — something seccomp-bpf structurally cannot do
//! and ptrace pays two context-switched stops for. Storage is
//! allocation-free (log₂-bucketed counters) per the handler contract.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::{Action, SyscallEvent, SyscallHandler};

/// Number of log₂ latency buckets (cycles): bucket *i* counts samples
/// in `[2^i, 2^(i+1))`.
pub const LATENCY_BUCKETS: usize = 32;

/// Measures wall-cycle latency of every passthrough syscall with a
/// `rdtsc` pair, into a log₂ histogram.
///
/// Single-threaded accounting note: the pre-timestamp is stored in a
/// thread-local so concurrent syscalls on different threads do not
/// corrupt each other's samples.
pub struct LatencyHandler {
    buckets: [AtomicU64; LATENCY_BUCKETS],
    total: AtomicU64,
}

thread_local! {
    static T0: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

#[inline]
fn now_cycles() -> u64 {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: rdtsc is always available on x86-64.
    unsafe {
        core::arch::x86_64::_rdtsc()
    }
    #[cfg(not(target_arch = "x86_64"))]
    0
}

impl LatencyHandler {
    /// A zeroed histogram.
    pub fn new() -> LatencyHandler {
        LatencyHandler {
            buckets: [const { AtomicU64::new(0) }; LATENCY_BUCKETS],
            total: AtomicU64::new(0),
        }
    }

    /// Samples recorded so far.
    pub fn samples(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Count in bucket `i` (`[2^i, 2^(i+1))` cycles).
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets
            .get(i)
            .map(|b| b.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// The histogram as `(lower_bound_cycles, count)` pairs for every
    /// non-empty bucket.
    pub fn histogram(&self) -> Vec<(u64, u64)> {
        (0..LATENCY_BUCKETS)
            .filter_map(|i| {
                let c = self.bucket(i);
                (c > 0).then_some((1u64 << i, c))
            })
            .collect()
    }

    /// Approximate median latency in cycles (bucket lower bound).
    pub fn approx_median(&self) -> Option<u64> {
        let total = self.samples();
        if total == 0 {
            return None;
        }
        let mut seen = 0;
        for i in 0..LATENCY_BUCKETS {
            seen += self.bucket(i);
            if seen * 2 >= total {
                return Some(1 << i);
            }
        }
        None
    }
}

impl Default for LatencyHandler {
    fn default() -> LatencyHandler {
        LatencyHandler::new()
    }
}

impl std::fmt::Debug for LatencyHandler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "LatencyHandler({} samples)", self.samples())
    }
}

impl SyscallHandler for LatencyHandler {
    fn handle(&self, _event: &mut SyscallEvent) -> Action {
        T0.with(|c| c.set(now_cycles()));
        Action::Passthrough
    }

    fn post(&self, _event: &SyscallEvent, ret: u64) -> u64 {
        let t0 = T0.with(|c| c.get());
        if t0 != 0 {
            let dt = now_cycles().saturating_sub(t0).max(1);
            let bucket = (63 - dt.leading_zeros() as usize).min(LATENCY_BUCKETS - 1);
            self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
            self.total.fetch_add(1, Ordering::Relaxed);
        }
        ret
    }

    fn name(&self) -> &str {
        "latency"
    }

    fn leaves_fp_env(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syscalls::{nr, SyscallArgs};

    #[test]
    fn records_through_hook_pair() {
        let h = LatencyHandler::new();
        let mut ev = SyscallEvent::new(SyscallArgs::nullary(nr::GETPID));
        assert_eq!(h.handle(&mut ev), Action::Passthrough);
        // Simulate the executed syscall.
        std::hint::black_box(42);
        assert_eq!(h.post(&ev, 7), 7);
        assert_eq!(h.samples(), 1);
        assert_eq!(h.histogram().iter().map(|(_, c)| c).sum::<u64>(), 1);
        assert!(h.approx_median().is_some());
    }

    #[test]
    fn empty_histogram() {
        let h = LatencyHandler::new();
        assert_eq!(h.samples(), 0);
        assert!(h.histogram().is_empty());
        assert_eq!(h.approx_median(), None);
        assert_eq!(h.bucket(99), 0);
    }

    #[test]
    fn buckets_are_log2() {
        let h = LatencyHandler::new();
        // Drive post() with handcrafted timestamps by calling the
        // bucketing logic through real samples: 3 samples land in some
        // bucket; monotone counts.
        let mut ev = SyscallEvent::new(SyscallArgs::nullary(nr::GETPID));
        for _ in 0..3 {
            h.handle(&mut ev);
            h.post(&ev, 0);
        }
        assert_eq!(h.samples(), 3);
    }
}
