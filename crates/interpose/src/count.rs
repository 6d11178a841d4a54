//! Allocation-free per-syscall-number counting.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::{Action, SyscallEvent, SyscallHandler};
use syscalls::MAX_SYSCALL_NR;

struct Counts {
    per_nr: Box<[AtomicU64]>,
    other: AtomicU64,
}

/// Counts invocations per syscall number, then passes through.
///
/// Storage is a fixed array of atomics covering the whole trampoline
/// range, so the hot path is one relaxed fetch-add — safe from any
/// interposition context. The storage is `Arc`-shared: `clone()` is
/// cheap and every clone observes the same counters, so a test or
/// report can keep a clone while the original is boxed into a chain,
/// stack, or the global registry.
pub struct CountHandler {
    counts: Arc<Counts>,
}

impl Clone for CountHandler {
    fn clone(&self) -> CountHandler {
        CountHandler {
            counts: Arc::clone(&self.counts),
        }
    }
}

impl CountHandler {
    /// Creates a zeroed counter.
    pub fn new() -> CountHandler {
        let per_nr = (0..MAX_SYSCALL_NR).map(|_| AtomicU64::new(0)).collect();
        CountHandler {
            counts: Arc::new(Counts {
                per_nr,
                other: AtomicU64::new(0),
            }),
        }
    }

    /// Invocations observed for `nr` so far.
    pub fn count(&self, nr: u64) -> u64 {
        match self.counts.per_nr.get(nr as usize) {
            Some(c) => c.load(Ordering::Relaxed),
            None => self.counts.other.load(Ordering::Relaxed),
        }
    }

    /// Total invocations across all numbers.
    pub fn total(&self) -> u64 {
        self.counts
            .per_nr
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum::<u64>()
            + self.counts.other.load(Ordering::Relaxed)
    }

    /// `(nr, count)` pairs for every number seen at least once,
    /// descending by count ([`busiest`]).
    pub fn top(&self) -> Vec<(u64, u64)> {
        busiest(self.counts.per_nr.iter().map(|c| c.load(Ordering::Relaxed)))
    }

    /// Resets every counter to zero.
    pub fn reset(&self) {
        for c in self.counts.per_nr.iter() {
            c.store(0, Ordering::Relaxed);
        }
        self.counts.other.store(0, Ordering::Relaxed);
    }
}

/// `(nr, count)` for every nonzero entry of `counts`, a table indexed by
/// syscall number: descending by count, ties in ascending number.
pub fn busiest(counts: impl IntoIterator<Item = u64>) -> Vec<(u64, u64)> {
    let mut v: Vec<(u64, u64)> = (0..).zip(counts).filter(|&(_, n)| n > 0).collect();
    v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    v
}

impl Default for CountHandler {
    fn default() -> CountHandler {
        CountHandler::new()
    }
}

impl std::fmt::Debug for CountHandler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CountHandler")
            .field("total", &self.total())
            .finish()
    }
}

impl SyscallHandler for CountHandler {
    fn handle(&self, event: &mut SyscallEvent) -> Action {
        match self.counts.per_nr.get(event.call.nr as usize) {
            Some(c) => c.fetch_add(1, Ordering::Relaxed),
            None => self.counts.other.fetch_add(1, Ordering::Relaxed),
        };
        Action::Passthrough
    }

    fn name(&self) -> &str {
        "count"
    }

    fn leaves_fp_env(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syscalls::{nr, SyscallArgs};

    fn hit(h: &CountHandler, nr: u64) {
        let mut ev = SyscallEvent::new(SyscallArgs::nullary(nr));
        assert_eq!(h.handle(&mut ev), Action::Passthrough);
    }

    #[test]
    fn counts_accumulate() {
        let h = CountHandler::new();
        hit(&h, nr::READ);
        hit(&h, nr::READ);
        hit(&h, nr::WRITE);
        assert_eq!(h.count(nr::READ), 2);
        assert_eq!(h.count(nr::WRITE), 1);
        assert_eq!(h.count(nr::OPEN), 0);
        assert_eq!(h.total(), 3);
    }

    #[test]
    fn out_of_range_numbers_bucketed() {
        let h = CountHandler::new();
        hit(&h, 100_000);
        assert_eq!(h.count(100_000), 1);
        assert_eq!(h.total(), 1);
    }

    #[test]
    fn top_sorts_descending() {
        let h = CountHandler::new();
        for _ in 0..3 {
            hit(&h, nr::WRITE);
        }
        hit(&h, nr::READ);
        assert_eq!(h.top(), vec![(nr::WRITE, 3), (nr::READ, 1)]);
    }

    #[test]
    fn reset_clears() {
        let h = CountHandler::new();
        hit(&h, nr::READ);
        h.reset();
        assert_eq!(h.total(), 0);
        assert!(h.top().is_empty());
    }
}
