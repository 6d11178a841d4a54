//! The recorder's clock: `rdtsc` stamps, and the calibration that lets
//! a trace reader turn them into wall time.

use std::time::{Duration, Instant};

/// The timestamp an [`EventRecord`](crate::EventRecord) carries.
#[inline]
pub(crate) fn now() -> u64 {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: rdtsc has no side effects or preconditions.
    unsafe {
        core::arch::x86_64::_rdtsc()
    }
    #[cfg(not(target_arch = "x86_64"))]
    0
}

/// Shortest interval a frequency estimate is taken over: long enough
/// that the two clock reads' own latency is noise (good to a few
/// percent — enough for the header's "clock calibration" field).
const MIN_WINDOW: Duration = Duration::from_millis(5);

/// One `(CLOCK_MONOTONIC, TSC)` pair, taken when a recording opens; the
/// second pair is taken when it finishes, so the session itself is the
/// measuring interval and opening one waits for nothing.
pub(crate) struct Calibration {
    wall: Instant,
    tsc: u64,
}

impl Calibration {
    pub(crate) fn start() -> Calibration {
        Calibration {
            wall: Instant::now(),
            tsc: now(),
        }
    }

    /// How much of [`MIN_WINDOW`] is still to run.
    fn shortfall(&self) -> Duration {
        MIN_WINDOW.saturating_sub(self.wall.elapsed())
    }

    /// The TSC frequency in Hz over the time since [`start`]
    /// (0 where there is no TSC). Only a session shorter than
    /// [`MIN_WINDOW`] sleeps, and only for the remainder.
    ///
    /// [`start`]: Calibration::start
    pub(crate) fn finish(&self) -> u64 {
        let shortfall = self.shortfall();
        if !shortfall.is_zero() {
            std::thread::sleep(shortfall);
        }
        let cycles = now().wrapping_sub(self.tsc);
        let nanos = self.wall.elapsed().as_nanos().max(1);
        (u128::from(cycles) * 1_000_000_000 / nanos) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_session_of_min_window_or_longer_does_not_sleep() {
        let cal = Calibration::start();
        assert!(!cal.shortfall().is_zero(), "a fresh session would sleep");
        while cal.wall.elapsed() < MIN_WINDOW {
            std::hint::spin_loop();
        }
        assert!(cal.shortfall().is_zero());
    }
}
