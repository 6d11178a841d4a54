//! Shared benchmark machinery for the per-table/figure harness
//! binaries.
//!
//! * [`micro`] — the native Table II / Figure 4 microbenchmark: cycles
//!   per intercepted syscall under each interposition configuration.
//! * [`macrobench`] — the native Figure 5 web-server benchmark:
//!   forked server processes under each configuration, measured with
//!   the open-loop load generator.
//! * [`report`] — plain-text table formatting and statistics.
//!
//! Iteration counts and durations are scaled down from the paper's
//! (100M iterations, 30s × 10 runs) and overridable via environment
//! variables (`LP_BENCH_ITERS`, `LP_BENCH_RUNS`, `LP_BENCH_SECS`,
//! `LP_BENCH_CONNS`) — overheads are per-syscall ratios and converge
//! at far smaller scales.

#![deny(missing_docs)]

pub mod json;
pub mod macrobench;
pub mod micro;
pub mod report;

/// Reads a `u64` knob from the environment with a default.
pub fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Reads an `f64` knob from the environment with a default.
pub fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_knobs_default() {
        assert_eq!(env_u64("LP_DOES_NOT_EXIST_XYZ", 7), 7);
        assert_eq!(env_f64("LP_DOES_NOT_EXIST_XYZ", 1.5), 1.5);
    }
}
