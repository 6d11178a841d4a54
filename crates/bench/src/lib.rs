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

/// How a benchmark child reports its installation's counters: one
/// `<name> <value>` line per [`mechanism::StatsSnapshot::counters`]
/// entry.
pub fn render_counters(stats: &mechanism::StatsSnapshot) -> String {
    stats
        .counters()
        .map(|(name, value)| format!("{name} {value}\n"))
        .collect()
}

/// Reads [`render_counters`]' lines in `text` back into `stats`; other
/// lines are skipped.
pub fn parse_counters(text: &str, stats: &mut mechanism::StatsSnapshot) {
    for (name, value) in text.lines().filter_map(|l| l.split_once(' ')) {
        if let (Some(counter), Ok(v)) = (stats.counter_mut(name), value.parse()) {
            *counter = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_knobs_default() {
        assert_eq!(env_u64("LP_DOES_NOT_EXIST_XYZ", 7), 7);
        assert_eq!(env_f64("LP_DOES_NOT_EXIST_XYZ", 1.5), 1.5);
    }

    #[test]
    fn counters_round_trip_through_the_wire_format() {
        let mut sent = mechanism::StatsSnapshot::default();
        let names: Vec<_> = sent.counters().map(|(name, _)| name).collect();
        for (i, name) in names.into_iter().enumerate() {
            *sent.counter_mut(name).unwrap() = i as u64 + 1;
        }
        let mut got = mechanism::StatsSnapshot::default();
        parse_counters(&format!("port junk\n{}", render_counters(&sent)), &mut got);
        assert_eq!(got, sent);
    }
}
