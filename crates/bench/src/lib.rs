//! Shared benchmark machinery for the per-table/figure harness
//! binaries.
//!
//! * [`micro`] — the native Table II / Figure 4 microbenchmark: cycles
//!   per intercepted syscall under each interposition configuration.
//! * [`macrobench`] — the native Figure 5 web-server benchmark:
//!   forked server processes under each configuration, measured with
//!   the open-loop load generator.
//! * [`report`] — plain-text table formatting and statistics.
//! * [`guest`] — the native guest: the §V-A window of a libc call, an
//!   RWX page's runtime-emitted `syscall` and another libc call, which
//!   `exhaustiveness`, `lp-trace` and the record/replay and SFIP tests
//!   run.
//! * [`table3`] — Table III: the paper's cells as data, and the native
//!   poison run of host programs.
//!
//! Iteration counts and durations are scaled down from the paper's
//! (100M iterations, 30s × 10 runs) and overridable via environment
//! variables (`LP_BENCH_ITERS`, `LP_BENCH_RUNS`, `LP_BENCH_SECS`,
//! `LP_BENCH_CONNS`) — overheads are per-syscall ratios and converge
//! at far smaller scales.

#![deny(missing_docs)]

pub mod guest;
pub mod json;
pub mod macrobench;
pub mod micro;
pub mod report;
pub mod table3;

/// Reads a `u64` knob from the environment with a default; panics on a
/// value that does not parse, which must not run another benchmark.
pub fn env_u64(name: &str, default: u64) -> u64 {
    knob(name, std::env::var(name).ok(), default)
}

/// Reads an `f64` knob from the environment, like [`env_u64`].
pub fn env_f64(name: &str, default: f64) -> f64 {
    knob(name, std::env::var(name).ok(), default)
}

fn knob<T: std::str::FromStr>(name: &str, value: Option<String>, default: T) -> T {
    match value.filter(|v| !v.is_empty()) {
        None => default,
        Some(v) => v
            .parse()
            .unwrap_or_else(|_| panic!("{name}={v:?} is not a number")),
    }
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
        assert_eq!(knob("LP_BENCH_ITERS", Some(String::new()), 7u64), 7);
        assert_eq!(knob("LP_BENCH_ITERS", Some("1000000".into()), 7u64), 1_000_000);
        // Set but malformed: a panic naming the variable and the value,
        // never the default.
        let malformed = std::panic::catch_unwind(|| knob("LP_BENCH_ITERS", Some("1e6".into()), 7u64));
        let why = malformed.expect_err("1e6 is not a u64");
        let why = why.downcast_ref::<String>().expect("a formatted panic");
        assert_eq!(why, "LP_BENCH_ITERS=\"1e6\" is not a number");
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

    /// The coreutils a [`table3::DISTROS`] column marks, with the
    /// register each keeps live across a syscall.
    fn affected(column: usize) -> Vec<(&'static str, u8)> {
        table3::TABLE_III
            .iter()
            .filter_map(|(util, cells)| cells[column].map(|reg| (*util, reg)))
            .collect()
    }

    #[test]
    fn table_three_ubuntu_column() {
        // The paper's 40%: the four threaded utilities, each through
        // Listing 1's xmm0.
        assert_eq!(table3::DISTROS[0], "Ubuntu 20.04");
        assert_eq!(
            affected(0),
            [("ls", 0), ("mkdir", 0), ("mv", 0), ("cp", 0)]
        );
    }

    #[test]
    fn table_three_clear_linux_column() {
        // Every utility, through ptmalloc_init's xmm1 across getrandom.
        assert_eq!(table3::DISTROS[1], "Clear Linux");
        let column = affected(1);
        assert_eq!(column.len(), table3::TABLE_III.len());
        assert!(column.iter().all(|&(_, reg)| reg == 1), "{column:?}");
    }
}
