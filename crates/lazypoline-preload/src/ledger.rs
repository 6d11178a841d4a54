//! The start-up ledger: where one exec's share of the shim goes.
//!
//! The constructor and the exit path take a timestamp at each stage
//! boundary ([`lap`]) and add the time since the previous one to the
//! stage's row of a static array: no allocation, no syscall (the clock
//! is the vDSO's). `LAZYPOLINE_STATS=1` prints the rows under the
//! counters ([`render`]). A stage a run does not reach (a cold cache
//! read stops after `open`) reads 0. EXPERIMENTS.md, "The shim's bill
//! per exec", tabulates them.

use std::sync::atomic::{AtomicU64, Ordering};

/// One row of the ledger, in the order a run reaches them.
#[derive(Clone, Copy)]
pub(crate) enum Stage {
    /// `EnvConfig::from_env`, the mode handler and, with
    /// `LAZYPOLINE_STATS=1`, the dump's private descriptor.
    Config,
    /// The registry lookup of `LP_MECHANISM`.
    ByName,
    /// The site cache's program `statx`, directory and entry `open`s.
    Open,
    /// `Maps::open`.
    MapsOpen,
    /// The arena's `mmap` and the entry's `read`.
    Read,
    /// The walk of every executable file mapping.
    Walk,
    /// Keying each record's object and checking and staging its
    /// offsets (and rewriting the entry when a record is dropped).
    Staging,
    /// `Mechanism::install_with`.
    Install,
    /// `Proven::apply`.
    Apply,
    /// `SiteCache::write`, at `exit_group`.
    ExitWrite,
}

/// The rows' labels, indexed by [`Stage`].
const LABELS: [&str; 10] = [
    "configuration",
    "by_name",
    "cache read: open",
    "cache read: Maps::open",
    "cache read: arena + read",
    "cache read: walk",
    "cache read: stage",
    "install",
    "cache apply",
    "exit write",
];

/// Nanoseconds spent in each stage.
static SPENT: [AtomicU64; LABELS.len()] = [const { AtomicU64::new(0) }; LABELS.len()];
/// The last boundary, in `CLOCK_MONOTONIC` nanoseconds.
static LAST: AtomicU64 = AtomicU64::new(0);

/// Clock `id` as seconds and nanoseconds, from the vDSO: no syscall.
pub(crate) fn clock(id: i32) -> [i64; 2] {
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut [i64; 2]) -> i32;
    }
    let mut ts = [0i64; 2];
    // SAFETY: clock_gettime(3) writes one timespec.
    unsafe { clock_gettime(id, &mut ts) };
    ts
}

fn now() -> u64 {
    const CLOCK_MONOTONIC: i32 = 1;
    let [s, ns] = clock(CLOCK_MONOTONIC);
    s as u64 * 1_000_000_000 + ns as u64
}

/// Opens a ledger span: the next [`lap`] counts from here.
pub(crate) fn start() {
    LAST.store(now(), Ordering::Relaxed);
}

/// Closes `stage` at this boundary, which opens the next one.
pub(crate) fn lap(stage: Stage) {
    let now = now();
    let spent = now.saturating_sub(LAST.swap(now, Ordering::Relaxed));
    SPENT[stage as usize].fetch_add(spent, Ordering::Relaxed);
}

/// The rows, `label: µs`, one a line, under a heading.
pub(crate) fn render(out: &mut String) {
    out.push_str("-- start-up ledger (us) --\n");
    for (label, spent) in LABELS.iter().zip(&SPENT) {
        let us = spent.load(Ordering::Relaxed) as f64 / 1000.0;
        out.push_str(&format!("{label:<25}: {us:.1}\n"));
    }
}
