//! The native Table II / Figure 4 microbenchmark.
//!
//! One [`run_table2`] session is the only source of these numbers: the
//! `table2` binary renders Table II, the Figure 4 breakdown and the
//! ablations that are Table II rows from the one [`MicroResults`].
//!
//! "We measure the CPU cycles required to interpose a non-existent
//! syscall (number 500) 100M times" (§V-B(a)). Number 500 enters the
//! trampoline's sled twelve bytes from its end, so those rows cannot
//! see what the sled costs the numbers programs actually use: the
//! loops take the number as an operand, and [`SLED_SYSNOS`] are
//! measured beside the paper's, each against the same number
//! uninterposed. One generic driver
//! measures every row: each Table II configuration is a *named backend*
//! in the `mechanism` registry ([`TABLE2_PLAN`]), installed around a
//! passthrough handler, measured, and torn down — no per-mechanism
//! engine-state sequencing lives here.
//!
//! Each configuration gets its own benchmark loop with its own
//! `syscall` instruction so lazy rewriting of one site cannot
//! contaminate another configuration:
//!
//! * `loop_plain` — never intercepted: used for the bare baseline and
//!   for "baseline with SUD enabled (selector=ALLOW)".
//! * `loop_sud` — used for the pure-SUD row; the loop re-arms the
//!   selector to BLOCK each iteration because the (non-rewriting)
//!   `sud-raw` handler leaves it at ALLOW on return. The re-arm store
//!   is part of the measured workload, exactly as in the classic
//!   deployment.
//! * `loop_fast` — patched once by the lazypoline slow path, then
//!   measured in steady state for the zpoline and lazypoline rows
//!   (the paper does the same: "we manually rewrote the syscall
//!   instruction up front, so there is no initial execution of the
//!   slow path").
//!
//! The zpoline row reuses the lazypoline fast path with SUD disabled
//! ([`mechanism::ActiveMechanism::detach`] after priming) — exactly the
//! paper's Figure 4 methodology: "we run the microbenchmark of
//! lazypoline's fast path again with SUD disabled […] without the SUD
//! overhead, lazypoline's fast path matches zpoline".

use std::arch::asm;
use std::arch::x86_64::_rdtsc;

use mechanism::{EnvConfig, XstateMask};
use syscalls::Errno;

use crate::env_u64;
use crate::report::{geomean, rel_stddev_pct};

/// One configuration's measurement across runs.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Configuration label (Table II row name).
    pub name: &'static str,
    /// Cycles per syscall, one sample per run.
    pub cycles_per_call: Vec<f64>,
}

impl Measurement {
    /// Geomean cycles per call.
    pub fn cycles(&self) -> f64 {
        geomean(&self.cycles_per_call)
    }

    /// Relative standard deviation (%).
    pub fn stddev_pct(&self) -> f64 {
        rel_stddev_pct(&self.cycles_per_call)
    }
}

/// The rows that enter the trampoline, measured at one syscall number
/// other than the paper's, with that number's own baseline.
#[derive(Clone, Debug)]
pub struct SledRows {
    /// The syscall number all three loops issue.
    pub sysno: u64,
    /// Bare syscall round trip at this number.
    pub baseline: Measurement,
    /// Rewritten site, SUD disabled.
    pub zpoline: Measurement,
    /// Rewritten site, SUD enabled, full xstate preservation.
    pub lazypoline: Measurement,
}

/// All Table II rows from one benchmark session.
#[derive(Clone, Debug)]
pub struct MicroResults {
    /// Bare syscall round trip.
    pub baseline: Measurement,
    /// SUD enabled, selector ALLOW, untouched site.
    pub sud_enabled_allow: Measurement,
    /// Rewritten site, SUD disabled (pure zpoline).
    pub zpoline: Measurement,
    /// Rewritten site, SUD enabled, no xstate preservation.
    pub lazypoline_nox: Measurement,
    /// Rewritten site, SUD enabled, full xstate preservation.
    pub lazypoline: Measurement,
    /// Full lazypoline with the flight recorder mirroring every
    /// syscall into the per-thread rings (record-overhead row).
    pub lazypoline_record: Measurement,
    /// Full lazypoline under the `lazypoline+hooks` backend with the
    /// no-op `hook_noop` cdylib loaded via `LP_HOOKS`: every dispatch
    /// crosses the `dlopen` ABI once. `None` when the example hook
    /// library is not built.
    pub lazypoline_hooks: Option<Measurement>,
    /// Full lazypoline with a [`sfip::SfipHandler`] enforcing (count
    /// mode) the transition automaton learned from the `+record` row's
    /// own trace — the flow-integrity check's fast-path cost. `None`
    /// when the record row's trace could not be learned from.
    pub lazypoline_sfip: Option<Measurement>,
    /// Pure SUD interposition (SIGSYS per syscall).
    pub sud: Measurement,
    /// The rewriting rows again at [`SLED_SYSNOS`], where the sled is
    /// longer than at the paper's 500.
    pub sled: Vec<SledRows>,
    /// Per-row mechanism counters (row label → delta snapshot covering
    /// that row's install-to-teardown window), in measurement order.
    pub stats: Vec<(&'static str, mechanism::StatsSnapshot)>,
    /// Iterations per run used.
    pub iters: u64,
    /// Runs per configuration.
    pub runs: u64,
    /// Trace summary from the `lazypoline+record` row: that row runs
    /// with a live trace session (async drain thread + `pwrite64` spill), so
    /// the measured cost is the full production recording pipeline and
    /// the summary proves (or disproves) the zero-drop claim.
    pub recording: Option<mechanism::replay::RecordSummary>,
}

impl MicroResults {
    /// The rows after the baseline, in Table II order.
    pub fn rows(&self) -> Vec<&Measurement> {
        [
            &self.zpoline,
            &self.lazypoline_nox,
            &self.lazypoline,
            &self.lazypoline_record,
        ]
        .into_iter()
        .chain(self.lazypoline_hooks.as_ref())
        .chain(self.lazypoline_sfip.as_ref())
        .chain([&self.sud, &self.sud_enabled_allow])
        .collect()
    }

    /// The mechanism counter snapshot recorded for a row label.
    pub fn snapshot_for(&self, label: &str) -> Option<&mechanism::StatsSnapshot> {
        self.stats
            .iter()
            .find(|(l, _)| *l == label)
            .map(|(_, s)| s)
    }
}

/// One measured loop. `$site` goes into the text as an assembler
/// comment and nowhere else: two loops with the same instructions are
/// the same function to LLVM, which merges them, and a merged
/// `loop_plain` is rewritten the moment `loop_fast` is. The arguments
/// are an invalid descriptor and nothing else, so that the real calls
/// among the numbers (`read`, `epoll_wait`) fail with `EBADF` as fast
/// as 500 does with `ENOSYS`.
macro_rules! syscall_loop {
    ($site:literal, $iters:ident, $nr:ident $(, $rearm:literal, $sel:ident)?) => {
        asm!(
            concat!("2: # ", $site),
            $($rearm,)?
            "mov eax, {nr:e}",
            "syscall",
            "sub {c}, 1",
            "jnz 2b",
            c = inout(reg) $iters => _,
            nr = in(reg) $nr,
            $($sel = in(reg) $sel,)?
            in("rdi") u64::MAX, in("rsi") 0u64, in("rdx") 0u64, in("r10") 0u64,
            out("rax") _, out("rcx") _, out("r11") _,
        )
    };
}

#[inline(never)]
fn loop_plain(nr: u64, iters: u64) {
    debug_assert!(iters > 0);
    unsafe { syscall_loop!("never intercepted", iters, nr) }
}

#[inline(never)]
fn loop_fast(nr: u64, iters: u64) {
    debug_assert!(iters > 0);
    // Lazily rewritten to `call rax` on its first BLOCK execution.
    unsafe { syscall_loop!("rewritten", iters, nr) }
}

#[inline(never)]
fn loop_sud(nr: u64, iters: u64) {
    debug_assert!(iters > 0);
    let sel = sud::selector_ptr();
    // Every iteration: SIGSYS → handler emulates, and leaves the
    // selector at ALLOW, so each one re-arms BLOCK first. After the
    // final iteration the loop exits disarmed; the backend's teardown
    // restores the rest (SUD off, previous SIGSYS disposition).
    unsafe { syscall_loop!("a SIGSYS every time", iters, nr, "mov byte ptr [{sel}], 1", sel) }
}

/// A measured loop: `(syscall number, iterations)`.
type LoopFn = fn(u64, u64);

/// The paper's number.
const PAPER_SYSNO: u64 = syscalls::NONEXISTENT_SYSCALL;

/// Numbers measured beside the paper's 500: `read`, `getpid` and
/// `epoll_wait` enter the sled at its start, near it, and in the
/// middle.
pub const SLED_SYSNOS: [u64; 3] = [syscalls::nr::READ, syscalls::nr::GETPID, syscalls::nr::EPOLL_WAIT];

fn time_loop(f: LoopFn, nr: u64, iters: u64) -> f64 {
    let start = unsafe { _rdtsc() };
    f(nr, iters);
    let end = unsafe { _rdtsc() };
    (end - start) as f64 / iters as f64
}

fn measure(name: &'static str, f: LoopFn, nr: u64, iters: u64, runs: u64) -> Measurement {
    // One warmup run.
    f(nr, iters.clamp(1, 10_000));
    let cycles_per_call = (0..runs).map(|_| time_loop(f, nr, iters)).collect();
    Measurement {
        name,
        cycles_per_call,
    }
}

/// Whether this host can run the native microbenchmark at all.
pub fn environment_supported() -> bool {
    zpoline::Trampoline::environment_supported() && sud::is_supported()
}

/// One Table II row: a `mechanism` registry name plus how to measure
/// it. [`measure_row`] knows nothing about what a backend *is* — install
/// around a passthrough handler, optionally prime/detach, time the
/// loop, snapshot the counters.
struct RowSpec {
    /// Registry key for [`mechanism::by_name`].
    backend: &'static str,
    /// Table II row label.
    label: &'static str,
    /// The measured loop.
    body: LoopFn,
    /// `LP_HOOKS` value the row installs with (empty: the session's).
    hooks: &'static str,
    /// Run one iteration after install so the lazy rewriter patches the
    /// loop's shared syscall site before timing.
    prime: bool,
    /// Detach from SUD after priming — the zpoline row: patched site,
    /// pure rewriting, no SUD.
    detach: bool,
    /// Bound iterations by `LP_BENCH_SUD_ITERS` (the raw-SUD row pays a
    /// full signal round trip per iteration).
    capped: bool,
    /// Run the row with a live trace session (the session's
    /// `trace_out`), so the `+record` backend spins up its drain thread
    /// and spills for real — recording cost without the spill pipeline
    /// would be a fiction.
    record: bool,
}

/// A row on the never-intercepted loop: nothing primed, detached,
/// capped or recorded. The other rows are this with fields replaced.
const PLAIN: RowSpec = RowSpec {
    backend: "none",
    label: "baseline",
    body: loop_plain,
    hooks: "",
    prime: false,
    detach: false,
    capped: false,
    record: false,
};

/// A row on the rewritten loop, primed so the site is patched before
/// timing.
const FAST: RowSpec = RowSpec {
    body: loop_fast,
    prime: true,
    ..PLAIN
};

/// The Table II measurement plan, in execution order.
///
/// Ordering constraint: `sud-raw` owns the `SIGSYS` disposition and
/// must run before any engine-backed row initialises the engine
/// (process-global, one-way).
const TABLE2_PLAN: [RowSpec; 7] = [
    PLAIN,
    RowSpec {
        backend: "sud-allow",
        label: "baseline with SUD enabled (selector=ALLOW)",
        ..PLAIN
    },
    RowSpec {
        backend: "sud-raw",
        label: "SUD",
        body: loop_sud,
        capped: true,
        ..PLAIN
    },
    RowSpec {
        backend: "lazypoline",
        label: "lazypoline",
        ..FAST
    },
    RowSpec {
        backend: "lazypoline+record",
        label: "lazypoline+record (flight recorder)",
        record: true,
        ..FAST
    },
    RowSpec {
        backend: "lazypoline-nox",
        label: "lazypoline without xstate preservation",
        ..FAST
    },
    RowSpec {
        backend: "zpoline",
        label: "zpoline",
        detach: true,
        ..FAST
    },
];

/// Installs `row.backend` by name with `cfg`, measures `row.body`, and
/// returns the timing plus the backend's counter deltas for the window.
/// Recording rows run with a live trace session (`cfg.trace_out`); its
/// summary rides along.
fn measure_row(
    row: &RowSpec,
    cfg: &EnvConfig,
    nr: u64,
    iters: u64,
    runs: u64,
) -> (
    Measurement,
    mechanism::StatsSnapshot,
    Option<mechanism::replay::RecordSummary>,
) {
    let mut cfg = cfg.clone();
    if !row.hooks.is_empty() {
        cfg.hooks = row.hooks.to_string();
    }
    if row.record && cfg.ring_capacity.is_none() {
        // The bench thread is CPU-bound: on a single-core host the
        // drainer only runs when the producer's timeslice expires, so
        // the ring must absorb a full timeslice of production. Size it
        // to hold one whole measured run — zero drops by construction,
        // and the drainer still spills every event for the summary.
        let capacity = (2 * iters as usize).next_power_of_two().clamp(
            mechanism::replay::ring::DEFAULT_RING_CAPACITY,
            mechanism::replay::ring::MAX_RING_CAPACITY,
        );
        cfg.ring_capacity = Some(capacity);
    }
    let backend = mechanism::by_name(row.backend)
        .unwrap_or_else(|| panic!("{} is not in the mechanism registry", row.backend));
    let mut active = backend
        .install_with(Box::new(interpose::PassthroughHandler), &cfg)
        .unwrap_or_else(|e| panic!("install {}: {e}", row.backend));
    if row.prime {
        (row.body)(nr, 1);
    }
    if row.detach {
        active.detach();
    }
    let m = measure(row.label, row.body, nr, iters, runs);
    let stats = active.stats();
    let summary = active
        .finish_recording()
        .map(|r| r.unwrap_or_else(|e| panic!("finishing {} trace: {e}", row.backend)));
    (m, stats, summary)
}

/// Runs the full Table II benchmark session through the generic driver.
///
/// Iterations and run counts come from `LP_BENCH_ITERS` (default
/// 200_000) and `LP_BENCH_RUNS` (default 10, like the paper); the
/// raw-SUD row is additionally bounded by `LP_BENCH_SUD_ITERS`
/// (default 50_000).
///
/// # Panics
///
/// Panics if the environment lacks SUD or page-zero mapping — call
/// [`environment_supported`] first.
pub fn run_table2() -> MicroResults {
    assert!(environment_supported(), "SUD or page-zero unavailable");
    let iters = env_u64("LP_BENCH_ITERS", 200_000).max(1);
    let runs = env_u64("LP_BENCH_RUNS", 10).max(1);
    let sud_iters = iters.min(env_u64("LP_BENCH_SUD_ITERS", 50_000)).max(1);

    // The sfip row enforces an automaton learned from the `+record`
    // row's own trace, so that trace must outlive its row: a scratch
    // path when the environment names none (one it names is kept).
    let ambient = EnvConfig::from_env().unwrap_or_else(|e| panic!("{e}"));
    let scratch = ambient.trace_out.is_none();
    let learn_trace = ambient.trace_out.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!("lp_table2_learn_{}.lpt", std::process::id()))
    });
    let cfg = EnvConfig {
        trace_out: Some(learn_trace.clone()),
        ..ambient
    };

    let mut stats = Vec::with_capacity(TABLE2_PLAN.len() + 2);
    let mut recording = None;
    let [baseline, sud_enabled_allow, sud, lazypoline, lazypoline_record, lazypoline_nox, zpoline] =
        TABLE2_PLAN.each_ref().map(|row| {
            let row_iters = if row.capped { sud_iters } else { iters };
            let (m, s, summary) = measure_row(row, &cfg, PAPER_SYSNO, row_iters, runs);
            stats.push((row.label, s));
            recording = recording.take().or(summary);
            m
        });

    // Syscall-flow-integrity row: learn the transition automaton from
    // the record row's trace, then measure the identical loop under
    // `lazypoline+sfip` (count mode — the check runs, nothing dies).
    let lazypoline_sfip = run_sfip_row(&cfg, &learn_trace, iters, runs, &mut stats);
    if scratch {
        let _ = std::fs::remove_file(&learn_trace);
    }

    // One member loaded over the `lp_hook_v1` ABI. Skip (don't fail)
    // when the example cdylib isn't built — the JSON then simply lacks
    // the row, like any unsupported configuration.
    let lazypoline_hooks = match hookabi::load_from_spec("hook_noop") {
        Ok(_) => {
            let row = RowSpec {
                backend: "lazypoline+hooks",
                label: "lazypoline+hooks (loaded no-op hook)",
                hooks: "hook_noop",
                ..FAST
            };
            let (m, s, _) = measure_row(&row, &cfg, PAPER_SYSNO, iters, runs);
            stats.push((row.label, s));
            Some(m)
        }
        Err(e) => {
            eprintln!("skip: lazypoline+hooks row ({e})");
            None
        }
    };

    // The rewriting rows once more per extra number. The counters of
    // these windows are not kept: `stats` is keyed by row label.
    let plan_row = |backend: &str| {
        TABLE2_PLAN
            .iter()
            .find(|row| row.backend == backend)
            .expect("a TABLE2_PLAN backend")
    };
    let sled = SLED_SYSNOS
        .iter()
        .map(|&sysno| SledRows {
            sysno,
            baseline: measure_row(plan_row("none"), &cfg, sysno, iters, runs).0,
            zpoline: measure_row(plan_row("zpoline"), &cfg, sysno, iters, runs).0,
            lazypoline: measure_row(plan_row("lazypoline"), &cfg, sysno, iters, runs).0,
        })
        .collect();

    MicroResults {
        baseline,
        sud_enabled_allow,
        zpoline,
        lazypoline_nox,
        lazypoline,
        lazypoline_record,
        lazypoline_hooks,
        lazypoline_sfip,
        sud,
        sled,
        stats,
        iters,
        runs,
        recording,
    }
}

/// Learns an LPSFIP1 policy from the record row's trace and measures
/// the `lazypoline+sfip` row against it. Skips (returning `None`, like
/// the hooks row) when the trace is unreadable or empty — the table
/// then simply lacks the row.
fn run_sfip_row(
    cfg: &EnvConfig,
    trace: &std::path::Path,
    iters: u64,
    runs: u64,
    stats: &mut Vec<(&'static str, mechanism::StatsSnapshot)>,
) -> Option<Measurement> {
    let (_, records) = match mechanism::replay::read_trace_path(trace) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("skip: lazypoline+sfip row (reading {}: {e})", trace.display());
            return None;
        }
    };
    let policy = match sfip::Policy::learn(&records, "lazypoline+record") {
        Ok(p) => p,
        Err(e) => {
            eprintln!("skip: lazypoline+sfip row (learning: {e})");
            return None;
        }
    };
    let policy_path = std::env::temp_dir().join(format!("lp_table2_{}.sfip", std::process::id()));
    if let Err(e) = policy.save(&policy_path) {
        eprintln!("skip: lazypoline+sfip row (saving policy: {e})");
        return None;
    }
    let cfg = EnvConfig {
        sfip_policy: Some(policy_path.clone()),
        sfip_action: sfip::ViolationAction::Count,
        ..cfg.clone()
    };
    let row = RowSpec {
        backend: "lazypoline+sfip",
        label: "lazypoline+sfip (flow-integrity check)",
        ..FAST
    };
    let (m, s, _) = measure_row(&row, &cfg, PAPER_SYSNO, iters, runs);
    let _ = std::fs::remove_file(&policy_path);
    stats.push((row.label, s));
    Some(m)
}

/// A Table II row measured in a **child** process of its own: what it
/// arms is one-way per process (a seccomp filter, the hardened
/// backstop) or needs a second process (a ptrace tracer), and would
/// otherwise run under every later row of the session.
#[derive(Clone, Debug)]
pub struct ChildRow {
    /// Steady-state timing of the row's loop.
    pub measurement: Measurement,
    /// The degradation-ladder rung the hardened row reached (`Full`
    /// when the backstop arms, `Unprotected` when seccomp is refused).
    /// `None` on the rows that install no `mechanism` backend.
    pub harden_level: Option<String>,
    /// The hardened row's counter deltas for the measured window, every
    /// counter the other rows carry.
    pub stats: Option<mechanism::StatsSnapshot>,
}

/// The hardened row's label in the table and the JSON.
const HARDENED: &str = "lazypoline-hardened";

/// Arms and measures a child row, given its iterations and runs: the
/// wire format ([`render_child_output`]), or why the kernel refused it.
type ChildRun = fn(u64, u64) -> Result<String, String>;

/// The child rows, in the order the session runs them: each label, what
/// `LP_BENCH_ITERS` is divided by for it (so that no row runs much
/// longer than `SUD`), and what arms and measures it in the child.
const CHILD_ROWS: [(&str, u64, ChildRun); 5] = [
    (HARDENED, 1, hardened_row),
    ("seccomp-bpf", 1, seccomp_bpf_row),
    ("seccomp-trap", 10, seccomp_trap_row),
    ("seccomp-user", 1_000, seccomp_user_row),
    ("ptrace", 1_000, ptrace_row),
];

/// Child-process entry for the [`CHILD_ROWS`] row `label`: arms it,
/// measures it and prints the wire format ([`render_child_output`]) to
/// stdout. A row the kernel refuses prints a `skip:` line to stderr and
/// exits 2. The parent re-execs this binary with `--child-row <label>`.
pub fn child_row_main(label: &str) -> ! {
    let &(_, divisor, run) = CHILD_ROWS
        .iter()
        .find(|(row, ..)| *row == label)
        .unwrap_or_else(|| panic!("{label:?} is not a child row"));
    let iters = (env_u64("LP_BENCH_ITERS", 200_000) / divisor).max(1);
    let runs = env_u64("LP_BENCH_RUNS", 10).max(1);
    match run(iters, runs) {
        Ok(text) => {
            print!("{text}");
            std::process::exit(0)
        }
        Err(why) => {
            eprintln!("skip: {label} row ({why})");
            std::process::exit(2)
        }
    }
}

/// Runs every [`CHILD_ROWS`] row, in order, by re-execing the current
/// binary with `--child-row <label>` and parsing its stdout. A row whose
/// child fails is left out, like any other unsupported configuration;
/// a refused row has said why on stderr.
pub fn run_child_rows() -> Vec<ChildRow> {
    let Ok(exe) = std::env::current_exe() else {
        return Vec::new();
    };
    let run = |&(label, ..): &(&'static str, u64, ChildRun)| {
        let out = std::process::Command::new(&exe)
            .args(["--child-row", label])
            .stderr(std::process::Stdio::inherit())
            .output()
            .ok()?;
        if !out.status.success() {
            if out.status.code() != Some(2) {
                eprintln!("skip: {label} row (child exited with {})", out.status);
            }
            return None;
        }
        parse_child_output(label, &String::from_utf8_lossy(&out.stdout))
    };
    CHILD_ROWS.iter().filter_map(run).collect()
}

/// The child's wire format: `cycles <f64>...`; the hardened row adds
/// `harden <rung>` and its counters ([`crate::render_counters`]).
fn render_child_output(
    cycles: &[f64],
    hardened: Option<(&str, &mechanism::StatsSnapshot)>,
) -> String {
    let mut out = String::from("cycles");
    for c in cycles {
        out.push_str(&format!(" {c}"));
    }
    out.push('\n');
    if let Some((harden, stats)) = hardened {
        out.push_str(&format!("harden {harden}\n"));
        out += &crate::render_counters(stats);
    }
    out
}

/// Parses [`render_child_output`]'s wire format.
fn parse_child_output(label: &'static str, text: &str) -> Option<ChildRow> {
    let field = |key: &str| text.lines().find_map(|l| l.strip_prefix(key));
    let cycles: Vec<f64> = field("cycles ")?
        .split_whitespace()
        .filter_map(|t| t.parse().ok())
        .collect();
    if cycles.is_empty() {
        return None;
    }
    let harden_level = field("harden ").map(str::to_string);
    let stats = harden_level.as_ref().map(|_| {
        let mut stats = mechanism::StatsSnapshot {
            mechanism: label,
            ..Default::default()
        };
        crate::parse_counters(text, &mut stats);
        stats
    });
    Some(ChildRow {
        measurement: Measurement {
            name: label,
            cycles_per_call: cycles,
        },
        harden_level,
        stats,
    })
}

/// The `lazypoline-hardened` row: the backend installed, [`loop_fast`]
/// measured in steady state.
fn hardened_row(iters: u64, runs: u64) -> Result<String, String> {
    if !environment_supported() {
        return Err("needs SUD and a mappable page zero".into());
    }
    let row = RowSpec {
        backend: HARDENED,
        label: HARDENED,
        ..FAST
    };
    let cfg = EnvConfig::from_env().unwrap_or_else(|e| panic!("{e}"));
    let (m, stats, _) = measure_row(&row, &cfg, PAPER_SYSNO, iters, runs);
    let harden = format!("{:?}", lazypoline::health().harden);
    let hardened = Some((harden.as_str(), &stats));
    Ok(render_child_output(&m.cycles_per_call, hardened))
}

/// What every other child row measures once its mechanism is armed:
/// one check that the paper's number still fails with `ENOSYS`, then
/// [`loop_plain`] at it.
fn timed(iters: u64, runs: u64) -> String {
    // SAFETY: number 500 is no syscall; nothing is read or written.
    let errno = Errno::from_ret(unsafe { syscalls::raw::syscall1(PAPER_SYSNO, u64::MAX) });
    assert_eq!(errno, Some(Errno::ENOSYS), "number 500 under the row");
    let m = measure("", loop_plain, PAPER_SYSNO, iters, runs);
    render_child_output(&m.cycles_per_call, None)
}

/// A kernel call's result; `Err` says why when the kernel refuses the
/// row (`EPERM`, `EACCES`, `ENOSYS`). Any other error is a bug.
fn permitted(what: &str, ret: u64) -> Result<u64, String> {
    match Errno::from_ret(ret) {
        None => Ok(ret),
        Some(e) if [Errno::EPERM, Errno::EACCES, Errno::ENOSYS].contains(&e) => {
            Err(format!("{what}: {e}"))
        }
        Some(e) => panic!("{what}: {e}"),
    }
}

/// `struct sock_filter`: one classic-BPF instruction.
#[repr(C)]
struct SockFilter {
    code: u16,
    jt: u8,
    jf: u8,
    k: u32,
}

/// `struct sock_fprog`.
#[repr(C)]
struct SockFprog {
    len: u16,
    filter: *const SockFilter,
}

const fn bpf(code: u16, jt: u8, jf: u8, k: u32) -> SockFilter {
    SockFilter { code, jt, jf, k }
}

const BPF_LD_W_ABS: u16 = 0x20;
const BPF_JEQ_K: u16 = 0x15;
const BPF_RET_K: u16 = 0x06;
const SECCOMP_RET_ALLOW: u32 = 0x7fff_0000;
const SECCOMP_RET_TRAP: u32 = 0x0003_0000;
const SECCOMP_RET_USER_NOTIF: u32 = 0x7fc0_0000;

/// `seccomp-bpf`: every call passes one instruction.
const ALLOW_ALL: [SockFilter; 1] = [bpf(BPF_RET_K, 0, 0, SECCOMP_RET_ALLOW)];

/// `seccomp-trap`: number 500 raises `SIGSYS`, everything else passes.
const TRAP_500: [SockFilter; 4] = [
    bpf(BPF_LD_W_ABS, 0, 0, 0), // seccomp_data.nr
    bpf(BPF_JEQ_K, 0, 1, PAPER_SYSNO as u32),
    bpf(BPF_RET_K, 0, 0, SECCOMP_RET_TRAP),
    bpf(BPF_RET_K, 0, 0, SECCOMP_RET_ALLOW),
];

/// `seccomp-user`: number 500 waits for the supervisor, everything else
/// passes.
const NOTIFY_500: [SockFilter; 4] = [
    bpf(BPF_LD_W_ABS, 0, 0, 0), // seccomp_data.nr
    bpf(BPF_JEQ_K, 0, 1, PAPER_SYSNO as u32),
    bpf(BPF_RET_K, 0, 0, SECCOMP_RET_USER_NOTIF),
    bpf(BPF_RET_K, 0, 0, SECCOMP_RET_ALLOW),
];

/// Installs `filter` on the calling thread, and so on the threads it
/// creates later, with `flags`; returns what `seccomp(2)` returns (the
/// listener under `SECCOMP_FILTER_FLAG_NEW_LISTENER`).
fn install_filter(filter: &[SockFilter], flags: u64) -> Result<u64, String> {
    const PR_SET_NO_NEW_PRIVS: u64 = 38;
    const SECCOMP_SET_MODE_FILTER: u64 = 1;
    let prog = SockFprog {
        len: filter.len() as u16,
        filter: filter.as_ptr(),
    };
    // SAFETY: `prctl` takes no pointer; `seccomp` reads `prog` and the
    // filter it points to, which outlive the call.
    unsafe {
        permitted(
            "prctl(PR_SET_NO_NEW_PRIVS)",
            syscalls::raw::syscall5(syscalls::nr::PRCTL, PR_SET_NO_NEW_PRIVS, 1, 0, 0, 0),
        )?;
        permitted(
            "seccomp",
            syscalls::raw::syscall3(
                syscalls::nr::SECCOMP,
                SECCOMP_SET_MODE_FILTER,
                flags,
                &prog as *const SockFprog as u64,
            ),
        )
    }
}

fn seccomp_bpf_row(iters: u64, runs: u64) -> Result<String, String> {
    install_filter(&ALLOW_ALL, 0)?;
    Ok(timed(iters, runs))
}

/// The `seccomp-trap` row's `SIGSYS` handler: answers the trapped call
/// with `-ENOSYS`, as the kernel answers number 500.
unsafe extern "C" fn answer_enosys(_: i32, _: *mut libc::siginfo_t, ctx: *mut libc::c_void) {
    // SAFETY: `ctx` is the context the kernel passed this handler.
    unsafe { sud::sigsys::UContext::from_ptr(ctx) }.set_rax(Errno::ENOSYS.as_ret());
}

fn seccomp_trap_row(iters: u64, runs: u64) -> Result<String, String> {
    // SAFETY: the handler makes no syscall and touches only its context.
    unsafe { sud::sigsys::install_sigsys_handler(answer_enosys) }
        .unwrap_or_else(|e| panic!("sigaction(SIGSYS): {e}"));
    install_filter(&TRAP_500, 0)?;
    Ok(timed(iters, runs))
}

/// `struct seccomp_notif`; `data` is the call's `struct seccomp_data`.
#[repr(C)]
#[derive(Default)]
struct SeccompNotif {
    id: u64,
    pid: u32,
    flags: u32,
    data: [u64; 8],
}

/// `struct seccomp_notif_resp`.
#[repr(C)]
struct SeccompNotifResp {
    id: u64,
    val: i64,
    error: i32,
    flags: u32,
}

fn seccomp_user_row(iters: u64, runs: u64) -> Result<String, String> {
    const SECCOMP_FILTER_FLAG_NEW_LISTENER: u64 = 1 << 3;
    const SECCOMP_IOCTL_NOTIF_RECV: u64 = 0xc050_2100;
    const SECCOMP_IOCTL_NOTIF_SEND: u64 = 0xc018_2101;
    let listener = install_filter(&NOTIFY_500, SECCOMP_FILTER_FLAG_NEW_LISTENER)?;
    // The supervisor answers every notification with `-ENOSYS` until the
    // process exits. It runs under the filter too, and never calls 500.
    std::thread::spawn(move || loop {
        // The kernel refuses a receive buffer that is not zeroed.
        let mut req = SeccompNotif::default();
        // SAFETY: the kernel writes `req`, which outlives the call.
        let ret = unsafe {
            syscalls::raw::syscall3(
                syscalls::nr::IOCTL,
                listener,
                SECCOMP_IOCTL_NOTIF_RECV,
                &mut req as *mut SeccompNotif as u64,
            )
        };
        match Errno::from_ret(ret) {
            None => {}
            Some(Errno::EINTR) => continue,
            Some(e) => {
                // The measured thread would wait for an answer forever,
                // and a panic here would end this thread alone.
                eprintln!("seccomp-user supervisor: {e}");
                std::process::exit(1);
            }
        }
        let resp = SeccompNotifResp {
            id: req.id,
            val: 0,
            error: -Errno::ENOSYS.as_i32(),
            flags: 0,
        };
        // SAFETY: the kernel reads `resp`, which outlives the call. A
        // caller that is gone (`ENOENT`) needs no answer.
        unsafe {
            syscalls::raw::syscall3(
                syscalls::nr::IOCTL,
                listener,
                SECCOMP_IOCTL_NOTIF_SEND,
                &resp as *const SeccompNotifResp as u64,
            )
        };
    });
    Ok(timed(iters, runs))
}

fn ptrace_row(iters: u64, runs: u64) -> Result<String, String> {
    const PTRACE_TRACEME: u64 = 0;
    // SAFETY: the child row's process is single-threaded here, so the
    // fork child may run anything.
    match unsafe { libc::fork() } {
        -1 => panic!("fork: {}", std::io::Error::last_os_error()),
        0 => {
            // The tracee: stopped until its tracer has set the options,
            // then timed under its syscall stops. It shares the row's
            // stdout, so it prints the row itself.
            // SAFETY: `PTRACE_TRACEME` takes no pointer.
            permitted("ptrace(PTRACE_TRACEME)", unsafe {
                syscalls::raw::syscall4(syscalls::nr::PTRACE, PTRACE_TRACEME, 0, 0, 0)
            })?;
            // SAFETY: stopping oneself touches no memory.
            unsafe { libc::raise(libc::SIGSTOP) };
            Ok(timed(iters, runs))
        }
        tracee => trace(tracee),
    }
}

/// The `ptrace` row's tracer: resumes `tracee` to each syscall-entry and
/// syscall-exit stop until it exits, then exits with its status.
fn trace(tracee: libc::pid_t) -> ! {
    const PTRACE_SYSCALL: u64 = 24;
    const PTRACE_SETOPTIONS: u64 = 0x4200;
    const PTRACE_O_TRACESYSGOOD: u64 = 1;
    const PTRACE_O_EXITKILL: u64 = 1 << 20;
    const SYSCALL_STOP: libc::c_int = 5 | 0x80; // SIGTRAP | 0x80
    let ptrace = |request, data| {
        // SAFETY: neither request reads or writes tracee memory.
        let ret = unsafe {
            syscalls::raw::syscall4(syscalls::nr::PTRACE, request, tracee as u64, 0, data)
        };
        if let Some(e) = Errno::from_ret(ret) {
            panic!("ptrace({request}): {e}");
        }
    };
    let mut status = 0;
    loop {
        // SAFETY: `status` outlives the call.
        if unsafe { libc::waitpid(tracee, &mut status, 0) } < 0 {
            panic!("waitpid: {}", std::io::Error::last_os_error());
        }
        if libc::WIFEXITED(status) {
            std::process::exit(libc::WEXITSTATUS(status));
        }
        if status & 0xff != 0x7f {
            // Killed by a signal, not stopped.
            std::process::exit(128 + (status & 0x7f));
        }
        let signal = match (status >> 8) & 0xff {
            libc::SIGSTOP => {
                ptrace(PTRACE_SETOPTIONS, PTRACE_O_TRACESYSGOOD | PTRACE_O_EXITKILL);
                0
            }
            SYSCALL_STOP => 0,
            other => other as u64,
        };
        ptrace(PTRACE_SYSCALL, signal);
    }
}

/// Counter deltas from executing a page of fresh syscall sites under
/// one batch-rewriting setting (see [`run_batch_ablation`]).
#[derive(Clone, Copy, Debug)]
pub struct BatchPhase {
    /// `SIGSYS` deliveries taken while running every site once.
    pub slow_path_hits: u64,
    /// Sites rewritten to `call rax` (batching patches neighbours too).
    pub sites_patched: u64,
}

/// The page-granular batch-rewriting ablation: `sites` fresh syscall
/// sites on one page, executed once each, with batching on vs off.
#[derive(Clone, Copy, Debug)]
pub struct BatchAblation {
    /// Distinct syscall sites emitted on the JIT page.
    pub sites: usize,
    /// Deltas under the `lazypoline` backend (one `SIGSYS` should
    /// sweep the whole page).
    pub batched: BatchPhase,
    /// Deltas under `lazypoline-nobatch` (one `SIGSYS` per site).
    pub unbatched: BatchPhase,
}

/// Emits `count` tiny functions (`mov eax, GETPID; syscall; ret`) at
/// 64-byte intervals on a fresh RWX page, `ret`-padded so a linear
/// sweep stays synchronized; returns the page base.
unsafe fn emit_getpid_page(count: usize) -> *mut u8 {
    assert!(count * 64 <= 4096);
    let page = libc::mmap(
        std::ptr::null_mut(),
        4096,
        libc::PROT_READ | libc::PROT_WRITE | libc::PROT_EXEC,
        libc::MAP_PRIVATE | libc::MAP_ANONYMOUS,
        -1,
        0,
    );
    assert_ne!(page, libc::MAP_FAILED, "mmap RWX page");
    let p = page as *mut u8;
    std::ptr::write_bytes(p, 0xc3, 4096);
    for i in 0..count {
        let code: [u8; 8] = [
            0xb8,
            syscalls::nr::GETPID as u8,
            0,
            0,
            0, // mov eax, 39
            0x0f,
            0x05, // syscall
            0xc3, // ret
        ];
        std::ptr::copy_nonoverlapping(code.as_ptr(), p.add(i * 64), code.len());
    }
    p
}

fn batch_phase(backend: &'static str, sites: usize) -> BatchPhase {
    // The batching switch is carried by the backend name; installing
    // either re-inits the process-global engine with that setting.
    let active = mechanism::by_name(backend)
        .expect("registered backend")
        .install(Box::new(interpose::PassthroughHandler))
        .expect("install");
    let (slow, patched);
    unsafe {
        let p = emit_getpid_page(sites);
        // Resolve the expected pid before the measurement window so
        // libc's own getpid syscall site cannot contribute its SIGSYS
        // to the deltas.
        let pid = libc::getpid() as u64;
        let before = active.stats();
        for i in 0..sites {
            let f: extern "C" fn() -> u64 = std::mem::transmute(p.add(i * 64));
            assert_eq!(f(), pid, "JIT site {i}");
        }
        let after = active.stats();
        slow = after.slow_path_hits - before.slow_path_hits;
        patched = after.sites_patched - before.sites_patched;
        libc::munmap(p as *mut _, 4096);
    }
    drop(active);
    BatchPhase {
        slow_path_hits: slow,
        sites_patched: patched,
    }
}

/// Runs the batch-rewriting ablation (multi-site discovery workload).
///
/// # Panics
///
/// Panics if the environment lacks SUD or page-zero mapping — call
/// [`environment_supported`] first.
pub fn run_batch_ablation() -> BatchAblation {
    assert!(environment_supported(), "SUD or page-zero unavailable");
    let sites = env_u64("LP_BENCH_BATCH_SITES", 16).clamp(1, 64) as usize;
    let unbatched = batch_phase("lazypoline-nobatch", sites);
    let batched = batch_phase("lazypoline", sites);
    BatchAblation {
        sites,
        batched,
        unbatched,
    }
}

/// Measures the fast path under every [`XstateMask`] level — the
/// tuning space of the paper's configurable preservation option
/// (§IV-B(b)). Standalone: installs the `lazypoline` backend and
/// sweeps [`mechanism::ActiveMechanism::set_xstate`].
pub fn run_xstate_sweep() -> Vec<(XstateMask, Measurement)> {
    assert!(environment_supported(), "SUD or page-zero unavailable");
    let iters = env_u64("LP_BENCH_ITERS", 200_000).max(1);
    let runs = env_u64("LP_BENCH_RUNS", 10).max(1);
    let mut active = mechanism::by_name("lazypoline")
        .expect("registered backend")
        .install(Box::new(interpose::PassthroughHandler))
        .expect("install");
    loop_fast(PAPER_SYSNO, 1); // ensure the site is rewritten
    let mut out = Vec::new();
    for mask in [
        XstateMask::None,
        XstateMask::X87,
        XstateMask::Sse,
        XstateMask::Avx,
    ] {
        assert!(active.set_xstate(mask), "lazypoline is engine-backed");
        let name = match mask {
            XstateMask::None => "xstate: none",
            XstateMask::X87 => "xstate: x87",
            XstateMask::Sse => "xstate: x87+sse",
            XstateMask::Avx => "xstate: x87+sse+avx",
        };
        out.push((mask, measure(name, loop_fast, PAPER_SYSNO, iters, runs)));
    }
    // Teardown (drop) restores the default mask and unenrolls.
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measurement_statistics() {
        let m = Measurement {
            name: "x",
            cycles_per_call: vec![100.0, 110.0, 90.0],
        };
        assert!((m.cycles() - 99.66).abs() < 0.1);
        assert!(m.stddev_pct() > 0.0);
    }

    #[test]
    fn measured_loops_are_distinct_sites() {
        // Identical bodies get merged, and then rewriting one loop's
        // `syscall` rewrites the baseline's.
        let [plain, fast, sud] = [loop_plain, loop_fast, loop_sud].map(|f: LoopFn| f as usize);
        assert!(plain != fast && fast != sud && plain != sud);
    }

    #[test]
    fn table2_plan_names_resolve_and_order_raw_sud_first() {
        let mut engine_seen = false;
        for row in &TABLE2_PLAN {
            assert!(
                mechanism::by_name(row.backend).is_some(),
                "{} must be registered",
                row.backend
            );
            if row.backend.starts_with("lazypoline") || row.backend == "zpoline" {
                engine_seen = true;
            }
            if row.backend == "sud-raw" {
                assert!(!engine_seen, "sud-raw must precede every engine row");
            }
        }
    }

    #[test]
    fn hardened_wire_format_carries_every_counter() {
        let mut stats = mechanism::StatsSnapshot {
            mechanism: HARDENED,
            ..Default::default()
        };
        let names: Vec<_> = stats.counters().map(|(name, _)| name).collect();
        for (i, name) in names.into_iter().enumerate() {
            *stats.counter_mut(name).unwrap() = i as u64 + 1;
        }
        let text = render_child_output(&[300.5, 310.25], Some(("Full", &stats)));
        let row = parse_child_output(HARDENED, &text).expect("parses");
        assert_eq!(row.measurement.cycles_per_call, [300.5, 310.25]);
        assert_eq!(row.harden_level.as_deref(), Some("Full"));
        assert_eq!(row.stats, Some(stats));
        // The other child rows send their samples alone.
        let row = parse_child_output("ptrace", &render_child_output(&[9e4], None)).expect("parses");
        assert_eq!(row.measurement.cycles_per_call, [9e4]);
        assert_eq!((row.harden_level, row.stats), (None, None));
    }

    // The full session is exercised by the `table2` binary and the
    // micro-benchmark integration test (subprocess): running it here
    // would permanently rewrite this test runner's code.
}
