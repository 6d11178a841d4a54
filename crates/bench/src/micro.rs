//! The native Table II / Figure 4 microbenchmark.
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

use mechanism::XstateMask;

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
    /// Full lazypoline dispatching into a compiled-in two-entry
    /// [`interpose::HookStack`] — the baseline the loaded-hook row is
    /// judged against.
    pub lazypoline_chain: Measurement,
    /// Full lazypoline under the `lazypoline+hooks` backend with the
    /// no-op `hook_noop` cdylib loaded via `LP_HOOKS` — same stack
    /// shape as the chain row, but one handler crossed the `dlopen`
    /// ABI. `None` when the example hook library is not built.
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
    /// with a live trace session (async drain thread + mmap spill), so
    /// the measured cost is the full production recording pipeline and
    /// the summary proves (or disproves) the zero-drop claim.
    pub recording: Option<mechanism::replay::RecordSummary>,
}

impl MicroResults {
    /// Rows in Table II order with overhead ratios vs baseline.
    pub fn rows(&self) -> Vec<(&'static str, f64, f64)> {
        let base = self.baseline.cycles();
        [
            &self.zpoline,
            &self.lazypoline_nox,
            &self.lazypoline,
            &self.lazypoline_record,
            &self.lazypoline_chain,
        ]
        .into_iter()
        .chain(self.lazypoline_hooks.as_ref())
        .chain(self.lazypoline_sfip.as_ref())
        .chain([&self.sud, &self.sud_enabled_allow])
        .map(|m| (m.name, m.cycles() / base, m.stddev_pct()))
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
/// it. The driver knows nothing about what a backend *is* — install,
/// optionally prime/detach, time the loop, snapshot the counters.
struct RowSpec {
    /// Registry key for [`mechanism::by_name`].
    backend: &'static str,
    /// Table II row label.
    label: &'static str,
    /// The measured loop.
    body: LoopFn,
    /// Builds the handler the backend installs. Every standard row
    /// uses a bare passthrough; the hook-stack rows install richer
    /// shapes so the *dispatch structure* is what varies, not the work.
    handler: fn() -> Box<dyn interpose::SyscallHandler>,
    /// `LP_HOOKS` value to export around the install (empty: leave the
    /// ambient environment alone).
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
    /// Run the row with a live trace session: `LP_TRACE_OUT` points at
    /// a scratch trace so the `+record` backend spins up its drain
    /// thread and spills for real — recording cost without the spill
    /// pipeline would be a fiction.
    record: bool,
}

/// The standard rows' handler: a bare passthrough.
fn passthrough_handler() -> Box<dyn interpose::SyscallHandler> {
    Box::new(interpose::PassthroughHandler)
}

/// The loaded-hook comparator: a compiled-in two-entry chain (anchor +
/// one no-op member) — structurally the same stack the
/// `lazypoline+hooks` row runs, with zero `dlopen` in sight.
fn chain_handler() -> Box<dyn interpose::SyscallHandler> {
    let stack = interpose::HookStack::new();
    stack.attach(Box::new(interpose::PassthroughHandler), 0);
    stack.attach(Box::new(interpose::PassthroughHandler), 0);
    Box::new(stack)
}

/// The Table II measurement plan, in execution order.
///
/// Ordering constraint: `sud-raw` owns the `SIGSYS` disposition and
/// must run before any engine-backed row initialises the engine
/// (process-global, one-way).
const TABLE2_PLAN: [RowSpec; 7] = [
    RowSpec {
        backend: "none",
        label: "baseline",
        body: loop_plain,
        prime: false,
        detach: false,
        capped: false,
        record: false,
        handler: passthrough_handler,
        hooks: "",
    },
    RowSpec {
        backend: "sud-allow",
        label: "baseline with SUD enabled (selector=ALLOW)",
        body: loop_plain,
        prime: false,
        detach: false,
        capped: false,
        record: false,
        handler: passthrough_handler,
        hooks: "",
    },
    RowSpec {
        backend: "sud-raw",
        label: "SUD",
        body: loop_sud,
        prime: false,
        detach: false,
        capped: true,
        record: false,
        handler: passthrough_handler,
        hooks: "",
    },
    RowSpec {
        backend: "lazypoline",
        label: "lazypoline",
        body: loop_fast,
        prime: true,
        detach: false,
        capped: false,
        record: false,
        handler: passthrough_handler,
        hooks: "",
    },
    RowSpec {
        backend: "lazypoline+record",
        label: "lazypoline+record (flight recorder)",
        body: loop_fast,
        prime: true,
        detach: false,
        capped: false,
        record: true,
        handler: passthrough_handler,
        hooks: "",
    },
    RowSpec {
        backend: "lazypoline-nox",
        label: "lazypoline without xstate preservation",
        body: loop_fast,
        prime: true,
        detach: false,
        capped: false,
        record: false,
        handler: passthrough_handler,
        hooks: "",
    },
    RowSpec {
        backend: "zpoline",
        label: "zpoline",
        body: loop_fast,
        prime: true,
        detach: true,
        capped: false,
        record: false,
        handler: passthrough_handler,
        hooks: "",
    },
];

/// Installs `row.backend` by name, measures `row.body`, and returns the
/// timing plus the backend's counter deltas for the window. Recording
/// rows run with a live trace session; its summary rides along.
fn measure_row(
    row: &RowSpec,
    nr: u64,
    iters: u64,
    runs: u64,
) -> (
    Measurement,
    mechanism::StatsSnapshot,
    Option<mechanism::replay::RecordSummary>,
) {
    // A recording row must pay for the real pipeline: trace session,
    // drain thread, mmap spill. `LP_TRACE_OUT` set by the caller keeps
    // the trace; otherwise it lands in a scratch file we remove.
    let mut scratch_trace = None;
    let mut scratch_capacity = false;
    if row.record && std::env::var_os("LP_TRACE_OUT").is_none() {
        let path = std::env::temp_dir().join(format!("lp_table2_{}.lpt", std::process::id()));
        std::env::set_var("LP_TRACE_OUT", &path);
        scratch_trace = Some(path);
    }
    if row.record && std::env::var_os(mechanism::replay::ring::LP_RING_CAPACITY).is_none() {
        // The bench thread is CPU-bound: on a single-core host the
        // drainer only runs when the producer's timeslice expires, so
        // the ring must absorb a full timeslice of production. Size it
        // to hold one whole measured run — zero drops by construction,
        // and the drainer still spills every event for the summary.
        let capacity = (2 * iters).next_power_of_two().clamp(
            mechanism::replay::ring::DEFAULT_RING_CAPACITY as u64,
            mechanism::replay::ring::MAX_RING_CAPACITY as u64,
        );
        std::env::set_var(
            mechanism::replay::ring::LP_RING_CAPACITY,
            capacity.to_string(),
        );
        scratch_capacity = true;
    }
    // Hook rows pin LP_HOOKS for the install window only, restoring
    // whatever the harness exported afterwards.
    let ambient_hooks = std::env::var_os("LP_HOOKS");
    if !row.hooks.is_empty() {
        std::env::set_var("LP_HOOKS", row.hooks);
    }
    let backend = mechanism::by_name(row.backend)
        .unwrap_or_else(|| panic!("{} is not in the mechanism registry", row.backend));
    let mut active = backend
        .install((row.handler)())
        .unwrap_or_else(|e| panic!("install {}: {e}", row.backend));
    if !row.hooks.is_empty() {
        match &ambient_hooks {
            Some(v) => std::env::set_var("LP_HOOKS", v),
            None => std::env::remove_var("LP_HOOKS"),
        }
    }
    if row.prime {
        (row.body)(nr, 1);
    }
    if row.detach {
        active.detach();
    }
    let m = measure(row.label, row.body, nr, iters, runs);
    let stats = active.stats();
    let summary = if row.record {
        let s = active
            .finish_recording()
            .map(|r| r.unwrap_or_else(|e| panic!("finishing {} trace: {e}", row.backend)));
        if let Some(path) = scratch_trace {
            std::env::remove_var("LP_TRACE_OUT");
            let _ = std::fs::remove_file(&path);
        }
        if scratch_capacity {
            std::env::remove_var(mechanism::replay::ring::LP_RING_CAPACITY);
        }
        s
    } else {
        None
    };
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
    // row's own trace, so that trace must outlive its row: pin
    // `LP_TRACE_OUT` to a scratch path when the harness left it unset
    // (measure_row keeps — and never deletes — a caller-provided path).
    let ambient_trace = std::env::var_os("LP_TRACE_OUT");
    let learn_trace = match &ambient_trace {
        Some(v) => std::path::PathBuf::from(v),
        None => {
            let p = std::env::temp_dir().join(format!("lp_table2_learn_{}.lpt", std::process::id()));
            std::env::set_var("LP_TRACE_OUT", &p);
            p
        }
    };

    let mut measurements = Vec::with_capacity(TABLE2_PLAN.len());
    let mut stats = Vec::with_capacity(TABLE2_PLAN.len() + 3);
    let mut recording = None;
    for row in &TABLE2_PLAN {
        let row_iters = if row.capped { sud_iters } else { iters };
        let (m, s, summary) = measure_row(row, PAPER_SYSNO, row_iters, runs);
        stats.push((row.label, s));
        measurements.push(m);
        recording = recording.or(summary);
    }

    // Syscall-flow-integrity row: learn the transition automaton from
    // the record row's trace, then measure the identical loop under
    // `lazypoline+sfip` (count mode — the check runs, nothing dies).
    let lazypoline_sfip = run_sfip_row(&learn_trace, iters, runs, &mut stats);
    if ambient_trace.is_none() {
        std::env::remove_var("LP_TRACE_OUT");
        let _ = std::fs::remove_file(&learn_trace);
    }

    // Hook-stack rows: the compiled-in chain comparator, then the same
    // stack shape with one member loaded over the `lp_hook_v1` ABI.
    let chain_row = RowSpec {
        backend: "lazypoline",
        label: "lazypoline+chain (compiled-in no-op chain)",
        body: loop_fast,
        prime: true,
        detach: false,
        capped: false,
        record: false,
        handler: chain_handler,
        hooks: "",
    };
    let (lazypoline_chain, s, _) = measure_row(&chain_row, PAPER_SYSNO, iters, runs);
    stats.push((chain_row.label, s));

    // Skip (don't fail) when the example cdylib isn't built — the JSON
    // then simply lacks the row, like any unsupported configuration.
    let lazypoline_hooks = match hookabi::load_from_spec("hook_noop") {
        Ok(_) => {
            let row = RowSpec {
                backend: "lazypoline+hooks",
                label: "lazypoline+hooks (loaded no-op hook)",
                body: loop_fast,
                prime: true,
                detach: false,
                capped: false,
                record: false,
                handler: passthrough_handler,
                hooks: "hook_noop",
            };
            let (m, s, _) = measure_row(&row, PAPER_SYSNO, iters, runs);
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
            baseline: measure_row(plan_row("none"), sysno, iters, runs).0,
            zpoline: measure_row(plan_row("zpoline"), sysno, iters, runs).0,
            lazypoline: measure_row(plan_row("lazypoline"), sysno, iters, runs).0,
        })
        .collect();

    let mut it = measurements.into_iter();
    let (baseline, sud_enabled_allow, sud_m, lazypoline_m, lazypoline_record, lazypoline_nox, zpoline_m) = (
        it.next().unwrap(),
        it.next().unwrap(),
        it.next().unwrap(),
        it.next().unwrap(),
        it.next().unwrap(),
        it.next().unwrap(),
        it.next().unwrap(),
    );

    MicroResults {
        baseline,
        sud_enabled_allow,
        zpoline: zpoline_m,
        lazypoline_nox,
        lazypoline: lazypoline_m,
        lazypoline_record,
        lazypoline_chain,
        lazypoline_hooks,
        lazypoline_sfip,
        sud: sud_m,
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
    std::env::set_var(sfip::POLICY_ENV, &policy_path);
    std::env::set_var(sfip::ACTION_ENV, "count");
    let row = RowSpec {
        backend: "lazypoline+sfip",
        label: "lazypoline+sfip (flow-integrity check)",
        body: loop_fast,
        prime: true,
        detach: false,
        capped: false,
        record: false,
        handler: passthrough_handler,
        hooks: "",
    };
    let (m, s, _) = measure_row(&row, PAPER_SYSNO, iters, runs);
    std::env::remove_var(sfip::POLICY_ENV);
    std::env::remove_var(sfip::ACTION_ENV);
    let _ = std::fs::remove_file(&policy_path);
    stats.push((row.label, s));
    Some(m)
}

/// The interest-filtering win for *loaded* hooks: a [`interpose::HookStack`]
/// holding only one dlopen'ed hook, measured on the shared dispatch
/// decision path ([`interpose::interpose_syscall`]) with syscall 500.
///
/// * `wide` — `hook_noop` declares interest in every syscall, so each
///   iteration builds an event and virtually dispatches through the
///   loaded member.
/// * `narrow` — `hook_openat` declares interest in `openat` only;
///   syscall 500 fails the stack's recomputed interest gate and
///   executes raw, exactly like a compiled-in scoped policy.
///
/// Runs on any host (no SUD, no page zero). `None` when the example
/// hook cdylibs are not built.
#[derive(Clone, Debug)]
pub struct HookWinCurve {
    /// Iterations per run.
    pub iters: u64,
    /// Runs per configuration.
    pub runs: u64,
    /// Only `hook_noop` loaded (interest: all syscalls).
    pub wide: Measurement,
    /// Only `hook_openat` loaded (interest: `openat` only).
    pub narrow: Measurement,
    /// The `narrow` stack installed under `lazypoline` and syscall 500
    /// issued from a rewritten site: the miss as an application pays
    /// for it — `call rax`, sled, entry stub — where `narrow` starts at
    /// the decision function. `None` on hosts without SUD or page zero.
    pub narrow_trampoline: Option<Measurement>,
}

/// Measures [`HookWinCurve`]; see the type docs.
pub fn run_hook_win_curve() -> Option<HookWinCurve> {
    let iters = env_u64("LP_BENCH_ITERS", 200_000).max(1);
    let runs = env_u64("LP_BENCH_RUNS", 10).max(1);

    // The stack must contain ONLY the loaded hook: a compiled-in
    // anchor with all-syscalls interest would defeat the narrowing
    // this cell exists to show.
    let stack_of = |spec: &str| -> Option<Box<interpose::HookStack>> {
        let hook = match hookabi::load_from_spec(spec) {
            Ok(mut hooks) => hooks.pop()?,
            Err(e) => {
                eprintln!("skip: hook win-curve ({e})");
                return None;
            }
        };
        let stack = interpose::HookStack::new();
        stack.attach_dynamic(Box::new(hook), 0);
        Some(Box::new(stack))
    };
    let measure_only = |spec: &str, name: &'static str| -> Option<Measurement> {
        let guard = interpose::install_handler(stack_of(spec)?);
        let m = measure(name, loop_interest_dispatch, PAPER_SYSNO, iters, runs);
        drop(guard);
        Some(m)
    };

    let wide = measure_only("hook_noop", "dispatch, loaded hook_noop (interest: all)")?;
    let narrow = measure_only("hook_openat", "dispatch, loaded hook_openat (interest: openat)")?;
    let narrow_trampoline = if environment_supported() {
        let active = mechanism::by_name("lazypoline")
            .expect("registered backend")
            .install(stack_of("hook_openat")?)
            .expect("install");
        loop_fast(PAPER_SYSNO, 1); // ensure the site is rewritten
        let name = "rewritten site, loaded hook_openat (interest: openat)";
        let m = measure(name, loop_fast, PAPER_SYSNO, iters, runs);
        drop(active);
        Some(m)
    } else {
        None
    };
    Some(HookWinCurve {
        iters,
        runs,
        wide,
        narrow,
        narrow_trampoline,
    })
}

/// The `lazypoline-hardened` Table II row, measured in a **child**
/// process: the seccomp backstop is one-way per process, so installing
/// it in the benchmark process would leave every later row (and the
/// dispatch/batch ablations) running under the kill filter.
#[derive(Clone, Debug)]
pub struct HardenedRow {
    /// Steady-state fast-path timing under the hardened configuration.
    pub measurement: Measurement,
    /// Counter deltas for the measured window (only the fields the
    /// wire format carries; the rest stay 0).
    pub stats: mechanism::StatsSnapshot,
    /// The degradation-ladder rung the child reached (`Full` with MPK
    /// hardware, `BackstopOnly` without, etc.).
    pub harden_level: String,
}

/// Child-process entry for the hardened row: installs the
/// `lazypoline-hardened` backend, measures [`loop_fast`] in steady
/// state, and prints the wire format ([`parse_hardened_output`]) to
/// stdout. The parent re-execs this binary with `--hardened-row`.
pub fn hardened_child_main() -> ! {
    if !environment_supported() || mechanism::by_name("lazypoline-hardened").is_none() {
        std::process::exit(2);
    }
    let iters = env_u64("LP_BENCH_ITERS", 200_000).max(1);
    let runs = env_u64("LP_BENCH_RUNS", 10).max(1);
    let row = RowSpec {
        backend: "lazypoline-hardened",
        label: "lazypoline (hardened)",
        body: loop_fast,
        prime: true,
        detach: false,
        capped: false,
        record: false,
        handler: passthrough_handler,
        hooks: "",
    };
    let (m, stats, _) = measure_row(&row, PAPER_SYSNO, iters, runs);
    let mut out = String::from("cycles");
    for c in &m.cycles_per_call {
        out.push_str(&format!(" {c}"));
    }
    out.push_str(&format!(
        "\nstats {} {} {} {} {} {}\nharden {:?}\n",
        stats.dispatches,
        stats.slow_path_hits,
        stats.sites_patched,
        stats.bypass_blocked,
        stats.pkru_switches,
        stats.drain_yields,
        lazypoline::health().harden,
    ));
    print!("{out}");
    std::process::exit(0);
}

/// Runs the hardened row by re-execing the current binary with
/// `--hardened-row` and parsing its stdout. `None` when the child
/// can't run the row (exit 2) or dies under its own backstop — the
/// table simply omits the row, like any other unsupported
/// configuration.
pub fn run_hardened_row() -> Option<HardenedRow> {
    let exe = std::env::current_exe().ok()?;
    let out = std::process::Command::new(exe)
        .arg("--hardened-row")
        .output()
        .ok()?;
    if !out.status.success() {
        eprintln!(
            "skip: hardened-row child exited with {} — {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        );
        return None;
    }
    parse_hardened_output(&String::from_utf8_lossy(&out.stdout))
}

/// Parses the child's line-oriented wire format: `cycles <f64>...`,
/// `stats <dispatches> <slow_path_hits> <sites_patched>
/// <bypass_blocked> <pkru_switches> <drain_yields>`, `harden <rung>`.
fn parse_hardened_output(text: &str) -> Option<HardenedRow> {
    let mut cycles = Vec::new();
    let mut stats = mechanism::StatsSnapshot {
        mechanism: "lazypoline-hardened",
        ..Default::default()
    };
    let mut harden_level = String::new();
    for line in text.lines() {
        let mut it = line.split_whitespace();
        match it.next() {
            Some("cycles") => cycles = it.filter_map(|t| t.parse().ok()).collect(),
            Some("stats") => {
                let mut n = || it.next().and_then(|t| t.parse().ok()).unwrap_or(0);
                stats.dispatches = n();
                stats.slow_path_hits = n();
                stats.sites_patched = n();
                stats.bypass_blocked = n();
                stats.pkru_switches = n();
                stats.drain_yields = n();
            }
            Some("harden") => harden_level = it.collect::<Vec<_>>().join(" "),
            _ => {}
        }
    }
    if cycles.is_empty() {
        return None;
    }
    Some(HardenedRow {
        measurement: Measurement {
            name: "lazypoline (hardened)",
            cycles_per_call: cycles,
        },
        stats,
        harden_level,
    })
}

/// Dispatch-cost comparison isolating the syscall-interest filter
/// (see [`run_dispatch_cost`]).
#[derive(Clone, Debug)]
pub struct DispatchCost {
    /// Iterations per run.
    pub iters: u64,
    /// Runs per configuration.
    pub runs: u64,
    /// Dispatch cost with an all-syscalls handler installed
    /// ([`interpose::CountHandler`] — event built and virtually
    /// dispatched on every call).
    pub all_syscalls: Measurement,
    /// Dispatch cost with a precisely scoped handler (a
    /// [`interpose::PolicyBuilder`] policy touching only `openat`):
    /// the benchmark syscall fails the interest word test and executes
    /// raw.
    pub interest_filtered: Measurement,
}

/// One iteration of the dispatcher's interest-gated hot-path decision
/// sequence.
///
/// This loop is **not** a reproduction of that sequence: it calls the
/// exported shared decision function [`interpose::interpose_syscall`] —
/// the same inline function `fastpath::lazypoline_dispatch` and the
/// raw-SUD handler run — so the benchmark cannot drift from the
/// production decision path. (See the equivalence unit test below and
/// `interpose_syscall_matches_dispatch_global` in `lp-interpose`.)
#[inline(never)]
fn loop_interest_dispatch(nr: u64, iters: u64) {
    let args = syscalls::SyscallArgs::nullary(nr);
    for _ in 0..iters {
        let ret = interpose::interpose_syscall(args, 0, |call| {
            // SAFETY: only ever measured with syscall 500, which does
            // not exist; the kernel returns ENOSYS without touching
            // memory.
            unsafe { syscalls::raw::syscall(call) }
        });
        std::hint::black_box(ret);
    }
}

/// Measures the per-syscall dispatch cost with an all-syscalls handler
/// vs an interest-scoped one (syscall-interest filtering). Runs on any
/// host — no SUD, no page zero: the filter's effect lives entirely in
/// the dispatcher's decision sequence.
pub fn run_dispatch_cost() -> DispatchCost {
    let iters = env_u64("LP_BENCH_ITERS", 200_000).max(1);
    let runs = env_u64("LP_BENCH_RUNS", 10).max(1);

    let guard = interpose::install_handler(Box::new(interpose::CountHandler::new()));
    let all_syscalls = measure(
        "dispatch, all-syscalls handler",
        loop_interest_dispatch,
        PAPER_SYSNO,
        iters,
        runs,
    );
    drop(guard);

    // A policy that only cares about openat: syscall 500 fails the
    // interest test, so the shared decision function takes the raw arm.
    let policy = interpose::PolicyBuilder::allow_by_default()
        .deny(syscalls::nr::OPENAT)
        .build();
    let guard = interpose::install_handler(Box::new(policy));
    let interest_filtered = measure(
        "dispatch, PolicyHandler scoped to openat",
        loop_interest_dispatch,
        PAPER_SYSNO,
        iters,
        runs,
    );
    drop(guard);

    DispatchCost {
        iters,
        runs,
        all_syscalls,
        interest_filtered,
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
    fn interest_dispatch_loop_matches_dispatch_global() {
        use interpose::{Action, SyscallEvent, SyscallHandler};

        // A handler that decides 500 with a sentinel: observable only
        // if the loop really consults the shared decision function.
        struct Sentinel;
        impl SyscallHandler for Sentinel {
            fn handle(&self, ev: &mut SyscallEvent) -> Action {
                if ev.call.nr == syscalls::NONEXISTENT_SYSCALL {
                    Action::Return(0xBEEF)
                } else {
                    Action::Passthrough
                }
            }
        }
        let _guard = interpose::install_handler(Box::new(Sentinel));

        let args = syscalls::SyscallArgs::nullary(syscalls::NONEXISTENT_SYSCALL);
        let via_shared = interpose::interpose_syscall(args, 0, |call| {
            // SAFETY: nonexistent syscall, returns ENOSYS.
            unsafe { syscalls::raw::syscall(call) }
        });
        // The installed handler asked directly: what the shared sequence
        // must come to for a decision that is not a passthrough.
        let mut ev = interpose::SyscallEvent::new(args);
        let handler = interpose::global_handler().expect("just installed");
        let expected = match handler.handle(&mut ev) {
            Action::Passthrough => unreachable!("Sentinel decides 500"),
            Action::Return(v) => v,
            Action::Fail(e) => e.as_ret(),
        };
        assert_eq!(via_shared, expected);
        assert_eq!(via_shared, 0xBEEF);
        // And the loop itself runs the same path without crashing.
        loop_interest_dispatch(syscalls::NONEXISTENT_SYSCALL, 10);
    }

    // The full session is exercised by the `table2` binary and the
    // micro-benchmark integration test (subprocess): running it here
    // would permanently rewrite this test runner's code.
}
