//! The measurement discipline every workload shares.
//!
//! One run = `SETUP_CYCLES` timed set-ups (the last one is kept), then
//! repetitions until the requested seconds are spent, with further
//! timed set-ups spread between them. A repetition runs B timed blocks of `none` and B timed blocks of the
//! mechanism under test — half the `none` blocks before the mechanism's,
//! half after (B = 1: in alternating order); install, priming and
//! teardown sit between the sides, outside every timed block. The
//! reduction (block medians, then repetition medians) is in
//! [`crate::stats::reduce`].

use std::time::{Duration, Instant};

use interpose::SyscallHandler;
use mechanism::{ActiveMechanism, StatsSnapshot};

use crate::span::Tracer;
use crate::stats::{self, Block, Reduced, Repetition};
use crate::sys::{self, Artifacts, RunDir};

/// How often a run sets the workload up from nothing before its first
/// timed block; `setup_s` is the median over these and the ones below.
pub const SETUP_CYCLES: usize = 5;

/// Set-ups in a run, at most. Those beyond the first `SETUP_CYCLES`
/// come at even intervals between repetitions: the shared host this
/// runs on changes speed by a third from one tenth of a second to the
/// next and from one minute to the next, and twenty-five set-ups in a
/// run's first 150 ms (as this once did) read whichever speed that
/// moment had — 140 to 240 µs for the same `syscall_loop` set-up in
/// runs seconds apart. Spread out, they see the stretch of host time the
/// blocks see.
const MAX_SETUP_CYCLES: usize = 85;
/// The share of the requested time the spread-out set-ups may take: a
/// `httpd_static` set-up is a third of a second, so a ten-second run
/// has room for three of them, not eighty.
const SETUP_SHARE: f64 = 0.1;

/// A run always completes this many repetitions, however short the
/// requested time.
const MIN_REPETITIONS: usize = 3;

/// Which half of a repetition a block belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    /// No interposition: the base of every ratio.
    None,
    /// The mechanism the workload is about.
    Mech,
}

/// What a workload gets from the run around it.
pub struct Ctx<'a> {
    pub tracer: &'a Tracer,
    pub dir: &'a RunDir,
    pub artifacts: &'a Artifacts,
    pub seed: u64,
}

/// Exact counts summed over a run's mechanism windows. The per-layer
/// ledger reports them; the workloads check them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    pub dispatches: u64,
    pub slow_path_hits: u64,
    pub sites_patched: u64,
    pub patch_retries: u64,
    pub pages_blocklisted: u64,
    pub unpatchable_emulations: u64,
    pub hook_dispatches: u64,
    pub sfip_checks: u64,
    pub sfip_violations: u64,
    pub events_recorded: u64,
    pub events_dropped: u64,
    pub ring_grows: u64,
    pub ring_near_full: u64,
    pub drain_yields: u64,
}

impl Counters {
    pub fn add(&mut self, o: &Counters) {
        self.dispatches += o.dispatches;
        self.slow_path_hits += o.slow_path_hits;
        self.sites_patched += o.sites_patched;
        self.patch_retries += o.patch_retries;
        self.pages_blocklisted += o.pages_blocklisted;
        self.unpatchable_emulations += o.unpatchable_emulations;
        self.hook_dispatches += o.hook_dispatches;
        self.sfip_checks += o.sfip_checks;
        self.sfip_violations += o.sfip_violations;
        self.events_recorded += o.events_recorded;
        self.events_dropped += o.events_dropped;
        self.ring_grows += o.ring_grows;
        self.ring_near_full += o.ring_near_full;
        self.drain_yields += o.drain_yields;
    }
}

impl From<StatsSnapshot> for Counters {
    fn from(s: StatsSnapshot) -> Counters {
        Counters {
            dispatches: s.dispatches,
            slow_path_hits: s.slow_path_hits,
            sites_patched: s.sites_patched,
            patch_retries: s.patch_retries,
            pages_blocklisted: s.pages_blocklisted,
            unpatchable_emulations: s.unpatchable_emulations,
            hook_dispatches: s.hook_dispatches,
            sfip_checks: s.sfip_checks,
            sfip_violations: s.sfip_violations,
            events_recorded: s.events_recorded,
            events_dropped: s.events_dropped,
            ring_grows: s.ring_grows,
            ring_near_full: s.ring_near_full,
            drain_yields: s.drain_yields,
        }
    }
}

/// The outcome of the checks made when a side ends or a run is
/// verified: how many things were checked, how many were wrong, and
/// why (first few reasons only).
#[derive(Clone, Debug, Default)]
pub struct Check {
    pub attempted: u64,
    pub failed: u64,
    pub counters: Counters,
    pub notes: Vec<String>,
}

impl Check {
    /// One checked condition; a false one counts `weight` failures.
    pub fn expect(&mut self, ok: bool, weight: u64, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += weight.max(1);
            if self.notes.len() < 8 {
                self.notes.push(why());
            }
        }
    }

    fn absorb(&mut self, o: Check) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.counters.add(&o.counters);
        for n in o.notes {
            if self.notes.len() < 8 {
                self.notes.push(n);
            }
        }
    }
}

/// One of the seven workloads. Errors are fatal to the run: a workload
/// whose machinery or checks cannot run exits non-zero, it is never
/// reported as skipped.
pub trait Workload {
    /// B: timed blocks per side per repetition.
    fn blocks_per_side(&self) -> usize;

    /// Once per run, before any set-up and outside `setup_s`: inputs
    /// from the seed that are the benchmark's work, not the system's
    /// (files for an unmodified program to read).
    fn generate_inputs(&mut self, _cx: &Ctx) -> Result<(), String> {
        Ok(())
    }

    /// Everything a fresh process needs before the first install:
    /// code pages, buffers, learned policies, server children.
    fn prepare(&mut self, cx: &Ctx) -> Result<(), String>;

    /// Untimed: bring `side` up (install and prime the mechanism).
    fn enter(&mut self, side: Side, cx: &Ctx) -> Result<(), String>;

    /// One timed block on `side`.
    fn block(&mut self, side: Side) -> Block;

    /// Untimed: read the counters, check them, tear `side` down.
    fn leave(&mut self, side: Side, cx: &Ctx) -> Result<Check, String>;

    /// Pid of the process under test when it is not this one.
    fn process_under_test(&self) -> Option<i32> {
        None
    }

    /// Checks that end the run: what can only be read by stopping what
    /// was measured (a server child reports its counters on the way
    /// out).
    fn verify(&mut self, _cx: &Ctx) -> Result<Check, String> {
        Ok(Check::default())
    }

    /// Drops everything `prepare` made.
    fn discard(&mut self);
}

/// Times `f` on this process: wall clock innermost, process CPU clock
/// (all threads) around it.
pub fn timed_self(f: impl FnOnce() -> (u64, u64)) -> Block {
    let cpu0 = sys::process_cpu_ns(None);
    let t0 = Instant::now();
    let (ops, failed) = f();
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let cpu_ns = sys::process_cpu_ns(None) - cpu0;
    Block {
        ops,
        failed,
        wall_ns,
        cpu_ns,
        rss_kib: 0,
    }
}

/// Interposed syscalls a mechanism window may contain beyond the ones
/// a workload can count exactly (its ops, its priming, the two CPU
/// clock reads around each block): room for a stray allocator `brk`.
pub const DISPATCH_SLACK: u64 = 64;

/// Resolves and installs a registry name, with a span around each call.
pub fn install(
    cx: &Ctx,
    name: &str,
    handler: Box<dyn SyscallHandler>,
) -> Result<ActiveMechanism, String> {
    let m = cx
        .tracer
        .span("by_name", "mechanism", || mechanism::by_name(name))
        .ok_or_else(|| format!("{name} is not in the mechanism registry"))?;
    cx.tracer
        .span("install", "mechanism", || m.install(handler))
        .map_err(|e| format!("install {name}: {e}"))
}

/// What one run of one workload produced.
#[derive(Clone, Debug)]
pub struct Outcome {
    pub reduced: Reduced,
    /// One value per set-up cycle, seconds.
    pub setup_s: Vec<f64>,
    pub peak_rss_kib: u64,
    pub check: Check,
    /// Operations executed in timed blocks on both sides.
    pub ops: u64,
    /// Operations executed in mechanism blocks only (the divisor of
    /// the per-op counters).
    pub mech_ops: u64,
}

/// Runs `w` for about `seconds` of repetitions after `SETUP_CYCLES`
/// timed set-ups.
pub fn run(w: &mut dyn Workload, cx: &Ctx, seconds: f64) -> Result<Outcome, String> {
    let mut total = Check::default();
    let mut setup_s = Vec::with_capacity(MAX_SETUP_CYCLES);
    cx.tracer
        .span("generate_inputs", "lpbench", || w.generate_inputs(cx))?;
    // Set-up ends where the first timed block could begin: after
    // install and priming (the teardown that follows is not part of
    // it).
    let cycle = |w: &mut dyn Workload| -> Result<(f64, Check), String> {
        let t0 = Instant::now();
        cx.tracer.span("prepare", "lpbench", || w.prepare(cx))?;
        cx.tracer
            .span("enter", "lpbench", || w.enter(Side::Mech, cx))?;
        let s = t0.elapsed().as_secs_f64();
        Ok((s, w.leave(Side::Mech, cx)?))
    };
    // Every cycle but the one that is kept runs in a fresh copy of this
    // process as it is now, before any engine has initialised in it: each
    // one is a cold start — engine initialisation, trampoline and first
    // rewrites included — as in the process that is kept, also the ones
    // that run after this process has long been measuring.
    let mut zygote = sys::Zygote::spawn(|| {
        let r = cycle(&mut *w).map(|(s, _)| vec![s]);
        w.discard();
        r
    })?;
    let mut forked_cycle = || -> Result<f64, String> {
        zygote
            .run()?
            .first()
            .copied()
            .ok_or_else(|| "a set-up child measured nothing".to_string())
    };
    let first_cycles = Instant::now();
    while setup_s.len() + 1 < SETUP_CYCLES {
        setup_s.push(forked_cycle()?);
    }
    // What one forked cycle costs, teardown and fork included, decides
    // how many more of them the run can afford.
    let cycle_cost = first_cycles.elapsed().as_secs_f64() / (SETUP_CYCLES - 1) as f64;
    let spread_cycles =
        ((SETUP_SHARE * seconds / cycle_cost) as usize).min(MAX_SETUP_CYCLES - SETUP_CYCLES);
    let (s, check) = cycle(w)?;
    setup_s.push(s);
    total.absorb(check);

    let b = w.blocks_per_side();
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let mut reps: Vec<Repetition> = Vec::new();
    let (mut ops, mut mech_ops) = (0u64, 0u64);
    // `VmHWM` of the process under test at the end of each repetition's
    // mechanism side, reset before it: a peak per repetition, so that
    // one scheduler stall (a drain thread that falls a whole ring behind
    // buffers a whole ring) moves one sample, not the run's value.
    let mut peaks: Vec<f64> = Vec::new();
    while reps.len() < MIN_REPETITIONS || started.elapsed() < budget {
        cx.tracer.set_repetition(reps.len() as u32);
        let mut rep = Repetition {
            none: Vec::with_capacity(b),
            mech: Vec::with_capacity(b),
        };
        // `none` before *and* after the mechanism, so that drift
        // across the repetition cancels in their ratio; with a single
        // block per side, the order alternates instead.
        let plan: &[(Side, usize)] = if b >= 2 {
            &[
                (Side::None, b / 2),
                (Side::Mech, b),
                (Side::None, b - b / 2),
            ]
        } else if reps.len().is_multiple_of(2) {
            &[(Side::None, 1), (Side::Mech, 1)]
        } else {
            &[(Side::Mech, 1), (Side::None, 1)]
        };
        for &(side, blocks) in plan {
            if side == Side::Mech {
                sys::reset_vm_hwm(w.process_under_test());
            }
            cx.tracer.span("enter", "lpbench", || w.enter(side, cx))?;
            for _ in 0..blocks {
                let name = match side {
                    Side::None => "block.none",
                    Side::Mech => "block.mech",
                };
                let block = cx.tracer.span(name, "lpbench", || w.block(side));
                total.attempted += block.ops;
                total.failed += block.failed;
                ops += block.ops;
                match side {
                    Side::None => rep.none.push(block),
                    Side::Mech => {
                        mech_ops += block.ops;
                        rep.mech.push(block);
                    }
                }
            }
            let check = cx.tracer.span("leave", "lpbench", || w.leave(side, cx))?;
            total.absorb(check);
            if side == Side::Mech {
                // After the teardown: reading /proc is a handful of
                // syscalls, which inside the window would be
                // interposed, counted and checked like any other.
                peaks.push(sys::vm_hwm_kib(w.process_under_test()) as f64);
            }
        }
        reps.push(rep);
        // The set-ups that are due by now (see `MAX_SETUP_CYCLES`):
        // the k-th of n at k/(n+1) of the requested time.
        let due = |done: usize| {
            let k = (done + 1 - SETUP_CYCLES) as f64;
            budget.mul_f64(k / (spread_cycles + 1) as f64)
        };
        while setup_s.len() < SETUP_CYCLES + spread_cycles
            && started.elapsed() >= due(setup_s.len())
        {
            setup_s.push(forked_cycle()?);
        }
    }
    // A process that lives for one block (an exec'd child) reports its
    // own peak with the block.
    let from_blocks: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.mech.iter())
        .filter(|b| b.rss_kib > 0)
        .map(|b| b.rss_kib as f64)
        .collect();
    let peak_rss_kib = stats::median(if from_blocks.is_empty() {
        &peaks
    } else {
        &from_blocks
    })
    .unwrap_or(0.0) as u64;
    let verified = cx.tracer.span("verify", "lpbench", || w.verify(cx))?;
    total.absorb(verified);
    w.discard();
    let reduced = stats::reduce(&reps).ok_or("no complete repetition was measured")?;
    Ok(Outcome {
        reduced,
        setup_s,
        peak_rss_kib,
        check: total,
        ops,
        mech_ops,
    })
}
