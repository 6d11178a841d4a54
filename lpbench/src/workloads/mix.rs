//! The three workloads that issue a seeded mix of real syscalls from
//! eight distinct sites, each under a different layer stack:
//!
//! * `hook_mix` — `lazypoline+hooks` with the `openat`-only example
//!   hook: 8 of 9 syscalls miss the global interest gate, 1 of 9
//!   crosses the `lp_hook_v1` dlopen boundary.
//! * `sfip_mix` — `lazypoline+sfip` (action `count`) enforcing a policy
//!   that set-up learns from a recording of the same mix.
//! * `record_stream` — `lazypoline+record` with a real trace sink: over
//!   a million events per session, decoded and compared afterwards.
//!
//! The mix is a fixed multiset in seeded order: 4096 entries, of which
//! 512 are an `openat("/dev/null")` + `close` pair and the rest are
//! getpid, getppid, getuid, fstat, lseek and a 1-byte read of
//! `/dev/zero` in equal shares — 4608 syscalls per pass.

use std::ffi::CString;
use std::os::fd::AsRawFd;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use interpose::{Action, InterestSet, PassthroughHandler, SyscallEvent, SyscallHandler};
use mechanism::ActiveMechanism;
use syscalls::nr;

use crate::harness::{self, Check, Counters, Ctx, Side, Workload, DISPATCH_SLACK};
use crate::jit::{StubFn, StubPage};
use crate::rng::shuffled_multiset;
use crate::stats::Block;
use crate::sys;

/// Entries of each kind in one pass; the last kind is the
/// `openat` + `close` pair.
pub const KIND_COUNTS: [usize; 7] = [598, 598, 597, 597, 597, 597, 512];
const PAIR: u8 = 6;
/// Syscall numbers of the eight sites, in priming order.
const SITE_SYSNOS: [u64; 8] = [
    nr::GETPID,
    nr::GETPPID,
    nr::GETUID,
    nr::FSTAT,
    nr::LSEEK,
    nr::READ,
    nr::OPENAT,
    nr::CLOSE,
];
const OPS_PER_PASS: u64 = 4096 + 512;
const OPENATS_PER_PASS: u64 = 512;
const AT_FDCWD: u64 = -100i64 as u64;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MixKind {
    Hooks,
    Sfip,
    Record,
}

impl MixKind {
    /// Blocks per side of a repetition.
    fn blocks(self) -> usize {
        match self {
            MixKind::Hooks | MixKind::Sfip => 10,
            MixKind::Record => 8,
        }
    }

    /// Passes per block. A `record_stream` session (the mechanism side
    /// of one repetition) is 8 × 28 × 4608 ≈ 1.03 M events, so drain,
    /// codec and spill reach their steady state. Its `none` blocks are
    /// as long: at a quarter of the length they sampled 70 ms of host
    /// time against the session's 700, and the ratio of the two spread
    /// twice as wide from run to run.
    fn passes(self) -> u64 {
        match self {
            MixKind::Hooks | MixKind::Sfip => 2,
            MixKind::Record => 28,
        }
    }
}

/// Ring capacity of every recording session the benchmark opens.
///
/// At the default 1024 entries this host drops a few thousand events in
/// a process's first session (the drain thread's wake-up latency exceeds
/// a quarter ring at 1.4 M events/s) and then grows the ring to its
/// 131 072-entry ceiling by steps that depend on scheduling. At that
/// ceiling one session in ~100 still overflowed: with the producer and
/// the drain thread filling both vCPUs, the drain thread now and then
/// loses its CPU for 50–130 ms, and a ring lasts 90. Four times the
/// ceiling makes the run's memory the same every time, but no size
/// rides out every stall (a shared host has taken the drain thread's
/// CPU for over 370 ms, a whole ring at this size): what does is that a
/// `record_stream` block ends only when the drain thread has caught up
/// (see [`catch_up`]), and a block is a quarter of this ring.
const RING_CAPACITY: &str = "524288";

/// Events a `record_stream` block may leave in the ring when it ends:
/// an eighth of the ring. Producer and drain thread share a CPU, so the
/// ring holds what the producer pushes in one timeslice — up to some
/// 20 k events — before the drain thread gets its turn; a threshold
/// inside that range would have the producer spin away the rest of a
/// timeslice at the end of every other block. In the steady state the
/// wait is no wait at all.
const CATCH_UP_BACKLOG: u64 = 65_536;
/// How long a block waits for the drain thread at most; a drain side
/// that never catches up then shows as dropped events, not as a hang.
const CATCH_UP_LIMIT: Duration = Duration::from_secs(5);

/// Events pushed into the rings and not yet spilled, over the process's
/// lifetime. Not the rings' occupancy by itself: the ledger's probes
/// empty rings through `ring::drain_all`, which spills nothing, so the
/// difference carries an offset from before the session — see
/// [`Mix::backlog_base`].
fn unspilled() -> u64 {
    // `events_spilled` moves after a sweep has freed the ring, so the
    // difference is never less than what the rings hold.
    replay::events_recorded().saturating_sub(replay::events_spilled())
}

/// Spins until the drain thread is within `CATCH_UP_BACKLOG` events of
/// the producer; `base` is [`unspilled`] at the session's start, when
/// the rings were empty. Part of the timed block: `op_ns` is what
/// recording sustains, so a drain side slower than the producer shows
/// as time per op (and a stalled one moves one block, which the block
/// median drops) instead of as lost events. With a backlog of at most
/// `CATCH_UP_BACKLOG` at its start, a block's 129 k events cannot
/// overflow the ring, whatever the scheduler does to the drain thread.
///
/// Two relaxed loads and the vDSO clock per turn, no syscall: the
/// thread is under SUD here, and a `sched_yield` would be dispatched,
/// recorded and counted like the workload's own.
fn catch_up(base: u64) {
    let t0 = Instant::now();
    while unspilled().saturating_sub(base) > CATCH_UP_BACKLOG && t0.elapsed() < CATCH_UP_LIMIT {
        std::hint::spin_loop();
    }
}

/// Installs `lazypoline+record` draining into `trace`; the recorder's
/// environment knobs are set for the install only.
fn install_recorder(cx: &Ctx, trace: &std::path::Path) -> Result<ActiveMechanism, String> {
    std::env::set_var(mechanism::TRACE_OUT_ENV, trace);
    std::env::set_var(replay::ring::LP_RING_CAPACITY, RING_CAPACITY);
    let active = harness::install(cx, "lazypoline+record", Box::new(PassthroughHandler));
    std::env::remove_var(mechanism::TRACE_OUT_ENV);
    std::env::remove_var(replay::ring::LP_RING_CAPACITY);
    active
}

/// Ends a recording session: the thread leaves SUD *first*, then the
/// trace is finished. Finishing joins the drain thread through libc's
/// futex path; done under SUD, that rewrites libc's `syscall()` and
/// `sched_yield` sites, and from the next session on the drain thread's
/// own parking and yielding is dispatched and recorded — each yield an
/// event it must then drain (tens of thousands of extra dispatches per
/// session, and overflows). `Recorder`'s docs ask for this order too.
fn finish_recorder(
    cx: &Ctx,
    active: &mut ActiveMechanism,
) -> Result<replay::RecordSummary, String> {
    cx.tracer.span("detach", "mechanism", || active.detach());
    cx.tracer
        .span("finish_recording", "replay", || active.finish_recording())
        .ok_or("the session had no trace sink")?
        .map_err(|e| format!("finishing the trace: {e}"))
}

/// Decodes a session's trace and compares the syscall numbers recorded
/// from the mechanism page, in order, with what `passes` passes after
/// priming issue; returns (compared, wrong) and removes the trace.
/// Events from other code (the CPU-clock reads around each block) are in
/// the trace but not in the comparison.
///
/// The decode runs in a forked child: a million decoded events are
/// 88 MB, which must not become this process's `VmHWM`. And it runs
/// right after the session, not when the run ends: a run's traces add up
/// to ~200 MB of dirty page cache, and the kernel's dirty throttling
/// then stalls the drain thread's next spill window for longer than a
/// ring lasts (one run in eight lost 40–180 k events that way).
fn verify_trace(
    trace: &std::path::Path,
    prep: &Prepared,
    passes: u64,
) -> Result<(u64, u64), String> {
    let counts = crate::sys::in_forked_child(|| {
        let (_, records) = replay::read_trace_path(trace)
            .map_err(|e| format!("decoding {}: {e}", trace.display()))?;
        let issued = SITE_SYSNOS
            .iter()
            .copied()
            .chain(expected_sysnos(&prep.seq, passes));
        let recorded = records
            .iter()
            .filter(|r| prep.mech.contains(r.site))
            .map(|r| r.sysno);
        let (compared, wrong) = sequence_errors(issued, recorded);
        Ok(vec![compared as f64, wrong as f64])
    });
    let _ = std::fs::remove_file(trace);
    match counts?[..] {
        [compared, wrong] => Ok((compared as u64, wrong as u64)),
        _ => Err("the verifying child reported nothing".into()),
    }
}

/// How many of `issued` are missing from `recorded`, plus how many of
/// `recorded` were never issued: 0 exactly when the two sequences are
/// equal. A dropped event costs one, not everything after it.
pub fn sequence_errors(
    issued: impl Iterator<Item = u64>,
    recorded: impl Iterator<Item = u64>,
) -> (u64, u64) {
    let mut issued = issued.peekable();
    let (mut compared, mut wrong) = (0u64, 0u64);
    for r in recorded {
        compared += 1;
        // Skip (and count) issued syscalls until the recorded one is
        // found; if it never is, it was not issued at all.
        loop {
            match issued.next() {
                Some(i) if i == r => break,
                Some(_) => {
                    compared += 1;
                    wrong += 1;
                }
                None => {
                    wrong += 1;
                    break;
                }
            }
        }
    }
    let missing = issued.count() as u64;
    (compared + missing, wrong + missing)
}

/// The compiled-in anchor of the `hook_mix` stack. The stock
/// passthrough handler is interested in everything, which would make
/// every syscall an interest *hit*; this one matches the loaded hook's
/// interest, so the union stays `openat`-only. (The ledger's
/// interest-miss probe installs it too.)
pub struct OpenatOnly;

impl SyscallHandler for OpenatOnly {
    fn handle(&self, _event: &mut SyscallEvent) -> Action {
        Action::Passthrough
    }

    fn name(&self) -> &str {
        "openat-only"
    }

    fn interest(&self) -> InterestSet {
        InterestSet::of(&[nr::OPENAT])
    }
}

#[derive(Clone, Copy)]
struct Op {
    stub: StubFn,
    nr: u64,
    args: [u64; 3],
    expect: u64,
}

/// One side's call table: six single-syscall kinds plus the pair.
struct Table {
    singles: [Op; 6],
    open: StubFn,
    close: StubFn,
    devnull: u64,
}

struct Prepared {
    _none: StubPage,
    mech: StubPage,
    seq: Vec<u8>,
    none_table: Table,
    mech_table: Table,
    // Buffers and the descriptor the tables point into.
    _zero: std::fs::File,
    _devnull: CString,
    _statbuf: Box<[u8; 256]>,
    readbuf: Box<[u8; 8]>,
}

impl Prepared {
    fn new(seed: u64) -> Result<Prepared, String> {
        let zero = std::fs::File::open("/dev/zero").map_err(|e| format!("/dev/zero: {e}"))?;
        let devnull = CString::new("/dev/null").expect("no interior NUL");
        let mut statbuf = Box::new([0u8; 256]);
        let mut readbuf = Box::new([0xffu8; 8]);
        let none = StubPage::new(8).map_err(|e| format!("code page: {e}"))?;
        let mech = StubPage::new(8).map_err(|e| format!("code page: {e}"))?;
        // SAFETY: getppid/getuid take no arguments and cannot fail.
        let (ppid, uid) = unsafe {
            (
                syscalls::raw::syscall0(nr::GETPPID),
                syscalls::raw::syscall0(nr::GETUID),
            )
        };
        let fd = zero.as_raw_fd() as u64;
        let table = |page: &StubPage, statbuf: &mut [u8; 256], readbuf: &mut [u8; 8]| {
            let op = |i: usize, args: [u64; 3], expect: u64| Op {
                stub: page.stub(i),
                nr: SITE_SYSNOS[i],
                args,
                expect,
            };
            Table {
                singles: [
                    op(0, [0; 3], std::process::id() as u64),
                    op(1, [0; 3], ppid),
                    op(2, [0; 3], uid),
                    op(3, [fd, statbuf.as_mut_ptr() as u64, 0], 0),
                    op(4, [fd, 0, 1 /* SEEK_CUR */], 0),
                    op(5, [fd, readbuf.as_mut_ptr() as u64, 1], 1),
                ],
                open: page.stub(6),
                close: page.stub(7),
                devnull: devnull.as_ptr() as u64,
            }
        };
        let none_table = table(&none, &mut statbuf, &mut readbuf);
        let mech_table = table(&mech, &mut statbuf, &mut readbuf);
        Ok(Prepared {
            _none: none,
            mech,
            seq: shuffled_multiset(seed, &KIND_COUNTS),
            none_table,
            mech_table,
            _zero: zero,
            _devnull: devnull,
            _statbuf: statbuf,
            readbuf,
        })
    }

    fn table(&self, side: Side) -> &Table {
        match side {
            Side::None => &self.none_table,
            Side::Mech => &self.mech_table,
        }
    }
}

/// One `openat` + `close`; returns the number of wrong results.
#[inline]
fn pair(t: &Table) -> u64 {
    // SAFETY: openat of a NUL-terminated path that outlives the call.
    let fd = unsafe { (t.open)(nr::OPENAT, AT_FDCWD, t.devnull, libc::O_RDONLY as u64) };
    if (fd as i64) < 0 {
        return 2;
    }
    // SAFETY: closing the descriptor opened above.
    u64::from(unsafe { (t.close)(nr::CLOSE, fd, 0, 0) } != 0)
}

/// Executes every site once, in site order.
fn prime(t: &Table) -> u64 {
    let mut wrong = 0;
    for op in &t.singles {
        // SAFETY: the table's arguments point into live buffers.
        wrong +=
            u64::from(unsafe { (op.stub)(op.nr, op.args[0], op.args[1], op.args[2]) } != op.expect);
    }
    wrong + pair(t)
}

/// `passes` passes over the sequence; returns the wrong results.
fn run_passes(t: &Table, seq: &[u8], passes: u64) -> u64 {
    let mut wrong = 0;
    for _ in 0..passes {
        for &k in seq {
            if k == PAIR {
                wrong += pair(t);
            } else {
                let op = &t.singles[k as usize];
                // SAFETY: the table's arguments point into live buffers.
                let ret = unsafe { (op.stub)(op.nr, op.args[0], op.args[1], op.args[2]) };
                wrong += u64::from(ret != op.expect);
            }
        }
    }
    wrong
}

/// The syscall numbers `passes` passes issue, in order.
pub fn expected_sysnos(seq: &[u8], passes: u64) -> impl Iterator<Item = u64> + '_ {
    (0..passes).flat_map(move |_| {
        seq.iter().flat_map(|&k| {
            let (first, second) = if k == PAIR {
                (nr::OPENAT, Some(nr::CLOSE))
            } else {
                (SITE_SYSNOS[k as usize], None)
            };
            std::iter::once(first).chain(second)
        })
    })
}

pub struct Mix {
    kind: MixKind,
    prep: Option<Prepared>,
    active: Option<ActiveMechanism>,
    window_blocks: u64,
    /// The open `record_stream` session's trace.
    trace: Option<PathBuf>,
    /// [`unspilled`] when that session began.
    backlog_base: u64,
}

impl Mix {
    pub fn new(kind: MixKind) -> Mix {
        Mix {
            kind,
            prep: None,
            active: None,
            window_blocks: 0,
            trace: None,
            backlog_base: 0,
        }
    }

    fn timed(&self, side: Side) -> Block {
        let prep = self.prep.as_ref().expect("prepared");
        let passes = self.kind.passes();
        let recording = self.kind == MixKind::Record && side == Side::Mech;
        harness::timed_self(|| {
            let wrong = run_passes(prep.table(side), &prep.seq, passes);
            if recording {
                catch_up(self.backlog_base);
            }
            (passes * OPS_PER_PASS, wrong)
        })
    }

    /// `sfip_mix` set-up: record the mix under `lazypoline+record`
    /// through the very code path the measurement uses (same priming,
    /// same timed blocks, so the CPU-clock reads between blocks are in
    /// the trace too), learn the transition automaton, save it, and
    /// point `LP_SFIP_POLICY` at it — audit what you enforce.
    fn learn_policy(&mut self, cx: &Ctx) -> Result<(), String> {
        // Named after the process: set-ups also run in copies of this
        // one while it measures with the policy it learned.
        let pid = std::process::id();
        let trace = cx.dir.join(&format!("sfip-learn-{pid}.lpt"));
        let policy_path = cx.dir.join(&format!("mix-{pid}.sfip"));
        let mut active = install_recorder(cx, &trace)?;
        let prep = self.prep.as_ref().expect("prepared");
        let mut wrong = cx
            .tracer
            .span("prime", "lazypoline", || prime(&prep.mech_table));
        // Two blocks, so every block-to-block transition is learned.
        for _ in 0..2 {
            wrong += self.timed(Side::Mech).failed;
        }
        let summary = finish_recorder(cx, &mut active)?;
        cx.tracer.span("teardown", "mechanism", || drop(active));
        if wrong != 0 || summary.dropped != 0 {
            return Err(format!(
                "learning pass: {wrong} wrong results, {} events dropped",
                summary.dropped
            ));
        }
        let (_, records) = cx
            .tracer
            .span("read_trace_path", "replay", || {
                replay::read_trace_path(&trace)
            })
            .map_err(|e| format!("reading the learning trace: {e}"))?;
        let policy = cx
            .tracer
            .span("Policy::learn", "sfip", || {
                sfip::Policy::learn(&records, "lazypoline+record")
            })
            .map_err(|e| format!("learning: {e}"))?;
        cx.tracer
            .span("Policy::save", "sfip", || policy.save(&policy_path))
            .map_err(|e| format!("saving the policy: {e}"))?;
        let _ = std::fs::remove_file(&trace);
        std::env::set_var(sfip::POLICY_ENV, &policy_path);
        std::env::set_var(sfip::ACTION_ENV, "count");
        Ok(())
    }
}

impl Workload for Mix {
    fn blocks_per_side(&self) -> usize {
        self.kind.blocks()
    }

    fn prepare(&mut self, cx: &Ctx) -> Result<(), String> {
        self.prep = Some(Prepared::new(cx.seed)?);
        match self.kind {
            MixKind::Hooks => {
                // Absolute path: nothing is resolved against a search
                // path the caller's environment could bend.
                std::env::set_var(mechanism::HOOKS_ENV, &cx.artifacts.hook_openat);
            }
            MixKind::Sfip => self.learn_policy(cx)?,
            // One CPU for the producer and the drain thread (which
            // inherits the binding), and for the `none` blocks beside
            // them. On a CPU each, what an event costs depends on
            // something that stays put for a whole run — presumably
            // where the host runs the two virtual CPUs: one core's two
            // hardware threads, or two cores with the ring's cache
            // lines travelling between them — and `overhead_x` read
            // either ~2.75 or ~3.05 (interquartile range over ten runs
            // 5–10 %). Time-sharing one CPU the two threads take 580 ns
            // per event where side by side they took 700, and 1 380 ns
            // of CPU (the drain thread spins when it is ahead), and the
            // ratio repeats within 3.5–5.4 %: the wall time of an op is
            // the whole cost of recording it.
            // An aid to steadiness, not a requirement: where the host
            // forbids it the run goes on, on however many CPUs it has.
            MixKind::Record => {
                if let Err(e) = sys::pin_to_current_cpu() {
                    eprintln!("lpbench: record_stream runs unpinned: {e}");
                }
            }
        }
        Ok(())
    }

    fn enter(&mut self, side: Side, cx: &Ctx) -> Result<(), String> {
        if side == Side::None {
            self.active = Some(harness::install(cx, "none", Box::new(PassthroughHandler))?);
            return Ok(());
        }
        self.active = Some(match self.kind {
            MixKind::Hooks => harness::install(cx, "lazypoline+hooks", Box::new(OpenatOnly))?,
            MixKind::Sfip => harness::install(cx, "lazypoline+sfip", Box::new(PassthroughHandler))?,
            MixKind::Record => {
                let trace = cx.dir.join("record.lpt");
                // Every session before this one ended drained, and so
                // did every ledger probe: the rings are empty.
                self.backlog_base = unspilled();
                let active = install_recorder(cx, &trace)?;
                self.trace = Some(trace);
                active
            }
        });
        let prep = self.prep.as_ref().ok_or("not prepared")?;
        let wrong = cx
            .tracer
            .span("prime", "lazypoline", || prime(&prep.mech_table));
        if wrong != 0 {
            return Err(format!("priming: {wrong} wrong results"));
        }
        self.window_blocks = 0;
        Ok(())
    }

    fn block(&mut self, side: Side) -> Block {
        let b = self.timed(side);
        if side == Side::Mech {
            self.window_blocks += 1;
        }
        b
    }

    fn leave(&mut self, side: Side, cx: &Ctx) -> Result<Check, String> {
        let mut active = self.active.take().ok_or("leave without enter")?;
        let mut check = Check::default();
        if side == Side::Mech {
            let prep = self.prep.as_ref().ok_or("not prepared")?;
            check.expect(prep.readbuf[0] == 0, 1, || {
                "read(/dev/zero) left a nonzero byte".into()
            });
            let s = cx.tracer.span("stats", "mechanism", || active.stats());
            let passes = self.window_blocks * self.kind.passes();
            let ops = passes * OPS_PER_PASS;
            // ops + the 8 priming syscalls + two CPU-clock reads per block.
            let expected = ops + 8 + 2 * self.window_blocks;
            check.expect(
                s.unpatchable_emulations == 0 && s.pages_blocklisted == 0,
                1,
                || {
                    format!(
                        "{} emulations, {} pages blocklisted",
                        s.unpatchable_emulations, s.pages_blocklisted
                    )
                },
            );
            check.expect(
                (expected..=expected + DISPATCH_SLACK).contains(&s.dispatches),
                ops,
                || {
                    format!(
                        "dispatches {} for {expected} interposed syscalls",
                        s.dispatches
                    )
                },
            );
            match self.kind {
                MixKind::Hooks => {
                    let openats = passes * OPENATS_PER_PASS + 1;
                    check.expect(
                        s.hooks_loaded == 1 && s.hook_dispatches == openats,
                        openats,
                        || {
                            format!(
                                "{} hooks saw {} events for {openats} openat calls",
                                s.hooks_loaded, s.hook_dispatches
                            )
                        },
                    );
                }
                MixKind::Sfip => {
                    check.expect(s.sfip_checks == s.dispatches, ops, || {
                        format!(
                            "{} sfip checks for {} dispatches",
                            s.sfip_checks, s.dispatches
                        )
                    });
                    check.expect(s.sfip_violations == 0, s.sfip_violations, || {
                        format!("{} sfip violations on the learned mix", s.sfip_violations)
                    });
                }
                MixKind::Record => {
                    let summary = finish_recorder(cx, &mut active)?;
                    check.expect(summary.dropped == 0, summary.dropped, || {
                        format!(
                            "{} events dropped of {}",
                            summary.dropped,
                            summary.events + summary.dropped
                        )
                    });
                    let trace = self.trace.take().ok_or("the session has no trace")?;
                    let (compared, wrong) = cx.tracer.span("verify", "lpbench", || {
                        verify_trace(
                            &trace,
                            prep,
                            self.window_blocks * self.kind.passes(),
                        )
                    })?;
                    check.attempted += compared;
                    check.expect(wrong == 0, wrong, || {
                        format!("{wrong} of {compared} recorded syscalls differ from those issued")
                    });
                }
            }
            check.counters = Counters::from(s);
        }
        cx.tracer.span("teardown", "mechanism", || drop(active));
        Ok(check)
    }

    fn discard(&mut self) {
        self.active = None;
        self.prep = None;
        if let Some(trace) = self.trace.take() {
            let _ = std::fs::remove_file(trace);
        }
        for var in [mechanism::HOOKS_ENV, sfip::POLICY_ENV, sfip::ACTION_ENV] {
            std::env::remove_var(var);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_op_sequence() {
        let a = shuffled_multiset(11, &KIND_COUNTS);
        let b = shuffled_multiset(11, &KIND_COUNTS);
        assert_eq!(a, b);
        assert_ne!(a, shuffled_multiset(12, &KIND_COUNTS));
        let sysnos: Vec<u64> = expected_sysnos(&a, 2).collect();
        assert_eq!(sysnos.len() as u64, 2 * OPS_PER_PASS);
        assert_eq!(
            sysnos.iter().filter(|&&n| n == nr::OPENAT).count() as u64,
            2 * OPENATS_PER_PASS
        );
        // Every openat is followed by its close.
        assert!(sysnos
            .windows(2)
            .all(|w| w[0] != nr::OPENAT || w[1] == nr::CLOSE));
        assert_eq!(sysnos[..sysnos.len() / 2], sysnos[sysnos.len() / 2..]);
    }

    #[test]
    fn sequence_errors_count_each_gap_once() {
        let issued = [1u64, 2, 3, 4, 5, 6];
        let errs = |rec: &[u64]| sequence_errors(issued.into_iter(), rec.iter().copied());
        assert_eq!(errs(&[1, 2, 3, 4, 5, 6]), (6, 0));
        // One event dropped in the middle: one error, not four.
        assert_eq!(errs(&[1, 2, 4, 5, 6]), (6, 1));
        // A truncated trace misses its tail.
        assert_eq!(errs(&[1, 2]), (6, 4));
        // An event that was never issued is an error of its own.
        assert_eq!(errs(&[1, 2, 3, 4, 5, 6, 9]).1, 1);
        assert_eq!(errs(&[]), (6, 6));
    }

    #[test]
    fn uninterposed_pass_returns_the_expected_values() {
        let prep = Prepared::new(3).unwrap();
        assert_eq!(prime(&prep.none_table), 0);
        assert_eq!(run_passes(&prep.none_table, &prep.seq, 1), 0);
        assert_eq!(prep.readbuf[0], 0);
    }
}
