//! The per-layer ledger of a traced run, outside in: what a bare
//! syscall costs, what each mechanism layer adds to it (subtractive
//! ablation over registry names), and what the public functions of
//! each crate cost when called directly. `README.md` maps every metric
//! to the end-to-end metric and workload it should move.
//!
//! Probe order is load-bearing. `sud-raw` owns the `SIGSYS`
//! disposition and the cold-start probes need a process in which the
//! engine has never initialised, so both run before anything installs
//! an engine-backed mechanism — which is also why the ledger runs
//! before the traced workload.

use std::hint::black_box;
use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

use interpose::{Action, HookStack, InterestSet, PassthroughHandler, SyscallEvent, SyscallHandler};
use mechanism::XstateMask;
use replay::EventRecord;
use syscalls::{nr, SyscallArgs};

use crate::harness::{self, Ctx};
use crate::jit::{enosys_sum, ChurnPage, LoopPage, SUD_REARM_LOOP, SYSCALL_LOOP};
use crate::stats::median;
use crate::sys;
use crate::workloads::{self, mix};

/// One measured value; the name and unit are looked up in
/// [`crate::metrics::PER_LAYER`].
pub type Row = (&'static str, f64);

/// Median ns per iteration of `body` over `rounds` timed batches of
/// `iters` iterations.
fn ns_per_iter(rounds: usize, iters: u64, mut body: impl FnMut(u64)) -> f64 {
    body(iters.min(100)); // warm the path
    let samples: Vec<f64> = (0..rounds)
        .map(|_| {
            let t0 = Instant::now();
            body(iters);
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&samples).expect("rounds > 0")
}

fn median_of(mut f: impl FnMut() -> f64, n: usize) -> f64 {
    median(&(0..n).map(|_| f()).collect::<Vec<_>>()).expect("n > 0")
}

fn us(t0: Instant) -> f64 {
    t0.elapsed().as_nanos() as f64 / 1e3
}

const LOOP_ITERS: u64 = 10_000;

/// ns per syscall of the loop on `page`, checked.
fn loop_ns(page: &LoopPage, selector: *mut u8, iters: u64) -> Result<f64, String> {
    let t0 = Instant::now();
    let sum = page.call(iters, selector);
    let ns = t0.elapsed().as_nanos() as f64 / iters as f64;
    if sum != enosys_sum(iters) {
        return Err(format!("ledger loop returned {sum:#x}"));
    }
    Ok(ns)
}

/// Probes that must precede the first engine initialisation.
fn before_engine(cx: &Ctx, none_page: &LoopPage, out: &mut Vec<Row>) -> Result<(), String> {
    // A bare syscall through the repository's raw wrapper, no page, no
    // machinery: the denominator of everything.
    out.push((
        "syscalls.raw_ns",
        ns_per_iter(15, LOOP_ITERS, |n| {
            for _ in 0..n {
                // SAFETY: syscall 500 does not exist; the kernel
                // returns ENOSYS without touching memory.
                black_box(unsafe { syscalls::raw::syscall0(syscalls::NONEXISTENT_SYSCALL) });
            }
        }),
    ));

    // SUD merely enabled (selector ALLOW) vs nothing, interleaved.
    let (mut plain, mut allow) = (Vec::new(), Vec::new());
    for _ in 0..10 {
        plain.push(loop_ns(none_page, std::ptr::null_mut(), LOOP_ITERS)?);
        let active = harness::install(cx, "sud-allow", Box::new(PassthroughHandler))?;
        allow.push(loop_ns(none_page, std::ptr::null_mut(), LOOP_ITERS)?);
        drop(active);
    }
    out.push((
        "sud.allow_ns",
        median(&allow).expect("10 rounds") - median(&plain).expect("10 rounds"),
    ));

    out.push((
        "sud.set_selector_ns",
        ns_per_iter(15, LOOP_ITERS, |n| {
            for _ in 0..n / 2 {
                sud::set_selector(sud::Dispatch::Block);
                sud::set_selector(sud::Dispatch::Allow);
            }
        }),
    ));

    // Classic SUD: every syscall is a SIGSYS round trip.
    let sud_page = LoopPage::new(&SUD_REARM_LOOP).map_err(|e| format!("code page: {e}"))?;
    let active = harness::install(cx, "sud-raw", Box::new(PassthroughHandler))?;
    let sigsys = median_of(
        || loop_ns(&sud_page, sud::selector_ptr(), 2_000).unwrap_or(f64::NAN),
        7,
    );
    drop(active);
    if sigsys.is_nan() {
        return Err("the sud-raw loop returned a wrong sum".into());
    }
    out.push(("sud.sigsys_ns", sigsys));

    cold_start(out)
}

/// The one-shot steps, each timed in forked children: processes in
/// which neither the trampoline nor the engine exists yet.
fn cold_start(out: &mut Vec<Row>) -> Result<(), String> {
    let (mut tramp, mut init, mut teardown) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..5 {
        // The trampoline alone: page-zero map, sled fill, mprotect.
        let v = sys::in_forked_child(|| {
            let t0 = Instant::now();
            zpoline::Trampoline::install().map_err(|e| format!("trampoline: {e}"))?;
            Ok(vec![us(t0)])
        })?;
        tramp.push(*v.first().ok_or("the trampoline probe measured nothing")?);
        // The whole first install of the paper's mechanism (trampoline
        // + SIGSYS handler + signal adoption + enrolment), and its
        // teardown.
        let v = sys::in_forked_child(|| {
            let m = mechanism::by_name("lazypoline").ok_or("lazypoline is not registered")?;
            let t0 = Instant::now();
            let active = m
                .install(Box::new(PassthroughHandler))
                .map_err(|e| format!("install: {e}"))?;
            let init_us = us(t0);
            let t1 = Instant::now();
            drop(active);
            Ok(vec![init_us, us(t1)])
        })?;
        let [i, t] = v[..] else {
            return Err("the cold-install probe measured nothing".into());
        };
        init.push(i);
        teardown.push(t);
    }
    out.push((
        "zpoline.trampoline_install_us",
        median(&tramp).expect("5 children"),
    ));
    out.push(("lazypoline.init_us", median(&init).expect("5 children")));
    out.push((
        "lazypoline.teardown_us",
        median(&teardown).expect("5 children"),
    ));
    Ok(())
}

/// Subtractive ablation on the Table II loop: every configuration on
/// the same (once-rewritten) site, interleaved round by round.
fn ablation(cx: &Ctx, none_page: &LoopPage, out: &mut Vec<Row>) -> Result<(), String> {
    let page = LoopPage::new(&SYSCALL_LOOP).map_err(|e| format!("code page: {e}"))?;
    const ROUNDS: usize = 12;
    const CONFIGS: usize = 8;
    let mut samples: [Vec<f64>; CONFIGS] = Default::default();
    let block = |p: &LoopPage| -> Result<f64, String> {
        let v = [
            loop_ns(p, std::ptr::null_mut(), LOOP_ITERS)?,
            loop_ns(p, std::ptr::null_mut(), LOOP_ITERS)?,
            loop_ns(p, std::ptr::null_mut(), LOOP_ITERS)?,
        ];
        Ok(median(&v).expect("3 blocks"))
    };
    for _ in 0..ROUNDS {
        samples[0].push(block(none_page)?);
        for (i, name) in [(1, "zpoline"), (2, "lazypoline-nox"), (3, "lazypoline")] {
            let mut active = harness::install(cx, name, Box::new(PassthroughHandler))?;
            page.call(1, std::ptr::null_mut());
            if name == "zpoline" {
                // Pure rewriting: drop out of SUD once the site is patched.
                active.detach();
            }
            samples[i].push(block(&page)?);
        }
        let mut active = harness::install(cx, "lazypoline", Box::new(PassthroughHandler))?;
        for (i, mask) in [
            (4, XstateMask::None),
            (5, XstateMask::X87),
            (6, XstateMask::Sse),
            (7, XstateMask::Avx),
        ] {
            if !active.set_xstate(mask) {
                return Err("lazypoline refused set_xstate".into());
            }
            samples[i].push(block(&page)?);
        }
    }
    let m: Vec<f64> = samples
        .iter()
        .map(|s| median(s).expect("rounds > 0"))
        .collect();
    out.push(("zpoline.fast_added_ns", m[1] - m[0]));
    out.push(("lazypoline.selector_added_ns", m[2] - m[1]));
    out.push(("lazypoline.xstate_added_ns", m[3] - m[2]));
    out.push(("lazypoline.xstate_ns.x87", m[5] - m[4]));
    out.push(("lazypoline.xstate_ns.sse", m[6] - m[4]));
    out.push(("lazypoline.xstate_ns.avx", m[7] - m[4]));
    Ok(())
}

/// The rewriter's pieces called directly, and the slow path per SIGSYS
/// on sparse and dense pages.
fn rewriting(cx: &Ctx, out: &mut Vec<Row>) -> Result<(), String> {
    let dense = ChurnPage::new(16).map_err(|e| format!("code page: {e}"))?;
    out.push((
        "zpoline.sweep_ns_per_page",
        ns_per_iter(15, 200, |n| {
            for _ in 0..n {
                black_box(zpoline::disasm::sweep(black_box(dense.bytes())).count());
            }
        }),
    ));

    let libc_text = zpoline::exec_regions()
        .map_err(|e| format!("/proc/self/maps: {e}"))?
        .into_iter()
        .find(|r| r.path.contains("libc"))
        .ok_or("no executable libc mapping to scan")?;
    // SAFETY: an r-x mapping of this process, alive for its lifetime.
    let text = unsafe { std::slice::from_raw_parts(libc_text.start as *const u8, libc_text.len()) };
    let scan_s = median_of(
        || {
            let t0 = Instant::now();
            black_box(zpoline::find_syscall_sites(
                libc_text.start,
                black_box(text),
            ));
            t0.elapsed().as_secs_f64()
        },
        5,
    );
    out.push(("zpoline.scan_mb_per_s", text.len() as f64 / 1e6 / scan_s));

    // Slow path per SIGSYS: (interposed − plain) time per fresh page.
    let pid = std::process::id() as u64;
    for (name, density) in [
        ("lazypoline.slow_us_per_sigsys.sparse", 1usize),
        ("lazypoline.slow_us_per_sigsys.dense", 16),
    ] {
        const PAGES: usize = 100;
        let order = [density; PAGES];
        let time = || -> Result<f64, String> {
            let t0 = Instant::now();
            let (_, wrong) =
                workloads::churn(&order, pid).map_err(|e| format!("fresh page: {e}"))?;
            if wrong != 0 {
                return Err(format!("{wrong} fresh sites returned a wrong pid"));
            }
            Ok(us(t0) / PAGES as f64)
        };
        let plain = time()?;
        let active = harness::install(cx, "lazypoline", Box::new(PassthroughHandler))?;
        time()?; // libc's mmap/munmap sites get rewritten here, not in the sample
        let interposed = time()?;
        drop(active);
        out.push((name, interposed - plain));
    }
    Ok(())
}

/// The compiled-in twin of the `hook_openat` example library: count
/// the event, pass it on.
struct CountOpenat(std::sync::atomic::AtomicU64);

impl SyscallHandler for CountOpenat {
    fn handle(&self, _event: &mut SyscallEvent) -> Action {
        self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Action::Passthrough
    }

    fn interest(&self) -> InterestSet {
        InterestSet::of(&[nr::OPENAT])
    }
}

fn dispatch_ns(call: SyscallArgs) -> f64 {
    ns_per_iter(15, 100_000, |n| {
        for _ in 0..n {
            // The executor is a no-op: this times the decision
            // sequence, not a syscall.
            black_box(interpose::interpose_syscall(black_box(call), 0, |c| c.nr));
        }
    })
}

fn handler_ns(h: &dyn SyscallHandler, call: SyscallArgs) -> f64 {
    ns_per_iter(15, 100_000, |n| {
        for _ in 0..n {
            let mut ev = SyscallEvent::new(black_box(call));
            black_box(h.handle(&mut ev));
            black_box(h.post(&ev, 0));
        }
    })
}

/// `interpose`, `hookabi` and `sfip`: the handler-side layers, driven
/// through their public entry points with no mechanism installed.
fn handlers(cx: &Ctx, out: &mut Vec<Row>) -> Result<(), String> {
    let getpid = SyscallArgs::nullary(nr::GETPID);
    let openat = SyscallArgs::nullary(nr::OPENAT);
    {
        let _g = interpose::install_handler(Box::new(PassthroughHandler));
        out.push(("interpose.dispatch_hit_ns", dispatch_ns(getpid)));
    }
    {
        let _g = interpose::install_handler(Box::new(mix::OpenatOnly));
        out.push(("interpose.dispatch_miss_ns", dispatch_ns(getpid)));
    }
    let mut by_depth = Vec::new();
    for depth in [1, 2, 4] {
        let stack = HookStack::new();
        for _ in 0..depth {
            stack.attach(Box::new(PassthroughHandler), 0);
        }
        let _g = interpose::install_handler(Box::new(stack));
        by_depth.push(dispatch_ns(getpid));
    }
    out.push((
        "interpose.stack_ns_per_hook",
        (by_depth[2] - by_depth[0]) / 3.0,
    ));

    let spec = cx.artifacts.hook_openat.to_string_lossy().into_owned();
    let load_us = median_of(
        || {
            let t0 = Instant::now();
            let loaded = hookabi::load_from_spec(&spec);
            let t = us(t0);
            if loaded.is_err() {
                return f64::NAN;
            }
            t
        },
        9,
    );
    if load_us.is_nan() {
        return Err(format!("load_from_spec({spec}) failed"));
    }
    out.push(("hookabi.load_us", load_us));
    let loaded = hookabi::load_from_spec(&spec).map_err(|e| format!("load_from_spec: {e}"))?;
    let hook = loaded.first().ok_or("the hook spec loaded nothing")?;
    let twin = CountOpenat(std::sync::atomic::AtomicU64::new(0));
    out.push((
        "hookabi.call_ns",
        handler_ns(hook, openat) - handler_ns(&twin, openat),
    ));

    let allow_all = Arc::new(sfip::Policy::allow_all("lpbench"));
    let enforcer = sfip::SfipHandler::new(
        Arc::clone(&allow_all),
        sfip::ViolationAction::Count,
        false,
        Box::new(PassthroughHandler),
    );
    let bare: Box<dyn SyscallHandler> = Box::new(PassthroughHandler);
    out.push((
        "sfip.check_ns",
        handler_ns(&enforcer, getpid) - handler_ns(bare.as_ref(), getpid),
    ));

    let records = synthetic_records(200_000, cx.seed);
    let learn_s = median_of(
        || {
            let t0 = Instant::now();
            black_box(sfip::Policy::learn(black_box(&records), "lpbench").is_ok());
            t0.elapsed().as_secs_f64()
        },
        5,
    );
    out.push((
        "sfip.learn_mevents_per_s",
        records.len() as f64 / 1e6 / learn_s,
    ));
    let policy_path = cx.dir.join("ledger.sfip");
    allow_all
        .save(&policy_path)
        .map_err(|e| format!("saving a policy: {e}"))?;
    let load_us = median_of(
        || {
            let t0 = Instant::now();
            black_box(sfip::Policy::load(&policy_path).is_ok());
            us(t0)
        },
        9,
    );
    out.push(("sfip.load_us", load_us));
    Ok(())
}

/// Events shaped like the mix workloads' (same syscall numbers in the
/// same seeded order, one site per number, advancing timestamps).
fn synthetic_records(n: usize, seed: u64) -> Vec<EventRecord> {
    let seq = crate::rng::shuffled_multiset(seed, &mix::KIND_COUNTS);
    mix::expected_sysnos(&seq, u64::MAX)
        .take(n)
        .enumerate()
        .map(|(i, sysno)| EventRecord {
            sysno,
            args: [3, 0x7ffd_0000_1000, 1, 0, 0, 0],
            ret: 0,
            tsc: 1_000_000 + 900 * i as u64,
            site: 0x7f00_0000_0000 + 64 * sysno,
            tid: 4242,
        })
        .collect()
}

/// `replay`: the recorder's producer side, its drain side, and the
/// codec and sink the drain side feeds, each on its own.
///
/// Runs on a thread of its own: a thread's ring is mapped at the
/// capacity configured when it first records, and the main thread's
/// first recording must be the traced workload's, not this probe's.
fn recorder(dir: &sys::RunDir, seed: u64) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    let out = &mut rows;
    let records = synthetic_records(200_000, seed);
    let getpid = SyscallArgs::nullary(nr::GETPID);

    // Producer side. Rings hold 1024 records by default; push in
    // batches and empty the ring between them, untimed.
    const BATCH: usize = 512;
    let handler = replay::RecordHandler::passthrough();
    let mut push = Vec::new();
    for _ in 0..200 {
        replay::ring::drain_all(|_| {});
        let t0 = Instant::now();
        for _ in 0..BATCH {
            let mut ev = SyscallEvent::with_site(black_box(getpid), 0x1000);
            black_box(handler.handle(&mut ev));
            black_box(handler.post(&ev, 0));
        }
        push.push(t0.elapsed().as_nanos() as f64 / BATCH as f64);
    }
    replay::ring::drain_all(|_| {});
    out.push(("replay.push_ns", median(&push).expect("200 batches")));

    let ring = replay::ring::SpscRing::with_capacity(1024);
    let mut ring_push = Vec::new();
    for chunk in records.chunks(BATCH).take(200) {
        ring.drain(|_| {});
        let t0 = Instant::now();
        for rec in chunk {
            black_box(ring.push(*rec));
        }
        ring_push.push(t0.elapsed().as_nanos() as f64 / chunk.len() as f64);
    }
    out.push((
        "replay.ring_push_ns",
        median(&ring_push).expect("200 batches"),
    ));

    // Drain side: a synchronous session, so `Recorder::drain` is the
    // whole ring → sort → encode → write path on this thread.
    std::env::set_var(replay::DRAIN_ENV, "sync");
    let rec = replay::Recorder::to_path(&dir.join("ledger-drain.lpt"), "lpbench");
    std::env::remove_var(replay::DRAIN_ENV);
    let mut rec = rec.map_err(|e| format!("opening a recorder session: {e}"))?;
    let mut drain = Vec::new();
    for _ in 0..100 {
        for _ in 0..BATCH {
            let mut ev = SyscallEvent::with_site(getpid, 0x1000);
            handler.handle(&mut ev);
            handler.post(&ev, 0);
        }
        let t0 = Instant::now();
        let n = rec.drain().map_err(|e| format!("Recorder::drain: {e}"))?;
        let s = t0.elapsed().as_secs_f64();
        if n != BATCH {
            return Err(format!("Recorder::drain moved {n} of {BATCH} events"));
        }
        drain.push(n as f64 / 1e6 / s);
    }
    rec.finish()
        .map_err(|e| format!("finishing the recorder session: {e}"))?;
    out.push((
        "replay.drain_mevents_per_s",
        median(&drain).expect("100 drains"),
    ));

    let mut encoded = Vec::with_capacity(records.len() * 16);
    let mut encoder = replay::codec::Lp2Encoder::new();
    let t0 = Instant::now();
    for rec in &records {
        encoder.encode(rec, &mut encoded);
    }
    out.push((
        "replay.encode_ns",
        t0.elapsed().as_nanos() as f64 / records.len() as f64,
    ));
    out.push((
        "replay.bytes_per_event",
        encoded.len() as f64 / records.len() as f64,
    ));

    const SPILL_BYTES: usize = 32 << 20;
    let chunk = vec![0xa5u8; 64 << 10];
    let spill_s = median_of(
        || {
            let path = dir.join("ledger-spill.bin");
            let t0 = Instant::now();
            let ok = replay::spill::MmapSink::create(&path).and_then(|mut sink| {
                for _ in 0..SPILL_BYTES / chunk.len() {
                    sink.write_all(&chunk)?;
                }
                sink.flush()
            });
            let s = t0.elapsed().as_secs_f64();
            let _ = std::fs::remove_file(&path);
            if ok.is_ok() {
                s
            } else {
                f64::NAN
            }
        },
        3,
    );
    if spill_s.is_nan() {
        return Err("MmapSink write failed".into());
    }
    out.push(("replay.spill_mb_per_s", SPILL_BYTES as f64 / 1e6 / spill_s));

    let trace = dir.join("ledger-decode.lpt");
    let file = std::fs::File::create(&trace).map_err(|e| format!("{}: {e}", trace.display()))?;
    let header =
        replay::TraceHeader::new("lpbench", 1_000_000_000).with_version(replay::format::VERSION2);
    let mut writer = replay::TraceWriter::new(std::io::BufWriter::new(file), &header)
        .map_err(|e| format!("trace header: {e}"))?;
    for rec in &records {
        writer
            .append(rec)
            .map_err(|e| format!("trace append: {e}"))?;
    }
    writer
        .finalize(0)
        .map_err(|e| format!("trace finalize: {e}"))?;
    let decode_s = median_of(
        || {
            let t0 = Instant::now();
            let n = replay::read_trace_path(&trace).map_or(0, |(_, r)| r.len());
            if n == records.len() {
                t0.elapsed().as_secs_f64()
            } else {
                f64::NAN
            }
        },
        3,
    );
    let _ = std::fs::remove_file(&trace);
    if decode_s.is_nan() {
        return Err("the synthetic trace did not decode to what was written".into());
    }
    out.push((
        "replay.decode_mevents_per_s",
        records.len() as f64 / 1e6 / decode_s,
    ));
    Ok(rows)
}

/// `mechanism`: name resolution and (warm) install cost per layer.
fn registry(cx: &Ctx, out: &mut Vec<Row>) -> Result<(), String> {
    for (metric, name) in [
        ("mechanism.resolve_ns.static", "lazypoline"),
        ("mechanism.resolve_ns.dynamic", "lazypoline+sfip"),
    ] {
        out.push((
            metric,
            ns_per_iter(15, 20_000, |n| {
                for _ in 0..n {
                    black_box(mechanism::by_name(black_box(name)).is_some());
                }
            }),
        ));
    }
    let policy = cx.dir.join("ledger.sfip");
    let trace = cx.dir.join("ledger-install.lpt");
    std::env::set_var(sfip::POLICY_ENV, &policy);
    std::env::set_var(sfip::ACTION_ENV, "count");
    std::env::set_var(mechanism::HOOKS_ENV, &cx.artifacts.hook_openat);
    let installs = (|| {
        for (metric, name) in [
            ("mechanism.install_us.lazypoline", "lazypoline"),
            ("mechanism.install_us.record", "lazypoline+record"),
            ("mechanism.install_us.hooks", "lazypoline+hooks"),
            ("mechanism.install_us.sfip", "lazypoline+sfip"),
        ] {
            let m = mechanism::by_name(name).ok_or_else(|| format!("{name} is not registered"))?;
            let mut samples = Vec::new();
            for _ in 0..7 {
                if name.ends_with("+record") {
                    std::env::set_var(mechanism::TRACE_OUT_ENV, &trace);
                }
                let t0 = Instant::now();
                let active = m.install(Box::new(PassthroughHandler));
                samples.push(us(t0));
                std::env::remove_var(mechanism::TRACE_OUT_ENV);
                drop(active.map_err(|e| format!("install {name}: {e}"))?);
            }
            out.push((metric, median(&samples).expect("7 installs")));
        }
        Ok(())
    })();
    for var in [sfip::POLICY_ENV, sfip::ACTION_ENV, mechanism::HOOKS_ENV] {
        std::env::remove_var(var);
    }
    let _ = std::fs::remove_file(&trace);
    installs
}

/// `httpd`: the server under four mechanisms at saturation (does the
/// cell separate them? is the server, not the generator, the
/// bottleneck?), then latency at a fixed offered load.
fn web_server(cx: &Ctx, out: &mut Vec<Row>) -> Result<(), String> {
    use workloads::{saturate, ServerChild, FILE_SIZE};
    let docroot = httpd::Docroot::create(&[FILE_SIZE]).map_err(|e| format!("docroot: {e}"))?;
    const MECHS: [&str; 4] = ["none", "lazypoline", "zpoline", "sud"];
    let mut servers = Vec::new();
    for mech in MECHS {
        let mut s = cx.tracer.span("spawn", "httpd", || {
            ServerChild::spawn(docroot.path(), mech)
        })?;
        workloads::drive(&mut s, 0.15, 0.0)?;
        if mech == "zpoline" {
            s.detach_sud();
        }
        servers.push(s);
    }
    // Short phases, every mechanism in every round, ratios taken within
    // a round: the host's speed drifts over seconds, the ratio of two
    // neighbouring phases does not.
    const ROUNDS: usize = 12;
    let mut ratio: [Vec<f64>; 4] = Default::default();
    let (mut base_cpu, mut util) = (Vec::new(), Vec::new());
    for round in 0..ROUNDS {
        let mut op_ns = [0.0; 4];
        for k in 0..MECHS.len() {
            // Rotate the order so no mechanism always runs first.
            let i = (k + round) % MECHS.len();
            let (b, elapsed_ns) = cx
                .tracer
                .span("run_open_loop", "httpd", || saturate(&mut servers[i], 0.1));
            if b.failed != 0 {
                return Err(format!(
                    "{} of {} requests failed under {}",
                    b.failed, b.ops, MECHS[i]
                ));
            }
            op_ns[i] = b.wall_ns as f64 / b.ops as f64;
            match MECHS[i] {
                "none" => base_cpu.push(b.cpu_ns as f64 / b.ops as f64),
                "lazypoline" => util.push(b.cpu_ns as f64 / elapsed_ns as f64),
                _ => {}
            }
        }
        for i in 1..MECHS.len() {
            ratio[i].push(op_ns[i] / op_ns[0]);
        }
    }
    let m: Vec<f64> = ratio.iter().map(|v| median(v).unwrap_or(1.0)).collect();
    out.push((
        "httpd.base_cpu_ns_per_req",
        median(&base_cpu).expect("12 rounds"),
    ));
    out.push(("httpd.server_cpu_util", median(&util).expect("12 rounds")));
    out.push(("httpd.overhead_x.lazypoline", m[1]));
    out.push(("httpd.overhead_x.zpoline", m[2]));
    out.push(("httpd.overhead_x.sud", m[3]));

    // Open loop at a fixed 20k requests/s: latency from the scheduled
    // send time, and the share of scheduled requests shed or left
    // unfinished.
    let r = cx.tracer.span("run_open_loop", "httpd", || {
        workloads::drive(&mut servers[1], 0.6, 20_000.0)
    })?;
    out.push(("httpd.lat_p50_us", r.latency.percentile(0.50) as f64 / 1e3));
    out.push(("httpd.lat_p99_us", r.latency.percentile(0.99) as f64 / 1e3));
    let offered = (r.requests + r.errors + r.unfinished).max(1);
    out.push((
        "httpd.shed_ratio",
        (r.errors + r.unfinished) as f64 / offered as f64,
    ));

    let lazypoline = servers.remove(1);
    let requests = lazypoline.requests.max(1);
    let counters = cx.tracer.span("stop", "httpd", || lazypoline.stop())?;
    out.push((
        "httpd.syscalls_per_req",
        counters.dispatches as f64 / requests as f64,
    ));
    Ok(())
}

/// `lazypoline-preload`: what the shim adds to the shortest possible
/// process, and what it does during one `ls -l`.
fn preload(cx: &Ctx, out: &mut Vec<Row>) -> Result<(), String> {
    let lib = &cx.artifacts.preload;
    let run_true = |preload: bool| -> Result<f64, String> {
        let mut cmd = std::process::Command::new("/bin/true");
        cmd.env_clear();
        if preload {
            cmd.env("LD_PRELOAD", lib).env("LAZYPOLINE_MODE", "count");
        }
        let t0 = Instant::now();
        let child = cmd
            .spawn()
            .map_err(|e| format!("spawning /bin/true: {e}"))?;
        let reaped = sys::reap(child.id()).map_err(|e| format!("wait4: {e}"))?;
        if !reaped.exited_zero {
            return Err("/bin/true failed".into());
        }
        Ok(us(t0))
    };
    let (mut bare, mut shim) = (Vec::new(), Vec::new());
    for _ in 0..15 {
        bare.push(run_true(false)?);
        shim.push(run_true(true)?);
    }
    out.push((
        "lazypoline-preload.startup_added_us",
        median(&shim).expect("15 runs") - median(&bare).expect("15 runs"),
    ));

    let tree = cx.dir.join("ledger-ls-tree");
    workloads::generate_tree(&tree, cx.seed)
        .map_err(|e| format!("generating {}: {e}", tree.display()))?;
    let dump = cx.dir.join("ledger-ls.stderr");
    let run = cx.tracer.span("spawn→wait", "lazypoline-preload", || {
        workloads::run_ls(
            &tree,
            cx.dir.path(),
            Some(lib),
            &[("LAZYPOLINE_STATS", "1")],
            Some(&dump),
        )
    })?;
    let text = std::fs::read_to_string(&dump).map_err(|e| format!("{}: {e}", dump.display()))?;
    let _ = std::fs::remove_dir_all(&tree);
    let field = |label: &str| {
        workloads::stats_field(&text, label)
            .map(|n| n as f64)
            .ok_or_else(|| format!("the LAZYPOLINE_STATS dump has no {label:?} line: {text:?}"))
    };
    if !run.reaped.exited_zero {
        return Err("`ls -l` under the shim failed".into());
    }
    out.push((
        "lazypoline-preload.sites_rewritten_per_exec",
        field("sites lazily rewritten")?,
    ));
    out.push((
        "lazypoline-preload.dispatches_per_exec",
        field("dispatcher invocations")?,
    ));
    Ok(())
}

/// Runs every probe; the rows come back in ledger order.
pub fn run(cx: &Ctx) -> Result<Vec<Row>, String> {
    let mut out = Vec::new();
    let none_page = LoopPage::new(&SYSCALL_LOOP).map_err(|e| format!("code page: {e}"))?;
    let t = cx.tracer;
    t.span("ledger.before_engine", "lpbench", || {
        before_engine(cx, &none_page, &mut out)
    })?;
    // Forked servers and exec'd children next, while this process is
    // still as small as it will ever be.
    t.span("ledger.httpd", "lpbench", || web_server(cx, &mut out))?;
    t.span("ledger.preload", "lpbench", || preload(cx, &mut out))?;
    t.span("ledger.handlers", "lpbench", || handlers(cx, &mut out))?;
    let (dir, seed) = (cx.dir, cx.seed);
    let recorded = t.span("ledger.recorder", "lpbench", || {
        std::thread::scope(|s| s.spawn(move || recorder(dir, seed)).join())
            .map_err(|_| "the recorder probe panicked".to_string())?
    })?;
    out.extend(recorded);
    t.span("ledger.ablation", "lpbench", || {
        ablation(cx, &none_page, &mut out)
    })?;
    t.span("ledger.rewriting", "lpbench", || rewriting(cx, &mut out))?;
    t.span("ledger.registry", "lpbench", || registry(cx, &mut out))?;
    Ok(out)
}
