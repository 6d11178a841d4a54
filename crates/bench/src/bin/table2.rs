//! Regenerates **Table II** (microbenchmarking overhead compared to
//! baseline, native, on this host's real kernel) and, from the same
//! measurements, **Figure 4** (lazypoline's overhead breakdown) and the
//! ablations that are Table II rows (xstate preservation, lazy and
//! batch rewriting on/off).
//!
//! ```sh
//! cargo run -p lp-bench --bin table2 --release
//! LP_BENCH_ITERS=2000000 LP_BENCH_RUNS=10 cargo run -p lp-bench --bin table2 --release
//! cargo run -p lp-bench --bin table2 --release -- --json   # also writes BENCH_table2.json, BENCH_fig4.json
//! ```
//!
//! Beside the paper's number 500, which enters the trampoline's sled
//! twelve bytes from its end, the rewriting rows are measured at
//! `read`, `getpid` and `epoll_wait` (JSON rows carry `sysno`).
//!
//! Table I's other mechanisms are rows too, each in a child process of
//! its own (`--child-row <label>`): `seccomp-bpf` (an allow-all filter),
//! `seccomp-trap` (`SECCOMP_RET_TRAP` and a `SIGSYS` handler),
//! `seccomp-user` (user notification, a supervisor thread) and `ptrace`
//! (a forked tracer), beside the hardened row.
//!
//! Everything here needs SUD and a mappable page zero. What a dispatch
//! costs per layer (interest hits and misses, hook stacks, the hook
//! ABI) is lpbench's ledger (`lpbench --trace 1`).

use lp_bench::json::Json;
use lp_bench::micro::{self, Measurement, MicroResults};
use lp_bench::report::Table;

/// The paper's Table II values for side-by-side comparison.
const PAPER: &[(&str, f64)] = &[
    ("zpoline", 1.2),
    ("lazypoline without xstate preservation", 1.66),
    ("lazypoline", 2.38),
    ("SUD", 20.8),
    ("baseline with SUD enabled (selector=ALLOW)", 1.42),
];

/// Attaches a row's mechanism counter snapshot (install-to-teardown
/// deltas, including the robustness counters) to its JSON object.
fn with_stats(row: Json, stats: Option<&mechanism::StatsSnapshot>) -> Json {
    let Some(s) = stats else { return row };
    let observed = s.events_recorded + s.events_dropped;
    let drop_rate = if observed == 0 {
        0.0
    } else {
        s.events_dropped as f64 / observed as f64
    };
    let counters = s
        .counters()
        .fold(
            Json::obj().field("mechanism", Json::Str(s.mechanism.into())),
            |obj, (name, value)| obj.field(name, Json::Int(value)),
        )
        .field("sfip_mode", Json::Str(s.sfip_mode.into()));
    row.field("drop_rate", Json::Num(drop_rate))
        .field("mechanism_stats", counters)
}

/// One JSON row: a measurement at `sysno` against that number's
/// baseline, with its per-run samples.
fn row_json(m: &Measurement, sysno: u64, base: f64) -> Json {
    let runs = m.cycles_per_call.iter().map(|&c| Json::Num(c)).collect();
    Json::obj()
        .field("name", Json::Str(m.name.into()))
        .field("sysno", Json::Int(sysno))
        .field("cycles_per_call", Json::Num(m.cycles()))
        .field("vs_baseline", Json::Num(m.cycles() / base))
        .field("stddev_pct", Json::Num(m.stddev_pct()))
        .field("cycles_per_run", Json::Arr(runs))
}

fn write_json(bench: &str, root: Json) {
    let path = format!("BENCH_{bench}.json");
    std::fs::write(&path, root.render()).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote {path}");
}

/// Figure 4's segments of the lazypoline row as `(JSON key, label,
/// cycles)`: the bare round trip, then what rewriting, enabling SUD and
/// xstate preservation each add on top.
fn fig4_segments(r: &MicroResults) -> [(&'static str, &'static str, f64); 4] {
    let (base, zp, nox, full) = (
        r.baseline.cycles(),
        r.zpoline.cycles(),
        r.lazypoline_nox.cycles(),
        r.lazypoline.cycles(),
    );
    [
        ("bare_syscall", "bare syscall round trip", base),
        (
            "rewriting",
            "+ rewriting (zpoline part)",
            (zp - base).max(0.0),
        ),
        ("enabling_sud", "+ enabling SUD", (nox - zp).max(0.0)),
        (
            "xstate_preservation",
            "+ xstate preservation",
            (full - nox).max(0.0),
        ),
    ]
}

/// What the sled adds when entered at `getpid` (39) instead of 500:
/// zpoline@39 − zpoline@500, each net of its own baseline. Not part of
/// the bar, which is the paper's, measured at 500.
fn fig4_sled(r: &MicroResults) -> f64 {
    let getpid = r
        .sled
        .iter()
        .find(|rows| rows.sysno == syscalls::nr::GETPID)
        .expect("getpid is one of micro::SLED_SYSNOS");
    (getpid.zpoline.cycles() - getpid.baseline.cycles())
        - (r.zpoline.cycles() - r.baseline.cycles())
}

fn print_table2(r: &MicroResults, children: &[micro::ChildRow]) {
    let base = r.baseline.cycles();
    println!(
        "Table II — microbenchmark overhead vs baseline (syscall 500 x {} iters, {} runs)\n",
        r.iters, r.runs
    );
    let mut table = Table::new(["Configuration", "measured", "paper", "cycles/call", "σ%"]);
    let mut max_sd = r.baseline.stddev_pct();
    let child_rows = children.iter().map(|c| &c.measurement);
    for m in r.rows().into_iter().chain(child_rows) {
        let paper = PAPER
            .iter()
            .find(|(n, _)| *n == m.name)
            .map(|(_, v)| format!("{v:.2}x"))
            .unwrap_or_default();
        table.row([
            m.name.to_string(),
            format!("{:.2}x", m.cycles() / base),
            paper,
            format!("{:.0}", m.cycles()),
            format!("{:.2}", m.stddev_pct()),
        ]);
        max_sd = max_sd.max(m.stddev_pct());
    }
    print!("{}", table.render());
    for c in children {
        let (Some(level), Some(stats)) = (&c.harden_level, &c.stats) else {
            continue;
        };
        // What the hardened row adds over plain lazypoline is the
        // backstop: the seccomp filter runs on every syscall SUD lets
        // through, the gate's included.
        println!(
            "hardened row (child process): level {level}, {:+.0} cycles/call over lazypoline, \
             {} bypass(es) blocked over {} dispatches",
            c.measurement.cycles() - r.lazypoline.cycles(),
            stats.bypass_blocked,
            stats.dispatches
        );
    }
    println!("\nbaseline: {base:.0} cycles/call; max relative stddev {max_sd:.2}%");
    if let Some(sfip_row) = &r.lazypoline_sfip {
        // The flow-integrity check is one thread-local swap plus one
        // bitmatrix test per syscall (target: within 10% of plain
        // lazypoline), and a policy learned from the workload's own
        // trace must be clean.
        let plain = r.lazypoline.cycles();
        let checked = sfip_row.cycles();
        let s = r.snapshot_for(sfip_row.name);
        println!(
            "sfip overhead: {checked:.0} vs {plain:.0} cycles/call plain lazypoline \
             ({:+.1}% — target within 10%); {} checks, {} violation(s), mode {}",
            (checked / plain - 1.0) * 100.0,
            s.map_or(0, |s| s.sfip_checks),
            s.map_or(0, |s| s.sfip_violations),
            s.map_or("", |s| s.sfip_mode),
        );
    }
    println!("(paper: Xeon Gold 5318S @2.1GHz, Linux 5.15; this host differs — compare shapes, not absolutes)");

    // Number 500 enters the sled twelve bytes from its end; these
    // enter where real programs do.
    println!("\nThe rewriting rows at other numbers, each vs the same number uninterposed:\n");
    let mut t = Table::new(["sysno", "baseline cycles", "zpoline", "lazypoline"]);
    let at = |m: &Measurement, base: f64| format!("{:.2}x ({:.0})", m.cycles() / base, m.cycles());
    t.row([
        "500".to_string(),
        format!("{base:.0}"),
        at(&r.zpoline, base),
        at(&r.lazypoline, base),
    ]);
    for rows in &r.sled {
        let base = rows.baseline.cycles();
        t.row([
            rows.sysno.to_string(),
            format!("{base:.0}"),
            at(&rows.zpoline, base),
            at(&rows.lazypoline, base),
        ]);
    }
    print!("{}", t.render());
    if let Some(rec) = &r.recording {
        println!(
            "recording row trace: {} events, {} dropped ({:.4}% drop rate), {} bytes ({:.1} B/event)",
            rec.events,
            rec.dropped,
            rec.drop_rate() * 100.0,
            rec.bytes,
            bytes_per_event(rec),
        );
    }
}

fn bytes_per_event(rec: &mechanism::replay::RecordSummary) -> f64 {
    if rec.events == 0 {
        0.0
    } else {
        rec.bytes as f64 / rec.events as f64
    }
}

fn print_fig4(r: &MicroResults) {
    let total = r.lazypoline.cycles();
    let segments = fig4_segments(r);
    println!("\nFigure 4 — lazypoline overhead breakdown (cycles per interposed syscall)\n");
    for (_, label, v) in segments {
        let width = (60.0 * v / total).round() as usize;
        println!("{label:<28} {v:>8.0}  |{}|", "#".repeat(width));
    }
    println!("{:<28} {total:>8.0}", "= lazypoline total");
    println!(
        "{:<28} {:>+8.0}",
        "sled, entered at 39 not 500",
        fig4_sled(r)
    );
    let (_, _, xstate) = segments[3];
    println!(
        "(paper: xstate preservation is the largest component; here {:.0}% of total overhead)",
        100.0 * xstate / (total - r.baseline.cycles())
    );
}

fn print_ablations(r: &MicroResults, batch: &micro::BatchAblation) {
    let (nox, full, sud) = (
        r.lazypoline_nox.cycles(),
        r.lazypoline.cycles(),
        r.sud.cycles(),
    );
    println!("\nAblations from these rows (the per-component xstate sweep is `ablate`):");
    println!(
        "  xstate preservation on/off: {nox:.0} → {full:.0} cycles/call ({:+.0})",
        full - nox
    );
    println!(
        "  lazy rewriting on/off: hybrid {full:.0} vs slow path only (pure SUD) {sud:.0} cycles/call \
         — the fast path is worth {:.1}x",
        sud / full
    );
    println!(
        "  batch rewriting on/off: {} fresh sites on one page, {} SIGSYS batched vs {} unbatched \
         ({} vs {} sites patched)",
        batch.sites,
        batch.batched.slow_path_hits,
        batch.unbatched.slow_path_hits,
        batch.batched.sites_patched,
        batch.unbatched.sites_patched,
    );
}

fn table2_json(
    r: &MicroResults,
    children: &[micro::ChildRow],
    batch: &micro::BatchAblation,
) -> Json {
    let base = r.baseline.cycles();
    let paper_sysno = syscalls::NONEXISTENT_SYSCALL;
    let mut rows: Vec<Json> = [&r.baseline]
        .into_iter()
        .chain(r.rows())
        .map(|m| with_stats(row_json(m, paper_sysno, base), r.snapshot_for(m.name)))
        .collect();
    for c in children {
        let mut row = row_json(&c.measurement, paper_sysno, base);
        if let Some(level) = &c.harden_level {
            row = row.field("harden_level", Json::Str(level.clone()));
        }
        rows.push(with_stats(row, c.stats.as_ref()));
    }
    for sled in &r.sled {
        let base = sled.baseline.cycles();
        for m in [&sled.baseline, &sled.zpoline, &sled.lazypoline] {
            rows.push(row_json(m, sled.sysno, base));
        }
    }
    let mut root = Json::obj()
        .field("bench", Json::Str("table2".into()))
        .field("native_supported", Json::Bool(true))
        .field("iters", Json::Int(r.iters))
        .field("runs", Json::Int(r.runs))
        .field("rows", Json::Arr(rows));
    if let Some(rec) = &r.recording {
        root = root.field(
            "recording",
            Json::obj()
                .field("events", Json::Int(rec.events))
                .field("events_dropped", Json::Int(rec.dropped))
                .field("drop_rate", Json::Num(rec.drop_rate()))
                .field("trace_bytes", Json::Int(rec.bytes))
                .field("bytes_per_event", Json::Num(bytes_per_event(rec))),
        );
    }
    let phase = |p: &micro::BatchPhase| {
        Json::obj()
            .field("slow_path_hits", Json::Int(p.slow_path_hits))
            .field("sites_patched", Json::Int(p.sites_patched))
    };
    root.field(
        "batch_rewriting",
        Json::obj()
            .field("sites", Json::Int(batch.sites as u64))
            .field("batched", phase(&batch.batched))
            .field("unbatched", phase(&batch.unbatched)),
    )
}

fn fig4_json(r: &MicroResults) -> Json {
    let base = r.baseline.cycles();
    let segments = fig4_segments(r)
        .into_iter()
        .fold(Json::obj(), |obj, (key, _, v)| obj.field(key, Json::Num(v)))
        .field("total", Json::Num(r.lazypoline.cycles()))
        .field("sled", Json::Num(fig4_sled(r)));
    Json::obj()
        .field("bench", Json::Str("fig4".into()))
        .field("native_supported", Json::Bool(true))
        .field("iters", Json::Int(r.iters))
        .field("runs", Json::Int(r.runs))
        .field("segments_cycles", segments)
        .field(
            "vs_baseline",
            Json::obj()
                .field("zpoline", Json::Num(r.zpoline.cycles() / base))
                .field(
                    "lazypoline_no_xstate",
                    Json::Num(r.lazypoline_nox.cycles() / base),
                )
                .field("lazypoline", Json::Num(r.lazypoline.cycles() / base)),
        )
}

fn main() {
    // Child-process mode: measure one row and exit (what it arms is
    // one-way per process — see `micro::ChildRow`).
    let args: Vec<String> = std::env::args().collect();
    if let Some(at) = args.iter().position(|a| a == "--child-row") {
        micro::child_row_main(args.get(at + 1).map_or("", String::as_str));
    }
    let json_mode = args.iter().any(|a| a == "--json");
    if !micro::environment_supported() {
        eprintln!(
            "skip: this host cannot run the native microbenchmark \
             (needs Linux >= 5.11 SUD and vm.mmap_min_addr = 0)"
        );
        if json_mode {
            for bench in ["table2", "fig4"] {
                write_json(
                    bench,
                    Json::obj()
                        .field("bench", Json::Str(bench.into()))
                        .field("native_supported", Json::Bool(false)),
                );
            }
        }
        return;
    }

    let results = micro::run_table2();
    // Each child row runs in a re-exec'd child, so what it arms cannot
    // leak into this process's remaining measurements.
    let children = micro::run_child_rows();
    let batch = micro::run_batch_ablation();

    print_table2(&results, &children);
    print_fig4(&results);
    print_ablations(&results, &batch);

    if json_mode {
        println!();
        write_json("table2", table2_json(&results, &children, &batch));
        write_json("fig4", fig4_json(&results));
    }
}
