//! `lpbench`: the repository's one benchmark.
//!
//! ```text
//! lpbench --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//!     one workload; the last line of stdout is one JSON object
//!     (end-to-end metrics with --trace 0, per-layer metrics with --trace 1)
//! lpbench [--seed <u64>] [--seconds <n>] [--trace <0|1>]
//!     all seven workloads, each in a process of its own
//! lpbench --aa [--seed <u64>] [--seconds <n>]
//!     the suite twice; prints each metric's difference beside its
//!     bound, writes noise_floor.json, exits 1 when a bound is exceeded
//! ```
//!
//! See `README.md` next to this package for what is measured and why.

mod harness;
mod jit;
mod json;
mod ledger;
mod metrics;
mod rng;
mod span;
mod stats;
mod sys;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use harness::{Ctx, Outcome};
use json::Value;
use metrics::{Better, END_TO_END, PER_LAYER};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    aa: bool,
}

const USAGE: &str =
    "usage: lpbench [--workload <name>] [--seed <u64>] [--seconds <n>] [--trace <0|1>] [--aa]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        aa: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--aa" => args.aa = true,
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if let Some(w) = &args.workload {
        if !workloads::NAMES.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload {w:?} (one of: {})",
                workloads::NAMES.join(", ")
            ));
        }
        if args.aa {
            return Err("--aa runs the whole suite; it takes no --workload".into());
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let result = match &args.workload {
        Some(name) => run_one(name, &args, started),
        None if args.aa => run_aa(&args),
        None => run_suite(&args).map(|_| ()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("lpbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A result line's metrics: (name, value, unit).
type Values = Vec<(&'static str, f64, &'static str)>;

fn result_line(correct: bool, attempted: u64, failed: u64, values: &Values) -> String {
    let metrics: Vec<String> = values
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        metrics.join(", ")
    )
}

fn end_to_end_values(out: &Outcome) -> Values {
    let setup = stats::median(&out.setup_s).expect("set-up ran");
    let value = |name: &str| match name {
        "overhead_x" => out.reduced.overhead_x,
        "cpu_overhead_x" => out.reduced.cpu_overhead_x,
        "peak_rss_mb" => out.peak_rss_kib as f64 / 1024.0,
        "setup_s" => setup,
        other => unreachable!("{other} is not an end-to-end metric"),
    };
    END_TO_END
        .iter()
        .map(|m| (m.name, value(m.name), m.unit))
        .collect()
}

fn print_notes(out: &Outcome) {
    for note in &out.check.notes {
        println!("  check failed: {note}");
    }
}

/// One workload in this process; the driver's contract.
fn run_one(name: &str, args: &Args, started: Instant) -> Result<(), String> {
    sys::scrub_environment();
    sys::check_host()?;
    let artifacts = sys::Artifacts::locate()?;
    let dir = sys::RunDir::create(&artifacts.dir).map_err(|e| format!("run directory: {e}"))?;
    // The benchmark's own start-up, printed for the record; `setup_s`
    // is what the *workload* needs (see `harness::run`).
    let process_setup_ms = started.elapsed().as_secs_f64() * 1e3;
    let new_workload = || workloads::by_name(name).expect("validated by parse_args");

    println!(
        "# lpbench {name} seed={} seconds={} trace={} (process start-up {process_setup_ms:.3} ms)",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    if !args.trace {
        let quiet = span::Tracer::new(false);
        let cx = Ctx {
            tracer: &quiet,
            dir: &dir,
            artifacts: &artifacts,
            seed: args.seed,
        };
        let out = harness::run(new_workload().as_mut(), &cx, args.seconds)?;
        let values = end_to_end_values(&out);
        println!(
            "# {} repetitions, {} timed blocks, {} operations, {} set-ups",
            out.reduced.repetitions,
            out.reduced.blocks,
            out.ops,
            out.setup_s.len(),
        );
        println!(
            "# per op, none: {:.1} ns, {:.1} cpu-ns; mechanism: {:.1} ns, {:.1} cpu-ns",
            out.reduced.none_op_ns,
            out.reduced.none_cpu_ns_per_op,
            out.reduced.op_ns,
            out.reduced.cpu_ns_per_op,
        );
        println!(
            "# interquartile range over repetitions: op_ns {:.2}%, overhead_x {:.2}%, cpu_overhead_x {:.2}% of the median",
            out.reduced.op_ns_spread * 100.0,
            out.reduced.overhead_x_spread * 100.0,
            out.reduced.cpu_overhead_x_spread * 100.0,
        );
        for (name, value, unit) in &values {
            println!("{name:<16} {value:>14.4} {unit}");
        }
        println!(
            "{:<16} {:>14.6} ratio  ({} failed of {} attempted)",
            "fail_ratio",
            out.check.failed as f64 / out.check.attempted.max(1) as f64,
            out.check.failed,
            out.check.attempted
        );
        print_notes(&out);
        println!(
            "{}",
            result_line(
                out.check.failed == 0,
                out.check.attempted,
                out.check.failed,
                &values
            )
        );
        return Ok(());
    }

    // Traced run: the layer ledger first (it needs a process no engine
    // has initialised yet), then the workload twice — spans off, spans
    // on — so the tracing overhead is itself a measured number.
    let tracer = span::Tracer::new(true);
    let cx = Ctx {
        tracer: &tracer,
        dir: &dir,
        artifacts: &artifacts,
        seed: args.seed,
    };
    let mut rows = ledger::run(&cx)?;
    let quiet = span::Tracer::new(false);
    let untraced = harness::run(
        new_workload().as_mut(),
        &Ctx {
            tracer: &quiet,
            ..cx
        },
        args.seconds * 0.25,
    )?;
    let traced = harness::run(new_workload().as_mut(), &cx, args.seconds * 0.25)?;
    let c = traced.check.counters;
    let per_op = |n: u64| n as f64 / traced.mech_ops.max(1) as f64;
    rows.extend([
        ("lazypoline.dispatches_per_op", per_op(c.dispatches)),
        ("lazypoline.slow_path_hits", c.slow_path_hits as f64),
        ("lazypoline.sites_patched", c.sites_patched as f64),
        (
            "lazypoline.sites_per_sigsys",
            c.sites_patched as f64 / c.slow_path_hits.max(1) as f64,
        ),
        ("lazypoline.patch_retries", c.patch_retries as f64),
        ("lazypoline.pages_blocklisted", c.pages_blocklisted as f64),
        (
            "lazypoline.unpatchable_emulations",
            c.unpatchable_emulations as f64,
        ),
        ("hookabi.hook_dispatches", c.hook_dispatches as f64),
        ("sfip.checks", c.sfip_checks as f64),
        ("replay.events_recorded", c.events_recorded as f64),
        ("replay.events_dropped", c.events_dropped as f64),
        ("replay.ring_grows", c.ring_grows as f64),
        ("replay.ring_near_full", c.ring_near_full as f64),
        ("replay.drain_yields", c.drain_yields as f64),
        ("workload.none_op_ns", untraced.reduced.none_op_ns),
        ("workload.op_ns", untraced.reduced.op_ns),
        ("workload.cpu_ns_per_op", untraced.reduced.cpu_ns_per_op),
        (
            "trace_overhead_pct",
            (traced.reduced.op_ns / untraced.reduced.op_ns - 1.0) * 100.0,
        ),
    ]);

    let spans = tracer.spans();
    let out_dir = artifacts.dir.join("lpbench-out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let span_file = out_dir.join(format!("spans-{name}-{}.json", args.seed));
    std::fs::write(&span_file, span::to_json(name, args.seed, &spans))
        .map_err(|e| format!("{}: {e}", span_file.display()))?;
    println!("# {} spans written to {}", spans.len(), span_file.display());
    println!("# self time by span (top 12):");
    for (layer, span_name, own_ns, n) in span::self_time_by_name(&spans).into_iter().take(12) {
        println!(
            "#   {layer:<20} {span_name:<22} {:>10.3} ms  (n={n})",
            own_ns as f64 / 1e6
        );
    }
    println!(
        "# traced workload: {} repetitions, {} operations; op_ns {:.2} traced vs {:.2} untraced",
        traced.reduced.repetitions, traced.ops, traced.reduced.op_ns, untraced.reduced.op_ns
    );

    let mut values: Values = Vec::with_capacity(PER_LAYER.len());
    for m in &PER_LAYER {
        let (_, v) = rows
            .iter()
            .find(|(n, _)| *n == m.name)
            .ok_or_else(|| format!("the ledger did not measure {}", m.name))?;
        println!("{:<46} {v:>14.4} {}", m.name, m.unit);
        values.push((m.name, *v, m.unit));
    }
    if let Some((stray, _)) = rows.iter().find(|(n, _)| metrics::per_layer(n).is_none()) {
        return Err(format!(
            "the ledger measured {stray}, which BENCHMARK.json does not list"
        ));
    }
    print_notes(&untraced);
    print_notes(&traced);
    let attempted = untraced.check.attempted + traced.check.attempted;
    let failed = untraced.check.failed + traced.check.failed;
    println!("{}", result_line(failed == 0, attempted, failed, &values));
    Ok(())
}

/// One workload's parsed result line.
struct Parsed {
    /// The result line as the run printed it.
    line: String,
    correct: bool,
    attempted: f64,
    failed: f64,
    metrics: Vec<(String, f64, String)>,
}

/// Runs one workload in a child process and parses its last line.
fn run_child(name: &str, args: &Args) -> Result<Parsed, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning the {name} run: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    for line in text.lines().filter(|l| !l.starts_with('{')) {
        println!("  {line}");
    }
    if !out.status.success() {
        return Err(format!("the {name} run exited with {}", out.status));
    }
    let last = text
        .lines()
        .last()
        .ok_or_else(|| format!("the {name} run printed nothing"))?;
    let doc = json::parse(last).map_err(|e| format!("the {name} run's result line: {e}"))?;
    let num = |k: &str| {
        doc.get(k)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("result line lacks {k}"))
    };
    let metrics = doc
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or("result line lacks metrics")?
        .iter()
        .map(|(k, v)| {
            let value = v.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
            let unit = v
                .get("unit")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string();
            (k.clone(), value, unit)
        })
        .collect();
    Ok(Parsed {
        line: last.to_string(),
        correct: doc.get("correct").and_then(Value::as_bool).unwrap_or(false),
        attempted: num("attempted")?,
        failed: num("failed")?,
        metrics,
    })
}

/// All seven workloads, each in a fresh process (engine state is
/// process-global and one-way, and `VmHWM` never comes back down).
fn run_suite(args: &Args) -> Result<Vec<(&'static str, Parsed)>, String> {
    let mut results = Vec::new();
    for name in workloads::NAMES {
        println!("== {name}");
        results.push((name, run_child(name, args)?));
    }
    let table = if args.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    println!();
    print!("{:<46}", "metric [unit]");
    for (name, _) in &results {
        print!(" {name:>14}");
    }
    println!();
    for m in table {
        print!("{:<46}", format!("{} [{}]", m.name, m.unit));
        for (_, parsed) in &results {
            let v = parsed
                .metrics
                .iter()
                .find(|(n, ..)| n == m.name)
                .map_or(f64::NAN, |x| x.1);
            print!(" {v:>14.4}");
        }
        println!();
    }
    print!("{:<46}", "fail_ratio [failed/attempted]");
    for (_, parsed) in &results {
        print!(" {:>14.6}", parsed.failed / parsed.attempted.max(1.0));
    }
    println!();
    // Each run's own result line, verbatim, under its workload's name.
    let body: Vec<String> = results
        .iter()
        .map(|(name, p)| format!("\"{name}\": {}", p.line))
        .collect();
    println!(
        "{{\"seed\": {}, \"seconds\": {}, \"workloads\": {{{}}}}}",
        args.seed,
        args.seconds,
        body.join(", ")
    );
    if let Some((name, _)) = results.iter().find(|(_, p)| !p.correct) {
        return Err(format!("{name} reported failed operations"));
    }
    Ok(results)
}

/// A/A self-check: the suite twice, back to back, same code and seed.
fn run_aa(args: &Args) -> Result<(), String> {
    if args.trace {
        return Err("--aa compares end-to-end metrics; it takes no --trace 1".into());
    }
    println!("==== A");
    let a = run_suite(args)?;
    println!("==== B");
    let b = run_suite(args)?;
    println!();
    println!(
        "{:<16} {:<14} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    let mut exceeded = Vec::new();
    let mut floor = Vec::new();
    for ((name, pa), (_, pb)) in a.iter().zip(&b) {
        for m in &END_TO_END {
            let get = |p: &Parsed| {
                p.metrics
                    .iter()
                    .find(|(n, ..)| n == m.name)
                    .map_or(f64::NAN, |x| x.1)
            };
            let (va, vb) = (get(pa), get(pb));
            // How much worse the second run reads, as a share of the
            // first — the quantity the bound limits.
            let worse = match m.better {
                Better::Lower => (vb - va) / va,
                Better::Higher => (va - vb) / va,
            };
            let flag = if worse > m.bound { "  EXCEEDED" } else { "" };
            println!(
                "{name:<16} {:<14} {va:>14.4} {vb:>14.4} {:>8.2}% {:>6.0}%{flag}",
                m.name,
                worse * 100.0,
                m.bound * 100.0
            );
            if worse.is_nan() || worse > m.bound {
                exceeded.push(format!("{name}/{}", m.name));
            }
            floor.push(format!(
                "    {{\"workload\": \"{name}\", \"metric\": \"{}\", \"a\": {va}, \"b\": {vb}, \"relative_difference\": {}, \"bound\": {}}}",
                m.name,
                (vb - va).abs() / va,
                m.bound
            ));
        }
    }
    let path: PathBuf = sys::Artifacts::locate()?
        .dir
        .join("lpbench-out")
        .join("noise_floor.json");
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
    }
    let doc = format!(
        "{{\n  \"seed\": {}, \"seconds\": {},\n  \"aa\": [\n{}\n  ]\n}}\n",
        args.seed,
        args.seconds,
        floor.join(",\n")
    );
    std::fs::write(&path, doc).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("observed A/A differences written to {}", path.display());
    if exceeded.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "A/A difference beyond the bound on: {}",
            exceeded.join(", ")
        ))
    }
}
