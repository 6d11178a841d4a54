//! `lp-trace` — command-line front end for the record/replay
//! subsystem.
//!
//! ```sh
//! lp-trace record /tmp/jit.lpt                    # record the fixed JIT workload (sim:lazypoline)
//! lp-trace record /tmp/jit.lpt lazypoline         # record a native workload instead
//! lp-trace replay /tmp/jit.lpt                    # re-execute against the trace (exit 1 on divergence)
//! lp-trace dump   /tmp/jit.lpt                    # render the trace strace-style
//! lp-trace dump --stats /tmp/jit.lpt              # per-sysno counts + hottest transitions
//! lp-trace learn  /tmp/jit.lpt /tmp/jit.sfip      # fold traces into an LPSFIP1 policy
//! lp-trace policy-dump /tmp/jit.sfip              # render a policy's transition automaton
//! ```
//!
//! `record` runs a *fixed* workload so that `replay` of the same trace
//! is deterministic: simulated mechanisms run the JIT guest program
//! from the paper's exhaustiveness experiment (§V-A); native
//! mechanisms run a small in-process file-system workload (replay of a
//! native trace is best-effort — ambient runtime syscalls diverge, and
//! the exit status says so).

use std::path::Path;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: lp-trace record [--strict-drops] <trace> [mechanism]   (default mechanism: sim:lazypoline)\n\
         \x20      lp-trace replay <trace>\n\
         \x20      lp-trace dump [--stats] <trace>\n\
         \x20      lp-trace learn <trace>... <policy-out>\n\
         \x20      lp-trace policy-dump <policy>"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let strict_drops = args.iter().any(|a| a == "--strict-drops");
    let stats = args.iter().any(|a| a == "--stats");
    args.retain(|a| a != "--strict-drops" && a != "--stats");
    match args.as_slice() {
        [cmd, trace] if cmd == "record" => record(Path::new(trace), "sim:lazypoline", strict_drops),
        [cmd, trace, mech] if cmd == "record" => record(Path::new(trace), mech, strict_drops),
        [cmd, trace] if cmd == "replay" => replay(trace),
        [cmd, trace] if cmd == "dump" && stats => dump_stats(Path::new(trace)),
        [cmd, trace] if cmd == "dump" => dump(Path::new(trace)),
        [cmd, rest @ ..] if cmd == "learn" && rest.len() >= 2 => learn(rest),
        [cmd, policy] if cmd == "policy-dump" => policy_dump(Path::new(policy)),
        _ => usage(),
    }
}

/// Renders `nr` as `name(nr)` when the name table knows it, `sys_nr`
/// otherwise.
fn sysname(nr: u64) -> String {
    match syscalls::nr::name(nr) {
        Some(name) => format!("{name}({nr})"),
        None => format!("sys_{nr}"),
    }
}

/// The fixed native workload: a recognizable open/read/close + getpid
/// mix, all through std so the syscalls are real.
fn native_workload() {
    let pid = std::process::id();
    let bytes = std::fs::read("Cargo.toml").map(|b| b.len()).unwrap_or(0);
    let entries = std::fs::read_dir(".").map(Iterator::count).unwrap_or(0);
    eprintln!("workload: pid {pid}, Cargo.toml {bytes} bytes, {entries} dir entries");
}

fn record(trace: &Path, mech: &str, strict_drops: bool) -> ExitCode {
    let name = format!("{mech}+record");
    let Some(backend) = mechanism::by_name(&name) else {
        eprintln!("error: {mech:?} is not a registered mechanism");
        return ExitCode::FAILURE;
    };
    if !backend.is_available() {
        eprintln!("skip: {mech} unavailable on this host (needs SUD / page zero)");
        return ExitCode::SUCCESS;
    }
    // The record backend opens its trace session from this variable.
    std::env::set_var("LP_TRACE_OUT", trace);
    let mut active = match backend.install(Box::new(interpose::PassthroughHandler)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: install {name}: {e}");
            return ExitCode::FAILURE;
        }
    };

    if mech.starts_with("sim:") {
        let program = sim_workloads::jit::build();
        match active.run_program(&program) {
            Ok(out) => eprintln!(
                "guest exit {} after {} observed syscalls",
                out.exit,
                out.observed.len()
            ),
            Err(e) => {
                eprintln!("error: guest run failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        native_workload();
        active.detach();
    }

    match active.finish_recording() {
        Some(Ok(summary)) => {
            let per_event = if summary.events == 0 {
                0.0
            } else {
                summary.bytes as f64 / summary.events as f64
            };
            println!(
                "recorded {} events ({} dropped, {} bytes, {:.1} B/event) under {} -> {}",
                summary.events,
                summary.dropped,
                summary.bytes,
                per_event,
                mech,
                summary.path.display()
            );
            if summary.dropped > 0 {
                let suggestion = summary
                    .suggested_ring_capacity()
                    .map(|c| format!("; try LP_RING_CAPACITY={c}"))
                    .unwrap_or_default();
                eprintln!(
                    "warning: dropped {} of {} events ({:.2}% drop rate){suggestion}",
                    summary.dropped,
                    summary.events + summary.dropped,
                    summary.drop_rate() * 100.0,
                );
                if strict_drops {
                    eprintln!("error: --strict-drops: trace is incomplete");
                    return ExitCode::FAILURE;
                }
            }
            ExitCode::SUCCESS
        }
        Some(Err(e)) => {
            eprintln!("error: finishing trace: {e}");
            ExitCode::FAILURE
        }
        None => {
            eprintln!("error: no trace session was active");
            ExitCode::FAILURE
        }
    }
}

fn replay(trace: &str) -> ExitCode {
    let name = format!("replay:{trace}");
    let backend = mechanism::by_name(&name).expect("replay: names always parse");
    let mut active = match backend.install(Box::new(interpose::PassthroughHandler)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: cannot replay {trace}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let state = std::sync::Arc::clone(active.replay_state().expect("replay backend"));
    let source = state.header().source_mechanism.clone();

    if source.starts_with("sim:") {
        let program = sim_workloads::jit::build();
        if let Err(e) = active.run_program(&program) {
            eprintln!("error: guest run failed: {e}");
            return ExitCode::FAILURE;
        }
    } else {
        native_workload();
        active.detach();
    }
    drop(active);

    let consumed = state.position();
    if let Some(d) = state.first_divergence() {
        eprintln!(
            "replay DIVERGED ({} divergences, {consumed}/{} trace records consumed)",
            state.divergences(),
            state.len()
        );
        eprintln!("first: {d}");
        return ExitCode::FAILURE;
    }
    println!(
        "replayed {consumed}/{} events from {} (recorded under {source}) with zero divergences",
        state.len(),
        trace
    );
    ExitCode::SUCCESS
}

fn dump(trace: &Path) -> ExitCode {
    let mut out = std::io::stdout().lock();
    match replay::dump_trace(trace, &mut out) {
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `dump --stats`: per-sysno event counts plus the hottest transition
/// pairs, folded by the same per-thread walk the policy learner uses
/// ([`sfip::fold_transitions`]), so what this prints is exactly what
/// `learn` would admit.
fn dump_stats(trace: &Path) -> ExitCode {
    let (header, records) = match replay::read_trace_path(trace) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let stats = sfip::fold_transitions(&records);
    println!(
        "# trace {}: {} events across {} thread(s), recorded under {:?} (LPTRACE{})",
        trace.display(),
        stats.events,
        stats.threads,
        header.source_mechanism,
        header.version,
    );
    println!("per-sysno counts:");
    let mut by_count: Vec<(&u64, &u64)> = stats.per_sysno.iter().collect();
    by_count.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
    for (&nr, &count) in by_count {
        println!("  {:>10}  {}", count, sysname(nr));
    }
    println!("top transitions ({} distinct):", stats.pairs.len());
    let mut pairs: Vec<(&(u64, u64), &u64)> = stats.pairs.iter().collect();
    pairs.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
    for (&(from, to), &count) in pairs.into_iter().take(20) {
        println!("  {:>10}  {} -> {}", count, sysname(from), sysname(to));
    }
    ExitCode::SUCCESS
}

/// `learn <trace>... <policy-out>`: folds each trace independently
/// (per-trace thread chains — separate traces are separate executions)
/// into one LPSFIP1 policy and writes it to the last argument.
fn learn(paths: &[String]) -> ExitCode {
    let (traces, out) = paths.split_at(paths.len() - 1);
    let out = Path::new(&out[0]);
    let mut policy: Option<sfip::Policy> = None;
    for t in traces {
        let (header, records) = match replay::read_trace_path(Path::new(t)) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: reading {t}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let p = policy.get_or_insert_with(|| sfip::Policy::empty(&header.source_mechanism));
        p.fold(&records);
        eprintln!("folded {} events from {t}", records.len());
        if header.events_dropped > 0 {
            // A gap both hides transitions and invents one across it.
            eprintln!(
                "warning: {t} dropped {} events while recording; record again with a larger \
                 LP_RING_CAPACITY (or LP_DRAIN_YIELD=1) before enforcing this policy",
                header.events_dropped
            );
        }
    }
    let policy = policy.expect("learn: at least one trace");
    if policy.events_folded() == 0 {
        eprintln!("error: {}", sfip::PolicyError::EmptyTrace);
        return ExitCode::FAILURE;
    }
    if let Err(e) = policy.save(out) {
        eprintln!("error: writing {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    println!(
        "learned {} transitions over {} distinct sysnos from {} events ({} trace(s), source {:?}) -> {}",
        policy.transitions(),
        policy.distinct_sysnos(),
        policy.events_folded(),
        traces.len(),
        policy.source_mechanism(),
        out.display()
    );
    ExitCode::SUCCESS
}

/// `policy-dump <policy>`: renders the enforcement automaton — one
/// line per sysno with outgoing edges, plus origin-set sizes when the
/// policy carries them.
fn policy_dump(path: &Path) -> ExitCode {
    let policy = match sfip::Policy::load(path) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "# LPSFIP1 policy {}: {} transitions, {} distinct sysnos, {} events folded, source {:?}",
        path.display(),
        policy.transitions(),
        policy.distinct_sysnos(),
        policy.events_folded(),
        policy.source_mechanism(),
    );
    for from in 0..(sfip::MATRIX_WORDS / sfip::ROW_WORDS) as u64 {
        let succ = policy.successors(from);
        if succ.is_empty() {
            continue;
        }
        let rendered: Vec<String> = succ.iter().map(|&to| sysname(to)).collect();
        println!("  {} -> {}", sysname(from), rendered.join(" "));
    }
    match policy.origin_sets() {
        Some(origins) if !origins.is_empty() => {
            println!("origin sets:");
            for (&nr, sites) in origins {
                println!("  {}: {} site(s)", sysname(nr), sites.len());
            }
        }
        Some(_) => println!("origin sets: empty"),
        None => println!("origin sets: none (matrix-only policy)"),
    }
    ExitCode::SUCCESS
}
