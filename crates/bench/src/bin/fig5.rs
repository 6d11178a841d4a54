//! Regenerates **Figure 5**: performance impact of lazypoline and
//! prior art on web servers (native), as a throughput-vs-connections
//! scaling sweep with per-mechanism latency percentiles.
//!
//! ```sh
//! cargo run -p lp-bench --bin fig5 --release
//! cargo run -p lp-bench --bin fig5 --release -- --json   # also writes BENCH_fig5.json
//! # paper-scale-ish sweep:
//! LP_BENCH_SECS=10 LP_BENCH_CONNS=4096 LP_BENCH_THREADS=4 \
//!   cargo run -p lp-bench --bin fig5 --release
//! ```
//!
//! Reports relative throughput (percent of baseline) per cell, the
//! same observable the paper plots, plus p50/p99/p999 request latency
//! from the open-loop generator's histogram. Absolute RPS differs from
//! the paper (48-core Xeon + nginx/lighttpd there; this host +
//! lp-httpd here); the *shape* — ordering and where the gaps close —
//! is the reproduction target.
//!
//! With `--json` the sweep (or, on unsupported hosts, a machine-
//! readable skip stub with `"skipped": true`) is written to
//! `BENCH_fig5.json` so CI can assert on the artifact instead of
//! grepping stderr.

use lp_bench::json::Json;
use lp_bench::macrobench::{run_fig5, Fig5Results, MacroCell, SweepConfig};
use lp_bench::report::Table;

fn main() {
    let json_mode = std::env::args().any(|a| a == "--json");
    if !lp_bench::micro::environment_supported() {
        let reason = "needs Linux >= 5.11 SUD and vm.mmap_min_addr = 0";
        eprintln!("skip: {reason}");
        if json_mode {
            // Machine-readable skip stub: downstream tooling must be
            // able to tell "skipped" from "silently produced nothing".
            let stub = Json::obj()
                .field("bench", Json::Str("fig5".into()))
                .field("native_supported", Json::Bool(false))
                .field("skipped", Json::Bool(true))
                .field("reason", Json::Str(reason.into()));
            std::fs::write("BENCH_fig5.json", stub.render()).expect("write BENCH_fig5.json");
            println!("wrote BENCH_fig5.json (skip stub)");
        }
        return;
    }

    let sweep = SweepConfig::default();
    eprintln!(
        "Figure 5 sweep: {} {}B x{} worker(s), conns {:?}, {} mechanisms, \
         {} gen thread(s), rate {}, pipeline {}, {:.1}s cells\n",
        sweep.flavor.name(),
        sweep.size,
        sweep.workers,
        sweep.connections,
        sweep.mechanisms.len(),
        sweep.threads,
        if sweep.rate > 0.0 {
            format!("{:.0}/s", sweep.rate)
        } else {
            "saturation".into()
        },
        sweep.pipeline,
        sweep.secs,
    );
    let results = run_fig5(&sweep).expect("sweep");
    print_tables(&sweep, &results);
    if json_mode {
        let root = to_json(&sweep, &results);
        std::fs::write("BENCH_fig5.json", root.render()).expect("write BENCH_fig5.json");
        println!("\nwrote BENCH_fig5.json");
    }
}

fn cell<'a>(results: &'a Fig5Results, mech: &str, conns: usize) -> Option<&'a MacroCell> {
    results
        .cells
        .iter()
        .find(|c| c.mechanism == mech && c.connections == conns)
}

fn print_tables(sweep: &SweepConfig, results: &Fig5Results) {
    // Throughput scaling: one row per mechanism, one column per
    // connection count, relative to `none` at the same count.
    println!(
        "\n{} — {} worker(s), {}B: throughput vs connections (% of baseline)",
        sweep.flavor.name(),
        sweep.workers,
        sweep.size
    );
    let mut header = vec!["mechanism".to_string()];
    header.extend(sweep.connections.iter().map(|c| format!("c={c}")));
    let mut table = Table::new(header);
    for &mech in &sweep.mechanisms {
        let mut row = vec![mech.to_string()];
        for &conns in &sweep.connections {
            let base = cell(results, "none", conns).map(|c| c.rps).unwrap_or(0.0);
            match cell(results, mech, conns) {
                Some(c) if mech == "none" => row.push(format!("{:.0} rps", c.rps)),
                Some(c) if base > 0.0 => row.push(format!("{:.1}%", 100.0 * c.rps / base)),
                _ => row.push("-".into()),
            }
        }
        table.row(row);
    }
    print!("{}", table.render());

    // Latency percentiles at the highest connection count.
    let top = sweep.connections.last().copied().unwrap_or(1);
    println!("\nrequest latency at c={top} (scheduled-send to last byte)");
    let mut lat = Table::new(["mechanism", "p50", "p99", "p999", "errors", "dropped"]);
    for &mech in &sweep.mechanisms {
        if let Some(c) = cell(results, mech, top) {
            lat.row([
                mech.to_string(),
                format_us(c.p50_ns),
                format_us(c.p99_ns),
                format_us(c.p999_ns),
                c.errors.to_string(),
                c.events_dropped.to_string(),
            ]);
        }
    }
    print!("{}", lat.render());

    println!(
        "\n(paper, single worker: lazypoline-no-xstate >= 94.7% of baseline, within ~2-4pp of \
         zpoline;\n xstate preservation costs <= 4.7pp; SUD roughly halves throughput at small \
         sizes;\n all gaps shrink as load grows.)"
    );
}

fn format_us(ns: u64) -> String {
    format!("{:.0}us", ns as f64 / 1_000.0)
}

fn to_json(sweep: &SweepConfig, results: &Fig5Results) -> Json {
    let rows = sweep
        .mechanisms
        .iter()
        .map(|&mech| {
            let cells = sweep
                .connections
                .iter()
                .filter_map(|&conns| cell(results, mech, conns))
                .map(|c| {
                    Json::obj()
                        .field("connections", Json::Int(c.connections as u64))
                        .field("rps", Json::Num(c.rps))
                        .field("requests", Json::Int(c.requests))
                        .field("errors", Json::Int(c.errors))
                        .field("unfinished", Json::Int(c.unfinished))
                        .field("p50_ns", Json::Int(c.p50_ns))
                        .field("p99_ns", Json::Int(c.p99_ns))
                        .field("p999_ns", Json::Int(c.p999_ns))
                        .field("events_recorded", Json::Int(c.events_recorded))
                        .field("events_dropped", Json::Int(c.events_dropped))
                })
                .collect();
            Json::obj()
                .field("mechanism", Json::Str(mech.into()))
                .field("cells", Json::Arr(cells))
        })
        .collect();
    Json::obj()
        .field("bench", Json::Str("fig5".into()))
        .field("native_supported", Json::Bool(true))
        .field("skipped", Json::Bool(false))
        .field("flavor", Json::Str(sweep.flavor.name().into()))
        .field("workers", Json::Int(sweep.workers as u64))
        .field("size", Json::Int(sweep.size as u64))
        .field("threads", Json::Int(sweep.threads as u64))
        .field("rate", Json::Num(sweep.rate))
        .field("pipeline", Json::Int(sweep.pipeline as u64))
        .field("secs", Json::Num(sweep.secs))
        .field(
            "connections",
            Json::Arr(
                sweep
                    .connections
                    .iter()
                    .map(|&c| Json::Int(c as u64))
                    .collect(),
            ),
        )
        .field("rows", Json::Arr(rows))
}
