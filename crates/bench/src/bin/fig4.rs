//! Regenerates **Figure 4**: lazypoline's overhead breakdown.
//!
//! The figure decomposes lazypoline's microbenchmark overhead into the
//! zpoline-equivalent rewriting cost, the cost of *enabling* SUD (the
//! exhaustiveness guarantee), and the cost of preserving extended
//! state. Derived from the same measurements as Table II, exactly as
//! in the paper — whose number 500 enters the trampoline's sled twelve
//! bytes from its end, so a `sled` segment beside the bar says what a
//! number near the sled's start (`getpid`, 39) pays on top. `--json`
//! additionally writes `BENCH_fig4.json`.

use lp_bench::json::Json;
use lp_bench::micro;

fn main() {
    let json_mode = std::env::args().any(|a| a == "--json");
    if !micro::environment_supported() {
        eprintln!("skip: needs SUD and vm.mmap_min_addr = 0");
        if json_mode {
            let root = Json::obj()
                .field("bench", Json::Str("fig4".into()))
                .field("native_supported", Json::Bool(false));
            std::fs::write("BENCH_fig4.json", root.render()).expect("write BENCH_fig4.json");
            println!("wrote BENCH_fig4.json");
        }
        return;
    }
    let r = micro::run_table2();
    let base = r.baseline.cycles();
    let zp = r.zpoline.cycles();
    let nox = r.lazypoline_nox.cycles();
    let full = r.lazypoline.cycles();

    let seg_syscall = base;
    let seg_zpoline = (zp - base).max(0.0);
    let seg_sud = (nox - zp).max(0.0);
    let seg_xstate = (full - nox).max(0.0);
    // zpoline@39 − zpoline@500, each net of its own baseline. Not part
    // of the bar: the bar is the paper's, measured at 500.
    let getpid = r
        .sled
        .iter()
        .find(|rows| rows.sysno == syscalls::nr::GETPID)
        .expect("getpid is one of micro::SLED_SYSNOS");
    let seg_sled = (getpid.zpoline.cycles() - getpid.baseline.cycles()) - (zp - base);

    println!("Figure 4 — lazypoline overhead breakdown (cycles per interposed syscall)\n");
    let total = full;
    let bar = |label: &str, v: f64| {
        let width = (60.0 * v / total).round() as usize;
        println!("{label:<28} {v:>8.0}  |{}|", "#".repeat(width));
    };
    bar("bare syscall round trip", seg_syscall);
    bar("+ rewriting (zpoline part)", seg_zpoline);
    bar("+ enabling SUD", seg_sud);
    bar("+ xstate preservation", seg_xstate);
    println!("{:<28} {total:>8.0}", "= lazypoline total");
    println!("{:<28} {seg_sled:>+8.0}", "sled, entered at 39 not 500");

    println!(
        "\nfast path with SUD disabled vs zpoline: {:.2}x vs {:.2}x of baseline",
        zp / base,
        zp / base
    );
    println!(
        "(paper: the two match by construction; xstate preservation is the largest component: \
         here {:.0}% of total overhead)",
        100.0 * seg_xstate / (total - base)
    );

    // Interest-filtering win for loaded hooks (the hook-stack cell):
    // a narrowly scoped dlopen'ed hook skips event construction for
    // out-of-interest syscalls exactly like a compiled-in policy.
    let win_curve = micro::run_hook_win_curve();
    if let Some(w) = &win_curve {
        println!(
            "\nloaded-hook interest filtering: {:.0} cycles/dispatch (interest: all) vs \
             {:.0} (interest: openat) — {:.2}x",
            w.wide.cycles(),
            w.narrow.cycles(),
            w.wide.cycles() / w.narrow.cycles()
        );
    }

    if json_mode {
        let mut root = Json::obj()
            .field("bench", Json::Str("fig4".into()))
            .field("native_supported", Json::Bool(true))
            .field("iters", Json::Int(r.iters))
            .field("runs", Json::Int(r.runs))
            .field(
                "segments_cycles",
                Json::obj()
                    .field("bare_syscall", Json::Num(seg_syscall))
                    .field("rewriting", Json::Num(seg_zpoline))
                    .field("enabling_sud", Json::Num(seg_sud))
                    .field("xstate_preservation", Json::Num(seg_xstate))
                    .field("total", Json::Num(total))
                    .field("sled", Json::Num(seg_sled)),
            )
            .field(
                "vs_baseline",
                Json::obj()
                    .field("zpoline", Json::Num(zp / base))
                    .field("lazypoline_no_xstate", Json::Num(nox / base))
                    .field("lazypoline", Json::Num(full / base)),
            );
        if let Some(w) = &win_curve {
            root = root.field(
                "hook_win_curve",
                Json::obj()
                    .field("wide_hook_cycles", Json::Num(w.wide.cycles()))
                    .field("narrow_hook_cycles", Json::Num(w.narrow.cycles()))
                    .field("speedup", Json::Num(w.wide.cycles() / w.narrow.cycles()))
                    .field(
                        "narrow_hook_trampoline_cycles",
                        w.narrow_trampoline.as_ref().map_or(Json::Null, |m| Json::Num(m.cycles())),
                    ),
            );
        }
        std::fs::write("BENCH_fig4.json", root.render()).expect("write BENCH_fig4.json");
        println!("\nwrote BENCH_fig4.json");
    }
}
