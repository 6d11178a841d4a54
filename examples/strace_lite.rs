//! strace-lite: print every syscall of the native guest, exhaustively.
//!
//! This is the interposer configuration the paper's exhaustiveness
//! experiment uses (§V-A) — but routed through the record/replay
//! subsystem: the workload is captured into a flight-recorder trace
//! by the `<mechanism>+record` backend, then rendered with the shared
//! `dump` path (`replay::dump_trace`, built on
//! `interpose::format_syscall_line`). One recording doubles as both
//! the strace-like text and a replayable artifact. The workload is
//! [`lp_bench::guest::window`]: libc `getpid`, an RWX page's
//! runtime-emitted `getpid`, libc `getpid` again.
//!
//! ```sh
//! cargo run --example strace_lite
//! LP_MECHANISM=sud cargo run --example strace_lite        # slow-path only
//! ```

fn main() {
    let ambient = match mechanism::EnvConfig::from_env() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("skip: {e}");
            return;
        }
    };
    let base = mechanism::by_name(ambient.mechanism).expect("a parsed name is registered");
    if !base.is_available() {
        eprintln!(
            "skip: {} unavailable here (needs Linux >= 5.11 SUD and/or vm.mmap_min_addr = 0)",
            base.name()
        );
        return;
    }
    let backend = if base.name().split('+').skip(1).any(|l| l == "record") {
        base // LP_MECHANISM already asked for recording
    } else {
        mechanism::by_name(&format!("{}+record", base.name()))
            .expect("every registered backend composes with +record")
    };

    let trace = std::env::temp_dir().join(format!("strace_lite_{}.lpt", std::process::id()));
    let cfg = mechanism::EnvConfig { trace_out: Some(trace), ..ambient };
    let mut active = match backend.install_with(Box::new(interpose::PassthroughHandler), &cfg) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("skip: {} install failed: {e}", backend.name());
            return;
        }
    };

    lp_bench::guest::window();
    active.detach();

    let stats = active.stats();
    let summary = active
        .finish_recording()
        .expect("+record backend has a session")
        .expect("trace finishes");
    drop(active);

    // The shared rendering path: trace file -> strace-like text.
    let mut out = std::io::stdout().lock();
    replay::dump_trace(&summary.path, &mut out).expect("dump recorded trace");

    eprintln!(
        "traced {} syscalls under {} ({} recorded, {} dropped, {} sites rewritten lazily)",
        stats.dispatches,
        active_name(&summary.path),
        summary.events,
        summary.dropped,
        stats.sites_patched
    );
    let _ = std::fs::remove_file(&summary.path);
}

fn active_name(trace: &std::path::Path) -> String {
    replay::read_trace_path(trace)
        .map(|(h, _)| h.source_mechanism)
        .unwrap_or_else(|_| "?".into())
}
