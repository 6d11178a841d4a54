//! strace-lite: print every syscall of a workload, exhaustively.
//!
//! This is the interposer configuration the paper's exhaustiveness
//! experiment uses (§V-A) — but routed through the record/replay
//! subsystem: the workload is captured into a flight-recorder trace
//! by the `<mechanism>+record` backend, then rendered with the shared
//! `dump` path (`replay::dump_trace`, built on
//! `interpose::format_syscall_line`). One recording doubles as both
//! the strace-like text and a replayable artifact.
//!
//! ```sh
//! cargo run --example strace_lite | head
//! LP_MECHANISM=sud cargo run --example strace_lite        # slow-path only
//! LP_MECHANISM=sim:lazypoline cargo run --example strace_lite   # simulated guest
//! ```

fn main() {
    let base = match mechanism::from_env() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("skip: {e}");
            return;
        }
    };
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
    std::env::set_var("LP_TRACE_OUT", &trace);
    let mut active = match backend.install(Box::new(interpose::PassthroughHandler)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("skip: {} install failed: {e}", backend.name());
            return;
        }
    };

    // A small workload with a recognizable syscall mix.
    if base.name().starts_with("sim:") {
        let program = sim_workloads::jit::build();
        let out = active.run_program(&program).expect("guest runs");
        eprintln!("guest exit {} ({} syscalls observed)", out.exit, out.observed.len());
    } else {
        let cwd = std::env::current_dir().unwrap();
        let entries = std::fs::read_dir(&cwd).unwrap().count();
        eprintln!("pid {} sees {entries} entries in {}", std::process::id(), cwd.display());
        active.detach();
    }

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
