//! Quickstart: count every syscall this process makes, exhaustively.
//!
//! ```sh
//! cargo run --example quickstart
//! LP_MECHANISM=sud cargo run --example quickstart   # any registry name
//! ```
//!
//! Requires an x86-64 Linux kernel ≥ 5.11 with `vm.mmap_min_addr = 0`
//! (for the page-zero trampoline). The example installs the mechanism
//! named by `LP_MECHANISM` (default: the hybrid `lazypoline`) around a
//! per-syscall counter, then prints the top syscalls it observed plus
//! the unified mechanism counters — for the hybrid, a handful of
//! slow-path (SIGSYS) trips that each patched one site, and many
//! fast-path dispatches through those patched sites.

use interpose::{CountHandler, SyscallHandler};

/// Engine-backed registry names: exhaustive interposition with the
/// unified counters fully populated.
fn engine_backed(name: &str) -> bool {
    matches!(
        name,
        "sud" | "zpoline" | "lazypoline-nox" | "lazypoline" | "lazypoline-nobatch"
    )
}

fn main() {
    let backend = match mechanism::EnvConfig::from_env() {
        Ok(cfg) => mechanism::by_name(cfg.mechanism).expect("a parsed name is registered"),
        Err(e) => {
            eprintln!("skip: {e}");
            return;
        }
    };
    if !backend.is_available() {
        eprintln!(
            "skip: {} unavailable here (needs Linux >= 5.11 SUD and/or vm.mmap_min_addr = 0)",
            backend.name()
        );
        return;
    }

    // 1. Build an interposer (here: a per-syscall counter).
    let counter: &'static CountHandler = Box::leak(Box::new(CountHandler::new()));
    struct Shared(&'static CountHandler);
    impl SyscallHandler for Shared {
        fn handle(&self, ev: &mut interpose::SyscallEvent) -> interpose::Action {
            self.0.handle(ev)
        }
    }

    // 2. Install the named mechanism around it — one call arms
    //    everything (handler registration, SUD, trampoline, rewriting).
    let mut active = match backend.install(Box::new(Shared(counter))) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("skip: {} install failed: {e}", backend.name());
            return;
        }
    };

    // 3. Do ordinary work — plain std calls, nothing special.
    let hostname = std::fs::read_to_string("/proc/sys/kernel/hostname")
        .unwrap_or_else(|_| "unknown".into());
    for _ in 0..100 {
        let _ = std::fs::metadata("/tmp");
    }
    let mut tmp = std::env::temp_dir();
    tmp.push("lazypoline-quickstart.txt");
    std::fs::write(&tmp, "hello from under interposition\n").unwrap();
    let echoed = std::fs::read_to_string(&tmp).unwrap();
    std::fs::remove_file(&tmp).unwrap();
    assert_eq!(echoed, "hello from under interposition\n");

    // 4. Report through the unified snapshot.
    active.detach();
    let stats = active.stats();
    println!("host: {}", hostname.trim());
    println!("mechanism: {}", active.mechanism_name());
    println!("-- mechanism counters --");
    println!("slow-path (SIGSYS) trips : {}", stats.slow_path_hits);
    println!("sites lazily rewritten   : {}", stats.sites_patched);
    println!("dispatcher invocations   : {}", stats.dispatches);
    println!("-- top syscalls observed --");
    for (nr, count) in counter.top().into_iter().take(10) {
        println!(
            "{:>8}  {}",
            count,
            syscalls::nr::name(nr).unwrap_or("?")
        );
    }
    if engine_backed(active.mechanism_name()) {
        assert!(
            counter.count(syscalls::nr::NEWFSTATAT) >= 100
                || counter.count(syscalls::nr::STATX) >= 100
        );
        if active.mechanism_name() != "sud" {
            assert!(stats.sites_patched >= 1, "no sites were rewritten");
            assert!(
                stats.dispatches > stats.slow_path_hits,
                "fast path should dominate"
            );
        }
        println!("OK: exhaustive interposition under {}", active.mechanism_name());
    } else {
        println!(
            "note: {} does not interpose exhaustively; counters above are best-effort",
            active.mechanism_name()
        );
    }
}
