//! Sandbox: deny selected syscalls with full argument expressiveness.
//!
//! Exercises the Table I "expressiveness" dimension: the policy below
//! combines number-level rules (no `execve`, no `socket`) with an
//! argument-level rule (no writes to fds ≥ 3) — the latter is exactly
//! what seccomp-bpf cannot express without help, since cBPF filters
//! cannot dereference or classify dynamically-assigned fds against
//! userspace state.
//!
//! ```sh
//! cargo run --example sandbox
//! LP_MECHANISM=sud cargo run --example sandbox   # slow-path-only enforcement
//! ```

use interpose::PolicyBuilder;
use std::io::Write;

/// Engine-backed names guarantee exhaustive enforcement; anything else
/// (e.g. `none`, or the one-shot `sud-raw`) cannot hold the sandbox
/// invariants this example asserts.
fn enforcing(name: &str) -> bool {
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
    if !enforcing(backend.name()) {
        eprintln!(
            "skip: LP_MECHANISM={} cannot enforce an exhaustive sandbox \
             (pick an engine-backed mechanism, e.g. lazypoline or sud)",
            backend.name()
        );
        return;
    }
    if !backend.is_available() {
        eprintln!(
            "skip: {} unavailable here (needs Linux >= 5.11 SUD and/or vm.mmap_min_addr = 0)",
            backend.name()
        );
        return;
    }

    let policy = PolicyBuilder::allow_by_default()
        .deny(syscalls::nr::EXECVE)
        .deny(syscalls::nr::SOCKET)
        .deny_write_to_fd_at_or_above(3)
        .build();
    let mut active = match backend.install(Box::new(policy)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("skip: {} install failed: {e}", backend.name());
            return;
        }
    };

    // 1. Writing to stdout (fd 1) is allowed.
    println!("stdout still works under the sandbox");

    // 2. Opening a file works, but writing to it (fd ≥ 3) is denied.
    let mut tmp = std::env::temp_dir();
    tmp.push("lazypoline-sandbox-denied.txt");
    let file_write = std::fs::File::create(&tmp).and_then(|mut f| f.write_all(b"nope"));
    let write_denied = file_write.is_err();

    // 3. execve is denied: spawning a child fails.
    let spawn = std::process::Command::new("/bin/true").status();
    let exec_denied = spawn.is_err();

    // 4. Sockets are denied.
    let socket_denied = std::net::TcpStream::connect("127.0.0.1:1").is_err();

    active.detach();
    let _ = std::fs::remove_file(&tmp);

    println!("mechanism         : {}", active.mechanism_name());
    println!("file write denied : {write_denied}");
    println!("execve denied     : {exec_denied}");
    println!("socket denied     : {socket_denied}");
    assert!(write_denied && exec_denied && socket_denied);
    println!("OK: argument-level sandboxing enforced on every path");
}
