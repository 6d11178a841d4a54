//! One full Figure-5 cell end-to-end in the test suite: fork a server
//! under each mechanism row (by registry name), measure briefly with
//! the open-loop generator, assert functional correctness (throughput
//! > 0, no protocol errors, recorder conservation on the record row).
//!
//! This is the machinery test; the real measurement runs live in
//! `cargo run -p lp-bench --bin fig5 --release`.

use httpd::{Docroot, Flavor, Server, ServerConfig, StopFlag};
use lp_bench::macrobench::{run_cell, CellConfig, MECHANISMS, RECORD_MECHANISM};

fn environment_ready() -> bool {
    zpoline::Trampoline::environment_supported() && sud::is_supported()
}

fn quick_cell(mech: &'static str, size: usize) -> CellConfig {
    CellConfig {
        flavor: Flavor::LighttpdLike,
        workers: 1,
        size,
        mechanism: mech,
        connections: 8,
        threads: 2,
        rate: 0.0,
        pipeline: 2,
        secs: 0.4,
    }
}

#[test]
fn every_interposition_config_serves_correctly() {
    if !environment_ready() {
        eprintln!("skipping: needs SUD + vm.mmap_min_addr=0");
        return;
    }
    let docroot = Docroot::create(&[4096]).unwrap();
    for mech in MECHANISMS {
        let cell = run_cell(&docroot, &quick_cell(mech, 4096))
            .unwrap_or_else(|e| panic!("{mech}: {e}"));
        assert!(cell.rps > 50.0, "{mech}: implausibly low rps {}", cell.rps);
        assert_eq!(cell.errors, 0, "{mech}: protocol errors");
        assert!(
            cell.p50_ns > 0 && cell.p50_ns <= cell.p99_ns && cell.p99_ns <= cell.p999_ns,
            "{mech}: implausible percentiles {} {} {}",
            cell.p50_ns,
            cell.p99_ns,
            cell.p999_ns
        );
    }
}

#[test]
fn record_row_reports_conserved_recorder_counters() {
    if !environment_ready() {
        eprintln!("skipping: needs SUD + vm.mmap_min_addr=0");
        return;
    }
    // The recording cell must actually record (the server's syscalls
    // flow into the rings), must not drop, and must leave nothing of
    // its trace in the temp directory.
    let docroot = Docroot::create(&[4096]).unwrap();
    let cell = run_cell(&docroot, &quick_cell(RECORD_MECHANISM, 4096)).unwrap();
    assert!(cell.rps > 50.0, "rps {}", cell.rps);
    assert_eq!(cell.errors, 0);
    assert!(
        cell.events_recorded > 0,
        "recording server produced no events"
    );
    assert_eq!(cell.events_dropped, 0, "recorder dropped events");
    let prefix = format!("lp_fig5_{}_", std::process::id());
    let left: Vec<_> = std::fs::read_dir(std::env::temp_dir())
        .unwrap()
        .flatten()
        .map(|e| e.file_name())
        .filter(|name| name.to_string_lossy().starts_with(&prefix))
        .collect();
    assert!(left.is_empty(), "the cell left its trace behind: {left:?}");
}

#[test]
fn multiworker_server_under_lazypoline() {
    if !environment_ready() {
        eprintln!("skipping: needs SUD + vm.mmap_min_addr=0");
        return;
    }
    // Exercises the fork-reenrollment path: the master initializes the
    // engine, then forks SO_REUSEPORT workers which must stay
    // interposed.
    let docroot = Docroot::create(&[1024]).unwrap();
    let cell = run_cell(
        &docroot,
        &CellConfig {
            flavor: Flavor::NginxLike,
            workers: 3,
            size: 1024,
            mechanism: "lazypoline",
            connections: 6,
            threads: 2,
            rate: 0.0,
            pipeline: 2,
            secs: 0.5,
        },
    )
    .unwrap();
    assert!(cell.rps > 50.0, "rps {}", cell.rps);
    assert_eq!(cell.errors, 0);
}

#[test]
fn content_integrity_under_interposition() {
    if !environment_ready() {
        eprintln!("skipping: needs SUD + vm.mmap_min_addr=0");
        return;
    }
    // Bytes served through a fully-interposed server must be identical
    // to the file contents (catches register/xstate corruption in the
    // hot path at a higher level than the unit tests).
    use std::io::{Read, Write};
    let docroot = Docroot::create(&[65536]).unwrap();
    let (read_port, _stop, _h);
    {
        // In-process server thread is not interposed here; instead use
        // the forked path via run_cell for interposed serving, and
        // direct byte comparison via a quick manual request against an
        // interposed forked server.
        let (r, w) = {
            let mut fds = [0i32; 2];
            assert_eq!(unsafe { libc::pipe2(fds.as_mut_ptr(), libc::O_CLOEXEC) }, 0);
            unsafe {
                use std::os::fd::FromRawFd;
                (
                    std::fs::File::from_raw_fd(fds[0]),
                    std::fs::File::from_raw_fd(fds[1]),
                )
            }
        };
        let pid = unsafe { libc::fork() };
        assert!(pid >= 0);
        if pid == 0 {
            drop(r);
            let mut w = w;
            match mechanism::by_name("lazypoline")
                .unwrap()
                .install(Box::new(interpose::PassthroughHandler))
            {
                Ok(active) => std::mem::forget(active),
                Err(_) => std::process::exit(2),
            }
            let server = Server::bind(ServerConfig {
                flavor: Flavor::NginxLike,
                workers: 1,
                docroot: docroot.path().to_path_buf(),
            })
            .unwrap();
            w.write_all(&server.port().to_le_bytes()).unwrap();
            drop(w);
            static NEVER: StopFlag = StopFlag::new();
            let _ = server.run(&NEVER);
            std::process::exit(0);
        }
        drop(w);
        let mut buf = [0u8; 2];
        let mut r = r;
        r.read_exact(&mut buf).unwrap();
        read_port = u16::from_le_bytes(buf);
        _stop = pid;
        _h = ();
    }

    let mut conn = std::net::TcpStream::connect(("127.0.0.1", read_port)).unwrap();
    conn.write_all(&httpd::http::get_request("/file_65536", false))
        .unwrap();
    let mut resp = Vec::new();
    conn.read_to_end(&mut resp).unwrap();
    let body_at = resp.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
    assert_eq!(&resp[body_at..], &httpd::docroot::pattern(65536)[..]);

    unsafe {
        libc::kill(-_stop, libc::SIGKILL);
        libc::kill(_stop, libc::SIGKILL);
        libc::waitpid(_stop, std::ptr::null_mut(), 0);
    }

    // Also run the canned load cell for the SUD config on the same
    // docroot to cover the slow-path-only server at 64KB.
    let cell = run_cell(&docroot, &quick_cell("sud", 65536)).unwrap();
    assert_eq!(cell.errors, 0);
    assert!(cell.rps > 10.0);
}
