//! `httpd_static`: a forked `httpd` server (`NginxLike` flavour, one
//! worker, 64-byte file) under `lazypoline`; op = one request from the
//! open-loop generator in saturation mode (1 thread, 8 connections,
//! pipeline 32). The application dominates; the interposer is about a
//! quarter of a request.
//!
//! Two servers live for the whole run — one under `none`, one under the
//! mechanism — and the generator alternates between them, so a
//! repetition compares the two under the same machine state. An idle
//! server blocks in `epoll_wait` and costs nothing.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};

use httpd::{Docroot, Flavor, OpenLoopConfig, OpenLoopReport, Server, ServerConfig, StopFlag};
use interpose::PassthroughHandler;

use crate::harness::{Check, Counters, Ctx, Side, Workload};
use crate::stats::Block;
use crate::sys;

pub const FILE_SIZE: usize = 64;
/// One block per side and short blocks: this host's speed drifts by
/// ±10 % over seconds, so `none` and the mechanism have to alternate
/// faster than that for their ratio to mean anything.
const BLOCKS: usize = 1;
const BLOCK_SECONDS: f64 = 0.1;
const WARMUP_SECONDS: f64 = 0.15;
/// 8 × 32 = 256 requests in flight from one generator thread, which
/// keeps the server busy 98 % of a phase. With 32 in flight (2 × 16) it
/// is busy 80–85 %: it runs out of queued requests, sleeps in
/// `epoll_wait`, and a block measures cross-CPU wake-up latency — a
/// regime that flips from block to block — instead of the server.
const CONNECTIONS: usize = 8;
const PIPELINE: usize = 32;

/// A forked server process with the named mechanism installed.
pub struct ServerChild {
    pid: i32,
    pub port: u16,
    pipe: Option<std::fs::File>,
    /// Requests this process sent it (for `syscalls_per_req`).
    pub requests: u64,
}

/// The child's stop flag: `SIGTERM` → eventfd wake → `Server::run`
/// returns → the counters go out over the pipe.
static STOP: StopFlag = StopFlag::new();

unsafe extern "C" fn on_sigterm(_: libc::c_int, _: *mut libc::siginfo_t, _: *mut libc::c_void) {
    STOP.stop();
}

unsafe extern "C" fn on_sigusr1(_: libc::c_int, _: *mut libc::siginfo_t, _: *mut libc::c_void) {
    // The `zpoline` row: once warm-up has rewritten the hot sites, drop
    // out of SUD and run on rewriting alone.
    mechanism::detach_current_thread();
}

/// The server child's body; returns its exit code.
fn serve(
    backend: &dyn mechanism::Mechanism,
    mech: &str,
    docroot: &Path,
    wr: &mut std::fs::File,
) -> i32 {
    // SAFETY: installing two async-signal-safe handlers before the
    // mechanism arms (the engine adopts them).
    unsafe {
        for (sig, f) in [
            (libc::SIGTERM, on_sigterm as *const () as usize),
            (libc::SIGUSR1, on_sigusr1 as *const () as usize),
        ] {
            let mut sa: libc::sigaction = std::mem::zeroed();
            sa.sa_sigaction = f;
            sa.sa_flags = libc::SA_SIGINFO;
            libc::sigaction(sig, &sa, std::ptr::null_mut());
        }
    }
    let active = match backend.install(Box::new(PassthroughHandler)) {
        Ok(active) => active,
        Err(e) => {
            eprintln!("lpbench server child: install {mech}: {e}");
            return 2;
        }
    };
    let server = match Server::bind(ServerConfig {
        flavor: Flavor::NginxLike,
        workers: 1,
        docroot: docroot.to_path_buf(),
    }) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("lpbench server child: bind: {e}");
            return 2;
        }
    };
    let _ = wr.write_all(&server.port().to_le_bytes());
    let _ = server.run(&STOP);
    let s = active.stats();
    let _ = writeln!(
        wr,
        "stats {} {} {} {} {} {}",
        s.dispatches,
        s.slow_path_hits,
        s.sites_patched,
        s.patch_retries,
        s.pages_blocklisted,
        s.unpatchable_emulations
    );
    // Exit with the mechanism still armed: tearing it down under a
    // stopped event loop buys nothing.
    std::mem::forget(active);
    0
}

impl ServerChild {
    /// Forks; the child installs `mech`, binds an ephemeral port,
    /// reports it, and serves until `SIGTERM`.
    pub fn spawn(docroot: &Path, mech: &str) -> Result<ServerChild, String> {
        let backend =
            mechanism::by_name(mech).ok_or_else(|| format!("{mech} is not registered"))?;
        let (mut rd, mut wr) = sys::pipe().map_err(|e| format!("pipe: {e}"))?;
        // SAFETY: this process is single-threaded here (the generator's
        // threads are joined before `run_open_loop` returns), so the
        // child may run ordinary code.
        let pid = unsafe { libc::fork() };
        if pid < 0 {
            return Err(format!("fork: {}", std::io::Error::last_os_error()));
        }
        if pid == 0 {
            drop(rd);
            // A panic must not unwind into the parent's frames: their
            // destructors would remove the parent's run directory.
            let code = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                serve(backend, mech, docroot, &mut wr)
            }));
            // SAFETY: leave without running the parent's destructors
            // or flushing its inherited stdio buffers.
            unsafe { libc::_exit(code.unwrap_or(3)) };
        }
        drop(wr);
        let mut port = [0u8; 2];
        rd.read_exact(&mut port)
            .map_err(|e| format!("the {mech} server child died before reporting its port: {e}"))?;
        Ok(ServerChild {
            pid,
            port: u16::from_le_bytes(port),
            pipe: Some(rd),
            requests: 0,
        })
    }

    pub fn pid(&self) -> i32 {
        self.pid
    }

    pub fn cpu_ns(&self) -> u64 {
        sys::process_cpu_ns(Some(self.pid))
    }

    /// Sends `SIGUSR1` (see [`on_sigusr1`]) and gives it time to land.
    pub fn detach_sud(&self) {
        // SAFETY: signalling our own child.
        unsafe { libc::kill(self.pid, libc::SIGUSR1) };
        std::thread::sleep(Duration::from_millis(20));
    }

    /// Stops the server and returns the counters it reports.
    pub fn stop(mut self) -> Result<Counters, String> {
        // SAFETY: signalling our own child.
        unsafe { libc::kill(self.pid, libc::SIGTERM) };
        let mut tail = String::new();
        if let Some(mut pipe) = self.pipe.take() {
            let _ = pipe.read_to_string(&mut tail);
        }
        let mut n = tail
            .trim()
            .strip_prefix("stats ")
            .ok_or_else(|| format!("server child sent {tail:?} instead of its counters"))?
            .split(' ')
            .map(|w| w.parse::<u64>().unwrap_or(0));
        let mut next = || n.next().unwrap_or(0);
        Ok(Counters {
            dispatches: next(),
            slow_path_hits: next(),
            sites_patched: next(),
            patch_retries: next(),
            pages_blocklisted: next(),
            unpatchable_emulations: next(),
            ..Counters::default()
        })
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        // SAFETY: killing and reaping our own child (a no-op kill when
        // `stop` already let it exit).
        unsafe {
            libc::kill(self.pid, libc::SIGKILL);
            libc::waitpid(self.pid, std::ptr::null_mut(), 0);
        }
    }
}

fn load(port: u16, seconds: f64, rate: f64) -> OpenLoopConfig {
    OpenLoopConfig {
        port,
        path: httpd::docroot::path_for_size(FILE_SIZE),
        connections: CONNECTIONS,
        threads: 1,
        rate,
        pipeline: PIPELINE,
        duration: Duration::from_secs_f64(seconds),
    }
}

/// One generator phase against `server`; `rate == 0` saturates.
pub fn drive(server: &mut ServerChild, seconds: f64, rate: f64) -> Result<OpenLoopReport, String> {
    let report = httpd::run_open_loop(&load(server.port, seconds, rate))
        .map_err(|e| format!("load generator: {e}"))?;
    server.requests += report.requests + report.unfinished;
    Ok(report)
}

/// One saturation phase as a timed block: wall time is the admission
/// window, CPU time is the server's over the whole phase, an op is one
/// completed request. Errors, unfinished requests and short bodies are
/// failures. Also returns the phase's full wall time (thread start-up
/// and grace period included) — the base of the server's utilisation.
///
/// A phase with nothing wrong but unfinished requests was cut short:
/// the generator gives the 256 requests in flight at the deadline 50 ms
/// by its own clock, and a server or generator that loses its CPU for
/// that long just then leaves them unanswered. Such a phase is
/// discarded and run again, once; whatever the second one reports
/// stands, so a server that really hangs on a request still fails.
pub fn saturate(server: &mut ServerChild, seconds: f64) -> (Block, u64) {
    match phase(server, seconds) {
        (_, _, true) => {
            let (block, elapsed_ns, _) = phase(server, seconds);
            (block, elapsed_ns)
        }
        (block, elapsed_ns, false) => (block, elapsed_ns),
    }
}

/// One saturation phase: its block, its full wall time, and whether
/// unfinished requests were all that was wrong with it.
fn phase(server: &mut ServerChild, seconds: f64) -> (Block, u64, bool) {
    let cpu0 = server.cpu_ns();
    let t0 = Instant::now();
    let report = drive(server, seconds, 0.0);
    let elapsed_ns = t0.elapsed().as_nanos() as u64;
    let cpu_ns = server.cpu_ns().saturating_sub(cpu0);
    match report {
        Err(_) => {
            let block = Block {
                ops: 1,
                failed: 1,
                wall_ns: elapsed_ns,
                cpu_ns,
                rss_kib: 0,
            };
            (block, elapsed_ns, false)
        }
        Ok(r) => {
            let ops = r.requests.max(1);
            let short_bodies = (r.requests * FILE_SIZE as u64)
                .abs_diff(r.body_bytes)
                .div_ceil(FILE_SIZE as u64);
            let block = Block {
                ops,
                failed: (r.errors + r.unfinished + short_bodies).min(ops),
                // The generator's own clock: it counts requests over
                // the admission window.
                wall_ns: (r.seconds * 1e9) as u64,
                cpu_ns,
                rss_kib: 0,
            };
            let cut_short = r.unfinished > 0 && r.errors == 0 && short_bodies == 0;
            (block, elapsed_ns, cut_short)
        }
    }
}

/// One `Connection: close` GET; returns the body.
pub fn fetch_body(port: u16, path: &str) -> Result<Vec<u8>, String> {
    let mut s = TcpStream::connect(("127.0.0.1", port)).map_err(|e| format!("connect: {e}"))?;
    s.set_read_timeout(Some(Duration::from_secs(5))).ok();
    s.write_all(&httpd::http::get_request(path, false))
        .map_err(|e| format!("send: {e}"))?;
    let mut response = Vec::new();
    s.read_to_end(&mut response)
        .map_err(|e| format!("receive: {e}"))?;
    let end = response
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("response has no header end")?;
    if !response.starts_with(b"HTTP/1.1 200") {
        return Err(format!(
            "status line {:?}",
            String::from_utf8_lossy(&response[..end.min(40)])
        ));
    }
    Ok(response[end + 4..].to_vec())
}

struct Running {
    none: ServerChild,
    mech: ServerChild,
    // Dropped last: the servers read from it.
    _docroot: Docroot,
}

#[derive(Default)]
pub struct HttpdStatic {
    run: Option<Running>,
}

impl Workload for HttpdStatic {
    fn blocks_per_side(&self) -> usize {
        BLOCKS
    }

    fn prepare(&mut self, cx: &Ctx) -> Result<(), String> {
        // The docroot directory is keyed on the pid, so at most one may
        // exist at a time: `discard` drops the previous one first.
        let docroot = cx
            .tracer
            .span("Docroot::create", "httpd", || Docroot::create(&[FILE_SIZE]))
            .map_err(|e| format!("docroot: {e}"))?;
        let spawn = |mech| {
            cx.tracer.span("spawn", "httpd", || {
                ServerChild::spawn(docroot.path(), mech)
            })
        };
        let mut none = spawn("none")?;
        let mut mech = spawn("lazypoline")?;
        let path = httpd::docroot::path_for_size(FILE_SIZE);
        for server in [&mut none, &mut mech] {
            // Warm-up drives every hot syscall site through the slow
            // path once; the full-body compare checks what the
            // generator only counts.
            cx.tracer
                .span("warm-up", "httpd", || drive(server, WARMUP_SECONDS, 0.0))?;
            let body = fetch_body(server.port, &path)?;
            server.requests += 1;
            if body != httpd::docroot::pattern(FILE_SIZE) {
                return Err(format!(
                    "served body differs from the docroot pattern ({} bytes)",
                    body.len()
                ));
            }
        }
        self.run = Some(Running {
            none,
            mech,
            _docroot: docroot,
        });
        Ok(())
    }

    fn enter(&mut self, _side: Side, _cx: &Ctx) -> Result<(), String> {
        Ok(())
    }

    fn block(&mut self, side: Side) -> Block {
        let run = self.run.as_mut().expect("prepared");
        let server = match side {
            Side::None => &mut run.none,
            Side::Mech => &mut run.mech,
        };
        saturate(server, BLOCK_SECONDS).0
    }

    fn leave(&mut self, _side: Side, _cx: &Ctx) -> Result<Check, String> {
        Ok(Check::default())
    }

    fn process_under_test(&self) -> Option<i32> {
        self.run.as_ref().map(|run| run.mech.pid())
    }

    fn verify(&mut self, cx: &Ctx) -> Result<Check, String> {
        let run = self.run.take().ok_or("not prepared")?;
        let mut check = Check::default();
        let requests = run.mech.requests;
        let counters = cx.tracer.span("stop", "httpd", || run.mech.stop())?;
        // A request is several syscalls (accept aside: read, openat,
        // fstat, read, close, write); fewer dispatches than requests
        // means the server was not interposed.
        check.expect(counters.dispatches > 2 * requests, requests, || {
            format!("{} dispatches for {requests} requests", counters.dispatches)
        });
        check.expect(
            counters.unpatchable_emulations == 0 && counters.pages_blocklisted == 0,
            1,
            || {
                format!(
                    "{} emulations, {} pages blocklisted",
                    counters.unpatchable_emulations, counters.pages_blocklisted
                )
            },
        );
        check.counters = counters;
        cx.tracer.span("stop", "httpd", || run.none.stop())?;
        Ok(check)
    }

    fn discard(&mut self) {
        self.run = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uninterposed_server_serves_the_pattern_and_reports_counters() {
        let dir = std::env::temp_dir().join(format!("lpbench-httpd-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join(format!("file_{FILE_SIZE}")),
            httpd::docroot::pattern(FILE_SIZE),
        )
        .unwrap();
        let mut server = ServerChild::spawn(&dir, "none").unwrap();
        let body = fetch_body(server.port, &httpd::docroot::path_for_size(FILE_SIZE)).unwrap();
        assert_eq!(body, httpd::docroot::pattern(FILE_SIZE));
        let (b, _) = saturate(&mut server, 0.05);
        assert!(b.ops > 10 && b.failed == 0, "{b:?}");
        assert!(server.cpu_ns() > 0);
        assert_eq!(server.stop().unwrap(), Counters::default());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
