//! The native Figure 5 web-server macrobenchmark.
//!
//! For every (connection count × mechanism) cell, a fresh server
//! process is forked, configured, and measured over localhost with the
//! epoll-based **open-loop generator** ([`httpd::run_open_loop`]) —
//! the paper's §V-B(b) setup scaled to this machine, extended with the
//! throughput-vs-connections scaling curve and per-cell latency
//! percentiles (p50/p99/p999 from the generator's HDR-style
//! histogram, measured against the *scheduled* send time so
//! coordinated omission does not flatter slow cells).
//!
//! Interposition rows are **mechanism registry names**
//! ([`mechanism::by_name`]), not a private enum: the server child
//! installs whatever backend the cell names, so any registered native
//! configuration can be swept. [`MECHANISMS`] holds the Figure 5 rows:
//!
//! * `none` — no machinery.
//! * `zpoline` — the engine primed by a warmup phase, then detached
//!   from SUD (`SIGUSR1` → unenroll): all hot sites are rewritten and
//!   dispatch through the trampoline with the kernel's SUD machinery
//!   completely off — the paper's own method for isolating pure
//!   rewriting performance (Fig. 4).
//! * `lazypoline-nox` / `lazypoline` — the hybrid engine without/with
//!   extended-state preservation.
//! * `sud` — the engine with lazy rewriting disabled: every syscall
//!   takes the SIGSYS slow path (pure SUD interposition).
//!
//! The sweep additionally runs [`RECORD_MECHANISM`]
//! (`lazypoline+record`): full interposition with the flight recorder
//! live and its drain thread encoding the LPTRACE2 trace while the
//! server serves — the cell that proves recording keeps up with server
//! load without dropping events. The server child reports its
//! installation's counters back over the control pipe before teardown
//! (`SIGTERM` → eventfd stop → [`crate::render_counters`] lines).

use std::io::{self, Read, Write};
use std::os::fd::FromRawFd;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use httpd::{Docroot, Flavor, OpenLoopConfig, Server, ServerConfig, StopFlag};
use mechanism::StatsSnapshot;

use crate::{env_f64, env_u64};

/// The Figure 5 interposition rows, as mechanism registry names, in
/// presentation order.
pub const MECHANISMS: [&str; 5] = ["none", "zpoline", "lazypoline-nox", "lazypoline", "sud"];

/// The recording row: lazypoline with the flight recorder and its
/// drain thread. Swept after [`MECHANISMS`].
pub const RECORD_MECHANISM: &str = "lazypoline+record";

/// All rows the default Figure 5 sweep runs.
pub fn fig5_mechanisms() -> Vec<&'static str> {
    let mut v = MECHANISMS.to_vec();
    v.push(RECORD_MECHANISM);
    v
}

/// One measured cell of Figure 5.
#[derive(Clone, Debug)]
pub struct MacroCell {
    /// Server flavour.
    pub flavor: Flavor,
    /// Worker processes.
    pub workers: usize,
    /// Served file size in bytes.
    pub size: usize,
    /// Concurrent keep-alive connections the generator held open.
    pub connections: usize,
    /// Mechanism registry name the server ran under.
    pub mechanism: &'static str,
    /// Measured requests per second.
    pub rps: f64,
    /// Completed requests.
    pub requests: u64,
    /// Client-observed errors.
    pub errors: u64,
    /// Requests still in flight when the measurement window closed.
    pub unfinished: u64,
    /// Latency percentiles in nanoseconds (scheduled-send to last
    /// response byte).
    pub p50_ns: u64,
    /// 99th percentile latency (ns).
    pub p99_ns: u64,
    /// 99.9th percentile latency (ns).
    pub p999_ns: u64,
    /// Recorder events pushed in the server child (0 unless the cell
    /// ran a `+record` mechanism).
    pub events_recorded: u64,
    /// Recorder events dropped at full rings in the server child.
    pub events_dropped: u64,
}

/// Parameters for one forked-server measurement.
#[derive(Clone, Debug)]
pub struct CellConfig {
    /// Server flavour.
    pub flavor: Flavor,
    /// Worker processes.
    pub workers: usize,
    /// Served file size in bytes.
    pub size: usize,
    /// Mechanism registry name.
    pub mechanism: &'static str,
    /// Generator connections.
    pub connections: usize,
    /// Generator event-loop threads.
    pub threads: usize,
    /// Open-loop arrival rate in req/s (0.0 = saturation mode).
    pub rate: f64,
    /// Max in-flight requests per connection (saturation mode).
    pub pipeline: usize,
    /// Measured seconds.
    pub secs: f64,
}

/// Sweep parameters (env-overridable).
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// Server flavour (`lighttpd-like` by default: the leanest syscall
    /// mix, so interposition overhead is most visible).
    pub flavor: Flavor,
    /// Worker processes (`LP_BENCH_WORKERS`).
    pub workers: usize,
    /// Served file size in bytes (`LP_BENCH_SIZE`).
    pub size: usize,
    /// Connection-count ladder, ascending (from `LP_BENCH_CONNS`).
    pub connections: Vec<usize>,
    /// Mechanism registry names to sweep.
    pub mechanisms: Vec<&'static str>,
    /// Measured seconds per cell (`LP_BENCH_SECS`).
    pub secs: f64,
    /// Generator threads (`LP_BENCH_THREADS`).
    pub threads: usize,
    /// Target arrival rate in req/s, 0 = saturation (`LP_BENCH_RATE`).
    pub rate: f64,
    /// Per-connection pipeline depth (`LP_BENCH_PIPELINE`).
    pub pipeline: usize,
}

/// The scaling ladder: ¼ steps down from `max` (e.g. 1024 → 16, 64,
/// 256, 1024), deduplicated for small maxima.
pub fn conn_ladder(max: usize) -> Vec<usize> {
    let mut ladder: Vec<usize> = [64usize, 16, 4, 1]
        .iter()
        .map(|d| (max / d).max(1))
        .collect();
    ladder.dedup();
    ladder
}

impl Default for SweepConfig {
    fn default() -> SweepConfig {
        SweepConfig {
            flavor: Flavor::LighttpdLike,
            workers: env_u64("LP_BENCH_WORKERS", 1) as usize,
            // 64 B bodies: the paper's small-size regime, where
            // per-request syscall cost (and thus interposition
            // overhead) dominates the memcpy of the body.
            size: env_u64("LP_BENCH_SIZE", 64) as usize,
            connections: conn_ladder(env_u64("LP_BENCH_CONNS", 1024) as usize),
            mechanisms: fig5_mechanisms(),
            secs: env_f64("LP_BENCH_SECS", 2.0),
            threads: env_u64("LP_BENCH_THREADS", 2) as usize,
            rate: env_f64("LP_BENCH_RATE", 0.0),
            pipeline: env_u64("LP_BENCH_PIPELINE", 16) as usize,
        }
    }
}

/// Monotonic suffix for per-cell temp trace paths (several cells can
/// run within one parent process).
static TRACE_SEQ: AtomicU64 = AtomicU64::new(0);

/// A forked, mechanism-installed server: the fork/pipe/teardown
/// plumbing shared by every cell.
struct ServerChild {
    pid: i32,
    port: u16,
    /// Read end of the control pipe; the child sends its port at
    /// startup and its counters at shutdown.
    pipe: std::fs::File,
    /// Temp trace path for `+record` cells (cleaned up on stop).
    trace: Option<PathBuf>,
}

impl ServerChild {
    /// Forks a server child running `mech` and waits for its port.
    ///
    /// # Panics
    ///
    /// Panics if `mech` is not a registered mechanism name.
    fn spawn(
        docroot: &Docroot,
        flavor: Flavor,
        workers: usize,
        mech: &'static str,
    ) -> io::Result<ServerChild> {
        assert!(
            mechanism::by_name(mech).is_some(),
            "{mech} is not a registered mechanism"
        );
        // Recording needs a trace sink: without `LP_TRACE_OUT` the
        // recorder has no drain thread and the rings overflow.
        let trace = mech.split('+').skip(1).any(|l| l == "record").then(|| {
            std::env::temp_dir().join(format!(
                "lp_fig5_{}_{}.lptrace",
                std::process::id(),
                TRACE_SEQ.fetch_add(1, Ordering::Relaxed),
            ))
        });
        let (read_fd, write_fd) = pipe()?;

        // SAFETY: standard fork; the child only uses async-signal-safe-ish
        // setup before entering its own event loop.
        let pid = unsafe { libc::fork() };
        if pid < 0 {
            return Err(io::Error::last_os_error());
        }
        if pid == 0 {
            drop(read_fd);
            server_child(docroot, flavor, workers, mech, write_fd, trace.as_deref());
        }
        drop(write_fd);

        // Parent: learn the port.
        let mut buf = [0u8; 2];
        let mut r = read_fd;
        r.read_exact(&mut buf)?;
        let port = u16::from_le_bytes(buf);
        Ok(ServerChild {
            pid,
            port,
            pipe: r,
            trace,
        })
    }

    /// Detaches the (primed) child from SUD: the zpoline row's
    /// measurement configuration.
    fn detach_sud(&self) {
        // SAFETY: signals our own child's process group.
        unsafe { libc::kill(-self.pid, libc::SIGUSR1) };
        std::thread::sleep(Duration::from_millis(100));
    }

    /// Stops the child (SIGTERM → eventfd stop), reads its counters
    /// (zeros where it reported none), and reaps the process group.
    fn stop_and_stats(mut self) -> io::Result<StatsSnapshot> {
        // SIGTERM the master only: forked workers inherit the handler
        // and a copy of the write fd, and must not race it for the
        // counters. The master SIGKILLs them before reporting.
        unsafe { libc::kill(self.pid, libc::SIGTERM) };
        let mut tail = String::new();
        let _ = self.pipe.read_to_string(&mut tail);
        unsafe {
            libc::kill(-self.pid, libc::SIGKILL);
            libc::waitpid(self.pid, std::ptr::null_mut(), 0);
        }
        if let Some(trace) = &self.trace {
            cleanup_trace(trace, self.pid);
        }
        let mut stats = StatsSnapshot::default();
        crate::parse_counters(&tail, &mut stats);
        Ok(stats)
    }
}

/// Removes what a `+record` cell left in the temp directory. The child
/// exits mid-session, so that is not `trace` but the file its session
/// records into until it finishes (see [`mechanism::replay::Recorder`]).
fn cleanup_trace(trace: &Path, child: i32) {
    let _ = std::fs::remove_file(format!("{}.{child}.part", trace.display()));
}

/// Runs one cell: forks the server, installs the named mechanism in the
/// child, measures open-loop throughput and latency, and tears the
/// server down (collecting its recorder counters).
///
/// # Errors
///
/// I/O errors from the fork/pipe/load plumbing.
///
/// # Panics
///
/// Panics if `cfg.mechanism` is not a registered mechanism name.
pub fn run_cell(docroot: &Docroot, cfg: &CellConfig) -> io::Result<MacroCell> {
    let child = ServerChild::spawn(docroot, cfg.flavor, cfg.workers, cfg.mechanism)?;
    let path = httpd::docroot::path_for_size(cfg.size);

    // Warmup: drives every hot syscall site at least once (rewriting).
    let _ = httpd::run_open_loop(&OpenLoopConfig {
        port: child.port,
        path: path.clone(),
        connections: 2,
        threads: 1,
        rate: 0.0,
        pipeline: 1,
        duration: Duration::from_millis(300),
    });

    if cfg.mechanism == "zpoline" {
        child.detach_sud();
    }

    let report = httpd::run_open_loop(&OpenLoopConfig {
        port: child.port,
        path,
        connections: cfg.connections,
        threads: cfg.threads,
        rate: cfg.rate,
        pipeline: cfg.pipeline,
        duration: Duration::from_secs_f64(cfg.secs),
    })?;
    let stats = child.stop_and_stats()?;

    Ok(MacroCell {
        flavor: cfg.flavor,
        workers: cfg.workers,
        size: cfg.size,
        connections: cfg.connections,
        mechanism: cfg.mechanism,
        rps: report.rps(),
        requests: report.requests,
        errors: report.errors,
        unfinished: report.unfinished,
        p50_ns: report.latency.percentile(0.50),
        p99_ns: report.latency.percentile(0.99),
        p999_ns: report.latency.percentile(0.999),
        events_recorded: stats.events_recorded,
        events_dropped: stats.events_dropped,
    })
}

/// Everything the Figure 5 sweep measures.
#[derive(Clone, Debug)]
pub struct Fig5Results {
    /// All (connections × mechanism) cells, in sweep order.
    pub cells: Vec<MacroCell>,
}

/// Runs the whole Figure 5 sweep: the connection ladder against every
/// mechanism row.
///
/// # Errors
///
/// Propagates the first cell failure.
pub fn run_fig5(sweep: &SweepConfig) -> io::Result<Fig5Results> {
    let docroot = Docroot::create(&[sweep.size])?;
    let mut cells = Vec::new();
    for &connections in &sweep.connections {
        for &mech in &sweep.mechanisms {
            let cell = run_cell(
                &docroot,
                &CellConfig {
                    flavor: sweep.flavor,
                    workers: sweep.workers,
                    size: sweep.size,
                    mechanism: mech,
                    connections,
                    threads: sweep.threads,
                    rate: sweep.rate,
                    pipeline: sweep.pipeline,
                    secs: sweep.secs,
                },
            )?;
            eprintln!(
                "  {} w={} {}B c={} {}: {:.0} req/s p99={}us ({} errors, {} dropped)",
                sweep.flavor.name(),
                sweep.workers,
                sweep.size,
                connections,
                mech,
                cell.rps,
                cell.p99_ns / 1_000,
                cell.errors,
                cell.events_dropped,
            );
            cells.push(cell);
        }
    }
    Ok(Fig5Results { cells })
}

/// The server child body: process-group leader, signal plumbing,
/// mechanism install, then the event loop until SIGTERM.
fn server_child(
    docroot: &Docroot,
    flavor: Flavor,
    workers: usize,
    mech: &'static str,
    mut write_fd: std::fs::File,
    trace: Option<&Path>,
) -> ! {
    unsafe { libc::setpgid(0, 0) };

    // SIGUSR1 = "drop out of SUD" (zpoline detach), SIGTERM = "stop
    // serving and report stats". Both registered before the mechanism
    // installs; the engine adopts them into the wrapper protocol.
    unsafe {
        let mut sa: libc::sigaction = std::mem::zeroed();
        sa.sa_sigaction = sigusr1_unenroll as *const () as usize;
        sa.sa_flags = libc::SA_SIGINFO;
        libc::sigaction(libc::SIGUSR1, &sa, std::ptr::null_mut());
        let mut term: libc::sigaction = std::mem::zeroed();
        term.sa_sigaction = sigterm_stop as *const () as usize;
        term.sa_flags = libc::SA_SIGINFO;
        libc::sigaction(libc::SIGTERM, &term, std::ptr::null_mut());
    }

    let backend = mechanism::by_name(mech).expect("validated by ServerChild::spawn");
    // A recording cell drains into the temp trace: the cell exists to
    // prove the recorder keeps up with server load without drops.
    // The server runs under the mechanism until SIGKILL; never tear
    // down (teardown in the event loop would race in-flight requests
    // for no benefit in a throwaway child): `exit` below drops nothing.
    let installed = mechanism::EnvConfig::from_env().map_err(Into::into).and_then(|ambient| {
        let trace_out = trace.map(Path::to_path_buf).or(ambient.trace_out);
        let cfg = mechanism::EnvConfig { trace_out, ..ambient };
        backend.install_with(Box::new(interpose::PassthroughHandler), &cfg)
    });
    let active = match installed {
        Ok(active) => active,
        Err(e) => {
            eprintln!("server child: mechanism {mech} unavailable: {e}");
            std::process::exit(2);
        }
    };

    let server = match Server::bind(ServerConfig {
        flavor,
        workers,
        docroot: docroot.path().to_path_buf(),
    }) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("server child: bind: {e}");
            std::process::exit(2);
        }
    };
    let port = server.port();
    let _ = write_fd.write_all(&port.to_le_bytes());

    let _ = server.run(&STOP);

    // Stopped via SIGTERM: report the installation's counters.
    let _ = write_fd.write_all(crate::render_counters(&active.stats()).as_bytes());
    drop(write_fd);
    std::process::exit(0);
}

/// The child's stop flag: SIGTERM-driven, eventfd-backed so the
/// blocked `epoll_wait` wakes immediately.
static STOP: StopFlag = StopFlag::new();

unsafe extern "C" fn sigusr1_unenroll(
    _sig: libc::c_int,
    _info: *mut libc::siginfo_t,
    _ctx: *mut libc::c_void,
) {
    mechanism::detach_current_thread();
}

unsafe extern "C" fn sigterm_stop(
    _sig: libc::c_int,
    _info: *mut libc::siginfo_t,
    _ctx: *mut libc::c_void,
) {
    // Async-signal-safe: an atomic store plus one eventfd write.
    STOP.stop();
}

fn pipe() -> io::Result<(std::fs::File, std::fs::File)> {
    let mut fds = [0i32; 2];
    // SAFETY: plain pipe2.
    if unsafe { libc::pipe2(fds.as_mut_ptr(), libc::O_CLOEXEC) } != 0 {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: fresh fds owned exactly once each.
    unsafe {
        Ok((
            std::fs::File::from_raw_fd(fds[0]),
            std::fs::File::from_raw_fd(fds[1]),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mechanism_rows_are_registered() {
        for mech in fig5_mechanisms() {
            assert!(
                mechanism::by_name(mech).is_some(),
                "{mech} must resolve in the registry"
            );
        }
        assert_eq!(MECHANISMS[0], "none");
        assert_eq!(MECHANISMS[4], "sud");
        assert_eq!(fig5_mechanisms().last(), Some(&RECORD_MECHANISM));
    }

    #[test]
    fn conn_ladder_scales_in_quarter_steps() {
        assert_eq!(conn_ladder(1024), vec![16, 64, 256, 1024]);
        assert_eq!(conn_ladder(64), vec![1, 4, 16, 64]);
        assert_eq!(conn_ladder(8), vec![1, 2, 8]);
        assert_eq!(conn_ladder(1), vec![1]);
    }

    #[test]
    fn default_sweep_is_sane() {
        let s = SweepConfig::default();
        assert!(!s.connections.is_empty());
        assert!(s.connections.windows(2).all(|w| w[0] < w[1]));
        assert!(s.mechanisms.contains(&"lazypoline"));
        assert!(s.mechanisms.contains(&RECORD_MECHANISM));
        assert!(s.secs > 0.0);
        assert!(s.threads >= 1);
        assert!(s.pipeline >= 1);
    }

    #[test]
    fn stats_line_round_trips() {
        let mut s = StatsSnapshot::default();
        crate::parse_counters("port junk\nevents_recorded 1000\nevents_dropped 3\n", &mut s);
        assert_eq!((s.events_recorded, s.events_dropped), (1000, 3));
        let mut empty = StatsSnapshot::default();
        crate::parse_counters("", &mut empty);
        assert_eq!(empty, StatsSnapshot::default());
    }

    // Full cells are exercised by the fig5 binary and an integration
    // test (they fork servers and run seconds-long load phases).
}
