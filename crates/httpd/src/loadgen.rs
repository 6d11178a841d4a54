//! Open-loop epoll load generator — the harness side of "production
//! traffic".
//!
//! A closed-loop, thread-per-connection client (each thread fires a
//! request, blocks on the response, fires the next) cannot express
//! thousands of concurrent connections (a thread each), and — worse
//! for measurement — it *coordinates with the server*: when the server
//! stalls, the client politely stops offering load, so the stall never
//! shows up in the numbers (coordinated omission).
//!
//! This module avoids both: `threads` event-loop threads
//! multiplex `connections` nonblocking keep-alive connections through
//! epoll. Request *admission* is open-loop — a virtual schedule admits
//! one request every `1/rate` seconds no matter what the server is
//! doing; a request whose turn arrives while its connection is busy is
//! queued on it (pipelined), not skipped. Latency is measured from the
//! request's **scheduled** time to response completion, so server
//! stalls surface as queueing delay in the tail percentiles instead of
//! silently thinning the load. `rate == 0` selects saturation mode:
//! every connection keeps [`OpenLoopConfig::pipeline`] requests
//! outstanding, which measures the server's ceiling.
//!
//! Each thread records latencies into its own [`Histogram`]; the
//! report merges them for p50/p99/p999.

use std::collections::VecDeque;
use std::io;
use std::net::TcpStream;
use std::os::fd::RawFd;
use std::time::{Duration, Instant};

use crate::hist::Histogram;
use crate::http::get_request;

/// Open-loop run parameters.
#[derive(Clone, Debug)]
pub struct OpenLoopConfig {
    /// Server port on localhost.
    pub port: u16,
    /// Resource to request, e.g. `/file_4096`.
    pub path: String,
    /// Concurrent keep-alive connections, split across threads.
    pub connections: usize,
    /// Event-loop threads.
    pub threads: usize,
    /// Target aggregate arrival rate in requests/second; `0.0` =
    /// saturation mode (keep every connection's pipeline full).
    pub rate: f64,
    /// Outstanding requests per connection in saturation mode (also
    /// the per-connection queue bound in rate mode).
    pub pipeline: usize,
    /// Admission window. In-flight requests get a short grace period
    /// after it to complete.
    pub duration: Duration,
}

impl Default for OpenLoopConfig {
    fn default() -> OpenLoopConfig {
        OpenLoopConfig {
            port: 0,
            path: "/".into(),
            connections: 64,
            threads: 2,
            rate: 0.0,
            pipeline: 4,
            duration: Duration::from_secs(1),
        }
    }
}

/// Results of one open-loop run.
#[derive(Clone, Debug)]
pub struct OpenLoopReport {
    /// Completed responses.
    pub requests: u64,
    /// Connection/protocol errors observed.
    pub errors: u64,
    /// Body bytes received.
    pub body_bytes: u64,
    /// Wall-clock seconds of the admission window.
    pub seconds: f64,
    /// Per-request latency (nanoseconds, scheduled-send → completion).
    pub latency: Histogram,
    /// Requests admitted by the schedule but not completed by the end
    /// of the grace period (queued or in flight at stop).
    pub unfinished: u64,
}

impl OpenLoopReport {
    /// Completed requests per second over the admission window.
    pub fn rps(&self) -> f64 {
        if self.seconds > 0.0 {
            self.requests as f64 / self.seconds
        } else {
            0.0
        }
    }
}

/// Runs open-loop load against `127.0.0.1:port`.
///
/// # Errors
///
/// Fails only if the server is unreachable at start; mid-run errors
/// are counted in the report.
pub fn run_open_loop(config: &OpenLoopConfig) -> io::Result<OpenLoopReport> {
    // Fail fast if the server is not there.
    TcpStream::connect(("127.0.0.1", config.port))?;

    let threads = config.threads.max(1);
    let start = Instant::now();
    let mut handles = Vec::new();
    for t in 0..threads {
        let config = config.clone();
        // Distribute connections evenly; earlier threads take the
        // remainder.
        let conns = config.connections.max(1) / threads
            + usize::from(t < config.connections.max(1) % threads);
        handles.push(std::thread::spawn(move || {
            if conns == 0 {
                return ThreadReport::default();
            }
            event_loop(&config, t, threads, conns)
        }));
    }

    let mut report = OpenLoopReport {
        requests: 0,
        errors: 0,
        body_bytes: 0,
        seconds: 0.0,
        latency: Histogram::new(),
        unfinished: 0,
    };
    for h in handles {
        let t = h.join().map_err(|_| io::Error::other("loadgen thread panicked"))?;
        report.requests += t.requests;
        report.errors += t.errors;
        report.body_bytes += t.body_bytes;
        report.unfinished += t.unfinished;
        report.latency.merge(&t.latency);
    }
    report.seconds = config.duration.as_secs_f64().max(
        // Rate mode can finish admitting early only if duration is 0;
        // measure at least the true elapsed time.
        f64::MIN_POSITIVE,
    );
    let _ = start;
    Ok(report)
}

#[derive(Default)]
struct ThreadReport {
    requests: u64,
    errors: u64,
    body_bytes: u64,
    unfinished: u64,
    latency: Histogram,
}

/// Response parser phase for one connection.
enum Phase {
    /// Accumulating header bytes until `\r\n\r\n`.
    Header,
    /// `n` body bytes still to consume.
    Body(usize),
}

struct Conn {
    fd: RawFd,
    /// Pending request bytes not yet accepted by the kernel.
    out: Vec<u8>,
    outpos: usize,
    /// Scheduled-send timestamps (ns since thread start) of requests
    /// written (or queued) but not yet answered, FIFO.
    inflight: VecDeque<u64>,
    /// Partial header bytes of the response being parsed.
    hdr: Vec<u8>,
    phase: Phase,
    /// Last write attempt hit EAGAIN; wait for the next EPOLLOUT edge.
    blocked: bool,
}

impl Conn {
    fn new(fd: RawFd) -> Conn {
        Conn {
            fd,
            out: Vec::with_capacity(512),
            outpos: 0,
            inflight: VecDeque::new(),
            hdr: Vec::with_capacity(256),
            phase: Phase::Header,
            blocked: true, // until the first EPOLLOUT (connect done)
        }
    }
}

fn now_ns(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

fn event_loop(config: &OpenLoopConfig, tid: usize, threads: usize, conns: usize) -> ThreadReport {
    let mut report = ThreadReport::default();
    let request = get_request(&config.path, true);
    let pipeline = config.pipeline.max(1);
    let start = Instant::now();
    let deadline = config.duration.as_nanos() as u64;
    // Short grace period for in-flight requests after admission stops.
    let grace_end = deadline + (deadline / 4).clamp(50_000_000, 500_000_000);

    // Open-loop schedule: this thread admits every `threads/rate`
    // seconds, phase-shifted so threads interleave.
    let interval_ns = if config.rate > 0.0 {
        (threads as f64 * 1e9 / config.rate) as u64
    } else {
        0
    };
    let mut next_due = interval_ns / threads as u64 * tid as u64;

    let ep = unsafe { libc::epoll_create1(0) };
    if ep < 0 {
        report.errors += 1;
        return report;
    }

    let mut pool: Vec<Option<Conn>> = Vec::with_capacity(conns);
    for slot in 0..conns {
        pool.push(open_conn(ep, config.port, slot, &mut report));
    }
    let mut events = vec![libc::epoll_event { events: 0, u64: 0 }; 512];
    let mut scratch = vec![0u8; 64 * 1024];
    let mut cursor = 0usize; // round-robin admission cursor

    loop {
        let now = now_ns(start);
        if now >= grace_end {
            break;
        }
        let admitting = now < deadline;

        if admitting {
            if interval_ns == 0 {
                // Saturation: top every connection up to the pipeline
                // depth; scheduled time is the admission time.
                for (slot, entry) in pool.iter_mut().enumerate().take(conns) {
                    let Some(conn) = entry.as_mut() else {
                        *entry = open_conn(ep, config.port, slot, &mut report);
                        continue;
                    };
                    while conn.inflight.len() < pipeline {
                        conn.out.extend_from_slice(&request);
                        conn.inflight.push_back(now_ns(start));
                    }
                    if !conn.blocked && flush(conn).is_err() {
                        recycle(ep, entry, config.port, slot, &mut report);
                    }
                }
            } else {
                // Rate mode: admit every due request; a busy connection
                // queues it (late requests queue, they don't vanish).
                while next_due <= now {
                    // Pick the least-loaded of a few round-robin probes
                    // so one slow connection does not absorb the whole
                    // schedule.
                    let mut best = cursor % conns;
                    for probe in 0..4usize.min(conns) {
                        let i = (cursor + probe) % conns;
                        let load = |s: &Option<Conn>| {
                            s.as_ref().map_or(usize::MAX, |c| c.inflight.len())
                        };
                        if load(&pool[i]) < load(&pool[best]) {
                            best = i;
                        }
                    }
                    cursor = cursor.wrapping_add(1);
                    match pool[best].as_mut() {
                        Some(conn) if conn.inflight.len() < pipeline.max(64) => {
                            conn.out.extend_from_slice(&request);
                            // Latency clock starts at the *scheduled*
                            // time: queueing delay is measured, not
                            // coordinated away.
                            conn.inflight.push_back(next_due);
                            if !conn.blocked && flush(conn).is_err() {
                                recycle(ep, &mut pool[best], config.port, best, &mut report);
                            }
                        }
                        Some(_) => report.errors += 1, // queue bound hit
                        None => {
                            pool[best] = open_conn(ep, config.port, best, &mut report);
                            report.errors += 1;
                        }
                    }
                    next_due += interval_ns;
                }
            }
        } else if pool
            .iter()
            .all(|c| c.as_ref().is_none_or(|c| c.inflight.is_empty()))
        {
            break; // grace period and nothing left in flight
        }

        // Sleep until the next admission tick (rate mode) or briefly.
        let timeout_ms = if admitting && interval_ns > 0 {
            (next_due.saturating_sub(now_ns(start)) / 1_000_000).clamp(0, 100) as i32
        } else {
            5
        };
        let n = unsafe {
            libc::epoll_wait(ep, events.as_mut_ptr(), events.len() as i32, timeout_ms)
        };
        if n < 0 {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                continue;
            }
            report.errors += 1;
            break;
        }
        for ev in &events[..n as usize] {
            let slot = ev.u64 as usize;
            let Some(conn) = pool[slot].as_mut() else {
                continue;
            };
            let mut dead = ev.events & (libc::EPOLLHUP as u32 | libc::EPOLLERR as u32) != 0;
            if !dead && ev.events & libc::EPOLLOUT as u32 != 0 {
                conn.blocked = false;
                dead = flush(conn).is_err();
            }
            if !dead && ev.events & libc::EPOLLIN as u32 != 0 {
                dead = read_responses(conn, &mut scratch, start, &mut report).is_err();
            }
            if dead {
                recycle(ep, &mut pool[slot], config.port, slot, &mut report);
            }
        }
    }

    for conn in pool.into_iter().flatten() {
        report.unfinished += conn.inflight.len() as u64;
        unsafe { libc::close(conn.fd) };
    }
    unsafe { libc::close(ep) };
    report
}

/// Opens one nonblocking connection and registers it edge-triggered.
fn open_conn(ep: RawFd, port: u16, slot: usize, report: &mut ThreadReport) -> Option<Conn> {
    unsafe {
        let fd = libc::socket(
            libc::AF_INET,
            libc::SOCK_STREAM | libc::SOCK_NONBLOCK,
            0,
        );
        if fd < 0 {
            report.errors += 1;
            return None;
        }
        let one: libc::c_int = 1;
        libc::setsockopt(
            fd,
            libc::IPPROTO_TCP,
            libc::TCP_NODELAY,
            &one as *const _ as *const libc::c_void,
            std::mem::size_of::<libc::c_int>() as u32,
        );
        let addr = libc::sockaddr_in {
            sin_family: libc::AF_INET as u16,
            sin_port: port.to_be(),
            sin_addr: libc::in_addr {
                s_addr: u32::from_ne_bytes([127, 0, 0, 1]),
            },
            sin_zero: [0; 8],
        };
        let r = libc::connect(
            fd,
            &addr as *const _ as *const libc::sockaddr,
            std::mem::size_of::<libc::sockaddr_in>() as u32,
        );
        if r != 0 {
            let e = io::Error::last_os_error();
            // EINPROGRESS is the nonblocking handshake in flight;
            // completion arrives as EPOLLOUT.
            if e.raw_os_error() != Some(libc::EINPROGRESS) {
                libc::close(fd);
                report.errors += 1;
                return None;
            }
        }
        let mut ev = libc::epoll_event {
            events: (libc::EPOLLIN | libc::EPOLLOUT | libc::EPOLLET) as u32,
            u64: slot as u64,
        };
        if libc::epoll_ctl(ep, libc::EPOLL_CTL_ADD, fd, &mut ev) != 0 {
            libc::close(fd);
            report.errors += 1;
            return None;
        }
        Some(Conn::new(fd))
    }
}

/// Closes a failed connection (counting its in-flight requests as
/// unfinished) and opens a replacement in the same slot.
fn recycle(
    ep: RawFd,
    slot_ref: &mut Option<Conn>,
    port: u16,
    slot: usize,
    report: &mut ThreadReport,
) {
    if let Some(conn) = slot_ref.take() {
        report.errors += 1;
        report.unfinished += conn.inflight.len() as u64;
        unsafe {
            libc::epoll_ctl(ep, libc::EPOLL_CTL_DEL, conn.fd, std::ptr::null_mut());
            libc::close(conn.fd);
        }
    }
    *slot_ref = open_conn(ep, port, slot, report);
}

/// Writes as much pending output as the socket accepts. `Err` on fatal
/// error.
fn flush(conn: &mut Conn) -> Result<(), ()> {
    while conn.outpos < conn.out.len() {
        let n = unsafe {
            libc::write(
                conn.fd,
                conn.out[conn.outpos..].as_ptr() as *const libc::c_void,
                conn.out.len() - conn.outpos,
            )
        };
        if n < 0 {
            let e = io::Error::last_os_error();
            if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
            ) || e.raw_os_error() == Some(libc::ENOTCONN)
            {
                conn.blocked = true;
                return Ok(());
            }
            return Err(());
        }
        conn.outpos += n as usize;
    }
    conn.out.clear();
    conn.outpos = 0;
    Ok(())
}

/// Reads until EAGAIN (edge-triggered), completing responses. `Err` on
/// EOF or fatal error.
fn read_responses(
    conn: &mut Conn,
    scratch: &mut [u8],
    start: Instant,
    report: &mut ThreadReport,
) -> Result<(), ()> {
    loop {
        let n = unsafe {
            libc::read(
                conn.fd,
                scratch.as_mut_ptr() as *mut libc::c_void,
                scratch.len(),
            )
        };
        if n == 0 {
            return Err(()); // server closed
        }
        if n < 0 {
            let e = io::Error::last_os_error();
            return if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
            ) {
                Ok(())
            } else {
                Err(())
            };
        }
        let mut buf = &scratch[..n as usize];
        while !buf.is_empty() {
            match conn.phase {
                Phase::Header => {
                    // Accumulate until the header terminator; parse
                    // Content-Length from the completed block.
                    let already = conn.hdr.len();
                    conn.hdr.extend_from_slice(buf);
                    match find_header_end(&conn.hdr) {
                        Some(end) => {
                            let consumed = end + 4 - already;
                            buf = &buf[consumed..];
                            let len = content_length(&conn.hdr[..end + 4]).ok_or(())?;
                            conn.hdr.clear();
                            conn.phase = Phase::Body(len);
                            if len == 0 {
                                complete_response(conn, start, 0, report)?;
                            }
                        }
                        None => {
                            if conn.hdr.len() > 64 * 1024 {
                                return Err(()); // runaway header
                            }
                            buf = &[];
                        }
                    }
                }
                Phase::Body(remaining) => {
                    let take = remaining.min(buf.len());
                    buf = &buf[take..];
                    let left = remaining - take;
                    report.body_bytes += take as u64;
                    if left == 0 {
                        complete_response(conn, start, 0, report)?;
                    } else {
                        conn.phase = Phase::Body(left);
                    }
                }
            }
        }
    }
}

/// Marks the oldest in-flight request answered and records latency.
fn complete_response(
    conn: &mut Conn,
    start: Instant,
    _body: usize,
    report: &mut ThreadReport,
) -> Result<(), ()> {
    conn.phase = Phase::Header;
    let scheduled = conn.inflight.pop_front().ok_or(())?; // response w/o request
    report.requests += 1;
    report
        .latency
        .record(now_ns(start).saturating_sub(scheduled));
    Ok(())
}

fn find_header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn content_length(header: &[u8]) -> Option<usize> {
    let text = std::str::from_utf8(header).ok()?;
    text.lines().find_map(|l| {
        l.to_ascii_lowercase()
            .strip_prefix("content-length:")
            .map(|v| v.trim().parse().ok())?
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::docroot::{path_for_size, Docroot};
    use crate::server::{Flavor, Server, ServerConfig};

    fn serve(
        size: usize,
        flavor: Flavor,
    ) -> (u16, std::sync::Arc<crate::server::StopFlag>, Docroot) {
        let root = Docroot::create(&[size]).unwrap();
        let (port, stop, _handle) = Server::spawn_in_thread(ServerConfig {
            flavor,
            workers: 1,
            docroot: root.path().to_path_buf(),
        })
        .unwrap();
        (port, stop, root)
    }

    #[test]
    fn saturation_mode_reports_throughput_and_latency() {
        // A small in-memory body, and a 64 KiB one read from disk in
        // chunks (many `write`s and partial reads per response).
        for (size, flavor, at_least) in [
            (1024, Flavor::LighttpdLike, 50),
            (65536, Flavor::NginxLike, 5),
        ] {
            let (port, stop, _root) = serve(size, flavor);
            let report = run_open_loop(&OpenLoopConfig {
                port,
                path: path_for_size(size),
                connections: 8,
                threads: 2,
                rate: 0.0,
                pipeline: 2,
                duration: Duration::from_millis(300),
            })
            .unwrap();
            stop.stop();
            assert!(report.requests > at_least, "{size}: {report:?}");
            assert_eq!(report.errors, 0, "{size}: {report:?}");
            assert_eq!(
                report.latency.count(),
                report.requests,
                "one latency sample per completed request"
            );
            assert_eq!(report.body_bytes, report.requests * size as u64);
            let (p50, p99, p999) = report.latency.summary();
            assert!(p50 > 0 && p50 <= p99 && p99 <= p999, "{size}: {report:?}");
        }
    }

    #[test]
    fn rate_mode_admits_close_to_schedule() {
        let (port, stop, _root) = serve(1024, Flavor::LighttpdLike);
        let report = run_open_loop(&OpenLoopConfig {
            port,
            path: path_for_size(1024),
            connections: 4,
            threads: 2,
            rate: 2000.0,
            pipeline: 4,
            duration: Duration::from_millis(500),
        })
        .unwrap();
        stop.stop();
        // ~1000 admitted; allow generous tolerance for CI noise but
        // assert the schedule neither stalled nor ran away.
        let admitted = report.requests + report.unfinished + report.errors;
        assert!(
            (500..=1600).contains(&admitted),
            "admitted {admitted}: {report:?}"
        );
        assert_eq!(report.errors, 0, "{report:?}");
    }

    #[test]
    fn dead_port_fails_fast() {
        assert!(run_open_loop(&OpenLoopConfig {
            port: 1,
            path: "/x".into(),
            connections: 1,
            threads: 1,
            rate: 0.0,
            pipeline: 1,
            duration: Duration::from_millis(10),
        })
        .is_err());
    }
}
