//! strace-like tracing without heap allocation.
//!
//! The exhaustiveness experiment (paper §V-A) uses exactly this
//! interposer: "they print the current system call with all its
//! arguments, then execute the syscall without modification".

use std::sync::atomic::{AtomicU64, Ordering};

use crate::{Action, SyscallEvent, SyscallHandler};
use syscalls::SyscallArgs;

/// Where trace lines go.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum TraceSink {
    /// Raw `write(2)` to stderr (fd 2) — allocation-free and reentrancy
    /// safe, like the C prototype's tracing interposer.
    #[default]
    Stderr,
    /// Raw `write(2)` to an arbitrary fd (e.g. a pipe to a collector).
    Fd(i32),
    /// Discard output but still count lines (for benchmarking the
    /// formatting cost alone).
    Null,
}

/// Formats one strace-like line into `buf`, returning the byte length.
///
/// Zero allocation: suitable for signal-handler context. Lines look
/// like `getpid(0x0, 0x0, 0x0, 0x0, 0x0, 0x0) @0x401234\n`.
pub fn format_syscall_line(call: &SyscallArgs, site: usize, buf: &mut [u8]) -> usize {
    let mut w = Cursor { buf, pos: 0 };
    match call.name() {
        Some(name) => w.push_str(name),
        None => {
            w.push_str("syscall_");
            w.push_u64(call.nr);
        }
    }
    w.push_str("(");
    for (i, a) in call.args.iter().enumerate() {
        if i > 0 {
            w.push_str(", ");
        }
        w.push_hex(*a);
    }
    w.push_str(")");
    if site != 0 {
        w.push_str(" @");
        w.push_hex(site as u64);
    }
    w.push_str("\n");
    w.pos
}

struct Cursor<'a> {
    buf: &'a mut [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn push_byte(&mut self, b: u8) {
        if self.pos < self.buf.len() {
            self.buf[self.pos] = b;
            self.pos += 1;
        }
    }

    fn push_str(&mut self, s: &str) {
        for &b in s.as_bytes() {
            self.push_byte(b);
        }
    }

    fn push_u64(&mut self, mut v: u64) {
        let mut digits = [0u8; 20];
        let mut n = 0;
        loop {
            digits[n] = b'0' + (v % 10) as u8;
            v /= 10;
            n += 1;
            if v == 0 {
                break;
            }
        }
        for i in (0..n).rev() {
            self.push_byte(digits[i]);
        }
    }

    fn push_hex(&mut self, v: u64) {
        self.push_str("0x");
        if v == 0 {
            self.push_byte(b'0');
            return;
        }
        let mut started = false;
        for shift in (0..16).rev() {
            let nib = ((v >> (shift * 4)) & 0xf) as u8;
            if nib != 0 {
                started = true;
            }
            if started {
                self.push_byte(if nib < 10 { b'0' + nib } else { b'a' + nib - 10 });
            }
        }
    }
}

/// Prints every intercepted syscall, strace-style, then passes through.
#[derive(Debug, Default)]
pub struct TraceHandler {
    sink: TraceSink,
    lines: AtomicU64,
}

impl TraceHandler {
    /// Traces to stderr.
    pub fn new() -> TraceHandler {
        TraceHandler::with_sink(TraceSink::Stderr)
    }

    /// Traces to the given sink.
    pub fn with_sink(sink: TraceSink) -> TraceHandler {
        TraceHandler {
            sink,
            lines: AtomicU64::new(0),
        }
    }

    /// Number of lines emitted so far.
    pub fn lines(&self) -> u64 {
        self.lines.load(Ordering::Relaxed)
    }
}

impl SyscallHandler for TraceHandler {
    fn handle(&self, event: &mut SyscallEvent) -> Action {
        let mut buf = [0u8; 256];
        let len = format_syscall_line(&event.call, event.site, &mut buf);
        self.lines.fetch_add(1, Ordering::Relaxed);
        let fd = match self.sink {
            TraceSink::Stderr => 2,
            TraceSink::Fd(fd) => fd,
            TraceSink::Null => {
                return Action::Passthrough;
            }
        };
        // SAFETY: writing our stack buffer to a caller-chosen fd.
        unsafe {
            syscalls::raw::syscall3(syscalls::nr::WRITE, fd as u64, buf.as_ptr() as u64, len as u64);
        }
        Action::Passthrough
    }

    fn name(&self) -> &str {
        "trace"
    }

    fn leaves_fp_env(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syscalls::nr;

    fn fmt(call: &SyscallArgs, site: usize) -> String {
        let mut buf = [0u8; 256];
        let n = format_syscall_line(call, site, &mut buf);
        String::from_utf8(buf[..n].to_vec()).unwrap()
    }

    #[test]
    fn formats_named_syscall() {
        let call = SyscallArgs::new(nr::WRITE, [1, 0xdead, 5, 0, 0, 0]);
        assert_eq!(fmt(&call, 0), "write(0x1, 0xdead, 0x5, 0x0, 0x0, 0x0)\n");
    }

    #[test]
    fn formats_unknown_syscall_and_site() {
        let call = SyscallArgs::nullary(500);
        assert_eq!(
            fmt(&call, 0x40_1234),
            "syscall_500(0x0, 0x0, 0x0, 0x0, 0x0, 0x0) @0x401234\n"
        );
    }

    #[test]
    fn formatting_truncates_gracefully() {
        let call = SyscallArgs::new(nr::WRITE, [u64::MAX; 6]);
        let mut tiny = [0u8; 8];
        let n = format_syscall_line(&call, usize::MAX, &mut tiny);
        assert_eq!(n, 8); // clamped to buffer
    }

    #[test]
    fn null_sink_counts_lines() {
        let h = TraceHandler::with_sink(TraceSink::Null);
        let mut ev = SyscallEvent::new(SyscallArgs::nullary(nr::GETPID));
        assert_eq!(h.handle(&mut ev), Action::Passthrough);
        assert_eq!(h.handle(&mut ev), Action::Passthrough);
        assert_eq!(h.lines(), 2);
    }

    #[test]
    fn hex_edge_cases() {
        let call = SyscallArgs::new(nr::READ, [0, u64::MAX, 0x10, 0, 0, 0]);
        let s = fmt(&call, 0);
        assert!(s.contains("0x0, 0xffffffffffffffff, 0x10"));
    }
}
