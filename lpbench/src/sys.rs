//! What the benchmark needs from the operating system that the
//! repository's vendored `libc` shim does not declare (CPU clocks,
//! `wait4`), plus the hermetic run directory and artifact lookup.

use std::io;
use std::path::{Path, PathBuf};

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` (x86-64 Linux): two timevals and fourteen longs.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: u64 = 2;

/// User + system CPU time consumed so far by **all threads** of this
/// process (`pid == None`) or of another process, in nanoseconds.
///
/// Issued through the repository's raw syscall wrapper, not libc: the
/// libc route runs the `syscall` instruction inside the vDSO, a page
/// the lazy rewriter cannot patch, and would put a blocklisted page
/// into every in-process workload's counters.
pub fn process_cpu_ns(pid: Option<i32>) -> u64 {
    // The kernel's clockid encoding for "CPU time of process <pid>":
    // (~pid << 3) | CPUCLOCK_SCHED.
    let clock = match pid {
        None => CLOCK_PROCESS_CPUTIME_ID,
        Some(pid) => ((!(pid as i64)) << 3 | 2) as u64,
    };
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: clock_gettime writes one timespec through a valid pointer.
    let ret = unsafe {
        syscalls::raw::syscall2(
            syscalls::nr::CLOCK_GETTIME,
            clock,
            &mut ts as *mut Timespec as u64,
        )
    };
    if ret != 0 {
        return 0;
    }
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Binds this thread — and every thread and process it starts from now
/// on — to the CPU it is running on, and returns that CPU.
pub fn pin_to_current_cpu() -> Result<usize, String> {
    let mut cpu = 0u32;
    // SAFETY: getcpu writes one u32 through a valid pointer; the other
    // two out-pointers may be null.
    let ret = unsafe {
        syscalls::raw::syscall3(syscalls::nr::GETCPU, &mut cpu as *mut u32 as u64, 0, 0)
    };
    if ret != 0 {
        return Err(format!("getcpu failed ({})", ret as i64));
    }
    // 1024 CPUs, the kernel's default `cpu_set_t`.
    let mut mask = [0u64; 16];
    let slot = mask
        .get_mut(cpu as usize / 64)
        .ok_or_else(|| format!("CPU {cpu} is beyond the affinity mask"))?;
    *slot = 1 << (cpu % 64);
    // SAFETY: sched_setaffinity reads `size_of_val(&mask)` bytes from a
    // live array; pid 0 is the calling thread.
    let ret = unsafe {
        syscalls::raw::syscall3(
            syscalls::nr::SCHED_SETAFFINITY,
            0,
            std::mem::size_of_val(&mask) as u64,
            mask.as_ptr() as u64,
        )
    };
    if ret != 0 {
        return Err(format!("sched_setaffinity to CPU {cpu} failed ({})", ret as i64));
    }
    Ok(cpu as usize)
}

/// Peak resident set (`VmHWM`) of a process in KiB; 0 if unreadable.
pub fn vm_hwm_kib(pid: Option<i32>) -> u64 {
    let path = match pid {
        None => "/proc/self/status".to_string(),
        Some(pid) => format!("/proc/{pid}/status"),
    };
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Resets a process's `VmHWM` to its current resident set, so the next
/// reading is the peak since now. Best effort: where the kernel refuses,
/// the readings are peaks since process start.
pub fn reset_vm_hwm(pid: Option<i32>) {
    let path = match pid {
        None => "/proc/self/clear_refs".to_string(),
        Some(pid) => format!("/proc/{pid}/clear_refs"),
    };
    let _ = std::fs::write(path, "5");
}

/// How a reaped child ended and what it cost.
#[derive(Clone, Copy, Debug)]
pub struct Reaped {
    pub exited_zero: bool,
    pub cpu_ns: u64,
    pub maxrss_kib: u64,
}

/// Waits for `pid` and returns its exit status and resource usage.
pub fn reap(pid: u32) -> io::Result<Reaped> {
    let mut status = 0i32;
    let mut ru = Rusage::default();
    // SAFETY: both out-pointers are valid for the call.
    let r = unsafe { wait4(pid as i32, &mut status, 0, &mut ru) };
    if r < 0 {
        return Err(io::Error::last_os_error());
    }
    let tv_ns = |t: Timeval| t.tv_sec as u64 * 1_000_000_000 + t.tv_usec as u64 * 1_000;
    Ok(Reaped {
        exited_zero: libc::WIFEXITED(status) && libc::WEXITSTATUS(status) == 0,
        cpu_ns: tv_ns(ru.ru_utime) + tv_ns(ru.ru_stime),
        maxrss_kib: ru.ru_maxrss as u64,
    })
}

/// A close-on-exec pipe as two `File`s (read end, write end).
pub fn pipe() -> io::Result<(std::fs::File, std::fs::File)> {
    use std::os::fd::FromRawFd;
    let mut fds = [0i32; 2];
    // SAFETY: plain pipe2 into a two-element array.
    if unsafe { libc::pipe2(fds.as_mut_ptr(), libc::O_CLOEXEC) } != 0 {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: fresh descriptors, each owned exactly once.
    unsafe {
        Ok((
            std::fs::File::from_raw_fd(fds[0]),
            std::fs::File::from_raw_fd(fds[1]),
        ))
    }
}

/// What a forked child sends back through its pipe: the numbers it
/// measured, or its error, as one line.
fn encode_report(report: Result<Vec<f64>, String>) -> String {
    match report {
        Ok(values) => {
            let words: Vec<String> = values.iter().map(f64::to_string).collect();
            format!("ok {}\n", words.join(" "))
        }
        Err(e) => format!("err {}\n", e.replace('\n', " ")),
    }
}

fn decode_report(line: &str) -> Result<Vec<f64>, String> {
    let line = line.trim_end_matches('\n');
    match line.split_once(' ').unwrap_or((line, "")) {
        ("ok", values) => values
            .split_whitespace()
            .map(|w| {
                w.parse::<f64>()
                    .map_err(|e| format!("forked child wrote {w:?}: {e}"))
            })
            .collect(),
        ("err", why) => Err(why.to_string()),
        _ => Err(format!("forked child died after writing {line:?}")),
    }
}

/// Runs `body` in a forked child and returns the numbers it measured
/// there (or its error). A child starts as a copy of a process in which
/// the engine has never initialised, which is the only place a cold
/// start can be timed more than once.
///
/// The caller must be single-threaded. The child leaves through
/// `_exit`: none of the parent's destructors (the run directory's
/// above all) run in it, and a panic does not unwind into the parent's
/// frames.
pub fn in_forked_child(
    body: impl FnOnce() -> Result<Vec<f64>, String>,
) -> Result<Vec<f64>, String> {
    use std::io::{Read, Write};
    let (mut rd, mut wr) = pipe().map_err(|e| format!("pipe: {e}"))?;
    // SAFETY: single-threaded caller, so the child may run ordinary
    // code; it never returns from this block.
    let pid = unsafe { libc::fork() };
    if pid < 0 {
        return Err(format!("fork: {}", io::Error::last_os_error()));
    }
    if pid == 0 {
        let report = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body))
            .unwrap_or_else(|_| Err("the child panicked".to_string()));
        let _ = wr.write_all(encode_report(report).as_bytes());
        // SAFETY: see the function docs.
        unsafe { libc::_exit(0) };
    }
    drop(wr);
    let mut line = String::new();
    let _ = rd.read_to_string(&mut line);
    // SAFETY: reaping our own child.
    unsafe { libc::waitpid(pid, std::ptr::null_mut(), 0) };
    decode_report(&line)
}

/// A forked copy of this process as it was when [`Zygote::spawn`] was
/// called, kept asleep to be forked again: [`Zygote::run`] runs the body
/// in a fresh copy of *that* moment, however much this process has
/// done since. The engine's state is process-global and one-way (page
/// zero stays mapped, rewritten sites stay rewritten), so once this
/// process has measured anything a fork of it no longer starts cold; a
/// fork of the zygote always does.
///
/// Same rules as [`in_forked_child`]: spawn from a single-threaded
/// process; nothing of the caller's is destroyed in the copies.
/// Dropping the handle ends the zygote and waits for it.
pub struct Zygote {
    pid: i32,
    request: std::fs::File,
    reply: io::BufReader<std::fs::File>,
}

impl Zygote {
    pub fn spawn(mut body: impl FnMut() -> Result<Vec<f64>, String>) -> Result<Zygote, String> {
        use std::io::{Read, Write};
        let (mut request_rd, request_wr) = pipe().map_err(|e| format!("pipe: {e}"))?;
        let (reply_rd, mut reply_wr) = pipe().map_err(|e| format!("pipe: {e}"))?;
        // SAFETY: single-threaded caller; the child never returns from
        // this block.
        let pid = unsafe { libc::fork() };
        if pid < 0 {
            return Err(format!("fork: {}", io::Error::last_os_error()));
        }
        if pid == 0 {
            drop(request_wr);
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut byte = [0u8; 1];
                // One byte in, one report out, until the parent hangs up.
                while matches!(request_rd.read(&mut byte), Ok(1)) {
                    let report = in_forked_child(&mut body);
                    if reply_wr.write_all(encode_report(report).as_bytes()).is_err() {
                        break;
                    }
                }
            }));
            // SAFETY: as in `in_forked_child`.
            unsafe { libc::_exit(0) };
        }
        Ok(Zygote {
            pid,
            request: request_wr,
            reply: io::BufReader::new(reply_rd),
        })
    }

    /// Runs the body once in a fresh copy of the zygote.
    pub fn run(&mut self) -> Result<Vec<f64>, String> {
        use std::io::{BufRead, Write};
        self.request
            .write_all(&[1])
            .map_err(|e| format!("asking the zygote: {e}"))?;
        let mut line = String::new();
        self.reply
            .read_line(&mut line)
            .map_err(|e| format!("reading the zygote's report: {e}"))?;
        decode_report(&line)
    }
}

impl Drop for Zygote {
    fn drop(&mut self) {
        // Killed, not hung up on: the zygote sleeps in `read` between
        // requests, and processes this one forked since (a server
        // child) hold copies of the request pipe, so closing ours need
        // not wake it. (Hanging up is what ends it should this process
        // die first.)
        // SAFETY: signalling and reaping our own child.
        unsafe {
            libc::kill(self.pid, libc::SIGKILL);
            libc::waitpid(self.pid, std::ptr::null_mut(), 0);
        }
    }
}

/// Removes every ambient knob of the suite, so nothing the caller
/// exported can change what is measured. Call before any thread exists.
pub fn scrub_environment() {
    let doomed: Vec<_> = std::env::vars_os()
        .map(|(k, _)| k)
        .filter(|k| {
            let k = k.to_string_lossy();
            k.starts_with("LP_") || k.starts_with("LAZYPOLINE_") || k == "LD_PRELOAD"
        })
        .collect();
    for k in doomed {
        std::env::remove_var(k);
    }
}

/// The one directory this process writes to: docroot, traces,
/// policies, the generated `ls` tree. It lives next to the running
/// binary (inside the build directory, hence inside the checkout), is
/// also exported as `TMPDIR` so `httpd::Docroot` lands in it, and is
/// removed on drop — `main` drops it on every exit path.
pub struct RunDir {
    path: PathBuf,
}

impl RunDir {
    pub fn create(artifacts: &Path) -> io::Result<RunDir> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let path = artifacts
            .join("lpbench-tmp")
            .join(format!("{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        std::env::set_var("TMPDIR", &path);
        Ok(RunDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    pub fn join(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// The release artifacts the workloads load at run time, as absolute
/// paths next to the running binary.
#[derive(Clone, Debug)]
pub struct Artifacts {
    pub dir: PathBuf,
    pub hook_openat: PathBuf,
    pub preload: PathBuf,
}

impl Artifacts {
    /// Fails (the caller exits non-zero — a missing artifact is never a
    /// skipped workload) when a library is not built.
    pub fn locate() -> Result<Artifacts, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let dir = exe
            .parent()
            .ok_or("the running binary has no parent directory")?
            .to_path_buf();
        let need = |name: &str| {
            let p = dir.join(name);
            if p.is_file() {
                Ok(p)
            } else {
                Err(format!(
                    "{} is missing: build the repository's release libraries first \
                     (lpbench/run.sh does)",
                    p.display()
                ))
            }
        };
        Ok(Artifacts {
            hook_openat: need("libhook_openat.so")?,
            preload: need("liblazypoline_preload.so")?,
            dir,
        })
    }
}

/// The host features every workload needs; an error is fatal.
pub fn check_host() -> Result<(), String> {
    if !sud::is_supported() {
        return Err("Syscall User Dispatch is unavailable on this kernel".into());
    }
    if !zpoline::Trampoline::environment_supported() {
        return Err(
            "page zero cannot be mapped (vm.mmap_min_addr > 0 without CAP_SYS_RAWIO)".into(),
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_and_other_pid_is_readable() {
        let a = process_cpu_ns(None);
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        let b = process_cpu_ns(None);
        assert!(b > a, "{a} -> {b}");
        assert!(process_cpu_ns(Some(std::process::id() as i32)) >= b);
    }

    #[test]
    fn zygote_copies_start_from_the_moment_of_spawn() {
        let mut calls = 0u32;
        let mut zygote = Zygote::spawn(|| {
            calls += 1;
            Ok(vec![f64::from(calls), 0.5])
        })
        .unwrap();
        // Each copy counts its first call: none sees another's.
        assert_eq!(zygote.run(), Ok(vec![1.0, 0.5]));
        assert_eq!(zygote.run(), Ok(vec![1.0, 0.5]));
        drop(zygote);
        let mut failing = Zygote::spawn(|| Err("two\nlines".to_string())).unwrap();
        assert_eq!(failing.run(), Err("two lines".to_string()));
    }

    #[test]
    fn vm_hwm_is_nonzero() {
        assert!(vm_hwm_kib(None) > 0);
        assert!(vm_hwm_kib(Some(std::process::id() as i32)) > 0);
    }

    #[test]
    #[allow(clippy::zombie_processes)] // `reap` is the wait
    fn reap_reports_exit_and_usage() {
        let child = std::process::Command::new("/bin/true").spawn().unwrap();
        let r = reap(child.id()).unwrap();
        assert!(r.exited_zero);
        assert!(r.maxrss_kib > 0);
    }
}
