//! The native guest: one fixed window of syscalls that the §V-A
//! experiment, `lp-trace`, `strace_lite` and the record/replay and
//! SFIP tests all run.
//!
//! [`window`] calls libc `getpid`, maps a fresh RWX page, writes a
//! function holding `syscall` into it and calls it, then calls libc
//! `getpid` again: [`WINDOW`], in that order. The page's `syscall` did
//! not exist when the process started, so no scan made before it could
//! have seen it: the paper's tcc JIT, reduced to one page. [`escape`]
//! is the same window with the page's call corrupted to `getuid`, the
//! flow violation an SFIP policy learned from [`window`] flags.
//!
//! The window allocates nothing and prints nothing, so a recording of
//! it holds these four calls and a replay of it consumes them all.

use syscalls::nr;

/// What [`window`] issues, in order.
pub const WINDOW: [&str; 4] = ["getpid", "mmap", "getpid", "getpid"];

/// The index in [`WINDOW`] of the call the runtime-emitted page makes.
pub const JIT_CALL: usize = 2;

/// libc `getpid`; a fresh RWX page holding `mov eax, 39; syscall;
/// ret`, called once; libc `getpid` again.
pub fn window() {
    run(nr::GETPID);
}

/// [`window`] with the page's call replaced by `getuid`: the same
/// image, the same number of calls, a different flow.
pub fn escape() {
    run(nr::GETUID);
}

fn run(jitted: u64) {
    let low = u8::try_from(jitted).expect("a one-byte syscall number");
    let code: [u8; 8] = [0xb8, low, 0, 0, 0, 0x0f, 0x05, 0xc3];
    // SAFETY: `getpid` takes nothing. The mapping is fresh, private and
    // anonymous; the copy stays inside it, and the bytes are a whole
    // function of the C ABI that clobbers only `rax`, `rcx` and `r11`.
    unsafe {
        let pid = libc::getpid();
        let page = libc::mmap(
            std::ptr::null_mut(),
            4096,
            libc::PROT_READ | libc::PROT_WRITE | libc::PROT_EXEC,
            libc::MAP_PRIVATE | libc::MAP_ANONYMOUS,
            -1,
            0,
        );
        assert_ne!(page, libc::MAP_FAILED, "an RWX page");
        std::ptr::copy_nonoverlapping(code.as_ptr(), page.cast(), code.len());
        let jit: extern "C" fn() -> u64 = std::mem::transmute(page);
        let ret = jit();
        if jitted == nr::GETPID {
            assert_eq!(ret, pid as u64);
        }
        assert_eq!(libc::getpid(), pid);
    }
}
