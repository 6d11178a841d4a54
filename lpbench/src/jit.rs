//! The code the in-process workloads execute, emitted onto private
//! RWX pages.
//!
//! Every workload runs identical machine code on two *separate* pages:
//! one is only ever executed un-interposed (the `none` side), one only
//! under the mechanism. Rewriting is page-granular and one-way — a
//! rewritten site keeps dispatching after teardown — so sites in the
//! benchmark's own text (or two sides sharing a page) would leak the
//! mechanism into the baseline.

use std::io;

const PAGE: usize = 4096;

/// Spacing of the stubs on a page; `ret`-filled gaps keep a linear
/// sweep synchronized, as on a real JIT page.
pub const STUB_STRIDE: usize = 64;

/// Anonymous RWX pages, `ret`-filled, unmapped on drop.
pub struct CodePage {
    base: *mut u8,
    len: usize,
}

impl CodePage {
    pub fn new(pages: usize) -> io::Result<CodePage> {
        let len = pages * PAGE;
        // SAFETY: a fresh anonymous private mapping.
        let p = unsafe {
            libc::mmap(
                std::ptr::null_mut(),
                len,
                libc::PROT_READ | libc::PROT_WRITE | libc::PROT_EXEC,
                libc::MAP_PRIVATE | libc::MAP_ANONYMOUS,
                -1,
                0,
            )
        };
        if p == libc::MAP_FAILED {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: the mapping is `len` writable bytes.
        unsafe { std::ptr::write_bytes(p as *mut u8, 0xc3, len) };
        Ok(CodePage {
            base: p as *mut u8,
            len,
        })
    }

    /// Copies `code` to byte offset `at`.
    pub fn emit(&mut self, at: usize, code: &[u8]) {
        assert!(at + code.len() <= self.len, "code runs off the page");
        // SAFETY: bounds checked above; the page is writable and ours.
        unsafe { std::ptr::copy_nonoverlapping(code.as_ptr(), self.base.add(at), code.len()) };
    }

    pub fn addr(&self, at: usize) -> usize {
        assert!(at < self.len);
        self.base as usize + at
    }

    pub fn contains(&self, addr: u64) -> bool {
        let base = self.base as u64;
        (base..=base + self.len as u64).contains(&addr)
    }
}

impl Drop for CodePage {
    fn drop(&mut self) {
        // SAFETY: unmapping the mapping `new` created.
        unsafe { libc::munmap(self.base as *mut libc::c_void, self.len) };
    }
}

/// `fn(iters) -> sum of return values`: Table II's loop — syscall 500
/// from one site — with the returns accumulated in `rdx`, a register
/// the syscall ABI (and therefore any transparent interposer) must
/// preserve, so one compare after the loop checks every return value.
///
/// ```text
///     xor  edx, edx
/// l:  mov  eax, 500
///     syscall
///     add  rdx, rax
///     dec  rdi
///     jnz  l
///     mov  rax, rdx
///     ret
/// ```
pub const SYSCALL_LOOP: [u8; 21] = [
    0x31, 0xd2, // xor edx, edx
    0xb8, 0xf4, 0x01, 0x00, 0x00, // mov eax, 500
    0x0f, 0x05, // syscall
    0x48, 0x01, 0xc2, // add rdx, rax
    0x48, 0xff, 0xcf, // dec rdi
    0x75, 0xf1, // jnz l
    0x48, 0x89, 0xd0, // mov rax, rdx
    0xc3, // ret
];

/// The same loop for classic selector-only SUD, whose handler returns
/// with the selector at ALLOW: `rsi` points at the selector byte and
/// every iteration re-arms BLOCK first, as the classic deployment does.
pub const SUD_REARM_LOOP: [u8; 24] = [
    0x31, 0xd2, // xor edx, edx
    0xc6, 0x06, 0x01, // l: mov byte ptr [rsi], 1
    0xb8, 0xf4, 0x01, 0x00, 0x00, // mov eax, 500
    0x0f, 0x05, // syscall
    0x48, 0x01, 0xc2, // add rdx, rax
    0x48, 0xff, 0xcf, // dec rdi
    0x75, 0xee, // jnz l
    0x48, 0x89, 0xd0, // mov rax, rdx
    0xc3, // ret
];

/// `fn(nr, a1, a2, a3) -> ret`: one syscall site taking its number and
/// arguments from the caller.
pub const SYSCALL_STUB: [u8; 15] = [
    0x48, 0x89, 0xf8, // mov rax, rdi
    0x48, 0x89, 0xf7, // mov rdi, rsi
    0x48, 0x89, 0xd6, // mov rsi, rdx
    0x48, 0x89, 0xca, // mov rdx, rcx
    0x0f, 0x05, // syscall
    0xc3, // ret
];

/// `fn() -> pid`: the fixed-number stub `site_churn` fills pages with.
pub const GETPID_STUB: [u8; 8] = [
    0xb8, 0x27, 0x00, 0x00, 0x00, // mov eax, 39 (getpid)
    0x0f, 0x05, // syscall
    0xc3, // ret
];

pub type LoopFn = unsafe extern "C" fn(iters: u64, selector: *mut u8) -> u64;
pub type StubFn = unsafe extern "C" fn(nr: u64, a1: u64, a2: u64, a3: u64) -> u64;
pub type NullaryFn = unsafe extern "C" fn() -> u64;

/// A page holding one loop; `call(n)` runs `n` iterations.
pub struct LoopPage {
    page: CodePage,
}

impl LoopPage {
    pub fn new(code: &[u8]) -> io::Result<LoopPage> {
        let mut page = CodePage::new(1)?;
        page.emit(0, code);
        Ok(LoopPage { page })
    }

    /// Runs the loop; `selector` is ignored by [`SYSCALL_LOOP`].
    pub fn call(&self, iters: u64, selector: *mut u8) -> u64 {
        assert!(iters > 0, "the loop tests its counter after the body");
        // SAFETY: the page holds one of the loops above, which follow
        // the C ABI and touch only registers (and the selector byte).
        unsafe { std::mem::transmute::<usize, LoopFn>(self.page.addr(0))(iters, selector) }
    }
}

/// What `iters` iterations of a syscall-500 loop must sum to.
pub fn enosys_sum(iters: u64) -> u64 {
    iters.wrapping_mul((-(libc::ENOSYS as i64)) as u64)
}

/// A page of `n` generic stubs at [`STUB_STRIDE`] spacing.
pub struct StubPage {
    page: CodePage,
    n: usize,
}

impl StubPage {
    pub fn new(n: usize) -> io::Result<StubPage> {
        assert!(n * STUB_STRIDE <= PAGE);
        let mut page = CodePage::new(1)?;
        for i in 0..n {
            page.emit(i * STUB_STRIDE, &SYSCALL_STUB);
        }
        Ok(StubPage { page, n })
    }

    pub fn stub(&self, i: usize) -> StubFn {
        assert!(i < self.n);
        // SAFETY: offset `i * STUB_STRIDE` holds SYSCALL_STUB.
        unsafe { std::mem::transmute::<usize, StubFn>(self.page.addr(i * STUB_STRIDE)) }
    }

    pub fn contains(&self, addr: u64) -> bool {
        self.page.contains(addr)
    }
}

/// A fresh page of `sites` getpid stubs; running it executes every
/// site once, in address order (so under batch rewriting the first
/// `SIGSYS` anchors a sweep over all the others).
pub struct ChurnPage {
    page: CodePage,
    sites: usize,
}

impl ChurnPage {
    pub fn new(sites: usize) -> io::Result<ChurnPage> {
        assert!(sites * STUB_STRIDE <= PAGE);
        let mut page = CodePage::new(1)?;
        for i in 0..sites {
            page.emit(i * STUB_STRIDE, &GETPID_STUB);
        }
        Ok(ChurnPage { page, sites })
    }

    /// Calls every site; returns how many returned something other
    /// than `pid`.
    pub fn run(&self, pid: u64) -> u64 {
        let mut wrong = 0;
        for i in 0..self.sites {
            // SAFETY: offset `i * STUB_STRIDE` holds GETPID_STUB.
            let f =
                unsafe { std::mem::transmute::<usize, NullaryFn>(self.page.addr(i * STUB_STRIDE)) };
            // SAFETY: the stub follows the C ABI and takes no arguments.
            wrong += u64::from(unsafe { f() } != pid);
        }
        wrong
    }

    pub fn bytes(&self) -> &[u8] {
        // SAFETY: the page is PAGE readable bytes for self's lifetime.
        unsafe { std::slice::from_raw_parts(self.page.addr(0) as *const u8, PAGE) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loop_returns_the_sum_of_enosys() {
        let page = LoopPage::new(&SYSCALL_LOOP).unwrap();
        assert_eq!(page.call(1, std::ptr::null_mut()), enosys_sum(1));
        assert_eq!(page.call(1000, std::ptr::null_mut()), enosys_sum(1000));
    }

    #[test]
    fn rearm_loop_stores_block_and_sums() {
        let page = LoopPage::new(&SUD_REARM_LOOP).unwrap();
        let mut selector = 0u8;
        assert_eq!(page.call(10, &mut selector), enosys_sum(10));
        assert_eq!(selector, 1);
    }

    #[test]
    fn stubs_pass_number_and_arguments() {
        let page = StubPage::new(8).unwrap();
        let pid = std::process::id() as u64;
        // SAFETY: getpid takes no arguments.
        assert_eq!(unsafe { page.stub(7)(syscalls::nr::GETPID, 0, 0, 0) }, pid);
        let mut byte = 0xffu8;
        let zero = std::fs::File::open("/dev/zero").unwrap();
        use std::os::fd::AsRawFd;
        // SAFETY: read of one byte into a live buffer.
        let n = unsafe {
            page.stub(0)(
                syscalls::nr::READ,
                zero.as_raw_fd() as u64,
                &mut byte as *mut u8 as u64,
                1,
            )
        };
        assert_eq!((n, byte), (1, 0));
        assert!(page.contains(page.stub(3) as usize as u64 + 14));
    }

    #[test]
    fn churn_page_sites_decode_and_return_pid() {
        let page = ChurnPage::new(16).unwrap();
        assert_eq!(page.run(std::process::id() as u64), 0);
        assert_eq!(page.run(0), 16);
        let found = zpoline::find_syscall_sites(0, page.bytes());
        assert_eq!(found.sites.len(), 16);
        assert_eq!(found.unknown_bytes, 0);
    }
}
