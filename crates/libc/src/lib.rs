//! Vendored, minimal `libc` replacement for offline builds.
//!
//! The build environment has no access to crates.io, so this workspace
//! vendors the exact FFI surface it uses as a path dependency named
//! `libc`. Rust's `std` already links the platform C library, so every
//! `extern "C"` declaration below binds to the real glibc symbol; the
//! types and constants mirror the x86_64-unknown-linux-gnu definitions
//! of the upstream `libc` crate (and are checked against the kernel ABI
//! by this crate's tests where layout matters).
//!
//! **x86_64-linux-gnu only.** Items are added strictly on demand.

#![allow(non_camel_case_types)]
#![allow(clippy::missing_safety_doc)]

pub use core::ffi::c_void;

pub type c_char = i8;
pub type c_schar = i8;
pub type c_uchar = u8;
pub type c_short = i16;
pub type c_ushort = u16;
pub type c_int = i32;
pub type c_uint = u32;
pub type c_long = i64;
pub type c_ulong = u64;
pub type c_longlong = i64;
pub type c_ulonglong = u64;
pub type size_t = usize;
pub type ssize_t = isize;
pub type off_t = i64;
pub type pid_t = i32;
pub type mode_t = u32;
pub type socklen_t = u32;
pub type sa_family_t = u16;
pub type in_port_t = u16;
pub type in_addr_t = u32;
pub type greg_t = i64;
pub type sighandler_t = usize;

// ——— errno ———————————————————————————————————————————————————————————

pub const EPERM: c_int = 1;
pub const EINVAL: c_int = 22;
pub const ENOSYS: c_int = 38;
pub const ENOTCONN: c_int = 107;
pub const EINPROGRESS: c_int = 115;

// ——— memory protection / mmap ————————————————————————————————————————

pub const PROT_NONE: c_int = 0;
pub const PROT_READ: c_int = 1;
pub const PROT_WRITE: c_int = 2;
pub const PROT_EXEC: c_int = 4;

pub const MAP_PRIVATE: c_int = 0x0002;
pub const MAP_FIXED: c_int = 0x0010;
pub const MAP_ANONYMOUS: c_int = 0x0020;
pub const MAP_STACK: c_int = 0x0002_0000;
pub const MAP_FAILED: *mut c_void = !0 as *mut c_void;

// ——— open/fcntl ——————————————————————————————————————————————————————

pub const O_RDONLY: c_int = 0;
pub const O_CLOEXEC: c_int = 0x80000;
pub const F_DUPFD_CLOEXEC: c_int = 1030;

// ——— auxiliary vector ————————————————————————————————————————————————

pub const AT_PHDR: c_ulong = 3;
pub const AT_EXECFN: c_ulong = 31;
pub const AT_SYSINFO_EHDR: c_ulong = 33;

// ——— signals —————————————————————————————————————————————————————————

pub const SIGKILL: c_int = 9;
pub const SIGUSR1: c_int = 10;
pub const SIGSEGV: c_int = 11;
pub const SIGUSR2: c_int = 12;
pub const SIGTERM: c_int = 15;
pub const SIGCHLD: c_int = 17;
pub const SIGSTOP: c_int = 19;
pub const SIGSYS: c_int = 31;

pub const SA_SIGINFO: c_int = 4;
pub const SA_RESTART: c_int = 0x1000_0000;
pub const SA_RESETHAND: c_int = 0x8000_0000_u32 as c_int;

pub const SIG_BLOCK: c_int = 0;
pub const SIG_UNBLOCK: c_int = 1;
pub const SIG_SETMASK: c_int = 2;

/// glibc `sigset_t`: 1024 bits.
#[repr(C)]
#[derive(Clone, Copy)]
pub struct sigset_t {
    __val: [u64; 16],
}

#[repr(C)]
#[derive(Clone, Copy)]
pub struct sigaction {
    pub sa_sigaction: sighandler_t,
    pub sa_mask: sigset_t,
    pub sa_flags: c_int,
    pub sa_restorer: Option<unsafe extern "C" fn()>,
}

/// glibc `siginfo_t`: 128 bytes, 8-aligned; only the leading three
/// fields are named (the union tail is accessed by consumers through
/// their own `#[repr(C)]` casts, as the kernel ABI intends).
#[repr(C)]
#[derive(Clone, Copy)]
pub struct siginfo_t {
    pub si_signo: c_int,
    pub si_errno: c_int,
    pub si_code: c_int,
    _pad: [c_int; 29],
    _align: [u64; 0],
}

#[repr(C)]
#[derive(Clone, Copy)]
pub struct stack_t {
    pub ss_sp: *mut c_void,
    pub ss_flags: c_int,
    pub ss_size: size_t,
}

// mcontext gregs indices (glibc <sys/ucontext.h>).
pub const REG_R8: c_int = 0;
pub const REG_R9: c_int = 1;
pub const REG_R10: c_int = 2;
pub const REG_R11: c_int = 3;
pub const REG_R12: c_int = 4;
pub const REG_R13: c_int = 5;
pub const REG_R14: c_int = 6;
pub const REG_R15: c_int = 7;
pub const REG_RDI: c_int = 8;
pub const REG_RSI: c_int = 9;
pub const REG_RBP: c_int = 10;
pub const REG_RBX: c_int = 11;
pub const REG_RDX: c_int = 12;
pub const REG_RAX: c_int = 13;
pub const REG_RCX: c_int = 14;
pub const REG_RSP: c_int = 15;
pub const REG_RIP: c_int = 16;
pub const REG_EFL: c_int = 17;

#[repr(C)]
#[derive(Clone, Copy)]
pub struct mcontext_t {
    pub gregs: [greg_t; 23],
    pub fpregs: *mut c_void,
    __reserved1: [u64; 8],
}

#[repr(C)]
#[derive(Clone, Copy)]
pub struct ucontext_t {
    pub uc_flags: c_ulong,
    pub uc_link: *mut ucontext_t,
    pub uc_stack: stack_t,
    pub uc_mcontext: mcontext_t,
    pub uc_sigmask: sigset_t,
    __fpregs_mem: [u64; 64],
    __ssp: [u64; 4],
}

// ——— clone flags —————————————————————————————————————————————————————

pub const CLONE_VM: c_int = 0x100;
pub const CLONE_FS: c_int = 0x200;
pub const CLONE_FILES: c_int = 0x400;
pub const CLONE_SIGHAND: c_int = 0x800;
pub const CLONE_THREAD: c_int = 0x10000;
pub const CLONE_SETTLS: c_int = 0x80000;

// ——— sockets —————————————————————————————————————————————————————————

pub const AF_INET: c_int = 2;
pub const SOCK_STREAM: c_int = 1;
pub const SOCK_NONBLOCK: c_int = 0x800;
pub const SOL_SOCKET: c_int = 1;
pub const SO_REUSEADDR: c_int = 2;
pub const SO_RCVBUF: c_int = 8;
pub const SO_REUSEPORT: c_int = 15;
pub const IPPROTO_TCP: c_int = 6;
pub const TCP_NODELAY: c_int = 1;

#[repr(C)]
#[derive(Clone, Copy)]
pub struct in_addr {
    pub s_addr: in_addr_t,
}

#[repr(C)]
#[derive(Clone, Copy)]
pub struct sockaddr {
    pub sa_family: sa_family_t,
    pub sa_data: [c_char; 14],
}

#[repr(C)]
#[derive(Clone, Copy)]
pub struct sockaddr_in {
    pub sin_family: sa_family_t,
    pub sin_port: in_port_t,
    pub sin_addr: in_addr,
    pub sin_zero: [u8; 8],
}

// ——— epoll ———————————————————————————————————————————————————————————

pub const EPOLLIN: c_int = 0x1;
pub const EPOLLOUT: c_int = 0x4;
pub const EPOLLERR: c_int = 0x8;
pub const EPOLLHUP: c_int = 0x10;
/// Edge-triggered (kernel bit 31; negative as a `c_int`, exactly like
/// upstream libc's value).
pub const EPOLLET: c_int = 0x8000_0000_u32 as c_int;

pub const EPOLL_CTL_ADD: c_int = 1;
pub const EPOLL_CTL_DEL: c_int = 2;
pub const EPOLL_CTL_MOD: c_int = 3;

// ——— eventfd —————————————————————————————————————————————————————————

pub const EFD_CLOEXEC: c_int = 0x80000;
pub const EFD_NONBLOCK: c_int = 0x800;

/// One CPUID leaf as glibc recorded it: `eax`, `ebx`, `ecx`, `edx`.
#[repr(C)]
#[derive(Clone, Copy, Debug)]
pub struct cpuid_feature {
    pub cpuid_array: [c_uint; 4],
    pub active_array: [c_uint; 4],
}

/// Index of CPUID.(EAX=07H, ECX=0) for `__x86_get_cpuid_feature_leaf`.
pub const CPUID_INDEX_7: c_uint = 1;
/// Index of CPUID.(EAX=0DH, ECX=1) for `__x86_get_cpuid_feature_leaf`.
pub const CPUID_INDEX_D_ECX_1: c_uint = 3;

/// Packed on x86-64, matching the kernel's `__attribute__((packed))`.
#[repr(C, packed)]
#[derive(Clone, Copy)]
pub struct epoll_event {
    pub events: u32,
    pub u64: u64,
}

// ——— dynamic loader ——————————————————————————————————————————————————

pub const RTLD_LAZY: c_int = 0x0001;
pub const RTLD_NOW: c_int = 0x0002;
pub const RTLD_LOCAL: c_int = 0;
pub const RTLD_GLOBAL: c_int = 0x0100;

// ——— wait status macros ——————————————————————————————————————————————

#[allow(non_snake_case)]
pub fn WIFEXITED(status: c_int) -> bool {
    (status & 0x7f) == 0
}

#[allow(non_snake_case)]
pub fn WEXITSTATUS(status: c_int) -> c_int {
    (status >> 8) & 0xff
}

// ——— functions (bound to glibc, which std already links) —————————————

extern "C" {
    pub fn _exit(status: c_int) -> !;
    pub fn atexit(cb: extern "C" fn()) -> c_int;
    pub fn getpid() -> pid_t;
    pub fn fork() -> pid_t;
    pub fn waitpid(pid: pid_t, status: *mut c_int, options: c_int) -> pid_t;
    pub fn kill(pid: pid_t, sig: c_int) -> c_int;
    pub fn raise(sig: c_int) -> c_int;
    pub fn setpgid(pid: pid_t, pgid: pid_t) -> c_int;

    pub fn read(fd: c_int, buf: *mut c_void, count: size_t) -> ssize_t;
    pub fn write(fd: c_int, buf: *const c_void, count: size_t) -> ssize_t;
    pub fn close(fd: c_int) -> c_int;
    pub fn pipe2(fds: *mut c_int, flags: c_int) -> c_int;
    pub fn fcntl(fd: c_int, cmd: c_int, ...) -> c_int;
    pub fn getauxval(kind: c_ulong) -> c_ulong;

    pub fn mmap(
        addr: *mut c_void,
        len: size_t,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: off_t,
    ) -> *mut c_void;
    pub fn munmap(addr: *mut c_void, len: size_t) -> c_int;
    pub fn mprotect(addr: *mut c_void, len: size_t, prot: c_int) -> c_int;
    pub fn memcpy(dest: *mut c_void, src: *const c_void, n: size_t) -> *mut c_void;

    pub fn prctl(option: c_int, ...) -> c_int;

    pub fn sigaction(signum: c_int, act: *const sigaction, oldact: *mut sigaction) -> c_int;
    pub fn sigemptyset(set: *mut sigset_t) -> c_int;
    pub fn sigfillset(set: *mut sigset_t) -> c_int;
    pub fn sigismember(set: *const sigset_t, sig: c_int) -> c_int;
    pub fn pthread_sigmask(how: c_int, set: *const sigset_t, oldset: *mut sigset_t) -> c_int;

    pub fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
    pub fn connect(fd: c_int, addr: *const sockaddr, addrlen: socklen_t) -> c_int;
    pub fn bind(fd: c_int, addr: *const sockaddr, addrlen: socklen_t) -> c_int;
    pub fn listen(fd: c_int, backlog: c_int) -> c_int;
    pub fn accept4(
        fd: c_int,
        addr: *mut sockaddr,
        addrlen: *mut socklen_t,
        flags: c_int,
    ) -> c_int;
    pub fn setsockopt(
        fd: c_int,
        level: c_int,
        optname: c_int,
        optval: *const c_void,
        optlen: socklen_t,
    ) -> c_int;

    pub fn eventfd(initval: c_uint, flags: c_int) -> c_int;

    // Dynamic loader (in libc.so.6 since glibc 2.34; no -ldl needed).
    pub fn dlopen(filename: *const c_char, flags: c_int) -> *mut c_void;
    pub fn dlsym(handle: *mut c_void, symbol: *const c_char) -> *mut c_void;
    pub fn dlclose(handle: *mut c_void) -> c_int;
    pub fn dlerror() -> *mut c_char;

    // <sys/platform/x86.h> (glibc 2.33): the CPUID leaves ld.so read at
    // start-up. Never null; an unknown index yields an all-zero entry.
    pub fn __x86_get_cpuid_feature_leaf(index: c_uint) -> *const cpuid_feature;

    pub fn epoll_create1(flags: c_int) -> c_int;
    pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut epoll_event) -> c_int;
    pub fn epoll_wait(
        epfd: c_int,
        events: *mut epoll_event,
        maxevents: c_int,
        timeout: c_int,
    ) -> c_int;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abi_critical_layouts() {
        // Kernel/glibc ABI sizes this shim must not get wrong.
        assert_eq!(core::mem::size_of::<sigset_t>(), 128);
        assert_eq!(core::mem::size_of::<siginfo_t>(), 128);
        assert_eq!(core::mem::align_of::<siginfo_t>(), 8);
        assert_eq!(core::mem::size_of::<epoll_event>(), 12);
        assert_eq!(core::mem::size_of::<sockaddr_in>(), 16);
        assert_eq!(core::mem::size_of::<mcontext_t>(), 256);
        // gregs start 40 bytes into ucontext_t (flags + link + stack).
        assert_eq!(core::mem::offset_of!(ucontext_t, uc_mcontext), 40);
        assert_eq!(core::mem::size_of::<ucontext_t>(), 968);
    }

    #[test]
    fn live_symbols_resolve() {
        unsafe {
            assert_eq!(getpid() as u32, std::process::id());
            let mut set = core::mem::zeroed::<sigset_t>();
            sigemptyset(&mut set);
            assert_eq!(sigismember(&set, SIGUSR1), 0);
            sigfillset(&mut set);
            assert_eq!(sigismember(&set, SIGUSR1), 1);
        }
    }
}
