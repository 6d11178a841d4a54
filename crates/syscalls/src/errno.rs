//! Kernel error numbers and the raw-return-value convention.
//!
//! Raw syscalls return a single `u64` in `rax`. Values in
//! `[-4095, -1]` (as a signed integer) encode `-errno`; everything else
//! is a success value. [`Errno::from_ret`] implements exactly that
//! decoding, which every interposer in the suite relies on.

use std::fmt;

/// A Linux error number (always positive, e.g. `Errno::ENOSYS` is 38).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Errno(i32);

macro_rules! errnos {
    ($(($name:ident, $num:expr, $desc:expr);)*) => {
        impl Errno {
            $(
                #[doc = concat!("`", stringify!($name), "` — ", $desc, ".")]
                pub const $name: Errno = Errno($num);
            )*

            fn desc(self) -> Option<&'static str> {
                match self.0 {
                    $( $num => Some($desc), )*
                    _ => None,
                }
            }

            fn const_name(self) -> Option<&'static str> {
                match self.0 {
                    $( $num => Some(stringify!($name)), )*
                    _ => None,
                }
            }
        }
    };
}

errnos! {
    (EPERM, 1, "operation not permitted");
    (ENOENT, 2, "no such file or directory");
    (ESRCH, 3, "no such process");
    (EINTR, 4, "interrupted system call");
    (EIO, 5, "input/output error");
    (ENXIO, 6, "no such device or address");
    (E2BIG, 7, "argument list too long");
    (ENOEXEC, 8, "exec format error");
    (EBADF, 9, "bad file descriptor");
    (ECHILD, 10, "no child processes");
    (EAGAIN, 11, "resource temporarily unavailable");
    (ENOMEM, 12, "cannot allocate memory");
    (EACCES, 13, "permission denied");
    (EFAULT, 14, "bad address");
    (EBUSY, 16, "device or resource busy");
    (EEXIST, 17, "file exists");
    (ENODEV, 19, "no such device");
    (ENOTDIR, 20, "not a directory");
    (EISDIR, 21, "is a directory");
    (EINVAL, 22, "invalid argument");
    (ENFILE, 23, "too many open files in system");
    (EMFILE, 24, "too many open files");
    (ENOTTY, 25, "inappropriate ioctl for device");
    (EFBIG, 27, "file too large");
    (ENOSPC, 28, "no space left on device");
    (ESPIPE, 29, "illegal seek");
    (EROFS, 30, "read-only file system");
    (EPIPE, 32, "broken pipe");
    (ERANGE, 34, "numerical result out of range");
    (ENOSYS, 38, "function not implemented");
    (ENOTEMPTY, 39, "directory not empty");
    (ELOOP, 40, "too many levels of symbolic links");
    (ENOTSOCK, 88, "socket operation on non-socket");
    (EADDRINUSE, 98, "address already in use");
    (ECONNRESET, 104, "connection reset by peer");
    (ENOTCONN, 107, "transport endpoint is not connected");
    (ETIMEDOUT, 110, "connection timed out");
    (ECONNREFUSED, 111, "connection refused");
    (EINPROGRESS, 115, "operation now in progress");
}

impl Errno {
    /// Largest errno value encodable in a raw syscall return.
    pub const MAX: i32 = 4095;

    /// Creates an errno from its positive number.
    ///
    /// # Panics
    ///
    /// Panics if `num` is not in `1..=4095`.
    pub fn new(num: i32) -> Errno {
        assert!(
            (1..=Self::MAX).contains(&num),
            "errno out of range: {num}"
        );
        Errno(num)
    }

    /// The positive error number.
    pub fn as_i32(self) -> i32 {
        self.0
    }

    /// Decodes a raw syscall return value: `Some(errno)` if `ret`
    /// encodes an error, `None` on success.
    pub fn from_ret(ret: u64) -> Option<Errno> {
        let s = ret as i64;
        if (-(Self::MAX as i64)..0).contains(&s) {
            Some(Errno(-s as i32))
        } else {
            None
        }
    }

    /// Encodes this errno as a raw syscall return value (`-errno`).
    pub fn as_ret(self) -> u64 {
        (-(self.0 as i64)) as u64
    }

    /// Converts a raw return value into `Result<u64, Errno>`.
    pub fn result(ret: u64) -> Result<u64, Errno> {
        match Self::from_ret(ret) {
            Some(e) => Err(e),
            None => Ok(ret),
        }
    }
}

impl From<Errno> for std::io::Error {
    fn from(e: Errno) -> std::io::Error {
        std::io::Error::from_raw_os_error(e.0)
    }
}

impl fmt::Debug for Errno {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.const_name() {
            Some(n) => write!(f, "{n}"),
            None => write!(f, "Errno({})", self.0),
        }
    }
}

impl fmt::Display for Errno {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.desc() {
            Some(d) => write!(f, "{d}"),
            None => write!(f, "unknown error {}", self.0),
        }
    }
}

impl std::error::Error for Errno {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_encoding() {
        for e in [Errno::EPERM, Errno::ENOSYS, Errno::EINVAL, Errno::new(4095)] {
            assert_eq!(Errno::from_ret(e.as_ret()), Some(e));
        }
    }

    #[test]
    fn success_values_are_not_errors() {
        assert_eq!(Errno::from_ret(0), None);
        assert_eq!(Errno::from_ret(42), None);
        // Large success values (e.g. mmap addresses) must not decode as errors.
        assert_eq!(Errno::from_ret(0x7fff_ffff_f000), None);
        // -4096 as u64 is a valid success value per the ABI.
        assert_eq!(Errno::from_ret((-4096i64) as u64), None);
    }

    #[test]
    fn boundary_values() {
        assert_eq!(Errno::from_ret((-1i64) as u64), Some(Errno::EPERM));
        assert_eq!(Errno::from_ret((-4095i64) as u64), Some(Errno::new(4095)));
    }

    #[test]
    fn result_helper() {
        assert_eq!(Errno::result(7), Ok(7));
        assert_eq!(Errno::result(Errno::EBADF.as_ret()), Err(Errno::EBADF));
    }

    #[test]
    fn display_and_debug() {
        assert_eq!(format!("{}", Errno::ENOSYS), "function not implemented");
        assert_eq!(format!("{:?}", Errno::ENOSYS), "ENOSYS");
        assert_eq!(format!("{:?}", Errno::new(200)), "Errno(200)");
        assert!(!format!("{}", Errno::new(200)).is_empty());
    }

    #[test]
    #[should_panic(expected = "errno out of range")]
    fn new_rejects_zero() {
        let _ = Errno::new(0);
    }
}
