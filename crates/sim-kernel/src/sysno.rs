//! Simulated syscall numbers and error codes.
//!
//! The number space mirrors x86-64 Linux. These are the fourteen calls
//! Table III's guest programs make; any other number returns `ENOSYS`.

/// `read(fd, buf, len)`.
pub const READ: u64 = 0;
/// `write(fd, buf, len)`.
pub const WRITE: u64 = 1;
/// `open(path_ptr, path_len, flags)` (simplified: length-counted path).
pub const OPEN: u64 = 2;
/// `close(fd)`.
pub const CLOSE: u64 = 3;
/// `mmap(addr, len)`: maps at `addr` (rounded down to a page), as with
/// `MAP_FIXED`.
pub const MMAP: u64 = 9;
/// `getdents(fd, buf, len)` — simplified directory listing.
pub const GETDENTS: u64 = 78;
/// `rename(old_ptr, old_len, new_ptr, new_len)`.
pub const RENAME: u64 = 82;
/// `mkdir(path_ptr, path_len)`.
pub const MKDIR: u64 = 83;
/// `chmod(path_ptr, path_len, mode)`.
pub const CHMOD: u64 = 90;
/// `set_tid_address(ptr)`.
pub const SET_TID_ADDRESS: u64 = 218;
/// `exit_group(code)`.
pub const EXIT_GROUP: u64 = 231;
/// `unlink(path_ptr, path_len)`.
pub const UNLINK: u64 = 263;
/// `set_robust_list(ptr, len)`.
pub const SET_ROBUST_LIST: u64 = 273;
/// `getrandom(buf, len)`.
pub const GETRANDOM: u64 = 318;

/// Error numbers (positive values; returns encode as `-errno`).
pub mod errno {
    /// No such file or directory.
    pub const ENOENT: u64 = 2;
    /// Bad file descriptor.
    pub const EBADF: u64 = 9;
    /// Bad address.
    pub const EFAULT: u64 = 14;
    /// Invalid argument.
    pub const EINVAL: u64 = 22;
    /// Function not implemented.
    pub const ENOSYS: u64 = 38;

    /// Encodes `-errno` as a raw return value.
    pub fn ret(e: u64) -> u64 {
        (-(e as i64)) as u64
    }

    /// Decodes a raw return into `Some(errno)`.
    pub fn from_ret(v: u64) -> Option<u64> {
        let s = v as i64;
        if (-4095..0).contains(&s) {
            Some(-s as u64)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_mirror_x86_64() {
        assert_eq!(READ, 0);
        assert_eq!(WRITE, 1);
        assert_eq!(SET_TID_ADDRESS, 218);
        assert_eq!(GETRANDOM, 318);
    }

    #[test]
    fn errno_roundtrip() {
        assert_eq!(errno::from_ret(errno::ret(errno::ENOSYS)), Some(38));
        assert_eq!(errno::from_ret(0), None);
        assert_eq!(errno::from_ret(12345), None);
    }
}
