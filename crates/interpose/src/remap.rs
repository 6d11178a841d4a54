//! Path remapping: the *deep argument inspection* capability.
//!
//! The paper's Table I separates mechanisms by expressiveness, and the
//! concrete line it draws is pointer dereference: "BPF … does not
//! allow simple operations such as dereferencing pointers" (§II-A).
//! This handler dereferences the `openat`/`open`/`stat` path pointer in
//! the interposed process's memory, compares it against a rule table,
//! and — on a match — substitutes a pointer to the replacement path,
//! transparently redirecting the file the application opens.
//!
//! The replacement pointer must stay valid until the syscall executes;
//! a per-thread buffer provides that without allocation in the hot
//! path.

use std::cell::RefCell;

use crate::{Action, InterestSet, SyscallEvent, SyscallHandler};
use syscalls::nr;

/// Maximum path length the handler will inspect.
pub const MAX_PATH: usize = 512;

/// Redirects file paths at the syscall boundary.
///
/// ```rust
/// use lp_interpose::PathRemapHandler;
///
/// let remap = PathRemapHandler::new()
///     .rule("/etc/hostname", "/tmp/fake-hostname");
/// ```
pub struct PathRemapHandler {
    rules: Vec<(Vec<u8>, Vec<u8>)>,
}

thread_local! {
    /// Replacement-path storage: must outlive the handler call, until
    /// the dispatcher has executed the rewritten syscall.
    static REPLACEMENT: RefCell<[u8; MAX_PATH]> = const { RefCell::new([0; MAX_PATH]) };
}

impl PathRemapHandler {
    /// An empty remapper (passes everything through).
    pub fn new() -> PathRemapHandler {
        PathRemapHandler { rules: Vec::new() }
    }

    /// Adds a `from` → `to` rule (exact path match).
    ///
    /// # Panics
    ///
    /// Panics if `to` exceeds [`MAX_PATH`] - 1 bytes.
    pub fn rule(mut self, from: &str, to: &str) -> PathRemapHandler {
        assert!(to.len() < MAX_PATH, "replacement path too long");
        self.rules
            .push((from.as_bytes().to_vec(), to.as_bytes().to_vec()));
        self
    }

    /// Number of rules installed.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether no rules are installed.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Reads the NUL-terminated path at `ptr` (up to [`MAX_PATH`]).
    ///
    /// # Safety
    ///
    /// In-process interposition: `ptr` came out of the application's
    /// own registers and is dereferenced in the same address space, the
    /// same way the kernel would have. A wild pointer would have
    /// faulted in the kernel too; here it faults in the handler —
    /// acceptable for an in-process interposer, mirroring the C
    /// prototype. Reads stop at the first NUL or at `MAX_PATH`.
    unsafe fn read_path(ptr: u64) -> Option<Vec<u8>> {
        if ptr == 0 {
            return None;
        }
        let mut out = Vec::with_capacity(64);
        for i in 0..MAX_PATH {
            let b = *(ptr as *const u8).add(i);
            if b == 0 {
                return Some(out);
            }
            out.push(b);
        }
        None // unterminated within bounds: leave it alone
    }

    fn path_arg_index(nr_: u64) -> Option<usize> {
        match nr_ {
            nr::OPEN | nr::STAT | nr::LSTAT | nr::ACCESS | nr::READLINK | nr::CHMOD
            | nr::UNLINK | nr::TRUNCATE => Some(0),
            nr::OPENAT | nr::NEWFSTATAT | nr::UNLINKAT | nr::READLINKAT | nr::FACCESSAT
            | nr::FCHMODAT | nr::MKDIRAT | nr::STATX => Some(1),
            _ => None,
        }
    }
}

impl Default for PathRemapHandler {
    fn default() -> PathRemapHandler {
        PathRemapHandler::new()
    }
}

impl std::fmt::Debug for PathRemapHandler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PathRemapHandler({} rules)", self.rules.len())
    }
}

impl SyscallHandler for PathRemapHandler {
    fn handle(&self, event: &mut SyscallEvent) -> Action {
        if self.rules.is_empty() {
            return Action::Passthrough;
        }
        let Some(idx) = Self::path_arg_index(event.call.nr) else {
            return Action::Passthrough;
        };
        // SAFETY: see read_path.
        let Some(path) = (unsafe { Self::read_path(event.call.args[idx]) }) else {
            return Action::Passthrough;
        };
        for (from, to) in &self.rules {
            if &path == from {
                let new_ptr = REPLACEMENT.with(|buf| {
                    let mut buf = buf.borrow_mut();
                    buf[..to.len()].copy_from_slice(to);
                    buf[to.len()] = 0;
                    buf.as_ptr() as u64
                });
                event.call.args[idx] = new_ptr;
                break;
            }
        }
        Action::Passthrough
    }

    fn name(&self) -> &str {
        "path-remap"
    }

    fn leaves_fp_env(&self) -> bool {
        true
    }

    /// Exactly the path-carrying syscalls `Self::path_arg_index`
    /// recognizes; an empty rule table never needs a call at all.
    fn interest(&self) -> InterestSet {
        if self.rules.is_empty() {
            return InterestSet::none();
        }
        InterestSet::of(&[
            nr::OPEN,
            nr::STAT,
            nr::LSTAT,
            nr::ACCESS,
            nr::READLINK,
            nr::CHMOD,
            nr::UNLINK,
            nr::TRUNCATE,
            nr::OPENAT,
            nr::NEWFSTATAT,
            nr::UNLINKAT,
            nr::READLINKAT,
            nr::FACCESSAT,
            nr::FCHMODAT,
            nr::MKDIRAT,
            nr::STATX,
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syscalls::SyscallArgs;

    fn ev(nr_: u64, path: &std::ffi::CString, arg_idx: usize) -> SyscallEvent {
        let mut args = [0u64; 6];
        args[arg_idx] = path.as_ptr() as u64;
        SyscallEvent::new(SyscallArgs::new(nr_, args))
    }

    #[test]
    fn remaps_matching_open_path() {
        let h = PathRemapHandler::new().rule("/etc/hostname", "/tmp/other");
        let p = std::ffi::CString::new("/etc/hostname").unwrap();
        let mut e = ev(nr::OPENAT, &p, 1);
        assert_eq!(h.handle(&mut e), Action::Passthrough);
        assert_ne!(e.call.args[1], p.as_ptr() as u64, "pointer not swapped");
        // The substituted pointer reads back the replacement.
        // SAFETY: the handler's NUL-terminated thread-local buffer.
        let got = unsafe { std::ffi::CStr::from_ptr(e.call.args[1] as *const i8) };
        assert_eq!(got.to_str().unwrap(), "/tmp/other");
    }

    #[test]
    fn non_matching_paths_untouched() {
        let h = PathRemapHandler::new().rule("/etc/hostname", "/tmp/other");
        let p = std::ffi::CString::new("/etc/passwd").unwrap();
        let mut e = ev(nr::OPEN, &p, 0);
        h.handle(&mut e);
        assert_eq!(e.call.args[0], p.as_ptr() as u64);
    }

    #[test]
    fn non_path_syscalls_untouched() {
        let h = PathRemapHandler::new().rule("/a", "/b");
        let mut e = SyscallEvent::new(SyscallArgs::new(nr::READ, [3, 0x1000, 10, 0, 0, 0]));
        h.handle(&mut e);
        assert_eq!(e.call.args[1], 0x1000);
    }

    #[test]
    fn null_pointer_is_safe() {
        let h = PathRemapHandler::new().rule("/a", "/b");
        let mut e = SyscallEvent::new(SyscallArgs::new(nr::OPEN, [0, 0, 0, 0, 0, 0]));
        assert_eq!(h.handle(&mut e), Action::Passthrough);
    }

    #[test]
    fn empty_handler_is_inert() {
        let h = PathRemapHandler::new();
        assert!(h.is_empty());
        assert_eq!(h.len(), 0);
        let p = std::ffi::CString::new("/x").unwrap();
        let mut e = ev(nr::OPEN, &p, 0);
        h.handle(&mut e);
        assert_eq!(e.call.args[0], p.as_ptr() as u64);
    }
}
