//! A tiny in-memory filesystem for the simulated workloads.
//!
//! Just enough for the coreutils programs of Table III: flat
//! namespace, byte-array files, directory listing, and captured
//! stdout/stderr.

use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum OpenMode {
    Read,
    /// Created/truncated.
    Write,
}

#[derive(Clone, Debug)]
enum FdKind {
    File {
        name: String,
        pos: usize,
        mode: OpenMode,
    },
    Dir {
        names: Vec<String>,
        pos: usize,
    },
    Stdout,
    Stderr,
}

/// The filesystem plus per-task fd table.
#[derive(Debug, Default)]
pub struct Fs {
    files: BTreeMap<String, Vec<u8>>,
    fds: Vec<Option<FdKind>>,
    /// Bytes written to fd 1.
    pub stdout: Vec<u8>,
    /// Bytes written to fd 2.
    pub stderr: Vec<u8>,
    modes: BTreeMap<String, u64>,
}

impl Fs {
    /// An empty filesystem with stdout/stderr wired to fds 1/2.
    pub fn new() -> Fs {
        Fs {
            fds: vec![None, Some(FdKind::Stdout), Some(FdKind::Stderr)],
            ..Fs::default()
        }
    }

    /// Creates or replaces a file.
    pub fn put_file(&mut self, name: &str, content: Vec<u8>) {
        self.files.insert(name.to_string(), content);
    }

    /// Reads a file's content (host-side inspection).
    pub fn file(&self, name: &str) -> Option<&[u8]> {
        self.files.get(name).map(|v| v.as_slice())
    }

    /// The recorded chmod mode of a file, if any chmod happened.
    pub fn mode(&self, name: &str) -> Option<u64> {
        self.modes.get(name).copied()
    }

    fn alloc_fd(&mut self, kind: FdKind) -> u64 {
        for (i, slot) in self.fds.iter_mut().enumerate().skip(3) {
            if slot.is_none() {
                *slot = Some(kind);
                return i as u64;
            }
        }
        self.fds.push(Some(kind));
        (self.fds.len() - 1) as u64
    }

    /// `open`; returns fd or `None` (ENOENT on read of missing file).
    pub fn open(&mut self, name: &str, write: bool) -> Option<u64> {
        if name == "." {
            let names = self.files.keys().cloned().collect();
            return Some(self.alloc_fd(FdKind::Dir { names, pos: 0 }));
        }
        if write {
            self.files.insert(name.to_string(), Vec::new());
            Some(self.alloc_fd(FdKind::File {
                name: name.to_string(),
                pos: 0,
                mode: OpenMode::Write,
            }))
        } else {
            if !self.files.contains_key(name) {
                return None;
            }
            Some(self.alloc_fd(FdKind::File {
                name: name.to_string(),
                pos: 0,
                mode: OpenMode::Read,
            }))
        }
    }

    /// `close`; false on bad fd.
    pub fn close(&mut self, fd: u64) -> bool {
        match self.fds.get_mut(fd as usize) {
            Some(slot @ Some(_)) => {
                if fd >= 3 {
                    *slot = None;
                }
                true
            }
            _ => false,
        }
    }

    /// `read` into a host buffer; returns bytes read or `None` on bad
    /// fd/mode.
    pub fn read(&mut self, fd: u64, buf: &mut [u8]) -> Option<usize> {
        match self.fds.get_mut(fd as usize)?.as_mut()? {
            FdKind::File { name, pos, mode } => {
                if *mode != OpenMode::Read {
                    return None;
                }
                let data = self.files.get(name)?;
                let n = buf.len().min(data.len().saturating_sub(*pos));
                buf[..n].copy_from_slice(&data[*pos..*pos + n]);
                *pos += n;
                Some(n)
            }
            _ => None,
        }
    }

    /// `write` from a host buffer; returns bytes written or `None`.
    pub fn write(&mut self, fd: u64, data: &[u8]) -> Option<usize> {
        // Work around borrow rules: pull the kind out, put it back.
        let kind = self.fds.get_mut(fd as usize)?.take()?;
        let (ret, kind) = match kind {
            FdKind::Stdout => {
                self.stdout.extend_from_slice(data);
                (Some(data.len()), FdKind::Stdout)
            }
            FdKind::Stderr => {
                self.stderr.extend_from_slice(data);
                (Some(data.len()), FdKind::Stderr)
            }
            FdKind::File {
                name,
                mut pos,
                mode,
            } => {
                if mode != OpenMode::Write {
                    (None, FdKind::File { name, pos, mode })
                } else {
                    let f = self.files.get_mut(&name).unwrap();
                    if f.len() < pos + data.len() {
                        f.resize(pos + data.len(), 0);
                    }
                    f[pos..pos + data.len()].copy_from_slice(data);
                    pos += data.len();
                    (Some(data.len()), FdKind::File { name, pos, mode })
                }
            }
            d @ FdKind::Dir { .. } => (None, d),
        };
        self.fds[fd as usize] = Some(kind);
        ret
    }

    /// `getdents`: writes one name per call into `buf` (NUL-padded);
    /// returns name length, 0 at end, or `None` on bad fd.
    pub fn getdents(&mut self, fd: u64, buf: &mut [u8]) -> Option<usize> {
        match self.fds.get_mut(fd as usize)?.as_mut()? {
            FdKind::Dir { names, pos } => {
                if *pos >= names.len() {
                    return Some(0);
                }
                let name = names[*pos].as_bytes();
                let n = name.len().min(buf.len());
                buf[..n].copy_from_slice(&name[..n]);
                for b in buf[n..].iter_mut() {
                    *b = 0;
                }
                *pos += 1;
                Some(n)
            }
            _ => None,
        }
    }

    /// `unlink`.
    pub fn unlink(&mut self, name: &str) -> bool {
        self.files.remove(name).is_some()
    }

    /// `rename`.
    pub fn rename(&mut self, old: &str, new: &str) -> bool {
        match self.files.remove(old) {
            Some(content) => {
                self.files.insert(new.to_string(), content);
                true
            }
            None => false,
        }
    }

    /// `chmod` (recorded for assertions; no permission model).
    pub fn chmod(&mut self, name: &str, mode: u64) -> bool {
        if self.files.contains_key(name) {
            self.modes.insert(name.to_string(), mode);
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_read_write_close() {
        let mut fs = Fs::new();
        fs.put_file("hello.txt", b"hello world".to_vec());
        let fd = fs.open("hello.txt", false).unwrap();
        assert!(fd >= 3);
        let mut buf = [0u8; 5];
        assert_eq!(fs.read(fd, &mut buf), Some(5));
        assert_eq!(&buf, b"hello");
        assert_eq!(fs.read(fd, &mut buf), Some(5));
        assert_eq!(&buf, b" worl");
        assert_eq!(fs.read(fd, &mut buf), Some(1));
        assert_eq!(fs.read(fd, &mut buf), Some(0));
        assert!(fs.close(fd));
        assert!(!fs.close(fd));
    }

    #[test]
    fn write_creates_and_extends() {
        let mut fs = Fs::new();
        let fd = fs.open("new.txt", true).unwrap();
        assert_eq!(fs.write(fd, b"abc"), Some(3));
        assert_eq!(fs.write(fd, b"def"), Some(3));
        fs.close(fd);
        assert_eq!(fs.file("new.txt").unwrap(), b"abcdef");
        // Reading a write-mode fd fails.
        let fd = fs.open("new2.txt", true).unwrap();
        let mut b = [0u8; 1];
        assert_eq!(fs.read(fd, &mut b), None);
    }

    #[test]
    fn missing_file_and_bad_fd() {
        let mut fs = Fs::new();
        assert_eq!(fs.open("ghost", false), None);
        let mut b = [0u8; 1];
        assert_eq!(fs.read(99, &mut b), None);
        assert_eq!(fs.write(99, b"x"), None);
    }

    #[test]
    fn stdout_stderr_capture() {
        let mut fs = Fs::new();
        assert_eq!(fs.write(1, b"out"), Some(3));
        assert_eq!(fs.write(2, b"err"), Some(3));
        assert_eq!(fs.stdout, b"out");
        assert_eq!(fs.stderr, b"err");
    }

    #[test]
    fn directory_listing() {
        let mut fs = Fs::new();
        fs.put_file("a", vec![]);
        fs.put_file("b", vec![]);
        let fd = fs.open(".", false).unwrap();
        let mut buf = [0u8; 16];
        assert_eq!(fs.getdents(fd, &mut buf), Some(1));
        assert_eq!(buf[0], b'a');
        assert_eq!(fs.getdents(fd, &mut buf), Some(1));
        assert_eq!(buf[0], b'b');
        assert_eq!(fs.getdents(fd, &mut buf), Some(0));
    }

    #[test]
    fn unlink_rename_chmod() {
        let mut fs = Fs::new();
        fs.put_file("x", b"1".to_vec());
        assert!(fs.chmod("x", 0o644));
        assert_eq!(fs.mode("x"), Some(0o644));
        assert!(fs.rename("x", "y"));
        assert_eq!(fs.file("y").unwrap(), b"1");
        assert!(fs.unlink("y"));
        assert!(!fs.unlink("y"));
        assert!(!fs.rename("y", "z"));
        assert!(!fs.chmod("y", 0o600));
    }
}
