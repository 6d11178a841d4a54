//! The one reader of this process's address space: [`Maps`], an open
//! `/proc/self/maps`, answers the patch window (which protection to
//! restore, paper §IV-A(b)), the site cache (which file a site lies in),
//! the hardened backstop (which text to admit) and the scanner. One
//! `PROCMAP_QUERY` ioctl (Linux ≥ 6.11) takes the query flags and an
//! optional name buffer; on older kernels one line parser,
//! [`parse_line`], reads the text. Both report every field; callers
//! pick. Raw syscalls from the gate and stack buffers only: the `SIGSYS`
//! handler and code that runs before `main` use it. Its [`shadow`]
//! answers the patch window first, from the mapping calls the
//! dispatcher saw.

use syscalls::{nr, Errno, SyscallArgs};

pub mod shadow;

use crate::trampoline::{gate_syscall, raw};

/// Page protection bits of a mapped region.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RegionPerms {
    /// Readable.
    pub read: bool,
    /// Writable.
    pub write: bool,
    /// Executable.
    pub exec: bool,
}

impl RegionPerms {
    /// As a `PROT_*` bitmask for `mprotect`.
    pub fn prot(&self) -> i32 {
        let mut p = 0;
        if self.read {
            p |= libc::PROT_READ;
        }
        if self.write {
            p |= libc::PROT_WRITE;
        }
        if self.exec {
            p |= libc::PROT_EXEC;
        }
        p
    }
}

/// One mapping: every field of its `/proc/self/maps` line but the name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Mapping {
    /// First mapped address.
    pub start: usize,
    /// One past the last mapped address.
    pub end: usize,
    /// The mapping's protection.
    pub perms: RegionPerms,
    /// Shared (`s`) rather than private (`p`).
    pub shared: bool,
    /// File offset mapped at `start`.
    pub offset: u64,
    /// The file's device, `(major, minor)`; `(0, 0)` when anonymous.
    pub dev: (u32, u32),
    /// The file's inode; 0 when anonymous.
    pub inode: u64,
}

impl Mapping {
    /// Whether `addr` lies in the mapping.
    pub fn contains(&self, addr: usize) -> bool {
        (self.start..self.end).contains(&addr)
    }
}

/// Longest path a [`FileMapping`] keeps (`PATH_MAX`).
pub const PATH_CAPACITY: usize = 4096;
/// Longest build-id a [`FileMapping`] keeps (the kernel's is ≤ 20).
pub const BUILD_ID_CAPACITY: usize = 32;

/// A mapping and the name the kernel gives it. For a file, what turns
/// an address into `(object, offset)` and back.
#[derive(Clone)]
pub struct FileMapping {
    /// The mapping.
    pub map: Mapping,
    path: [u8; PATH_CAPACITY],
    path_len: usize,
    build_id: [u8; BUILD_ID_CAPACITY],
    build_id_len: usize,
}

impl FileMapping {
    /// A mapping of nothing, for [`Maps`] to fill in.
    pub fn empty() -> FileMapping {
        FileMapping {
            map: Mapping::default(),
            path: [0; PATH_CAPACITY],
            path_len: 0,
            build_id: [0; BUILD_ID_CAPACITY],
            build_id_len: 0,
        }
    }

    /// The path the kernel names the file by, as it was at `mmap` time
    /// (with ` (deleted)` appended once it is gone), or the name of an
    /// anonymous mapping (`[heap]`, `[vdso]`, …); empty for an unnamed
    /// one, and until [`Maps::describe`] asked for it.
    pub fn path(&self) -> &[u8] {
        &self.path[..self.path_len]
    }

    /// The file's GNU build-id; empty when it has none, or when only
    /// the text of `/proc/self/maps` was available.
    pub fn build_id(&self) -> &[u8] {
        &self.build_id[..self.build_id_len]
    }

    /// The file offset of `addr`, if this mapping holds it.
    pub fn file_offset(&self, addr: usize) -> Option<u64> {
        let m = &self.map;
        m.contains(addr).then(|| m.offset + (addr - m.start) as u64)
    }

    /// `path` (cut to [`PATH_CAPACITY`]) as the name, and no build-id.
    fn set_path(&mut self, path: &[u8]) {
        let len = path.len().min(PATH_CAPACITY);
        self.path[..len].copy_from_slice(&path[..len]);
        (self.path_len, self.build_id_len) = (len, 0);
    }
}

/// `struct procmap_query` (Linux ≥ 6.11, `linux/fs.h`).
#[repr(C)]
#[derive(Default)]
struct ProcmapQuery {
    size: u64,
    query_flags: u64,
    query_addr: u64,
    vma_start: u64,
    vma_end: u64,
    vma_flags: u64,
    vma_page_size: u64,
    vma_offset: u64,
    inode: u64,
    dev_major: u32,
    dev_minor: u32,
    vma_name_size: u32,
    build_id_size: u32,
    vma_name_addr: u64,
    build_id_addr: u64,
}

/// `_IOWR('f', 17, struct procmap_query)`.
const PROCMAP_QUERY: u64 = 0xc068_6611;
/// Query flag: only executable mappings.
pub(crate) const EXECUTABLE: u64 = 0x04;
/// Query flag: the first selected mapping at or after the address.
const COVERING_OR_NEXT: u64 = 0x10;
/// Query flag: only mappings of a file.
pub(crate) const FILE_BACKED: u64 = 0x20;

/// Whether the query `flags` select `m`: what the kernel tests, for the
/// text of the file. A file mapping is one with an inode.
fn selects(flags: u64, m: &Mapping) -> bool {
    (flags & EXECUTABLE == 0 || m.perms.exec) && (flags & FILE_BACKED == 0 || m.inode != 0)
}

/// How `/proc/self/maps` is opened. `O_CLOEXEC`: the `SIGSYS` handler
/// opens it while the process's other threads keep running, and one of
/// them may `execve` meanwhile — the new image must not inherit the
/// descriptor.
pub(crate) const OPEN_FLAGS: i32 = libc::O_RDONLY | libc::O_CLOEXEC;

/// An open `/proc/self/maps`, closed on drop.
pub struct Maps {
    pub(crate) fd: u64,
}

impl Maps {
    /// Opens `/proc/self/maps` (`O_CLOEXEC`).
    ///
    /// # Errors
    ///
    /// The errno of the `open`.
    pub fn open() -> Result<Maps, Errno> {
        let path = b"/proc/self/maps\0";
        // SAFETY: open(2) with a NUL-terminated path; closed on drop.
        let fd = unsafe { raw::syscall3(nr::OPEN, path.as_ptr() as u64, OPEN_FLAGS as u64, 0) };
        Errno::result(fd).map(|fd| Maps { fd })
    }

    /// One `PROCMAP_QUERY`: the mapping that covers `addr` among those
    /// `flags` select (or, with [`COVERING_OR_NEXT`], the first after
    /// it); `Ok(None)` when there is none. With `name`, the kernel also
    /// copies the mapping's name and build-id into its buffers, which
    /// costs as much again as the rest of the query.
    fn query(
        &self,
        flags: u64,
        addr: usize,
        mut name: Option<&mut FileMapping>,
    ) -> Result<Option<Mapping>, Errno> {
        let mut q = ProcmapQuery {
            size: std::mem::size_of::<ProcmapQuery>() as u64,
            query_flags: flags,
            query_addr: addr as u64,
            ..ProcmapQuery::default()
        };
        if let Some(name) = name.as_mut() {
            q.vma_name_size = PATH_CAPACITY as u32;
            q.build_id_size = BUILD_ID_CAPACITY as u32;
            q.vma_name_addr = name.path.as_mut_ptr() as u64;
            q.build_id_addr = name.build_id.as_mut_ptr() as u64;
        }
        // SAFETY: the kernel reads and writes `q.size` bytes of `q`, and
        // writes the name and build-id into buffers of the sizes it was
        // given, which `name` borrows mutably until the call returns.
        let r =
            unsafe { raw::syscall3(nr::IOCTL, self.fd, PROCMAP_QUERY, &mut q as *mut _ as u64) };
        match Errno::result(r) {
            Ok(_) => {}
            Err(Errno::ENOENT) => return Ok(None),
            Err(e) => return Err(e),
        }
        if let Some(name) = name {
            // The name size counts its NUL.
            name.path_len = (q.vma_name_size as usize).saturating_sub(1);
            name.build_id_len = q.build_id_size as usize;
        }
        Ok(Some(Mapping {
            start: q.vma_start as usize,
            end: q.vma_end as usize,
            perms: RegionPerms {
                read: q.vma_flags & 1 != 0,
                write: q.vma_flags & 2 != 0,
                exec: q.vma_flags & 4 != 0,
            },
            shared: q.vma_flags & 8 != 0,
            offset: q.vma_offset,
            dev: (q.dev_major, q.dev_minor),
            inode: q.inode,
        }))
    }

    /// Feeds the lines of the text, from its start, to `f` until it
    /// returns `Some`; `Ok(None)` at the end of the file. A line that
    /// straddles two reads reaches `f` cut to its first `CARRY` bytes.
    /// Stack buffers only; `pread64`, so the file position is never
    /// looked at.
    fn read_text<const CARRY: usize, T>(
        &self,
        mut f: impl FnMut(&[u8]) -> Option<T>,
    ) -> Result<Option<T>, Errno> {
        let mut buf = [0u8; 4096];
        let mut carry = [0u8; CARRY];
        let mut carry_len = 0usize;
        let mut at = 0u64;
        loop {
            let args = [self.fd, buf.as_mut_ptr() as u64, buf.len() as u64, at, 0, 0];
            // SAFETY: pread64(2) into our stack buffer, from the gate.
            let n = unsafe { gate_syscall(&SyscallArgs::new(nr::PREAD64, args)) };
            let n = match Errno::result(n)? {
                0 => return Ok(None),
                n => n as usize,
            };
            at += n as u64;
            let mut line_start = 0usize;
            for i in 0..n {
                if buf[i] == b'\n' {
                    let found = if carry_len > 0 {
                        let take = (i - line_start).min(CARRY - carry_len);
                        carry[carry_len..carry_len + take]
                            .copy_from_slice(&buf[line_start..line_start + take]);
                        let total = carry_len + take;
                        carry_len = 0;
                        f(&carry[..total])
                    } else {
                        f(&buf[line_start..i])
                    };
                    if found.is_some() {
                        return Ok(found);
                    }
                    line_start = i + 1;
                }
            }
            // Carry any partial tail line into the next read.
            let take = (n - line_start).min(CARRY - carry_len);
            carry[carry_len..carry_len + take].copy_from_slice(&buf[line_start..line_start + take]);
            carry_len += take;
        }
    }

    /// The mapping that covers `addr`, whatever it is; `Ok(None)` when
    /// nothing is mapped there. One `PROCMAP_QUERY`, or the text up to
    /// the line that covers it on a kernel without the ioctl; no name,
    /// so no path-sized buffer.
    ///
    /// # Errors
    ///
    /// The errno of reading `/proc/self/maps`.
    pub fn covering(&self, addr: usize) -> Result<Option<Mapping>, Errno> {
        // The fields up to the inode take at most 87 bytes of a line.
        self.query(0, addr, None).or_else(|_| {
            self.read_text::<128, _>(|line| {
                parse_line(line)
                    .map(|(m, _)| m)
                    .filter(|m| m.contains(addr))
            })
        })
    }

    /// Calls `visit` on every mapping `flags` selects, in address order.
    /// With `named` each comes with its name and build-id; without, with
    /// no name — unless only the text of `/proc/self/maps` is available
    /// (before Linux 6.11), which carries the name anyway.
    pub(crate) fn walk(
        &self,
        flags: u64,
        named: bool,
        mut visit: impl FnMut(&FileMapping),
    ) -> Result<(), Errno> {
        let mut m = FileMapping::empty();
        let mut addr = 0;
        loop {
            match self.query(flags | COVERING_OR_NEXT, addr, named.then_some(&mut m)) {
                Ok(Some(found)) => {
                    m.map = found;
                    visit(&m);
                    addr = found.end;
                }
                Ok(None) => return Ok(()),
                // No ioctl: only the first query can fail this way.
                Err(_) if addr == 0 => break,
                Err(e) => return Err(e),
            }
        }
        self.scan_text(flags, &mut m, |m| {
            visit(m);
            false
        })
        .map(drop)
    }

    /// Fills `m` with each mapping in the text that `flags` select, name
    /// included, and hands it to `stop` until that says yes; whether it
    /// did.
    fn scan_text(
        &self,
        flags: u64,
        m: &mut FileMapping,
        mut stop: impl FnMut(&FileMapping) -> bool,
    ) -> Result<bool, Errno> {
        // Room for every field and a path of `PATH_CAPACITY`.
        self.read_text::<{ PATH_CAPACITY + 128 }, ()>(|line| {
            let (found, path) = parse_line(line).filter(|(l, _)| selects(flags, l))?;
            m.map = found;
            m.set_path(path);
            stop(m).then_some(())
        })
        .map(|stopped| stopped.is_some())
    }

    /// Calls `visit` on every executable, file-backed mapping, in
    /// address order, without its path or build-id
    /// ([`describe`](Self::describe) adds them) — unless only the text of
    /// `/proc/self/maps` is available (before Linux 6.11), which carries
    /// the path anyway.
    ///
    /// # Errors
    ///
    /// The errno of reading `/proc/self/maps`.
    pub fn exec_files(&self, visit: impl FnMut(&FileMapping)) -> Result<(), Errno> {
        self.walk(EXECUTABLE | FILE_BACKED, false, visit)
    }

    /// Fills `m` with the executable file mapping that holds `addr`,
    /// without its path or build-id, as [`exec_files`](Self::exec_files)
    /// does; `Ok(false)` when `addr` is in none (unmapped, anonymous, or
    /// not executable).
    ///
    /// # Errors
    ///
    /// The errno of reading `/proc/self/maps`.
    pub fn file_at(&self, addr: usize, m: &mut FileMapping) -> Result<bool, Errno> {
        self.exec_file_at(addr, m, false)
    }

    /// [`file_at`](Self::file_at), with `named`: path and build-id too.
    fn exec_file_at(&self, addr: usize, m: &mut FileMapping, named: bool) -> Result<bool, Errno> {
        const FLAGS: u64 = EXECUTABLE | FILE_BACKED;
        if !named {
            m.set_path(&[]);
        }
        match self.query(FLAGS, addr, named.then_some(&mut *m)) {
            Ok(Some(found)) => {
                m.map = found;
                Ok(true)
            }
            Ok(None) => Ok(false),
            // No ioctl: the text names it.
            Err(_) => self.scan_text(FLAGS, m, |m| m.map.contains(addr)),
        }
    }

    /// Fills in the path and build-id of `m`, one of
    /// [`exec_files`](Self::exec_files)'s mappings, if the walk did not.
    ///
    /// # Errors
    ///
    /// The errno of reading `/proc/self/maps`; `ENOENT` when the mapping
    /// is no longer there.
    pub fn describe(&self, m: &mut FileMapping) -> Result<(), Errno> {
        if m.path_len > 0 {
            return Ok(());
        }
        let at = (m.map.start, m.map.dev, m.map.inode);
        match self.exec_file_at(at.0, m, true)? {
            true if (m.map.start, m.map.dev, m.map.inode) == at => Ok(()),
            _ => Err(Errno::ENOENT),
        }
    }
}

impl Drop for Maps {
    fn drop(&mut self) {
        // SAFETY: closing the fd we opened.
        unsafe { raw::syscall1(nr::CLOSE, self.fd) };
    }
}

/// Parses one line of `/proc/self/maps`, `start-end perms offset
/// major:minor inode name`, into the mapping and its name: empty for an
/// unnamed anonymous mapping, and a path keeps its spaces and a
/// ` (deleted)` suffix. `None` unless every field up to the inode is
/// well-formed and `start < end`.
pub fn parse_line(line: &[u8]) -> Option<(Mapping, &[u8])> {
    let (start, rest) = field(line, b'-')?;
    let (end, rest) = field(rest, b' ')?;
    let (perms, rest) = field(rest, b' ')?;
    let (offset, rest) = field(rest, b' ')?;
    let (major, rest) = field(rest, b':')?;
    let (minor, rest) = field(rest, b' ')?;
    // The kernel ends the inode with a space, pads, and names.
    let (inode, name) = field(rest, b' ').unwrap_or((rest, &[]));
    let name = &name[name.iter().position(|&b| b != b' ').unwrap_or(name.len())..];
    let flag = |b: u8, set: u8, clear: u8| (b == set || b == clear).then_some(b == set);
    let &[r, w, x, s] = perms else {
        return None;
    };
    let m = Mapping {
        start: number(start, 16)? as usize,
        end: number(end, 16)? as usize,
        perms: RegionPerms {
            read: flag(r, b'r', b'-')?,
            write: flag(w, b'w', b'-')?,
            exec: flag(x, b'x', b'-')?,
        },
        shared: flag(s, b's', b'p')?,
        offset: number(offset, 16)?,
        dev: (
            u32::try_from(number(major, 16)?).ok()?,
            u32::try_from(number(minor, 16)?).ok()?,
        ),
        inode: number(inode, 10)?,
    };
    (m.start < m.end).then_some((m, name))
}

/// Splits `s` at its first `sep`: the field before, the rest after.
fn field(s: &[u8], sep: u8) -> Option<(&[u8], &[u8])> {
    let at = s.iter().position(|&b| b == sep)?;
    Some((&s[..at], &s[at + 1..]))
}

/// Digits of `radix`, at least one and nothing else, that fit a `u64`.
pub(crate) fn number(s: &[u8], radix: u32) -> Option<u64> {
    let digit = |b: u8| (b as char).to_digit(radix).map(u64::from);
    let n = s.iter().try_fold(0u64, |n, &b| {
        n.checked_mul(radix.into())?.checked_add(digit(b)?)
    });
    n.filter(|_| !s.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_line_parses_into_a_file_mapping() {
        let line = b"7f12a0028000-7f12a01bd000 r-xp 00028000 fd:01 1234567                    /usr/lib/x86_64-linux-gnu/libc.so.6";
        let (found, path) = parse_line(line).unwrap();
        let mut m = FileMapping::empty();
        m.map = found;
        m.set_path(path);
        assert_eq!(
            (found.start, found.end, found.offset),
            (0x7f12a0028000, 0x7f12a01bd000, 0x28000)
        );
        assert_eq!((found.dev, found.inode), ((0xfd, 1), 1234567));
        assert!(found.perms.exec && !found.shared);
        assert_eq!(m.path(), b"/usr/lib/x86_64-linux-gnu/libc.so.6");
        assert_eq!(m.file_offset(0x7f12a0028010), Some(0x28010));
        assert_eq!(m.file_offset(0x7f12a0027fff), None);
        assert_eq!(m.file_offset(0x7f12a01bd000), None);
        // Every line parses, and the callers pick: none of these is an
        // executable file mapping.
        for other in [
            &b"7f12a0000000-7f12a0028000 r--p 00000000 fd:01 1234567 /usr/lib/libc.so.6"[..],
            b"7ffd1000-7ffd3000 r-xp 00000000 00:00 0                          [vdso]",
            b"7f0000000000-7f0000001000 rwxp 00000000 00:00 0 ",
        ] {
            let (m, _) = parse_line(other).unwrap();
            assert!(
                !selects(EXECUTABLE | FILE_BACKED, &m),
                "{}",
                String::from_utf8_lossy(other)
            );
        }
        assert_eq!(
            parse_line(b"7ffd1000-7ffd3000 r-xp 00000000 00:00 0                          [vdso]")
                .map(|(_, name)| name),
            Some(&b"[vdso]"[..])
        );
        assert!(parse_line(b"garbage").is_none());
    }

    /// `(start, end, offset, dev, inode, path)`.
    type Seen = (usize, usize, u64, (u32, u32), u64, Vec<u8>);

    fn seen(f: &FileMapping) -> Seen {
        let m = &f.map;
        (m.start, m.end, m.offset, m.dev, m.inode, f.path().to_vec())
    }

    /// What the text says: the mappings `flags` select, with names.
    fn text_walk(flags: u64) -> Vec<Seen> {
        let text = std::fs::read("/proc/self/maps").unwrap();
        let mut out = Vec::new();
        let mut m = FileMapping::empty();
        for line in text.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
            let (found, path) = parse_line(line).expect("every line parses");
            if selects(flags, &found) {
                m.map = found;
                m.set_path(path);
                out.push(seen(&m));
            }
        }
        out
    }

    /// Runs `check` in a fork child of this process, where no other test
    /// maps or unmaps anything, and fails if it panics there.
    fn in_fork_child(check: impl FnOnce()) {
        // SAFETY: the child runs `check` on this thread alone and leaves by
        // `_exit`; glibc's malloc, which it may use, is fork-safe.
        unsafe {
            let pid = libc::fork();
            assert!(pid >= 0);
            if pid == 0 {
                let ok = std::panic::catch_unwind(std::panic::AssertUnwindSafe(check)).is_ok();
                libc::_exit(if ok { 0 } else { 1 });
            }
            let mut status = 0;
            assert_eq!(libc::waitpid(pid, &mut status, 0), pid);
            assert_eq!(
                status, 0,
                "the check failed in the fork child (its panic is above)"
            );
        }
    }

    #[test]
    fn procmap_query_and_text_walk_agree() {
        let maps = Maps::open().unwrap();
        let mut queried = Vec::new();
        maps.exec_files(|m| {
            let mut m = m.clone();
            maps.describe(&mut m).unwrap();
            queried.push(seen(&m));
        })
        .unwrap();
        // This test's own text is one of them.
        let here = procmap_query_and_text_walk_agree as *const () as usize;
        assert!(
            queried.iter().any(|m| (m.0..m.1).contains(&here)),
            "{queried:#x?}"
        );
        assert!(queried.iter().all(|m| m.5.starts_with(b"/")));
        // Other tests map and unmap executable pages meanwhile, but
        // never file-backed ones: the two walks see the same files.
        assert_eq!(queried, text_walk(EXECUTABLE | FILE_BACKED));

        // Every executable mapping, anonymous and named ones too, and the
        // covering lookup of the patcher's five addresses.
        // SAFETY: one page mapped and named, unmapped with the process;
        // the prctl reads a NUL-terminated name.
        in_fork_child(|| unsafe {
            let flags = libc::MAP_PRIVATE | libc::MAP_ANONYMOUS;
            let prot = libc::PROT_READ | libc::PROT_EXEC;
            let rx = libc::mmap(std::ptr::null_mut(), 4096, prot, flags, -1, 0);
            assert_ne!(rx, libc::MAP_FAILED);
            // A name where the kernel gives anonymous mappings one
            // (`PR_SET_VMA_ANON_NAME`, Linux 5.17).
            const PR_SET_VMA: i32 = 0x5356_4d41;
            let name = b"lp maps test\0";
            libc::prctl(PR_SET_VMA, 0u64, rx as u64, 4096u64, name.as_ptr() as u64);
            // The parent's descriptor answers for the parent's mappings.
            let maps = Maps::open().unwrap();
            let mut all = Vec::new();
            maps.walk(EXECUTABLE, true, |m| all.push(seen(m))).unwrap();
            // `[vsyscall]` is the kernel's gate area, not a mapping: the
            // text shows it, `PROCMAP_QUERY` never reports it.
            let mut text = text_walk(EXECUTABLE);
            text.retain(|m| m.5 != b"[vsyscall]");
            assert_eq!(all, text);
            assert!(
                all.iter().any(|m| m.0 == rx as usize && m.4 == 0),
                "{all:#x?}"
            );
            assert!(all.iter().any(|m| m.5 == b"[vdso]"), "{all:#x?}");

            crate::patcher::tests::on_five_mappings(0x4_0000, |addr, expect| {
                let text = maps
                    .read_text::<128, _>(|line| {
                        parse_line(line)
                            .map(|(m, _)| m)
                            .filter(|m| m.contains(addr))
                    })
                    .unwrap();
                assert_eq!(text.map(|m| m.perms), expect, "text, {addr:#x}");
                assert_eq!(maps.covering(addr), Ok(text), "{addr:#x}");
                match maps.query(0, addr, None) {
                    Ok(got) => assert_eq!(got, text, "PROCMAP_QUERY, {addr:#x}"),
                    // Before Linux 6.11: `covering` just read the text.
                    Err(e) => assert_eq!(e, Errno::ENOTTY, "{addr:#x}"),
                }
            });
        });
    }

    #[test]
    fn build_id_comes_with_the_query() {
        let here = build_id_comes_with_the_query as *const () as usize;
        let maps = Maps::open().unwrap();
        let mut id = None;
        maps.exec_files(|m| {
            if m.file_offset(here).is_some() {
                assert!(m.build_id().is_empty(), "the walk asks for no build-id");
                let mut m = m.clone();
                maps.describe(&mut m).unwrap();
                id = Some(m.build_id().to_vec());
            }
        })
        .unwrap();
        let id = id.expect("own text mapped");
        // Rust test binaries carry a GNU build-id on every toolchain
        // this builds with; an empty one means the text fallback ran.
        assert!(id.is_empty() || id.len() == 20, "{id:02x?}");
    }
}
