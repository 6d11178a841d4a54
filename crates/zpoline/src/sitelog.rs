//! Where patched sites live: a log of the addresses the slow path
//! rewrote, and the file each executable mapping was loaded from.
//!
//! An address means nothing to the next process; `(object, file
//! offset)` does, as long as the object is byte-identical. The log is
//! written from the `SIGSYS` handler, so it is a fixed static array
//! with an atomic cursor: no allocation, no lock. The mapping walk
//! ([`Maps`]) asks `PROCMAP_QUERY` (Linux ≥ 6.11) for each executable
//! file-backed mapping in turn and falls back to the text of
//! `/proc/self/maps`, into stack buffers only.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use syscalls::{nr, Errno};

use crate::patcher::{parse_hex, scan_maps_text, MapsFd, RegionPerms};
use crate::trampoline::raw;

/// Sites a [`SiteLog`] holds; later ones are counted, not kept.
pub const SITE_LOG_CAPACITY: usize = 8192;

/// Addresses of rewritten sites, appended from any thread or signal
/// handler.
pub(crate) struct SiteLog {
    len: AtomicUsize,
    slots: [AtomicUsize; SITE_LOG_CAPACITY],
}

/// The process's log: what the lazy slow path rewrote while
/// [`armed`] ([`crate::patcher::patch_page_sites_logged`]).
pub(crate) static SITE_LOG: SiteLog = SiteLog::new();

/// Whether the slow path logs into the process log: a flag of its own,
/// not a field of the 64 KiB log, so testing it touches no page of the
/// log.
static ARMED: AtomicBool = AtomicBool::new(false);

/// From now on [`armed`] says yes.
pub fn arm() {
    ARMED.store(true, Ordering::Relaxed);
}

/// Whether the slow path should log what it rewrites: one relaxed load.
#[inline]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// The sites logged so far, in the order they were rewritten (the first
/// [`SITE_LOG_CAPACITY`]).
pub fn logged_sites() -> impl Iterator<Item = usize> {
    SITE_LOG.sites()
}

impl SiteLog {
    /// An empty log.
    pub(crate) const fn new() -> SiteLog {
        SiteLog {
            len: AtomicUsize::new(0),
            slots: [const { AtomicUsize::new(0) }; SITE_LOG_CAPACITY],
        }
    }

    /// Appends `site` (dropped once the log is full).
    pub(crate) fn push(&self, site: usize) {
        let i = self.len.fetch_add(1, Ordering::Relaxed);
        if let Some(slot) = self.slots.get(i) {
            slot.store(site, Ordering::Release);
        }
    }

    /// Sites pushed so far, full or not.
    fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// The logged sites, in push order. A push racing this read may be
    /// missing from it.
    fn sites(&self) -> impl Iterator<Item = usize> + '_ {
        let n = self.len().min(SITE_LOG_CAPACITY);
        self.slots[..n]
            .iter()
            .map(|slot| slot.load(Ordering::Acquire))
            .filter(|&site| site != 0)
    }
}

/// Longest path a [`FileMapping`] keeps (`PATH_MAX`).
pub const PATH_CAPACITY: usize = 4096;
/// Longest build-id a [`FileMapping`] keeps (the kernel's is ≤ 20).
pub const BUILD_ID_CAPACITY: usize = 32;

/// One executable mapping of a file, and which file: what turns an
/// address into `(object, offset)` and back.
#[derive(Clone)]
pub struct FileMapping {
    /// First mapped address.
    pub start: usize,
    /// One past the last mapped address.
    pub end: usize,
    /// File offset mapped at `start`.
    pub offset: u64,
    /// The file's device, `(major, minor)`.
    pub dev: (u32, u32),
    /// The file's inode.
    pub inode: u64,
    /// The mapping's protection.
    pub perms: RegionPerms,
    path: [u8; PATH_CAPACITY],
    path_len: usize,
    build_id: [u8; BUILD_ID_CAPACITY],
    build_id_len: usize,
}

impl FileMapping {
    /// A mapping of nothing, for [`Maps::exec_files`] to fill in.
    pub fn empty() -> FileMapping {
        FileMapping {
            start: 0,
            end: 0,
            offset: 0,
            dev: (0, 0),
            inode: 0,
            perms: RegionPerms {
                read: false,
                write: false,
                exec: false,
            },
            path: [0; PATH_CAPACITY],
            path_len: 0,
            build_id: [0; BUILD_ID_CAPACITY],
            build_id_len: 0,
        }
    }

    /// The path the kernel names the file by, as it was at `mmap` time
    /// (with ` (deleted)` appended once it is gone).
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
        (self.start..self.end)
            .contains(&addr)
            .then(|| self.offset + (addr - self.start) as u64)
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

const PROCMAP_QUERY: u64 = 0xc068_6611;
const QUERY_VMA_EXECUTABLE: u64 = 0x04;
const QUERY_COVERING_OR_NEXT_VMA: u64 = 0x10;
const QUERY_FILE_BACKED_VMA: u64 = 0x20;

/// An open `/proc/self/maps`: walks the executable file mappings and
/// names the file behind one. Stack buffers and raw syscalls only (a
/// [`FileMapping`] is ~4 KiB), so it is usable before `main` without
/// touching the heap.
pub struct Maps {
    fd: MapsFd,
}

impl Maps {
    /// Opens `/proc/self/maps` (`O_CLOEXEC`).
    ///
    /// # Errors
    ///
    /// The errno of the `open`.
    pub fn open() -> Result<Maps, Errno> {
        MapsFd::open().map(|fd| Maps { fd })
    }

    /// One `PROCMAP_QUERY` from `addr`, filling `m`; `Ok(false)` past the
    /// last match. `named` also asks for the path and build-id, which
    /// cost as much again as the rest of the query.
    fn query(
        &self,
        flags: u64,
        addr: u64,
        m: &mut FileMapping,
        named: bool,
    ) -> Result<bool, Errno> {
        let mut q = ProcmapQuery {
            size: std::mem::size_of::<ProcmapQuery>() as u64,
            query_flags: flags,
            query_addr: addr,
            ..ProcmapQuery::default()
        };
        if named {
            q.vma_name_size = PATH_CAPACITY as u32;
            q.build_id_size = BUILD_ID_CAPACITY as u32;
            q.vma_name_addr = m.path.as_mut_ptr() as u64;
            q.build_id_addr = m.build_id.as_mut_ptr() as u64;
        }
        // SAFETY: the kernel reads `q.size` bytes of `q` and writes the
        // name and build-id into buffers of the sizes it was given.
        let r =
            unsafe { raw::syscall3(nr::IOCTL, self.fd.0, PROCMAP_QUERY, &mut q as *mut _ as u64) };
        match Errno::result(r) {
            Ok(_) => {
                m.start = q.vma_start as usize;
                m.end = q.vma_end as usize;
                m.offset = q.vma_offset;
                m.dev = (q.dev_major, q.dev_minor);
                m.inode = q.inode;
                m.perms = RegionPerms {
                    read: q.vma_flags & 1 != 0,
                    write: q.vma_flags & 2 != 0,
                    exec: q.vma_flags & 4 != 0,
                };
                // The name size counts its NUL.
                m.path_len = (q.vma_name_size as usize).saturating_sub(1);
                m.build_id_len = q.build_id_size as usize;
                Ok(true)
            }
            Err(Errno::ENOENT) => Ok(false),
            Err(e) => Err(e),
        }
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
    pub fn exec_files(&self, mut visit: impl FnMut(&FileMapping)) -> Result<(), Errno> {
        const FLAGS: u64 =
            QUERY_VMA_EXECUTABLE | QUERY_COVERING_OR_NEXT_VMA | QUERY_FILE_BACKED_VMA;
        let mut m = FileMapping::empty();
        let mut addr = 0u64;
        loop {
            match self.query(FLAGS, addr, &mut m, false) {
                Ok(true) => {
                    visit(&m);
                    addr = m.end as u64;
                }
                Ok(false) => return Ok(()),
                // No ioctl: only the first query can fail this way.
                Err(_) if addr == 0 => break,
                Err(e) => return Err(e),
            }
        }
        self.scan_text(|m| {
            visit(m);
            false
        })
    }

    /// Feeds every executable file mapping in the text of the file to
    /// `f`, from its start, until `f` says stop.
    fn scan_text(&self, mut f: impl FnMut(&FileMapping) -> bool) -> Result<(), Errno> {
        // SAFETY: lseek(2) on our own fd.
        Errno::result(unsafe { raw::syscall3(nr::LSEEK, self.fd.0, 0, 0) })?;
        let mut m = FileMapping::empty();
        scan_maps_text::<{ PATH_CAPACITY + 128 }, ()>(self.fd.0, |line| {
            (parse_file_mapping(line, &mut m) && f(&m)).then_some(())
        })
        .map(|_| ())
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
        self.query_at(addr, m, false)
    }

    /// [`file_at`](Self::file_at) with `named`: path and build-id too.
    fn query_at(&self, addr: usize, m: &mut FileMapping, named: bool) -> Result<bool, Errno> {
        const FLAGS: u64 = QUERY_VMA_EXECUTABLE | QUERY_FILE_BACKED_VMA;
        match self.query(FLAGS, addr as u64, m, named) {
            Ok(found) => Ok(found),
            // No ioctl: the text names it.
            Err(_) => {
                let mut found = false;
                self.scan_text(|line| {
                    found = (line.start..line.end).contains(&addr);
                    if found {
                        *m = line.clone();
                    }
                    found
                })?;
                Ok(found)
            }
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
        let at = (m.start, m.dev, m.inode);
        match self.query_at(at.0, m, true)? {
            true if (m.start, m.dev, m.inode) == at => Ok(()),
            _ => Err(Errno::ENOENT),
        }
    }
}

/// Parses one `/proc/self/maps` line into `m` if it is an executable
/// mapping of a file: `start-end perms offset major:minor inode path`.
fn parse_file_mapping(line: &[u8], m: &mut FileMapping) -> bool {
    let mut fields = line.split(|&b| b == b' ').filter(|f| !f.is_empty());
    let (Some(range), Some(perms), Some(offset), Some(dev), Some(inode)) = (
        fields.next(),
        fields.next(),
        fields.next(),
        fields.next(),
        fields.next(),
    ) else {
        return false;
    };
    // The path is the rest of the line after the inode's padding.
    let Some(path_at) = line.iter().position(|&b| b == b'/') else {
        return false;
    };
    let hex = |field: &[u8]| parse_hex(field);
    let split = |field: &[u8], sep| {
        let at = field.iter().position(|&b| b == sep)?;
        Some((hex(&field[..at])?, hex(&field[at + 1..])?))
    };
    let (Some((start, end)), Some((major, minor)), Some(offset)) =
        (split(range, b'-'), split(dev, b':'), hex(offset))
    else {
        return false;
    };
    let Some(inode) = std::str::from_utf8(inode).ok().and_then(|s| s.parse().ok()) else {
        return false;
    };
    if perms.len() < 3 || perms[2] != b'x' || inode == 0 {
        return false;
    }
    let path = &line[path_at..];
    let path_len = path.len().min(PATH_CAPACITY);
    m.start = start;
    m.end = end;
    m.offset = offset as u64;
    m.dev = (major as u32, minor as u32);
    m.inode = inode;
    m.perms = RegionPerms {
        read: perms[0] == b'r',
        write: perms[1] == b'w',
        exec: true,
    };
    m.path[..path_len].copy_from_slice(&path[..path_len]);
    m.path_len = path_len;
    m.build_id_len = 0;
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_keeps_pushes_until_full_and_counts_the_rest() {
        let log = Box::new(SiteLog::new());
        assert!(log.sites().next().is_none());
        for site in 1..=SITE_LOG_CAPACITY + 5 {
            log.push(site);
        }
        assert_eq!(log.len(), SITE_LOG_CAPACITY + 5);
        assert!(log.sites().eq(1..=SITE_LOG_CAPACITY));
    }

    #[test]
    fn text_line_parses_into_a_file_mapping() {
        let mut m = FileMapping::empty();
        let line = b"7f12a0028000-7f12a01bd000 r-xp 00028000 fd:01 1234567                    /usr/lib/x86_64-linux-gnu/libc.so.6";
        assert!(parse_file_mapping(line, &mut m));
        assert_eq!(
            (m.start, m.end, m.offset),
            (0x7f12a0028000, 0x7f12a01bd000, 0x28000)
        );
        assert_eq!((m.dev, m.inode), ((0xfd, 1), 1234567));
        assert_eq!(m.path(), b"/usr/lib/x86_64-linux-gnu/libc.so.6");
        assert_eq!(m.file_offset(0x7f12a0028010), Some(0x28010));
        assert_eq!(m.file_offset(0x7f12a0027fff), None);
        assert_eq!(m.file_offset(0x7f12a01bd000), None);
        for other in [
            &b"7f12a0000000-7f12a0028000 r--p 00000000 fd:01 1234567 /usr/lib/libc.so.6"[..],
            b"7ffd1000-7ffd3000 r-xp 00000000 00:00 0                          [vdso]",
            b"7f0000000000-7f0000001000 rwxp 00000000 00:00 0 ",
            b"garbage",
        ] {
            assert!(
                !parse_file_mapping(other, &mut m),
                "{}",
                String::from_utf8_lossy(other)
            );
        }
    }

    /// `(start, end, offset, dev, inode, path)`.
    type Seen = (usize, usize, u64, (u32, u32), u64, Vec<u8>);

    /// Every executable file mapping `from` reports.
    fn walk(from: impl Fn(&mut dyn FnMut(&FileMapping))) -> Vec<Seen> {
        let mut out = Vec::new();
        from(&mut |m: &FileMapping| {
            out.push((m.start, m.end, m.offset, m.dev, m.inode, m.path().to_vec()))
        });
        out
    }

    #[test]
    fn procmap_query_and_text_walk_agree() {
        let maps = Maps::open().unwrap();
        let queried = walk(|f| {
            maps.exec_files(|m| {
                let mut m = m.clone();
                maps.describe(&mut m).unwrap();
                f(&m);
            })
            .unwrap()
        });
        let text = walk(|f| {
            let fd = MapsFd::open().unwrap();
            let mut m = FileMapping::empty();
            scan_maps_text::<{ PATH_CAPACITY + 128 }, ()>(fd.0, |line| {
                if parse_file_mapping(line, &mut m) {
                    f(&m);
                }
                None
            })
            .unwrap();
        });
        // This test's own text is one of them.
        let here = procmap_query_and_text_walk_agree as *const () as usize;
        assert!(
            queried.iter().any(|m| (m.0..m.1).contains(&here)),
            "{queried:#x?}"
        );
        assert!(queried.iter().all(|m| m.5.starts_with(b"/")));
        // Other tests map and unmap executable pages meanwhile, but
        // never file-backed ones: the two walks see the same files.
        assert_eq!(queried, text);
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
