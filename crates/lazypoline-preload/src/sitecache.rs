//! The proven-site cache: a site the kernel proved in one process is
//! patched at the next load of the same file, with no `SIGSYS`.
//!
//! One entry per program, named `<major>-<minor>-<inode>.sites` (hex)
//! after the file it was started from (`AT_EXECFN`), so a program's warm
//! set is the sites *it* proved, not every site any program ever proved
//! in libc: each site patched at load copies its page, and a union over
//! programs makes every exec copy pages it never runs (DESIGN.md §2). The
//! name only locates the entry; what it holds is checked. An entry holds
//! one record per object (executable file) the program patched sites
//! in, keyed by that file's identity: device and inode as the mapping
//! reports them, size and mtime (ns) of the file its path still names —
//! the same inode, or the object is never cached — and the GNU build-id
//! when the kernel reports one. A record lists the file offsets where a
//! process rewrote `0f 05` to `ff d0`: `SIGSYS`-proved anchors and the
//! sites the batch sweep verified forward from them.
//!
//! * **Read** ([`SiteCache::open`]): in the constructor, before the
//!   install, so no layer sees it. A record applies only if its key is
//!   the mapped file's and every one of its offsets reads `0f 05` in an
//!   executable mapping of the object; a record that fails either is
//!   dropped from the entry and nothing of that object is patched.
//!   Buffers are `mmap`ed, never the application's heap. With no entry
//!   (a cold start) it is a `statx` and an `open`: no buffers, no look at
//!   the mappings.
//! * **Apply** ([`Proven::apply`]): right after the install, on the
//!   engine's private path (`proven::privately`, the re-entry guard),
//!   one patch window per mapping.
//! * **Write** ([`SiteCache::write`]): when the window closes at
//!   `exit_group`, from dispatch context, in the installing process
//!   only, and only if this run rewrote a site its entry lacks — and,
//!   for a program with no entry yet, only if it took at least
//!   [`MIN_TRIPS`] `SIGSYS`: fewer cost less than a warm read. The union
//!   with what is on disk goes to a temp file, then `rename`. A logged
//!   site counts only if it still reads `ff d0` and its object has not
//!   changed (ctime) since the constructor ran: then the offset was
//!   proved in the bytes the key describes, not in an object unmapped
//!   since or in a file rewritten under the process.
//!
//! The directory is `LP_SITE_CACHE`, or `/tmp/lazypoline-<euid>` when
//! unset; `off` disables the cache. The first write creates it 0700; it
//! is used only if it is a real directory owned by the euid and not
//! writable by group or others. Entries are held to the same rules and
//! opened `O_NOFOLLOW | O_CLOEXEC`. Anything else runs with no cache,
//! which the `LAZYPOLINE_STATS` dump says. DESIGN.md §2, "Proven-site
//! cache".

use std::os::unix::ffi::OsStrExt;
use std::sync::atomic::{AtomicUsize, Ordering};

use lazypoline::proven::{self, FileMapping, Mapping, Maps, RegionPerms};
use syscalls::{nr, raw, Errno, SyscallArgs};

/// The rows whose slow path batch-rewrites; the others neither read nor
/// write the cache.
const ROWS: [&str; 4] = [
    "lazypoline",
    "lazypoline-nox",
    "zpoline",
    "lazypoline-hardened",
];

/// `SIGSYS` trips a run must have taken to create its program's entry.
/// A warm read and apply cost about three (≈ 40 µs against ≈ 13 µs a
/// trip): `/bin/true`, one trip, runs slower warm than cold.
pub const MIN_TRIPS: u64 = 4;

/// An entry starts with these bytes, then its record count (u64).
pub const MAGIC: [u8; 8] = *b"LPSITES2";
const FILE_HEADER: usize = MAGIC.len() + 8;
/// A record's key: dev major, minor (u32 each), inode, size (u64), mtime
/// seconds (i64), nanoseconds, build-id length (u32 each), build-id (32
/// bytes, zero-padded). The offset count (u64) follows, then the
/// offsets, each a little-endian u64, strictly ascending.
const KEY_LEN: usize = 72;
const RECORD_HEADER: usize = KEY_LEN + 8;

/// Offsets per entry, and sites per process.
const MAX_SITES: usize = 1 << 16;
const MAX_MAPS: usize = 512;
/// Objects per process, and records per entry.
const MAX_OBJECTS: usize = 128;
const MAX_FILE: usize = FILE_HEADER + MAX_OBJECTS * RECORD_HEADER + 8 * MAX_SITES;
/// Entries the directory keeps; the oldest beyond are evicted.
const MAX_ENTRIES: usize = 256;
/// Directory entries eviction looks at.
const MAX_LISTED: usize = 1024;

const SYSCALL: [u8; 2] = [0x0f, 0x05];
const CALL_RAX: [u8; 2] = [0xff, 0xd0];

/// Objects [`Proven::apply`] patched at least one site of.
static OBJECTS_APPLIED: AtomicUsize = AtomicUsize::new(0);

const AT_FDCWD: u64 = -100i64 as u64;
const AT_SYMLINK_NOFOLLOW: u64 = 0x100;
const AT_EMPTY_PATH: u64 = 0x1000;
const O_WRONLY: u64 = 0o1;
const O_CREAT: u64 = 0o100;
const O_EXCL: u64 = 0o200;
const O_DIRECTORY: u64 = 0o200000;
const O_NOFOLLOW: u64 = 0o400000;
const O_CLOEXEC: u64 = 0o2000000;
const S_IFMT: u32 = 0o170000;
const S_IFDIR: u32 = 0o040000;
const S_IFREG: u32 = 0o100000;
const S_IFLNK: u32 = 0o120000;

/// A NUL-terminated path of at most `N - 1` bytes, in a fixed buffer.
#[derive(Clone)]
struct CPath<const N: usize> {
    buf: [u8; N],
    len: usize,
}

/// A mapped file's path.
type Path = CPath<4097>;
/// The cache directory's path: short, so the configuration the shim
/// keeps for the life of the process stays small.
type DirPath = CPath<256>;
/// An entry's name (or its temp file's).
type Name = CPath<64>;

impl<const N: usize> CPath<N> {
    fn new() -> Self {
        CPath {
            buf: [0; N],
            len: 0,
        }
    }

    fn push(&mut self, bytes: &[u8]) -> Option<&mut Self> {
        let end = self.len.checked_add(bytes.len()).filter(|&e| e < N)?;
        self.buf[self.len..end].copy_from_slice(bytes);
        self.len = end;
        self.buf[end] = 0;
        Some(self)
    }

    fn push_num(&mut self, mut v: u64, radix: u64) -> Option<&mut Self> {
        let mut digits = [0u8; 20];
        let mut i = digits.len();
        loop {
            i -= 1;
            digits[i] = b"0123456789abcdef"[(v % radix) as usize];
            v /= radix;
            if v == 0 {
                break;
            }
        }
        self.push(&digits[i..])
    }

    fn ptr(&self) -> u64 {
        self.buf.as_ptr() as u64
    }

    fn bytes(&self) -> &[u8] {
        &self.buf[..self.len]
    }
}

/// A descriptor, closed on drop.
struct Fd(u64);

impl Drop for Fd {
    fn drop(&mut self) {
        // SAFETY: closing a descriptor we opened.
        unsafe { raw::syscall1(nr::CLOSE, self.0) };
    }
}

fn openat(dir: u64, path: u64, flags: u64, mode: u64) -> Result<Fd, Errno> {
    // SAFETY: `path` points at a NUL-terminated buffer the caller owns.
    Errno::result(unsafe { raw::syscall4(nr::OPENAT, dir, path, flags | O_CLOEXEC, mode) }).map(Fd)
}

fn unlinkat(dir: &Fd, name: u64) {
    // SAFETY: a NUL-terminated name relative to `dir`.
    unsafe { raw::syscall3(nr::UNLINKAT, dir.0, name, 0) };
}

/// A file time: seconds, nanoseconds.
type Time = (i64, u32);

/// What the cache needs of a `statx`.
struct Stat {
    mode: u32,
    uid: u32,
    ino: u64,
    size: u64,
    ctime: Time,
    mtime: Time,
    dev: (u32, u32),
}

fn statx(dir: u64, path: u64, flags: u64) -> Result<Stat, Errno> {
    const STATX_BASIC_STATS: u64 = 0x7ff;
    let mut b = [0u64; 32];
    // SAFETY: the kernel writes 256 bytes of `struct statx` into `b`.
    let r = unsafe {
        raw::syscall5(
            nr::STATX,
            dir,
            path,
            flags,
            STATX_BASIC_STATS,
            b.as_mut_ptr() as u64,
        )
    };
    Errno::result(r)?;
    let u64_at = |at: usize| b[at / 8];
    let u32_at = |at: usize| (b[at / 8] >> (8 * (at % 8))) as u32;
    Ok(Stat {
        uid: u32_at(20),
        mode: u32_at(28) & 0xffff,
        ino: u64_at(32),
        size: u64_at(40),
        ctime: (u64_at(96) as i64, u32_at(104)),
        mtime: (u64_at(112) as i64, u32_at(120)),
        dev: (u32_at(136), u32_at(140)),
    })
}

fn fstat(fd: &Fd) -> Result<Stat, Errno> {
    statx(fd.0, c"".as_ptr() as u64, AT_EMPTY_PATH)
}

fn geteuid() -> u32 {
    // SAFETY: no arguments, cannot fail.
    unsafe { raw::syscall0(nr::GETEUID) as u32 }
}

/// The wall clock as file times read it: coarse, so a file changed from
/// now on has a ctime no earlier than this.
fn coarse_now() -> Time {
    const CLOCK_REALTIME_COARSE: i32 = 5;
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut [i64; 2]) -> i32;
    }
    let mut ts = [0i64; 2];
    // SAFETY: clock_gettime(3) writes one timespec (the vDSO; no syscall).
    unsafe { clock_gettime(CLOCK_REALTIME_COARSE, &mut ts) };
    (ts[0], ts[1] as u32)
}

/// Ours and not writable by anyone else: the one rule for the directory
/// and for every entry in it.
fn owned_safely(st: &Stat) -> Result<(), &'static str> {
    if st.uid != geteuid() {
        return Err("owned by another user");
    }
    if st.mode & 0o022 != 0 {
        return Err("writable by group or others");
    }
    Ok(())
}

/// The cache as the constructor found it.
pub(crate) struct SiteCache {
    dir: DirPath,
    /// The running program's entry.
    entry: Name,
    /// When the constructor ran: an object changed since is not keyed.
    started: Time,
    /// Why there is no cache; `None` while there is one.
    off: Option<&'static str>,
}

impl SiteCache {
    /// The cache for mechanism `name` in directory `dir` (`None`:
    /// `LP_SITE_CACHE=off`), and the sites it holds for this program,
    /// checked against the mapped bytes: on (the directory passed every
    /// check, and the slow path logs what it rewrites from now on) or
    /// off, with why. Before the install: none of this is the
    /// application's flow.
    pub(crate) fn open(name: &str, dir: Option<&std::path::Path>) -> (SiteCache, Option<Proven>) {
        let row = name.split('+').next().unwrap_or_default();
        let mut cache = SiteCache {
            dir: DirPath::new(),
            entry: Name::new(),
            started: coarse_now(),
            off: None,
        };
        let mut proven = None;
        cache.off = match dir {
            None => Some("LP_SITE_CACHE=off"),
            Some(_) if !ROWS.contains(&row) => Some("this row does not batch-rewrite"),
            Some(dir) => cache.read(dir).map(|p| proven = p).err(),
        };
        if cache.off.is_none() {
            proven::log_patched_sites();
        }
        (cache, proven)
    }

    fn set_dir(&mut self, dir: &std::path::Path) -> Result<(), &'static str> {
        self.dir
            .push(dir.as_os_str().as_bytes())
            .map(drop)
            .ok_or("directory path too long")
    }

    /// The directory, opened and checked: a real directory (not a
    /// symlink), ours, not group- or other-writable. A missing one is
    /// created 0700 when `create`, and `Ok(None)` otherwise.
    fn open_dir(&self, create: bool) -> Result<Option<Fd>, &'static str> {
        let open = || openat(AT_FDCWD, self.dir.ptr(), O_DIRECTORY | O_NOFOLLOW, 0);
        let opened = match open() {
            Err(Errno::ENOENT) if !create => return Ok(None),
            Err(Errno::ENOENT) => {
                // SAFETY: mkdir(2) with a NUL-terminated path.
                unsafe { raw::syscall2(nr::MKDIR, self.dir.ptr(), 0o700) };
                open()
            }
            opened => opened,
        };
        let fd = opened.map_err(|e| {
            // A symlink fails as ENOTDIR (or ELOOP): ask which it is.
            let link = statx(AT_FDCWD, self.dir.ptr(), AT_SYMLINK_NOFOLLOW)
                .is_ok_and(|st| st.mode & S_IFMT == S_IFLNK);
            match e {
                _ if link => "a symlink",
                Errno::ENOTDIR => "not a directory",
                _ => "cannot be opened",
            }
        })?;
        let st = fstat(&fd).map_err(|_| "cannot be opened")?;
        if st.mode & S_IFMT != S_IFDIR {
            return Err("not a directory");
        }
        owned_safely(&st)?;
        Ok(Some(fd))
    }

    /// The dump's `site cache` line, given the `sites_from_cache` count.
    pub(crate) fn status(&self, sites: u64) -> String {
        let dir = String::from_utf8_lossy(self.dir.bytes());
        match self.off {
            None => format!(
                "{dir} ({sites} sites from {} objects)",
                OBJECTS_APPLIED.load(Ordering::Relaxed)
            ),
            Some(why) if dir.is_empty() => format!("off ({why})"),
            Some(why) => format!("off ({dir}: {why})"),
        }
    }

    /// Names this program's entry and stages every record of it that
    /// checks out; `Ok(None)` when there is no entry yet. A record that
    /// does not check out is dropped from the entry.
    fn read(&mut self, dir: &std::path::Path) -> Result<Option<Proven>, &'static str> {
        self.set_dir(dir)?;
        // The entry is named after the file the program was started
        // from. A name only: each record is checked against the mappings.
        // SAFETY: getauxval(3) reads the auxiliary vector; AT_EXECFN is
        // a NUL-terminated path (or 0, which statx refuses).
        let program = statx(AT_FDCWD, unsafe { libc::getauxval(libc::AT_EXECFN) }, 0)
            .map_err(|_| "the program's file cannot be found")?;
        self.entry = entry_name(program.dev, program.ino);
        // A cold start ends here: no buffers, no look at the mappings.
        let Some(dir) = self.open_dir(false)? else {
            return Ok(None);
        };
        let Some((fd, len)) = open_entry(&dir, &self.entry) else {
            return Ok(None);
        };
        let maps = Maps::open().map_err(|_| "/proc/self/maps cannot be read")?;
        let mut arena = Arena::map().ok_or("no memory")?;
        let a = &mut *arena;
        if !a.read_file(&fd, len) {
            // Malformed: the next write replaces it.
            return Ok(None);
        }
        a.walk(&maps);
        let (mut kept, mut records, mut dropped) = (FILE_HEADER, 0u64, false);
        let mut at = FILE_HEADER;
        while at < len {
            let (record, next) = (at, record_end(&a.file, at));
            at = next;
            if a.stage_record(&maps, record) {
                // Kept records are compacted in place, in file order.
                a.file.copy_within(record..next, kept);
                kept += next - record;
                records += 1;
            } else {
                dropped = true;
            }
        }
        if dropped {
            // A stale or forged record is never patched, and goes now.
            a.file[MAGIC.len()..FILE_HEADER].copy_from_slice(&records.to_le_bytes());
            if records == 0 {
                unlinkat(&dir, self.entry.ptr());
            } else {
                write_file(&dir, &self.entry, &a.file[..kept]);
            }
        }
        Ok((a.n_groups > 0).then_some(Proven { arena }))
    }

    /// Adds the sites this process rewrote to the program's entry, given
    /// the run's `SIGSYS` `trips`. At `exit_group`, from dispatch
    /// context, in the installing process only. Writes nothing unless
    /// some record gains a site, and creates no entry for a run of fewer
    /// than [`MIN_TRIPS`] trips.
    pub(crate) fn write(&self, trips: u64) {
        if self.off.is_some() || proven::patched_sites().next().is_none() {
            return;
        }
        let Ok(Some(dir)) = self.open_dir(trips >= MIN_TRIPS) else {
            return;
        };
        let existing = open_entry(&dir, &self.entry);
        if existing.is_none() && trips < MIN_TRIPS {
            return;
        }
        let (Ok(maps), Some(mut arena)) = (Maps::open(), Arena::map()) else {
            return;
        };
        let a = &mut *arena;
        for site in proven::patched_sites().take(MAX_SITES) {
            a.sites[a.n_sites] = site;
            a.n_sites += 1;
        }
        a.sites[..a.n_sites].sort_unstable();
        a.collect_offsets(&maps, self.started);
        let len = existing
            .filter(|(fd, len)| a.read_file(fd, *len))
            .map(|(_, len)| len);
        if a.merge(len.unwrap_or(0)) == Some(true) {
            write_file(&dir, &self.entry, &a.out[..a.out_len]);
            if len.is_none() {
                a.evict(&dir);
            }
        }
        // The process ends right after this: its exit unmaps the arena
        // for free, an `munmap` now would cost a TLB flush.
        std::mem::forget(arena);
    }
}

/// Sites checked against this process's bytes, waiting for the install.
pub(crate) struct Proven {
    arena: ArenaMap,
}

impl Proven {
    /// Patches every staged site, on the engine's private syscall path.
    /// Right after the install.
    pub(crate) fn apply(self) {
        proven::privately(move || {
            let a = &*self.arena;
            let mut applied = [false; MAX_OBJECTS];
            for g in &a.groups[..a.n_groups] {
                let map = &a.maps[g.map];
                // SAFETY: every site was proved or sweep-verified in a
                // file with this key, and read `0f 05` when staged.
                let patched =
                    unsafe { proven::apply_proven_sites(&a.sites[g.from..g.to], map.perms) };
                applied[map.obj] |= patched.is_ok_and(|n| n > 0);
            }
            let objects = applied.iter().filter(|&&o| o).count();
            OBJECTS_APPLIED.fetch_add(objects, Ordering::Relaxed);
            // The arena is unmapped here, still on the private path.
            drop(self);
        });
    }
}

/// One executable mapping of an object.
#[derive(Clone, Copy)]
struct Map {
    start: usize,
    end: usize,
    offset: u64,
    perms: RegionPerms,
    obj: usize,
}

/// An object's device and inode.
type ObjId = ((u32, u32), u64);

/// One object (file) with at least one executable mapping.
#[derive(Clone, Copy)]
struct Obj {
    dev: (u32, u32),
    ino: u64,
    /// Never cached: see [`cacheable`]; also (write) one that cannot be
    /// keyed.
    uncached: bool,
    /// Its first mapping (read).
    map: usize,
    /// This run's offsets, `offs[first_off..first_off + n_offs]` (write).
    first_off: usize,
    n_offs: usize,
    /// Its key (write).
    key: [u8; KEY_LEN],
    /// Its record is in the output already (write).
    merged: bool,
}

/// Staged sites `sites[from..to]`, all in `maps[map]`.
#[derive(Clone, Copy)]
struct Group {
    map: usize,
    from: usize,
    to: usize,
}

/// Every buffer the cache uses, in one anonymous mapping: never the
/// application's heap (or much of its stack), and resident only as far
/// as it is touched. All zeroes is a valid value.
struct Arena {
    maps: [Map; MAX_MAPS],
    n_maps: usize,
    objs: [Obj; MAX_OBJECTS],
    n_objs: usize,
    /// Staged sites (read), or the logged ones, sorted (write).
    sites: [usize; MAX_SITES],
    n_sites: usize,
    groups: [Group; MAX_MAPS],
    n_groups: usize,
    /// This run's `(object, file offset)`s, sorted (write).
    offs: [(usize, u64); MAX_SITES],
    /// The entry as read.
    file: [u8; MAX_FILE],
    /// The entry as it is to be written; also eviction's `getdents64`
    /// buffer.
    out: [u8; MAX_FILE],
    out_len: usize,
    /// Eviction's view of the directory: names and mtimes.
    listed: [([u8; 64], Time); MAX_LISTED],
}

struct ArenaMap(*mut Arena);

impl std::ops::Deref for ArenaMap {
    type Target = Arena;
    fn deref(&self) -> &Arena {
        // SAFETY: a live, zero-filled (so valid) mapping of one `Arena`.
        unsafe { &*self.0 }
    }
}

impl std::ops::DerefMut for ArenaMap {
    fn deref_mut(&mut self) -> &mut Arena {
        // SAFETY: as above, and this is its only handle.
        unsafe { &mut *self.0 }
    }
}

impl Drop for ArenaMap {
    fn drop(&mut self) {
        // From the gate: this runs on the engine's private path, where
        // a call from the shim's text would take a SIGSYS on every warm
        // run to rewrite its site.
        let len = std::mem::size_of::<Arena>() as u64;
        let unmap = SyscallArgs::new(nr::MUNMAP, [self.0 as u64, len, 0, 0, 0, 0]);
        // SAFETY: unmapping the mapping `Arena::map` made.
        unsafe { zpoline::gate_syscall(&unmap) };
    }
}

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
}

/// Where the record at `at` of a checked entry ends.
fn record_end(file: &[u8], at: usize) -> usize {
    at + RECORD_HEADER + 8 * u64_at(file, at + KEY_LEN) as usize
}

/// A record's object, from its key.
fn record_object(key: &[u8]) -> ObjId {
    let u32_at = |at| u32::from_le_bytes(key[at..at + 4].try_into().expect("4 bytes"));
    ((u32_at(0), u32_at(4)), u64_at(key, 8))
}

/// Whether `file` is a well-formed entry: its records fill it exactly,
/// their count is the header's, each record's offsets strictly ascend.
fn well_formed(file: &[u8]) -> bool {
    if file.len() < FILE_HEADER || file[..MAGIC.len()] != MAGIC {
        return false;
    }
    let mut at = FILE_HEADER;
    let mut records = 0u64;
    while at < file.len() {
        let Some(n) = file
            .get(at + KEY_LEN..at + RECORD_HEADER)
            .map(|b| u64_at(b, 0))
        else {
            return false;
        };
        let offs = at + RECORD_HEADER;
        let end = usize::try_from(n)
            .ok()
            .and_then(|n| n.checked_mul(8))
            .and_then(|b| b.checked_add(offs));
        let Some(end) = end.filter(|&end| end <= file.len()) else {
            return false;
        };
        if !(offs + 8..end)
            .step_by(8)
            .all(|i| u64_at(file, i - 8) < u64_at(file, i))
        {
            return false;
        }
        at = end;
        records += 1;
    }
    records == u64_at(file, MAGIC.len())
}

impl Arena {
    fn map() -> Option<ArenaMap> {
        const MAP_NORESERVE: u64 = 0x4000;
        let len = std::mem::size_of::<Arena>() as u64;
        let prot = (libc::PROT_READ | libc::PROT_WRITE) as u64;
        let flags = (libc::MAP_PRIVATE | libc::MAP_ANONYMOUS) as u64 | MAP_NORESERVE;
        // SAFETY: a fresh anonymous mapping, unmapped on drop.
        let p = unsafe { raw::syscall6(nr::MMAP, 0, len, prot, flags, u64::MAX, 0) };
        Errno::result(p).ok().map(|p| ArenaMap(p as *mut Arena))
    }

    /// The index of object `(dev, ino)` in `objs`, added if new (with
    /// whether it was); `None` once `objs` is full.
    fn object(&mut self, dev: (u32, u32), ino: u64) -> Option<(usize, bool)> {
        if let Some(known) = self.objs[..self.n_objs]
            .iter()
            .position(|o| (o.dev, o.ino) == (dev, ino))
        {
            return Some((known, false));
        }
        if self.n_objs == MAX_OBJECTS {
            return None;
        }
        self.objs[self.n_objs] = Obj {
            dev,
            ino,
            uncached: false,
            map: self.n_maps,
            first_off: 0,
            n_offs: 0,
            key: [0; KEY_LEN],
            merged: false,
        };
        self.n_objs += 1;
        Some((self.n_objs - 1, true))
    }

    /// Walks the executable file mappings into `maps` and `objs`.
    fn walk(&mut self, maps: &Maps) {
        let own = own_object(maps);
        let _ = maps.exec_files(|m| {
            if self.n_maps == MAX_MAPS {
                return;
            }
            let m = &m.map;
            let Some((obj, _)) = self.object(m.dev, m.inode) else {
                return;
            };
            self.objs[obj].uncached |= !cacheable(m, own);
            self.maps[self.n_maps] = Map {
                start: m.start,
                end: m.end,
                offset: m.offset,
                perms: m.perms,
                obj,
            };
            self.n_maps += 1;
        });
    }

    /// Reads the `len` bytes of an [`open_entry`] into `file`; whether
    /// they are a well-formed entry.
    fn read_file(&mut self, fd: &Fd, len: usize) -> bool {
        let mut got = 0;
        while got < len {
            let buf = &mut self.file[got..len];
            // SAFETY: reading into our own buffer.
            let r =
                unsafe { raw::syscall3(nr::READ, fd.0, buf.as_mut_ptr() as u64, buf.len() as u64) };
            match Errno::result(r) {
                Ok(0) | Err(_) => return false,
                Ok(r) => got += r as usize,
            }
        }
        well_formed(&self.file[..len])
    }

    /// Stages the sites of the record at `at` in `file`, if it is for an
    /// object mapped here with the same key (its first mapping's path
    /// still names the file) and every one of its offsets is a `0f 05`
    /// in an executable mapping of the object; `false` (the record is to
    /// be dropped), with nothing staged, otherwise. A record of an object
    /// not mapped here is kept, unstaged.
    fn stage_record(&mut self, maps: &Maps, at: usize) -> bool {
        let key = &self.file[at..at + KEY_LEN];
        let (dev, ino) = record_object(key);
        let Some(obj) = self.objs[..self.n_objs]
            .iter()
            .position(|o| (o.dev, o.ino) == (dev, ino))
        else {
            return true;
        };
        let o = self.objs[obj];
        if o.uncached {
            return true;
        }
        let map = &self.maps[o.map];
        let mut m = FileMapping::empty();
        (m.map.start, m.map.end, m.map.offset) = (map.start, map.end, map.offset);
        (m.map.dev, m.map.inode) = (o.dev, o.ino);
        let current = maps.describe(&mut m).ok().and_then(|()| key_of(&m));
        if current.is_none_or(|(current, _)| current[..] != *key) {
            return false;
        }
        self.stage_offsets(obj, at)
    }

    /// Stages every offset of the record at `at` in `file` as a site of
    /// object `obj`, or none: `false` if one of them is not a `0f 05` in
    /// an executable mapping of the object.
    fn stage_offsets(&mut self, obj: usize, at: usize) -> bool {
        let (sites_before, groups_before) = (self.n_sites, self.n_groups);
        let (first, end) = (at + RECORD_HEADER, record_end(&self.file, at));
        let ok = (first..end).step_by(8).all(|i| {
            let off = u64_at(&self.file, i);
            self.stage_site(obj, off, groups_before)
        });
        if !ok {
            self.n_sites = sites_before;
            self.n_groups = groups_before;
        }
        ok
    }

    fn stage_site(&mut self, obj: usize, off: u64, groups_before: usize) -> bool {
        let found = self.maps[..self.n_maps]
            .iter()
            .enumerate()
            .find_map(|(i, map)| {
                let rel = usize::try_from(off.checked_sub(map.offset)?).ok()?;
                (map.obj == obj && rel.checked_add(2)? <= map.end - map.start)
                    .then(|| (i, map.start + rel))
            });
        let Some((map, site)) = found else {
            return false;
        };
        // SAFETY: both bytes lie in a mapping that is readable (and
        // executable) and stays mapped while the constructor runs.
        if unsafe { (site as *const [u8; 2]).read() } != SYSCALL || self.n_sites == MAX_SITES {
            return false;
        }
        let extends = self.n_groups > groups_before && self.groups[self.n_groups - 1].map == map;
        if !extends {
            if self.n_groups == MAX_MAPS {
                return false;
            }
            self.groups[self.n_groups] = Group {
                map,
                from: self.n_sites,
                to: self.n_sites,
            };
            self.n_groups += 1;
        }
        self.sites[self.n_sites] = site;
        self.n_sites += 1;
        self.groups[self.n_groups - 1].to += 1;
        true
    }

    /// Turns the logged sites (sorted) into `(object, file offset)`s,
    /// sorted, and keys the objects: one query per mapping that holds any
    /// (not a walk of every mapping), one key per object. Patch windows
    /// leave a library's text split into several mappings of one object.
    /// A site is kept only if it still reads `ff d0` — what is mapped
    /// there now is what this process patched — and its object only if it
    /// has not changed since `started`.
    fn collect_offsets(&mut self, maps: &Maps, started: Time) {
        let own = own_object(maps);
        let mut m = FileMapping::empty();
        let (mut i, mut n) = (0, 0);
        while i < self.n_sites {
            let site = self.sites[i];
            if maps.file_at(site, &mut m) != Ok(true) || site + 2 > m.map.end {
                // Anonymous (JIT) text: the rest of its page is, too.
                i += self.sites[i..self.n_sites].partition_point(|&s| s <= site | 4095);
                continue;
            }
            let held = i..i + self.sites[i..self.n_sites].partition_point(|&s| s + 2 <= m.map.end);
            i = held.end;
            let Some((obj, new)) = self.object(m.map.dev, m.map.inode) else {
                continue;
            };
            let o = &mut self.objs[obj];
            if new {
                let key = maps.describe(&mut m).ok().and_then(|()| key_of(&m));
                match key.filter(|&(_, ctime)| ctime < started) {
                    Some((key, _)) => o.key = key,
                    None => o.uncached = true,
                }
            }
            o.uncached |= !cacheable(&m.map, own);
            if o.uncached {
                continue;
            }
            for &site in &self.sites[held] {
                // SAFETY: the mapping holds both bytes and is readable
                // (`cacheable`).
                if unsafe { (site as *const [u8; 2]).read() } == CALL_RAX {
                    self.offs[n] = (obj, m.map.offset + (site - m.map.start) as u64);
                    n += 1;
                }
            }
        }
        let offs = &mut self.offs[..n];
        offs.sort_unstable();
        let n = dedup(offs);
        let offs = &self.offs[..n];
        for (obj, o) in self.objs[..self.n_objs].iter_mut().enumerate() {
            o.first_off = offs.partition_point(|&(of, _)| of < obj);
            o.n_offs = offs[o.first_off..].partition_point(|&(of, _)| of == obj);
        }
    }

    /// Builds in `out` the entry that unites the first `len` bytes of
    /// `file` (a checked entry, or nothing) with this run's offsets;
    /// whether it holds a site `file` lacks (`None`: it does not fit).
    fn merge(&mut self, len: usize) -> Option<bool> {
        let mut out = Out {
            buf: &mut self.out,
            len: FILE_HEADER,
            records: 0,
        };
        let mut gained = false;
        let mut at = FILE_HEADER.min(len);
        while at < len {
            let end = record_end(&self.file, at);
            let key = &self.file[at..at + KEY_LEN];
            let (dev, ino) = record_object(key);
            let ours = self.objs[..self.n_objs]
                .iter_mut()
                .find(|o| o.n_offs > 0 && !o.uncached && !o.merged && (o.dev, o.ino) == (dev, ino));
            let old = (at + RECORD_HEADER..end)
                .step_by(8)
                .map(|i| u64_at(&self.file, i));
            match ours {
                None => {
                    out.record(key, old)?;
                }
                Some(o) => {
                    o.merged = true;
                    let new = self.offs[o.first_off..o.first_off + o.n_offs]
                        .iter()
                        .map(|&(_, off)| off);
                    // The same file: the union. Another one under the
                    // same inode: this run's sites replace the old.
                    gained |= if o.key[..] == *key {
                        out.record(&o.key, union(old, new))? > (end - at - RECORD_HEADER) / 8
                    } else {
                        out.record(&o.key, new).is_some()
                    };
                }
            }
            at = end;
        }
        for o in self.objs[..self.n_objs]
            .iter()
            .filter(|o| o.n_offs > 0 && !o.uncached && !o.merged)
        {
            let new = self.offs[o.first_off..o.first_off + o.n_offs]
                .iter()
                .map(|&(_, off)| off);
            out.record(&o.key, new)?;
            gained = true;
        }
        let (records, len) = (out.records, out.len);
        self.out[..MAGIC.len()].copy_from_slice(&MAGIC);
        self.out[MAGIC.len()..FILE_HEADER].copy_from_slice(&records.to_le_bytes());
        self.out_len = len;
        Some(gained)
    }

    /// Unlinks the oldest entries (and stale temp files) past
    /// [`MAX_ENTRIES`]. A directory of one 4 KiB block holds fewer
    /// (≤ ~200 names of ≥ 11 bytes on ext4, tmpfs or btrfs), so until it
    /// outgrows that, a new entry costs one `fstat`, not a listing.
    fn evict(&mut self, dir: &Fd) {
        if fstat(dir).is_ok_and(|st| st.size <= 4096) {
            return;
        }
        let (listed, mut n) = (&mut self.listed, 0);
        list(dir, &mut self.out, |name| {
            let ours = name.ends_with(b".sites") || name.ends_with(b".tmp");
            if ours && name.len() < 64 && n < MAX_LISTED {
                listed[n].0[..name.len()].copy_from_slice(name);
                n += 1;
            }
        });
        // Only a directory past the bound pays a `statx` per entry.
        if n > MAX_ENTRIES {
            for (name, mtime) in &mut self.listed[..n] {
                *mtime = statx(dir.0, name.as_ptr() as u64, AT_SYMLINK_NOFOLLOW)
                    .map_or((0, 0), |st| st.mtime);
            }
            self.listed[..n].sort_unstable_by_key(|&(_, mtime)| mtime);
            for (name, _) in &self.listed[..n - MAX_ENTRIES] {
                unlinkat(dir, name.as_ptr() as u64);
            }
        }
    }
}

/// An entry being built: records appended after the header.
struct Out<'a> {
    buf: &'a mut [u8],
    len: usize,
    records: u64,
}

impl Out<'_> {
    /// Appends a record; its offset count, or `None` when the entry
    /// would outgrow [`MAX_FILE`] or [`MAX_OBJECTS`] records.
    fn record(&mut self, key: &[u8], offs: impl Iterator<Item = u64>) -> Option<usize> {
        if self.records as usize == MAX_OBJECTS || self.len + RECORD_HEADER > self.buf.len() {
            return None;
        }
        let head = self.len;
        self.buf[head..head + KEY_LEN].copy_from_slice(key);
        self.len += RECORD_HEADER;
        let mut n = 0;
        for off in offs {
            self.buf
                .get_mut(self.len..self.len + 8)?
                .copy_from_slice(&off.to_le_bytes());
            self.len += 8;
            n += 1;
        }
        self.buf[head + KEY_LEN..head + RECORD_HEADER].copy_from_slice(&(n as u64).to_le_bytes());
        self.records += 1;
        Some(n)
    }
}

/// Feeds the name of every entry of `dir` to `f`, listed through `buf`.
fn list(dir: &Fd, buf: &mut [u8], mut f: impl FnMut(&[u8])) {
    loop {
        // SAFETY: the kernel fills our buffer with `linux_dirent64`s.
        let r = unsafe {
            raw::syscall3(
                nr::GETDENTS64,
                dir.0,
                buf.as_mut_ptr() as u64,
                buf.len() as u64,
            )
        };
        let len = match Errno::result(r) {
            Ok(0) | Err(_) => return,
            Ok(len) => len as usize,
        };
        let mut at = 0;
        // d_ino (8), d_off (8), d_reclen (2), d_type (1), d_name.
        while at + 19 < len {
            let reclen = usize::from(u16::from_le_bytes([buf[at + 16], buf[at + 17]]));
            let record = &buf[at + 19..(at + reclen).min(len)];
            f(&record[..record.iter().position(|&b| b == 0).unwrap_or(record.len())]);
            at += reclen.max(1);
        }
    }
}

/// Drops repeats from an ascending slice, in place; the new length.
fn dedup<T: PartialEq + Copy>(xs: &mut [T]) -> usize {
    let mut n = 0;
    for i in 0..xs.len() {
        if n == 0 || xs[n - 1] != xs[i] {
            xs[n] = xs[i];
            n += 1;
        }
    }
    n
}

/// The union of two ascending lists, without repeats.
fn union(a: impl Iterator<Item = u64>, b: impl Iterator<Item = u64>) -> impl Iterator<Item = u64> {
    let (mut a, mut b) = (a.peekable(), b.peekable());
    std::iter::from_fn(move || {
        let next = match (a.peek(), b.peek()) {
            (Some(&x), Some(&y)) => x.min(y),
            (Some(&x), None) => x,
            (None, Some(&y)) => y,
            (None, None) => return None,
        };
        a.next_if_eq(&next);
        b.next_if_eq(&next);
        Some(next)
    })
}

/// `<major>-<minor>-<inode>.sites`, hex.
fn entry_name(dev: (u32, u32), ino: u64) -> Name {
    let mut name = Name::new();
    name.push_num(dev.0.into(), 16)
        .and_then(|n| n.push(b"-"))
        .and_then(|n| n.push_num(dev.1.into(), 16))
        .and_then(|n| n.push(b"-"))
        .and_then(|n| n.push_num(ino, 16))
        .and_then(|n| n.push(b".sites"))
        .expect("fits");
    name
}

/// The entry `name`, opened, and its length, if it is a regular file
/// held to the directory's rules and no larger than [`MAX_FILE`].
fn open_entry(dir: &Fd, name: &Name) -> Option<(Fd, usize)> {
    let fd = openat(dir.0, name.ptr(), O_NOFOLLOW, 0).ok()?;
    let st = fstat(&fd).ok()?;
    if st.mode & S_IFMT != S_IFREG || owned_safely(&st).is_err() {
        return None;
    }
    let len = usize::try_from(st.size).ok().filter(|&l| l <= MAX_FILE)?;
    Some((fd, len))
}

/// The interposer's own object: its raw syscall sites serve the slow
/// path itself, so they are never cached.
fn own_object(maps: &Maps) -> Option<ObjId> {
    let mut m = FileMapping::empty();
    let found = maps.file_at(own_object as *const () as usize, &mut m) == Ok(true);
    found.then_some((m.map.dev, m.map.inode))
}

/// Whether sites of mapping `m` may be cached: not of the interposer's
/// own object `own`, not mapped execute-only (its bytes could not be
/// checked).
fn cacheable(m: &Mapping, own: Option<ObjId>) -> bool {
    m.perms.read && own != Some((m.dev, m.inode))
}

/// The key of the file `m` maps, and its ctime, if its path still names
/// that file.
fn key_of(m: &FileMapping) -> Option<([u8; KEY_LEN], Time)> {
    let mut path = Path::new();
    path.push(m.path())?;
    let st = statx(AT_FDCWD, path.ptr(), 0).ok()?;
    if st.mode & S_IFMT != S_IFREG || (st.dev, st.ino) != (m.map.dev, m.map.inode) {
        return None;
    }
    let id = m.build_id();
    let mut key = [0u8; KEY_LEN];
    let fields: [&[u8]; 8] = [
        &st.dev.0.to_le_bytes(),
        &st.dev.1.to_le_bytes(),
        &st.ino.to_le_bytes(),
        &st.size.to_le_bytes(),
        &st.mtime.0.to_le_bytes(),
        &st.mtime.1.to_le_bytes(),
        &(id.len() as u32).to_le_bytes(),
        id,
    ];
    let mut at = 0;
    for field in fields {
        key[at..at + field.len()].copy_from_slice(field);
        at += field.len();
    }
    Some((key, st.ctime))
}

/// Writes `bytes` to `<name>.<pid>.tmp` and renames that to `name`.
fn write_file(dir: &Fd, name: &Name, bytes: &[u8]) {
    let mut tmp = name.clone();
    let named = tmp
        .push(b".")
        .and_then(|t| t.push_num(std::process::id().into(), 10))
        .and_then(|t| t.push(b".tmp"));
    if named.is_none() {
        return;
    }
    let Ok(fd) = openat(
        dir.0,
        tmp.ptr(),
        O_WRONLY | O_CREAT | O_EXCL | O_NOFOLLOW,
        0o600,
    ) else {
        return;
    };
    let mut done = 0;
    while done < bytes.len() {
        let rest = &bytes[done..];
        // SAFETY: writing our own buffer to a descriptor we opened.
        let r = unsafe { raw::syscall3(nr::WRITE, fd.0, rest.as_ptr() as u64, rest.len() as u64) };
        match Errno::result(r) {
            Ok(n) if n > 0 => done += n as usize,
            _ => break,
        }
    }
    drop(fd);
    if done == bytes.len() {
        // SAFETY: NUL-terminated names relative to our dir fd.
        unsafe { raw::syscall4(nr::RENAMEAT, dir.0, tmp.ptr(), dir.0, name.ptr()) };
    } else {
        unlinkat(dir, tmp.ptr());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::os::unix::fs::PermissionsExt;

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("lp-sitecache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn cache_at(dir: &std::path::Path) -> SiteCache {
        let mut cache = SiteCache {
            dir: DirPath::new(),
            entry: Name::new(),
            started: (0, 0),
            off: None,
        };
        cache.set_dir(dir).unwrap();
        cache
    }

    /// Why the directory checks refuse `dir`, if they do, creating it
    /// when missing.
    fn refused(dir: &std::path::Path) -> Option<&'static str> {
        cache_at(dir).open_dir(true).err()
    }

    #[test]
    fn only_a_private_real_directory_is_used() {
        let root = scratch("dirs");
        let good = root.join("good");
        assert!(
            matches!(cache_at(&good).open_dir(false), Ok(None)),
            "reading creates nothing"
        );
        assert!(!good.exists());
        assert_eq!(refused(&good), None, "created by the first write");
        let mode = std::fs::metadata(&good).unwrap().permissions().mode();
        assert_eq!(mode & 0o777, 0o700);

        let link = root.join("link");
        std::os::unix::fs::symlink(&good, &link).unwrap();
        assert_eq!(refused(&link), Some("a symlink"));

        let shared = root.join("shared");
        std::fs::create_dir(&shared).unwrap();
        std::fs::set_permissions(&shared, std::fs::Permissions::from_mode(0o775)).unwrap();
        assert_eq!(refused(&shared), Some("writable by group or others"));

        let file = root.join("file");
        std::fs::write(&file, b"").unwrap();
        assert_eq!(refused(&file), Some("not a directory"));

        let theirs = root.join("theirs");
        std::fs::create_dir(&theirs).unwrap();
        let mut path = Path::new();
        path.push(theirs.to_str().unwrap().as_bytes()).unwrap();
        // SAFETY: chown(2) on a NUL-terminated path; only root may.
        if unsafe { raw::syscall3(nr::CHOWN, path.ptr(), 12345, 12345) } == 0 {
            assert_eq!(refused(&theirs), Some("owned by another user"));
        } else {
            eprintln!("not root: no directory of another uid to refuse");
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn off_and_rows_that_do_not_batch_never_read() {
        let dir = Some(std::path::Path::new("/tmp/lazypoline-unread"));
        for (name, dir, why) in [
            ("lazypoline", None, "LP_SITE_CACHE=off"),
            ("sud", dir, "this row does not batch-rewrite"),
            ("lazypoline-nobatch+record", dir, "this row does not batch-rewrite"),
            ("none", dir, "this row does not batch-rewrite"),
        ] {
            let (cache, proven) = SiteCache::open(name, dir);
            assert_eq!(cache.off, Some(why), "{name}");
            assert_eq!(cache.status(0), format!("off ({why})"));
            assert!(proven.is_none());
        }
    }

    #[test]
    fn entry_names_and_numbers() {
        assert_eq!(entry_name((0xfe, 0), 0x577e6).bytes(), b"fe-0-577e6.sites");
        let mut p = Path::new();
        p.push_num(0, 10)
            .unwrap()
            .push(b"/")
            .unwrap()
            .push_num(1000, 10)
            .unwrap();
        assert_eq!(p.bytes(), b"0/1000");
        assert!(Name::new().push(&[b'a'; 64]).is_none());
    }

    #[test]
    fn union_is_ascending_without_repeats() {
        let u: Vec<u64> = union([1, 4, 9].into_iter(), [2, 4, 10, 11].into_iter()).collect();
        assert_eq!(u, [1, 2, 4, 9, 10, 11]);
        assert_eq!(
            union([].into_iter(), [3].into_iter()).collect::<Vec<_>>(),
            [3]
        );
        let mut xs = [(0, 1), (0, 1), (0, 2), (1, 2), (1, 2)];
        assert_eq!(dedup(&mut xs), 3);
        assert_eq!(xs[..3], [(0, 1), (0, 2), (1, 2)]);
    }

    /// An entry of `records`, each a key byte and its offsets.
    fn entry(records: &[(u8, &[u64])]) -> Vec<u8> {
        let mut f = MAGIC.to_vec();
        f.extend((records.len() as u64).to_le_bytes());
        for (key, offs) in records {
            f.extend([*key; KEY_LEN]);
            f.extend((offs.len() as u64).to_le_bytes());
            offs.iter().for_each(|o| f.extend(o.to_le_bytes()));
        }
        f
    }

    #[test]
    fn only_well_formed_entries_are_read() {
        let good = entry(&[(1, &[0x10, 0x20]), (2, &[]), (3, &[0x30])]);
        assert!(well_formed(&good));
        assert!(well_formed(&entry(&[])));
        assert!(!well_formed(&good[..good.len() - 1]), "truncated");
        assert!(!well_formed(&entry(&[(1, &[0x20, 0x10])])), "descending");
        assert!(!well_formed(&entry(&[(1, &[0x20, 0x20])])), "repeated");
        let mut miscounted = good.clone();
        miscounted[MAGIC.len()] = 2;
        assert!(!well_formed(&miscounted));
        let mut huge = entry(&[(1, &[])]);
        huge[FILE_HEADER + KEY_LEN..FILE_HEADER + RECORD_HEADER]
            .copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(!well_formed(&huge), "an offset count past the end");
        let mut foreign = good;
        foreign[0] = b'X';
        assert!(!well_formed(&foreign));
    }

    /// The object text the property below stages against: one
    /// executable mapping of `TEXT_LEN` bytes, with `0f 05` at every
    /// sixteenth byte and `nop`s between, and in the two bytes before
    /// it (which are not the object's). Its file offset is 0 or
    /// `TEXT_OFF`; offsets are drawn for `TEXT_OFF` and moved with it,
    /// so at 0 those that were below the mapping wrap to the top.
    const TEXT_OFF: u64 = 0x40;
    const TEXT_LEN: usize = 256;

    /// A record's offset: a planted `0f 05`, anywhere near the mapping,
    /// or anything at all.
    fn offset() -> impl Strategy<Value = u64> {
        prop_oneof![
            (0..TEXT_LEN as u64 / 16).prop_map(|i| TEXT_OFF + 16 * i),
            0..TEXT_OFF + 2 * TEXT_LEN as u64,
            any::<u64>(),
        ]
    }

    proptest! {
        /// An entry is a file in `/tmp` that any process of the user can
        /// write. Arbitrary and damaged ones are read whole or ignored:
        /// no panic; a well-formed entry's records fill it exactly; and a
        /// record is staged whole or not at all, never with a site whose
        /// bytes do not read `0f 05` inside the object's mapping.
        #[test]
        fn damaged_entries_are_read_whole_or_ignored(
            records in proptest::collection::vec(
                (any::<u8>(), proptest::collection::vec(offset(), 0..6)),
                0..5,
            ),
            damage in proptest::collection::vec((any::<u16>(), any::<u8>()), 0..3),
            cut in any::<u16>(),
            file_off in prop_oneof![Just(0), Just(TEXT_OFF)],
        ) {
            let records: Vec<(u8, Vec<u64>)> = records
                .into_iter()
                .map(|(key, offs)| {
                    let mut offs: Vec<u64> =
                        offs.iter().map(|off| off.wrapping_sub(TEXT_OFF - file_off)).collect();
                    offs.sort_unstable();
                    offs.dedup();
                    (key, offs)
                })
                .collect();
            let borrowed: Vec<(u8, &[u64])> = records.iter().map(|(k, o)| (*k, &o[..])).collect();
            let mut file = entry(&borrowed);
            for (at, byte) in damage {
                let at = at as usize % file.len();
                file[at] = byte;
            }
            if cut.is_multiple_of(3) {
                file.truncate(cut as usize % (file.len() + 1));
            }

            let mut bytes = vec![0x90u8; 2 + TEXT_LEN];
            for at in (0..bytes.len()).step_by(16) {
                bytes[at..at + 2].copy_from_slice(&SYSCALL);
            }
            let text = &bytes[2..];
            let mut arena = Arena::map().expect("an arena");
            let a = &mut *arena;
            let start = text.as_ptr() as usize;
            let perms = RegionPerms { read: true, write: false, exec: true };
            a.maps[0] = Map { start, end: start + TEXT_LEN, offset: file_off, perms, obj: 0 };
            (a.n_maps, a.n_objs) = (1, 1);
            a.file[..file.len()].copy_from_slice(&file);
            if !well_formed(&a.file[..file.len()]) {
                return Ok(());
            }

            let (mut at, mut count) = (FILE_HEADER, 0);
            while at < file.len() {
                let offs: Vec<u64> = (at + RECORD_HEADER..record_end(&a.file, at))
                    .step_by(8)
                    .map(|i| u64_at(&a.file, i))
                    .collect();
                let good = |&off: &u64| {
                    off.checked_sub(file_off)
                        .and_then(|rel| usize::try_from(rel).ok())
                        .is_some_and(|rel| text.get(rel..rel.saturating_add(2)) == Some(&SYSCALL))
                };
                let before = a.n_sites;
                let staged = a.stage_offsets(0, at);
                prop_assert_eq!(staged, offs.iter().all(good), "record at {} of {:?}", at, offs);
                let expect: Vec<usize> = if staged {
                    offs.iter().map(|&off| start + (off - file_off) as usize).collect()
                } else {
                    Vec::new()
                };
                prop_assert_eq!(a.sites[before..a.n_sites].to_vec(), expect);
                at = record_end(&a.file, at);
                count += 1;
            }
            prop_assert_eq!(at, file.len(), "the records fill the entry");
            prop_assert_eq!(count, u64_at(&file, MAGIC.len()));
            let grouped: usize = a.groups[..a.n_groups].iter().map(|g| g.to - g.from).sum();
            prop_assert_eq!(grouped, a.n_sites);
        }
    }
}
