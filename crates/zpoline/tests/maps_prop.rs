//! Property tests for the one parser of `/proc/self/maps` lines
//! (`maps::parse_line`): bytes the kernel wrote, read in the `SIGSYS`
//! handler on kernels without `PROCMAP_QUERY`; and for the shadow of the
//! executable mappings (`maps::shadow`), which the patch window believes
//! over the kernel: whatever it vouches for is what `Maps::covering`
//! says.

use lp_zpoline::maps::{parse_line, shadow, Mapping, Maps};
use lp_zpoline::RegionPerms;
use proptest::prelude::*;
use syscalls::{nr, Errno, SyscallArgs};

/// A line as the kernel renders it (`show_map_vma`): fixed fields, then
/// the name padded to column 73.
fn render(m: &Mapping, name: &[u8]) -> Vec<u8> {
    let flag = |on: bool, c: char| if on { c } else { '-' };
    let mut line = format!(
        "{:08x}-{:08x} {}{}{}{} {:08x} {:02x}:{:02x} {} ",
        m.start,
        m.end,
        flag(m.perms.read, 'r'),
        flag(m.perms.write, 'w'),
        flag(m.perms.exec, 'x'),
        if m.shared { 's' } else { 'p' },
        m.offset,
        m.dev.0,
        m.dev.1,
        m.inode,
    )
    .into_bytes();
    if !name.is_empty() {
        line.resize(line.len().max(73), b' ');
        line.extend_from_slice(name);
    }
    line
}

/// A name of each kind the kernel prints: a path with spaces, a path
/// with a ` (deleted)` suffix, a bracketed name, or none.
fn name() -> impl Strategy<Value = Vec<u8>> {
    let word = || proptest::collection::vec(b'a'..=b'z', 1..12);
    prop_oneof![
        (word(), word(), word()).prop_map(|(a, b, c)| [
            &b"/tmp/"[..],
            &a,
            b" ",
            &b,
            b"/lib ",
            &c,
            b".so"
        ]
        .concat()),
        (word(), word()).prop_map(|(a, b)| [&b"/"[..], &a, b"/", &b, b" (deleted)"].concat()),
        prop_oneof![
            Just(b"[heap]".to_vec()),
            Just(b"[vdso]".to_vec()),
            word().prop_map(|w| [&b"[anon:"[..], &w, b" x]"].concat()),
        ],
        Just(Vec::new()),
    ]
}

/// A mapping with any value in every field, `start < end`.
fn mapping() -> impl Strategy<Value = Mapping> {
    (
        (any::<usize>(), any::<usize>()),
        any::<[bool; 4]>(),
        any::<u64>(),
        (0u32..0x1000, 0u32..0x10_0000),
        any::<u64>(),
    )
        .prop_map(
            |((a, b), [read, write, exec, shared], offset, dev, inode)| {
                let (start, end) = match a.cmp(&b) {
                    std::cmp::Ordering::Less => (a, b),
                    std::cmp::Ordering::Greater => (b, a),
                    std::cmp::Ordering::Equal => (a.saturating_sub(1), a.max(1)),
                };
                Mapping {
                    start,
                    end,
                    perms: RegionPerms { read, write, exec },
                    shared,
                    offset,
                    dev,
                    inode,
                }
            },
        )
}

/// Whether `parse_line(line)` is none, or a whole mapping: `start <
/// end`, a name that ends the line, and a mapping that renders and
/// parses back to itself.
fn whole_or_none(line: &[u8]) -> Result<(), String> {
    let Some((m, name)) = parse_line(line) else {
        return Ok(());
    };
    prop_assert!(m.start < m.end, "{m:x?}");
    prop_assert!(line.ends_with(name), "{name:?} does not end {line:?}");
    let again = render(&m, name);
    prop_assert_eq!(parse_line(&again), Some((m, name)));
    Ok(())
}

proptest! {
    /// Arbitrary bytes never panic, and yield a whole mapping or none.
    #[test]
    fn arbitrary_bytes_parse_whole_or_not_at_all(
        bytes in proptest::collection::vec(any::<u8>(), 0..128)
    ) {
        whole_or_none(&bytes)?;
    }

    /// A real line cut short or with one byte changed never panics, and
    /// yields a whole mapping or none.
    #[test]
    fn damaged_lines_parse_whole_or_not_at_all(
        m in mapping(),
        name in name(),
        cut in any::<usize>(),
        at in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let mut line = render(&m, &name);
        line.truncate(cut % (line.len() + 1));
        whole_or_none(&line)?;
        if !line.is_empty() {
            let at = at % line.len();
            line[at] = byte;
            whole_or_none(&line)?;
        }
    }

    /// A rendered line parses back field for field, name included.
    #[test]
    fn rendered_line_parses_back(m in mapping(), name in name()) {
        let line = render(&m, &name);
        prop_assert_eq!(parse_line(&line), Some((m, &name[..])));
    }
}

/// Pages of the private arena the mapping calls below act on.
const ARENA: usize = 16;
const PAGE: usize = 4096;
/// `PROT_NONE`, `r--`, `rw-`, `r-x`, `rwx`, `-wx`, `--x`.
const PROTS: [u64; 7] = [0, 1, 3, 5, 7, 6, 4];
const MAP_PRIVATE_ANONYMOUS: u64 = (libc::MAP_PRIVATE | libc::MAP_ANONYMOUS) as u64;
const MREMAP_MAYMOVE: u64 = 1;
const MREMAP_FIXED: u64 = 2;

/// One mapping call: `(kind, page, pages, prot, to, flag)`, read by
/// [`call`].
type Op = (u8, usize, usize, usize, usize, bool);

fn op() -> impl Strategy<Value = Op> {
    (
        0u8..4,
        0..ARENA,
        1..=ARENA,
        0..PROTS.len(),
        0..ARENA,
        any::<bool>(),
    )
}

/// The call `op` stands for, on the arena at `arena`: an `mmap` (fixed
/// into the arena with `flag`, else anywhere), an `mprotect`, a
/// `munmap`, or an `mremap` (moved to page `to` with `flag`, else
/// resized in place). Every range stays in the arena.
fn call(arena: usize, (kind, page, pages, prot, to, flag): Op) -> SyscallArgs {
    let pages = pages.min(ARENA - page);
    let (at, len, prot) = (
        (arena + page * PAGE) as u64,
        (pages * PAGE) as u64,
        PROTS[prot],
    );
    match kind {
        0 if flag => SyscallArgs::new(
            nr::MMAP,
            [
                at,
                len,
                prot,
                MAP_PRIVATE_ANONYMOUS | libc::MAP_FIXED as u64,
                u64::MAX,
                0,
            ],
        ),
        0 => SyscallArgs::new(nr::MMAP, [0, len, prot, MAP_PRIVATE_ANONYMOUS, u64::MAX, 0]),
        1 => SyscallArgs::new(nr::MPROTECT, [at, len, prot, 0, 0, 0]),
        2 => SyscallArgs::new(nr::MUNMAP, [at, len, 0, 0, 0, 0]),
        _ => {
            let new_pages = pages.min(ARENA - to);
            let new_len = (new_pages * PAGE) as u64;
            if flag {
                let dest = (arena + to * PAGE) as u64;
                let flags = MREMAP_MAYMOVE | MREMAP_FIXED;
                SyscallArgs::new(nr::MREMAP, [at, len, new_len, flags, dest, 0])
            } else {
                let in_place = (new_pages.min(ARENA - page) * PAGE) as u64;
                SyscallArgs::new(nr::MREMAP, [at, len, in_place, 0, 0, 0])
            }
        }
    }
}

/// The call, through the shadow as the dispatcher makes it.
fn execute(call: &SyscallArgs) -> u64 {
    // SAFETY: every call acts on the arena or maps fresh memory.
    shadow::execute(call, |c| unsafe { syscalls::raw::syscall(*c) })
}

/// Every page of `[start, start + len)` the shadow vouches for has the
/// protection `Maps::covering` reports; returns how many it vouched for.
fn agrees(maps: &Maps, start: usize, len: usize) -> Result<usize, String> {
    let mut vouched = 0;
    for page in (start..start + len).step_by(PAGE) {
        if let Some(perms) = shadow::perms(page) {
            let kernel = maps.covering(page).map_err(|e| format!("covering: {e}"))?;
            prop_assert_eq!(kernel.map(|m| m.perms), Some(perms), "page {:#x}", page);
            vouched += 1;
        }
    }
    Ok(vouched)
}

proptest! {
    /// Random `mmap`, `mprotect`, `munmap` and `mremap` on a private
    /// arena, each through the shadow as the dispatcher executes it:
    /// after every step the shadow vouches only for what the kernel
    /// says, and for every RWX `mmap` it just saw.
    #[test]
    fn the_shadow_agrees_with_the_kernel(ops in proptest::collection::vec(op(), 1..24)) {
        let reserve = SyscallArgs::new(
            nr::MMAP,
            [0, (ARENA * PAGE) as u64, 0, MAP_PRIVATE_ANONYMOUS, u64::MAX, 0],
        );
        let arena = execute(&reserve);
        prop_assert!(Errno::from_ret(arena).is_none(), "arena");
        let arena = arena as usize;
        shadow::reset(true);
        let maps = Maps::open().map_err(|e| format!("open: {e}"))?;
        let mut elsewhere = Vec::new();
        for (step, &op) in ops.iter().enumerate() {
            let c = call(arena, op);
            let ret = execute(&c);
            let ok = Errno::from_ret(ret).is_none();
            if c.nr == nr::MMAP && ok {
                if c.args[0] == 0 {
                    elsewhere.push((ret as usize, c.args[1] as usize));
                }
                if c.args[2] == 7 {
                    prop_assert!(shadow::perms(ret as usize).is_some(), "step {}: RWX mmap not noted", step);
                }
            }
            agrees(&maps, arena, ARENA * PAGE).map_err(|e| format!("step {step}, {c:?}: {e}"))?;
            for &(at, len) in &elsewhere {
                agrees(&maps, at, len).map_err(|e| format!("step {step}, {c:?}: {e}"))?;
            }
        }
        shadow::reset(false);
        for (at, len) in elsewhere.into_iter().chain([(arena, ARENA * PAGE)]) {
            execute(&SyscallArgs::new(nr::MUNMAP, [at as u64, len as u64, 0, 0, 0, 0]));
        }
    }
}
