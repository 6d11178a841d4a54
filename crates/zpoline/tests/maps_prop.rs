//! Property tests for the one parser of `/proc/self/maps` lines
//! (`maps::parse_line`): bytes the kernel wrote, read in the `SIGSYS`
//! handler on kernels without `PROCMAP_QUERY`.

use lp_zpoline::maps::{parse_line, Mapping};
use lp_zpoline::RegionPerms;
use proptest::prelude::*;

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
        (word(), word(), word())
            .prop_map(|(a, b, c)| [&b"/tmp/"[..], &a, b" ", &b, b"/lib ", &c, b".so"].concat()),
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
