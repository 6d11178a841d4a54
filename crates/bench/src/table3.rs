//! Table III: the paper's cells as data, and the same question asked
//! natively of this host's glibc.
//!
//! The paper's Pin tool asked whether a register written before a
//! syscall is read after it. [`TABLE_III`] holds its answer for ten
//! coreutils on glibc 2.31 (Ubuntu 20.04) and 2.39 (Clear Linux), which
//! this host cannot run. The native section asks the question the other
//! way round: host programs run under the shim with `hook_poison`, which
//! overwrites every vector and floating-point register on every
//! dispatch, and their output is diffed against a bare run. A row whose
//! mask leaves something the program reads shows a difference.

use std::ffi::OsStr;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use crate::report::Table;

/// The two distributions of the paper's columns.
pub const DISTROS: [&str; 2] = ["Ubuntu 20.04", "Clear Linux"];

/// One coreutil and, per [`DISTROS`] column, the `xmm` register its
/// glibc expected preserved across a syscall (`None`: none). Ubuntu's
/// threaded utilities keep `xmm0` live across pthread initialisation
/// (Listing 1); every Clear Linux one keeps `xmm1` live across
/// `ptmalloc_init`'s `getrandom`.
pub const TABLE_III: [(&str, [Option<u8>; 2]); 10] = [
    ("ls", [Some(0), Some(1)]),
    ("pwd", [None, Some(1)]),
    ("chmod", [None, Some(1)]),
    ("mkdir", [Some(0), Some(1)]),
    ("mv", [Some(0), Some(1)]),
    ("cp", [Some(0), Some(1)]),
    ("rm", [None, Some(1)]),
    ("touch", [None, Some(1)]),
    ("cat", [None, Some(1)]),
    ("clear", [None, Some(1)]),
];

/// The paper's section of `table3`'s output.
pub fn render_paper() -> String {
    let mut out =
        "Table III — extended-state preservation expectations (Pin-like analysis)\n\n".to_string();
    let mut table = Table::new(["Coreutils", DISTROS[0], DISTROS[1]]);
    for (util, cells) in TABLE_III {
        let cell = |reg: Option<u8>| reg.map_or("x".to_string(), |r| format!("v (x{r})"));
        table.row([util.to_string(), cell(cells[0]), cell(cells[1])]);
    }
    out += &table.render();
    let affected = |col: usize| TABLE_III.iter().filter(|(_, c)| c[col].is_some()).count();
    out += &format!(
        "\naffected: {}/10 on {}, {}/10 on {}\n",
        affected(0),
        DISTROS[0],
        affected(1),
        DISTROS[1]
    );
    out += "(paper: 40% affected on Ubuntu 20.04 via the pthread-init xmm issue (Listing 1);\n\
            all programs affected on Clear Linux via ptmalloc_init + getrandom)\n";
    out
}

/// The native section's rows and the `XstateMask` each preserves.
const POISON_ROWS: [(&str, &str); 2] = [
    ("lazypoline-nox+hooks", "None"),
    ("lazypoline+hooks", "Avx"),
];

/// The host programs of the native section, `(label, argv)`, run in the
/// directory [`write_inputs`] filled.
const PROGRAMS: [(&str, &[&str]); 7] = [
    ("ls -lR", &["ls", "-lR", "tree"]),
    ("find", &["find", "tree", "-name", "*3*"]),
    ("sort", &["sort", "lines.txt"]),
    ("sort --parallel=2", &["sort", "--parallel=2", "lines.txt"]),
    ("sha256sum", &["sha256sum", "lines.txt"]),
    ("gzip -c", &["gzip", "-c", "lines.txt"]),
    ("python3 -c …", &["python3", "-c", PYTHON]),
];

const PYTHON: &str =
    "import math; print(sum(1/k for k in range(1, 100000)), math.pi * 1e10 / 7, 0.1 + 0.2)";

/// Seeded inputs in `dir`: `tree/` (8 directories of 16 files) and
/// `lines.txt` (150 000 lines: below 131 072, GNU `sort` runs one
/// thread whatever `--parallel` says).
pub fn write_inputs(dir: &Path) -> io::Result<()> {
    for d in 0..8 {
        let sub = dir.join(format!("tree/d{d}"));
        std::fs::create_dir_all(&sub)?;
        for f in 0..16 {
            std::fs::write(
                sub.join(format!("f{f}")),
                format!("{d}.{f}\n").repeat(7 * f),
            )?;
        }
    }
    let lines: String = (0..150_000u64)
        .map(|i| format!("{:x}\n", i.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
        .collect();
    std::fs::write(dir.join("lines.txt"), lines)
}

/// `argv[0]` in `/usr/bin` or `/bin`, the only `PATH` the runs get.
pub fn find_program(name: &str) -> Option<PathBuf> {
    ["/usr/bin", "/bin"]
        .iter()
        .map(|d| Path::new(d).join(name))
        .find(|p| p.exists())
}

/// Runs `argv` in `dir` from a cleared environment, plus `env`.
fn run(argv: &[&str], dir: &Path, env: &[(&str, &OsStr)]) -> io::Result<Output> {
    Command::new(argv[0])
        .args(&argv[1..])
        .current_dir(dir)
        .env_clear()
        .envs([("PATH", "/usr/bin:/bin"), ("LC_ALL", "C"), ("TZ", "UTC")])
        .envs(env.iter().copied())
        .output()
}

extern "C" {
    fn gnu_get_libc_version() -> *const libc::c_char;
}

/// The native section: every program of `PROGRAMS` under the shim
/// `so` with the poison `hook`, in each row of `POISON_ROWS`, diffed
/// against its bare run: stdout, stderr and exit status.
pub fn render_native(so: &Path, hook: &Path, dir: &Path) -> io::Result<String> {
    // SAFETY: glibc returns a static NUL-terminated string.
    let glibc = unsafe { std::ffi::CStr::from_ptr(gnu_get_libc_version()) };
    let mut out = format!(
        "Native, this host's glibc {}: host programs under the poison hook, diffed against bare\n\n",
        glibc.to_string_lossy()
    );
    let columns = POISON_ROWS.map(|(row, mask)| format!("{row} (mask {mask})"));
    let mut table = Table::new(["Program", &columns[0], &columns[1]]);
    for (label, argv) in PROGRAMS {
        if find_program(argv[0]).is_none() {
            table.row([label.to_string(), format!("skipped: no {}", argv[0])]);
            continue;
        }
        let bare = run(argv, dir, &[])?;
        let mut cells = vec![label.to_string()];
        for (row, _) in POISON_ROWS {
            let shim = [
                ("LD_PRELOAD", so.as_os_str()),
                ("LP_MECHANISM", row.as_ref()),
                ("LP_HOOKS", hook.as_os_str()),
                ("LP_SITE_CACHE", "off".as_ref()),
            ];
            let got = run(argv, dir, &shim)?;
            let diff: Vec<_> = [
                ("stdout", bare.stdout != got.stdout),
                ("stderr", bare.stderr != got.stderr),
                ("status", bare.status != got.status),
            ]
            .into_iter()
            .filter_map(|(what, differs)| differs.then_some(what))
            .collect();
            cells.push(match diff.is_empty() {
                true => "same".into(),
                false => format!("DIFFERS ({})", diff.join(", ")),
            });
        }
        table.row(cells);
    }
    out += &table.render();
    out += "\n(a difference is a witness; \"same\" is evidence, not proof: only the paths a run\n\
            executes are poisoned, and a declared exit is never poisoned)\n";
    Ok(out)
}
