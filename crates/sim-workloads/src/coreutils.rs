//! The ten coreutils of Table III, as simulated guest programs.

use sim_cpu::asm::Asm;
use sim_cpu::reg::Gpr;
use sim_kernel::{sysno, Kernel};

use crate::libc::{crt_init, exit_group, write_str, LibcFlavor};

/// One of the evaluated utilities.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Coreutil {
    /// Utility name (`ls`, `pwd`, …).
    pub name: &'static str,
    /// Whether the real binary links the pthread machinery — which is
    /// what triggers the Ubuntu-flavour `pthread` initialization issue
    /// (paper: "40% of the evaluated coreutils are affected by the
    /// same pthread initialization issue").
    pub threaded: bool,
}

/// Table III's ten utilities. The `threaded` flags reproduce the
/// paper's Ubuntu 20.04 column: ls, mkdir, mv, cp are affected there;
/// pwd, chmod, rm, touch, cat, clear are not.
pub const COREUTILS: [Coreutil; 10] = [
    util("ls", true),
    util("pwd", false),
    util("chmod", false),
    util("mkdir", true),
    util("mv", true),
    util("cp", true),
    util("rm", false),
    util("touch", false),
    util("cat", false),
    util("clear", false),
];

const fn util(name: &'static str, threaded: bool) -> Coreutil {
    Coreutil { name, threaded }
}

/// Seeds the filesystem every utility expects: an input file `a` and a
/// permission-target `f`.
pub fn prepare_fs(kernel: &mut Kernel) {
    kernel.fs.put_file("a", b"the quick brown fox\n".to_vec());
    kernel.fs.put_file("f", b"chmod me\n".to_vec());
}

/// Scratch buffer address used by utilities that read.
const BUF: u64 = 0xb000;

fn map_buf(asm: Asm) -> Asm {
    asm.mov_ri(Gpr::R0, sysno::MMAP)
        .mov_ri(Gpr::R1, BUF)
        .mov_ri(Gpr::R2, 4096)
        .mov_ri(Gpr::R3, 3)
        .mov_ri(Gpr::R4, 0x10)
        .syscall()
}

/// Builds the program image for `util` linked against `flavor`.
///
/// The returned code expects [`prepare_fs`] state and must be loaded
/// at [`sim_kernel::kernel::LOAD_ADDR`].
pub fn build(util: Coreutil, flavor: LibcFlavor) -> Vec<u8> {
    let asm = Asm::new().jmp("main");
    // Data blobs.
    let asm = asm
        .label("dot")
        .raw(b".")
        .label("slash")
        .raw(b"/\n")
        .label("file_a")
        .raw(b"a")
        .label("file_b")
        .raw(b"b")
        .label("file_f")
        .raw(b"f")
        .label("file_t")
        .raw(b"t")
        .label("dir_d")
        .raw(b"d")
        .label("cls")
        .raw(b"\x1b[2J")
        .label("main");
    let asm = crt_init(asm, flavor, util.threaded);
    let asm = body(asm, util.name);
    exit_group(asm, 0)
        .assemble_at(sim_kernel::kernel::LOAD_ADDR)
        .expect("coreutil assembles")
}

fn body(asm: Asm, name: &str) -> Asm {
    match name {
        // ls: open("."), getdents until 0, write each name, close.
        "ls" => map_buf(asm)
            .mov_ri(Gpr::R0, sysno::OPEN)
            .mov_ri_label(Gpr::R1, "dot")
            .mov_ri(Gpr::R2, 1)
            .mov_ri(Gpr::R3, 0)
            .syscall()
            .mov_rr(Gpr::R13, Gpr::R0) // dirfd
            .label("ls_loop")
            .mov_ri(Gpr::R0, sysno::GETDENTS)
            .mov_rr(Gpr::R1, Gpr::R13)
            .mov_ri(Gpr::R2, BUF)
            .mov_ri(Gpr::R3, 256)
            .syscall()
            .cmp_ri(Gpr::R0, 0)
            .jz("ls_done")
            // write(1, BUF, n)
            .mov_rr(Gpr::R3, Gpr::R0)
            .mov_ri(Gpr::R0, sysno::WRITE)
            .mov_ri(Gpr::R1, 1)
            .mov_ri(Gpr::R2, BUF)
            .syscall()
            .jmp("ls_loop")
            .label("ls_done")
            .mov_ri(Gpr::R0, sysno::CLOSE)
            .mov_rr(Gpr::R1, Gpr::R13)
            .syscall(),
        "pwd" => write_str(asm, 1, "slash", 2),
        "chmod" => asm
            .mov_ri(Gpr::R0, sysno::CHMOD)
            .mov_ri_label(Gpr::R1, "file_f")
            .mov_ri(Gpr::R2, 1)
            .mov_ri(Gpr::R3, 0o644)
            .syscall(),
        "mkdir" => asm
            .mov_ri(Gpr::R0, sysno::MKDIR)
            .mov_ri_label(Gpr::R1, "dir_d")
            .mov_ri(Gpr::R2, 1)
            .syscall(),
        "mv" => asm
            .mov_ri(Gpr::R0, sysno::RENAME)
            .mov_ri_label(Gpr::R1, "file_a")
            .mov_ri(Gpr::R2, 1)
            .mov_ri_label(Gpr::R3, "file_b")
            .mov_ri(Gpr::R4, 1)
            .syscall(),
        // cp: read "a" fully, write to "b".
        "cp" => map_buf(asm)
            .mov_ri(Gpr::R0, sysno::OPEN)
            .mov_ri_label(Gpr::R1, "file_a")
            .mov_ri(Gpr::R2, 1)
            .mov_ri(Gpr::R3, 0)
            .syscall()
            .mov_rr(Gpr::R13, Gpr::R0)
            .mov_ri(Gpr::R0, sysno::READ)
            .mov_rr(Gpr::R1, Gpr::R13)
            .mov_ri(Gpr::R2, BUF)
            .mov_ri(Gpr::R3, 4096)
            .syscall()
            .mov_rr(Gpr::R14, Gpr::R0) // byte count
            .mov_ri(Gpr::R0, sysno::CLOSE)
            .mov_rr(Gpr::R1, Gpr::R13)
            .syscall()
            .mov_ri(Gpr::R0, sysno::OPEN)
            .mov_ri_label(Gpr::R1, "file_b")
            .mov_ri(Gpr::R2, 1)
            .mov_ri(Gpr::R3, 1)
            .syscall()
            .mov_rr(Gpr::R13, Gpr::R0)
            .mov_ri(Gpr::R0, sysno::WRITE)
            .mov_rr(Gpr::R1, Gpr::R13)
            .mov_ri(Gpr::R2, BUF)
            .mov_rr(Gpr::R3, Gpr::R14)
            .syscall()
            .mov_ri(Gpr::R0, sysno::CLOSE)
            .mov_rr(Gpr::R1, Gpr::R13)
            .syscall(),
        "rm" => asm
            .mov_ri(Gpr::R0, sysno::UNLINK)
            .mov_ri_label(Gpr::R1, "file_a")
            .mov_ri(Gpr::R2, 1)
            .syscall(),
        "touch" => asm
            .mov_ri(Gpr::R0, sysno::OPEN)
            .mov_ri_label(Gpr::R1, "file_t")
            .mov_ri(Gpr::R2, 1)
            .mov_ri(Gpr::R3, 1)
            .syscall()
            .mov_rr(Gpr::R13, Gpr::R0)
            .mov_ri(Gpr::R0, sysno::CLOSE)
            .mov_rr(Gpr::R1, Gpr::R13)
            .syscall(),
        // cat: read "a" in a loop, writing chunks to stdout.
        "cat" => map_buf(asm)
            .mov_ri(Gpr::R0, sysno::OPEN)
            .mov_ri_label(Gpr::R1, "file_a")
            .mov_ri(Gpr::R2, 1)
            .mov_ri(Gpr::R3, 0)
            .syscall()
            .mov_rr(Gpr::R13, Gpr::R0)
            .label("cat_loop")
            .mov_ri(Gpr::R0, sysno::READ)
            .mov_rr(Gpr::R1, Gpr::R13)
            .mov_ri(Gpr::R2, BUF)
            .mov_ri(Gpr::R3, 8)
            .syscall()
            .cmp_ri(Gpr::R0, 0)
            .jz("cat_done")
            .mov_rr(Gpr::R3, Gpr::R0)
            .mov_ri(Gpr::R0, sysno::WRITE)
            .mov_ri(Gpr::R1, 1)
            .mov_ri(Gpr::R2, BUF)
            .syscall()
            .jmp("cat_loop")
            .label("cat_done")
            .mov_ri(Gpr::R0, sysno::CLOSE)
            .mov_rr(Gpr::R1, Gpr::R13)
            .syscall(),
        "clear" => write_str(asm, 1, "cls", 4),
        other => panic!("unknown coreutil {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_kernel::System;

    fn run(name: &str, flavor: LibcFlavor) -> System {
        let util = *COREUTILS.iter().find(|c| c.name == name).unwrap();
        let code = build(util, flavor);
        let mut sys = System::new();
        prepare_fs(&mut sys.kernel);
        sys.load_program(&code).unwrap();
        let exit = sys.run().unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(exit, 0, "{name}");
        sys
    }

    #[test]
    fn all_ten_run_on_both_flavors() {
        for flavor in [LibcFlavor::V1Ubuntu2004, LibcFlavor::V3ClearLinux] {
            for util in COREUTILS {
                run(util.name, flavor);
            }
        }
    }

    #[test]
    fn ls_lists_files() {
        let sys = run("ls", LibcFlavor::V1Ubuntu2004);
        let out = sys.stdout();
        assert!(out.contains('a'), "{out:?}");
        assert!(out.contains('f'), "{out:?}");
    }

    #[test]
    fn cat_outputs_file_content() {
        let sys = run("cat", LibcFlavor::V3ClearLinux);
        assert_eq!(sys.stdout(), "the quick brown fox\n");
    }

    #[test]
    fn cp_copies() {
        let sys = run("cp", LibcFlavor::V1Ubuntu2004);
        assert_eq!(sys.kernel.fs.file("b").unwrap(), b"the quick brown fox\n");
    }

    #[test]
    fn mv_renames_rm_removes_touch_creates_chmod_modes() {
        let sys = run("mv", LibcFlavor::V1Ubuntu2004);
        assert!(sys.kernel.fs.file("a").is_none());
        assert!(sys.kernel.fs.file("b").is_some());

        let sys = run("rm", LibcFlavor::V1Ubuntu2004);
        assert!(sys.kernel.fs.file("a").is_none());

        let sys = run("touch", LibcFlavor::V1Ubuntu2004);
        assert!(sys.kernel.fs.file("t").is_some());

        let sys = run("chmod", LibcFlavor::V1Ubuntu2004);
        assert_eq!(sys.kernel.fs.mode("f"), Some(0o644));
    }

    #[test]
    fn threaded_flags_match_paper_ubuntu_column() {
        let affected: Vec<&str> = COREUTILS
            .iter()
            .filter(|c| c.threaded)
            .map(|c| c.name)
            .collect();
        assert_eq!(affected, vec!["ls", "mkdir", "mv", "cp"]);
        // "40% of the evaluated coreutils are affected".
        assert_eq!(affected.len(), 4);
    }
}
