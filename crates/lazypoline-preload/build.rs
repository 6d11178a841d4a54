//! Links the unwinder statically: `libgcc_eh.a`, whole, so the shim
//! defines every `_Unwind_*` symbol `std` calls and the linker (which
//! runs `--as-needed`) drops `libgcc_s.so.1` from `NEEDED`. The
//! cdylib's version script exports none of them. DESIGN.md §4.

use std::path::PathBuf;
use std::process::Command;

fn main() {
    println!("cargo:rerun-if-env-changed=CC");
    let cc = std::env::var("CC").unwrap_or_else(|_| "cc".into());
    let printed = Command::new(&cc)
        .arg("-print-file-name=libgcc_eh.a")
        .output()
        .map(|out| PathBuf::from(String::from_utf8_lossy(&out.stdout).trim()));
    // A compiler that does not know the file prints its bare name back.
    let Some(archive) = printed.ok().filter(|a| a.is_absolute() && a.exists()) else {
        println!(
            "cargo:warning={cc} -print-file-name=libgcc_eh.a found no archive: \
             the shim keeps libgcc_s.so.1 in NEEDED"
        );
        return;
    };
    println!("cargo:rerun-if-changed={}", archive.display());
    let dir = archive.parent().expect("an absolute path has a parent");
    println!("cargo:rustc-link-search=native={}", dir.display());
    println!("cargo:rustc-link-lib=static:+whole-archive=gcc_eh");
}
