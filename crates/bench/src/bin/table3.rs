//! Regenerates **Table III**: the paper's cells
//! (`lp_bench::table3::TABLE_III`; `v` = the program expected a vector
//! register preserved across a syscall, `x` = no such expectation),
//! then the native section: host programs under the LD_PRELOAD shim
//! with `hook_poison`, diffed against bare. The shim and the hook
//! library are looked up next to this binary (`cargo build --release`
//! puts all three in `target/release/`).

use lp_bench::table3;

fn main() {
    println!("{}", table3::render_paper());
    let so = std::env::current_exe()
        .expect("this binary's own path")
        .with_file_name("liblazypoline_preload.so");
    let hook = hookabi::resolve_library("hook_poison");
    if !(lp_bench::micro::environment_supported() && so.exists() && hook.exists()) {
        println!("Native section skipped: it needs SUD, page zero, and the shim and libhook_poison.so next to this binary");
        return;
    }
    let dir = std::env::temp_dir().join(format!("lp-table3-{}", std::process::id()));
    let native = table3::write_inputs(&dir).and_then(|()| table3::render_native(&so, &hook, &dir));
    let _ = std::fs::remove_dir_all(&dir);
    print!("{}", native.expect("native section"));
}
