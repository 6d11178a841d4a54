//! §V-A on the real kernel: `exhaustiveness` prints the trace `sud`,
//! `zpoline` and `lazypoline` each observe of one window that calls a
//! runtime-emitted `getpid`, or says why the host cannot run a row.

use std::process::Command;

#[test]
fn sud_and_lazypoline_see_the_jit_getpid_and_zpoline_misses_it() {
    // The comparison is of working mechanisms: an ambient fault spec
    // would land the rows on degraded rungs, which the native
    // scenarios check.
    let out = Command::new(env!("CARGO_BIN_EXE_exhaustiveness"))
        .env_remove("LAZYPOLINE_FAULTS")
        .output()
        .expect("exhaustiveness runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    if out.status.code() == Some(2) {
        assert!(
            stderr.contains("skip: "),
            "exit 2 without a refusal: {stderr}"
        );
        eprintln!("{}", stderr.trim());
        return;
    }
    assert!(out.status.success(), "{}\n{stdout}\n{stderr}", out.status);
    let trace = |row: &str| -> Vec<&str> {
        let line = stdout
            .lines()
            .find_map(|l| l.split_once(':').filter(|(label, _)| label.trim() == row))
            .unwrap_or_else(|| panic!("no {row} line in {stdout:?}"));
        line.1.split(',').map(str::trim).collect()
    };
    let (sud, zpoline, lazypoline) = (trace("sud"), trace("zpoline"), trace("lazypoline"));

    assert_eq!(sud, ["getpid", "mmap", "getpid", "getpid"], "{stdout}");
    assert_eq!(
        lazypoline, sud,
        "the exact same syscalls, in the same order"
    );
    // zpoline misses one call: the `getpid` right after the `mmap` that
    // made the page it runs on.
    let jit = 1 + sud.iter().position(|&s| s == "mmap").expect("an mmap");
    assert_eq!(sud[jit], "getpid");
    let mut missed = sud.clone();
    missed.remove(jit);
    assert_eq!(zpoline, missed, "{stdout}");
}
