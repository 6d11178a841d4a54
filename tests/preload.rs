//! End-to-end test of the front door: real, unmodified binaries under
//! `LD_PRELOAD=liblazypoline_preload.so`, configured the way a user
//! would — `LP_MECHANISM=base(+layer)*` and the layers' own variables.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use lazypoline_suite::{hookabi, replay};

fn preload_so() -> Option<PathBuf> {
    // target/<profile>/deps/../liblazypoline_preload.so — walk up from
    // this test binary. `cargo test` links the shim as an rlib only, so
    // a debug test binary falls back to the cdylib `cargo build
    // --release` (tier-1's first half) left in the sibling profile, as
    // `hookabi::resolve_library` does for the hook libraries.
    let mut dir = std::env::current_exe().ok()?;
    dir.pop(); // test binary name
    if dir.ends_with("deps") {
        dir.pop();
    }
    [dir.clone(), dir.with_file_name("release")]
        .into_iter()
        .map(|d| d.join("liblazypoline_preload.so"))
        .find(|so| so.exists())
}

/// The shim to preload, or `None` (with the reason printed) when this
/// host cannot run it.
fn ready() -> Option<PathBuf> {
    if !(zpoline::Trampoline::environment_supported() && sud::is_supported()) {
        eprintln!("skipping: needs SUD + vm.mmap_min_addr=0");
        return None;
    }
    let so = preload_so();
    if so.is_none() {
        eprintln!("skipping: liblazypoline_preload.so not built");
    }
    so
}

/// `program` with an environment built from nothing: the CI matrices
/// export `LP_MECHANISM=sud`, `LP_MECHANISM=sim:lazypoline` and
/// `LAZYPOLINE_FAULTS=…` to the whole `cargo test`, and every test here
/// asserts one configuration — the one it sets itself.
fn plain(program: &str) -> Command {
    let mut cmd = Command::new(program);
    cmd.env_clear()
        .env("PATH", "/usr/bin:/bin")
        .env("LC_ALL", "C")
        .env("TZ", "UTC");
    cmd
}

fn preloaded(so: &Path, program: &str) -> Command {
    let mut cmd = plain(program);
    cmd.env("LD_PRELOAD", so);
    cmd
}

/// One counter of a `LAZYPOLINE_STATS=1` dump, by label prefix (what
/// lpbench does); counters that are zero are not printed.
fn dump_field(stderr: &str, label: &str) -> u64 {
    stderr
        .lines()
        .find_map(|l| l.strip_prefix(label))
        .and_then(|v| v.trim_start_matches([' ', ':']).trim().parse().ok())
        .unwrap_or(0)
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A fresh directory holding `dir/` (64 empty files for `ls` to list);
/// traces and policies go next to it. Small on purpose: past ~150
/// entries `ls` grows its heap inside the window, and where that `brk`
/// lands in the flow depends on how much the interposer (which shares
/// the heap) allocated before it — README lists the deviation, and the
/// walkthrough below must not depend on it.
fn scratch(tag: &str) -> (PathBuf, String) {
    let root = std::env::temp_dir().join(format!("lp-preload-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let dir = root.join("dir");
    std::fs::create_dir_all(&dir).unwrap();
    for i in 0..64 {
        std::fs::File::create(dir.join(format!("file-{i:03}"))).unwrap();
    }
    (root, dir.to_str().unwrap().to_string())
}

/// Every file under `root` whose name contains `.lpt`.
fn traces_in(root: &Path) -> Vec<PathBuf> {
    let mut found: Vec<_> = std::fs::read_dir(root)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.file_name().unwrap().to_string_lossy().contains(".lpt"))
        .collect();
    found.sort();
    found
}

#[test]
fn ls_runs_under_preload_with_stats() {
    let Some(so) = ready() else { return };
    let out = preloaded(&so, "/bin/ls")
        .arg("/")
        .env("LAZYPOLINE_MODE", "count")
        .env("LAZYPOLINE_STATS", "1")
        .output()
        .expect("run ls");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("tmp"), "ls output wrong: {stdout}");
    let stderr = stderr_of(&out);
    assert!(stderr.contains("-- top syscalls --"), "count table missing: {stderr}");
    // At least one site must have been rewritten and dispatched.
    assert!(
        dump_field(&stderr, "sites lazily rewritten") >= 1,
        "no lazy rewriting happened:\n{stderr}"
    );
    assert!(dump_field(&stderr, "dispatcher invocations") >= 1, "{stderr}");
}

#[test]
fn trace_mode_emits_syscall_lines() {
    let Some(so) = ready() else { return };
    let out = preloaded(&so, "/bin/true")
        .env("LAZYPOLINE_MODE", "trace")
        .output()
        .expect("run true");
    assert!(out.status.success());
    let stderr = stderr_of(&out);
    // The window closes *at* exit_group: the mode handler still sees it.
    assert!(
        stderr.contains("exit_group("),
        "no exit_group traced: {stderr}"
    );
}

#[test]
fn xstate_none_mode_still_works_for_coreutils() {
    let Some(so) = ready() else { return };
    // Table III says coreutils on glibc *can* expect xmm preservation;
    // whether `cat` on this host's libc does is build-dependent — this
    // asserts only that the no-xstate configuration is functional.
    let out = preloaded(&so, "/bin/cat")
        .arg("/proc/self/cmdline")
        .env("LAZYPOLINE_XSTATE", "none")
        .output()
        .expect("run cat");
    assert!(out.status.success(), "{out:?}");
    assert!(!out.stdout.is_empty());
}

/// README's walkthrough, on `/bin/ls`: record, record once more while
/// auditing, learn from both, enforce with the default action (kill).
#[test]
fn record_learn_enforce_ls() {
    let Some(so) = ready() else { return };
    let (root, dir) = scratch("walkthrough");
    let at = |name: &str| root.join(name).to_str().unwrap().to_string();
    let reference = plain("/bin/ls").args(["-l", &dir]).output().unwrap();
    assert!(reference.status.success());

    let record = preloaded(&so, "/bin/ls")
        .args(["-l", &dir])
        .env("LP_MECHANISM", "lazypoline+record")
        .env("LP_TRACE_OUT", at("first.lpt"))
        .output()
        .unwrap();
    assert!(record.status.success(), "{record:?}");
    assert_eq!(record.stdout, reference.stdout);
    let (_, first) = replay::read_trace_path(Path::new(&at("first.lpt"))).expect("first trace");

    let lp_trace = env!("CARGO_BIN_EXE_lp-trace");
    let learn = |traces: &[&str], policy: &str| {
        let out = plain(lp_trace)
            .arg("learn")
            .args(traces.iter().map(|t| at(t)))
            .arg(at(policy))
            .output()
            .unwrap();
        assert!(out.status.success(), "lp-trace learn: {out:?}");
    };
    learn(&["first.lpt"], "first.sfip");

    // The interposer lives in the application's address space: its
    // allocations move the application's `brk` calls, and a `+record`
    // drain thread makes malloc's locks contend (`futex`). Recording
    // once more while auditing in `count` mode shows what the first
    // policy would have killed, and folds it in.
    let audit = preloaded(&so, "/bin/ls")
        .args(["-l", &dir])
        .env("LP_MECHANISM", "lazypoline+record+sfip")
        .env("LP_TRACE_OUT", at("second.lpt"))
        .env("LP_SFIP_POLICY", at("first.sfip"))
        .env("LP_SFIP_POLICY_ACTION", "count")
        .output()
        .unwrap();
    assert!(audit.status.success(), "{audit:?}");
    assert_eq!(audit.stdout, reference.stdout);
    learn(&["first.lpt", "second.lpt"], "ls.sfip");

    for _ in 0..3 {
        let enforce = preloaded(&so, "/bin/ls")
            .args(["-l", &dir])
            .env("LP_MECHANISM", "lazypoline+sfip")
            .env("LP_SFIP_POLICY", at("ls.sfip"))
            .env("LAZYPOLINE_STATS", "1")
            .output()
            .unwrap();
        let stderr = stderr_of(&enforce);
        assert!(enforce.status.success(), "{enforce:?}");
        assert_eq!(enforce.stdout, reference.stdout, "byte-identical under enforcement");
        assert!(stderr.contains("sfip_mode                : kill"), "{stderr}");
        assert!(
            dump_field(&stderr, "sfip_checks") >= first.len() as u64,
            "{} events recorded:\n{stderr}",
            first.len()
        );
        assert_eq!(dump_field(&stderr, "sfip_violations"), 0, "{stderr}");
        assert!(!stderr.contains("flow violation"), "{stderr}");
    }

    // Another program under `ls`'s policy does not get far.
    use std::os::unix::process::ExitStatusExt;
    let cat = preloaded(&so, "/bin/cat")
        .arg("/etc/hostname")
        .env("LP_MECHANISM", "lazypoline+sfip")
        .env("LP_SFIP_POLICY", at("ls.sfip"))
        .output()
        .unwrap();
    assert_eq!(cat.status.signal(), Some(libc::SIGKILL), "{cat:?}");
    assert!(stderr_of(&cat).contains("flow violation"), "{cat:?}");
    assert!(cat.stdout.is_empty());
    std::fs::remove_dir_all(&root).unwrap();
}

/// Every native row a preloaded process can run under, bare and with
/// each layer that needs no learned input.
#[test]
fn every_native_base_runs_ls() {
    let Some(so) = ready() else { return };
    let (root, dir) = scratch("bases");
    let hook = hookabi::resolve_library("hook_count");
    assert!(hook.is_absolute(), "build the hook cdylibs first (cargo build --release)");
    let reference = plain("/bin/ls").args(["-l", &dir]).output().unwrap();
    for (base, dispatches) in [
        ("none", false),
        ("sud-allow", false),
        ("sud", true),
        ("zpoline", true),
        ("lazypoline-nox", true),
        ("lazypoline", true),
        ("lazypoline-nobatch", true),
        ("lazypoline-hardened", true),
    ] {
        for layer in ["", "+hooks", "+record"] {
            let name = format!("{base}{layer}");
            let trace = root.join(format!("{name}.%p.lpt"));
            let out = preloaded(&so, "/bin/ls")
                .args(["-l", &dir])
                .env("LP_MECHANISM", &name)
                .env("LP_HOOKS", if layer == "+hooks" { hook.as_os_str() } else { "".as_ref() })
                .env("LP_TRACE_OUT", if layer == "+record" { trace.as_os_str() } else { "".as_ref() })
                .env("LAZYPOLINE_STATS", "1")
                .output()
                .unwrap();
            let stderr = stderr_of(&out);
            assert_eq!(out.status.code(), reference.status.code(), "{name}: {stderr}");
            assert_eq!(out.stdout, reference.stdout, "{name}: {stderr}");
            assert!(!stderr.contains("disabled ("), "{name}: {stderr}");
            if !dispatches {
                // Nothing is dispatched, so nothing sees the end.
                assert!(!stderr.contains("lazypoline stats"), "{name}: {stderr}");
                continue;
            }
            let seen = dump_field(&stderr, "dispatcher invocations");
            assert!(seen > 0, "{name}: {stderr}");
            assert!(stderr.contains(&format!(": {name}\n")), "{name}: {stderr}");
            match layer {
                "+hooks" => {
                    assert_eq!(dump_field(&stderr, "hooks_loaded"), 1, "{name}: {stderr}");
                    assert!(dump_field(&stderr, "hook_dispatches") > 0, "{name}: {stderr}");
                }
                "+record" => {
                    let traces = traces_in(&root);
                    let [trace] = traces.as_slice() else {
                        panic!("{name}: one finished trace expected, found {traces:?}");
                    };
                    let (header, events) = replay::read_trace_path(trace).expect("trace decodes");
                    assert_eq!(header.source_mechanism, base);
                    assert_eq!(events.len() as u64, dump_field(&stderr, "events_recorded"));
                    assert!(events.len() as u64 <= seen && !events.is_empty(), "{name}: {stderr}");
                }
                _ => {}
            }
            for trace in traces_in(&root) {
                std::fs::remove_file(trace).unwrap();
            }
        }
    }
    std::fs::remove_dir_all(&root).unwrap();
}

/// A process tree: the shell forks, its children `execve`, and every
/// preloaded image arms the same configuration again.
#[test]
fn fork_exec_tree() {
    let Some(so) = ready() else { return };
    let (root, dir) = scratch("tree");
    let script = format!("ls {dir}; ls {dir} | wc -l");
    let reference = plain("/bin/sh").args(["-c", &script]).output().unwrap();
    assert!(reference.status.success() && reference.stdout.ends_with(b"\n64\n"));
    for name in ["lazypoline", "zpoline", "sud", "lazypoline+record"] {
        let out = preloaded(&so, "/bin/sh")
            .args(["-c", &script])
            .env("LP_MECHANISM", name)
            .env("LP_TRACE_OUT", root.join("tree.%p.lpt"))
            .output()
            .unwrap();
        let stderr = stderr_of(&out);
        assert_eq!(out.status.code(), reference.status.code(), "{name}: {stderr}");
        assert_eq!(out.stdout, reference.stdout, "{name}: {stderr}");
        assert!(stderr.is_empty(), "{name}: {stderr}");
    }
    // One trace per exec'd image (sh, ls, ls, wc), each finished by the
    // process that opened it; the forked-not-yet-exec'd children wrote
    // to none of them.
    let traces = traces_in(&root);
    assert_eq!(traces.len(), 4, "{traces:?}");
    for trace in &traces {
        assert!(!trace.to_string_lossy().ends_with(".part"), "unfinished: {traces:?}");
        let (_, events) = replay::read_trace_path(trace)
            .unwrap_or_else(|e| panic!("{}: {e}", trace.display()));
        assert!(!events.is_empty(), "{}", trace.display());
    }
    std::fs::remove_dir_all(&root).unwrap();
}

/// One failure rule: whatever is wrong with the configuration, the
/// application runs as if the shim were not there, and says so once.
#[test]
fn bad_configuration_runs_uninterposed() {
    let Some(so) = ready() else { return };
    let reference = plain("/bin/ls").arg("/").output().unwrap();
    for (var, value, why) in [
        ("LP_MECHANISM", "lazypoline+nope", "unknown mechanism"),
        ("LP_MECHANISM", "sim:lazypoline", "cannot interpose a preloaded process"),
        ("LP_MECHANISM", "sud-raw", "cannot interpose a preloaded process"),
        ("LAZYPOLINE_MODE", "cuont", "LAZYPOLINE_MODE"),
        ("LAZYPOLINE_XSTATE", "axv", "LAZYPOLINE_XSTATE"),
        ("LP_HOOKS", "/nonexistent.so", "hook loading failed"),
        ("LP_MECHANISM", "lazypoline+sfip", "sfip policy failed"),
    ] {
        let out = preloaded(&so, "/bin/ls")
            .arg("/")
            .env(var, value)
            .env("LAZYPOLINE_STATS", "1")
            .output()
            .unwrap();
        let stderr = stderr_of(&out);
        assert!(out.status.success(), "{var}={value}: {out:?}");
        assert_eq!(out.stdout, reference.stdout, "{var}={value}");
        let lines: Vec<_> = stderr.lines().collect();
        assert_eq!(lines.len(), 1, "{var}={value}: one line, no dump: {stderr}");
        assert!(
            lines[0].starts_with("lazypoline-preload: disabled (") && lines[0].contains(why),
            "{var}={value}: {stderr}"
        );
    }

    // The compatibility rule: `LP_HOOKS` alone still loads the hooks.
    let hook = hookabi::resolve_library("hook_count");
    let out = preloaded(&so, "/bin/ls")
        .arg("/")
        .env("LP_HOOKS", &hook)
        .env("LAZYPOLINE_STATS", "1")
        .output()
        .unwrap();
    let stderr = stderr_of(&out);
    assert!(out.status.success(), "{out:?}");
    assert_eq!(out.stdout, reference.stdout);
    assert!(stderr.contains(": lazypoline+hooks\n"), "{stderr}");
    assert_eq!(dump_field(&stderr, "hooks_loaded"), 1, "{stderr}");
    assert!(dump_field(&stderr, "hook_dispatches") > 0, "{stderr}");
}

/// The shim interposes; nothing may interpose on the shim. Every name
/// its assembly stubs use is bound inside the object: a dynamic symbol
/// `LP_*`/`lp_*` here is one an application, or a second preloaded
/// object, could define first and so replace the interposer's copy of.
#[test]
fn shim_exports_none_of_its_stub_symbols() {
    let Some(so) = preload_so() else {
        eprintln!("skipping: liblazypoline_preload.so not built");
        return;
    };
    let out = match Command::new("nm").args(["-D", "--defined-only"]).arg(&so).output() {
        Ok(out) if out.status.success() => out,
        _ => {
            eprintln!("skipping: no usable `nm`");
            return;
        }
    };
    let defined = String::from_utf8_lossy(&out.stdout);
    let leaked: Vec<&str> = defined
        .lines()
        .filter_map(|l| l.split_whitespace().last())
        .filter(|name| name.starts_with("LP_") || name.starts_with("lp_"))
        .collect();
    assert!(leaked.is_empty(), "{} exports {leaked:?}", so.display());
}
