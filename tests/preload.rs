//! End-to-end test of the front door: real, unmodified binaries under
//! `LD_PRELOAD=liblazypoline_preload.so`, configured the way a user
//! would — `LP_MECHANISM=base(+layer)*` and the layers' own variables.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::time::{Duration, Instant};

use lazypoline_suite::{hookabi, replay};

fn preload_so() -> Option<PathBuf> {
    // target/<profile>/deps/../liblazypoline_preload.so — walk up from
    // this test binary. `cargo test` links the shim as an rlib only, so
    // a debug test binary falls back to the cdylib `cargo build
    // --release` (tier-1's first half) left in the sibling profile, as
    // `hookabi::resolve_library` does for the hook libraries. Of two, the
    // newer: `cargo test` does not refresh `target/debug`'s copy, so an
    // old `cargo build` would leave the suite testing a stale shim.
    let mut dir = std::env::current_exe().ok()?;
    dir.pop(); // test binary name
    if dir.ends_with("deps") {
        dir.pop();
    }
    [dir.clone(), dir.with_file_name("release")]
        .into_iter()
        .map(|d| d.join("liblazypoline_preload.so"))
        .filter_map(|so| Some((std::fs::metadata(&so).ok()?.modified().ok()?, so)))
        .max()
        .map(|(_, so)| so)
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
/// export `LP_MECHANISM=sud`, `LP_MECHANISM=lazypoline+hooks` and
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

/// `program` under the shim, with the proven-site cache off: a test
/// that wants one names its own directory (`LP_SITE_CACHE`), so no count
/// depends on which test ran first.
fn preloaded(so: &Path, program: &str) -> Command {
    let mut cmd = plain(program);
    cmd.env("LD_PRELOAD", so).env("LP_SITE_CACHE", "off");
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
    // At least one site must have been rewritten, at a SIGSYS or from
    // the proven-site cache, and dispatched.
    assert!(
        dump_field(&stderr, "sites lazily rewritten") + dump_field(&stderr, "sites_from_cache")
            >= 1,
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
    // asserts only that the no-xstate row is functional.
    let out = preloaded(&so, "/bin/cat")
        .arg("/proc/self/cmdline")
        .env("LP_MECHANISM", "lazypoline-nox")
        .output()
        .expect("run cat");
    assert!(out.status.success(), "{out:?}");
    assert!(!out.stdout.is_empty());
}

/// README's walkthrough, on `/bin/ls`: record, record once more while
/// auditing, learn from both, enforce with the default action (kill) —
/// every step with a warm proven-site cache, as a second run of anything
/// has by default.
#[test]
fn record_learn_enforce_ls() {
    let Some(so) = ready() else { return };
    let (root, dir) = scratch("walkthrough");
    let at = |name: &str| root.join(name).to_str().unwrap().to_string();
    let reference = plain("/bin/ls").args(["-l", &dir]).output().unwrap();
    assert!(reference.status.success());
    let cache = root.join("sites");
    let preloaded = |so: &Path, program: &str| {
        let mut cmd = preloaded(so, program);
        cmd.env("LP_SITE_CACHE", &cache);
        cmd
    };
    let warm_up = preloaded(&so, "/bin/ls")
        .args(["-l", &dir])
        .output()
        .unwrap();
    assert_eq!(warm_up.stdout, reference.stdout, "{warm_up:?}");

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

/// `ls -l` of 1 000 files is ~3 000 syscalls in a few milliseconds,
/// faster than a drain thread woken on the same CPU gets to run: at the
/// default ring geometry the whole burst must fit, and nothing drops.
#[test]
fn record_at_default_geometry_drops_nothing() {
    let Some(so) = ready() else { return };
    let root = std::env::temp_dir().join(format!("lp-preload-geometry-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let dir = root.join("dir");
    std::fs::create_dir_all(&dir).unwrap();
    for i in 0..1000 {
        std::fs::File::create(dir.join(format!("file-{i:04}"))).unwrap();
    }
    let reference = plain("/bin/ls").arg("-l").arg(&dir).output().unwrap();
    assert!(reference.status.success());
    for run in 0..3 {
        let trace = root.join(format!("run-{run}.lpt"));
        let out = preloaded(&so, "/bin/ls")
            .arg("-l")
            .arg(&dir)
            .env("LP_MECHANISM", "lazypoline+record")
            .env("LP_TRACE_OUT", &trace)
            .env("LAZYPOLINE_STATS", "1")
            .output()
            .unwrap();
        let stderr = stderr_of(&out);
        assert!(out.status.success(), "run {run}: {stderr}");
        assert_eq!(out.stdout, reference.stdout, "run {run}: {stderr}");
        // The dump prints nonzero counters only.
        assert!(!stderr.contains("events_dropped"), "run {run}: {stderr}");
        let (header, events) = replay::read_trace_path(&trace).expect("trace decodes");
        assert_eq!(header.events_dropped, 0, "run {run}");
        assert!(events.len() >= 3_000, "run {run}: {} events", events.len());
    }
    std::fs::remove_dir_all(&root).unwrap();
}

/// The trace sink writes with `pwrite64` from the drain thread, which is
/// never enrolled, and `ls` itself issues none: a `pwrite64` record
/// would be the recorder recording itself.
#[test]
fn record_trace_holds_none_of_the_sinks_writes() {
    let Some(so) = ready() else { return };
    let (root, dir) = scratch("sink");
    let trace = root.join("ls.lpt");
    let out = preloaded(&so, "/bin/ls")
        .args(["-l", &dir])
        .env("LP_MECHANISM", "lazypoline+record")
        .env("LP_TRACE_OUT", &trace)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let (_, events) = replay::read_trace_path(&trace).expect("trace decodes");
    let count = |nr| events.iter().filter(|e| e.sysno == nr).count();
    assert!(count(syscalls::nr::WRITE) > 0, "ls's own output is recorded");
    assert_eq!(count(syscalls::nr::PWRITE64), 0, "the sink's own writes landed in the trace");
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
        let mut shell = preloaded(&so, "/bin/sh");
        shell
            .args(["-c", &script])
            .env("LP_MECHANISM", name)
            .env("LP_TRACE_OUT", root.join("tree.%p.lpt"));
        let out = output_within(shell, SHELL_DEADLINE, name, &root);
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

/// How long one shell of [`fork_exec_tree`] may run; it takes well
/// under a second.
const SHELL_DEADLINE: Duration = Duration::from_secs(30);

/// `cmd`'s output, its stdout and stderr going through files in `dir`.
/// A process that outlives `deadline` is killed with its descendants,
/// and the test fails naming `what` and showing each one's
/// `/proc/<pid>/stat`: a hang is a failure with evidence, not a
/// timeout of the whole run.
fn output_within(mut cmd: Command, deadline: Duration, what: &str, dir: &Path) -> Output {
    let (out, err) = (dir.join("stdout"), dir.join("stderr"));
    let mut child = cmd
        .stdout(std::fs::File::create(&out).unwrap())
        .stderr(std::fs::File::create(&err).unwrap())
        .spawn()
        .unwrap();
    let start = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break status;
        }
        if start.elapsed() > deadline {
            let tree = process_tree(child.id());
            let evidence: Vec<String> = tree
                .iter()
                .map(|pid| {
                    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"));
                    format!("/proc/{pid}/stat: {}", stat.unwrap_or_else(|e| e.to_string()).trim())
                })
                .collect();
            for &pid in &tree {
                // SAFETY: `kill` takes no pointers; the pids are this
                // test's child and its descendants.
                unsafe { libc::kill(pid as libc::pid_t, libc::SIGKILL) };
            }
            let _ = child.wait();
            panic!("{what}: still running after {deadline:?}, killed\n{}", evidence.join("\n"));
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    Output {
        status,
        stdout: std::fs::read(&out).unwrap(),
        stderr: std::fs::read(&err).unwrap(),
    }
}

/// `pid` and its live descendants, parents first, as far as
/// `/proc/<pid>/task/<tid>/children` tells.
fn process_tree(pid: u32) -> Vec<u32> {
    let mut tree = vec![pid];
    let mut i = 0;
    while let Some(&pid) = tree.get(i) {
        let tasks = std::fs::read_dir(format!("/proc/{pid}/task")).into_iter().flatten();
        for task in tasks.flatten() {
            let children = std::fs::read_to_string(task.path().join("children")).unwrap_or_default();
            tree.extend(children.split_whitespace().filter_map(|c| c.parse::<u32>().ok()));
        }
        i += 1;
    }
    tree
}

/// A hardened shell takes its wrapped signals: a trapped `SIGUSR1`, and
/// the `SIGCHLD` of a subshell.
#[test]
fn hardened_shell_takes_its_signals() {
    let Some(so) = ready() else { return };
    let script = r#"trap "echo got" USR1; kill -USR1 $$; ( : ); echo after"#;
    let out = preloaded(&so, "/bin/sh")
        .args(["-c", script])
        .env("LP_MECHANISM", "lazypoline-hardened")
        .output()
        .unwrap();
    let stderr = stderr_of(&out);
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
    assert_eq!(out.stdout, b"got\nafter\n", "{stderr}");
}

/// Under `lazypoline-hardened` with the backstop armed, `execve` and
/// `execveat` fail with `EACCES` and are counted in `bypass_blocked`:
/// the filter outlives the exec and admits only the old image's gate,
/// so the new image died of `SIGSYS` at `ld.so`'s first syscall (the
/// shell exited 159). DESIGN.md §6 says why the row refuses the exec.
#[test]
fn hardened_exec_is_refused_and_counted() {
    let Some(so) = ready() else { return };
    // The shell forks and its child execs; `exec` execs in the process
    // whose dump is printed.
    for (script, blocked) in [("/bin/true", 0), ("exec /bin/true", 1)] {
        let out = preloaded(&so, "/bin/sh")
            .args(["-c", script])
            .env("LP_MECHANISM", "lazypoline-hardened")
            .env("LAZYPOLINE_STATS", "1")
            .output()
            .unwrap();
        let stderr = stderr_of(&out);
        assert_eq!(out.status.code(), Some(126), "{script}: {:?}: {stderr}", out.status);
        assert!(stderr.contains("Permission denied"), "{script}: {stderr}");
        assert_eq!(dump_field(&stderr, "bypass_blocked"), blocked, "{script}: {stderr}");
    }

    // `fexecve` is glibc's `execveat(fd, "", …, AT_EMPTY_PATH)`.
    if !Path::new("/usr/bin/python3").exists() {
        eprintln!("skipping the execveat half: no /usr/bin/python3");
        return;
    }
    let script = "import os\ntry:\n    os.execve(os.open('/bin/true', os.O_RDONLY), ['true'], {})\n\
                  except PermissionError:\n    print('refused')";
    let out = preloaded(&so, "/usr/bin/python3")
        .args(["-c", script])
        .env("LP_MECHANISM", "lazypoline-hardened")
        .output()
        .unwrap();
    let stderr = stderr_of(&out);
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
    assert_eq!(out.stdout, b"refused\n", "{stderr}");
}

/// Host programs under `lazypoline+hooks` with `hook_poison`, which
/// overwrites every vector and floating-point register on every
/// dispatch: the default mask puts back everything they read, so their
/// output and exit status are the bare run's (Table III's native
/// section; EXPERIMENTS.md).
#[test]
fn poison_under_the_default_mask_changes_no_output() {
    let Some(so) = ready() else { return };
    let hook = hookabi::resolve_library("hook_poison");
    if !hook.is_absolute() {
        eprintln!("skipping: libhook_poison.so not built (cargo build --release)");
        return;
    }
    let (root, dir) = scratch("poison");
    let lines = root.join("lines.txt");
    let text: String = (0..20_000u64)
        .map(|i| format!("{:x}\n", i.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
        .collect();
    std::fs::write(&lines, text).unwrap();
    let lines = lines.to_str().unwrap();
    for argv in [
        vec!["ls", "-l", &dir],
        vec!["sort", lines],
        vec!["sha256sum", lines],
        vec!["gzip", "-c", lines],
    ] {
        let Some(program) = lp_bench::table3::find_program(argv[0]) else {
            eprintln!("skipping {}: not installed", argv[0]);
            continue;
        };
        let bare = plain(program.to_str().unwrap()).args(&argv[1..]).output().unwrap();
        let out = preloaded(&so, program.to_str().unwrap())
            .args(&argv[1..])
            .env("LP_MECHANISM", "lazypoline+hooks")
            .env("LP_HOOKS", &hook)
            .env("LAZYPOLINE_STATS", "1")
            .output()
            .unwrap();
        let stderr = stderr_of(&out);
        assert_eq!(out.status.code(), bare.status.code(), "{argv:?}: {stderr}");
        assert_eq!(out.stdout, bare.stdout, "{argv:?}: {stderr}");
        assert!(dump_field(&stderr, "hook_dispatches") > 0, "{argv:?}: the hook ran\n{stderr}");
    }
    let _ = std::fs::remove_dir_all(root);
}

/// A fresh cache directory under `root`, for the shim to create.
fn site_cache(root: &Path) -> PathBuf {
    let _ = std::fs::remove_dir_all(root);
    std::fs::create_dir_all(root).unwrap();
    root.join("sites")
}

/// Every entry of a cache directory, with its mtime.
fn cache_entries(cache: &Path) -> Vec<(PathBuf, std::time::SystemTime)> {
    let mut entries: Vec<_> = std::fs::read_dir(cache)
        .unwrap()
        .map(|e| {
            let path = e.unwrap().path();
            let mtime = std::fs::metadata(&path).unwrap().modified().unwrap();
            (path, mtime)
        })
        .collect();
    entries.sort();
    entries
}

/// An entry: magic (8 bytes), record count (8), then per object a key
/// (72: dev major, minor as u32, inode as u64, …), an offset count (8)
/// and the offsets, each a little-endian u64.
const MAGIC_LEN: usize = 8;
const KEY_LEN: usize = 72;

/// One object's record: its key and its cached file offsets.
type Record = (Vec<u8>, Vec<u64>);

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

fn entry_records(bytes: &[u8]) -> Vec<Record> {
    let mut records = Vec::new();
    let mut at = MAGIC_LEN + 8;
    while at < bytes.len() {
        let key = bytes[at..at + KEY_LEN].to_vec();
        let n = u64_at(bytes, at + KEY_LEN) as usize;
        at += KEY_LEN + 8;
        records.push((key, (0..n).map(|i| u64_at(bytes, at + 8 * i)).collect()));
        at += 8 * n;
    }
    assert_eq!(records.len() as u64, u64_at(bytes, MAGIC_LEN));
    records
}

fn entry_bytes(magic: &[u8], records: &[Record]) -> Vec<u8> {
    let mut bytes = magic[..MAGIC_LEN].to_vec();
    bytes.extend((records.len() as u64).to_le_bytes());
    for (key, offsets) in records {
        bytes.extend(key);
        bytes.extend((offsets.len() as u64).to_le_bytes());
        offsets.iter().for_each(|o| bytes.extend(o.to_le_bytes()));
    }
    bytes
}

/// The records of the entry at `path` keyed to the file at `object`.
fn records_of(path: &Path, object: &Path) -> Vec<Record> {
    let bytes = std::fs::read(path).unwrap_or_default();
    if bytes.is_empty() {
        return Vec::new();
    }
    entry_records(&bytes)
        .into_iter()
        .filter(|(key, _)| keys(key, object))
        .collect()
}

/// `(major, minor, inode)` of the file at `path`.
fn file_id(path: &Path) -> (u64, u64, u64) {
    use std::os::unix::fs::MetadataExt;
    let meta = std::fs::metadata(path).unwrap();
    let dev = meta.dev();
    let major = ((dev >> 8) & 0xfff) | ((dev >> 32) & !0xfff);
    let minor = (dev & 0xff) | ((dev >> 12) & !0xff);
    (major, minor, meta.ino())
}

/// Whether `key` is the record key of the file at `path`.
fn keys(key: &[u8], path: &Path) -> bool {
    let u32_at = |at: usize| u32::from_le_bytes(key[at..at + 4].try_into().unwrap()) as u64;
    (u32_at(0), u32_at(4), u64_at(key, 8)) == file_id(path)
}

/// The path of the entry of the program at `program`: one per program,
/// `<major>-<minor>-<inode>.sites` (hex), holding a record per object
/// the program proved sites in.
fn entry_of(cache: &Path, program: &Path) -> PathBuf {
    let (major, minor, ino) = file_id(program);
    cache.join(format!("{major:x}-{minor:x}-{ino:x}.sites"))
}

/// The libc this test binary (and so `/bin/ls`) runs with.
fn libc_path() -> PathBuf {
    let maps = std::fs::read_to_string("/proc/self/maps").unwrap();
    let line = maps
        .lines()
        .find(|l| l.contains("/libc.so.6"))
        .expect("libc mapped");
    PathBuf::from(&line[line.find('/').unwrap()..])
}

/// The cache keys only a file unchanged since the process started, by
/// ctime against the coarse wall clock. A test that has just written a
/// file waits this long before it runs a process that maps it.
fn past_the_clock_tick() {
    std::thread::sleep(std::time::Duration::from_millis(50));
}

/// A second run against the same cache directory takes its libc sites
/// from the cache instead of proving them again, prints the same bytes,
/// and writes nothing.
#[test]
fn site_cache_warm_run() {
    let Some(so) = ready() else { return };
    let root = std::env::temp_dir().join(format!("lp-preload-warm-{}", std::process::id()));
    let cache = site_cache(&root);
    let run = || {
        let out = preloaded(&so, "/bin/ls")
            .args(["-l", "/etc"])
            .env("LP_SITE_CACHE", &cache)
            .env("LAZYPOLINE_STATS", "1")
            .output()
            .unwrap();
        assert!(out.status.success(), "{out:?}");
        out
    };
    let cold = run();
    let written = cache_entries(&cache);
    assert_eq!(written.len(), 1, "{written:?}");
    assert_eq!(
        records_of(&entry_of(&cache, Path::new("/bin/ls")), &libc_path()).len(),
        1
    );
    let warm = run();
    assert_eq!(cold.stdout, warm.stdout);
    let (cold_err, warm_err) = (stderr_of(&cold), stderr_of(&warm));
    let trips = |dump: &str| dump_field(dump, "slow-path (SIGSYS) trips");
    assert!(
        trips(&warm_err) < trips(&cold_err),
        "{cold_err}\n{warm_err}"
    );
    assert_eq!(dump_field(&cold_err, "sites_from_cache"), 0, "{cold_err}");
    assert!(dump_field(&warm_err, "sites_from_cache") > 0, "{warm_err}");
    assert_eq!(
        cache_entries(&cache),
        written,
        "a warm run wrote to the cache"
    );
    std::fs::remove_dir_all(&root).unwrap();
}

/// A program that takes fewer SIGSYS than a warm read costs gets no
/// entry: `/bin/true` (one trip) leaves not even the directory behind,
/// and writes nothing into an empty one. It takes that one trip and no
/// more: the dump is rendered after the exit write, whose syscalls leave
/// from the gate (from the shim's own text they would take three more:
/// the directory's `openat` and `statx`, `geteuid`).
#[test]
fn site_cache_skips_programs_too_short_to_gain() {
    let Some(so) = ready() else { return };
    let root = std::env::temp_dir().join(format!("lp-preload-short-{}", std::process::id()));
    let cache = site_cache(&root);
    let run = |what: &str| {
        let out = preloaded(&so, "/bin/true")
            .env("LP_SITE_CACHE", &cache)
            .env("LAZYPOLINE_STATS", "1")
            .output()
            .unwrap();
        assert!(out.status.success(), "{what}: {out:?}");
        let dump = stderr_of(&out);
        assert_eq!(
            dump_field(&dump, "slow-path (SIGSYS) trips"),
            1,
            "{what}: {dump}"
        );
    };
    run("no directory");
    assert!(!cache.exists(), "{:?}", cache_entries(&cache));
    std::fs::create_dir(&cache).unwrap();
    std::fs::set_permissions(&cache, std::os::unix::fs::PermissionsExt::from_mode(0o700)).unwrap();
    run("an empty directory");
    assert!(
        cache_entries(&cache).is_empty(),
        "{:?}",
        cache_entries(&cache)
    );
    std::fs::remove_dir_all(&root).unwrap();
}

/// No cached site is patched from a file that changed since, or from an
/// entry that names a site whose bytes are not `syscall`.
#[test]
fn site_cache_refuses_stale_entries() {
    let Some(so) = ready() else { return };
    let root = std::env::temp_dir().join(format!("lp-preload-stale-{}", std::process::id()));
    let cache = site_cache(&root);
    let reference = plain("/bin/ls").args(["-l", "/etc"]).output().unwrap();
    let run = |lib_dir: Option<&Path>| {
        let mut cmd = preloaded(&so, "/bin/ls");
        cmd.args(["-l", "/etc"])
            .env("LP_SITE_CACHE", &cache)
            .env("LAZYPOLINE_STATS", "1");
        if let Some(dir) = lib_dir {
            cmd.env("LD_LIBRARY_PATH", dir);
        }
        let out = cmd.output().unwrap();
        assert!(out.status.success(), "{out:?}");
        assert_eq!(out.stdout, reference.stdout);
        stderr_of(&out)
    };
    let ls_entry = entry_of(&cache, Path::new("/bin/ls"));
    // Cuts `ls`'s entry down to the record of the object at `object`
    // (so the next run's counts are that record's alone); its bytes.
    let only_record_of = |object: &Path| {
        let bytes = std::fs::read(&ls_entry).unwrap();
        let kept = records_of(&ls_entry, object);
        assert_eq!(kept.len(), 1, "no record of {object:?} in {ls_entry:?}");
        let bytes = entry_bytes(&bytes, &kept);
        std::fs::write(&ls_entry, &bytes).unwrap();
        bytes
    };
    let applied_nothing = |dump: &str| {
        assert_eq!(dump_field(dump, "sites_from_cache"), 0, "{dump}");
        assert!(dump.contains("(0 sites from 0 objects)"), "{dump}");
        assert!(dump_field(dump, "slow-path (SIGSYS) trips") > 0, "{dump}");
    };

    // (i) A copy of libc, proved once, then rewritten in place: one byte
    // of its build-id note (code untouched, so every cached site still
    // reads `syscall`; only the key tells).
    let lib_dir = root.join("lib");
    std::fs::create_dir_all(&lib_dir).unwrap();
    let copy = lib_dir.join("libc.so.6");
    std::fs::copy(libc_path(), &copy).unwrap();
    past_the_clock_tick();
    run(Some(&lib_dir));
    let (stale_key, _) = entry_records(&only_record_of(&copy)).remove(0);
    let mut bytes = std::fs::read(&copy).unwrap();
    let note = b"\x04\0\0\0\x14\0\0\0\x03\0\0\0GNU\0";
    let at = bytes
        .windows(note.len())
        .position(|w| w == note)
        .expect("a GNU build-id")
        + note.len();
    bytes[at] ^= 0xff;
    std::fs::write(&copy, &bytes).unwrap();
    past_the_clock_tick();
    applied_nothing(&run(Some(&lib_dir)));
    // What that run proved replaced the stale record.
    let records = records_of(&ls_entry, &copy);
    assert_eq!(records.len(), 1);
    assert!(records[0].0 != stale_key);

    // (ii) The system libc's record, forged: one more offset, right
    // after a real site, where the bytes read `05 ..`, not `0f 05`.
    std::fs::remove_dir_all(&cache).unwrap();
    run(None);
    let libc = libc_path();
    let (key, mut offsets) = entry_records(&only_record_of(&libc)).remove(0);
    let bogus = offsets[0] + 1;
    assert!(!offsets.contains(&bogus));
    offsets.insert(1, bogus);
    let forged = entry_bytes(b"LPSITES2", &[(key, offsets)]);
    std::fs::write(&ls_entry, &forged).unwrap();
    applied_nothing(&run(None));
    // Dropped when read; what the run wrote back holds only proved sites.
    assert_ne!(std::fs::read(&ls_entry).unwrap_or_default(), forged);
    let records = records_of(&ls_entry, &libc);
    assert!(
        records.iter().all(|(_, offsets)| !offsets.contains(&bogus)),
        "{records:?}"
    );
    std::fs::remove_dir_all(&root).unwrap();
}

/// `mov eax, 39 (getpid); syscall; ret`, then zeroes to a page: a file
/// to map and run, whose one site is at offset 5.
const GETPID_PAGE_SITE: u64 = 5;

fn getpid_page() -> Vec<u8> {
    let mut page = vec![0u8; 4096];
    page[..8].copy_from_slice(&[0xb8, 0x27, 0, 0, 0, 0x0f, 0x05, 0xc3]);
    page
}

/// The child half of [`site_cache_keeps_only_sites_it_can_vouch_for`]:
/// maps `a.bin` and calls it, so the shim proves and rewrites its site;
/// then `keep` leaves it mapped, `remap` maps `b.bin` (the same bytes,
/// another file) at the same address, `rewrite` changes `a.bin` under
/// the mapping.
fn map_and_call(dir: &Path, how: &str) {
    use syscalls::{nr, raw};
    let open = |name: &str| {
        let path = std::ffi::CString::new(dir.join(name).to_str().unwrap()).unwrap();
        // SAFETY: open(2) with a NUL-terminated path.
        unsafe { raw::syscall2(nr::OPEN, path.as_ptr() as u64, 0) }
    };
    let map = |fd: u64, at: u64, flags: u64| {
        const PROT_READ_EXEC: u64 = 0x1 | 0x4;
        const MAP_PRIVATE: u64 = 0x02;
        // SAFETY: a private, read-execute mapping of one page of a file.
        unsafe {
            raw::syscall6(
                nr::MMAP,
                at,
                4096,
                PROT_READ_EXEC,
                MAP_PRIVATE | flags,
                fd,
                0,
            )
        }
    };
    let at = map(open("a.bin"), 0, 0);
    // SAFETY: the page holds `mov eax, 39; syscall; ret`.
    let getpid: extern "C" fn() -> i64 = unsafe { std::mem::transmute(at as usize) };
    assert_eq!(getpid(), std::process::id() as i64);
    match how {
        "keep" => {}
        "remap" => {
            const MAP_FIXED_NOREPLACE: u64 = 0x100000;
            // SAFETY: unmapping the page mapped above.
            unsafe { raw::syscall2(nr::MUNMAP, at, 4096) };
            assert_eq!(
                map(open("b.bin"), at, MAP_FIXED_NOREPLACE),
                at,
                "b.bin not mapped where a.bin was"
            );
        }
        "rewrite" => {
            // In place: a truncation would unmap the rewritten page too.
            use std::os::unix::fs::FileExt;
            let a = std::fs::OpenOptions::new()
                .write(true)
                .open(dir.join("a.bin"))
                .unwrap();
            a.write_all_at(&[1], 4095).unwrap();
        }
        _ => unreachable!("{how}"),
    }
}

/// A site counts only if what is mapped there at exit is what the
/// process proved it in: a mapped page whose file took another's place
/// at the same address, or whose file changed after the process started,
/// leaves no entry, while the same page left alone does.
#[test]
fn site_cache_keeps_only_sites_it_can_vouch_for() {
    if let Ok(how) = std::env::var("LP_TEST_MAP_AND_CALL") {
        map_and_call(Path::new(&std::env::var("LP_TEST_DIR").unwrap()), &how);
        return;
    }
    let Some(so) = ready() else { return };
    let root = std::env::temp_dir().join(format!("lp-preload-vouch-{}", std::process::id()));
    for how in ["keep", "remap", "rewrite"] {
        let cache = site_cache(&root.join(how));
        let dir = root.join(how).join("bin");
        std::fs::create_dir_all(&dir).unwrap();
        let (a, b) = (dir.join("a.bin"), dir.join("b.bin"));
        std::fs::write(&a, getpid_page()).unwrap();
        std::fs::write(&b, getpid_page()).unwrap();
        past_the_clock_tick();
        let out = preloaded(&so, std::env::current_exe().unwrap().to_str().unwrap())
            .args([
                "site_cache_keeps_only_sites_it_can_vouch_for",
                "--exact",
                "--nocapture",
                "--test-threads=1",
            ])
            .env("LP_SITE_CACHE", &cache)
            .env("LP_TEST_MAP_AND_CALL", how)
            .env("LP_TEST_DIR", &dir)
            .output()
            .unwrap();
        assert!(out.status.success(), "{how}: {out:?}");
        let entry = entry_of(&cache, &std::env::current_exe().unwrap());
        let (of_a, of_b) = (records_of(&entry, &a), records_of(&entry, &b));
        if how == "keep" {
            let offsets: Vec<_> = of_a.into_iter().map(|(_, offsets)| offsets).collect();
            assert_eq!(offsets, [[GETPID_PAGE_SITE]], "{how}");
        } else {
            assert!(
                of_a.is_empty() && of_b.is_empty(),
                "{how}: {of_a:?} {of_b:?}"
            );
        }
    }
    std::fs::remove_dir_all(&root).unwrap();
}

/// The cache is no layer's business: `ls` recorded with no cache, with a
/// cold one and with a warm one is one flow, `(sysno, ret)` for
/// `(sysno, ret)` — none of the cache's reads and writes is in it.
#[test]
fn site_cache_is_invisible_to_record() {
    use std::os::unix::process::CommandExt;
    let Some(so) = ready() else { return };
    let root = std::env::temp_dir().join(format!("lp-preload-invisible-{}", std::process::id()));
    let cache = site_cache(&root);
    let record = |setting: &Path, trace: &str| {
        let trace = root.join(trace);
        let mut cmd = preloaded(&so, "/bin/ls");
        cmd.args(["-l", "/etc"])
            .env("LP_MECHANISM", "lazypoline+record")
            .env("LP_TRACE_OUT", &trace)
            .env("LP_SITE_CACHE", setting);
        // `mmap` and `brk` return addresses: the same ones every run
        // only with the layout unrandomised.
        const PERSONALITY: u64 = 135;
        const ADDR_NO_RANDOMIZE: u64 = 0x0040000;
        // SAFETY: personality(2) in the child before `execve`.
        unsafe {
            cmd.pre_exec(|| {
                syscalls::raw::syscall1(PERSONALITY, ADDR_NO_RANDOMIZE);
                Ok(())
            })
        };
        let out = cmd.output().unwrap();
        assert!(out.status.success(), "{out:?}");
        let (_, events) = replay::read_trace_path(&trace).expect("trace decodes");
        events.iter().map(|e| (e.sysno, e.ret)).collect::<Vec<_>>()
    };
    let off = record(Path::new("off"), "off.lpt");
    let cold = record(&cache, "cold.lpt");
    assert!(
        !cache_entries(&cache).is_empty(),
        "the cold run wrote no entry"
    );
    let warm = record(&cache, "warm.lpt");
    use syscalls::nr;
    let cache_only = [
        nr::RENAME,
        nr::RENAMEAT,
        nr::RENAMEAT2,
        nr::UNLINKAT,
        nr::MKDIR,
        nr::MKDIRAT,
    ];
    assert!(
        !off.iter().any(|(sysno, _)| cache_only.contains(sysno)),
        "{off:?}"
    );
    assert_eq!(cold, off, "the cold run's flow differs");
    assert_eq!(warm, off, "the warm run's flow differs");
    std::fs::remove_dir_all(&root).unwrap();
}

/// One failure rule: whatever is wrong with the configuration, the
/// application runs as if the shim were not there, and says so once.
/// Each row sets one variable, under plain `lazypoline` unless the row
/// names the mechanism: a malformed value fails whether or not a layer
/// would read it.
#[test]
fn bad_configuration_runs_uninterposed() {
    let Some(so) = ready() else { return };
    let reference = plain("/bin/ls").arg("/").output().unwrap();
    for (var, value, why) in [
        ("LP_MECHANISM", "lazypoline+nope", "LP_MECHANISM"),
        ("LP_MECHANISM", "sim:lazypoline", "bad configuration: LP_MECHANISM=\"sim:lazypoline\""),
        ("LP_MECHANISM", "sud-raw", "cannot interpose a preloaded process"),
        ("LP_MECHANISM", "lazypoline+sfip", "sfip policy failed"),
        ("LP_HOOKS", "/nonexistent.so", "hook loading failed"),
        ("LAZYPOLINE_MODE", "cuont", "LAZYPOLINE_MODE"),
        ("LAZYPOLINE_STATS", "yes", "LAZYPOLINE_STATS"),
        ("LAZYPOLINE_FAULTS", "patch_mprotect:evry=3", "LAZYPOLINE_FAULTS"),
        ("LP_HARDEN_POLICY", "qaurantine", "LP_HARDEN_POLICY"),
        ("LP_HOOKS_WATCH", "yes", "LP_HOOKS_WATCH"),
        ("LP_SFIP_ORIGINS", "on", "LP_SFIP_ORIGINS"),
        ("LP_SFIP_POLICY_ACTION", "cuont", "LP_SFIP_POLICY_ACTION"),
        ("LP_RING_CAPACITY", "1000", "LP_RING_CAPACITY"),
        ("LP_RING_CAPACITY", "abc", "LP_RING_CAPACITY"),
        ("LP_DRAIN", "asnyc", "LP_DRAIN"),
    ] {
        let out = preloaded(&so, "/bin/ls")
            .arg("/")
            .env("LAZYPOLINE_STATS", "1")
            .env(var, value)
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
    let (_, exported) = dynamic_section(&std::fs::read(&so).unwrap());
    let leaked: Vec<&String> = exported
        .iter()
        .filter(|name| name.starts_with("LP_") || name.starts_with("lp_"))
        .collect();
    assert!(leaked.is_empty(), "{} exports {leaked:?}", so.display());
}

/// A panic in the shim's own mode handler (`handler_panic`, a
/// `LAZYPOLINE_FAULTS` site) is caught by the handler registry inside
/// the cdylib — by the shim's private, static unwinder — and quarantines
/// the handler: the program runs on, uninterposed, with its own output.
#[test]
fn a_panicking_mode_handler_is_quarantined() {
    let Some(so) = ready() else { return };
    let reference = plain("/bin/echo").args(["one", "two"]).output().unwrap();
    let out = preloaded(&so, "/bin/echo")
        .args(["one", "two"])
        .env("LAZYPOLINE_FAULTS", "handler_panic:nth=3")
        .output()
        .unwrap();
    let stderr = stderr_of(&out);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert_eq!(out.stdout, reference.stdout, "{stderr}");
    assert!(
        stderr.contains("interpose: handler panicked; quarantined (syscalls pass through)\n"),
        "{stderr}"
    );
}

/// What the shim asks the loader for: `libc` and the loader itself. The
/// unwinder is linked in (`libgcc_eh.a`) and none of its symbols is
/// exported. Read from the ELF file itself, no `readelf` needed.
#[test]
fn shim_needs_only_libc_and_the_loader() {
    let Some(so) = preload_so() else {
        eprintln!("skipping: liblazypoline_preload.so not built");
        return;
    };
    let elf = std::fs::read(&so).unwrap();
    let (needed, exported) = dynamic_section(&elf);
    let mut needed: Vec<&str> = needed.iter().map(String::as_str).collect();
    needed.sort_unstable();
    assert_eq!(
        needed,
        ["ld-linux-x86-64.so.2", "libc.so.6"],
        "{}",
        so.display()
    );
    let unwinder: Vec<&String> = exported
        .iter()
        .filter(|s| s.starts_with("_Unwind_"))
        .collect();
    assert!(unwinder.is_empty(), "{} exports {unwinder:?}", so.display());
}

/// The `DT_NEEDED` names and the defined global or weak dynamic symbols
/// of a little-endian ELF64 file.
fn dynamic_section(elf: &[u8]) -> (Vec<String>, Vec<String>) {
    const SHT_DYNAMIC: u32 = 6;
    const SHT_DYNSYM: u32 = 11;
    const DT_NEEDED: u64 = 1;
    assert_eq!(&elf[..5], b"\x7fELF\x02", "an ELF64 file");
    let u16_at = |at: usize| u16::from_le_bytes(elf[at..at + 2].try_into().unwrap()) as usize;
    let u32_at = |at: usize| u32::from_le_bytes(elf[at..at + 4].try_into().unwrap());
    let (shoff, shentsize, shnum) = (u64_at(elf, 0x28) as usize, u16_at(0x3a), u16_at(0x3c));
    // A section header: type at 4, file offset at 24, size at 32,
    // linked section at 40.
    let section = |i: usize| shoff + i * shentsize;
    let body = |sh: usize| {
        let (at, size) = (u64_at(elf, sh + 24) as usize, u64_at(elf, sh + 32) as usize);
        &elf[at..at + size]
    };
    let string = |sh: usize, at: usize| {
        let strtab = body(section(u32_at(sh + 40) as usize));
        let s = &strtab[at..];
        String::from_utf8_lossy(&s[..s.iter().position(|&b| b == 0).unwrap()]).into_owned()
    };
    let (mut needed, mut exported) = (Vec::new(), Vec::new());
    for sh in (0..shnum).map(section) {
        match u32_at(sh + 4) {
            SHT_DYNAMIC => {
                for entry in body(sh).chunks_exact(16) {
                    if u64_at(entry, 0) == DT_NEEDED {
                        needed.push(string(sh, u64_at(entry, 8) as usize));
                    }
                }
            }
            SHT_DYNSYM => {
                // Name (4), info (1), other (1), section index (2), …
                for sym in body(sh).chunks_exact(24) {
                    let bind = sym[4] >> 4;
                    let defined = u16::from_le_bytes([sym[6], sym[7]]) != 0;
                    if defined && (bind == 1 || bind == 2) {
                        let name = u32::from_le_bytes(sym[..4].try_into().unwrap());
                        exported.push(string(sh, name as usize));
                    }
                }
            }
            _ => {}
        }
    }
    (needed, exported)
}
