//! `preload_exec`: unmodified `/bin/ls -l <generated directory>` under
//! `LD_PRELOAD=liblazypoline_preload.so LAZYPOLINE_MODE=count`; op =
//! one exec, stdout compared byte for byte with the un-preloaded run.
//! Engine init, lazy rewriting of every libc site `ls` touches, and a
//! short steady state: what a short-lived process pays.

use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

use crate::harness::{Check, Counters, Ctx, Side, Workload};
use crate::rng::Rng;
use crate::stats::Block;
use crate::sys;

const FILES: usize = 1000;
const BLOCKS: usize = 5;
const LS: &str = "/bin/ls";

/// Creates `FILES` empty files under `dir` whose names come from the
/// seed. Names have a fixed length, so every seed gives `ls` the same
/// amount of output to sort and format. (Empty: `ls -l` reads metadata
/// only, and data blocks would tie set-up time to the block allocator
/// and, on this sandbox's `discard`-mounted disk, to earlier deletes.)
pub fn generate_tree(dir: &Path, seed: u64) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut rng = Rng::new(seed);
    let mut made = 0;
    while made < FILES {
        let name = format!("f{:015x}", rng.next_u64() >> 4);
        let path = dir.join(name);
        if !path.exists() {
            File::create(path)?;
            made += 1;
        }
    }
    Ok(())
}

/// Reads one counter out of a `LAZYPOLINE_STATS=1` dump.
pub fn stats_field(dump: &str, label: &str) -> Option<u64> {
    dump.lines()
        .find_map(|l| l.strip_prefix(label))
        .and_then(|v| v.trim_start_matches([' ', ':']).trim().parse().ok())
}

/// What one `ls -l` run produced.
pub struct LsRun {
    pub wall_ns: u64,
    pub reaped: sys::Reaped,
    pub stdout: Vec<u8>,
}

/// Runs `ls -l tree` with stdout (and stderr, when `stderr_to` is
/// given) redirected into files under `scratch`, under the preload
/// shim when `preload` is given. The environment is built from
/// nothing: the child sees only what is listed here.
pub fn run_ls(
    tree: &Path,
    scratch: &Path,
    preload: Option<&Path>,
    extra_env: &[(&str, &str)],
    stderr_to: Option<&Path>,
) -> Result<LsRun, String> {
    let out_path = scratch.join("ls.stdout");
    let out = File::create(&out_path).map_err(|e| format!("{}: {e}", out_path.display()))?;
    let mut cmd = Command::new(LS);
    cmd.arg("-l")
        .arg(tree)
        .env_clear()
        .env("LC_ALL", "C")
        .env("TZ", "UTC");
    cmd.stdin(Stdio::null()).stdout(out);
    match stderr_to {
        Some(p) => cmd.stderr(File::create(p).map_err(|e| format!("{}: {e}", p.display()))?),
        None => cmd.stderr(Stdio::null()),
    };
    if let Some(lib) = preload {
        cmd.env("LD_PRELOAD", lib).env("LAZYPOLINE_MODE", "count");
    }
    for (k, v) in extra_env {
        cmd.env(k, v);
    }
    let t0 = Instant::now();
    let child = cmd.spawn().map_err(|e| format!("spawning {LS}: {e}"))?;
    // `wait4` instead of `Child::wait`: it also returns the child's
    // CPU time and peak resident set.
    let reaped = sys::reap(child.id()).map_err(|e| format!("wait4: {e}"))?;
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let stdout = std::fs::read(&out_path).map_err(|e| format!("{}: {e}", out_path.display()))?;
    Ok(LsRun {
        wall_ns,
        reaped,
        stdout,
    })
}

struct Prepared {
    scratch: PathBuf,
    preload: PathBuf,
    /// Output of the un-preloaded reference run.
    expected: Vec<u8>,
    /// Traced runs ask the shim for its counter dump (one more
    /// formatted write at exit, so untraced runs do not).
    stats_dump: Option<PathBuf>,
}

#[derive(Default)]
pub struct PreloadExec {
    /// The generated directory `ls` lists.
    tree: Option<PathBuf>,
    prep: Option<Prepared>,
    /// Engine counters summed over the traced mechanism execs.
    counters: Counters,
}

impl Workload for PreloadExec {
    fn blocks_per_side(&self) -> usize {
        BLOCKS
    }

    /// The tree is the benchmark's input, not the system's set-up: a
    /// thousand creates are 55–80 ms of filesystem journal on this
    /// sandbox's disk, varying by a factor of three from run to run, and
    /// inside `setup_s` they drowned the 20 ms the shim's set-up takes.
    fn generate_inputs(&mut self, cx: &Ctx) -> Result<(), String> {
        // One tree per run (a traced run is two runs in one process),
        // removed with the run directory.
        static TREES: AtomicU32 = AtomicU32::new(0);
        let n = TREES.fetch_add(1, Ordering::Relaxed);
        let tree = cx.dir.join(&format!("ls-tree-{n}"));
        generate_tree(&tree, cx.seed).map_err(|e| format!("generating {}: {e}", tree.display()))?;
        self.tree = Some(tree);
        Ok(())
    }

    fn prepare(&mut self, cx: &Ctx) -> Result<(), String> {
        let tree = self.tree.clone().ok_or("no generated tree")?;
        let scratch = cx.dir.path().to_path_buf();
        let reference = cx.tracer.span("spawn→wait", "lazypoline-preload", || {
            run_ls(&tree, &scratch, None, &[], None)
        })?;
        let lines = reference.stdout.iter().filter(|&&b| b == b'\n').count();
        if !reference.reaped.exited_zero || lines != FILES + 1 {
            return Err(format!(
                "reference `ls -l` printed {lines} lines for {FILES} files"
            ));
        }
        let preload = cx.artifacts.preload.clone();
        // Warm-up: the first preloaded exec pages the shim in.
        let warm = cx.tracer.span("spawn→wait", "lazypoline-preload", || {
            run_ls(&tree, &scratch, Some(&preload), &[], None)
        })?;
        if !warm.reaped.exited_zero || warm.stdout != reference.stdout {
            return Err("the preloaded warm-up run differs from the reference run".into());
        }
        self.prep = Some(Prepared {
            scratch,
            preload,
            expected: reference.stdout,
            stats_dump: cx.tracer.enabled().then(|| cx.dir.join("ls.stderr")),
        });
        Ok(())
    }

    fn enter(&mut self, _side: Side, _cx: &Ctx) -> Result<(), String> {
        Ok(())
    }

    fn block(&mut self, side: Side) -> Block {
        let p = self.prep.as_ref().expect("prepared");
        let tree = self.tree.as_deref().expect("generated");
        let preload = (side == Side::Mech).then_some(p.preload.as_path());
        let dump = p.stats_dump.as_deref().filter(|_| side == Side::Mech);
        let env: &[(&str, &str)] = if dump.is_some() {
            &[("LAZYPOLINE_STATS", "1")]
        } else {
            &[]
        };
        let run = run_ls(tree, &p.scratch, preload, env, dump);
        if let Some(text) = dump.and_then(|d| std::fs::read_to_string(d).ok()) {
            let field = |label| stats_field(&text, label).unwrap_or(0);
            self.counters.add(&Counters {
                dispatches: field("dispatcher invocations"),
                slow_path_hits: field("slow-path (SIGSYS) trips"),
                sites_patched: field("sites lazily rewritten"),
                unpatchable_emulations: field("unpatchable emulations"),
                patch_retries: field("patch retries"),
                pages_blocklisted: field("pages blocklisted"),
                ..Counters::default()
            });
        }
        match run {
            Ok(run) => Block {
                ops: 1,
                failed: u64::from(!run.reaped.exited_zero || run.stdout != p.expected),
                wall_ns: run.wall_ns,
                cpu_ns: run.reaped.cpu_ns,
                rss_kib: run.reaped.maxrss_kib,
            },
            Err(_) => Block {
                ops: 1,
                failed: 1,
                wall_ns: 1,
                ..Block::default()
            },
        }
    }

    fn leave(&mut self, _side: Side, _cx: &Ctx) -> Result<Check, String> {
        Ok(Check {
            counters: std::mem::take(&mut self.counters),
            ..Check::default()
        })
    }

    fn discard(&mut self) {
        self.prep = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_tree_and_ls_lists_it() {
        let base = std::env::temp_dir().join(format!("lpbench-ls-test-{}", std::process::id()));
        let (a, b) = (base.join("a"), base.join("b"));
        generate_tree(&a, 9).unwrap();
        generate_tree(&b, 9).unwrap();
        let names = |d: &Path| {
            let mut v: Vec<_> = std::fs::read_dir(d)
                .unwrap()
                .map(|e| e.unwrap().file_name())
                .collect();
            v.sort();
            v
        };
        assert_eq!(names(&a), names(&b));
        assert_eq!(names(&a).len(), FILES);
        let run = run_ls(&a, &base, None, &[], None).unwrap();
        assert!(run.reaped.exited_zero);
        assert_eq!(
            run.stdout.iter().filter(|&&c| c == b'\n').count(),
            FILES + 1
        );
        std::fs::remove_dir_all(&base).unwrap();
    }
}
