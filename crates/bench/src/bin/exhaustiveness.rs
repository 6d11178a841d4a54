//! Regenerates the **§V-A exhaustiveness experiment**: a `getpid` whose
//! `syscall` instruction is emitted at run time is issued under SUD,
//! zpoline and lazypoline, and the three traces are compared.
//!
//! "lazypoline and SUD print the exact same syscalls, in the same
//! order, including our introduced getpid syscall […] zpoline's trace
//! does not include the relevant getpid, since the syscall instruction
//! from which it was invoked did not exist yet at load time."
//!
//! The paper JIT-compiles a C program with tcc. Here the window
//! ([`lp_bench::guest::window`]) maps a fresh RWX page holding
//! `mov eax, 39; syscall; ret` and calls it, which is the same
//! situation: a `syscall` that no scan made before it could have seen. Each row runs in a child process of its own
//! (`exhaustiveness --row <name>`), because an engine install is one-way
//! per process. It runs the window once to warm up, then records it.
//! The `zpoline` row detaches after the warm-up: what is left is pure
//! rewriting, where the sites the warm-up rewrote stay interposed and a
//! new one runs unseen. A row the host cannot install prints a `skip:`
//! line and exits 2, and so does the comparison.

use std::process::{exit, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

use interpose::{Action, SyscallEvent, SyscallHandler};
use lp_bench::guest::{window, JIT_CALL, WINDOW};

const ROWS: [&str; 3] = ["sud", "zpoline", "lazypoline"];

/// While set, [`Spy`] appends each syscall number it is shown to
/// [`TRACE`]: a fixed static array, so recording allocates nothing.
static RECORDING: AtomicBool = AtomicBool::new(false);
static TRACE: [AtomicU64; 16] = [const { AtomicU64::new(0) }; 16];
static TRACE_LEN: AtomicUsize = AtomicUsize::new(0);

struct Spy;

impl SyscallHandler for Spy {
    fn handle(&self, ev: &mut SyscallEvent) -> Action {
        if RECORDING.load(Ordering::SeqCst) {
            let i = TRACE_LEN.fetch_add(1, Ordering::SeqCst);
            if let Some(slot) = TRACE.get(i) {
                slot.store(ev.call.nr, Ordering::SeqCst);
            }
        }
        Action::Passthrough
    }
}

/// Child-process entry for `row`: installs it around [`Spy`], runs the
/// window twice and prints the second run's trace, one line of names.
fn row_main(row: &str) -> ! {
    let backend = mechanism::by_name(row).unwrap_or_else(|| panic!("{row:?} is not a row"));
    if !backend.is_available() {
        eprintln!("skip: {row} row (needs SUD and a mappable page zero)");
        exit(2);
    }
    let mut active = backend
        .install(Box::new(Spy))
        .unwrap_or_else(|e| panic!("install {row}: {e}"));
    window();
    if row == "zpoline" {
        active.detach();
    }
    RECORDING.store(true, Ordering::SeqCst);
    window();
    RECORDING.store(false, Ordering::SeqCst);
    let len = TRACE_LEN.load(Ordering::SeqCst);
    assert!(len <= TRACE.len(), "{len} calls overflow the trace");
    let names: Vec<String> = TRACE[..len]
        .iter()
        .map(|nr| {
            let nr = nr.load(Ordering::SeqCst);
            syscalls::nr::name(nr).map_or_else(|| nr.to_string(), str::to_owned)
        })
        .collect();
    println!("{}", names.join(", "));
    drop(active);
    exit(0)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(at) = args.iter().position(|a| a == "--row") {
        row_main(args.get(at + 1).map_or("", String::as_str));
    }
    println!("Exhaustiveness (paper §V-A): libc getpid, mmap of a fresh RWX page,");
    println!("the page's own getpid, libc getpid; each row's trace of that window:\n");
    let exe = std::env::current_exe().expect("the running binary's path");
    let mut traces = Vec::new();
    for row in ROWS {
        let out = Command::new(&exe)
            .args(["--row", row])
            .stderr(Stdio::inherit())
            .output()
            .expect("the row's child runs");
        if out.status.code() == Some(2) {
            eprintln!("skip: §V-A compares all three rows");
            exit(2);
        }
        assert!(out.status.success(), "{row} row: {}", out.status);
        let line = String::from_utf8_lossy(&out.stdout);
        let trace: Vec<String> = line.trim().split(", ").map(str::to_owned).collect();
        println!("{row:<10} : {}", trace.join(", "));
        traces.push(trace);
    }
    let [sud, zpoline, lazypoline] = <[Vec<String>; 3]>::try_from(traces).expect("three rows");
    assert_eq!(sud, WINDOW, "SUD sees every call of the window");
    assert_eq!(lazypoline, sud, "lazypoline's trace equals SUD's");
    let mut missed = sud;
    missed.remove(JIT_CALL);
    assert_eq!(
        zpoline, missed,
        "zpoline's trace is SUD's minus the page's getpid"
    );
    println!("\n=> lazypoline's trace equals SUD's, the runtime-emitted getpid included;");
    println!("   zpoline's lacks exactly that one call.");
}
