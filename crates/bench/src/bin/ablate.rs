//! The ablation of a design choice DESIGN.md calls out that is not a
//! Table II row. (Extended-state preservation on/off, lazy rewriting
//! on/off and batch rewriting on/off are: `table2` prints them from
//! its one measurement session.)
//!
//! 1b. **Extended-state granularity** (native): what each XSAVE
//!     component level costs on the fast path — the tuning space the
//!     paper's configurable option exposes (§IV-B(b)).
//!
//! Ablations 3 (seccomp filter length) and 4 (signal-cost sensitivity)
//! printed a simulated cycle model and are gone (EXPERIMENTS.md
//! "Ablations").

use lp_bench::micro;
use lp_bench::report::Table;

fn main() {
    if !micro::environment_supported() {
        println!("native ablation skipped (needs SUD + vm.mmap_min_addr=0)\n");
        return;
    }
    println!("Ablation 1b — XSAVE component granularity (native fast path):\n");
    let mut t = Table::new(["mask", "cycles/call"]);
    for (_, m) in micro::run_xstate_sweep() {
        t.row([m.name.to_string(), format!("{:.0}", m.cycles())]);
    }
    print!("{}", t.render());
    println!();
}
