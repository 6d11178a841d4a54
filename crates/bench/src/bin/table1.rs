//! Regenerates **Table I**: characteristics of popular non-intrusive
//! syscall interposition solutions.
//!
//! The rows are `mechanism::TABLE_I`, the one place the registry's
//! rows take their traits from. Expressiveness and exhaustiveness are
//! checked natively: `exhaustiveness` traces one window under `sud`,
//! `zpoline` and `lazypoline` (zpoline misses the runtime-emitted
//! syscall). The efficiency column is what `table2` measures for the
//! same mechanisms (its `seccomp-bpf`, `seccomp-trap`, `seccomp-user`,
//! `ptrace`, `SUD`, `zpoline` and `lazypoline` rows).

use lp_bench::report::Table;
use mechanism::TABLE_I;

fn main() {
    println!("Table I — characteristics of syscall interposition solutions\n");
    let mut table = Table::new(["Mechanism", "Expressiveness", "Exhaustiveness", "Efficiency"]);
    for t in TABLE_I {
        table.row([
            t.name.to_string(),
            t.expressiveness.to_string(),
            if t.exhaustive { "yes".into() } else { "NO".to_string() },
            t.efficiency.to_string(),
        ]);
    }
    print!("{}", table.render());
    println!("\n(paper Table I: only the hybrid achieves Full + exhaustive + High)");
}
