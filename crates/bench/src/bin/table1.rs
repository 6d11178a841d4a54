//! Regenerates **Table I**: characteristics of popular non-intrusive
//! syscall interposition solutions.
//!
//! The rows are the simulated mechanisms' trait descriptions. The
//! sim-interpose test suite checks expressiveness and exhaustiveness
//! against observable behaviour (what each mechanism's interposer
//! sees); the efficiency column is what `table2` measures natively for
//! the same mechanisms (its `seccomp-bpf`, `seccomp-trap`,
//! `seccomp-user`, `ptrace`, `SUD`, `zpoline` and `lazypoline` rows).

use lp_bench::report::Table;
use sim_interpose::{mechanism_traits, Mechanism};

fn main() {
    println!("Table I — characteristics of syscall interposition solutions\n");
    let mut table = Table::new(["Mechanism", "Expressiveness", "Exhaustiveness", "Efficiency"]);
    let rows = [
        Mechanism::Ptrace,
        Mechanism::SeccompBpf,
        Mechanism::SeccompUser,
        Mechanism::Sud,
        Mechanism::Zpoline,
        Mechanism::Lazypoline { xstate: true },
    ];
    for m in rows {
        let t = mechanism_traits(m);
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
