//! Ablations of the design choices DESIGN.md calls out that are not
//! Table II rows. (Extended-state preservation on/off, lazy rewriting
//! on/off and batch rewriting on/off are: `table2` prints them from
//! its one measurement session.)
//!
//! 1b. **Extended-state granularity** (native): what each XSAVE
//!     component level costs on the fast path — the tuning space the
//!     paper's configurable option exposes (§IV-B(b)).
//! 3. **seccomp filter length** (simulated): how in-kernel filter cost
//!    scales with program size (why "seccomp-bpf is fast" still
//!    degrades with real policies).
//! 4. **Signal-delivery cost sensitivity** (simulated): SUD's overhead
//!    as a function of the kernel's signal cost — why signal-based
//!    interposition cannot be fixed by tuning.

use lp_bench::report::Table;
use lp_bench::{env_u64, micro};
use sim_interpose::{Interposed, Mechanism};
use sim_kernel::seccomp::BpfProgram;

fn main() {
    xstate_sweep();
    sim_filter_length();
    sim_signal_cost();
}

fn xstate_sweep() {
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

fn sim_filter_length() {
    println!("Ablation 3 — seccomp filter length (simulated):\n");
    let iters = env_u64("LP_SIM_ITERS", 2000);
    let program = sim_workloads::bench::microbench(iters);

    let base = {
        let mut ip = Interposed::setup(Mechanism::Baseline, &program, false).unwrap();
        ip.run().unwrap();
        ip.cycles() as f64
    };

    let mut t = Table::new(["filter insns", "overhead"]);
    for rules in [0usize, 8, 32, 128] {
        // A deny-list that never matches the benchmark syscall.
        let numbers: Vec<u64> = (1..=rules as u64).collect();
        let prog = if rules == 0 {
            BpfProgram::allow_all()
        } else {
            BpfProgram::deny_numbers(&numbers)
        };
        let len = prog.len();
        let mut ip = Interposed::setup(Mechanism::Baseline, &program, false).unwrap();
        ip.system.kernel.install_seccomp(prog);
        ip.run().unwrap();
        t.row([format!("{len}"), format!("{:.2}x", ip.cycles() as f64 / base)]);
    }
    print!("{}", t.render());
    println!("\nreal allow-list policies run tens of instructions per syscall.\n");
}

fn sim_signal_cost() {
    println!("Ablation 4 — SUD overhead vs kernel signal-delivery cost (simulated):\n");
    let iters = env_u64("LP_SIM_ITERS", 2000);
    let program = sim_workloads::bench::microbench(iters);

    let mut t = Table::new(["signal cost (cycles)", "SUD overhead", "lazypoline overhead"]);
    for factor in [0.5, 1.0, 2.0] {
        let mut base_ip = Interposed::setup(Mechanism::Baseline, &program, false).unwrap();
        base_ip.run().unwrap();
        let base = base_ip.cycles() as f64;

        let run = |mech| {
            let mut ip = Interposed::setup(mech, &program, false).unwrap();
            let c = &mut ip.system.kernel.cost;
            c.signal_deliver = (c.signal_deliver as f64 * factor) as u64;
            c.sigreturn = (c.sigreturn as f64 * factor) as u64;
            let cost = c.signal_deliver;
            ip.run().unwrap();
            (cost, ip.cycles() as f64 / base)
        };
        let (cost, sud) = run(Mechanism::Sud);
        let (_, lp) = run(Mechanism::Lazypoline { xstate: true });
        t.row([
            format!("{cost}"),
            format!("{sud:.1}x"),
            format!("{lp:.2}x"),
        ]);
    }
    print!("{}", t.render());
    println!(
        "\nSUD scales with signal cost; lazypoline pays it only once per site, so its \
         steady state is flat — the hybrid design in one table."
    );
}
