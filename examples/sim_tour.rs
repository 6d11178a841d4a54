//! A tour of the simulation substrate: assemble a guest program, run
//! it under five interposition mechanisms, and compare what each one
//! observed. (What each costs is measured natively: `table2`.)
//!
//! ```sh
//! cargo run --example sim_tour
//! ```
//!
//! Unlike the native examples, this one runs anywhere — the machine,
//! kernel, SUD, trampoline, and rewriting are all simulated.

use sim_cpu::asm::Asm;
use sim_cpu::reg::Gpr;
use sim_interpose::{Interposed, Mechanism};
use sim_kernel::sysno;

fn main() {
    // A guest that writes a message, JITs a getpid, and exits — small,
    // but it exercises files, runtime code generation, and exit paths.
    let program = Asm::new()
        .jmp("main")
        .label("msg")
        .raw(b"hello from the guest\n")
        .label("main")
        // write(1, msg, 21)
        .mov_ri(Gpr::R0, sysno::WRITE)
        .mov_ri(Gpr::R1, 1)
        .mov_ri_label(Gpr::R2, "msg")
        .mov_ri(Gpr::R3, 21)
        .syscall()
        // getpid
        .mov_ri(Gpr::R0, sysno::GETPID)
        .syscall()
        // exit_group(0)
        .mov_ri(Gpr::R0, sysno::EXIT_GROUP)
        .mov_ri(Gpr::R1, 0)
        .syscall()
        .assemble_at(sim_kernel::kernel::LOAD_ADDR)
        .expect("assembles");

    println!("mechanism            observed syscalls");
    println!("{}", "-".repeat(72));
    for mechanism in [
        Mechanism::Baseline,
        Mechanism::Zpoline,
        Mechanism::Sud,
        Mechanism::Lazypoline { xstate: true },
        Mechanism::Ptrace,
    ] {
        let mut ip = Interposed::setup(mechanism, &program, true).expect("setup");
        let exit = ip.run().expect("run");
        assert_eq!(exit, 0);
        let trace: Vec<String> = ip
            .observed_trace()
            .into_iter()
            .map(|nr| sysno::name(nr).unwrap_or("?").to_string())
            .collect();
        println!(
            "{:<20} {}",
            mechanism.name(),
            if trace.is_empty() {
                "(none — not an observing mechanism)".to_string()
            } else {
                trace.join(", ")
            }
        );
        assert_eq!(ip.system.stdout(), "hello from the guest\n");
    }
    println!("\nOK: same guest output under every mechanism; what each one sees differs.");
}
