//! Table III over the simulation stack: the paper's extended-state
//! analysis of coreutils on glibc 2.31 and 2.39, which this host cannot
//! run natively.

use sim_workloads::{LibcFlavor, COREUTILS};

#[test]
fn table3_full_matrix() {
    let expect_ubuntu = ["ls", "mkdir", "mv", "cp"];
    for util in COREUTILS {
        let ubuntu = sim_pin::analyze_coreutil(util, LibcFlavor::V1Ubuntu2004).unwrap();
        assert_eq!(
            ubuntu.extended_state_affected(),
            expect_ubuntu.contains(&util.name),
            "{} on Ubuntu",
            util.name
        );
        let clear = sim_pin::analyze_coreutil(util, LibcFlavor::V3ClearLinux).unwrap();
        assert!(clear.extended_state_affected(), "{} on Clear", util.name);
    }
}
