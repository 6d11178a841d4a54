//! Empty: every mechanism runs natively, and the simulator keeps only
//! what Table III needs (`sim-cpu`, `sim-kernel`, `sim-workloads`,
//! `sim-pin`).
//!
//! The crate stays, with its manifest's edges, because `lp-mechanism`
//! still names it and `lpbench/Cargo.lock` lists that edge; both go
//! with the benchmark's next revision (DESIGN.md, "The simulator").

#![forbid(unsafe_code)]
