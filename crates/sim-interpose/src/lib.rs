//! Empty: nothing is simulated. The crate and its manifest's edges stay
//! because `lpbench/Cargo.lock` lists them; they go with the benchmark's
//! next revision (DESIGN.md, "The simulator").

#![forbid(unsafe_code)]
