//! Umbrella crate for the lazypoline reproduction suite.
//!
//! Re-exports every component crate under one roof for examples,
//! integration tests, and downstream experimentation. See the README
//! for the map and DESIGN.md for the paper-to-crate inventory.

pub use hookabi;
pub use httpd;
pub use interpose;
pub use lazypoline;
pub use mechanism;
pub use replay;
pub use sfip;
pub use sud;
pub use syscalls;
pub use zpoline;
