//! The seven workloads. Each one makes a different layer do most of
//! the work; `README.md` records why each was chosen.

mod httpd_static;
pub mod mix;
mod preload_exec;
mod site_churn;
mod syscall_loop;

pub use httpd_static::{drive, saturate, HttpdStatic, ServerChild, FILE_SIZE};
pub use mix::{Mix, MixKind};
pub use preload_exec::{generate_tree, run_ls, stats_field, PreloadExec};
pub use site_churn::{churn, SiteChurn};
pub use syscall_loop::SyscallLoop;

use crate::harness::Workload;

/// Workload names in the order the suite runs them.
pub const NAMES: [&str; 7] = [
    "syscall_loop",
    "hook_mix",
    "sfip_mix",
    "record_stream",
    "site_churn",
    "httpd_static",
    "preload_exec",
];

pub fn by_name(name: &str) -> Option<Box<dyn Workload>> {
    Some(match name {
        "syscall_loop" => Box::new(SyscallLoop::default()),
        "hook_mix" => Box::new(Mix::new(MixKind::Hooks)),
        "sfip_mix" => Box::new(Mix::new(MixKind::Sfip)),
        "record_stream" => Box::new(Mix::new(MixKind::Record)),
        "site_churn" => Box::new(SiteChurn::default()),
        "httpd_static" => Box::new(HttpdStatic::default()),
        "preload_exec" => Box::new(PreloadExec::default()),
        _ => return None,
    })
}
