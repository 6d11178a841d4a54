//! Mini static-file web server + load client for the macrobenchmarks
//! (paper §V-B(b), Figure 5).
//!
//! The paper measures nginx 1.25.3 and lighttpd 1.4.73 serving static
//! content over localhost under `wrk`. This crate is the in-repo
//! substitute: an epoll-based HTTP/1.1 keep-alive server with two
//! flavours whose *syscall mixes* mirror the two originals where it
//! matters for interposition overhead:
//!
//! * [`Flavor::NginxLike`] — per request: `openat` + `fstat` + `read`
//!   (chunked) + `write` + `close`, like an uncached nginx worker.
//! * [`Flavor::LighttpdLike`] — files are loaded once at startup and
//!   served from memory: per request only `read` (request) + `write`
//!   (response), the leanest possible syscall mix, making relative
//!   interposition overhead *larger* (more syscalls per byte served at
//!   small sizes, fewer total syscalls at large ones).
//!
//! Multi-worker mode forks `N` worker processes sharing a listener via
//! `SO_REUSEPORT`, like nginx's master/worker model.
//!
//! The [`loadgen`] module is the measurement client: an epoll-based,
//! multi-threaded **open-loop** generator multiplexing thousands of
//! nonblocking keep-alive connections, recording per-request latency
//! into the log-bucketed [`hist::Histogram`] (p50/p99/p999 per cell —
//! the same observables Figure 5 plots, plus the tail the paper's
//! mean-RPS table hides).

#![deny(missing_docs)]

pub mod docroot;
pub mod hist;
pub mod http;
pub mod loadgen;
pub mod server;

pub use docroot::Docroot;
pub use hist::Histogram;
pub use loadgen::{run_open_loop, OpenLoopConfig, OpenLoopReport};
pub use server::{Flavor, Server, ServerConfig, StopFlag};
