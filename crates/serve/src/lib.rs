//! Reduction-as-a-service for the PMTBR workspace.
//!
//! The paper's pitch is that model reduction is cheap enough to run on
//! demand; this crate makes that literal. A `pmtbr-cli serve` process
//! owns one shared `pmtbr::LruCache`-backed pipeline and accepts
//! reduction jobs over a zero-dependency TCP protocol; `pmtbr-cli
//! submit` ships a netlist plus the usual `reduce` flags and gets back
//! the reduced model — bit-exact, as raw IEEE-754 words — the report
//! lines, the acceptance-policy summaries, and optionally the
//! deterministic trace.
//!
//! The crate splits four ways:
//!
//! - [`wire`]: length-prefixed frames and the job codec. All numbers
//!   travel as raw bits, so a submitted job returns the *same bytes* a
//!   local `reduce` would produce.
//! - [`server`]: the batching scheduler. An acceptor thread blocks in
//!   `accept`, reader threads decode requests, and pending jobs are
//!   grouped by a hash of their netlist text and run back-to-back, so
//!   the first job of a group computes the model and the repeats after
//!   it hit the model cache. Reading a request and writing a response
//!   each get one I/O timeout as a whole.
//! - [`client`]: one-call job submission under a single deadline.
//! - [`deadline`]: the crate's one sanctioned monotonic-clock read, and
//!   the deadline-bounded socket both ends read and write through.
//!
//! The server never imports the method registry — the CLI injects a
//! handler — and never parses a netlist: the handler's parse is the
//! only one a job pays for. The code uses only the standard library;
//! the manifest still lists `circuits`, unused, until the benchmark's
//! lock file drops it too.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod client;
pub mod deadline;
pub mod server;
pub mod wire;

pub use client::submit;
pub use deadline::Deadline;
pub use server::{serve, ServeOptions, ServeStats};
pub use wire::{
    read_frame, write_frame, JobRequest, JobResponse, JobResult, PipelineSummary, SweepSummary,
    WireError, WireMat, WireReader, WireWriter, MAX_FRAME, REQUEST_MAGIC, RESPONSE_MAGIC,
};
