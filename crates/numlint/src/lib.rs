//! `numlint` — the PMTBR workspace's in-tree static analyzer.
//!
//! Clippy enforces general Rust hygiene; `numlint` enforces the
//! *project-specific* numerical contracts that no generic linter can
//! know about:
//!
//! - **Determinism** (DET01/DET02): sweeps must be bit-identical at any
//!   thread count, so nothing order-sensitive may iterate a `HashMap`
//!   and library crates may not read wall clocks.
//! - **Panic safety** (PANIC01/ERR01): the library crates promise
//!   `NumError` propagation; panicking shortcuts are hard errors.
//! - **Float discipline** (FLOAT01/FLOAT02): exact float comparisons
//!   and bare lossy casts in the numerical kernels must be either
//!   eliminated or justified in-line.
//! - **Concurrency discipline** (CONC01): no `static mut`, and atomics
//!   stick to `Ordering::Relaxed` — every atomic in the workspace is an
//!   independent counter, never a synchronization point.
//!
//! Since v2 the analyzer is whole-workspace, not per-file: a symbol
//! pass ([`symbols`]) extracts a module-path-qualified function table
//! from each file's token stream, [`callgraph`] resolves call sites
//! into a workspace call graph, and [`effects`] runs a fixpoint that
//! propagates `may_panic` and `reads_wall_clock` bits through it —
//! honoring `catch_unwind` containment boundaries. Three
//! interprocedural rules gate on the result: PANIC02 (pub Result fns
//! reaching panic sites, reported with full witness call chains), DET03
//! (transitive wall-clock reachability), and SAFE01
//! (`#![forbid(unsafe_code)]` pinned in every library crate).
//!
//! The analyzer is zero-dependency and std-only by design — it must
//! build in the same offline environment as the crates it audits. See
//! `DESIGN.md` ("Static analysis architecture") for the rule table and
//! suppression syntax.

pub mod callgraph;
pub mod doccheck;
pub mod effects;
pub mod engine;
pub mod lexer;
pub mod rules;
pub mod symbols;
pub mod walk;

pub use engine::{analyze_file, workspace_diagnostics, Diagnostic, FileAnalysis, FileClass, FileContext};

/// Lints one file's source text under the given classification and
/// returns sorted diagnostics (suppressions and test-region exemptions
/// already applied). This is the single entry point shared by the CLI
/// driver and the golden-fixture tests.
pub fn lint_source(class: FileClass, src: &str) -> Vec<Diagnostic> {
    FileContext::new(class, src).run()
}
