//! # nestless-bench
//!
//! The figure/table regeneration harness: figure binaries that write
//! figs. 2–15 of the paper, each paper cell simulated once (a binary
//! writes every figure its runs describe), ablation binaries for the
//! design choices called out in DESIGN.md, and shared sweep machinery.
//!
//! Run everything with `cargo run -p nestless-bench --release --bin run_all`;
//! results land in `results/*.json` and are summarized in EXPERIMENTS.md.

#![warn(missing_docs)]

pub mod figure;
pub mod harness;
pub mod sweep;

pub use figure::{Check, Claim, Figure};
pub use sweep::{Mode, Sweep};
