//! # nestless-bench
//!
//! The figure/table regeneration harness: one binary per figure of the
//! paper (`fig02` … `fig15`), ablation binaries for the design choices
//! called out in DESIGN.md, and shared sweep machinery.
//!
//! Run everything with `cargo run -p nestless-bench --release --bin run_all`;
//! results land in `results/*.json` and are summarized in EXPERIMENTS.md.

#![warn(missing_docs)]

pub mod figure;
pub mod sweep;

pub use figure::{Claim, Figure};
pub use sweep::{Mode, Sweep};
