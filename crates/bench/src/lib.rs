//! Shared machinery of the experiment harness.
//!
//! Each `src/bin/<id>.rs` reproduces one table or figure of the paper (see
//! DESIGN.md §4 for the index); this library provides the pieces they share:
//! dataset caching, a tiny CLI parser, algorithm dispatch, timing helpers
//! and plain-text table rendering. Every binary prints the same rows/series
//! the paper reports, so EXPERIMENTS.md can record paper-vs-measured
//! side by side.

pub mod algos;
pub mod anytime;
pub mod cache;
pub mod cli;
pub mod table;
pub mod timing;

pub use algos::{run_algo, Algo, RunOutcome};
pub use anytime::{anytime_curve, AnytimePoint};
pub use cache::load_dataset;
pub use cli::HarnessArgs;
pub use table::Table;
pub use timing::time;
