//! Dynamic update subsystem: streamed edge mutations with incremental σ
//! re-evaluation and copy-on-write similarity-index repair.
//!
//! The offline pipeline answers "cluster this graph"; this crate answers
//! "keep answering while the graph changes". It follows the incremental
//! trail of the anySCAN paper's interactive setting — pSCAN/GS\*-Index-style
//! indexes make (ε, μ) queries cheap, and "Dynamic Structural Clustering
//! Unleashed" shows σ locality makes *maintaining* such an index cheap too:
//! an edge update to `{u, v}` changes σ only on edges incident to `u` or
//! `v`, so a batch of updates needs `O(Σ deg)` σ re-evaluations and a
//! handful of order repairs, not a rebuild.
//!
//! The pieces, bottom-up:
//!
//! * [`EdgeUpdate`] / [`EdgeOp`] ([`update`]) — sequenced, typed mutations
//!   with atomic batch validation.
//! * [`DynGraph`] ([`graph`]) — a mutable sorted-row mirror of [`CsrGraph`]
//!   whose σ is bit-identical to the CSR kernels.
//! * [`DynamicIndex`] ([`engine`]) — applies batches: mutate, re-evaluate
//!   affected σ on the worker pool, repair the index copy-on-write via
//!   [`SimilarityIndex::patched`]. After every batch the index is
//!   bit-identical to a from-scratch build on the mutated graph, so any
//!   `(ε, μ)` query answers correctly with no rebuild.
//! * [`UpdateLog`] ([`log`]) — ASUL-framed, checksummed, atomically saved
//!   mutation log; crash recovery is load + [`UpdateLog::replay`].
//!
//! The serve daemon builds its `ApplyUpdates` opcode on [`DynamicIndex`]
//! (epoch-swapped behind its read path), and the CLI's `mutate`/`replay`
//! commands and the loadgen `update:` mix generate and drive traffic.
//!
//! [`CsrGraph`]: anyscan_graph::CsrGraph
//! [`SimilarityIndex::patched`]: anyscan_index::SimilarityIndex::patched

pub mod engine;
pub mod graph;
pub mod log;
pub mod update;

pub use engine::DynamicIndex;
pub use graph::DynGraph;
pub use log::{GraphStamp, UpdateLog, LOG_MAGIC, LOG_VERSION};
pub use update::{BatchStats, DynError, EdgeOp, EdgeUpdate};
