//! # anySCAN — anytime, parallel structural graph clustering
//!
//! Reproduction of *"Scalable and Interactive Graph Clustering Algorithm on
//! Multicore CPUs"* (Mai et al., ICDE 2017): an **anytime** and **parallel**
//! variant of SCAN over weighted undirected graphs that
//!
//! * quickly produces an approximate clustering and refines it toward
//!   SCAN's exact result — suspend it, inspect a [`driver::AnyScan::snapshot`],
//!   resume it, at any block boundary;
//! * processes vertices in blocks (α for summarization, β for merging) whose
//!   inner phases are parallel-for loops with dynamic scheduling;
//! * is *work-efficient*: its cumulative similarity-evaluation count rivals
//!   pSCAN's, far below SCAN's 2|E|.
//!
//! The algorithm's four steps (paper §III-A):
//! 1. **Summarization** — blocks of α untouched vertices get range queries;
//!    cores become *super-nodes* tracked in a disjoint-set structure.
//! 2. **Merging strongly-related super-nodes** — vertices in ≥ 2 super-nodes
//!    are core-checked; a core merges all its super-nodes (Lemma 2).
//! 3. **Merging weakly-related super-nodes** — remaining candidates merge
//!    clusters across edges between cores with σ ≥ ε (Lemma 3).
//! 4. **Determining border vertices** — noise-list vertices attach to
//!    adjacent cores; leftovers split into hubs and outliers.
//!
//! # Quickstart
//!
//! ```
//! use anyscan::{AnyScan, AnyScanConfig};
//! use anyscan_graph::GraphBuilder;
//! use anyscan_scan_common::ScanParams;
//!
//! // Two triangles joined by a weak bridge.
//! let g = GraphBuilder::from_unweighted_edges(
//!     6,
//!     vec![(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)],
//! )
//! .unwrap();
//! let config = AnyScanConfig::new(ScanParams::new(0.7, 3));
//! let mut algo = AnyScan::new(&g, config);
//! let result = algo.run();
//! assert_eq!(result.num_clusters(), 2);
//! ```

pub mod checkpoint;
pub mod config;
pub mod control;
pub mod driver;
pub mod error;
pub mod snapshot;
pub mod state;
pub mod supernode;

mod step1;
mod step2;
mod step3;
mod step4;

pub use checkpoint::Checkpoint;
pub use config::AnyScanConfig;
pub use control::{Completion, PartialResult, RunControl};
pub use driver::{anyscan, AnyScan, IterationRecord, Phase, UnionBreakdown};
pub use error::{AnyScanError, ErrorKind};
pub use state::VertexState;

/// The telemetry facade, re-exported so embedders need not add a separate
/// dependency to trace a run (see [`AnyScan::with_telemetry`]).
pub use anyscan_telemetry as telemetry;
pub use anyscan_telemetry::{BlockSnapshot, Counter, Recorder, Report, Telemetry};
