//! Weighted undirected graphs for structural graph clustering.
//!
//! This crate provides the graph substrate used by the anySCAN reproduction:
//!
//! * [`CsrGraph`] — a compact, immutable compressed-sparse-row representation
//!   of an undirected weighted graph with *closed* neighborhoods (every vertex
//!   carries a self-loop of weight 1.0), which is exactly the neighborhood
//!   notion SCAN-family algorithms operate on.
//! * [`GraphBuilder`] — an edge-at-a-time builder that symmetrizes,
//!   deduplicates and sorts adjacency lists.
//! * [`io`] — plain-text edge-list and compact binary loaders/savers.
//! * [`gen`] — deterministic synthetic generators (Erdős–Rényi,
//!   planted-partition/SBM, LFR-style benchmark graphs with tunable average
//!   degree and clustering coefficient, R-MAT/Kronecker).
//! * [`stats`] — exact degree / triangle / clustering-coefficient statistics
//!   matching the columns of Tables I and II of the paper.
//! * [`traversal`] — connected components.
//! * [`reorder`] — cache-locality vertex reorderings (degree-descending,
//!   BFS/Cuthill–McKee) with a [`VertexPermutation`] that round-trips labels
//!   back to original vertex ids.
//!
//! # Example
//!
//! ```
//! use anyscan_graph::GraphBuilder;
//!
//! let mut b = GraphBuilder::new(4);
//! b.add_edge(0, 1, 1.0);
//! b.add_edge(1, 2, 0.5);
//! b.add_edge(2, 3, 2.0);
//! let g = b.build();
//! assert_eq!(g.num_vertices(), 4);
//! // Closed neighborhoods: vertex 1 sees {0, 1, 2}.
//! let n: Vec<u32> = g.neighbors(1).map(|(v, _)| v).collect();
//! assert_eq!(n, vec![0, 1, 2]);
//! ```

pub mod builder;
pub mod csr;
pub mod gen;
pub mod io;
pub mod reorder;
pub mod stats;
pub mod transform;
pub mod traversal;
pub mod types;

pub use builder::GraphBuilder;
pub use csr::CsrGraph;
pub use reorder::{ReorderMode, VertexPermutation};
pub use types::{EdgeId, GraphError, VertexId, Weight};
