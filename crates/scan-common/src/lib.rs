//! Machinery shared by every SCAN-family algorithm in this workspace.
//!
//! * [`ScanParams`] — the (ε, μ) parameter pair of SCAN (Definition 2/3).
//! * [`kernel::Kernel`] — the weighted structural-similarity kernel
//!   (Definition 1) with Lemma-5 filtering, early accept/reject, range
//!   queries and early-exit core checks, all instrumented with the counters
//!   Figures 7 and 12 report.
//! * [`atomic_cache::AtomicEdgeCache`] — lock-free symmetric per-arc
//!   verdict cache the kernel can consult so no undirected edge is
//!   merge-joined twice across steps or directions.
//! * [`hubs::HubBitmaps`] — packed `u64` neighbor bitsets (plus prefix
//!   popcount ranks) for high-degree vertices, turning σ against a hub into
//!   a word-wise AND / bit-test + weight gather that is bit-identical to
//!   the merge-join.
//! * [`result::Clustering`] — the common output type: per-vertex cluster
//!   labels and roles (core / border / hub / outlier).
//! * [`verify::assert_scan_equivalent`] — the formal notion of "two runs
//!   produce the same SCAN result" used by the exactness test-suite
//!   (identical cores, identical core partition, consistent borders — the
//!   paper notes shared borders may legitimately differ, Lemma 4).

pub mod atomic_cache;
pub mod hubs;
pub mod kernel;
pub mod params;
pub mod result;
pub mod sketch;
pub mod verify;

pub use atomic_cache::AtomicEdgeCache;
pub use hubs::HubBitmaps;
pub use kernel::{BatchScratch, Kernel, SimStats};
pub use params::ScanParams;
pub use result::{Clustering, Role, RoleCounts, NOISE, UNCLASSIFIED};
pub use sketch::{NeighborhoodSketches, SketchMode};
