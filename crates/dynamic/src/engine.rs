//! The dynamic update engine: batched mutations in, repaired index out.
//!
//! [`DynamicIndex`] owns a [`DynGraph`] and the [`SimilarityIndex`] built
//! over it, and keeps them consistent under streamed edge mutations. A batch
//! flows through five steps:
//!
//! 1. **Validate** — sequence monotonicity and per-update structure; any
//!    violation rejects the batch atomically (typed [`DynError`], state
//!    untouched).
//! 2. **Mutate** — apply the ops to the sorted rows, recording the set of
//!    *touched* vertices (endpoints of effective changes) and refreshing
//!    each touched norm once.
//! 3. **Re-evaluate σ** — σ(x, y) depends only on the closed neighborhoods
//!    and norms of x and y, so the affected edges are exactly those with an
//!    endpoint in the touched set. They are recomputed on the worker pool
//!    (`parallel_map_adaptive`), each counted in `dyn_sigma_reevals` *and*
//!    `sigma_evals`/`sigma_path_merge` so the kernel-path partition stays
//!    exact.
//! 4. **Patch** — rebuild the neighbor order of every vertex whose order can
//!    have changed (touched vertices and their current neighbors), reusing
//!    stored σ for unaffected pairs, also in parallel.
//! 5. **Repair** — build the next index copy-on-write
//!    ([`SimilarityIndex::patched`]): untouched rows and slices are bulk
//!    copies, touched slices merge-repaired, never re-sorted. The previous
//!    index is never written, so a reader still holding its [`Arc`] (an
//!    older daemon epoch) keeps a valid snapshot, and handing the new one
//!    out ([`DynamicIndex::shared_index`]) costs a reference count, not a
//!    copy.
//!
//! After any batch the index is bit-identical to a from-scratch
//! [`SimilarityIndex::build`] on the mutated graph (property-tested in this
//! crate's `tests/`), so `query(eps, mu)` for *any* parameters answers as if
//! the index had been rebuilt.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use anyscan_graph::{CsrGraph, VertexId};
use anyscan_index::{NeighborOrderPatch, SimilarityIndex};
use anyscan_parallel::parallel_map_adaptive;
use anyscan_scan_common::{Clustering, ScanParams, SketchMode};
use anyscan_telemetry::{Counter, Recorder, Telemetry};

use crate::graph::DynGraph;
use crate::update::{BatchStats, DynError, EdgeOp, EdgeUpdate};

/// Unordered-pair key for the recomputed-σ lookup.
#[inline]
fn pair_key(a: VertexId, b: VertexId) -> (VertexId, VertexId) {
    (a.min(b), a.max(b))
}

/// A similarity index kept consistent with a mutating graph through
/// incremental σ re-evaluation and copy-on-write repair.
#[derive(Debug)]
pub struct DynamicIndex {
    graph: DynGraph,
    index: Arc<SimilarityIndex>,
    threads: usize,
    applied_seq: u64,
}

impl DynamicIndex {
    /// Builds a fresh index over `g` and wraps it for dynamic updates.
    pub fn new(g: &CsrGraph, threads: usize) -> Result<DynamicIndex, DynError> {
        DynamicIndex::new_traced(g, threads, &Telemetry::disabled())
    }

    /// [`DynamicIndex::new`] with the build recorded on `telemetry`.
    pub fn new_traced(
        g: &CsrGraph,
        threads: usize,
        telemetry: &Telemetry,
    ) -> Result<DynamicIndex, DynError> {
        let index = SimilarityIndex::build_traced(g, threads, telemetry);
        DynamicIndex::from_parts(g, index, threads)
    }

    /// Adopts an existing index (e.g. loaded from an ASIX file) for dynamic
    /// updates. Rejects indexes that cannot be repaired exactly: a
    /// fingerprint mismatch with `g`, a reordered index (dynamic mode runs
    /// in original vertex ids), or approximate sketch mode (estimated σ has
    /// no exact repair).
    pub fn from_parts(
        g: &CsrGraph,
        index: SimilarityIndex,
        threads: usize,
    ) -> Result<DynamicIndex, DynError> {
        index.check_graph(g).map_err(DynError::Incompatible)?;
        if index.reorder() != anyscan_graph::ReorderMode::None {
            return Err(DynError::Incompatible(format!(
                "index was built on a {:?}-reordered graph; dynamic updates require original ids",
                index.reorder()
            )));
        }
        if index.sketch_mode() == SketchMode::Approx {
            return Err(DynError::Incompatible(
                "approximate-σ index cannot be repaired exactly; rebuild with sketch mode off"
                    .into(),
            ));
        }
        Ok(DynamicIndex {
            graph: DynGraph::from_csr(g),
            index: Arc::new(index),
            threads,
            applied_seq: 0,
        })
    }

    /// The mutable graph state.
    pub fn graph(&self) -> &DynGraph {
        &self.graph
    }

    /// The repaired similarity index.
    pub fn index(&self) -> &SimilarityIndex {
        &self.index
    }

    /// The repaired similarity index as a shared snapshot. Later batches
    /// replace the engine's index rather than write it, so the snapshot
    /// stays valid (and unchanged) for as long as its holder keeps it.
    pub fn shared_index(&self) -> &Arc<SimilarityIndex> {
        &self.index
    }

    /// Worker-pool width used for σ re-evaluation and patch construction.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Watermark: sequence number of the last applied update (0 initially).
    pub fn applied_seq(&self) -> u64 {
        self.applied_seq
    }

    /// Sets the watermark without applying anything. Used by log replay to
    /// adopt a checkpoint's watermark; new batches must start above it.
    pub fn set_applied_seq(&mut self, seq: u64) {
        self.applied_seq = seq;
    }

    /// Snapshots the current graph as an invariant-checked [`CsrGraph`]
    /// (e.g. for an epoch swap in the daemon).
    pub fn to_csr(&self) -> Result<CsrGraph, DynError> {
        self.graph.to_csr().map_err(DynError::Incompatible)
    }

    /// Clusters the current graph at `params` straight from the index.
    pub fn query(&self, params: ScanParams) -> Clustering {
        self.index.query_offline(params)
    }

    /// [`DynamicIndex::query`] with telemetry.
    pub fn query_traced(&self, params: ScanParams, telemetry: &Telemetry) -> Clustering {
        self.index.query_offline_traced(params, telemetry)
    }

    /// Applies one batch of mutations: validates atomically, mutates the
    /// graph, re-evaluates the affected σ on the worker pool and replaces the
    /// index with its copy-on-write repair. See the module docs for the full
    /// pipeline.
    pub fn apply_batch(
        &mut self,
        updates: &[EdgeUpdate],
        telemetry: &Telemetry,
    ) -> Result<BatchStats, DynError> {
        let _span = telemetry.span("dyn_apply_batch");

        // 1. Validate everything before touching anything.
        let mut floor = self.applied_seq;
        for up in updates {
            if up.seq <= floor {
                return Err(DynError::Sequence { seq: up.seq, floor });
            }
            floor = up.seq;
            up.validate(self.graph.num_vertices())?;
        }

        // 2. Mutate, tracking endpoints of effective changes.
        let mut touched: BTreeSet<VertexId> = BTreeSet::new();
        let (mut applied, mut skipped) = (0u64, 0u64);
        for up in updates {
            let changed = match up.op {
                EdgeOp::Insert(w) => {
                    self.graph.set_edge(up.u, up.v, w);
                    true
                }
                EdgeOp::Remove => self.graph.remove_edge(up.u, up.v).is_some(),
                EdgeOp::Reweight(w) => {
                    if self.graph.edge_weight(up.u, up.v).is_some() {
                        self.graph.set_edge(up.u, up.v, w);
                        true
                    } else {
                        false
                    }
                }
            };
            if changed {
                applied += 1;
                touched.insert(up.u);
                touched.insert(up.v);
            } else {
                skipped += 1;
            }
        }
        telemetry.add(Counter::DynUpdatesApplied, applied);
        if let Some(last) = updates.last() {
            self.applied_seq = last.seq;
        }

        let mut stats = BatchStats {
            applied,
            skipped,
            sigma_reevals: 0,
            orders_repaired: 0,
            last_seq: self.applied_seq,
        };
        if touched.is_empty() {
            return Ok(stats);
        }
        for &t in &touched {
            self.graph.refresh_norm(t);
        }

        // 3. Affected σ: every edge with an endpoint whose closed
        // neighborhood or norm changed. Affected orders: those endpoints
        // plus their current neighbors (a removed edge's former partner is
        // itself touched, so it is covered).
        let mut orders: BTreeSet<VertexId> = BTreeSet::new();
        let mut pair_set: BTreeSet<(VertexId, VertexId)> = BTreeSet::new();
        for &t in &touched {
            orders.insert(t);
            for &(q, _) in self.graph.row(t) {
                if q != t {
                    orders.insert(q);
                    pair_set.insert(pair_key(t, q));
                }
            }
        }
        let pairs: Vec<(VertexId, VertexId)> = pair_set.into_iter().collect();
        let graph = &self.graph;
        let sigmas: Vec<f64> = {
            let _s = telemetry.span("dyn_sigma_reevals");
            parallel_map_adaptive(self.threads, pairs.len(), |i| {
                let (a, b) = pairs[i];
                graph.sigma(a, b)
            })
        };
        stats.sigma_reevals = pairs.len() as u64;
        // Dynamic re-evals are merge-join σ kernels: count them in the
        // global σ accounting *and* its kernel-path partition, plus the
        // dynamic-subsystem counter, so `sigma_path_*` keeps partitioning
        // `sigma_evals` (+ `index_sigma_evals`) exactly.
        telemetry.add(Counter::SigmaEvals, stats.sigma_reevals);
        telemetry.add(Counter::SigmaPathMerge, stats.sigma_reevals);
        telemetry.add(Counter::DynSigmaReevals, stats.sigma_reevals);
        let fresh: HashMap<(VertexId, VertexId), f64> = pairs.iter().copied().zip(sigmas).collect();

        // 4. Rebuild affected neighbor orders, reusing stored σ for pairs
        // no update could have changed.
        let order_list: Vec<VertexId> = orders.into_iter().collect();
        let index = &self.index;
        let patches: Vec<NeighborOrderPatch> = {
            let _s = telemetry.span("dyn_build_patches");
            parallel_map_adaptive(self.threads, order_list.len(), |i| {
                let a = order_list[i];
                let (old_ids, old_sigs) = index.neighbor_order(a);
                let mut order: Vec<(VertexId, f64)> = graph
                    .row(a)
                    .iter()
                    .map(|&(q, _)| {
                        let s = if q == a {
                            1.0
                        } else if let Some(&s) = fresh.get(&pair_key(a, q)) {
                            s
                        } else {
                            // Neither endpoint touched: the stored σ is
                            // still exact (and the edge predates the batch).
                            let pos = old_ids
                                .iter()
                                .position(|&x| x == q)
                                .expect("unchanged edge must be in the old order");
                            old_sigs[pos]
                        };
                        (q, s)
                    })
                    .collect();
                // The comparator SimilarityIndex::build sorts with.
                order.sort_unstable_by(|x, y| y.1.total_cmp(&x.1).then(x.0.cmp(&y.0)));
                NeighborOrderPatch { vertex: a, order }
            })
        };
        stats.orders_repaired = patches.len() as u64;

        // 5. Repair copy-on-write; the old index stays intact for its
        // other holders.
        let repaired = self
            .index
            .patched(&patches, self.graph.num_edges(), telemetry)
            .map_err(DynError::Incompatible)?;
        self.index = Arc::new(repaired);
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anyscan_graph::gen::{erdos_renyi, WeightModel};
    use anyscan_graph::{GraphBuilder, ReorderMode};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn upd(seq: u64, u: VertexId, v: VertexId, op: EdgeOp) -> EdgeUpdate {
        EdgeUpdate { seq, u, v, op }
    }

    #[test]
    fn batch_repairs_to_fresh_build() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = erdos_renyi(&mut rng, 70, 350, WeightModel::uniform_default());
        let mut d = DynamicIndex::new(&g, 2).unwrap();
        let (u, v, w) = g.edges().nth(5).unwrap();
        let batch = vec![
            upd(1, u, v, EdgeOp::Reweight(w * 2.0)),
            upd(2, 0, 69, EdgeOp::Insert(0.75)),
            upd(7, u, v, EdgeOp::Remove),
        ];
        let stats = d.apply_batch(&batch, &Telemetry::disabled()).unwrap();
        assert_eq!(stats.applied, 3);
        assert_eq!(stats.skipped, 0);
        assert_eq!(stats.last_seq, 7);
        assert!(stats.sigma_reevals > 0);
        assert_eq!(d.applied_seq(), 7);

        let snapshot = d.to_csr().unwrap();
        let fresh = SimilarityIndex::build(&snapshot, 2);
        assert_eq!(d.index(), &fresh);
    }

    #[test]
    fn noop_batch_skips_repair() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 2, 1.0);
        let g = b.build();
        let mut d = DynamicIndex::new(&g, 1).unwrap();
        let before = d.index().clone();
        let stats = d
            .apply_batch(
                &[
                    upd(1, 2, 3, EdgeOp::Remove),        // absent edge
                    upd(2, 0, 3, EdgeOp::Reweight(2.0)), // absent edge
                ],
                &Telemetry::disabled(),
            )
            .unwrap();
        assert_eq!(stats.applied, 0);
        assert_eq!(stats.skipped, 2);
        assert_eq!(stats.sigma_reevals, 0);
        assert_eq!(d.applied_seq(), 2);
        assert_eq!(d.index(), &before);
    }

    #[test]
    fn invalid_batches_are_rejected_atomically() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0);
        let g = b.build();
        let mut d = DynamicIndex::new(&g, 1).unwrap();
        let before = d.index().clone();
        let cases: Vec<Vec<EdgeUpdate>> = vec![
            vec![
                upd(1, 0, 2, EdgeOp::Insert(1.0)),
                upd(1, 1, 2, EdgeOp::Insert(1.0)),
            ],
            vec![
                upd(2, 0, 2, EdgeOp::Insert(1.0)),
                upd(1, 1, 2, EdgeOp::Insert(1.0)),
            ],
            vec![upd(1, 0, 0, EdgeOp::Remove)],
            vec![upd(1, 0, 7, EdgeOp::Remove)],
            vec![upd(1, 0, 2, EdgeOp::Insert(-1.0))],
        ];
        for batch in cases {
            let err = d.apply_batch(&batch, &Telemetry::disabled()).unwrap_err();
            assert!(
                matches!(
                    err,
                    DynError::Sequence { .. }
                        | DynError::SelfLoop { .. }
                        | DynError::Vertex { .. }
                        | DynError::Weight { .. }
                ),
                "unexpected error {err}"
            );
            assert_eq!(d.applied_seq(), 0, "watermark must not advance on reject");
            assert_eq!(d.index(), &before, "index must be untouched on reject");
        }
        // Sequence numbers below an advanced watermark are rejected too.
        d.apply_batch(&[upd(5, 0, 2, EdgeOp::Insert(1.0))], &Telemetry::disabled())
            .unwrap();
        let err = d
            .apply_batch(&[upd(5, 1, 2, EdgeOp::Insert(1.0))], &Telemetry::disabled())
            .unwrap_err();
        assert!(matches!(err, DynError::Sequence { seq: 5, floor: 5 }));
    }

    #[test]
    fn from_parts_rejects_incompatible_indexes() {
        let mut rng = StdRng::seed_from_u64(9);
        let g = erdos_renyi(&mut rng, 30, 90, WeightModel::uniform_default());
        let other = erdos_renyi(&mut rng, 31, 90, WeightModel::uniform_default());
        let idx = SimilarityIndex::build(&g, 1);
        assert!(matches!(
            DynamicIndex::from_parts(&other, idx, 1),
            Err(DynError::Incompatible(_))
        ));

        let opts = anyscan_index::IndexBuildOptions {
            sketch: SketchMode::Approx,
            ..Default::default()
        };
        let approx = SimilarityIndex::build_with_options(&g, 1, opts, &Telemetry::disabled());
        assert!(matches!(
            DynamicIndex::from_parts(&g, approx, 1),
            Err(DynError::Incompatible(_))
        ));

        // Dynamic mode speaks original vertex ids: an index over a
        // relabeled graph would take updates in the wrong ids.
        let (rg, perm) = anyscan_graph::reorder::reorder(&g, ReorderMode::Degree);
        assert!(!perm.is_identity(), "degree reorder should relabel");
        let reordered = SimilarityIndex::build(&rg, 1).with_reorder(ReorderMode::Degree);
        assert!(matches!(
            DynamicIndex::from_parts(&rg, reordered, 1),
            Err(DynError::Incompatible(msg)) if msg.contains("reordered")
        ));
    }
}
