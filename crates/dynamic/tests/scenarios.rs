//! Hand-built update scenarios for [`DynamicIndex`]: communities that merge
//! and split under bridge churn, deletion down to an empty edge set, and
//! the locality of σ re-evaluation. After every batch the dynamic answer is
//! checked against a from-scratch SCAN of the mutated graph.

use anyscan_baselines::scan;
use anyscan_dynamic::{DynamicIndex, EdgeOp, EdgeUpdate};
use anyscan_graph::gen::{erdos_renyi, WeightModel};
use anyscan_graph::{CsrGraph, GraphBuilder, VertexId};
use anyscan_scan_common::verify::assert_scan_equivalent;
use anyscan_scan_common::ScanParams;
use anyscan_telemetry::Telemetry;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Applies `ops` as one batch, numbering them after the engine's watermark.
fn apply(
    d: &mut DynamicIndex,
    ops: &[(VertexId, VertexId, EdgeOp)],
) -> anyscan_dynamic::BatchStats {
    let first = d.applied_seq() + 1;
    let batch: Vec<EdgeUpdate> = ops
        .iter()
        .enumerate()
        .map(|(i, &(u, v, op))| EdgeUpdate {
            seq: first + i as u64,
            u,
            v,
            op,
        })
        .collect();
    d.apply_batch(&batch, &Telemetry::disabled())
        .expect("valid batch")
}

/// The dynamic answer equals a from-scratch SCAN of the current graph.
fn assert_matches_scratch(d: &DynamicIndex, params: ScanParams) {
    let csr = d.to_csr().expect("snapshot");
    let truth = scan(&csr, params).clustering;
    assert_scan_equivalent(&csr, params, &truth, &d.query(params));
}

fn two_triangles() -> CsrGraph {
    GraphBuilder::from_unweighted_edges(6, vec![(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        .unwrap()
}

#[test]
fn bridges_merge_two_triangles_and_removal_splits_them() {
    let params = ScanParams::new(0.5, 3);
    let mut d = DynamicIndex::new(&two_triangles(), 1).unwrap();
    assert_eq!(d.query(params).num_clusters(), 2);

    // A strong bridge appears: the communities merge...
    let bridges = [(2, 3), (1, 4), (1, 3), (2, 4)];
    for &(u, v) in &bridges {
        apply(&mut d, &[(u, v, EdgeOp::Insert(1.0))]);
        assert_matches_scratch(&d, params);
    }
    assert_eq!(d.query(params).num_clusters(), 1);

    // ...and dissolves again when the links churn away.
    let removals: Vec<_> = bridges
        .iter()
        .map(|&(u, v)| (u, v, EdgeOp::Remove))
        .collect();
    let stats = apply(&mut d, &removals);
    assert_eq!(stats.applied, 4);
    assert_matches_scratch(&d, params);
    assert_eq!(d.query(params).num_clusters(), 2);
}

#[test]
fn removing_every_edge_leaves_all_vertices_noise() {
    let edges = [(0u32, 1u32), (1, 2), (2, 3), (3, 0), (0, 2)];
    let g = GraphBuilder::from_unweighted_edges(4, edges.to_vec()).unwrap();
    let params = ScanParams::new(0.5, 2);
    let mut d = DynamicIndex::new(&g, 1).unwrap();
    assert_eq!(d.query(params).num_clusters(), 1);
    for (u, v) in edges {
        let stats = apply(&mut d, &[(u, v, EdgeOp::Remove)]);
        assert_eq!(stats.applied, 1);
        assert_matches_scratch(&d, params);
    }
    // Removing an absent edge is a recorded no-op, not an error.
    let stats = apply(&mut d, &[(0, 1, EdgeOp::Remove)]);
    assert_eq!((stats.applied, stats.skipped), (0, 1));

    assert_eq!(d.graph().num_edges(), 0);
    let c = d.query(params);
    assert_eq!(c.num_clusters(), 0);
    assert_eq!(c.role_counts().outliers, 4);
}

#[test]
fn an_update_reevaluates_only_the_touched_neighborhood() {
    let mut rng = StdRng::seed_from_u64(701);
    let g = erdos_renyi(&mut rng, 400, 4_000, WeightModel::uniform_default());
    let mut d = DynamicIndex::new(&g, 1).unwrap();
    let stats = apply(&mut d, &[(0, 1, EdgeOp::Insert(0.9))]);
    // Only edges incident to 0 or 1 are stale — far below |E|.
    let bound = (d.graph().degree(0) + d.graph().degree(1)) as u64;
    assert!(stats.sigma_reevals > 0);
    assert!(
        stats.sigma_reevals <= bound,
        "re-evaluated {} > {bound}",
        stats.sigma_reevals
    );
    assert!(
        stats.sigma_reevals * 20 < g.num_edges(),
        "not incremental: {} vs |E|",
        stats.sigma_reevals
    );
}
