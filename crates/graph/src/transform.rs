//! Graph transformations: vertex relabelings.

use crate::builder::GraphBuilder;
use crate::csr::CsrGraph;
use crate::types::VertexId;

/// Relabels the graph by the given permutation: vertex `v` becomes
/// `perm[v]`. `perm` must be a bijection over `0..n`.
pub fn relabel(g: &CsrGraph, perm: &[VertexId]) -> CsrGraph {
    let n = g.num_vertices();
    assert_eq!(perm.len(), n, "permutation length mismatch");
    debug_assert!(
        {
            let mut seen = vec![false; n];
            perm.iter().all(|&p| {
                let ok = (p as usize) < n && !seen[p as usize];
                if ok {
                    seen[p as usize] = true;
                }
                ok
            })
        },
        "perm must be a bijection over 0..n"
    );
    let mut b = GraphBuilder::with_capacity(n, g.num_edges() as usize);
    for (u, v, w) in g.edges() {
        b.add_edge(perm[u as usize], perm[v as usize], w);
    }
    b.build()
}

/// A permutation placing vertices in non-increasing degree order (hubs
/// first). Renumbering by it improves the cache behaviour of the
/// merge-join-heavy SCAN kernels on power-law graphs.
pub fn degree_descending_permutation(g: &CsrGraph) -> Vec<VertexId> {
    let mut order: Vec<VertexId> = g.vertices().collect();
    order.sort_by_key(|&v| std::cmp::Reverse(g.degree(v)));
    // order[rank] = old vertex; we need perm[old] = rank.
    let mut perm = vec![0 as VertexId; g.num_vertices()];
    for (rank, &old) in order.iter().enumerate() {
        perm[old as usize] = rank as VertexId;
    }
    perm
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::graph_stats;
    use crate::GraphBuilder;

    fn sample() -> CsrGraph {
        GraphBuilder::from_edges(
            6,
            vec![
                (0, 1, 1.0),
                (1, 2, 0.5),
                (2, 3, 2.0),
                (3, 4, 1.0),
                (4, 5, 0.25),
                (1, 4, 0.75),
            ],
        )
        .unwrap()
    }

    #[test]
    fn relabel_is_an_isomorphism() {
        let g = sample();
        let perm: Vec<u32> = vec![5, 4, 3, 2, 1, 0];
        let h = relabel(&g, &perm);
        assert_eq!(g.num_edges(), h.num_edges());
        for (u, v, w) in g.edges() {
            assert_eq!(h.edge_weight(perm[u as usize], perm[v as usize]), Some(w));
        }
        // Statistics are permutation-invariant.
        let (sg, sh) = (graph_stats(&g), graph_stats(&h));
        assert_eq!(sg.triangles, sh.triangles);
        assert!(
            (sg.average_clustering_coefficient - sh.average_clustering_coefficient).abs() < 1e-12
        );
    }

    #[test]
    fn degree_permutation_places_hubs_first() {
        let g = sample();
        let perm = degree_descending_permutation(&g);
        let h = relabel(&g, &perm);
        let degs: Vec<usize> = h.vertices().map(|v| h.degree(v)).collect();
        for w in degs.windows(2) {
            assert!(w[0] >= w[1], "degrees must be non-increasing: {degs:?}");
        }
    }

    #[test]
    fn identity_relabel_is_noop() {
        let g = sample();
        let perm: Vec<u32> = g.vertices().collect();
        assert_eq!(relabel(&g, &perm), g);
    }
}
