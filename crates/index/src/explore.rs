//! Interactive parameter exploration over a [`SimilarityIndex`].
//!
//! Choosing (ε, μ) is SCAN's known pain point (the paper cites SCOT and
//! gSkeletonClu as dedicated solutions). The index evaluates every edge's
//! structural similarity once; after that each point of an (ε, μ) grid is
//! one output-sensitive query, with no further σ evaluation.
//!
//! ```
//! use anyscan_graph::GraphBuilder;
//! use anyscan_index::{explore, SimilarityIndex};
//!
//! // Two triangles joined by a bridge edge (2-3).
//! let g = GraphBuilder::from_unweighted_edges(
//!     6,
//!     vec![(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)],
//! ).unwrap();
//! let idx = SimilarityIndex::build(&g, 1);
//! let sweep = explore::sweep(&idx, &[0.2, 0.7], 3);
//! assert_eq!(sweep[0].clusters, 1);  // low ε: the bridge merges everything
//! assert_eq!(sweep[1].clusters, 2);  // high ε: the two triangles
//! ```

use anyscan_scan_common::ScanParams;

use crate::SimilarityIndex;

/// Summary of the clustering at one (ε, μ) grid point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    pub epsilon: f64,
    pub mu: usize,
    pub clusters: usize,
    pub cores: usize,
    pub borders: usize,
    /// Hubs plus outliers.
    pub noise: usize,
    /// Size of the largest cluster (0 if none).
    pub largest_cluster: usize,
}

/// Summary of one grid point.
pub fn summarize(idx: &SimilarityIndex, params: ScanParams) -> SweepPoint {
    let c = idx.query_offline(params);
    let rc = c.role_counts();
    let largest = c.cluster_sizes().values().copied().max().unwrap_or(0);
    SweepPoint {
        epsilon: params.epsilon,
        mu: params.mu,
        clusters: c.num_clusters(),
        cores: rc.cores,
        borders: rc.borders,
        noise: rc.noise(),
        largest_cluster: largest,
    }
}

/// Sweeps an ε grid at fixed μ, returning one summary per point.
pub fn sweep(idx: &SimilarityIndex, epsilons: &[f64], mu: usize) -> Vec<SweepPoint> {
    epsilons
        .iter()
        .map(|&eps| summarize(idx, ScanParams::new(eps, mu)))
        .collect()
}

/// Sweeps a μ grid at fixed ε.
pub fn sweep_mu(idx: &SimilarityIndex, epsilon: f64, mus: &[usize]) -> Vec<SweepPoint> {
    mus.iter()
        .map(|&mu| summarize(idx, ScanParams::new(epsilon, mu)))
        .collect()
}

/// Suggests an ε for the given μ: the midpoint of the widest interval of a
/// uniform `grid_size`-point ε grid on which the cluster count is stable and
/// non-trivial (≥ 2 clusters). Plateau stability is the classic heuristic
/// for SCAN parameter setting (cf. SCOT / gSkeletonClu, which the paper
/// cites as parameter-setting follow-ups). Returns `None` when no ε yields
/// ≥ 2 clusters.
pub fn suggest_epsilon(idx: &SimilarityIndex, mu: usize, grid_size: usize) -> Option<f64> {
    let grid_size = grid_size.max(2);
    let grid: Vec<f64> = (1..=grid_size)
        .map(|i| i as f64 / (grid_size as f64 + 1.0))
        .collect();
    let counts: Vec<usize> = sweep(idx, &grid, mu).iter().map(|p| p.clusters).collect();
    let mut best: Option<(usize, usize, usize)> = None; // (len, start, end)
    let mut start = 0;
    for i in 1..=grid.len() {
        let run_breaks = i == grid.len() || counts[i] != counts[start];
        if run_breaks {
            if counts[start] >= 2 {
                let len = i - start;
                if best.is_none_or(|(l, _, _)| len > l) {
                    best = Some((len, start, i - 1));
                }
            }
            start = i;
        }
    }
    best.map(|(_, s, e)| 0.5 * (grid[s] + grid[e]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use anyscan_graph::gen::{erdos_renyi, WeightModel};
    use anyscan_graph::{CsrGraph, GraphBuilder};
    use anyscan_scan_common::verify::assert_scan_equivalent;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn two_triangles() -> CsrGraph {
        GraphBuilder::from_unweighted_edges(
            6,
            vec![(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)],
        )
        .unwrap()
    }

    #[test]
    fn sweep_finds_the_cluster_structure() {
        let g = two_triangles();
        let idx = SimilarityIndex::build(&g, 1);
        assert_eq!(idx.num_edges(), 7);
        let pts = sweep(&idx, &[0.2, 0.7, 0.99], 3);
        assert_eq!(pts[0].clusters, 1, "low ε merges everything");
        assert_eq!(pts[1].clusters, 2, "the two triangles");
        // At ε ≈ 1 only perfectly-overlapping neighborhoods survive.
        assert!(pts[2].clusters <= 2);
        // Monotonicity: cores can only shrink as ε grows.
        assert!(pts[0].cores >= pts[1].cores && pts[1].cores >= pts[2].cores);
    }

    #[test]
    fn sweep_mu_shrinks_cores() {
        let g = two_triangles();
        let idx = SimilarityIndex::build(&g, 1);
        let pts = sweep_mu(&idx, 0.7, &[1, 3, 5]);
        assert!(pts[0].cores >= pts[1].cores && pts[1].cores >= pts[2].cores);
    }

    #[test]
    fn explorer_clustering_matches_full_algorithms() {
        let mut rng = StdRng::seed_from_u64(880);
        let g = erdos_renyi(&mut rng, 200, 1_400, WeightModel::uniform_default());
        for threads in [1usize, 4] {
            let idx = SimilarityIndex::build(&g, threads);
            for eps in [0.3, 0.5, 0.7] {
                for mu in [2usize, 5] {
                    let params = ScanParams::new(eps, mu);
                    let truth = anyscan_baselines::scan(&g, params).clustering;
                    let fast = idx.query_offline(params);
                    assert_scan_equivalent(&g, params, &truth, &fast);
                    // The summary counts the same clustering.
                    let p = summarize(&idx, params);
                    let rc = truth.role_counts();
                    assert_eq!(
                        (p.clusters, p.cores, p.borders, p.noise),
                        (truth.num_clusters(), rc.cores, rc.borders, rc.noise())
                    );
                }
            }
        }
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new(0).build();
        let idx = SimilarityIndex::build(&g, 2);
        assert_eq!(idx.num_edges(), 0);
        let p = summarize(&idx, ScanParams::paper_defaults());
        assert_eq!(p.clusters, 0);
        assert_eq!(p.largest_cluster, 0);
        assert_eq!(suggest_epsilon(&idx, 3, 10), None);
    }

    #[test]
    fn suggested_epsilon_separates_the_triangles() {
        let g = two_triangles();
        let idx = SimilarityIndex::build(&g, 1);
        let eps = suggest_epsilon(&idx, 3, 20).expect("a 2-cluster plateau exists");
        // The 2-cluster plateau is the widest; the suggestion must land in
        // it and actually produce the two triangles.
        let p = summarize(&idx, ScanParams::new(eps, 3));
        assert_eq!(
            p.clusters, 2,
            "suggested eps {eps} gives {} clusters",
            p.clusters
        );
    }

    #[test]
    fn no_suggestion_on_structureless_graph() {
        // A single edge never makes 2 clusters at mu=3.
        let g = GraphBuilder::from_unweighted_edges(2, vec![(0, 1)]).unwrap();
        let idx = SimilarityIndex::build(&g, 1);
        assert_eq!(suggest_epsilon(&idx, 3, 15), None);
    }
}
