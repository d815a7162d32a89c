//! The ε-hierarchy: every SCAN clustering for **all** ε at once, read off a
//! [`SimilarityIndex`].
//!
//! The paper's related work (SCOT, gSkeletonClu [20, 21]) builds
//! structure-connected hierarchies to sidestep ε selection. For a fixed μ
//! the index already holds everything such a hierarchy needs, so building
//! one evaluates no σ and never touches the graph:
//!
//! * every vertex `v` has a **core threshold** `ε_core(v)` — the largest ε
//!   at which it is still a core. That is entry `μ − 1` of `v`'s neighbor
//!   order (σ(v, v) = 1 counts), or 0 when `|Γ(v)| < μ`;
//! * two cores `u, v` joined by an edge become density-connected once
//!   `ε ≤ min(σ(u,v), ε_core(u), ε_core(v))` — the edge's **merge
//!   threshold**;
//! * processing edges by descending merge threshold through a union-find
//!   yields a dendrogram whose cut at any ε is exactly SCAN's partition of
//!   the core vertices at that ε.
//!
//! The full clustering at one ε (borders, hubs, outliers) is
//! [`SimilarityIndex::query`]; the hierarchy adds the dendrogram and the
//! cluster count at every ε in one union-find pass.

use anyscan_dsu::DsuSeq;
use anyscan_graph::VertexId;

use crate::SimilarityIndex;

/// One dendrogram merge event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MergeEvent {
    /// Largest ε at which the merge is active.
    pub epsilon: f64,
    /// The edge that created the connection (`u < v`).
    pub u: VertexId,
    pub v: VertexId,
}

/// The ε-hierarchy for a fixed μ.
#[derive(Debug)]
pub struct EpsilonHierarchy {
    mu: usize,
    /// `ε_core(v)`: largest ε at which `v` is a core (0.0 when never).
    core_threshold: Vec<f64>,
    /// Merge events sorted by (ε descending, u, v).
    merges: Vec<MergeEvent>,
}

impl EpsilonHierarchy {
    /// Reads the hierarchy for `mu` off `idx`'s neighbor orders.
    pub fn build(idx: &SimilarityIndex, mu: usize) -> Self {
        assert!(mu >= 1);
        let n = idx.num_vertices();
        let core_threshold: Vec<f64> = (0..n as VertexId)
            .map(|v| idx.core_threshold(v, mu).unwrap_or(0.0))
            .collect();
        let is_candidate = |v: VertexId| idx.neighbor_order(v).0.len() >= mu;

        let mut merges = Vec::new();
        for u in (0..n as VertexId).filter(|&u| is_candidate(u)) {
            let (nbrs, sigs) = idx.neighbor_order(u);
            for (&v, &s) in nbrs.iter().zip(sigs) {
                if v > u && is_candidate(v) {
                    let epsilon = s
                        .min(core_threshold[u as usize])
                        .min(core_threshold[v as usize]);
                    merges.push(MergeEvent { epsilon, u, v });
                }
            }
        }
        merges.sort_unstable_by(|a, b| {
            b.epsilon
                .total_cmp(&a.epsilon)
                .then(a.u.cmp(&b.u))
                .then(a.v.cmp(&b.v))
        });

        EpsilonHierarchy {
            mu,
            core_threshold,
            merges,
        }
    }

    /// The μ this hierarchy was built for.
    pub fn mu(&self) -> usize {
        self.mu
    }

    /// `ε_core(v)` — the largest ε at which `v` is a core.
    pub fn core_threshold(&self, v: VertexId) -> f64 {
        self.core_threshold[v as usize]
    }

    /// All merge events, by descending ε (the dendrogram).
    pub fn merges(&self) -> &[MergeEvent] {
        &self.merges
    }

    /// Number of clusters at each of the given ε ∈ (0, 1] (descending sweep
    /// in one union-find pass; ε values may come in any order, the result
    /// aligns with the input).
    ///
    /// Every merge joins two cores, so the count at ε is the number of
    /// cores minus the merges with threshold ≥ ε that joined two sets.
    pub fn cluster_counts(&self, epsilons: &[f64]) -> Vec<usize> {
        let mut order: Vec<usize> = (0..epsilons.len()).collect();
        order.sort_by(|&a, &b| epsilons[b].total_cmp(&epsilons[a]));
        let mut thresholds = self.core_threshold.clone();
        thresholds.sort_unstable_by(|a, b| b.total_cmp(a));

        let mut out = vec![0usize; epsilons.len()];
        let mut dsu = DsuSeq::new(self.core_threshold.len());
        let (mut next_merge, mut joins) = (0usize, 0usize);
        for &slot in &order {
            let eps = epsilons[slot];
            while let Some(m) = self.merges.get(next_merge).filter(|m| m.epsilon >= eps) {
                joins += dsu.union(m.u, m.v) as usize;
                next_merge += 1;
            }
            let cores = thresholds.partition_point(|&t| t >= eps);
            out[slot] = cores - joins;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anyscan_graph::gen::{erdos_renyi, WeightModel};
    use anyscan_graph::{CsrGraph, GraphBuilder};
    use anyscan_scan_common::kernel::sigma_raw;
    use anyscan_scan_common::verify::assert_scan_equivalent;
    use anyscan_scan_common::{Clustering, Role, ScanParams, NOISE};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn bridged_triangles() -> CsrGraph {
        GraphBuilder::from_unweighted_edges(
            6,
            vec![(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)],
        )
        .unwrap()
    }

    fn random_graph(seed: u64, n: usize, m: usize) -> CsrGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        erdos_renyi(&mut rng, n, m, WeightModel::uniform_default())
    }

    /// `ε_core` from first principles: the μ-th largest of
    /// `{1} ∪ {σ(v, q) | q ∈ N(v)}`, or 0 when the closed degree is < μ.
    fn reference_core_threshold(g: &CsrGraph, v: VertexId, mu: usize) -> f64 {
        let mut sims: Vec<f64> = g
            .neighbor_ids(v)
            .iter()
            .map(|&q| if q == v { 1.0 } else { sigma_raw(g, v, q) })
            .collect();
        sims.sort_unstable_by(|a, b| b.total_cmp(a));
        sims.get(mu - 1).copied().unwrap_or(0.0)
    }

    /// The dendrogram cut at ε as a clustering of the cores: every vertex
    /// with `ε_core ≥ ε` is a core, labelled by its union-find root after
    /// replaying the merges with threshold ≥ ε. Non-cores stay noise.
    fn cut(h: &EpsilonHierarchy, eps: f64) -> Clustering {
        let n = h.core_threshold.len();
        let mut dsu = DsuSeq::new(n);
        for m in h.merges().iter().take_while(|m| m.epsilon >= eps) {
            dsu.union(m.u, m.v);
        }
        let mut c = Clustering {
            labels: vec![NOISE; n],
            roles: vec![Role::Outlier; n],
        };
        for v in 0..n as VertexId {
            if h.core_threshold(v) >= eps {
                c.labels[v as usize] = dsu.find(v);
                c.roles[v as usize] = Role::Core;
            }
        }
        c
    }

    #[test]
    fn core_thresholds_are_sensible() {
        let g = bridged_triangles();
        let idx = SimilarityIndex::build(&g, 1);
        let h = EpsilonHierarchy::build(&idx, 3);
        // Triangle-corner vertices stay cores up to high ε; with μ=3 the
        // threshold is the 3rd largest of {1, σ…} > 0.5 here.
        for v in 0..6u32 {
            assert!(h.core_threshold(v) > 0.5, "v={v}: {}", h.core_threshold(v));
            assert!(h.core_threshold(v) <= 1.0);
        }
        // μ larger than any closed degree ⇒ never a core.
        let h = EpsilonHierarchy::build(&idx, 10);
        for v in 0..6u32 {
            assert_eq!(h.core_threshold(v), 0.0);
        }
        assert!(h.merges().is_empty());
    }

    #[test]
    fn core_thresholds_and_merges_match_sigma_reference() {
        let g = random_graph(90, 150, 1_000);
        let idx = SimilarityIndex::build(&g, 2);
        for mu in [1usize, 2, 4, 7] {
            let h = EpsilonHierarchy::build(&idx, mu);
            let ct: Vec<f64> = g
                .vertices()
                .map(|v| reference_core_threshold(&g, v, mu))
                .collect();
            for v in g.vertices() {
                assert_eq!(
                    h.core_threshold(v).to_bits(),
                    ct[v as usize].to_bits(),
                    "ε_core({v}) at μ={mu}"
                );
            }
            // The merge-event multiset: one event per edge whose endpoints
            // both have closed degree ≥ μ.
            let mut want: Vec<(VertexId, VertexId, u64)> = Vec::new();
            for u in g.vertices().filter(|&u| g.degree(u) >= mu) {
                for &v in g.neighbor_ids(u) {
                    if v > u && g.degree(v) >= mu {
                        let e = sigma_raw(&g, u, v).min(ct[u as usize]).min(ct[v as usize]);
                        want.push((u, v, e.to_bits()));
                    }
                }
            }
            let mut got: Vec<(VertexId, VertexId, u64)> = h
                .merges()
                .iter()
                .map(|m| (m.u, m.v, m.epsilon.to_bits()))
                .collect();
            want.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, want, "merge events at μ={mu}");
        }
    }

    #[test]
    fn merges_are_sorted_descending() {
        let g = random_graph(93, 120, 900);
        let idx = SimilarityIndex::build(&g, 1);
        let h = EpsilonHierarchy::build(&idx, 3);
        assert!(!h.merges().is_empty());
        for w in h.merges().windows(2) {
            let (a, b) = (w[0], w[1]);
            assert!(a.epsilon >= b.epsilon);
            if a.epsilon == b.epsilon {
                assert!((a.u, a.v) < (b.u, b.v), "ties break by (u, v)");
            }
        }
    }

    #[test]
    fn cut_matches_full_algorithms_on_random_graphs() {
        let g = random_graph(91, 180, 1_400);
        let idx = SimilarityIndex::build(&g, 2);
        for mu in [2usize, 5] {
            let h = EpsilonHierarchy::build(&idx, mu);
            for eps in [0.25, 0.45, 0.65, 0.85] {
                let params = ScanParams::new(eps, mu);
                let mut truth = anyscan_baselines::scan(&g, params).clustering;
                // The dendrogram partitions the cores only: compare against
                // SCAN's clustering with its borders demoted to noise.
                for v in 0..truth.len() {
                    if truth.roles[v] != Role::Core {
                        truth.labels[v] = NOISE;
                        truth.roles[v] = Role::Outlier;
                    }
                }
                assert_scan_equivalent(&g, params, &truth, &cut(&h, eps));
            }
        }
    }

    #[test]
    fn cluster_counts_match_individual_cuts() {
        let g = random_graph(92, 120, 900);
        let idx = SimilarityIndex::build(&g, 1);
        let h = EpsilonHierarchy::build(&idx, 4);
        // Deliberately unsorted query order.
        let eps = [0.6, 0.2, 0.8, 0.4];
        let fast = h.cluster_counts(&eps);
        for (i, &e) in eps.iter().enumerate() {
            assert_eq!(fast[i], cut(&h, e).num_clusters(), "eps {e}");
        }
    }

    #[test]
    fn cluster_counts_match_index_queries() {
        let g = random_graph(94, 160, 1_100);
        let idx = SimilarityIndex::build(&g, 2);
        let grid = [0.9, 0.1, 0.5, 0.3, 0.7, 0.5];
        for mu in [1usize, 3, 6, idx.mu_max(), idx.mu_max() + 1] {
            let counts = EpsilonHierarchy::build(&idx, mu).cluster_counts(&grid);
            for (&eps, &count) in grid.iter().zip(&counts) {
                let want = idx.query(&g, ScanParams::new(eps, mu)).num_clusters();
                assert_eq!(count, want, "ε={eps} μ={mu}");
            }
        }
    }

    #[test]
    fn cluster_count_evolution_on_known_graph() {
        let g = bridged_triangles();
        let idx = SimilarityIndex::build(&g, 1);
        let h = EpsilonHierarchy::build(&idx, 3);
        let counts = h.cluster_counts(&[0.2, 0.7]);
        assert_eq!(counts, vec![1, 2]);
    }

    #[test]
    fn empty_and_tiny_graphs() {
        let g = GraphBuilder::new(0).build();
        let idx = SimilarityIndex::build(&g, 1);
        let h = EpsilonHierarchy::build(&idx, 3);
        assert!(h.merges().is_empty());
        assert_eq!(h.cluster_counts(&[0.5]), vec![0]);
        assert_eq!(
            idx.query(&g, ScanParams::new(0.5, 3)).num_clusters(),
            h.cluster_counts(&[0.5])[0]
        );

        let g = GraphBuilder::new(1).build();
        let idx = SimilarityIndex::build(&g, 1);
        let h = EpsilonHierarchy::build(&idx, 1);
        // A lone vertex with μ=1 is a core (its closed neighborhood is {v}).
        assert_eq!(h.core_threshold(0), 1.0);
        assert_eq!(h.cluster_counts(&[0.9]), vec![1]);
    }
}
