//! pSCAN (Chang, Li, Lin, Qin, Zhang — ICDE 2016), weighted-extended.
//!
//! pSCAN's pillars, all reproduced here:
//!
//! * **similar-degree `sd(u)`** (confirmed ε-neighbors, counting `u`) and
//!   **effective-degree `ed(u)`** (upper bound: closed degree minus confirmed
//!   non-neighbors). `sd(u) ≥ μ` certifies a core, `ed(u) < μ` certifies a
//!   non-core, letting many core checks be skipped entirely;
//! * **at-most-once edge evaluation**: every σ verdict is cached on both
//!   arcs and updates the counters of *both* endpoints;
//! * **cores first**: cores are detected and clustered with a disjoint-set
//!   structure (skipping unions already implied — the `Findset` pruning the
//!   paper's Fig. 12 measures), then non-cores are attached as borders.
//!
//! The only simplification vs. Chang et al.: vertices are visited in static
//! non-increasing degree order rather than dynamically re-sorted by `ed`;
//! this is a work heuristic and does not affect exactness (asserted against
//! SCAN in tests).

use anyscan_dsu::DsuSeq;
use anyscan_graph::{CsrGraph, VertexId};
use anyscan_scan_common::{Clustering, Kernel, Role, ScanParams, NOISE};

use crate::edge_cache::{EdgeCache, Verdict};
use crate::output::AlgoOutput;

/// Runs pSCAN.
pub fn pscan(g: &CsrGraph, params: ScanParams) -> AlgoOutput {
    let kernel = Kernel::new(g, params);
    let n = g.num_vertices();
    let mu = params.mu as u32;
    let mut cache = EdgeCache::new(g);
    // sd counts the vertex itself (σ(u,u)=1); ed starts at the closed degree.
    let mut sd: Vec<u32> = vec![1; n];
    let mut ed: Vec<u32> = (0..n as VertexId).map(|v| g.degree(v) as u32).collect();

    // --- Core detection, densest first ---------------------------------
    let mut order: Vec<VertexId> = (0..n as VertexId).collect();
    order.sort_unstable_by_key(|&v| std::cmp::Reverse(g.degree(v)));
    for &u in &order {
        check_core(&kernel, &mut cache, &mut sd, &mut ed, mu, u);
    }
    let is_core = |sd: &[u32], v: VertexId| sd[v as usize] >= mu;

    // --- Cluster cores ---------------------------------------------------
    let mut dsu = DsuSeq::new(n);
    let mut union_ops = 0;
    for u in 0..n as VertexId {
        if !is_core(&sd, u) {
            continue;
        }
        for &v in g.neighbor_ids(u) {
            if v <= u || !is_core(&sd, v) {
                continue;
            }
            // Findset pruning: an implied union needs no σ evaluation.
            if dsu.same_set(u, v) {
                continue;
            }
            if cache.decide(&kernel, u, v) == Verdict::Similar && dsu.union(u, v) {
                union_ops += 1;
            }
        }
    }

    // --- Attach borders ---------------------------------------------------
    let mut labels = vec![NOISE; n];
    let mut roles = vec![Role::Outlier; n];
    for u in 0..n as VertexId {
        if is_core(&sd, u) {
            labels[u as usize] = dsu.find(u);
            roles[u as usize] = Role::Core;
        }
    }
    for u in 0..n as VertexId {
        if !is_core(&sd, u) {
            continue;
        }
        let cu = labels[u as usize];
        for &v in g.neighbor_ids(u) {
            if v == u || is_core(&sd, v) || labels[v as usize] != NOISE {
                continue;
            }
            if cache.decide(&kernel, u, v) == Verdict::Similar {
                labels[v as usize] = cu;
                roles[v as usize] = Role::Border;
            }
        }
    }

    let mut clustering = Clustering { labels, roles };
    clustering.classify_noise(g);
    AlgoOutput::new(clustering, kernel.stats(), union_ops)
}

/// Decides `u`'s core status, evaluating only unknown-verdict neighbors and
/// stopping as soon as `sd ≥ μ` or `ed < μ`. Every fresh verdict also
/// updates the counters of the opposite endpoint — pSCAN's key sharing.
fn check_core(
    kernel: &Kernel<'_>,
    cache: &mut EdgeCache,
    sd: &mut [u32],
    ed: &mut [u32],
    mu: u32,
    u: VertexId,
) {
    let g = kernel.graph();
    if sd[u as usize] >= mu || ed[u as usize] < mu {
        return;
    }
    for &v in g.neighbor_ids(u) {
        if v == u {
            continue;
        }
        if sd[u as usize] >= mu || ed[u as usize] < mu {
            return;
        }
        if cache.get(g, u, v) != Verdict::Unknown {
            continue; // already folded into sd/ed when first decided
        }
        let verdict = cache.decide(kernel, u, v);
        match verdict {
            Verdict::Similar => {
                sd[u as usize] += 1;
                sd[v as usize] += 1;
            }
            Verdict::Dissimilar => {
                ed[u as usize] -= 1;
                ed[v as usize] -= 1;
            }
            Verdict::Unknown => unreachable!("decide never returns Unknown for adjacent pairs"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan;
    use anyscan_graph::gen::{erdos_renyi, planted_partition, PlantedPartitionParams, WeightModel};
    use anyscan_graph::GraphBuilder;
    use anyscan_scan_common::verify::assert_scan_equivalent;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn matches_scan_on_small_handmade_graph() {
        let mut edges = Vec::new();
        for a in 0..4u32 {
            for b in (a + 1)..4 {
                edges.push((a, b));
                edges.push((a + 4, b + 4));
            }
        }
        edges.push((2, 4));
        let g = GraphBuilder::from_unweighted_edges(8, edges).unwrap();
        for (eps, mu) in [(0.7, 3), (0.4, 3), (0.5, 2), (0.9, 5)] {
            let params = ScanParams::new(eps, mu);
            let a = scan(&g, params);
            let b = pscan(&g, params);
            assert_scan_equivalent(&g, params, &a.clustering, &b.clustering);
        }
    }

    #[test]
    fn matches_scan_on_random_weighted_graphs() {
        let mut rng = StdRng::seed_from_u64(21);
        for m in [80usize, 400, 1500] {
            let g = erdos_renyi(&mut rng, 150, m, WeightModel::uniform_default());
            for (eps, mu) in [(0.3, 3), (0.5, 5), (0.65, 4)] {
                let params = ScanParams::new(eps, mu);
                let a = scan(&g, params);
                let b = pscan(&g, params);
                assert_scan_equivalent(&g, params, &a.clustering, &b.clustering);
            }
        }
    }

    #[test]
    fn uses_far_fewer_evaluations_than_scan() {
        let mut rng = StdRng::seed_from_u64(22);
        let (g, _) = planted_partition(
            &mut rng,
            &PlantedPartitionParams {
                n: 500,
                num_communities: 10,
                p_in: 0.3,
                p_out: 0.01,
                weights: WeightModel::uniform_default(),
            },
        );
        let params = ScanParams::paper_defaults();
        let s = scan(&g, params);
        let p = pscan(&g, params);
        assert!(
            p.stats.sigma_evals * 2 < s.stats.sigma_evals,
            "pSCAN {} vs SCAN {}",
            p.stats.sigma_evals,
            s.stats.sigma_evals
        );
        // At-most-once: evaluations can never exceed the edge count.
        assert!(p.stats.sigma_evals <= g.num_edges());
    }

    #[test]
    fn union_count_is_far_below_vertex_count() {
        let mut rng = StdRng::seed_from_u64(23);
        // Dense, tight communities so cores exist at the chosen ε.
        let (g, _) = planted_partition(
            &mut rng,
            &PlantedPartitionParams {
                n: 600,
                num_communities: 6,
                p_in: 0.5,
                p_out: 0.005,
                weights: WeightModel::Unit,
            },
        );
        let out = pscan(&g, ScanParams::new(0.4, 5));
        assert!(out.union_ops > 0);
        // Exactly (#cores − #core-clusters) unions can ever succeed; the
        // Findset pruning guarantees no more are attempted successfully.
        let cores = out.clustering.role_counts().cores as u64;
        let clusters = out.clustering.num_clusters() as u64;
        assert_eq!(out.union_ops, cores - clusters);
        assert!(out.union_ops < g.num_vertices() as u64);
    }

    #[test]
    fn sd_ed_propagation_skips_core_checks() {
        // In a clique with low ε-threshold, once early vertices confirm
        // similarity the rest are certified by sd alone; total evals stay at
        // most |E| and strictly below 2|E|.
        let mut edges = Vec::new();
        for a in 0..12u32 {
            for b in (a + 1)..12 {
                edges.push((a, b));
            }
        }
        let g = GraphBuilder::from_unweighted_edges(12, edges).unwrap();
        let out = pscan(&g, ScanParams::new(0.5, 5));
        assert!(out.stats.sigma_evals <= g.num_edges());
        assert_eq!(out.clustering.num_clusters(), 1);
    }
}
