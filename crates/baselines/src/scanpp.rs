//! SCAN++ (Shiokawa, Fujiwara, Onizuka — VLDB 2015), weighted-extended.
//!
//! SCAN++ exploits the two-hop structure of real graphs: it selects a set of
//! **pivots** by repeatedly taking an uncovered vertex, computing its full
//! ε-neighborhood (a *true* similarity evaluation per neighbor), and
//! enqueueing its directly two-hop-away reachable vertices (DTAR) as the
//! next pivot candidates. Because adjacent vertices share pivots, the
//! verdicts bought by pivot queries seed the core checks of everyone else —
//! the *similarity sharing* whose count Fig. 7 stacks on top of the true
//! evaluations.
//!
//! Faithfulness note (also in DESIGN.md): Shiokawa et al. infer shared
//! similarity through set arithmetic on pivot neighborhoods; we realize the
//! same reuse through the per-arc verdict cache, and classify every σ
//! evaluation performed *after* pivot selection as a sharing evaluation.
//! The result is exact (asserted against SCAN); the two counter classes
//! reproduce the figure's stacking and its correlation with the number of
//! cores.

use std::collections::VecDeque;

use anyscan_dsu::DsuSeq;
use anyscan_graph::{CsrGraph, VertexId};
use anyscan_scan_common::{Clustering, Kernel, Role, ScanParams, SimStats, NOISE};

use crate::edge_cache::{EdgeCache, Verdict};
use crate::output::AlgoOutput;

/// Runs SCAN++.
pub fn scanpp(g: &CsrGraph, params: ScanParams) -> AlgoOutput {
    let kernel = Kernel::new(g, params);
    let n = g.num_vertices();
    let mu = params.mu as u32;
    let mut cache = EdgeCache::new(g);
    let mut sd: Vec<u32> = vec![1; n];
    let mut ed: Vec<u32> = (0..n as VertexId).map(|v| g.degree(v) as u32).collect();

    // --- Phase 1: pivot selection by DTAR expansion ----------------------
    // `covered[v]`: v is a pivot or adjacent to one.
    let mut covered = vec![false; n];
    let mut pivots: Vec<VertexId> = Vec::new();
    let mut candidates: VecDeque<VertexId> = VecDeque::new();
    for seed in 0..n as VertexId {
        if covered[seed as usize] {
            continue;
        }
        candidates.push_back(seed);
        while let Some(p) = candidates.pop_front() {
            if covered[p as usize] {
                continue;
            }
            covered[p as usize] = true;
            pivots.push(p);
            // Full neighborhood query at the pivot (true evaluations).
            for &v in g.neighbor_ids(p) {
                if v == p {
                    continue;
                }
                covered[v as usize] = true;
                if cache.get(g, p, v) == Verdict::Unknown {
                    match cache.decide(&kernel, p, v) {
                        Verdict::Similar => {
                            sd[p as usize] += 1;
                            sd[v as usize] += 1;
                        }
                        Verdict::Dissimilar => {
                            ed[p as usize] -= 1;
                            ed[v as usize] -= 1;
                        }
                        Verdict::Unknown => unreachable!(),
                    }
                }
            }
            // DTAR: enqueue uncovered two-hop-away vertices as candidates.
            for &v in g.neighbor_ids(p) {
                if v == p {
                    continue;
                }
                for &w in g.neighbor_ids(v) {
                    if !covered[w as usize] {
                        candidates.push_back(w);
                    }
                }
            }
        }
    }
    let true_evals = kernel.stats().sigma_evals;
    let filtered_after_pivots = kernel.stats().lemma5_filtered;

    // --- Phase 2: core detection seeded by the pivot verdicts -----------
    for u in 0..n as VertexId {
        if sd[u as usize] >= mu || ed[u as usize] < mu {
            continue;
        }
        for &v in g.neighbor_ids(u) {
            if v == u {
                continue;
            }
            if sd[u as usize] >= mu || ed[u as usize] < mu {
                break;
            }
            if cache.get(g, u, v) != Verdict::Unknown {
                continue;
            }
            match cache.decide(&kernel, u, v) {
                Verdict::Similar => {
                    sd[u as usize] += 1;
                    sd[v as usize] += 1;
                }
                Verdict::Dissimilar => {
                    ed[u as usize] -= 1;
                    ed[v as usize] -= 1;
                }
                Verdict::Unknown => unreachable!(),
            }
        }
    }
    let is_core = |sd: &[u32], v: VertexId| sd[v as usize] >= mu;

    // --- Phase 3: connect local clusters over bridge edges ---------------
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
            if dsu.same_set(u, v) {
                continue;
            }
            if cache.decide(&kernel, u, v) == Verdict::Similar && dsu.union(u, v) {
                union_ops += 1;
            }
        }
    }

    // --- Borders, then hubs/outliers -------------------------------------
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

    // Split the kernel's totals into true (phase 1) vs shared (later).
    let final_stats = kernel.stats();
    let stats = SimStats {
        sigma_evals: true_evals,
        lemma5_filtered: final_stats.lemma5_filtered.max(filtered_after_pivots),
        shared_evals: final_stats.sigma_evals - true_evals,
        ..final_stats
    };
    AlgoOutput::new(clustering, stats, union_ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan;
    use anyscan_graph::gen::{erdos_renyi, planted_partition, PlantedPartitionParams, WeightModel};
    use anyscan_scan_common::verify::assert_scan_equivalent;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn matches_scan_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(31);
        for m in [60usize, 300, 1200] {
            let g = erdos_renyi(&mut rng, 140, m, WeightModel::uniform_default());
            for (eps, mu) in [(0.3, 3), (0.5, 5), (0.7, 2)] {
                let params = ScanParams::new(eps, mu);
                let a = scan(&g, params);
                let b = scanpp(&g, params);
                assert_scan_equivalent(&g, params, &a.clustering, &b.clustering);
            }
        }
    }

    #[test]
    fn pivot_structure_reduces_true_evaluations() {
        let mut rng = StdRng::seed_from_u64(32);
        let (g, _) = planted_partition(&mut rng, &PlantedPartitionParams::well_separated(500, 5));
        let params = ScanParams::paper_defaults();
        let s = scan(&g, params);
        let spp = scanpp(&g, params);
        // SCAN++'s *true* evals must undercut SCAN's total substantially.
        assert!(
            spp.stats.sigma_evals * 2 < s.stats.sigma_evals,
            "true evals {} vs SCAN {}",
            spp.stats.sigma_evals,
            s.stats.sigma_evals
        );
        // Sharing evaluations exist and are reported separately.
        assert!(spp.stats.shared_evals > 0);
    }

    #[test]
    fn total_work_is_bounded_by_edge_count() {
        let mut rng = StdRng::seed_from_u64(33);
        let g = erdos_renyi(&mut rng, 300, 2500, WeightModel::uniform_default());
        let out = scanpp(&g, ScanParams::paper_defaults());
        // At-most-once caching bounds total merge-joins by |E|.
        assert!(out.stats.sigma_evals + out.stats.shared_evals <= g.num_edges());
    }
}
