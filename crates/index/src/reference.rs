//! The collect-then-flatten index build that
//! [`SimilarityIndex::build_with_options`] replaced, kept as a test
//! reference: per-vertex σ rows, a scatter into one arc array, mirror arcs
//! read through `AtomicEdgeCache::arc_index`, per-vertex and per-μ sorted
//! vectors, then two flatten loops. The flat build must equal it exactly.

use anyscan_graph::{CsrGraph, ReorderMode, VertexId};
use anyscan_scan_common::kernel::{scores_edge, sigma_row};
use anyscan_scan_common::{AtomicEdgeCache, BatchScratch, NeighborhoodSketches, SketchMode};

use crate::{IndexBuildOptions, SimilarityIndex};

/// Builds the index the old way, serially (that build was deterministic
/// for any thread count).
pub(crate) fn build(g: &CsrGraph, opts: IndexBuildOptions) -> SimilarityIndex {
    let n = g.num_vertices();
    let arcs = g.num_arcs();
    let sketches = match opts.sketch {
        SketchMode::Off => None,
        SketchMode::Approx => Some(NeighborhoodSketches::build(
            g,
            opts.sketch_rows,
            opts.sketch_bits,
            opts.seed,
            1,
        )),
    };

    let mut scratch = BatchScratch::new(n);
    let rows: Vec<Vec<f64>> = g
        .vertices()
        .map(|u| match &sketches {
            Some(sk) => g
                .neighbor_ids(u)
                .iter()
                .map(|&v| {
                    if scores_edge(g, u, v) {
                        sk.sigma_estimate(g, u, v)
                    } else {
                        f64::NAN
                    }
                })
                .collect(),
            None => {
                let mut row = vec![0.0; g.degree(u)];
                sigma_row(g, u, &mut scratch, &mut row);
                row
            }
        })
        .collect();

    let mut sig_by_arc = vec![0.0f64; arcs];
    for u in g.vertices() {
        sig_by_arc[g.arc_range(u)].copy_from_slice(&rows[u as usize]);
    }
    let sorted: Vec<Vec<(VertexId, f64)>> = g
        .vertices()
        .map(|u| {
            let row = &sig_by_arc[g.arc_range(u)];
            let mut order: Vec<(VertexId, f64)> = g
                .neighbor_ids(u)
                .iter()
                .zip(row)
                .map(|(&v, &s)| {
                    let s = if v == u {
                        1.0
                    } else if !s.is_nan() {
                        s
                    } else {
                        let mirror = AtomicEdgeCache::arc_index(g, v, u)
                            .expect("CSR adjacency is symmetric");
                        sig_by_arc[mirror]
                    };
                    (v, s)
                })
                .collect();
            order.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            order
        })
        .collect();

    let mut offsets = vec![0];
    let mut nbr = Vec::with_capacity(arcs);
    let mut sig = Vec::with_capacity(arcs);
    for order in &sorted {
        for &(v, s) in order {
            nbr.push(v);
            sig.push(s);
        }
        offsets.push(nbr.len());
    }

    let mu_max = (0..n)
        .map(|v| offsets[v + 1] - offsets[v])
        .max()
        .unwrap_or(0);
    let mut by_degree: Vec<VertexId> = (0..n as VertexId).collect();
    by_degree.sort_by_key(|&v| {
        let deg = offsets[v as usize + 1] - offsets[v as usize];
        (std::cmp::Reverse(deg), v)
    });
    let count_ge = |mu: usize| {
        by_degree.partition_point(|&v| offsets[v as usize + 1] - offsets[v as usize] >= mu)
    };
    let mut co_offsets = vec![0];
    let mut co_vertices = Vec::with_capacity(arcs);
    for mu in 1..=mu_max {
        let mut order: Vec<(VertexId, f64)> = by_degree[..count_ge(mu)]
            .iter()
            .map(|&v| (v, sig[offsets[v as usize] + mu - 1]))
            .collect();
        order.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        co_vertices.extend(order.iter().map(|&(v, _)| v));
        co_offsets.push(co_vertices.len());
    }

    SimilarityIndex {
        offsets,
        nbr,
        sig,
        co_offsets,
        co_vertices,
        num_edges: g.num_edges(),
        reorder: ReorderMode::None,
        sketches,
    }
}
