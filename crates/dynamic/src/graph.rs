//! A mutable adjacency mirror whose σ is bit-identical to the CSR kernels.
//!
//! [`DynGraph`] keeps each vertex's *closed* neighborhood as an
//! ascending-id-sorted row — exactly the slice layout [`CsrGraph`] exposes —
//! plus the per-vertex squared norms, recomputed after each mutation by the
//! same ascending-id summation every `CsrGraph` constructor uses. Because
//! sorted rows and norms coincide bitwise with the CSR snapshot of the same
//! graph, [`DynGraph::sigma`] (the textbook merge-join) reproduces
//! `anyscan_scan_common::kernel::sigma_raw` bit for bit, and every kernel the
//! index build uses is documented (and property-tested) bit-identical to
//! `sigma_raw`. That chain is what lets the incremental repair produce an
//! index indistinguishable from a from-scratch build.
//!
//! Mutation primitives here are unchecked by design — validation (range,
//! self-loop, weight domain) happens once per batch in the engine — and they
//! deliberately do *not* refresh norms: the engine refreshes each touched
//! vertex once per batch instead of once per update.

use anyscan_graph::{CsrGraph, EdgeId, VertexId};

/// Mutable graph state for the dynamic update engine: sorted closed rows
/// (self-loop included at its sorted position) plus squared norms.
#[derive(Debug, Clone)]
pub struct DynGraph {
    rows: Vec<Vec<(VertexId, f64)>>,
    norm_sq: Vec<f64>,
    num_edges: u64,
    num_arcs: usize,
}

impl DynGraph {
    /// Mirrors a CSR graph. The rows copy the CSR arc slices verbatim, so
    /// every downstream σ starts bit-identical.
    pub fn from_csr(g: &CsrGraph) -> DynGraph {
        let rows: Vec<Vec<(VertexId, f64)>> =
            g.vertices().map(|v| g.neighbors(v).collect()).collect();
        let norm_sq = g.vertices().map(|v| g.norm_sq(v)).collect();
        DynGraph {
            rows,
            norm_sq,
            num_edges: g.num_edges(),
            num_arcs: g.num_arcs(),
        }
    }

    /// Number of vertices (fixed for the life of the graph).
    pub fn num_vertices(&self) -> usize {
        self.rows.len()
    }

    /// Number of undirected edges, excluding the implicit self-loops.
    pub fn num_edges(&self) -> u64 {
        self.num_edges
    }

    /// Number of stored arcs (both directions plus one self-loop per vertex).
    pub fn num_arcs(&self) -> usize {
        self.num_arcs
    }

    /// Closed degree of `v` (plain degree + 1 for the self-loop).
    pub fn degree(&self, v: VertexId) -> usize {
        self.rows[v as usize].len()
    }

    /// The sorted closed row of `v`: `(neighbor, weight)` ascending by id,
    /// including `(v, SELF_LOOP_WEIGHT)`.
    pub fn row(&self, v: VertexId) -> &[(VertexId, f64)] {
        &self.rows[v as usize]
    }

    /// Squared weighted norm of `v`'s closed neighborhood.
    pub fn norm_sq(&self, v: VertexId) -> f64 {
        self.norm_sq[v as usize]
    }

    /// Weight of edge `{u, v}`, or `None` when absent. `u != v` assumed.
    pub fn edge_weight(&self, u: VertexId, v: VertexId) -> Option<f64> {
        let row = &self.rows[u as usize];
        row.binary_search_by_key(&v, |e| e.0).ok().map(|i| row[i].1)
    }

    /// Inserts `{u, v}` with weight `w`, or overwrites the weight when the
    /// edge already exists. Returns the previous weight (`None` when the
    /// edge is new). Norms are *not* refreshed — see [`DynGraph::refresh_norm`].
    pub fn set_edge(&mut self, u: VertexId, v: VertexId, w: f64) -> Option<f64> {
        debug_assert_ne!(u, v, "self-loops are implicit");
        let old = self.half_set(u, v, w);
        let mirrored = self.half_set(v, u, w);
        debug_assert_eq!(old.map(f64::to_bits), mirrored.map(f64::to_bits));
        if old.is_none() {
            self.num_edges += 1;
            self.num_arcs += 2;
        }
        old
    }

    /// Deletes `{u, v}` if present, returning its weight. Norms are *not*
    /// refreshed.
    pub fn remove_edge(&mut self, u: VertexId, v: VertexId) -> Option<f64> {
        debug_assert_ne!(u, v, "self-loops are implicit");
        let old = self.half_remove(u, v)?;
        let mirrored = self.half_remove(v, u);
        debug_assert_eq!(Some(old.to_bits()), mirrored.map(f64::to_bits));
        self.num_edges -= 1;
        self.num_arcs -= 2;
        Some(old)
    }

    /// Recomputes `v`'s squared norm by the same ascending-id summation
    /// `CsrGraph` constructors perform, so the value is bit-identical to
    /// what a CSR snapshot of this graph would report.
    pub fn refresh_norm(&mut self, v: VertexId) {
        let mut l = 0.0f64;
        for &(_, w) in &self.rows[v as usize] {
            l += w * w;
        }
        self.norm_sq[v as usize] = l;
    }

    /// Structural similarity of adjacent-or-not pair `(u, v)`: the exact
    /// merge-join `sigma_raw` performs, over rows and norms that coincide
    /// bitwise with the CSR form — hence a bit-identical result.
    pub fn sigma(&self, u: VertexId, v: VertexId) -> f64 {
        let ru = &self.rows[u as usize];
        let rv = &self.rows[v as usize];
        let (mut i, mut j) = (0usize, 0usize);
        let mut num = 0.0f64;
        while i < ru.len() && j < rv.len() {
            let (a, b) = (ru[i].0, rv[j].0);
            if a == b {
                num += ru[i].1 * rv[j].1;
                i += 1;
                j += 1;
            } else if a < b {
                i += 1;
            } else {
                j += 1;
            }
        }
        num / (self.norm_sq[u as usize] * self.norm_sq[v as usize]).sqrt()
    }

    /// Snapshots the current state as a [`CsrGraph`] (invariant-checked).
    /// The arc arrays are the concatenated rows, so the snapshot is
    /// bit-identical to what `GraphBuilder` would produce for this edge set.
    pub fn to_csr(&self) -> Result<CsrGraph, String> {
        let mut offsets: Vec<EdgeId> = Vec::with_capacity(self.rows.len() + 1);
        let mut neighbors: Vec<VertexId> = Vec::with_capacity(self.num_arcs);
        let mut weights: Vec<f64> = Vec::with_capacity(self.num_arcs);
        offsets.push(0);
        for row in &self.rows {
            for &(q, w) in row {
                neighbors.push(q);
                weights.push(w);
            }
            offsets.push(neighbors.len());
        }
        CsrGraph::from_sorted_rows(offsets, neighbors, weights, self.num_edges)
    }

    fn half_set(&mut self, a: VertexId, b: VertexId, w: f64) -> Option<f64> {
        let row = &mut self.rows[a as usize];
        match row.binary_search_by_key(&b, |e| e.0) {
            Ok(i) => Some(std::mem::replace(&mut row[i].1, w)),
            Err(i) => {
                row.insert(i, (b, w));
                None
            }
        }
    }

    fn half_remove(&mut self, a: VertexId, b: VertexId) -> Option<f64> {
        let row = &mut self.rows[a as usize];
        match row.binary_search_by_key(&b, |e| e.0) {
            Ok(i) => Some(row.remove(i).1),
            Err(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anyscan_graph::gen::{erdos_renyi, WeightModel};
    use anyscan_graph::GraphBuilder;
    use anyscan_scan_common::kernel::sigma_raw;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn assert_csr_bit_eq(a: &CsrGraph, b: &CsrGraph) {
        assert_eq!(a.num_vertices(), b.num_vertices());
        assert_eq!(a.num_edges(), b.num_edges());
        for v in a.vertices() {
            assert_eq!(a.neighbor_ids(v), b.neighbor_ids(v));
            let wa: Vec<u64> = a.neighbor_weights(v).iter().map(|w| w.to_bits()).collect();
            let wb: Vec<u64> = b.neighbor_weights(v).iter().map(|w| w.to_bits()).collect();
            assert_eq!(wa, wb);
            assert_eq!(a.norm_sq(v).to_bits(), b.norm_sq(v).to_bits());
        }
    }

    #[test]
    fn roundtrip_is_bit_identical() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = erdos_renyi(&mut rng, 60, 300, WeightModel::uniform_default());
        let d = DynGraph::from_csr(&g);
        assert_csr_bit_eq(&d.to_csr().unwrap(), &g);
    }

    #[test]
    fn sigma_matches_sigma_raw_bitwise() {
        let mut rng = StdRng::seed_from_u64(11);
        let g = erdos_renyi(&mut rng, 50, 260, WeightModel::uniform_default());
        let d = DynGraph::from_csr(&g);
        for (u, v, _) in g.edges() {
            assert_eq!(
                d.sigma(u, v).to_bits(),
                sigma_raw(&g, u, v).to_bits(),
                "σ({u},{v})"
            );
        }
    }

    #[test]
    fn mutations_match_rebuilt_graph() {
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 2, 2.0);
        b.add_edge(2, 3, 1.5);
        let g = b.build();
        let mut d = DynGraph::from_csr(&g);

        assert_eq!(d.set_edge(3, 4, 0.5), None); // insert
        assert_eq!(d.set_edge(1, 2, 4.0), Some(2.0)); // overwrite
        assert_eq!(d.remove_edge(0, 1), Some(1.0)); // delete
        assert_eq!(d.remove_edge(0, 4), None); // absent
        for v in [0, 1, 2, 3, 4] {
            d.refresh_norm(v);
        }
        assert_eq!(d.num_edges(), 3);

        let mut b2 = GraphBuilder::new(5);
        b2.add_edge(1, 2, 4.0);
        b2.add_edge(2, 3, 1.5);
        b2.add_edge(3, 4, 0.5);
        assert_csr_bit_eq(&d.to_csr().unwrap(), &b2.build());
    }
}
