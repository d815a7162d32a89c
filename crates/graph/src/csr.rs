//! Immutable compressed-sparse-row graph.

use crate::types::{EdgeId, VertexId, Weight};

/// An undirected weighted graph in compressed-sparse-row form with **closed**
/// neighborhoods: every vertex's adjacency list contains the vertex itself
/// with [`CsrGraph::SELF_LOOP_WEIGHT`].
///
/// SCAN defines the structural neighborhood `Γ(v) = {u | (v,u) ∈ E} ∪ {v}`;
/// materializing the self-loop turns every structural-similarity evaluation
/// into a plain sorted merge-join over two adjacency slices, with no special
/// cases. [`CsrGraph::degree`] therefore counts the vertex itself, matching
/// `|Γ(v)|` in the SCAN literature, while [`CsrGraph::open_degree`] gives the
/// conventional graph degree.
///
/// Adjacency lists are sorted by neighbor id and deduplicated. Per-vertex
/// Lemma-5 quantities (`l_p = Σ w², w_p = max w`) are precomputed at build
/// time so the O(1) similarity filter never touches the edge arrays.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrGraph {
    /// `offsets[v]..offsets[v+1]` delimits v's slice of `neighbors`/`weights`.
    offsets: Vec<EdgeId>,
    /// Flat adjacency array (includes the self-loop), sorted per vertex.
    neighbors: Vec<VertexId>,
    /// Weight of the corresponding arc in `neighbors`.
    weights: Vec<Weight>,
    /// Lemma 5: `l_p = Σ_{r∈N_p} w_pr²` (includes the self-loop).
    norm_sq: Vec<Weight>,
    /// Lemma 5: `w_p = max_{r∈N_p} w_pr` (includes the self-loop).
    max_weight: Vec<Weight>,
    /// Number of undirected edges, *excluding* self-loops.
    num_edges: u64,
}

impl CsrGraph {
    /// Weight assigned to the materialized self-loop of every vertex.
    ///
    /// With unit edge weights this makes Definition 1 reduce exactly to
    /// SCAN's unweighted cosine similarity over closed neighborhoods.
    pub const SELF_LOOP_WEIGHT: Weight = 1.0;

    /// Assembles a graph from raw CSR arrays without validating them. Only
    /// [`crate::GraphBuilder`], which establishes the CSR invariants itself,
    /// may call it; every other source goes through
    /// [`CsrGraph::from_sorted_rows`].
    pub(crate) fn from_parts(
        offsets: Vec<EdgeId>,
        neighbors: Vec<VertexId>,
        weights: Vec<Weight>,
        num_edges: u64,
    ) -> Self {
        debug_assert_eq!(neighbors.len(), weights.len());
        debug_assert_eq!(*offsets.last().unwrap_or(&0), neighbors.len());
        let (norm_sq, max_weight) = offsets
            .windows(2)
            .map(|r| lemma5_row(&weights[r[0]..r[1]]))
            .unzip();
        CsrGraph {
            offsets,
            neighbors,
            weights,
            norm_sq,
            max_weight,
            num_edges,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges, excluding the materialized self-loops.
    #[inline]
    pub fn num_edges(&self) -> u64 {
        self.num_edges
    }

    /// Closed degree `|Γ(v)|` (counts `v` itself).
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Conventional (open) degree: number of distinct neighbors `≠ v`.
    #[inline]
    pub fn open_degree(&self, v: VertexId) -> usize {
        self.degree(v) - 1
    }

    /// Iterator over `(neighbor, weight)` pairs of the closed neighborhood,
    /// in increasing neighbor order (includes `(v, SELF_LOOP_WEIGHT)`).
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> impl Iterator<Item = (VertexId, Weight)> + '_ {
        let v = v as usize;
        let range = self.offsets[v]..self.offsets[v + 1];
        self.neighbors[range.clone()]
            .iter()
            .copied()
            .zip(self.weights[range].iter().copied())
    }

    /// The sorted closed-neighborhood id slice of `v`.
    #[inline]
    pub fn neighbor_ids(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        &self.neighbors[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Weights aligned with [`CsrGraph::neighbor_ids`].
    #[inline]
    pub fn neighbor_weights(&self, v: VertexId) -> &[Weight] {
        let v = v as usize;
        &self.weights[self.offsets[v]..self.offsets[v + 1]]
    }

    /// `l_v = Σ_{r∈Γ(v)} w_vr²` — the squared neighborhood norm of Lemma 5.
    #[inline]
    pub fn norm_sq(&self, v: VertexId) -> Weight {
        self.norm_sq[v as usize]
    }

    /// `w_v = max_{r∈Γ(v)} w_vr` — the maximum incident weight of Lemma 5.
    #[inline]
    pub fn max_weight(&self, v: VertexId) -> Weight {
        self.max_weight[v as usize]
    }

    /// True if `u` and `v` are adjacent (`u == v` counts: closed neighborhood).
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.neighbor_ids(u).binary_search(&v).is_ok()
    }

    /// Weight of the arc `(u,v)` if present.
    pub fn edge_weight(&self, u: VertexId, v: VertexId) -> Option<Weight> {
        let u_usize = u as usize;
        let slice = &self.neighbors[self.offsets[u_usize]..self.offsets[u_usize + 1]];
        slice
            .binary_search(&v)
            .ok()
            .map(|i| self.weights[self.offsets[u_usize] + i])
    }

    /// Iterator over all vertex ids.
    #[inline]
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> {
        0..self.num_vertices() as VertexId
    }

    /// Iterator over each undirected edge `(u, v, w)` exactly once
    /// (`u < v`; self-loops are skipped).
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId, Weight)> + '_ {
        self.vertices().flat_map(move |u| {
            self.neighbors(u)
                .filter(move |&(v, _)| u < v)
                .map(move |(v, w)| (u, v, w))
        })
    }

    /// Average open degree `2|E| / |V|` — the `d̄` column of Tables I/II.
    pub fn average_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            return 0.0;
        }
        2.0 * self.num_edges as f64 / self.num_vertices() as f64
    }

    /// Raw CSR views for zero-copy serialization.
    pub(crate) fn raw_parts(&self) -> (&[EdgeId], &[VertexId], &[Weight], u64) {
        (
            &self.offsets,
            &self.neighbors,
            &self.weights,
            self.num_edges,
        )
    }

    /// Total number of stored arcs, including self-loops (2|E| + |V|).
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.neighbors.len()
    }

    /// Range of global arc indices owned by `v` (aligned with
    /// [`CsrGraph::neighbor_ids`]); lets callers maintain per-arc side
    /// tables (e.g. pSCAN's similarity verdict cache).
    #[inline]
    pub fn arc_range(&self, v: VertexId) -> std::ops::Range<EdgeId> {
        let v = v as usize;
        self.offsets[v]..self.offsets[v + 1]
    }

    /// Assembles a graph from adjacency rows that already satisfy the CSR
    /// invariants (strictly sorted per vertex, symmetric, self-loops present,
    /// positive finite weights) — the shape a dynamic-update engine maintains
    /// natively, letting it publish a CSR snapshot without re-sorting, and
    /// the shape the binary loader decodes. Invariants are re-validated in
    /// one linear pass; a violation is a typed `Err`, never a panic or a
    /// silently corrupt graph.
    pub fn from_sorted_rows(
        offsets: Vec<EdgeId>,
        neighbors: Vec<VertexId>,
        weights: Vec<Weight>,
        num_edges: u64,
    ) -> Result<CsrGraph, String> {
        let (norm_sq, max_weight) = validate_rows(&offsets, &neighbors, &weights, num_edges)?;
        Ok(CsrGraph {
            offsets,
            neighbors,
            weights,
            norm_sq,
            max_weight,
            num_edges,
        })
    }

    /// Validates every CSR invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        validate_rows(
            &self.offsets,
            &self.neighbors,
            &self.weights,
            self.num_edges,
        )
        .map(|_| ())
    }
}

/// Lemma-5 quantities of one row: `(Σ w², max w)`, summed in row order so
/// every constructor produces bit-identical norms.
fn lemma5_row(weights: &[Weight]) -> (Weight, Weight) {
    let (mut l, mut m) = (0.0, 0.0);
    for &w in weights {
        l += w * w;
        if w > m {
            m = w;
        }
    }
    (l, m)
}

/// The one CSR validator: checks every invariant in a single linear pass
/// over raw, untrusted arrays and returns the per-vertex Lemma-5 arrays
/// `(norm_sq, max_weight)`. Never panics and never indexes before the
/// offsets are known to be in bounds.
///
/// Symmetry is a transpose check. Rows are walked in ascending order with a
/// cursor per row, starting at the row's first arc. Each arc `(v, u)` with
/// `u > v` must find its reverse `(u, v)`, with a bit-equal weight, at
/// `cursor[u]`, which then advances. Because rows are visited in ascending
/// order, the reverse arcs consumed from row `u` are exactly its arcs to
/// smaller ids, in order, so when row `v` is reached its cursor must sit on
/// its self-loop: anything else is a missing or unmatched arc.
fn validate_rows(
    offsets: &[EdgeId],
    neighbors: &[VertexId],
    weights: &[Weight],
    num_edges: u64,
) -> Result<(Vec<Weight>, Vec<Weight>), String> {
    let Some((&last, rows)) = offsets.split_last() else {
        return Err("offsets must contain at least the trailing bound".into());
    };
    if neighbors.len() != weights.len() || last != neighbors.len() {
        return Err("arc arrays disagree with offsets".into());
    }
    if offsets[0] != 0 {
        return Err("offsets must start at 0".into());
    }
    if let Some(v) = offsets.windows(2).position(|r| r[0] > r[1]) {
        return Err(format!("offsets not monotone at {v}"));
    }
    let n = rows.len();
    let mut cursor = rows.to_vec();
    let mut norm_sq = Vec::with_capacity(n);
    let mut max_weight = Vec::with_capacity(n);
    for v in 0..n {
        let (start, end) = (offsets[v], offsets[v + 1]);
        if cursor[v] == end || neighbors[cursor[v]] as usize != v {
            return Err(format!("vertex {v} lacks its self-loop or a reverse arc"));
        }
        let ids = &neighbors[start..end];
        let ws = &weights[start..end];
        for (i, (&u, &w)) in ids.iter().zip(ws).enumerate() {
            let ui = u as usize;
            if ui >= n {
                return Err(format!("neighbor {u} of {v} out of range"));
            }
            if w <= 0.0 || !w.is_finite() {
                return Err(format!("weight of ({v},{u}) invalid: {w}"));
            }
            if i > 0 && ids[i - 1] >= u {
                return Err(format!("adjacency of {v} not strictly sorted"));
            }
            if ui > v {
                let back = cursor[ui];
                if back == offsets[ui + 1] || neighbors[back] as usize != v {
                    return Err(format!("missing reverse arc ({u},{v})"));
                }
                if weights[back].to_bits() != w.to_bits() {
                    return Err(format!("asymmetric weight on ({v},{u})"));
                }
                cursor[ui] += 1;
            }
        }
        let (l, m) = lemma5_row(ws);
        norm_sq.push(l);
        max_weight.push(m);
    }
    let arcs_excl_self = (neighbors.len() - n) as u64;
    if num_edges.checked_mul(2) != Some(arcs_excl_self) {
        return Err(format!(
            "edge count mismatch: {arcs_excl_self} arcs (excl. self) vs num_edges={num_edges}"
        ));
    }
    Ok((norm_sq, max_weight))
}

#[cfg(test)]
mod tests {
    use super::{validate_rows, CsrGraph};
    use crate::types::{EdgeId, VertexId, Weight};
    use crate::GraphBuilder;
    use proptest::prelude::*;

    fn triangle() -> super::CsrGraph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 2, 2.0);
        b.add_edge(2, 0, 0.5);
        b.build()
    }

    #[test]
    fn basic_accessors() {
        let g = triangle();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.degree(0), 3); // closed degree: self + 2 neighbors
        assert_eq!(g.open_degree(0), 2);
        assert_eq!(g.num_arcs(), 9); // 2*3 arcs + 3 self-loops
        assert!((g.average_degree() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn self_loops_present_with_unit_weight() {
        let g = triangle();
        for v in 0..3 {
            assert_eq!(g.edge_weight(v, v), Some(super::CsrGraph::SELF_LOOP_WEIGHT));
        }
    }

    #[test]
    fn neighbors_sorted_and_weighted() {
        let g = triangle();
        let n: Vec<_> = g.neighbors(1).collect();
        assert_eq!(n, vec![(0, 1.0), (1, 1.0), (2, 2.0)]);
    }

    #[test]
    fn edge_weight_lookup() {
        let g = triangle();
        assert_eq!(g.edge_weight(0, 2), Some(0.5));
        assert_eq!(g.edge_weight(2, 0), Some(0.5));
        assert_eq!(g.edge_weight(0, 0), Some(1.0));
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1.0);
        let g = b.build();
        assert_eq!(g.edge_weight(0, 3), None);
    }

    #[test]
    fn norms_include_self_loop() {
        let g = triangle();
        // l_1 = 1 (self) + 1 (to 0) + 4 (to 2)
        assert!((g.norm_sq(1) - 6.0).abs() < 1e-12);
        assert!((g.max_weight(1) - 2.0).abs() < 1e-12);
        // Vertex with only weak edges: self-loop dominates max.
        assert!((g.max_weight(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn edges_iterator_lists_each_edge_once() {
        let g = triangle();
        let mut e: Vec<_> = g.edges().collect();
        e.sort_by_key(|&(u, v, _)| (u, v));
        assert_eq!(e, vec![(0, 1, 1.0), (0, 2, 0.5), (1, 2, 2.0)]);
    }

    #[test]
    fn from_sorted_rows_roundtrips_and_rejects() {
        let g = triangle();
        // Rebuild the triangle from its own rows: identical graph.
        let mut offsets = vec![0usize];
        for v in 0..3 {
            offsets.push(g.arc_range(v).end);
        }
        let neighbors: Vec<u32> = (0..3).flat_map(|v| g.neighbor_ids(v).to_vec()).collect();
        let weights: Vec<f64> = (0..3)
            .flat_map(|v| g.neighbor_weights(v).to_vec())
            .collect();
        let rebuilt =
            super::CsrGraph::from_sorted_rows(offsets, neighbors, weights, g.num_edges()).unwrap();
        assert_eq!(rebuilt, g);
        // Missing self-loop is rejected.
        assert!(super::CsrGraph::from_sorted_rows(vec![0, 1], vec![1], vec![1.0], 0).is_err());
        // Arc arrays disagreeing with offsets are rejected.
        assert!(super::CsrGraph::from_sorted_rows(vec![0, 2], vec![0], vec![1.0], 0).is_err());
        // Non-monotone offsets are rejected before anything is sliced.
        assert!(
            super::CsrGraph::from_sorted_rows(vec![0, 3, 2], vec![0, 1], vec![1.0, 1.0], 0)
                .is_err()
        );
    }

    /// The binary-search validator the linear pass replaced, kept as the
    /// reference it must agree with: offsets first, then per row the
    /// self-loop, strict sorting, id range, weights and one `edge_weight`
    /// lookup per arc for symmetry, then the edge count.
    fn reference_check(
        offsets: &[EdgeId],
        neighbors: &[VertexId],
        weights: &[Weight],
        num_edges: u64,
    ) -> Result<(), String> {
        if offsets.first() != Some(&0) || offsets.last() != Some(&neighbors.len()) {
            return Err("bad offsets".into());
        }
        if neighbors.len() != weights.len() || offsets.windows(2).any(|r| r[0] > r[1]) {
            return Err("bad offsets".into());
        }
        let g = CsrGraph::from_parts(offsets.to_vec(), neighbors.to_vec(), weights.to_vec(), 0);
        let n = g.num_vertices();
        for v in 0..n {
            let ids = g.neighbor_ids(v as VertexId);
            if ids.binary_search(&(v as VertexId)).is_err() {
                return Err(format!("vertex {v} lacks its self-loop"));
            }
            if ids.windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!("adjacency of {v} not strictly sorted"));
            }
            for (u, w) in g.neighbors(v as VertexId) {
                if u as usize >= n {
                    return Err(format!("neighbor {u} of {v} out of range"));
                }
                if w <= 0.0 || !w.is_finite() {
                    return Err(format!("weight of ({v},{u}) invalid: {w}"));
                }
                if u as usize != v && g.edge_weight(u, v as VertexId) != Some(w) {
                    return Err(format!("missing or asymmetric reverse arc ({u},{v})"));
                }
            }
        }
        if Some((g.num_arcs() - n) as u64) != num_edges.checked_mul(2) {
            return Err("edge count mismatch".into());
        }
        Ok(())
    }

    /// One corruption of a valid graph's raw arrays.
    #[derive(Debug, Clone)]
    enum Mutation {
        /// Replace a neighbor id; may land out of range.
        Neighbor { arc: usize, id: VertexId },
        /// Replace a weight (0, −1, NaN or another value).
        Weight { arc: usize, w: Weight },
        /// Swap two arcs (id and weight together).
        Swap { a: usize, b: usize },
        /// Move the edge count by one either way.
        EdgeCount { up: bool },
    }

    fn mutation() -> impl Strategy<Value = Mutation> {
        let special = [0.0, -1.0, f64::NAN, f64::INFINITY];
        (
            0u8..4,
            0usize..1024,
            0usize..1024,
            0u32..16,
            0usize..6,
            0.25f64..4.0,
        )
            .prop_map(move |(kind, a, b, id, pick, w)| match kind {
                0 => Mutation::Neighbor { arc: a, id },
                1 => Mutation::Weight {
                    arc: a,
                    w: special.get(pick).copied().unwrap_or(w),
                },
                2 => Mutation::Swap { a, b },
                _ => Mutation::EdgeCount { up: a % 2 == 0 },
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn linear_validator_agrees_with_binary_search_reference(
            n in 1usize..10,
            edges in proptest::collection::vec((0u32..10, 0u32..10, 0u8..2, 0.5f64..2.0), 0..24),
            mutations in proptest::collection::vec(mutation(), 0..3),
        ) {
            let edges = edges
                .into_iter()
                .filter(|&(u, v, _, _)| (u as usize) < n && (v as usize) < n && u != v);
            let mut b = GraphBuilder::new(n);
            for (u, v, unit, w) in edges {
                b.add_edge(u, v, if unit == 0 { 1.0 } else { w });
            }
            let g = b.build();
            let (offsets, nbrs, ws, m) = g.raw_parts();
            let (offsets, mut nbrs, mut ws, mut m) = (offsets.to_vec(), nbrs.to_vec(), ws.to_vec(), m);
            let arcs = nbrs.len();
            for mutation in mutations {
                match mutation {
                    Mutation::Neighbor { arc, id } => nbrs[arc % arcs] = id,
                    Mutation::Weight { arc, w } => ws[arc % arcs] = w,
                    Mutation::Swap { a, b } => {
                        nbrs.swap(a % arcs, b % arcs);
                        ws.swap(a % arcs, b % arcs);
                    }
                    Mutation::EdgeCount { up } => m = if up { m.wrapping_add(1) } else { m.wrapping_sub(1) },
                }
            }
            let reference = reference_check(&offsets, &nbrs, &ws, m);
            let linear = validate_rows(&offsets, &nbrs, &ws, m);
            prop_assert_eq!(linear.is_ok(), reference.is_ok(), "linear {:?} vs reference {:?}", linear, reference);
            if linear.is_ok() {
                // Accepted arrays load bit-identically to the builder's path.
                let loaded = CsrGraph::from_sorted_rows(offsets.clone(), nbrs.clone(), ws.clone(), m).unwrap();
                prop_assert_eq!(loaded, CsrGraph::from_parts(offsets, nbrs, ws, m));
            }
        }
    }

    #[test]
    fn invariants_hold() {
        triangle().check_invariants().unwrap();
    }

    #[test]
    fn empty_and_isolated() {
        let g = GraphBuilder::new(0).build();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.average_degree(), 0.0);

        let g = GraphBuilder::new(5).build(); // 5 isolated vertices
        assert_eq!(g.num_edges(), 0);
        for v in 0..5 {
            assert_eq!(g.degree(v), 1); // just the self-loop
        }
        g.check_invariants().unwrap();
    }
}
