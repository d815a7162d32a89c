//! Copy-on-write repair of the similarity index after edge mutations.
//!
//! "Dynamic Structural Clustering Unleashed" observes that the two sorted
//! views of a GS\*-style index — per-vertex neighbor orders and per-μ core
//! orders — can be *repaired* rather than rebuilt when σ changes are local:
//! an edge update touches only the closed neighborhoods of its endpoints, so
//! only those vertices' orders (and the core-order entries whose `cθ_μ`
//! actually moved) need work. Everything else is a straight copy.
//!
//! The entry point is [`SimilarityIndex::patched`]: the dynamic update
//! engine (crate `anyscan-dynamic`) recomputes each affected vertex's full
//! neighbor order and hands them over as [`NeighborOrderPatch`]es; this
//! module builds a *new* index from the old one, splicing the patched rows
//! between bulk copies of the untouched runs and repairing exactly the per-μ
//! core-order slices whose thresholds or membership changed. The source
//! index is never written, so readers of an older epoch that share it keep
//! a valid snapshot. No σ is ever re-evaluated here and no slice is ever
//! re-sorted — untouched slices are copied, touched slices are
//! merge-repaired from already-sorted inputs — so the result is
//! bit-identical to a from-scratch [`SimilarityIndex::build`] on the mutated
//! graph (property-tested in `anyscan-dynamic`).

use anyscan_graph::VertexId;
use anyscan_telemetry::{Counter, Recorder, Telemetry};

use crate::{order_cmp, SimilarityIndex};

/// One vertex's complete post-update neighbor order: the closed neighborhood
/// sorted by descending σ (ties: ascending id), the vertex itself included
/// with σ = 1. Produced by the dynamic update engine for every vertex whose
/// closed neighborhood — or any incident σ — changed in a batch.
#[derive(Debug, Clone, PartialEq)]
pub struct NeighborOrderPatch {
    /// The vertex whose order is replaced.
    pub vertex: VertexId,
    /// The new `(neighbor, σ)` order, sorted descending by σ.
    pub order: Vec<(VertexId, f64)>,
}

/// For each key, the number of entries `0..len` ordered before it
/// (`before(i, key)` must be monotone in `i`). One branchless binary search
/// per key, all run in lockstep: each round probes every key once, so the
/// loads of different searches overlap instead of waiting on each other.
fn lower_bounds<K>(len: usize, keys: &[K], before: impl Fn(usize, &K) -> bool) -> Vec<usize> {
    let mut base = vec![0usize; keys.len()];
    let mut size = len;
    while size > 1 {
        let half = size / 2;
        for (b, key) in base.iter_mut().zip(keys) {
            *b += half * before(*b + half, key) as usize;
        }
        size -= half;
    }
    if len > 0 {
        for (b, key) in base.iter_mut().zip(keys) {
            *b += before(*b, key) as usize;
        }
    }
    base
}

impl SimilarityIndex {
    /// Returns a copy of this index with repaired neighbor orders spliced in
    /// and the per-μ core orders they invalidate repaired. `self` is left
    /// untouched, so an epoch still sharing it stays a valid snapshot.
    ///
    /// `num_edges` is the mutated graph's undirected edge count (the
    /// fingerprint queries are checked against). Patches must be internally
    /// consistent — each order a closed neighborhood containing its own
    /// vertex, sorted descending — and at most one patch per vertex;
    /// violations are a typed `Err` and no index is produced.
    ///
    /// Cost: one bulk copy of every array plus work proportional to the
    /// patches — rows and core-order slices are copied with
    /// `extend_from_slice` in the runs between edits, and each edit is found
    /// by a cursor (rows) or a binary search (core orders).
    ///
    /// MinHash signatures cannot be repaired incrementally (a signature
    /// mixes the whole neighborhood), so any stored sketches are dropped and
    /// the sketch mode reverts to [`SketchMode::Off`]; dynamic mode
    /// therefore serves exact σ only. Counter accounting: one
    /// `dyn_index_repairs` per patched vertex, recorded under the
    /// `index_repair` span.
    ///
    /// [`SketchMode::Off`]: anyscan_scan_common::SketchMode::Off
    pub fn patched(
        &self,
        patches: &[NeighborOrderPatch],
        num_edges: u64,
        telemetry: &Telemetry,
    ) -> Result<SimilarityIndex, String> {
        let _span = telemetry.span("index_repair");
        let n = self.num_vertices();
        for p in patches {
            if p.vertex as usize >= n {
                return Err(format!(
                    "patch vertex {} out of range (|V| = {n})",
                    p.vertex
                ));
            }
            if !p.order.iter().any(|&(q, _)| q == p.vertex) {
                return Err(format!("patch for {} lacks its self entry", p.vertex));
            }
            if p.order.windows(2).any(|w| order_cmp(&w[0], &w[1]).is_gt()) {
                return Err(format!("patch for {} is not sorted", p.vertex));
            }
        }
        // Patches in vertex order: the splice below walks them with a cursor.
        let mut by_vertex: Vec<&NeighborOrderPatch> = patches.iter().collect();
        by_vertex.sort_unstable_by_key(|p| p.vertex);
        if let Some(w) = by_vertex.windows(2).find(|w| w[0].vertex == w[1].vertex) {
            return Err(format!("duplicate patch for vertex {}", w[0].vertex));
        }

        // Per-μ core-order change events, computed against the old orders:
        // a vertex's entry at μ changes iff its membership (deg ≥ μ) or its
        // threshold `cθ_μ = order[μ-1].σ` changed. A removal carries the old
        // entry, an insertion the new one. Both lists are sorted by μ, then
        // by the build comparator, so each slice reads one sorted run of
        // each — and a slice's removals appear in the order of the slice.
        let mut removals: Vec<(usize, (VertexId, f64))> = Vec::new();
        let mut insertions: Vec<(usize, (VertexId, f64))> = Vec::new();
        for p in &by_vertex {
            let old_deg = self.neighbor_order(p.vertex).0.len();
            let new_deg = p.order.len();
            for mu in 1..=old_deg.max(new_deg) {
                let old_t = self.core_threshold(p.vertex, mu);
                let new_t = p.order.get(mu - 1).map(|&(_, t)| t);
                match (old_t, new_t) {
                    (Some(o), Some(t)) if o.to_bits() == t.to_bits() => {}
                    (old_t, new_t) => {
                        if let Some(o) = old_t {
                            removals.push((mu, (p.vertex, o)));
                        }
                        if let Some(t) = new_t {
                            insertions.push((mu, (p.vertex, t)));
                        }
                    }
                }
            }
        }
        let by_slice = |a: &(usize, (VertexId, f64)), b: &(usize, (VertexId, f64))| {
            a.0.cmp(&b.0).then(order_cmp(&a.1, &b.1))
        };
        removals.sort_unstable_by(by_slice);
        insertions.sort_unstable_by(by_slice);

        // Neighbor orders: each untouched run of rows is one bulk copy with
        // its offsets shifted; each patched row is written from its patch.
        let new_arcs = by_vertex.iter().fold(self.num_arcs(), |arcs, p| {
            arcs + p.order.len() - self.neighbor_order(p.vertex).0.len()
        });
        let mut offsets = Vec::with_capacity(n + 1);
        let mut nbr = Vec::with_capacity(new_arcs);
        let mut sig = Vec::with_capacity(new_arcs);
        offsets.push(0);
        let copy_rows = |from: usize,
                         to: usize,
                         offsets: &mut Vec<usize>,
                         nbr: &mut Vec<VertexId>,
                         sig: &mut Vec<f64>| {
            let (lo, hi) = (self.offsets[from], self.offsets[to]);
            let base = nbr.len();
            offsets.extend(self.offsets[from + 1..=to].iter().map(|&o| o - lo + base));
            nbr.extend_from_slice(&self.nbr[lo..hi]);
            sig.extend_from_slice(&self.sig[lo..hi]);
        };
        let mut next = 0usize;
        for p in &by_vertex {
            let v = p.vertex as usize;
            copy_rows(next, v, &mut offsets, &mut nbr, &mut sig);
            nbr.extend(p.order.iter().map(|&(q, _)| q));
            sig.extend(p.order.iter().map(|&(_, s)| s));
            offsets.push(nbr.len());
            next = v + 1;
        }
        copy_rows(next, n, &mut offsets, &mut nbr, &mut sig);

        // Core orders: μ slices with no change are copied whole; a changed
        // slice is copied in the runs between its edits, each located by
        // binary search in the old slice (sorted by the same comparator), so
        // its cost is the copy plus O(log) per edit, never a re-sort.
        let co_offsets = crate::core_order_offsets(&offsets);
        let mut co_vertices = Vec::with_capacity(new_arcs);
        let (mut ri, mut ii) = (0usize, 0usize);
        for (mu, &end) in co_offsets.iter().enumerate().skip(1) {
            let old_v = (mu <= self.mu_max()).then(|| self.core_order(mu));
            let old_v = old_v.unwrap_or_default();
            let rem_end = ri + removals[ri..].partition_point(|&(m, _)| m == mu);
            let ins_end = ii + insertions[ii..].partition_point(|&(m, _)| m == mu);
            let (rem, ins) = (&removals[ri..rem_end], &insertions[ii..ins_end]);
            (ri, ii) = (rem_end, ins_end);
            // Each edit's position in the old slice (a removal's entry, or
            // the first old entry not ordered before an insertion), with the
            // old thresholds read from the old neighbor orders.
            let positions = |edits: &[(usize, (VertexId, f64))]| {
                lower_bounds(old_v.len(), edits, |i, (_, e)| {
                    let v = old_v[i];
                    let t = self.core_threshold(v, mu).expect("slice μ has deg ≥ μ");
                    order_cmp(&(v, t), e).is_lt()
                })
            };
            let (rem_at, ins_at) = (positions(rem), positions(ins));
            let (mut at, mut r, mut i) = (0usize, 0usize, 0usize);
            loop {
                // An insertion lands before the old entry at its position
                // (if that entry is removed, the order between the two is
                // immaterial: only the insertion is emitted).
                if i < ins.len() && (r == rem.len() || ins_at[i] <= rem_at[r]) {
                    co_vertices.extend_from_slice(&old_v[at..ins_at[i]]);
                    co_vertices.push(ins[i].1 .0);
                    (at, i) = (ins_at[i], i + 1);
                } else if r < rem.len() {
                    debug_assert_eq!(old_v[rem_at[r]], rem[r].1 .0, "removal must be present");
                    co_vertices.extend_from_slice(&old_v[at..rem_at[r]]);
                    (at, r) = (rem_at[r] + 1, r + 1);
                } else {
                    break;
                }
            }
            co_vertices.extend_from_slice(&old_v[at..]);
            debug_assert_eq!(co_vertices.len(), end, "core order μ={mu} size");
        }

        telemetry.add(Counter::DynIndexRepairs, patches.len() as u64);
        Ok(SimilarityIndex {
            offsets,
            nbr,
            sig,
            co_offsets,
            co_vertices,
            num_edges,
            reorder: self.reorder,
            sketches: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anyscan_graph::gen::{erdos_renyi, WeightModel};
    use anyscan_graph::{CsrGraph, GraphBuilder};
    use anyscan_scan_common::kernel::sigma_raw;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Recomputes `v`'s neighbor order from scratch on `g` (the patch the
    /// dynamic engine would produce).
    fn fresh_order(g: &CsrGraph, v: VertexId) -> NeighborOrderPatch {
        let mut order: Vec<(VertexId, f64)> = g
            .neighbor_ids(v)
            .iter()
            .map(|&q| (q, if q == v { 1.0 } else { sigma_raw(g, v, q) }))
            .collect();
        order.sort_unstable_by(order_cmp);
        NeighborOrderPatch { vertex: v, order }
    }

    /// Patch every vertex whose closed neighborhood differs between the two
    /// graphs, plus every vertex incident to a changed σ — i.e. the closed
    /// neighborhoods of `touched` in either graph.
    fn patches_for(
        old: &CsrGraph,
        new: &CsrGraph,
        touched: &[VertexId],
    ) -> Vec<NeighborOrderPatch> {
        let mut affected: Vec<VertexId> = touched
            .iter()
            .flat_map(|&t| {
                old.neighbor_ids(t)
                    .iter()
                    .chain(new.neighbor_ids(t))
                    .copied()
                    .collect::<Vec<_>>()
            })
            .collect();
        affected.sort_unstable();
        affected.dedup();
        affected.into_iter().map(|v| fresh_order(new, v)).collect()
    }

    fn assert_index_eq(repaired: &SimilarityIndex, fresh: &SimilarityIndex) {
        assert_eq!(repaired.offsets, fresh.offsets);
        assert_eq!(repaired.nbr, fresh.nbr);
        let bits = |s: &[f64]| s.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&repaired.sig), bits(&fresh.sig));
        assert_eq!(repaired.co_offsets, fresh.co_offsets);
        assert_eq!(repaired.co_vertices, fresh.co_vertices);
        assert_eq!(repaired.num_edges, fresh.num_edges);
    }

    #[test]
    fn reweight_repair_matches_fresh_build() {
        let mut rng = StdRng::seed_from_u64(31);
        let before = erdos_renyi(&mut rng, 80, 400, WeightModel::uniform_default());
        // Reweight edge (u, v): same topology, one weight changed.
        let (u, v, _) = before.edges().next().unwrap();
        let mut b = GraphBuilder::new(80);
        for (a, c, w) in before.edges() {
            let w = if (a, c) == (u, v) { w * 3.0 } else { w };
            b.add_edge(a, c, w);
        }
        let after = b.build();

        let idx = SimilarityIndex::build(&before, 2)
            .patched(
                &patches_for(&before, &after, &[u, v]),
                after.num_edges(),
                &Telemetry::disabled(),
            )
            .unwrap();
        assert_index_eq(&idx, &SimilarityIndex::build(&after, 2));
    }

    /// Removes edge #7 of an Erdős–Rényi graph and inserts the first absent
    /// pair: degrees change, so rows shift and core orders gain and lose
    /// members.
    fn insert_and_remove(seed: u64) -> (CsrGraph, CsrGraph, Vec<VertexId>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let before = erdos_renyi(&mut rng, 60, 250, WeightModel::uniform_default());
        let (ru, rv, _) = before.edges().nth(7).unwrap();
        let (iu, iv) = (0..60u32)
            .flat_map(|a| (a + 1..60).map(move |b| (a, b)))
            .find(|&(a, b)| !before.has_edge(a, b))
            .unwrap();
        let mut b = GraphBuilder::new(60);
        for (a, c, w) in before.edges() {
            if (a, c) != (ru, rv) {
                b.add_edge(a, c, w);
            }
        }
        b.add_edge(iu, iv, 1.25);
        (before, b.build(), vec![ru, rv, iu, iv])
    }

    #[test]
    fn insert_and_remove_repair_matches_fresh_build() {
        let (before, after, touched) = insert_and_remove(32);
        let idx = SimilarityIndex::build(&before, 2)
            .patched(
                &patches_for(&before, &after, &touched),
                after.num_edges(),
                &Telemetry::disabled(),
            )
            .unwrap();
        assert_index_eq(&idx, &SimilarityIndex::build(&after, 2));
    }

    #[test]
    fn patched_leaves_its_source_untouched() {
        // An older epoch keeps reading the source index while the repaired
        // copy serves the next one: every source array must survive bitwise.
        let (before, after, touched) = insert_and_remove(34);
        let source = SimilarityIndex::build(&before, 2);
        let pristine = source.clone();
        let mut patches = patches_for(&before, &after, &touched);
        patches.reverse(); // the splice must not rely on caller order
        let repaired = source
            .patched(&patches, after.num_edges(), &Telemetry::disabled())
            .unwrap();
        assert_index_eq(&source, &pristine);
        assert_eq!(source, pristine);
        assert_index_eq(&repaired, &SimilarityIndex::build(&after, 2));
        assert_ne!(repaired, source);
    }

    #[test]
    fn tie_heavy_repairs_match_fresh_build() {
        // Unweighted graphs make many σ (and so many cθ_μ) equal: core-order
        // edits then land among runs of ties, ordered by id alone.
        use rand::Rng;
        for seed in 0..24 {
            let mut rng = StdRng::seed_from_u64(100 + seed);
            let n = 40u32;
            let edges: Vec<(VertexId, VertexId)> = (0..120)
                .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
                .filter(|&(a, b)| a != b)
                .collect();
            let before = GraphBuilder::from_unweighted_edges(n as usize, edges.clone()).unwrap();
            let mut after_edges: Vec<(VertexId, VertexId)> = edges
                .iter()
                .copied()
                .filter(|_| rng.gen_range(0..10) != 0)
                .collect();
            for _ in 0..6 {
                let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if a != b {
                    after_edges.push((a, b));
                }
            }
            let after = GraphBuilder::from_unweighted_edges(n as usize, after_edges).unwrap();
            let touched: Vec<VertexId> = (0..n)
                .filter(|&v| before.neighbor_ids(v) != after.neighbor_ids(v))
                .collect();
            let idx = SimilarityIndex::build(&before, 1)
                .patched(
                    &patches_for(&before, &after, &touched),
                    after.num_edges(),
                    &Telemetry::disabled(),
                )
                .unwrap();
            assert_index_eq(&idx, &SimilarityIndex::build(&after, 1));
        }
    }

    #[test]
    fn repair_drops_sketches_and_counts() {
        let mut rng = StdRng::seed_from_u64(33);
        let g = erdos_renyi(&mut rng, 40, 150, WeightModel::uniform_default());
        let opts = crate::IndexBuildOptions {
            sketch: anyscan_scan_common::SketchMode::Approx,
            ..Default::default()
        };
        let source = SimilarityIndex::build_with_options(&g, 1, opts, &Telemetry::disabled());
        assert!(source.sketches().is_some());
        let t = Telemetry::enabled();
        let (u, v, _) = g.edges().next().unwrap();
        let patches = patches_for(&g, &g, &[u, v]); // no-op σ, exercises the path
        let count = patches.len() as u64;
        let idx = source.patched(&patches, g.num_edges(), &t).unwrap();
        assert!(idx.sketches().is_none());
        assert_eq!(idx.sketch_mode(), anyscan_scan_common::SketchMode::Off);
        assert!(source.sketches().is_some(), "the source keeps its sketches");
        let r = t.report().unwrap();
        assert_eq!(r.counter(Counter::DynIndexRepairs), count);
        assert!(r.span_total("index_repair").is_some());
    }

    #[test]
    fn lockstep_lower_bounds_match_partition_point() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(35);
        for len in [0usize, 1, 2, 3, 7, 64, 1000] {
            let mut sorted: Vec<u32> = (0..len).map(|_| rng.gen_range(0..50u32)).collect();
            sorted.sort_unstable();
            let keys: Vec<u32> = (0..40).map(|_| rng.gen_range(0..52u32)).collect();
            let got = lower_bounds(len, &keys, |i, &k| sorted[i] < k);
            let want: Vec<usize> = keys
                .iter()
                .map(|&k| sorted.partition_point(|&x| x < k))
                .collect();
            assert_eq!(got, want, "len {len}");
        }
    }

    #[test]
    fn malformed_patches_are_rejected() {
        let g = GraphBuilder::from_unweighted_edges(3, vec![(0, 1), (1, 2)]).unwrap();
        let idx = SimilarityIndex::build(&g, 1);
        let t = Telemetry::disabled();
        let reject = |patches: &[NeighborOrderPatch], why: &str| {
            let err = idx.patched(patches, g.num_edges(), &t).unwrap_err();
            assert!(err.contains(why), "expected {why:?}, got {err:?}");
        };
        // Out of range.
        let bad = NeighborOrderPatch {
            vertex: 9,
            order: vec![(9, 1.0)],
        };
        reject(&[bad], "out of range");
        // Missing self entry.
        let bad = NeighborOrderPatch {
            vertex: 0,
            order: vec![(1, 0.5)],
        };
        reject(&[bad], "self entry");
        // Unsorted order.
        let bad = NeighborOrderPatch {
            vertex: 0,
            order: vec![(1, 0.5), (0, 1.0)],
        };
        reject(&[bad], "not sorted");
        // Duplicate patches for one vertex, also when not adjacent.
        let p = NeighborOrderPatch {
            vertex: 0,
            order: vec![(0, 1.0), (1, 0.5)],
        };
        let other = NeighborOrderPatch {
            vertex: 2,
            order: vec![(2, 1.0), (1, 0.5)],
        };
        reject(&[p.clone(), p.clone()], "duplicate");
        reject(&[p.clone(), other, p], "duplicate");
        assert_eq!(idx, SimilarityIndex::build(&g, 1));
    }
}
